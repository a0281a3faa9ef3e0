//! The access-plan interpreter: a dynamic equivalent of the generated
//! stubs.
//!
//! [`DeviceInstance`] executes the IR of a checked specification against
//! any [`DeviceAccess`] implementor, with the exact semantics the paper
//! ascribes to generated code:
//!
//! * register masks force fixed bits on writes,
//! * pre/post/set actions run around every register access (recursively
//!   writing private index variables, structures, memory cells),
//! * idempotent variables are cached; `volatile` ones are re-read,
//! * `trigger` variables substitute neutral values for their neighbours
//!   on shared registers,
//! * structures read each backing register once and serve field getters
//!   from the cache (the `bm_get_mouse_state()` / `bm_get_dy()` split of
//!   the paper's Figure 3),
//! * conditional serializations (`if (sngl == CASCADED) icw3`) execute
//!   guard-split plan variants: a [`devil_ir::PlanGuard`] list selects
//!   the straight-line version from flat cache slots,
//! * optional debug checks validate written values and read patterns.
//!
//! Two engines implement those semantics. Every access with a compiled
//! plan takes one path, `DeviceInstance::dispatch`: total variant
//! selection, then the variant's arena steps. Debug checks validate
//! around it — the written value before, the read value after — and
//! superplans run op by op while they are on. The general interpreter
//! walks the specification's actions and orders directly. It is the
//! reference model ([`DeviceInstance::set_fast_plans`]`(false)`), and
//! it serves the accesses the lowerer recorded in
//! [`DeviceIr::plan_fallbacks`], block transfers, and the direction
//! errors (reading a write-only variable) that compile no plan.
//! Nested writes the general interpreter issues stay on it.

use crate::access::DeviceAccess;
use crate::error::{RtError, RtResult};
use devil_ir::{DeviceIr, FuseOp, PlanStep, VarIr, MAX_DEPTH};
use devil_sema::model::{
    Action, ActionTarget, ActionValue, ChunkArg, CondSem, Neutral, RegId, SerStep, StructId,
    TypeSem, VarId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Counters describing how accesses were dispatched, for benches and
/// the differential fuzzer's plan-coverage assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Accesses executed by an unguarded straight-line plan.
    pub straight: u64,
    /// Accesses executed by a guard-selected plan variant (conditional
    /// serialization on the fast path).
    pub guarded: u64,
    /// Accesses handled by the general interpreter, nested action
    /// writes included: plans disabled, or an access that compiled no
    /// plan (a recorded [`DeviceIr::plan_fallbacks`] entry, a block
    /// transfer's actions, a direction error). Memory-cell variables
    /// dispatch on (trivial) plans and count as `straight`.
    pub general: u64,
    /// Fused superplan dispatches: whole driver-declared hot sequences
    /// executed as one guard evaluation plus one arena walk
    /// ([`DeviceInstance::run_superplan`]). Per-superplan counts are in
    /// [`DeviceInstance::superplan_hits`].
    pub fused: u64,
}

impl PlanStats {
    /// Counters accumulated since `earlier`: the per-op-stream delta
    /// the coverage-guided fuzzer keys on.
    ///
    /// # Panics
    ///
    /// Panics if any counter of `earlier` exceeds this snapshot's —
    /// counters are monotone between restores, so a negative delta
    /// means the two snapshots are from different epochs (a
    /// [`DeviceInstance::restore`] in between).
    pub fn delta(self, earlier: PlanStats) -> PlanStats {
        let sub = |field: &str, now: u64, then: u64| {
            now.checked_sub(then).unwrap_or_else(|| {
                panic!("PlanStats delta underflow on `{field}`: {now} - {then} (epoch mismatch)")
            })
        };
        PlanStats {
            straight: sub("straight", self.straight, earlier.straight),
            guarded: sub("guarded", self.guarded, earlier.guarded),
            general: sub("general", self.general, earlier.general),
            fused: sub("fused", self.fused, earlier.fused),
        }
    }

    /// Total dispatches across all paths.
    pub fn total(self) -> u64 {
        self.straight + self.guarded + self.general + self.fused
    }
}

impl std::ops::Sub for PlanStats {
    type Output = PlanStats;

    /// `now - earlier`, as [`PlanStats::delta`].
    fn sub(self, earlier: PlanStats) -> PlanStats {
        self.delta(earlier)
    }
}

impl std::ops::Add for PlanStats {
    type Output = PlanStats;

    fn add(self, rhs: PlanStats) -> PlanStats {
        PlanStats {
            straight: self.straight + rhs.straight,
            guarded: self.guarded + rhs.guarded,
            general: self.general + rhs.general,
            fused: self.fused + rhs.fused,
        }
    }
}

/// Which access a recorded dispatch belongs to (the coverage map's
/// access-id key).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessRef {
    /// `read_id` of a variable.
    ReadVar(VarId),
    /// `write_id` of a variable.
    WriteVar(VarId),
    /// `read_struct_id` of a structure.
    ReadStruct(StructId),
    /// `write_struct_id` of a structure.
    WriteStruct(StructId),
    /// `run_superplan` of a fused sequence.
    Superplan(usize),
}

/// How one dispatch resolved, when the opt-in trace is recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DispatchOutcome {
    /// A plan variant executed; the payload is the selected mixed-radix
    /// variant index (0 for unconditional single-variant plans, and the
    /// fused variant index for superplans).
    Variant(u32),
    /// A memory-cell read served directly from the cell (no steps).
    Cell,
    /// The general interpreter handled the access.
    General,
}

/// One dispatch recorded by the opt-in trace
/// ([`DeviceInstance::set_dispatch_trace`]): which access ran and which
/// plan variant it resolved to, or that the general interpreter ran
/// it. This is the coverage signal the guided fuzzer feeds on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DispatchRecord {
    /// The dispatched access.
    pub access: AccessRef,
    /// How it resolved.
    pub outcome: DispatchOutcome,
}

/// A register's pre/post/set action lists, shared by `Arc` handle.
type ActionLists = (Arc<[Action]>, Arc<[Action]>, Arc<[Action]>);

/// Family-argument tuples stay this small in every shipped spec, so the
/// argument buffers and hashed-fallback cache keys never touch the heap
/// in the common case.
const ARG_INLINE: usize = 4;

/// A small-vector argument buffer. Doubles as the family-cache key:
/// hashing and equality see only the live slice, so an inline buffer
/// and a spilled one holding the same arguments compare equal.
#[derive(Clone, Debug)]
enum ArgBuf {
    Inline { len: u8, buf: [u64; ARG_INLINE] },
    Heap(Vec<u64>),
}

impl ArgBuf {
    fn new() -> Self {
        ArgBuf::Inline { len: 0, buf: [0; ARG_INLINE] }
    }

    fn from_slice(args: &[u64]) -> Self {
        if args.len() <= ARG_INLINE {
            let mut buf = [0; ARG_INLINE];
            buf[..args.len()].copy_from_slice(args);
            ArgBuf::Inline { len: args.len() as u8, buf }
        } else {
            ArgBuf::Heap(args.to_vec())
        }
    }

    fn push(&mut self, v: u64) {
        match self {
            ArgBuf::Inline { len, buf } => {
                if (*len as usize) < ARG_INLINE {
                    buf[*len as usize] = v;
                    *len += 1;
                } else {
                    let mut heap = buf.to_vec();
                    heap.push(v);
                    *self = ArgBuf::Heap(heap);
                }
            }
            ArgBuf::Heap(heap) => heap.push(v),
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            ArgBuf::Inline { len, buf } => &buf[..*len as usize],
            ArgBuf::Heap(heap) => heap,
        }
    }
}

impl std::ops::Deref for ArgBuf {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl PartialEq for ArgBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ArgBuf {}

impl std::hash::Hash for ArgBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<u64> for ArgBuf {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut buf = ArgBuf::new();
        for v in iter {
            buf.push(v);
        }
        buf
    }
}

/// How a register write composes values for variables other than the one
/// being written.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteMode {
    /// Single-variable write: other trigger variables get their neutral
    /// value; idempotent ones come from the cache.
    One(VarId),
    /// Structure write: every field comes from the cache (set_field
    /// populated it).
    All,
}

/// A live device session: IR plus cache state.
///
/// Every register is cached in **flat slots** (a `Vec` indexed by the
/// slot the lowerer assigned): one slot per concrete register, and an
/// indexed slot range per family (`base + index(arg)·stride`), so
/// steady-state accesses do zero hashing. Only families whose domain
/// exceeds the lowerer's slot cap fall back to a hash map keyed by
/// their argument tuple.
pub struct DeviceInstance {
    /// The immutable compiled part — IR, plan arena, name tables —
    /// shared by handle so a fleet of instances over one spec pays for
    /// compilation once and spawning is O(slots).
    ir: Arc<DeviceIr>,
    /// Flat cache: one raw value per register instance.
    slots: Vec<u64>,
    /// Which flat slots hold a value (a register never accessed has no
    /// cached raw value to compose from).
    slot_valid: Vec<bool>,
    /// Hashed fallback for family registers whose domain exceeds the
    /// flat-slot cap.
    family_cache: HashMap<(u32, ArgBuf), u64>,
    /// Private memory cells.
    mem: Vec<u64>,
    /// Whether debug-mode run-time checks are enabled.
    checks: bool,
    /// Whether precompiled access plans may be used (disabled to
    /// measure the general interpreter path).
    fast_plans: bool,
    /// Dispatch counters (see [`PlanStats`]).
    stats: PlanStats,
    /// Per-superplan fused-dispatch counts, indexed like
    /// [`DeviceIr::superplans`].
    superplan_hits: Vec<u64>,
    /// Opt-in dispatch trace ([`DeviceInstance::set_dispatch_trace`]):
    /// when `Some`, every top-level dispatch appends a
    /// [`DispatchRecord`]. Not part of [`InstanceSnapshot`] — the trace
    /// is harness instrumentation, not device state.
    trace: Option<Vec<DispatchRecord>>,
    /// Reusable `RegId` buffers for the general path's
    /// serialization-order flattening. A pool rather than a single
    /// buffer: actions recurse into nested accesses, each popping its
    /// own buffer.
    order_pool: Vec<Vec<RegId>>,
}

/// A checkpoint of an instance's mutable state: flat cache slots,
/// hashed family fallback, memory cells and dispatch counters. Taking
/// one is O(slots); the shared IR is not copied. Fleet harnesses
/// compare snapshots across shard counts to prove determinism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceSnapshot {
    slots: Vec<u64>,
    slot_valid: Vec<bool>,
    family_cache: HashMap<(u32, ArgBuf), u64>,
    mem: Vec<u64>,
    stats: PlanStats,
    superplan_hits: Vec<u64>,
}

/// Instances hold only owned state plus an `Arc` of the immutable IR,
/// so a fleet harness can move them into shard worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DeviceInstance>();
    assert_send_sync::<InstanceSnapshot>();
};

impl DeviceInstance {
    /// Creates an instance over lowered IR with checks disabled.
    pub fn new(ir: DeviceIr) -> Self {
        Self::with_shared_ir(Arc::new(ir))
    }

    /// Creates an instance over an already-shared IR handle: the
    /// fleet-spawning path. Compilation cost is paid once per spec; each
    /// further instance allocates only its slot cache and memory cells.
    pub fn with_shared_ir(ir: Arc<DeviceIr>) -> Self {
        let mem = vec![0; ir.mem_cells];
        let slots = vec![0; ir.cache_slots];
        let slot_valid = vec![false; ir.cache_slots];
        let superplan_hits = vec![0; ir.superplans().len()];
        DeviceInstance {
            ir,
            slots,
            slot_valid,
            family_cache: HashMap::new(),
            mem,
            checks: false,
            fast_plans: true,
            stats: PlanStats::default(),
            superplan_hits,
            trace: None,
            order_pool: Vec::new(),
        }
    }

    /// A new handle to the shared immutable IR.
    pub fn shared_ir(&self) -> Arc<DeviceIr> {
        Arc::clone(&self.ir)
    }

    /// Captures the mutable state (cache, cells, counters) for later
    /// [`DeviceInstance::restore`] or cross-run comparison.
    pub fn snapshot(&self) -> InstanceSnapshot {
        InstanceSnapshot {
            slots: self.slots.clone(),
            slot_valid: self.slot_valid.clone(),
            family_cache: self.family_cache.clone(),
            mem: self.mem.clone(),
            stats: self.stats,
            superplan_hits: self.superplan_hits.clone(),
        }
    }

    /// Restores state captured by [`DeviceInstance::snapshot`]. The
    /// snapshot must come from an instance of the same IR.
    pub fn restore(&mut self, snap: &InstanceSnapshot) {
        assert_eq!(snap.slots.len(), self.slots.len(), "snapshot from a different IR");
        assert_eq!(snap.mem.len(), self.mem.len(), "snapshot from a different IR");
        assert_eq!(
            snap.superplan_hits.len(),
            self.superplan_hits.len(),
            "snapshot from a different IR"
        );
        self.slots.copy_from_slice(&snap.slots);
        self.slot_valid.copy_from_slice(&snap.slot_valid);
        self.family_cache.clone_from(&snap.family_cache);
        self.mem.copy_from_slice(&snap.mem);
        self.stats = snap.stats;
        self.superplan_hits.copy_from_slice(&snap.superplan_hits);
    }

    /// Enables or disables debug-mode run-time checks (the paper's
    /// `DEVIL_DEBUG`). Planned accesses stay on their plans: the
    /// written value is validated before a write or `set_field`, the
    /// read value after a read or `get_field`, and superplans run
    /// unfused so each op is validated.
    pub fn set_debug_checks(&mut self, on: bool) {
        self.checks = on;
    }

    /// Enables or disables the precompiled-plan fast path (on by
    /// default; turning it off selects the general interpreter as the
    /// reference model, which the differential suites compare
    /// against).
    pub fn set_fast_plans(&mut self, on: bool) {
        self.fast_plans = on;
    }

    /// The underlying IR.
    pub fn ir(&self) -> &DeviceIr {
        &self.ir
    }

    /// Dispatch counters accumulated since construction (rewound by
    /// [`DeviceInstance::restore`]).
    pub fn plan_stats(&self) -> PlanStats {
        self.stats
    }

    /// Per-superplan fused-dispatch counts, indexed like
    /// [`DeviceIr::superplans`].
    pub fn superplan_hits(&self) -> &[u64] {
        &self.superplan_hits
    }

    /// Turns the per-dispatch trace on or off. While on, every
    /// top-level variable/struct dispatch and every fused superplan
    /// records which plan variant it selected (or that the general
    /// interpreter ran it), for the coverage-guided fuzzer. Off by default; turning it off discards
    /// any pending records.
    pub fn set_dispatch_trace(&mut self, on: bool) {
        if on {
            if self.trace.is_none() {
                self.trace = Some(Vec::new());
            }
        } else {
            self.trace = None;
        }
    }

    /// Drains the recorded dispatch trace, leaving tracing enabled (or
    /// returns an empty vec when tracing is off).
    pub fn take_dispatch_trace(&mut self) -> Vec<DispatchRecord> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// The flat cache: per-slot raw values and their validity flags.
    /// Verification harnesses (the compiled-stub differential oracle)
    /// compare this against a generated stub's cache struct.
    pub fn cache_snapshot(&self) -> (&[u64], &[bool]) {
        (&self.slots, &self.slot_valid)
    }

    /// The private memory cells, indexed by `VarIr::mem_cell`.
    pub fn mem_snapshot(&self) -> &[u64] {
        &self.mem
    }

    /// Pops a reusable order buffer (empty) from the pool.
    fn pop_order_buf(&mut self) -> Vec<RegId> {
        self.order_pool.pop().unwrap_or_default()
    }

    /// Returns an order buffer to the pool for reuse.
    fn push_order_buf(&mut self, mut buf: Vec<RegId>) {
        buf.clear();
        if self.order_pool.len() < 8 {
            self.order_pool.push(buf);
        }
    }

    /// Resolves a variable name to its id.
    pub fn var_id(&self, name: &str) -> RtResult<VarId> {
        self.ir.var_id(name).ok_or_else(|| RtError::Unknown(name.into()))
    }

    /// Resolves a structure name to its id.
    pub fn struct_id(&self, name: &str) -> RtResult<StructId> {
        self.ir.struct_id(name).ok_or_else(|| RtError::Unknown(name.into()))
    }

    /// The raw value an enum symbol of `var` maps to.
    pub fn sym_value(&self, var: &str, sym: &str) -> RtResult<u64> {
        let vid = self.var_id(var)?;
        match &self.ir.var(vid).ty {
            TypeSem::Enum(en) => {
                en.value_of(sym).ok_or_else(|| RtError::Unknown(format!("{var}::{sym}")))
            }
            _ => Err(RtError::Unknown(format!("{var}::{sym}"))),
        }
    }

    // ---- public variable access ----

    /// Reads a variable by name.
    pub fn read(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<u64> {
        let vid = self.var_id(name)?;
        self.read_id(dev, vid, &[])
    }

    /// Reads a parameterized variable.
    pub fn read_indexed(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        args: &[u64],
    ) -> RtResult<u64> {
        let vid = self.var_id(name)?;
        self.read_id(dev, vid, args)
    }

    /// Reads a signed variable, sign-extending to `i64`.
    pub fn read_signed(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<i64> {
        let vid = self.var_id(name)?;
        let raw = self.read_id(dev, vid, &[])?;
        Ok(sign_extend(raw, self.ir.var(vid).width))
    }

    /// Writes a variable by name.
    pub fn write(&mut self, dev: &mut dyn DeviceAccess, name: &str, value: u64) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.write_id(dev, vid, &[], value)
    }

    /// Writes a parameterized variable.
    pub fn write_indexed(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        args: &[u64],
        value: u64,
    ) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.write_id(dev, vid, args, value)
    }

    /// Writes an enum symbol to a variable.
    pub fn write_sym(&mut self, dev: &mut dyn DeviceAccess, name: &str, sym: &str) -> RtResult<()> {
        let v = self.sym_value(name, sym)?;
        self.write(dev, name, v)
    }

    /// Reads a variable and maps the raw bits to an enum symbol.
    pub fn read_sym(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<String> {
        let vid = self.var_id(name)?;
        let raw = self.read_id(dev, vid, &[])?;
        match &self.ir.var(vid).ty {
            TypeSem::Enum(en) => en
                .sym_for_read(raw)
                .map(str::to_string)
                .ok_or(RtError::BadPattern { var: name.into(), raw }),
            _ => Err(RtError::Unknown(format!("{name} is not enumerated"))),
        }
    }

    /// Reads a variable by id.
    pub fn read_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
    ) -> RtResult<u64> {
        let var = self.ir.var(vid);
        validate_args(var, args)?;
        let cell = var.mem_cell.is_some();
        // Idempotent variables are served from the cache when every
        // assembled slot holds a value: the plan's steps are skipped.
        let cached = self.fast_plans
            && !var.behavior.volatile
            && !var.behavior.read_trigger
            && var
                .read_plan
                .as_ref()
                .is_some_and(|p| p.assemble.iter().all(|(s, _)| self.slot_valid[s.resolve(args)]));
        match self.dispatch(dev, AccessRef::ReadVar(vid), args, 0, cached, &mut SuperIo::none()) {
            // Cells serve unvalidated, as in the general interpreter.
            Some(v) if cell => Ok(v),
            Some(v) => self.checked_read(vid, v),
            None => self.read_general(dev, vid, args),
        }
    }

    /// The general interpreter's variable read (arguments validated).
    fn read_general(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
    ) -> RtResult<u64> {
        self.count_general(AccessRef::ReadVar(vid), 0);
        let var = self.ir.var(vid);
        if let Some(cell) = var.mem_cell {
            return Ok(self.mem[cell]);
        }
        if !var.readable {
            return Err(RtError::NotReadable(var.name.clone()));
        }
        let behavior = var.behavior;
        // Arc handle on the order: the general path takes a reference
        // bump per access, never a `VarIr` deep copy.
        let read_order = var.read_order.clone();
        // Idempotent variables can be served from the cache when every
        // backing register has a cached value.
        if !behavior.volatile && !behavior.read_trigger {
            if let Some(v) = self.try_assemble_cached(vid, args) {
                return self.checked_read(vid, v);
            }
        }
        let mut order = self.pop_order_buf();
        let mut res = self.plan_regs_into(&read_order, &mut order);
        if res.is_ok() {
            for &rid in &order {
                let reg_args = self.args_for_reg(vid, rid, args);
                if let Err(e) = self.read_register(dev, rid, &reg_args, 0) {
                    res = Err(e);
                    break;
                }
            }
        }
        self.push_order_buf(order);
        res?;
        let v = self.assemble_cached(vid, args);
        self.checked_read(vid, v)
    }

    /// Writes a variable by id.
    pub fn write_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
    ) -> RtResult<()> {
        validate_args(self.ir.var(vid), args)?;
        self.checked_write(vid, value)?;
        match self.dispatch(dev, AccessRef::WriteVar(vid), args, value, false, &mut SuperIo::none())
        {
            Some(_) => Ok(()),
            None => self.write_id_depth(dev, vid, args, value, 0),
        }
    }

    /// The general interpreter's variable write, at action-recursion
    /// `depth` (0 for a top-level write). Nested action writes stay on
    /// the general interpreter.
    fn write_id_depth(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
        depth: u32,
    ) -> RtResult<()> {
        validate_args(self.ir.var(vid), args)?;
        self.count_general(AccessRef::WriteVar(vid), depth);
        let var = self.ir.var(vid);
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(var.name.clone()));
        }
        self.checked_write(vid, value)?;
        let mem_cell = var.mem_cell;
        let writable = var.writable;
        // Arc handles on the order and action list: a general write
        // takes two reference bumps, never a `VarIr` deep copy.
        let set = var.set.clone();
        let write_order = var.write_order.clone();
        if let Some(cell) = mem_cell {
            self.mem[cell] = value;
            return self.run_actions(dev, &set, args, depth + 1);
        }
        if !writable {
            return Err(RtError::NotWritable(self.ir.var(vid).name.clone()));
        }
        // Update the cache with the new bits first so composition and
        // condition evaluation see the written value.
        self.store_var_bits(vid, args, value);
        let mut order = self.pop_order_buf();
        let mut res = self.plan_regs_into(&write_order, &mut order);
        if res.is_ok() {
            for &rid in &order {
                let reg_args = self.args_for_reg(vid, rid, args);
                let raw = self.compose(rid, &reg_args, WriteMode::One(vid));
                if let Err(e) = self.write_register(dev, rid, &reg_args, raw, depth + 1) {
                    res = Err(e);
                    break;
                }
            }
        }
        self.push_order_buf(order);
        res?;
        self.run_actions(dev, &set, args, depth + 1)
    }

    // ---- structures ----

    /// Reads a structure: every backing register once, in plan order.
    /// Field values are then available via [`DeviceInstance::get_field`].
    pub fn read_struct(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<()> {
        let sid = self.struct_id(name)?;
        self.read_struct_id(dev, sid)
    }

    /// Reads a structure by id — the Figure 3 hot loop. A precompiled
    /// struct plan (index writes and data reads flattened to straight
    /// line) executes when one exists; conditional serializations run
    /// the guard-selected variant.
    pub fn read_struct_id(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        if self
            .dispatch(dev, AccessRef::ReadStruct(sid), &[], 0, false, &mut SuperIo::none())
            .is_some()
        {
            return Ok(());
        }
        self.count_general(AccessRef::ReadStruct(sid), 0);
        let mut order = self.pop_order_buf();
        let mut res = self.plan_regs_into(&self.ir.strct(sid).read_order, &mut order);
        if res.is_ok() {
            for &rid in &order {
                if let Err(e) = self.read_register(dev, rid, &[], 0) {
                    res = Err(e);
                    break;
                }
            }
        }
        self.push_order_buf(order);
        res
    }

    /// Gets a structure field from the cache (no device access).
    pub fn get_field(&mut self, name: &str) -> RtResult<u64> {
        let vid = self.var_id(name)?;
        self.get_field_id(vid)
    }

    /// Gets a structure field by id: with plans enabled the value
    /// assembles straight from flat cache slots — no name resolution,
    /// no hashing, no argument vectors.
    pub fn get_field_id(&mut self, vid: VarId) -> RtResult<u64> {
        let var = self.ir.var(vid);
        if var.parent.is_none() {
            return Err(RtError::NotAField(var.name.clone()));
        }
        let v = match &var.slot_assemble {
            Some(assemble) if self.fast_plans => {
                assemble.iter().fold(0, |v, &(slot, seg)| v | seg.extract(self.slots[slot]))
            }
            _ => self.assemble_cached(vid, &[]),
        };
        self.checked_read(vid, v)
    }

    /// Gets a signed structure field from the cache.
    pub fn get_field_signed(&mut self, name: &str) -> RtResult<i64> {
        let vid = self.var_id(name)?;
        self.get_field_signed_id(vid)
    }

    /// Gets a signed structure field by id.
    pub fn get_field_signed_id(&mut self, vid: VarId) -> RtResult<i64> {
        let width = self.ir.var(vid).width;
        Ok(sign_extend(self.get_field_id(vid)?, width))
    }

    /// Sets a structure field in the cache (no device access; flushed by
    /// [`DeviceInstance::write_struct`]).
    pub fn set_field(&mut self, name: &str, value: u64) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.set_field_id(vid, value)
    }

    /// Sets a structure field by id.
    pub fn set_field_id(&mut self, vid: VarId, value: u64) -> RtResult<()> {
        let var = self.ir.var(vid);
        if var.parent.is_none() {
            return Err(RtError::NotAField(var.name.clone()));
        }
        self.checked_write(vid, value)?;
        self.store_var_bits(vid, &[], value);
        Ok(())
    }

    /// Writes a structure: composes every backing register from the
    /// cache and writes them in plan order (conditions evaluated against
    /// the cached field values, as in the 8259A initialization).
    pub fn write_struct(&mut self, dev: &mut dyn DeviceAccess, name: &str) -> RtResult<()> {
        let sid = self.struct_id(name)?;
        self.write_struct_id(dev, sid)
    }

    /// Writes a structure by id: the compiled flush (cache-composed
    /// masked writes plus folded field set-actions) in a straight line,
    /// with the entry guards picking the conditional-serialization
    /// variant — the cache state they test is exactly what the general
    /// path's up-front condition evaluation would see.
    pub fn write_struct_id(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        if self
            .dispatch(dev, AccessRef::WriteStruct(sid), &[], 0, false, &mut SuperIo::none())
            .is_some()
        {
            return Ok(());
        }
        self.write_struct_depth(dev, sid, 0)
    }

    /// The general interpreter's structure flush, at action-recursion
    /// `depth`.
    fn write_struct_depth(
        &mut self,
        dev: &mut dyn DeviceAccess,
        sid: StructId,
        depth: u32,
    ) -> RtResult<()> {
        self.count_general(AccessRef::WriteStruct(sid), depth);
        let st = self.ir.strct(sid);
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(st.name.clone()));
        }
        // Arc handles: a general struct flush takes two reference
        // bumps, never a `StructIr` deep copy.
        let write_order = st.write_order.clone();
        let fields = st.fields.clone();
        let mut order = self.pop_order_buf();
        let mut res = self.plan_regs_into(&write_order, &mut order);
        if res.is_ok() {
            for &rid in &order {
                let raw = self.compose(rid, &[], WriteMode::All);
                if let Err(e) = self.write_register(dev, rid, &[], raw, depth + 1) {
                    res = Err(e);
                    break;
                }
            }
        }
        self.push_order_buf(order);
        res?;
        // Field-level `set` actions run after the flush (Arc handles).
        for &fid in fields.iter() {
            let actions = self.ir.var(fid).set.clone();
            self.run_actions(dev, &actions, &[], depth + 1)?;
        }
        Ok(())
    }

    // ---- block transfer ----

    /// Block-reads a `block` variable (the paper's `rep`-based stubs).
    pub fn read_block(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        buf: &mut [u64],
    ) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.read_block_id(dev, vid, buf)
    }

    /// Block-reads a `block` variable by id.
    pub fn read_block_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        buf: &mut [u64],
    ) -> RtResult<()> {
        let (rid, binding_offset, width) = self.block_target(vid, /*write=*/ false)?;
        let (pre, post, set) = self.reg_actions(rid);
        self.run_actions(dev, &pre, &[], 1)?;
        let port = self.ir.reg(rid).read.as_ref().expect("block_target checked readability").port;
        dev.read_block(port.0 as usize, binding_offset, width, buf);
        self.run_actions(dev, &post, &[], 1)?;
        self.run_actions(dev, &set, &[], 1)?;
        Ok(())
    }

    /// Block-writes a `block` variable.
    pub fn write_block(
        &mut self,
        dev: &mut dyn DeviceAccess,
        name: &str,
        buf: &[u64],
    ) -> RtResult<()> {
        let vid = self.var_id(name)?;
        self.write_block_id(dev, vid, buf)
    }

    /// Block-writes a `block` variable by id.
    pub fn write_block_id(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        buf: &[u64],
    ) -> RtResult<()> {
        let (rid, binding_offset, width) = self.block_target(vid, /*write=*/ true)?;
        let (pre, post, set) = self.reg_actions(rid);
        self.run_actions(dev, &pre, &[], 1)?;
        let port = self.ir.reg(rid).write.as_ref().expect("block_target checked writability").port;
        dev.write_block(port.0 as usize, binding_offset, width, buf);
        self.run_actions(dev, &post, &[], 1)?;
        self.run_actions(dev, &set, &[], 1)?;
        Ok(())
    }

    // ---- superplans ----

    /// Runs a fused superplan: the stage prefix, one selector
    /// evaluation, and the selected variant's contiguous arena range —
    /// replacing the op sequence's N guarded dispatches with one.
    ///
    /// `args` are the superplan operands (at least
    /// [`devil_ir::Superplan::args`] of them), `block_out`/`block_in`
    /// the buffers of its block ops (any length, including empty), and
    /// `outs` receives the fused read ops' values (at least
    /// [`devil_ir::Superplan::outputs`] slots).
    ///
    /// The fused body issues the identical device-op stream the op
    /// sequence would issue unfused, so ledgers, device state and cache
    /// state are bit-identical either way. With debug checks on (or
    /// plans off) the sequence runs op by op through
    /// [`DeviceInstance::run_superplan_unfused`], so every op is
    /// validated.
    pub fn run_superplan(
        &mut self,
        dev: &mut dyn DeviceAccess,
        sid: usize,
        args: &[u64],
        block_out: &[u64],
        block_in: &mut [u64],
        outs: &mut [u64],
    ) -> RtResult<()> {
        if sid >= self.ir.superplans().len() {
            return Err(RtError::Unknown(format!("superplan #{sid}")));
        }
        if !self.checks {
            let mut io = SuperIo { block_out, block_in, outs };
            if self.dispatch(dev, AccessRef::Superplan(sid), args, 0, false, &mut io).is_some() {
                return Ok(());
            }
        }
        self.run_superplan_unfused(dev, sid, args, block_out, block_in, outs)
    }

    /// Runs a superplan's declared op sequence unfused, op by op,
    /// through the ordinary dispatch paths — the differential reference
    /// for fused execution, and the debug-checked and plans-off run.
    pub fn run_superplan_unfused(
        &mut self,
        dev: &mut dyn DeviceAccess,
        sid: usize,
        args: &[u64],
        block_out: &[u64],
        block_in: &mut [u64],
        outs: &mut [u64],
    ) -> RtResult<()> {
        let ir = self.shared_ir();
        let Some(sp) = ir.superplans().get(sid) else {
            return Err(RtError::Unknown(format!("superplan #{sid}")));
        };
        let mut out_idx = 0usize;
        for op in &sp.ops {
            match op {
                FuseOp::SetField { var, value } => {
                    self.set_field_id(*var, value.resolve(args, 0))?;
                }
                FuseOp::Write { var, value } => {
                    self.write_id(dev, *var, &[], value.resolve(args, 0))?;
                }
                FuseOp::Read { var } => {
                    outs[out_idx] = self.read_id(dev, *var, &[])?;
                    out_idx += 1;
                }
                FuseOp::WriteStruct { strct } => {
                    self.write_struct_id(dev, *strct)?;
                }
                FuseOp::ReadBlock { var } => {
                    self.read_block_id(dev, *var, block_in)?;
                }
                FuseOp::WriteBlock { var } => {
                    self.write_block_id(dev, *var, block_out)?;
                }
            }
        }
        Ok(())
    }

    fn block_target(&self, vid: VarId, write: bool) -> RtResult<(RegId, u64, u32)> {
        let var = self.ir.var(vid);
        if !var.behavior.block {
            return Err(RtError::NotBlock(var.name.clone()));
        }
        if var.segs.len() != 1 {
            return Err(RtError::NotBlock(var.name.clone()));
        }
        let seg = &var.segs[0];
        let reg = self.ir.reg(seg.reg);
        if seg.seg.width() != reg.size {
            return Err(RtError::NotBlock(var.name.clone()));
        }
        let binding = if write { &reg.write } else { &reg.read };
        let Some(binding) = binding else {
            return Err(if write {
                RtError::NotWritable(var.name.clone())
            } else {
                RtError::NotReadable(var.name.clone())
            });
        };
        let offset = self.ir.resolve_offset(binding, &[]);
        Ok((seg.reg, offset, reg.size))
    }

    // ---- internals ----

    /// The one plan-dispatch body every entrypoint shares: looks up the
    /// compiled plan of `access`, selects its variant (a superplan
    /// stages first), runs the variant's arena steps unless `cached` (an
    /// idempotent read whose slots all hold a value), bumps the dispatch
    /// counters and records the trace. Returns the plan's read value —
    /// the cell for a cell serve, else the assembled slots (0 for
    /// writes) — or `None` when plans are off or the access compiled
    /// none, and the caller runs the general interpreter.
    #[inline(always)]
    fn dispatch(
        &mut self,
        dev: &mut dyn DeviceAccess,
        access: AccessRef,
        args: &[u64],
        input: u64,
        cached: bool,
        io: &mut SuperIo<'_>,
    ) -> Option<u64> {
        if !self.fast_plans {
            return None;
        }
        let DeviceInstance { ir, slots, slot_valid, mem, stats, superplan_hits, trace, .. } =
            &mut *self;
        let plan = match access {
            AccessRef::ReadVar(vid) => ir.var(vid).read_plan.as_deref()?,
            AccessRef::WriteVar(vid) => ir.var(vid).write_plan.as_deref()?,
            AccessRef::ReadStruct(sid) => ir.strct(sid).read_plan.as_deref()?,
            AccessRef::WriteStruct(sid) => ir.strct(sid).write_plan.as_deref()?,
            AccessRef::Superplan(sid) => {
                let sp = &ir.superplans()[sid];
                exec_plan_steps(
                    dev,
                    slots,
                    slot_valid,
                    mem,
                    ir.variant_steps(&sp.stage),
                    args,
                    0,
                    io,
                );
                &sp.plan
            }
        };
        let (idx, variant) = plan.select_variant(slots, slot_valid, mem, input);
        if !cached {
            exec_plan_steps(
                dev,
                slots,
                slot_valid,
                mem,
                ir.variant_steps(variant),
                args,
                input,
                io,
            );
        }
        match access {
            AccessRef::Superplan(sid) => {
                stats.fused += 1;
                superplan_hits[sid] += 1;
            }
            _ if variant.guards.is_empty() => stats.straight += 1,
            _ => stats.guarded += 1,
        }
        if let Some(t) = trace.as_mut() {
            let outcome = match plan.cell {
                Some(_) => DispatchOutcome::Cell,
                None => DispatchOutcome::Variant(idx as u32),
            };
            t.push(DispatchRecord { access, outcome });
        }
        Some(match plan.cell {
            Some(cell) => mem[cell],
            None => {
                plan.assemble.iter().fold(0, |v, (s, seg)| v | seg.extract(slots[s.resolve(args)]))
            }
        })
    }

    /// Counts one general-interpreter dispatch at action-recursion
    /// `depth`; a top-level one (depth 0) is also traced.
    fn count_general(&mut self, access: AccessRef, depth: u32) {
        self.stats.general += 1;
        if let (Some(t), 0) = (self.trace.as_mut(), depth) {
            t.push(DispatchRecord { access, outcome: DispatchOutcome::General });
        }
    }

    /// Validates a written value against the variable's type when debug
    /// checks are on.
    fn checked_write(&self, vid: VarId, value: u64) -> RtResult<()> {
        if self.checks {
            let var = self.ir.var(vid);
            if !var.ty.valid_write(value) {
                return Err(RtError::ValueRange { var: var.name.clone(), value });
            }
        }
        Ok(())
    }

    /// Validates a read value against the variable's type when debug
    /// checks are on. Borrows the IR in place — no name or type clone
    /// on the hot general path.
    fn checked_read(&self, vid: VarId, v: u64) -> RtResult<u64> {
        if self.checks {
            let var = self.ir.var(vid);
            if !var.ty.valid_read(v) {
                return Err(RtError::BadPattern { var: var.name.clone(), raw: v });
            }
        }
        Ok(v)
    }

    /// The cached raw value of a register instance, if any. Concrete
    /// registers resolve through their flat slot and family instances
    /// through their indexed slot range — no hashing either way. Only
    /// oversized family domains (or out-of-domain arguments) reach the
    /// hashed fallback.
    fn cache_get(&self, rid: RegId, args: &[u64]) -> Option<u64> {
        let reg = self.ir.reg(rid);
        if let Some(slot) = reg.slot {
            return self.slot_valid[slot].then(|| self.slots[slot]);
        }
        if let Some(slot) = reg.family_slots.as_ref().and_then(|f| f.slot_of(args)) {
            return self.slot_valid[slot].then(|| self.slots[slot]);
        }
        // Inline key: a hashed-fallback hit costs hashing but no heap
        // allocation (arguments spill only past `ARG_INLINE`).
        self.family_cache.get(&(rid.0, ArgBuf::from_slice(args))).copied()
    }

    /// Caches a register instance's raw value.
    fn cache_put(&mut self, rid: RegId, args: &[u64], raw: u64) {
        let reg = self.ir.reg(rid);
        let slot = reg.slot.or_else(|| reg.family_slots.as_ref().and_then(|f| f.slot_of(args)));
        if let Some(slot) = slot {
            self.slots[slot] = raw;
            self.slot_valid[slot] = true;
            return;
        }
        self.family_cache.insert((rid.0, ArgBuf::from_slice(args)), raw);
    }

    /// The family args used by variable `vid` for register `rid`.
    fn args_for_reg(&self, vid: VarId, rid: RegId, var_args: &[u64]) -> ArgBuf {
        let var = self.ir.var(vid);
        for seg in &var.segs {
            if seg.reg == rid {
                return seg
                    .args
                    .iter()
                    .map(|a| match a {
                        ChunkArg::Const(c) => *c,
                        ChunkArg::Param(i) => var_args[*i],
                    })
                    .collect();
            }
        }
        ArgBuf::new()
    }

    /// Flattens a serialization plan to register ids, evaluating
    /// conditions against cached variable values. Callers supply the
    /// output buffer (pooled via [`DeviceInstance::pop_order_buf`] so
    /// the steady-state general path does not allocate).
    fn plan_regs_into(&self, steps: &[SerStep], out: &mut Vec<RegId>) -> RtResult<()> {
        for step in steps {
            match step {
                SerStep::Reg(r) => out.push(*r),
                SerStep::If { cond, then, els } => {
                    if self.eval_cond(cond) {
                        self.plan_regs_into(then, out)?;
                    } else {
                        self.plan_regs_into(els, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn eval_cond(&self, cond: &CondSem) -> bool {
        match cond {
            CondSem::Cmp { var, eq, value } => {
                let v = self.assemble_cached(*var, &[]);
                (v == *value) == *eq
            }
            CondSem::And(a, b) => self.eval_cond(a) && self.eval_cond(b),
            CondSem::Or(a, b) => self.eval_cond(a) || self.eval_cond(b),
            CondSem::Not(a) => !self.eval_cond(a),
        }
    }

    /// Assembles a variable's value from the cache (0 for never-accessed
    /// registers) or its memory cell.
    fn assemble_cached(&self, vid: VarId, args: &[u64]) -> u64 {
        let var = self.ir.var(vid);
        if let Some(cell) = var.mem_cell {
            return self.mem[cell];
        }
        let mut v = 0u64;
        for seg in &var.segs {
            let reg_args: ArgBuf = seg
                .args
                .iter()
                .map(|a| match a {
                    ChunkArg::Const(c) => *c,
                    ChunkArg::Param(i) => args[*i],
                })
                .collect();
            let raw = self.cache_get(seg.reg, &reg_args).unwrap_or(0);
            v |= seg.seg.extract(raw);
        }
        v
    }

    /// Like [`assemble_cached`] but only when every register is cached.
    fn try_assemble_cached(&self, vid: VarId, args: &[u64]) -> Option<u64> {
        let var = self.ir.var(vid);
        if let Some(cell) = var.mem_cell {
            return Some(self.mem[cell]);
        }
        for seg in &var.segs {
            let reg_args: ArgBuf = seg
                .args
                .iter()
                .map(|a| match a {
                    ChunkArg::Const(c) => *c,
                    ChunkArg::Param(i) => args[*i],
                })
                .collect();
            self.cache_get(seg.reg, &reg_args)?;
        }
        Some(self.assemble_cached(vid, args))
    }

    /// Writes `value`'s bits into the cached raw values of the
    /// variable's registers.
    fn store_var_bits(&mut self, vid: VarId, args: &[u64], value: u64) {
        if let Some(cell) = self.ir.var(vid).mem_cell {
            self.mem[cell] = value;
            return;
        }
        for i in 0..self.ir.var(vid).segs.len() {
            let seg = self.ir.var(vid).segs[i].clone();
            let reg_args: ArgBuf = seg
                .args
                .iter()
                .map(|a| match a {
                    ChunkArg::Const(c) => *c,
                    ChunkArg::Param(i) => args[*i],
                })
                .collect();
            let old = self.cache_get(seg.reg, &reg_args).unwrap_or(0);
            let new = (old & !seg.seg.reg_mask()) | seg.seg.insert(value);
            self.cache_put(seg.reg, &reg_args, new);
        }
    }

    /// Composes the raw value to write to a register.
    fn compose(&mut self, rid: RegId, args: &[u64], mode: WriteMode) -> u64 {
        let cached = self.cache_get(rid, args).unwrap_or(0);
        let reg = self.ir.reg(rid);
        let mut raw = cached;
        if let WriteMode::One(writing) = mode {
            for field in &reg.fields {
                if field.var == writing {
                    continue;
                }
                let other = self.ir.var(field.var);
                if other.behavior.write_trigger {
                    if let Some(neutral) = other.neutral {
                        let nv = match neutral {
                            Neutral::Except(n) => n,
                            // `for X`: every value except X is neutral.
                            Neutral::For(x) => {
                                if x == 0 {
                                    1
                                } else {
                                    0
                                }
                            }
                        };
                        raw = (raw & !field.reg_mask()) | field.insert(nv);
                    }
                }
            }
        }
        raw
    }

    /// The pre/post/set action lists of a register. `Arc` handles: a
    /// register access takes three reference bumps, never an
    /// allocation.
    fn reg_actions(&self, rid: RegId) -> ActionLists {
        let reg = self.ir.reg(rid);
        (reg.pre.clone(), reg.post.clone(), reg.set.clone())
    }

    /// Performs a device read of one register, with actions and caching.
    fn read_register(
        &mut self,
        dev: &mut dyn DeviceAccess,
        rid: RegId,
        args: &[u64],
        depth: u32,
    ) -> RtResult<u64> {
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(self.ir.reg(rid).name.clone()));
        }
        let (pre, post, set) = self.reg_actions(rid);
        self.run_actions(dev, &pre, args, depth + 1)?;
        let reg = self.ir.reg(rid);
        let binding = reg.read.as_ref().ok_or_else(|| RtError::NotReadable(reg.name.clone()))?;
        let offset = self.ir.resolve_offset(binding, args);
        let raw = dev.read(binding.port.0 as usize, offset, reg.size);
        self.cache_put(rid, args, raw);
        self.run_actions(dev, &post, args, depth + 1)?;
        self.run_actions(dev, &set, args, depth + 1)?;
        Ok(raw)
    }

    /// Performs a device write of one register, with masking, actions
    /// and caching.
    fn write_register(
        &mut self,
        dev: &mut dyn DeviceAccess,
        rid: RegId,
        args: &[u64],
        raw: u64,
        depth: u32,
    ) -> RtResult<()> {
        if depth > MAX_DEPTH {
            return Err(RtError::RecursionLimit(self.ir.reg(rid).name.clone()));
        }
        let (pre, post, set) = self.reg_actions(rid);
        self.run_actions(dev, &pre, args, depth + 1)?;
        let reg = self.ir.reg(rid);
        let binding = reg.write.as_ref().ok_or_else(|| RtError::NotWritable(reg.name.clone()))?;
        let offset = self.ir.resolve_offset(binding, args);
        let out = (raw & reg.and_mask) | reg.or_mask;
        dev.write(binding.port.0 as usize, offset, reg.size, out);
        self.cache_put(rid, args, raw);
        self.run_actions(dev, &post, args, depth + 1)?;
        self.run_actions(dev, &set, args, depth + 1)?;
        Ok(())
    }

    /// Executes a pre/post/set action list. `args` is the family-argument
    /// context for `Param` references.
    fn run_actions(
        &mut self,
        dev: &mut dyn DeviceAccess,
        actions: &[Action],
        args: &[u64],
        depth: u32,
    ) -> RtResult<()> {
        for action in actions {
            if depth > MAX_DEPTH {
                return Err(RtError::RecursionLimit("action".into()));
            }
            match (&action.target, &action.value) {
                (ActionTarget::Var(vid), value) => {
                    let v = self.resolve_action_value(value, args);
                    self.write_id_depth(dev, *vid, &[], v, depth + 1)?;
                }
                (ActionTarget::Struct(sid), ActionValue::Struct(fields)) => {
                    for (fid, fval) in fields {
                        let v = self.resolve_action_value(fval, args);
                        self.store_var_bits(*fid, &[], v);
                    }
                    self.write_struct_depth(dev, *sid, depth + 1)?;
                }
                (ActionTarget::Struct(_), _) => {
                    unreachable!("sema guarantees struct targets get struct values")
                }
            }
        }
        Ok(())
    }

    fn resolve_action_value(&mut self, value: &ActionValue, args: &[u64]) -> u64 {
        match value {
            ActionValue::Const(c) => *c,
            ActionValue::Any => 0,
            ActionValue::Param(i) => args.get(*i).copied().unwrap_or(0),
            ActionValue::Var(vid) => self.assemble_cached(*vid, &[]),
            ActionValue::Struct(_) => 0,
        }
    }
}

/// The vectored-I/O surface of one superplan dispatch: the caller's
/// block buffers and output vector. Plain plan executions pass empty
/// buffers — their steps never touch them.
struct SuperIo<'a> {
    /// Words for the (at most one) fused block write.
    block_out: &'a [u64],
    /// Buffer for the (at most one) fused block read.
    block_in: &'a mut [u64],
    /// Fused read-op outputs, in op order.
    outs: &'a mut [u64],
}

impl SuperIo<'_> {
    /// An empty I/O surface for non-superplan plan executions.
    fn none() -> Self {
        SuperIo { block_out: &[], block_in: &mut [], outs: &mut [] }
    }
}

/// Executes a precompiled straight-line plan: device reads into flat
/// cache slots, composed masked writes, folded memory-cell updates, and
/// (for fused superplans) vectored block transfers and in-place output
/// assembly. `args` are the (already validated) family arguments — for
/// superplans, the operand vector — and `input` the value being
/// written, if any. This is the whole steady-state hot path: mask/shift
/// arithmetic and slot indexing only — no hashing, no name resolution,
/// no action interpretation.
#[allow(clippy::too_many_arguments)]
fn exec_plan_steps(
    dev: &mut dyn DeviceAccess,
    slots: &mut [u64],
    slot_valid: &mut [bool],
    mem: &mut [u64],
    steps: &[PlanStep],
    args: &[u64],
    input: u64,
    io: &mut SuperIo<'_>,
) {
    for step in steps {
        match step {
            PlanStep::Read(a) => {
                let raw = dev.read(a.port as usize, a.offset.resolve(args), a.size);
                let slot = a.slot.resolve(args);
                slots[slot] = raw;
                slot_valid[slot] = true;
            }
            PlanStep::Write(a, c) => {
                let slot = a.slot.resolve(args);
                let cached = if slot_valid[slot] { slots[slot] } else { 0 };
                let mut raw = (cached & c.keep_and) | c.const_or;
                for ws in &c.segs {
                    raw |= ws.seg.insert(ws.value.resolve(args, input));
                }
                dev.write(
                    a.port as usize,
                    a.offset.resolve(args),
                    a.size,
                    (raw & c.out_and) | c.out_or,
                );
                slots[slot] = raw;
                slot_valid[slot] = true;
            }
            PlanStep::Store(slot, c) => {
                // Cache-only store: a written variable's bits on a
                // register the flattened order does not flush (the
                // general path's up-front `store_var_bits`).
                let slot = slot.resolve(args);
                let cached = if slot_valid[slot] { slots[slot] } else { 0 };
                let mut raw = (cached & c.keep_and) | c.const_or;
                for ws in &c.segs {
                    raw |= ws.seg.insert(ws.value.resolve(args, input));
                }
                slots[slot] = raw;
                slot_valid[slot] = true;
            }
            PlanStep::SetCell { cell, value } => mem[*cell] = value.resolve(args, input),
            PlanStep::BlockIn { port, offset, size } => {
                dev.read_block(*port as usize, *offset, *size, io.block_in);
            }
            PlanStep::BlockOut { port, offset, size } => {
                dev.write_block(*port as usize, *offset, *size, io.block_out);
            }
            PlanStep::Assemble { out, segs } => {
                let mut v = 0u64;
                for &(slot, seg) in segs {
                    v |= seg.extract(slots[slot]);
                }
                io.outs[*out as usize] = v;
            }
        }
    }
}

/// Checks a variable's family arguments against its parameter domains.
fn validate_args(var: &VarIr, args: &[u64]) -> RtResult<()> {
    if var.params.len() != args.len() {
        return Err(RtError::ArityMismatch {
            var: var.name.clone(),
            expected: var.params.len(),
            got: args.len(),
        });
    }
    for (p, &a) in var.params.iter().zip(args) {
        if !p.contains(a) {
            return Err(RtError::ArgOutOfRange { var: var.name.clone(), value: a });
        }
    }
    Ok(())
}

/// Sign-extends the low `width` bits of `raw` to an `i64`.
pub fn sign_extend(raw: u64, width: u32) -> i64 {
    if width == 0 || width >= 64 {
        return raw as i64;
    }
    let shift = 64 - width;
    ((raw << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::FakeAccess;

    fn instance(src: &str) -> DeviceInstance {
        let model = devil_sema::check_source(src, &[]).expect("spec checks");
        DeviceInstance::new(devil_ir::lower(&model))
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xfd, 8), -3);
        assert_eq!(sign_extend(0x7f, 8), 127);
        assert_eq!(sign_extend(0b10, 2), -2);
        assert_eq!(sign_extend(5, 64), 5);
    }

    #[test]
    fn simple_read_write_round_trip() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 0xa5).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xa5);
        assert_eq!(d.read(&mut dev, "v").unwrap(), 0xa5);
        // Idempotent: the read was served from cache — only 1 op (the
        // write).
        assert_eq!(dev.ops(), 1);
    }

    #[test]
    fn volatile_variables_always_hit_the_device() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = read base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 1);
        assert_eq!(d.read(&mut dev, "v").unwrap(), 1);
        dev.preset(0, 0, 2);
        assert_eq!(d.read(&mut dev, "v").unwrap(), 2);
        assert_eq!(dev.ops(), 2);
    }

    #[test]
    fn masked_write_forces_bits() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cr = write base @ 0, mask '1001000*' : bit[8];
                 variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
               }"#,
        );
        let mut dev = FakeAccess::new();
        let v = d.sym_value("config", "CONFIGURATION").unwrap();
        d.write(&mut dev, "config", v).unwrap();
        // 0b1001_0000 forced | bit0 = 1.
        assert_eq!(dev.regs[&(0, 0)], 0b1001_0001);
        d.write_sym(&mut dev, "config", "DEFAULT_MODE").unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0b1001_0000);
    }

    #[test]
    fn shared_register_preserves_sibling_bits() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable lo = r[3..0] : int(4);
                 variable hi = r[7..4] : int(4);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "lo", 0x5).unwrap();
        d.write(&mut dev, "hi", 0xa).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xa5);
        // Writing lo again must keep hi.
        d.write(&mut dev, "lo", 0x1).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xa1);
    }

    #[test]
    fn trigger_neighbours_get_neutral_values() {
        // NE2000-style: st triggers unless NEUTRAL(=0b11 here to make it
        // visible); page is idempotent.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL
                   : { NEUTRAL <=> '11', START <=> '01', STOP <=> '10', NOP <=> '00' };
                 variable page = cmd[7..2] : int(6);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "st", 0b01).unwrap();
        assert_eq!(dev.regs[&(0, 0)] & 0b11, 0b01);
        // Writing page must write NEUTRAL (0b11) into st's bits, not the
        // cached 0b01, to avoid re-triggering.
        d.write(&mut dev, "page", 0b101010).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0b1010_1011);
        // st's own next write still works.
        d.write(&mut dev, "st", 0b10).unwrap();
        assert_eq!(dev.regs[&(0, 0)] & 0b11, 0b10);
        // ...and preserves page's cached value.
        assert_eq!(dev.regs[&(0, 0)] >> 2, 0b101010);
    }

    #[test]
    fn trigger_for_uses_opposite_as_neutral() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable go = r[0], write trigger for true : bool;
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "go", 1).unwrap();
        assert_eq!(dev.regs[&(0, 0)] & 1, 1);
        // Writing rest must set go to false (the non-triggering value).
        d.write(&mut dev, "rest", 0x7f).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 0xfe);
    }

    #[test]
    fn pre_actions_write_index_variable() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0, 2}) {
                 register index_reg = write base @ 2, mask '1**00000' : bit[8];
                 private variable index = index_reg[6..5] : int(2);
                 register x_low = read base @ 0, pre {index = 0}, mask '....****' : bit[8];
                 register x_high = read base @ 0, pre {index = 1}, mask '....****' : bit[8];
                 variable xv = x_high[3..0] # x_low[3..0], volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0x0c); // data port reads 0xc (low nibble)
        let v = d.read(&mut dev, "xv").unwrap();
        assert_eq!(v, 0xcc, "both nibbles read 0xc from the shared port");
        // Op sequence: write index=1 (0xa0|0x20), read, write index=0
        // (0x80), read — x_high is the MSB chunk so it is read first by
        // default order.
        let writes: Vec<u64> =
            dev.log.iter().filter(|(w, _, o, _)| *w && *o == 2).map(|&(_, _, _, v)| v).collect();
        assert_eq!(writes, vec![0b1010_0000, 0b1000_0000]);
        assert_eq!(dev.ops(), 4);
    }

    #[test]
    fn structure_read_reads_each_register_once() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = read base @ 0 : bit[8];
                 structure s = {
                   variable lo = r[3..0], volatile : int(4);
                   variable hi = r[7..4], volatile : int(4);
                 };
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0xc3);
        d.read_struct(&mut dev, "s").unwrap();
        assert_eq!(dev.ops(), 1, "shared register read once");
        assert_eq!(d.get_field("lo").unwrap(), 0x3);
        assert_eq!(d.get_field("hi").unwrap(), 0xc);
        assert_eq!(dev.ops(), 1, "field getters hit the cache");
    }

    #[test]
    fn serialized_structure_write_with_conditions() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register icw1 = write base @ 0 : bit[8];
                 register icw2 = write base @ 1 : bit[8];
                 register icw3 = write base @ 1 : bit[8];
                 structure init = {
                   variable sngl = icw1[0] : { SINGLE => '1', CASCADED => '0' };
                   variable rest1 = icw1[7..1] : int(7);
                   variable v2 = icw2 : int(8);
                   variable v3 = icw3 : int(8);
                 } serialized as { icw1; icw2; if (sngl == CASCADED) icw3; };
               }"#,
        );
        let mut dev = FakeAccess::new();
        // SINGLE mode: icw3 skipped.
        let single = d.sym_value("sngl", "SINGLE").unwrap();
        d.set_field("sngl", single).unwrap();
        d.set_field("rest1", 0x08).unwrap();
        d.set_field("v2", 0x20).unwrap();
        d.set_field("v3", 0x99).unwrap();
        d.write_struct(&mut dev, "init").unwrap();
        assert_eq!(dev.ops(), 2, "icw3 must be skipped in SINGLE mode");
        // CASCADED mode: icw3 written.
        let cascaded = d.sym_value("sngl", "CASCADED").unwrap();
        d.set_field("sngl", cascaded).unwrap();
        d.write_struct(&mut dev, "init").unwrap();
        assert_eq!(dev.ops(), 5);
        assert_eq!(dev.regs[&(0, 1)], 0x99, "icw3 flushed last at base@1");
    }

    #[test]
    fn private_struct_fields_round_trip_through_their_cell() {
        // Regression: with plans enabled, a private (memory-cell)
        // structure field's getter used to take the slot-assemble fast
        // path and return 0 instead of the cell value.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register a = base @ 0, set {pm = true} : bit[8];
                 structure s = {
                   private variable pm : bool;
                   variable fa = a : int(8);
                 };
               }"#,
        );
        d.set_field("pm", 1).unwrap();
        assert_eq!(d.get_field("pm").unwrap(), 1, "cell value must survive the fast path");
        // The register's set-action also lands in the cell.
        let mut dev = FakeAccess::new();
        d.set_field("pm", 0).unwrap();
        d.read_struct(&mut dev, "s").unwrap();
        assert_eq!(d.get_field("pm").unwrap(), 1, "set-action writes the cell");
    }

    #[test]
    fn memory_variable_and_set_actions() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 private variable xm : bool;
                 register control = base @ 0, set {xm = false} : bit[8];
                 variable IA = control : int{0..31};
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "xm", 1).unwrap();
        assert_eq!(d.read(&mut dev, "xm").unwrap(), 1);
        assert_eq!(dev.ops(), 0, "memory variables never touch the bus");
        // Accessing `control` (via IA) clears xm.
        d.write(&mut dev, "IA", 5).unwrap();
        assert_eq!(d.read(&mut dev, "xm").unwrap(), 0);
    }

    #[test]
    fn debug_checks_reject_bad_values() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, mask '...*****' : bit[8];
                 variable v = r[4..0] : int{0..17,25};
               }"#,
        );
        d.set_debug_checks(true);
        let mut dev = FakeAccess::new();
        assert_eq!(
            d.write(&mut dev, "v", 20),
            Err(RtError::ValueRange { var: "v".into(), value: 20 })
        );
        d.write(&mut dev, "v", 25).unwrap();
        // A device returning 19 (not in the set) fails the read check.
        dev.preset(0, 0, 19);
        // Invalidate cache by using a volatile-free path: write cached 25
        // means read is served from cache, so force device read through a
        // fresh instance.
        let mut d2 = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, mask '...*****' : bit[8];
                 variable v = r[4..0], volatile : int{0..17,25};
               }"#,
        );
        d2.set_debug_checks(true);
        let err = d2.read(&mut dev, "v").unwrap_err();
        assert_eq!(err, RtError::BadPattern { var: "v".into(), raw: 19 });
    }

    #[test]
    fn checks_disabled_by_default() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        // 0x1ff exceeds 8 bits but checks are off; low bits are written.
        d.write(&mut dev, "v", 0x1ff).unwrap();
    }

    #[test]
    fn serialized_variable_reads_low_then_high() {
        let mut d = instance(
            r#"device d (data : bit[8] port @ {0..0}, ctl : bit[8] port @ {1..1}) {
                 register ff = write ctl @ 1, mask '0000000*' : bit[8];
                 private variable flip_flop = ff[0] : bool;
                 register cnt_low = data @ 0, pre {flip_flop = *} : bit[8];
                 register cnt_high = data @ 0 : bit[8];
                 variable x = cnt_high # cnt_low : int(16) serialized as {cnt_low; cnt_high;};
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0x34);
        let v = d.read(&mut dev, "x").unwrap();
        assert_eq!(v, 0x3434);
        // Order: flip-flop strobe (write port1), then two data reads.
        assert!(dev.log[0].0, "flip-flop write first");
        assert_eq!(dev.log[0].1, 1, "on the ctl port");
        // cnt_low and cnt_high reads both hit data@0; pre-action only on
        // cnt_low. Total: 1 write + 2 reads per... cnt_high has no pre.
        // But x is not volatile so a second read comes from cache.
        let ops_first = dev.ops();
        assert_eq!(ops_first, 3);
        let v2 = d.read(&mut dev, "x").unwrap();
        assert_eq!(v2, 0x3434);
        assert_eq!(dev.ops(), ops_first, "idempotent variable cached");
    }

    #[test]
    fn family_variable_indexes_registers() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..3}) {
                 register r(i : int{0..3}) = base @ i : bit[8];
                 variable v(i : int{0..3}) = r(i), volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 2, 0x22);
        dev.preset(0, 3, 0x33);
        assert_eq!(d.read_indexed(&mut dev, "v", &[2]).unwrap(), 0x22);
        assert_eq!(d.read_indexed(&mut dev, "v", &[3]).unwrap(), 0x33);
        assert_eq!(
            d.read_indexed(&mut dev, "v", &[7]).unwrap_err(),
            RtError::ArgOutOfRange { var: "v".into(), value: 7 }
        );
        assert_eq!(
            d.read(&mut dev, "v").unwrap_err(),
            RtError::ArityMismatch { var: "v".into(), expected: 1, got: 0 }
        );
    }

    #[test]
    fn indexed_pre_action_with_param() {
        // CS4236B-style: register family addressed through an index
        // variable written by a parameterized pre-action.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register control = base @ 0, mask '...*****' : bit[8];
                 variable IA = control[4..0] : int{0..31};
                 register I(i : int{0..31}) = base @ 1, pre {IA = i} : bit[8];
                 variable ID(i : int{0..31}) = I(i), volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 1, 0x42);
        assert_eq!(d.read_indexed(&mut dev, "ID", &[7]).unwrap(), 0x42);
        // The pre-action wrote 7 to control (base@0).
        assert_eq!(dev.regs[&(0, 0)], 7);
        assert_eq!(d.read_indexed(&mut dev, "ID", &[25]).unwrap(), 0x42);
        assert_eq!(dev.regs[&(0, 0)], 25);
    }

    #[test]
    fn struct_valued_pre_action_flushes_structure() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register idx = write base @ 0, mask '000***0*' : bit[8];
                 structure XS = {
                   variable XA = idx[4..2] : int(3);
                   variable XRAE = idx[0], write trigger for true : bool;
                 };
                 register data = base @ 1, pre {XS = {XA => 5; XRAE => true}} : bit[8];
                 variable payload = data, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 1, 0x77);
        assert_eq!(d.read(&mut dev, "payload").unwrap(), 0x77);
        // idx got XA=5 (bits 4..2) and XRAE=1 (bit 0).
        assert_eq!(dev.regs[&(0, 0)], 0b0001_0101);
    }

    #[test]
    fn block_transfer_round_trip() {
        let mut d = instance(
            r#"device d (data : bit[16] port @ {0..0}) {
                 register dr = data @ 0 : bit[16];
                 variable ide_data = dr, volatile, block : int(16);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 0xbeef);
        let mut buf = [0u64; 8];
        d.read_block(&mut dev, "ide_data", &mut buf).unwrap();
        assert_eq!(buf, [0xbeef; 8]);
        d.write_block(&mut dev, "ide_data", &[1, 2, 3]).unwrap();
        assert_eq!(dev.regs[&(0, 0)], 3);
    }

    #[test]
    fn block_transfer_requires_block_attribute() {
        let mut d = instance(
            r#"device d (data : bit[16] port @ {0..0}) {
                 register dr = data @ 0 : bit[16];
                 variable ide_data = dr, volatile : int(16);
               }"#,
        );
        let mut dev = FakeAccess::new();
        let mut buf = [0u64; 2];
        assert_eq!(
            d.read_block(&mut dev, "ide_data", &mut buf),
            Err(RtError::NotBlock("ide_data".into()))
        );
    }

    #[test]
    fn direction_errors() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register ro = read base @ 0 : bit[8];
                 register wo = write base @ 1 : bit[8];
                 variable vr = ro, volatile : int(8);
                 variable vw = wo : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        assert_eq!(d.write(&mut dev, "vr", 0), Err(RtError::NotWritable("vr".into())));
        assert_eq!(d.read(&mut dev, "vw"), Err(RtError::NotReadable("vw".into())));
        assert!(matches!(d.read(&mut dev, "ghost"), Err(RtError::Unknown(_))));
    }

    /// Drives the same access sequence through the plan fast path and
    /// the general interpreter; both must produce identical device
    /// interaction logs and results.
    fn assert_paths_agree(src: &str, drive: impl Fn(&mut DeviceInstance, &mut FakeAccess)) {
        let mut fast = instance(src);
        let mut fast_dev = FakeAccess::new();
        drive(&mut fast, &mut fast_dev);

        let mut slow = instance(src);
        slow.set_fast_plans(false);
        let mut slow_dev = FakeAccess::new();
        drive(&mut slow, &mut slow_dev);

        assert_eq!(fast_dev.log, slow_dev.log, "device op logs diverge");
        assert_eq!(fast_dev.regs, slow_dev.regs, "device state diverges");
    }

    #[test]
    fn plan_path_matches_interpreter_on_masked_writes() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cr = write base @ 0, mask '1001000*' : bit[8];
                 variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
               }"#,
            |d, dev| {
                d.write(dev, "config", 1).unwrap();
                d.write(dev, "config", 0).unwrap();
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_shared_registers() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable lo = r[3..0] : int(4);
                 variable hi = r[7..4] : int(4);
               }"#,
            |d, dev| {
                d.write(dev, "lo", 0x5).unwrap();
                d.write(dev, "hi", 0xa).unwrap();
                assert_eq!(d.read(dev, "lo").unwrap(), 0x5);
                d.write(dev, "lo", 0x1).unwrap();
                assert_eq!(d.read(dev, "hi").unwrap(), 0xa);
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_triggers() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register cmd = base @ 0 : bit[8];
                 variable st = cmd[1..0], write trigger except NEUTRAL
                   : { NEUTRAL <=> '11', START <=> '01', STOP <=> '10', NOP <=> '00' };
                 variable page = cmd[7..2] : int(6);
               }"#,
            |d, dev| {
                d.write(dev, "st", 0b01).unwrap();
                d.write(dev, "page", 0b101010).unwrap();
                d.write(dev, "st", 0b10).unwrap();
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_concatenations() {
        assert_paths_agree(
            r#"device d (a : bit[8] port @ {0..1}) {
                 register rl = a @ 0 : bit[8];
                 register rh = a @ 1 : bit[8];
                 variable w = rh # rl : int(16);
               }"#,
            |d, dev| {
                dev.preset(0, 0, 0x34);
                dev.preset(0, 1, 0x12);
                assert_eq!(d.read(dev, "w").unwrap(), 0x1234);
                d.write(dev, "w", 0xbeef).unwrap();
                assert_eq!(d.read(dev, "w").unwrap(), 0xbeef);
            },
        );
    }

    #[test]
    fn plan_path_matches_interpreter_on_volatile_reads() {
        assert_paths_agree(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = read base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
            |d, dev| {
                dev.preset(0, 0, 1);
                assert_eq!(d.read(dev, "v").unwrap(), 1);
                dev.preset(0, 0, 2);
                assert_eq!(d.read(dev, "v").unwrap(), 2);
            },
        );
    }

    #[test]
    fn fast_path_serves_idempotent_reads_from_slots() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        // Plans must exist for this trivially simple variable.
        let vid = d.var_id("v").unwrap();
        assert!(d.ir().var(vid).read_plan.is_some());
        assert!(d.ir().var(vid).write_plan.is_some());
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 0xa5).unwrap();
        assert_eq!(d.read(&mut dev, "v").unwrap(), 0xa5);
        assert_eq!(dev.ops(), 1, "read served from the flat slot");
    }

    #[test]
    fn deep_action_chains_hit_the_recursion_limit_in_both_modes() {
        // A set-action chain long enough that the general interpreter
        // reports RecursionLimit. Mid-chain variables compile plans
        // (their remaining expansion fits the budget), but nested
        // writes stay on the general interpreter, so the fast path
        // cannot succeed where the general path errors.
        let n = 30u32;
        let mut decls = String::new();
        for i in 0..n {
            let set = if i + 1 < n { format!(", set {{v{} = 1}}", i + 1) } else { String::new() };
            decls.push_str(&format!(
                "register r{i} = base @ {i}{set} : bit[8];\nvariable v{i} = r{i} : int(8);\n"
            ));
        }
        let src = format!("device d (base : bit[8] port @ {{0..{}}}) {{\n{decls}}}", n - 1);
        let mut fast = instance(&src);
        let mut fast_dev = FakeAccess::new();
        let fast_res = fast.write(&mut fast_dev, "v0", 1);
        let mut slow = instance(&src);
        slow.set_fast_plans(false);
        let mut slow_dev = FakeAccess::new();
        let slow_res = slow.write(&mut slow_dev, "v0", 1);
        assert!(
            matches!(slow_res, Err(RtError::RecursionLimit(_))),
            "general path must hit the limit: {slow_res:?}"
        );
        assert_eq!(fast_res, slow_res, "fast path must fail identically");
        assert_eq!(fast_dev.log, slow_dev.log, "partial side effects must match");
        // A var near the tail writes fine from depth 0 in both modes.
        let fast_tail = fast.write(&mut fast_dev, "v25", 1);
        let slow_tail = slow.write(&mut slow_dev, "v25", 1);
        assert_eq!(fast_tail, slow_tail);
        assert!(fast_tail.is_ok());
        assert_eq!(fast_dev.log, slow_dev.log);
    }

    #[test]
    fn action_chains_past_the_depth_limit_compile_no_plan() {
        // Each hop of the set-action chain costs the general interpreter
        // three recursion levels (register write, action list, nested
        // variable write), so a chain of `MAX_DEPTH` variables runs past
        // the limit: the head compiles no plan, its bail is recorded,
        // and both engines fail with the same `RecursionLimit`.
        let n = MAX_DEPTH;
        let mut decls = String::new();
        for i in 0..n {
            let set = if i + 1 < n { format!(", set {{v{} = 1}}", i + 1) } else { String::new() };
            decls.push_str(&format!(
                "register r{i} = base @ {i}{set} : bit[8];\nvariable v{i} = r{i} : int(8);\n"
            ));
        }
        let src = format!("device d (base : bit[8] port @ {{0..{}}}) {{\n{decls}}}", n - 1);
        let mut fast = instance(&src);
        let v0 = fast.var_id("v0").unwrap();
        assert!(fast.ir().var(v0).write_plan.is_none(), "the chain head must not plan-compile");
        assert!(
            fast.ir()
                .plan_fallbacks()
                .iter()
                .any(|f| f.access == "write v0" && f.cause.contains("depth")),
            "{:?}",
            fast.ir().plan_fallbacks()
        );
        let mut fast_dev = FakeAccess::new();
        let fast_res = fast.write(&mut fast_dev, "v0", 1);
        let mut slow = instance(&src);
        slow.set_fast_plans(false);
        let mut slow_dev = FakeAccess::new();
        let slow_res = slow.write(&mut slow_dev, "v0", 1);
        assert!(matches!(slow_res, Err(RtError::RecursionLimit(_))), "{slow_res:?}");
        assert_eq!(fast_res, slow_res);
        assert_eq!(fast_dev.log, slow_dev.log);
        assert_eq!(fast.plan_stats(), slow.plan_stats(), "nested writes stay general");
    }

    /// Drives the same access sequence through plans and the general
    /// interpreter with debug checks on: both must reject the same
    /// accesses with the same errors, and the planned side must never
    /// leave its plans.
    #[test]
    fn debug_checks_validate_around_plans() {
        let src = r#"device d (base : bit[8] port @ {0..1}) {
                 register r = base @ 0, mask '...*****' : bit[8];
                 variable v = r[4..0], volatile : int{0..17,25};
                 register s = base @ 1 : bit[8];
                 structure st = {
                   variable mode = s[1..0] : int{0..2};
                   variable rest = s[7..2] : int(6);
                 };
               }"#;
        let drive = |d: &mut DeviceInstance, dev: &mut FakeAccess| {
            let mut res = Vec::new();
            res.push(d.write(dev, "v", 20).map(|()| 0));
            res.push(d.write(dev, "v", 25).map(|()| 0));
            dev.preset(0, 0, 19);
            res.push(d.read(dev, "v"));
            dev.preset(0, 0, 17);
            res.push(d.read(dev, "v"));
            res.push(d.set_field("mode", 3).map(|()| 0));
            res.push(d.set_field("mode", 1).map(|()| 0));
            res.push(d.write_struct(dev, "st").map(|()| 0));
            dev.preset(0, 1, 0b10);
            res.push(d.read_struct(dev, "st").map(|()| 0));
            res.push(d.get_field("mode"));
            dev.preset(0, 1, 0b11);
            res.push(d.read_struct(dev, "st").map(|()| 0));
            res.push(d.get_field("mode"));
            res
        };
        let mut fast = instance(src);
        fast.set_debug_checks(true);
        let mut fast_dev = FakeAccess::new();
        let fast_res = drive(&mut fast, &mut fast_dev);
        let mut slow = instance(src);
        slow.set_debug_checks(true);
        slow.set_fast_plans(false);
        let mut slow_dev = FakeAccess::new();
        let slow_res = drive(&mut slow, &mut slow_dev);
        assert_eq!(fast_res, slow_res);
        assert_eq!(fast_dev.log, slow_dev.log);
        assert_eq!(fast_res[0], Err(RtError::ValueRange { var: "v".into(), value: 20 }));
        assert_eq!(fast_res[2], Err(RtError::BadPattern { var: "v".into(), raw: 19 }));
        assert_eq!(fast_res[4], Err(RtError::ValueRange { var: "mode".into(), value: 3 }));
        assert_eq!(fast_res[8], Ok(2));
        assert_eq!(fast_res[10], Err(RtError::BadPattern { var: "mode".into(), raw: 3 }));
        let stats = fast.plan_stats();
        assert_eq!(stats.general, 0, "debug mode stays on plans: {stats:?}");
        assert!(stats.straight > 0, "{stats:?}");
    }

    #[test]
    fn nested_action_values_debug_checks_reject_keep_the_general_path() {
        // `*` writes 0, outside `idx`'s type: debug checks reject the
        // nested write in the general interpreter, so the lowerer keeps
        // the access there rather than let a plan skip the check.
        let src = r#"device d (base : bit[8] port @ {0..1}) {
                 register x = write base @ 1 : bit[8];
                 variable idx = x : int{1..3};
                 register r = base @ 0, pre {idx = *} : bit[8];
                 variable v = r : int(8);
               }"#;
        let mut fast = instance(src);
        let vid = fast.var_id("v").unwrap();
        assert!(fast.ir().var(vid).write_plan.is_none());
        assert!(fast.ir().plan_fallbacks().iter().any(|f| f.access == "write v"));
        let mut slow = instance(src);
        slow.set_fast_plans(false);
        for checks in [false, true] {
            fast.set_debug_checks(checks);
            slow.set_debug_checks(checks);
            let (mut fast_dev, mut slow_dev) = (FakeAccess::new(), FakeAccess::new());
            let fast_res = fast.write(&mut fast_dev, "v", 5);
            assert_eq!(fast_res, slow.write(&mut slow_dev, "v", 5));
            assert_eq!(fast_dev.log, slow_dev.log);
            if checks {
                assert_eq!(fast_res, Err(RtError::ValueRange { var: "idx".into(), value: 0 }));
            } else {
                assert_eq!(fast_res, Ok(()));
            }
        }
    }

    #[test]
    fn read_sym_maps_patterns() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable mode = r[0], volatile : { FAST <=> '1', SLOW <=> '0' };
                 variable rest = r[7..1] : int(7);
               }"#,
        );
        let mut dev = FakeAccess::new();
        dev.preset(0, 0, 1);
        assert_eq!(d.read_sym(&mut dev, "mode").unwrap(), "FAST");
        dev.preset(0, 0, 0);
        assert_eq!(d.read_sym(&mut dev, "mode").unwrap(), "SLOW");
    }

    #[test]
    fn shared_ir_spawns_independent_instances() {
        let first = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r : int(8);
               }"#,
        );
        let ir = first.shared_ir();
        let mut a = DeviceInstance::with_shared_ir(Arc::clone(&ir));
        let mut b = DeviceInstance::with_shared_ir(ir);
        let mut dev_a = FakeAccess::new();
        let mut dev_b = FakeAccess::new();
        a.write(&mut dev_a, "v", 0x11).unwrap();
        b.write(&mut dev_b, "v", 0x22).unwrap();
        // Cache state is per instance; the IR is one shared allocation.
        assert_eq!(a.read(&mut dev_a, "v").unwrap(), 0x11);
        assert_eq!(b.read(&mut dev_b, "v").unwrap(), 0x22);
        assert!(Arc::ptr_eq(&a.shared_ir(), &b.shared_ir()));
    }

    #[test]
    fn snapshot_restore_round_trips_mutable_state() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0, set {p = v} : bit[8];
                 variable v = r : int(8);
                 private variable p : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 0x5a).unwrap();
        d.write(&mut dev, "p", 0x3).unwrap();
        let snap = d.snapshot();
        d.write(&mut dev, "v", 0x99).unwrap();
        d.write(&mut dev, "p", 0x7).unwrap();
        assert_ne!(d.snapshot(), snap);
        d.restore(&snap);
        assert_eq!(d.snapshot(), snap);
        // Restored cache serves the old value without touching the bus.
        let ops = dev.ops();
        assert_eq!(d.read(&mut dev, "v").unwrap(), 0x5a);
        assert_eq!(d.read(&mut dev, "p").unwrap(), 0x3);
        assert_eq!(dev.ops(), ops);
    }

    #[test]
    fn plan_stats_delta_arithmetic() {
        let a = PlanStats { straight: 5, guarded: 3, general: 2, fused: 1 };
        let b = PlanStats { straight: 9, guarded: 3, general: 4, fused: 6 };
        assert_eq!(b.delta(a), PlanStats { straight: 4, guarded: 0, general: 2, fused: 5 });
        assert_eq!(b - a, b.delta(a));
        assert_eq!(a + b.delta(a), b);
        assert_eq!(b.total(), 22);
        assert_eq!(b.delta(b), PlanStats::default());
    }

    #[test]
    #[should_panic(expected = "delta underflow")]
    fn plan_stats_delta_rejects_epoch_mismatch() {
        let a = PlanStats { straight: 5, ..PlanStats::default() };
        let _ = PlanStats::default().delta(a);
    }

    #[test]
    fn plan_stats_no_drift_across_snapshot_restore() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.write(&mut dev, "v", 1).unwrap();
        d.read(&mut dev, "v").unwrap();
        let snap = d.snapshot();
        let at_snap = d.plan_stats();
        d.read(&mut dev, "v").unwrap();
        d.read(&mut dev, "v").unwrap();
        let after = d.plan_stats();
        assert_eq!(after.delta(at_snap).total(), 2);
        // Restore rewinds the counters to exactly the snapshot's epoch:
        // deltas taken across restore boundaries stay drift-free.
        d.restore(&snap);
        assert_eq!(d.plan_stats(), at_snap);
        d.read(&mut dev, "v").unwrap();
        assert_eq!(d.plan_stats().delta(at_snap).total(), 1);
    }

    #[test]
    fn plan_stats_fused_degradation_keeps_delta_consistent() {
        // A write plan with a pre-action (index write folded into the
        // straight line), degraded to the general path by plan mode.
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..1}) {
                 register r = base @ 0, pre {idx = 1} : bit[8];
                 register x = base @ 1 : bit[8];
                 variable idx = x : int(8);
                 variable v = r : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        let before = d.plan_stats();
        d.write(&mut dev, "v", 0x11).unwrap();
        let fast = d.plan_stats().delta(before);
        assert_eq!(fast.general, 0, "in-range index should dispatch on the plan");
        assert!(fast.total() >= 1);
        // The reference model counts its own dispatches, nested
        // action writes included.
        d.set_fast_plans(false);
        let before = d.plan_stats();
        d.write(&mut dev, "v", 0x22).unwrap();
        let slow = d.plan_stats().delta(before);
        assert!(slow.general >= 1, "general path must count its dispatches: {slow:?}");
        assert_eq!(slow.straight, 0);
        assert_eq!(slow.fused, 0);
        d.set_fast_plans(true);
    }

    #[test]
    fn dispatch_trace_records_variants_and_fallbacks() {
        let mut d = instance(
            r#"device d (base : bit[8] port @ {0..0}) {
                 register r = base @ 0 : bit[8];
                 variable v = r, volatile : int(8);
               }"#,
        );
        let mut dev = FakeAccess::new();
        d.set_dispatch_trace(true);
        let vid = d.var_id("v").unwrap();
        d.write(&mut dev, "v", 7).unwrap();
        d.read(&mut dev, "v").unwrap();
        d.set_fast_plans(false);
        d.read(&mut dev, "v").unwrap();
        d.set_fast_plans(true);
        let trace = d.take_dispatch_trace();
        assert_eq!(
            trace,
            vec![
                DispatchRecord {
                    access: AccessRef::WriteVar(vid),
                    outcome: DispatchOutcome::Variant(0)
                },
                DispatchRecord {
                    access: AccessRef::ReadVar(vid),
                    outcome: DispatchOutcome::Variant(0)
                },
                DispatchRecord {
                    access: AccessRef::ReadVar(vid),
                    outcome: DispatchOutcome::General
                },
            ]
        );
        // Drained; tracing still on.
        assert!(d.take_dispatch_trace().is_empty());
        d.read(&mut dev, "v").unwrap();
        assert_eq!(d.take_dispatch_trace().len(), 1);
        // Snapshots ignore the trace: instrumentation is not state.
        let snap = d.snapshot();
        d.read(&mut dev, "v").unwrap();
        d.set_dispatch_trace(false);
        assert_eq!(d.snapshot().slots, snap.slots);
        assert!(d.take_dispatch_trace().is_empty());
    }

    #[test]
    fn arg_buf_spills_past_inline_capacity() {
        let mut buf = ArgBuf::new();
        for i in 0..(ARG_INLINE as u64 + 2) {
            buf.push(i);
        }
        assert_eq!(buf.len(), ARG_INLINE + 2);
        assert_eq!(buf[ARG_INLINE + 1], ARG_INLINE as u64 + 1);
        let other = ArgBuf::from_slice(buf.as_slice());
        assert_eq!(buf, other);
        let inline = ArgBuf::from_slice(&[1, 2]);
        assert!(matches!(inline, ArgBuf::Inline { .. }));
        assert!(matches!(other, ArgBuf::Heap(_)));
    }
}
