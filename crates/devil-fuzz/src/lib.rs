//! Differential fuzzing harness for the Devil runtime.
//!
//! The fast path (precompiled [`devil_ir`] plans, indexed flat cache
//! slots), the general interpreter, the fused superplans and the
//! emitted C and Rust stubs must be observationally indistinguishable:
//! same device-visible bus traffic, same final device state, same
//! results and errors. This crate turns a raw stream of random words
//! into a valid-ish [`Op`] sequence over a lowered device — single
//! accesses and, through [`superfuzz::decode_super`], fused
//! [`Op::Super`] calls — replays it through two rigs, and diffs
//! everything the device or the caller could observe.
//!
//! Four comparators cover every pair:
//!
//! * [`check_equivalence`] — linear, [`Rig::Fast`] vs [`Rig::General`],
//!   every observation retained;
//! * [`rooted::compare`] — any two in-process [`Rig`]s, one MMR root
//!   per rig, bisection to the first divergent op on a mismatch;
//! * [`rooted::check_equivalence_rooted_stream`] — `compare(Fast,
//!   General)` over a generated stream that is never materialized;
//! * [`compiled::check_compiled`] — a compiled C or Rust stub binary
//!   ([`compiled::Oracle`]) against the fast path, line for line.
//!
//! The generator is deliberately a pure function of the word stream,
//! so a failing proptest case is replayable from its printed seed
//! (`PROPTEST_SEED=<n>`).

#![forbid(unsafe_code)]

use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess};
use devil_sema::model::{Offset, StructId, VarId};
use superfuzz::SuperCall;

pub mod compiled;
pub mod compiled_rust;
pub mod coverage;
pub mod rooted;
pub mod superfuzz;
pub mod synthetic;

/// One operation against a device instance.
#[derive(Clone, Debug)]
pub enum Op {
    /// `read_id(var, args)`.
    ReadVar {
        /// Target variable.
        vid: VarId,
        /// Family arguments (possibly deliberately out of domain).
        args: Vec<u64>,
    },
    /// `write_id(var, args, value)`.
    WriteVar {
        /// Target variable.
        vid: VarId,
        /// Family arguments.
        args: Vec<u64>,
        /// Raw written value (unmasked — the runtime masks).
        value: u64,
    },
    /// `read_struct_id` followed by a getter per field.
    ReadStruct {
        /// Target structure.
        sid: StructId,
    },
    /// `set_field_id` per field followed by `write_struct_id`.
    WriteStruct {
        /// Target structure.
        sid: StructId,
        /// `(field, value)` assignments.
        values: Vec<(VarId, u64)>,
    },
    /// `read_block` into a buffer of `len` words.
    ReadBlock {
        /// Target (block) variable.
        vid: VarId,
        /// Buffer length.
        len: usize,
    },
    /// `write_block` from `values`.
    WriteBlock {
        /// Target (block) variable.
        vid: VarId,
        /// Written words.
        values: Vec<u64>,
    },
    /// Presets a fake-device register, modelling hardware state changes
    /// between driver operations (applied identically to both rigs).
    Preset {
        /// Device port index.
        port: usize,
        /// Register offset.
        offset: u64,
        /// New raw value.
        value: u64,
    },
    /// One fused-sequence call: `run_superplan`, or
    /// `run_superplan_unfused` on [`Rig::Unfused`]. Boxed so the other
    /// variants keep `Op` at 40 bytes.
    Super(Box<SuperCall>),
}

/// One in-process replay configuration of the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rig {
    /// Precompiled plans on, superplan calls fused.
    Fast,
    /// The general interpreter (`set_fast_plans(false)`).
    General,
    /// Plans on, superplan calls through `run_superplan_unfused`.
    Unfused,
}

impl Rig {
    /// A fresh instance of `ir` configured for this rig.
    pub fn instance(self, ir: &DeviceIr) -> DeviceInstance {
        let mut inst = DeviceInstance::new(ir.clone());
        if self == Rig::General {
            inst.set_fast_plans(false);
        }
        inst
    }

    /// The label failure reports use for this rig.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Rig::Fast => "fast",
            Rig::General => "general",
            Rig::Unfused => "unfused",
        }
    }
}

/// A cursor over the raw word stream; exhausted reads return 0 so
/// decoding stays total and deterministic.
struct Words<'a> {
    words: &'a [u64],
    i: usize,
}

impl<'a> Words<'a> {
    fn new(words: &'a [u64]) -> Self {
        Words { words, i: 0 }
    }

    fn next(&mut self) -> Option<u64> {
        let w = self.words.get(self.i).copied();
        self.i += 1;
        w
    }

    fn pull(&mut self) -> u64 {
        self.next().unwrap_or(0)
    }
}

/// A family-argument tuple for `var`, drawn from the parameter domains.
/// Roughly one in eight tuples is pushed out of domain on purpose, so
/// the error paths of both interpreter modes are compared too.
fn args_for(ir: &DeviceIr, vid: VarId, w: u64, words: &mut Words) -> Vec<u64> {
    let var = ir.var(vid);
    let mut args: Vec<u64> = var
        .params
        .iter()
        .map(|p| {
            let u = words.pull();
            let &(lo, hi) = &p.values[(u % p.values.len() as u64) as usize];
            let span = hi.wrapping_sub(lo).wrapping_add(1);
            if span == 0 {
                u >> 8
            } else {
                lo + ((u >> 8) % span)
            }
        })
        .collect();
    if !args.is_empty() && (w >> 57) & 0x7 == 0x7 {
        let k = (w >> 60) as usize % args.len();
        let (_, hi) = *var.params[k].values.last().expect("non-empty domain");
        args[k] = hi.wrapping_add(1 + (w >> 32) % 5);
    }
    args
}

/// Decodes a raw word stream into an op sequence over `ir`. Pure and
/// total: the same words always produce the same ops.
pub fn decode(ir: &DeviceIr, words: &[u64]) -> Vec<Op> {
    let nvars = ir.vars.len();
    let nstructs = ir.structs.len();
    let nregs = ir.regs.len();
    let block_vars: Vec<VarId> =
        (0..nvars as u32).map(VarId).filter(|&v| ir.var(v).behavior.block).collect();
    let mut ops = Vec::new();
    let mut cur = Words::new(words);
    while let Some(w) = cur.next() {
        if nvars == 0 {
            break;
        }
        let vid = VarId(((w >> 4) % nvars as u64) as u32);
        match w % 16 {
            0..=3 => ops.push(Op::ReadVar { vid, args: args_for(ir, vid, w, &mut cur) }),
            4..=8 => {
                let args = args_for(ir, vid, w, &mut cur);
                ops.push(Op::WriteVar { vid, args, value: cur.pull() });
            }
            // Structure writes get three opcodes: conditional
            // serializations (the pic8259/piix4ide init shapes) are the
            // guard-split plans the fuzzer must keep hammering.
            9..=11 if nstructs > 0 => {
                let sid = StructId(((w >> 4) % nstructs as u64) as u32);
                let values = ir.strct(sid).fields.iter().map(|&fid| (fid, cur.pull())).collect();
                ops.push(Op::WriteStruct { sid, values });
            }
            12 if nstructs > 0 => {
                let sid = StructId(((w >> 4) % nstructs as u64) as u32);
                ops.push(Op::ReadStruct { sid });
            }
            13 if !block_vars.is_empty() => {
                let vid = block_vars[((w >> 4) % block_vars.len() as u64) as usize];
                let len = 1 + ((w >> 16) % 8) as usize;
                if (w >> 63) & 1 == 0 {
                    ops.push(Op::ReadBlock { vid, len });
                } else {
                    ops.push(Op::WriteBlock {
                        vid,
                        values: (0..len).map(|_| cur.pull()).collect(),
                    });
                }
            }
            14 | 15 if nregs > 0 => {
                let rid = devil_sema::model::RegId(((w >> 4) % nregs as u64) as u32);
                let reg = ir.reg(rid);
                let binding = reg.read.as_ref().or(reg.write.as_ref());
                if let Some(binding) = binding {
                    let offset = match binding.offset {
                        Offset::Const(c) => c,
                        Offset::Param(i) => {
                            let &(lo, hi) = &reg.params[i].values[0];
                            lo + (w >> 16) % (hi - lo + 1)
                        }
                    };
                    ops.push(Op::Preset {
                        port: binding.port.0 as usize,
                        offset,
                        value: cur.pull(),
                    });
                }
            }
            _ => ops.push(Op::ReadVar { vid, args: args_for(ir, vid, w, &mut cur) }),
        }
    }
    ops
}

/// A deterministic coverage sweep: every register preset, every
/// variable read and written (family instances across their domains,
/// capped), every structure written and read back, every block
/// variable moved — then a second read pass over the warm cache.
pub fn sweep_ops(ir: &DeviceIr) -> Vec<Op> {
    let mut ops = Vec::new();
    for (i, reg) in ir.regs.iter().enumerate() {
        if let Some(binding) = &reg.read {
            if let Offset::Const(c) = binding.offset {
                ops.push(Op::Preset {
                    port: binding.port.0 as usize,
                    offset: c,
                    value: 0xA0 + i as u64,
                });
            }
        }
    }
    let arg_tuples = |vid: VarId| -> Vec<Vec<u64>> {
        let var = ir.var(vid);
        if var.params.is_empty() {
            return vec![Vec::new()];
        }
        // One-parameter families: up to four domain values.
        var.params[0]
            .iter()
            .take(4)
            .map(|v| {
                let mut t = vec![v];
                t.extend(var.params[1..].iter().map(|p| p.values[0].0));
                t
            })
            .collect()
    };
    for round in 0..2 {
        for vi in 0..ir.vars.len() as u32 {
            let vid = VarId(vi);
            let var = ir.var(vid);
            for args in arg_tuples(vid) {
                if var.writable && round == 0 {
                    ops.push(Op::WriteVar { vid, args: args.clone(), value: 0x5a5a ^ (vi as u64) });
                }
                if var.readable {
                    ops.push(Op::ReadVar { vid, args });
                }
            }
            if var.behavior.block && round == 0 {
                ops.push(Op::ReadBlock { vid, len: 4 });
                ops.push(Op::WriteBlock { vid, values: vec![1, 2, 3] });
            }
        }
        for si in 0..ir.structs.len() as u32 {
            let sid = StructId(si);
            if round == 0 {
                let values = ir
                    .strct(sid)
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(k, &fid)| (fid, 0x33 + k as u64))
                    .collect();
                ops.push(Op::WriteStruct { sid, values });
            }
            ops.push(Op::ReadStruct { sid });
        }
    }
    ops
}

/// A deterministic init-sequence sweep aimed at conditional
/// serializations (the pic8259 ICW automaton): every structure is
/// flushed twice per round over sixteen rounds. The first flush
/// assigns field `k` the bit `(round >> (k % 4)) & 1`, so 1-bit
/// tested fields at struct indices 0..3 (mod 4) — pic8259's `ic4`
/// (index 0) and `sngl` (index 1) among them — sweep their full guard
/// cross product; the second flush writes `round ^ (0x5a + k)` for
/// non-trivial payload bits. Each round ends with a read probe of
/// every plain readable variable, so silent cache divergence between
/// plan variants and the general path surfaces. (Wider tested fields
/// and exotic layouts are additionally covered by the random proptest
/// stream.)
pub fn init_sweep_ops(ir: &DeviceIr) -> Vec<Op> {
    let mut ops = Vec::new();
    for round in 0..16u64 {
        for si in 0..ir.structs.len() as u32 {
            let sid = StructId(si);
            let values: Vec<(VarId, u64)> = ir
                .strct(sid)
                .fields
                .iter()
                .enumerate()
                .map(|(k, &fid)| (fid, (round >> (k as u64 % 4)) & 1))
                .collect();
            ops.push(Op::WriteStruct { sid, values });
            let payload: Vec<(VarId, u64)> = ir
                .strct(sid)
                .fields
                .iter()
                .enumerate()
                .map(|(k, &fid)| (fid, round ^ (0x5a + k as u64)))
                .collect();
            ops.push(Op::WriteStruct { sid, values: payload });
        }
        // Probe every readable variable so silent cache divergence
        // between the variants and the general path surfaces.
        for vi in 0..ir.vars.len() as u32 {
            let vid = VarId(vi);
            let var = ir.var(vid);
            if var.readable && var.params.is_empty() {
                ops.push(Op::ReadVar { vid, args: Vec::new() });
            }
        }
    }
    ops
}

/// Replays `ops` against one instance of `rig`, recording everything a
/// caller observes (values, errors) as comparable strings.
pub fn run(rig: Rig, inst: &mut DeviceInstance, dev: &mut FakeAccess, ops: &[Op]) -> Vec<String> {
    let mut obs = Vec::with_capacity(ops.len());
    for op in ops {
        run_op(rig, inst, dev, op, &mut obs);
    }
    obs
}

/// Replays one op, appending its caller observations to `out`. The
/// streaming rooted harness reuses one buffer across millions of ops;
/// [`run`] is the collect-everything wrapper the linear comparator
/// uses. `rig` only decides how an [`Op::Super`] dispatches.
pub fn run_op(
    rig: Rig,
    inst: &mut DeviceInstance,
    dev: &mut FakeAccess,
    op: &Op,
    out: &mut Vec<String>,
) {
    match op {
        Op::ReadVar { vid, args } => {
            out.push(format!("read {vid:?} {args:?} -> {:?}", inst.read_id(dev, *vid, args)));
        }
        Op::WriteVar { vid, args, value } => {
            out.push(format!(
                "write {vid:?} {args:?} {value:#x} -> {:?}",
                inst.write_id(dev, *vid, args, *value)
            ));
        }
        Op::ReadStruct { sid } => {
            let r = inst.read_struct_id(dev, *sid);
            out.push(format!("read_struct {sid:?} -> {r:?}"));
            if r.is_ok() {
                for &fid in inst.ir().strct(*sid).fields.clone().iter() {
                    out.push(format!("  field {fid:?} -> {:?}", inst.get_field_id(fid)));
                }
            }
        }
        Op::WriteStruct { sid, values } => {
            for (fid, v) in values {
                out.push(format!(
                    "  set_field {fid:?} {v:#x} -> {:?}",
                    inst.set_field_id(*fid, *v)
                ));
            }
            out.push(format!("write_struct {sid:?} -> {:?}", inst.write_struct_id(dev, *sid)));
        }
        Op::ReadBlock { vid, len } => {
            let name = inst.ir().var(*vid).name.clone();
            let mut buf = vec![0u64; *len];
            let r = inst.read_block(dev, &name, &mut buf);
            out.push(format!("read_block {vid:?} -> {r:?} {buf:x?}"));
        }
        Op::WriteBlock { vid, values } => {
            let name = inst.ir().var(*vid).name.clone();
            let r = inst.write_block(dev, &name, values);
            out.push(format!("write_block {vid:?} {values:x?} -> {r:?}"));
        }
        Op::Preset { port, offset, value } => {
            dev.preset(*port, *offset, *value);
            out.push(format!("preset {port} {offset:#x} {value:#x}"));
        }
        Op::Super(call) => {
            let (r, outs, block_in) = call.run(rig, inst, dev);
            out.push(format!(
                "super {} {:x?} -> {r:?} outs {outs:x?} in {block_in:x?}",
                call.sid, call.args
            ));
        }
    }
}

/// The cache-coherence probe: one read of every readable variable at
/// its first in-domain argument tuple. Both the linear and the rooted
/// comparators end with it, so silent cache divergence the op sequence
/// itself never observed still surfaces.
pub fn probe_ops(ir: &DeviceIr) -> Vec<Op> {
    (0..ir.vars.len() as u32)
        .map(VarId)
        .filter(|&v| ir.var(v).readable)
        .map(|vid| Op::ReadVar {
            vid,
            args: ir.var(vid).params.iter().map(|p| p.values[0].0).collect(),
        })
        .collect()
}

/// The first differing line between two observation logs, for compact
/// failure reports.
fn first_diff(a: &[String], b: &[String]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("op {i}:\n  fast:    {x}\n  general: {y}");
        }
    }
    format!("lengths differ: fast {} vs general {}", a.len(), b.len())
}

/// Replays `ops` through the fast-plan and the general interpreter and
/// verifies they are indistinguishable: identical caller observations,
/// identical device-visible operation log, identical final device
/// state, and identical residual reads (cache coherence probe). The
/// linear twin of [`rooted::compare`]`(Fast, General)`: it retains
/// every line, which is still cheaper below ~100k ops.
pub fn check_equivalence(ir: &DeviceIr, ops: &[Op]) -> Result<(), String> {
    check_equivalence_with_checks(ir, ops, false)
}

/// [`check_equivalence`] with debug checks set to `checks` on both
/// rigs: the plans validate around each access, the general
/// interpreter inline, and both must reject the same ops with the same
/// errors.
pub fn check_equivalence_with_checks(
    ir: &DeviceIr,
    ops: &[Op],
    checks: bool,
) -> Result<(), String> {
    let mut fast = Rig::Fast.instance(ir);
    fast.set_debug_checks(checks);
    let mut fast_dev = FakeAccess::new();
    let mut slow = Rig::General.instance(ir);
    slow.set_debug_checks(checks);
    let mut slow_dev = FakeAccess::new();

    let obs_fast = run(Rig::Fast, &mut fast, &mut fast_dev, ops);
    let obs_slow = run(Rig::General, &mut slow, &mut slow_dev, ops);
    if obs_fast != obs_slow {
        return Err(format!("observations diverge at {}", first_diff(&obs_fast, &obs_slow)));
    }
    if fast_dev.log != slow_dev.log {
        let i = fast_dev.log.iter().zip(&slow_dev.log).position(|(a, b)| a != b);
        return Err(format!(
            "device op logs diverge at index {i:?}: fast {:?} vs general {:?}",
            i.map(|i| fast_dev.log[i]),
            i.map(|i| slow_dev.log[i]),
        ));
    }
    if fast_dev.regs != slow_dev.regs {
        return Err("final device state diverges".into());
    }

    // Cache-coherence probe: after the sequence, reading every readable
    // variable once more must agree (catches silent cache divergence
    // that the op sequence itself did not observe).
    let probe = probe_ops(ir);
    let probe_fast = run(Rig::Fast, &mut fast, &mut fast_dev, &probe);
    let probe_slow = run(Rig::General, &mut slow, &mut slow_dev, &probe);
    if probe_fast != probe_slow {
        return Err(format!(
            "cache-coherence probe diverges at {}",
            first_diff(&probe_fast, &probe_slow)
        ));
    }
    if fast_dev.log != slow_dev.log {
        return Err("probe device op logs diverge".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir(src: &str) -> DeviceIr {
        devil_ir::lower(&devil_sema::check_source(src, &[]).expect("spec checks"))
    }

    const SPEC: &str = r#"device d (base : bit[8] port @ {0..2}) {
        register r = base @ 2 : bit[8];
        variable lo = r[3..0] : int(4);
        variable hi = r[7..4] : int(4);
        register f(i : int{0..1}) = base @ i : bit[8];
        variable fv(i : int{0..1}) = f(i), volatile : int(8);
    }"#;

    #[test]
    fn boxed_superplan_calls_keep_op_at_40_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 40);
    }

    #[test]
    fn decode_is_deterministic_and_total() {
        let ir = ir(SPEC);
        let words: Vec<u64> = (0..24).map(|i| 0x9e3779b97f4a7c15u64.wrapping_mul(i + 1)).collect();
        let a = decode(&ir, &words);
        let b = decode(&ir, &words);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.is_empty());
    }

    #[test]
    fn sweep_covers_reads_writes_and_presets() {
        let ir = ir(SPEC);
        let ops = sweep_ops(&ir);
        assert!(ops.iter().any(|o| matches!(o, Op::ReadVar { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::WriteVar { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Preset { .. })));
        check_equivalence(&ir, &ops).unwrap();
    }

    #[test]
    fn struct_action_with_partial_flush_order_stays_equivalent() {
        // Regression: a struct-valued pre-action assigning a field
        // whose register the serialized-as order does not flush. The
        // general path stores the field's bits into that register's
        // cache anyway; a folded plan used to drop them, diverging on
        // the next write that composed from the cache.
        let ir = ir(r#"device d (base : bit[8] port @ {0..2}) {
            register a = write base @ 0 : bit[8];
            register bq = write base @ 1 : bit[8];
            structure s = {
              variable fa = a : int(8);
              variable fb = bq[3..0] : int(4);
            } serialized as { a; };
            register data = read base @ 2, pre {s = {fa => 3; fb => 7}} : bit[8];
            variable payload = data, volatile : int(8);
            variable g = bq[7..4] : int(4);
        }"#);
        let payload = ir.var_id("payload").unwrap();
        let g = ir.var_id("g").unwrap();
        let ops = vec![
            Op::ReadVar { vid: payload, args: vec![] },
            Op::WriteVar { vid: g, args: vec![], value: 1 },
            Op::ReadVar { vid: g, args: vec![] },
        ];
        check_equivalence(&ir, &ops).unwrap();
    }

    #[test]
    fn equivalence_check_reports_divergence_details() {
        // Sanity: the checker accepts an equivalent pair on a random
        // stream (any failure here is a real fast/general divergence).
        let ir = ir(SPEC);
        let words: Vec<u64> = (0..40u64).map(|i| i * i * 2654435761 + 17).collect();
        let ops = decode(&ir, &words);
        check_equivalence(&ir, &ops).unwrap();
    }
}
