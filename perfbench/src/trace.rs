//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code, around each call into
//! a layer's public functions; nothing inside the program is
//! instrumented. Every span carries its name, start, end, parent span
//! and the unit (instance, spec or op) it worked on. Self time — a
//! span's duration minus the part its child spans cover — is
//! accumulated exactly per span name as spans close. Full span records
//! are kept in memory up to [`RETAIN`] and written out when the run
//! ends; a fleet run closes millions of spans, so the tail past the cap
//! is counted in the aggregates but not retained.

use std::fmt::Write as _;
use std::time::Instant;

/// Full span records kept for the span file (32 bytes each).
pub const RETAIN: usize = 1 << 18;

/// Every span the benchmark takes: `(layer, function)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum Name {
    /// The whole traced segment of a run (its self time is the
    /// unaccounted harness remainder).
    Root,
    CheckSource,
    Lower,
    SuperplansInstall,
    SharedIrsCompile,
    Spawn,
    RunFleetWith,
    RunUnit,
    DrainCheckpoint,
    DrainTraceSegment,
    ForestAppend,
    LedgerMerge,
    ForestRoot,
    DevilCall,
    HandCall,
    RuntimeNull,
    RuntimePortMap,
    PortMapNew,
    BusIo,
    RootedCompare,
    ReplayFast,
    ReplayGeneral,
    ReplayRetained,
    LeafFold,
    Bisect,
    LinearCompare,
}

impl Name {
    /// All names, in discriminant order.
    pub const ALL: [Name; 26] = [
        Name::Root,
        Name::CheckSource,
        Name::Lower,
        Name::SuperplansInstall,
        Name::SharedIrsCompile,
        Name::Spawn,
        Name::RunFleetWith,
        Name::RunUnit,
        Name::DrainCheckpoint,
        Name::DrainTraceSegment,
        Name::ForestAppend,
        Name::LedgerMerge,
        Name::ForestRoot,
        Name::DevilCall,
        Name::HandCall,
        Name::RuntimeNull,
        Name::RuntimePortMap,
        Name::PortMapNew,
        Name::BusIo,
        Name::RootedCompare,
        Name::ReplayFast,
        Name::ReplayGeneral,
        Name::ReplayRetained,
        Name::LeafFold,
        Name::Bisect,
        Name::LinearCompare,
    ];

    /// The layer the span's self time is charged to.
    pub fn layer(self) -> &'static str {
        match self {
            Name::Root => "bench",
            Name::CheckSource => "devil_sema",
            Name::Lower => "devil_ir",
            Name::SuperplansInstall | Name::DevilCall | Name::HandCall => "drivers",
            Name::SharedIrsCompile | Name::Spawn | Name::RunFleetWith | Name::RunUnit => {
                "devil_fleet"
            }
            Name::DrainCheckpoint | Name::LedgerMerge | Name::BusIo => "hwsim",
            Name::DrainTraceSegment
            | Name::ForestAppend
            | Name::ForestRoot
            | Name::LeafFold
            | Name::Bisect => "hwsim_mmr",
            Name::RuntimeNull => "devil_runtime",
            Name::RuntimePortMap | Name::PortMapNew => "devil_runtime_access",
            Name::RootedCompare
            | Name::ReplayFast
            | Name::ReplayGeneral
            | Name::ReplayRetained
            | Name::LinearCompare => "devil_fuzz",
        }
    }

    /// The public function the span wraps.
    pub fn function(self) -> &'static str {
        match self {
            Name::Root => "perfbench::traced_segment",
            Name::CheckSource => "devil_sema::check_source",
            Name::Lower => "devil_ir::lower",
            Name::SuperplansInstall => "drivers::superplans::install",
            Name::SharedIrsCompile => "devil_fleet::SharedIrs::compile",
            Name::Spawn => "devil_fleet::FleetInstance::spawn",
            Name::RunFleetWith => "devil_fleet::run_fleet_with",
            Name::RunUnit => "devil_fleet::FleetInstance::run_unit",
            Name::DrainCheckpoint => "devil_fleet::FleetInstance::drain_checkpoint",
            Name::DrainTraceSegment => "devil_fleet::FleetInstance::drain_trace_segment",
            Name::ForestAppend => "hwsim::MmrForest::append_segment",
            Name::LedgerMerge => "hwsim::Ledger::merge",
            Name::ForestRoot => "hwsim::MmrForest::root",
            Name::DevilCall => "drivers::Devil*",
            Name::HandCall => "drivers::Hand*",
            Name::RuntimeNull => "devil_runtime::DeviceInstance (null access)",
            Name::RuntimePortMap => "devil_runtime::DeviceInstance via PortMap",
            Name::PortMapNew => "devil_runtime::PortMap::new",
            Name::BusIo => "hwsim::Bus::io_read/io_write",
            Name::RootedCompare => "devil_fuzz::rooted::check_equivalence_rooted_stream",
            Name::ReplayFast => "devil_fuzz::rooted::replay_mmr (fast)",
            Name::ReplayGeneral => "devil_fuzz::rooted::replay_mmr (general)",
            Name::ReplayRetained => "devil_fuzz::rooted::replay_mmr (retained)",
            Name::LeafFold => "hwsim::MmrLog::fold",
            Name::Bisect => "hwsim::bisect_divergence",
            Name::LinearCompare => "devil_fuzz::check_equivalence",
        }
    }
}

/// One retained span. `parent` indexes the retained spans, or is
/// `u32::MAX` for a top-level span or one whose parent was not kept.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Exact per-name totals over every span closed, retained or not.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: Name,
    index: u32,
    start_ns: u64,
    child_ns: u64,
}

/// The recorder. When off, [`Tracer::span`] runs its closure and
/// records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    agg: [Agg; Name::ALL.len()],
}

impl Tracer {
    /// A recorder, on or off.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            spans: Vec::new(),
            dropped: 0,
            agg: [Agg::default(); Name::ALL.len()],
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; every `enter` is matched by one [`Tracer::exit`].
    pub fn enter(&mut self, name: Name, unit: u32) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map_or(u32::MAX, |o| o.index);
        let index = if self.spans.len() < RETAIN {
            self.spans.push(Span { name, parent, unit, start_ns: 0, end_ns: 0 });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            u32::MAX
        };
        let start_ns = self.now_ns();
        if index != u32::MAX {
            self.spans[index as usize].start_ns = start_ns;
        }
        self.stack.push(Open { name, index, start_ns, child_ns: 0 });
    }

    /// Closes the innermost open span and returns its duration in ns
    /// (0 when tracing is off).
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - open.start_ns;
        if open.index != u32::MAX {
            self.spans[open.index as usize].end_ns = end_ns;
        }
        let a = &mut self.agg[open.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        dur
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: Name, unit: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.enter(name, unit);
        let r = f();
        self.exit();
        r
    }

    /// The per-name totals.
    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Mean self ns per call of `name`, or 0 when it never ran.
    pub fn mean_self_ns(&self, name: Name) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.self_ns as f64 / a.count as f64
        }
    }

    /// Self ns summed per layer, over every name except the root.
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for name in Name::ALL {
            if name == Name::Root {
                continue;
            }
            let ns = self.agg(name).self_ns;
            match out.iter_mut().find(|(l, _)| *l == name.layer()) {
                Some((_, acc)) => *acc += ns,
                None => out.push((name.layer(), ns)),
            }
        }
        out
    }

    /// The self-time table, one line per span name that ran.
    pub fn table(&self) -> String {
        let mut s = String::from("span\tlayer\tcalls\ttotal_ns\tself_ns\n");
        for name in Name::ALL {
            let a = self.agg(name);
            if a.count > 0 {
                let _ = writeln!(
                    s,
                    "{}\t{}\t{}\t{}\t{}",
                    name.function(),
                    name.layer(),
                    a.count,
                    a.total_ns,
                    a.self_ns
                );
            }
        }
        s
    }

    /// The retained spans as TSV: one line per span, then a comment
    /// line with the number closed past the retention cap.
    pub fn spans_tsv(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 64);
        s.push_str("index\tname\tlayer\tstart_ns\tend_ns\tparent\tunit\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == u32::MAX { -1 } else { sp.parent as i64 };
            let _ = writeln!(
                s,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                sp.name.function(),
                sp.name.layer(),
                sp.start_ns,
                sp.end_ns,
                sp.unit
            );
        }
        let _ = writeln!(s, "# spans past the retention cap: {}", self.dropped);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter(Name::Root, 0);
        t.span(Name::RunUnit, 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span(Name::DrainCheckpoint, 1, || {});
        let root = t.exit();
        let unit = t.agg(Name::RunUnit);
        assert_eq!(unit.count, 1);
        assert_eq!(unit.self_ns, unit.total_ns, "a leaf's self time is its duration");
        let r = t.agg(Name::Root);
        assert_eq!(r.total_ns, root);
        assert_eq!(r.self_ns, root - unit.total_ns - t.agg(Name::DrainCheckpoint).total_ns);
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(Name::RunUnit, 0, || 7), 7);
        assert_eq!(t.agg(Name::RunUnit).count, 0);
        assert!(t.spans.is_empty());
    }
}
