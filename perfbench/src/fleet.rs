//! `fleet_mixed`: every shipped spec in one 1000-instance fleet.
//!
//! The end-to-end figure is `run_fleet_with` on min(nproc, 2) shards.
//! Its gate is the benchmark's own single-shard replica of the shard
//! loop (`devil_fleet::run_shard`), whose calls into the fleet, the
//! ledger and the MMR are timed one by one in the traced run. Results
//! do not depend on the shard count, so the replica and the fleet
//! report must agree exactly.

use crate::trace::Name;
use crate::Run;
use devil_fleet::{
    run_fleet_with, FleetConfig, FleetInstance, FleetReport, InstanceFinal, Mix, Rng, SharedIrs,
    WorkloadKind,
};
use devil_runtime::PlanStats;
use hwsim::{Hash, Ledger, MmrForest};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Calibration samples taken on each side of a fleet run or replica.
const CALIB: usize = 40;

/// The fleet configuration for a run.
pub fn config(run: &Run) -> FleetConfig {
    let mut cfg = FleetConfig::new(Mix::all_specs());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    cfg.shards = nproc.min(2);
    cfg.seed = run.args.seed;
    if run.args.tiny {
        cfg.instances = 24;
        cfg.units_per_instance = 10;
        cfg.checkpoint_every_units = 16;
    } else {
        cfg.instances = 1000;
    }
    cfg
}

/// Spawns every instance the way a shard does, one span per spawn.
fn spawn_all(run: &mut Run, cfg: &FleetConfig, irs: &SharedIrs) -> Vec<FleetInstance> {
    (0..cfg.instances)
        .map(|id| {
            let mut rng = Rng::for_instance(cfg.seed, id as u64);
            let kind = cfg.mix.pick(&mut rng);
            run.tr.span(Name::Spawn, id as u32, || FleetInstance::spawn(id as u32, kind, irs, rng))
        })
        .collect()
}

/// What the replica produced, plus the counts the traced run reports.
struct Replica {
    ledger: Ledger,
    root: Hash,
    stats: PlanStats,
    units: u64,
    finals: Vec<InstanceFinal>,
    /// CPU ns the replica took (it runs on this thread).
    cpu_ns: f64,
    drains: u64,
    empty_drains: u64,
    /// Per `WorkloadKind::ALL` index: `(units, traced ns)`.
    per_kind: [(u64, u64); 8],
}

fn kind_index(kind: WorkloadKind) -> usize {
    WorkloadKind::ALL.iter().position(|&k| k == kind).expect("a shipped kind")
}

/// Drains every instance into the ledger and forest: one checkpoint.
fn checkpoint(
    run: &mut Run,
    insts: &mut [FleetInstance],
    ledger: &mut Ledger,
    forest: &mut MmrForest,
    drains: &mut u64,
    empty: &mut u64,
) {
    for inst in insts {
        let id = inst.id();
        let delta = run.tr.span(Name::DrainCheckpoint, id, || inst.drain_checkpoint());
        let segment = run.tr.span(Name::DrainTraceSegment, id, || inst.drain_trace_segment());
        *drains += 1;
        if delta.is_empty() {
            *empty += 1;
        }
        run.tr.span(Name::LedgerMerge, id, || ledger.merge(&delta));
        run.tr.span(Name::ForestAppend, id, || forest.append_segment(id as u64, &segment));
    }
}

/// The shard loop of `devil_fleet::run_shard`, on one shard.
fn replica(run: &mut Run, cfg: &FleetConfig, mut insts: Vec<FleetInstance>) -> Replica {
    let start = crate::cpu::thread_ns();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(insts.len());
    for (idx, inst) in insts.iter_mut().enumerate() {
        heap.push(Reverse((inst.next_gap_ns(cfg.arrival_mean_ns), idx)));
    }
    let mut ledger = Ledger::default();
    let mut forest = MmrForest::new(false);
    let (mut units, mut drains, mut empty) = (0u64, 0u64, 0u64);
    let mut per_kind = [(0u64, 0u64); 8];
    while let Some(Reverse((arrival, idx))) = heap.pop() {
        let inst = &mut insts[idx];
        run.tr.enter(Name::RunUnit, inst.id());
        inst.run_unit();
        let ns = run.tr.exit();
        let k = &mut per_kind[kind_index(inst.kind())];
        k.0 += 1;
        k.1 += ns;
        units += 1;
        if inst.units() < cfg.units_per_instance {
            let gap = inst.next_gap_ns(cfg.arrival_mean_ns);
            heap.push(Reverse((arrival + gap, idx)));
        }
        if cfg.checkpoint_every_units > 0 && units.is_multiple_of(cfg.checkpoint_every_units) {
            checkpoint(run, &mut insts, &mut ledger, &mut forest, &mut drains, &mut empty);
        }
    }
    checkpoint(run, &mut insts, &mut ledger, &mut forest, &mut drains, &mut empty);
    let root = run.tr.span(Name::ForestRoot, 0, || forest.root());
    let cpu_ns = (crate::cpu::thread_ns() - start) as f64;

    let mut stats = PlanStats::default();
    let finals = insts
        .iter()
        .map(|inst| {
            stats = stats + inst.plan_stats();
            InstanceFinal {
                id: inst.id(),
                kind: inst.kind(),
                units: inst.units(),
                ledger: inst.ledger(),
                snapshots: inst.snapshots(),
            }
        })
        .collect();
    Replica { ledger, root, stats, units, finals, cpu_ns, drains, empty_drains: empty, per_kind }
}

/// The gate: the fleet report must equal the replica on every
/// shard-independent quantity, and every unit must have run on a plan.
fn gate(run: &mut Run, cfg: &FleetConfig, report: &FleetReport, rep: &Replica) {
    let want_units = cfg.instances as u64 * cfg.units_per_instance;
    run.check(report.units == want_units, || {
        format!("fleet ran {} units, want {want_units}", report.units)
    });
    run.check(rep.units == want_units, || format!("replica ran {} units", rep.units));
    run.check(report.stats.general == 0, || {
        format!("{} general-interpreter fallbacks", report.stats.general)
    });
    let mut ledger = rep.ledger;
    if run.args.corrupt {
        ledger.io_in[0] += 1;
    }
    run.check(report.ledger == ledger, || "merged fleet ledger differs from the replica".into());
    run.check(report.trace_root == rep.root, || "fleet trace root differs from the replica".into());
    run.check(report.stats == rep.stats, || {
        format!("dispatch counters differ: {:?} vs {:?}", report.stats, rep.stats)
    });
    run.check(report.finals.len() == rep.finals.len(), || "instance counts differ".into());
    for (a, b) in report.finals.iter().zip(&rep.finals) {
        run.check(a == b, || format!("instance {} final state differs from the replica", a.id));
    }
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let cfg = config(run);

    // Set-up: compile the spec library and spawn the fleet, several
    // times; the last fleet feeds the replica.
    let mut setup = Vec::new();
    let mut fleet = None;
    for _ in 0..run.setup_reps() {
        drop(fleet.take());
        run.calib.take(2);
        let t = crate::cpu::thread_ns();
        let irs = run.tr.span(Name::SharedIrsCompile, 0, SharedIrs::compile);
        let insts = spawn_all(run, &cfg, &irs);
        setup.push((crate::cpu::thread_ns() - t) as f64 / 1e9);
        fleet = Some((irs, insts));
    }
    let (irs, insts) = fleet.expect("at least one set-up");
    let setup_s = run.timing("setup (compile + spawn)", &setup, "s").median;

    // Timed phase: the fleet on its shards, then the untraced replica
    // (the gate's reference and `ref_op_ns`) on a freshly spawned fleet.
    // Both are timed in CPU ns per unit, summed over the shards, each
    // scaled by the host speed measured around it.
    let deadline = run.deadline();
    let mut per_unit_ns = Vec::new();
    let mut units_per_s = Vec::new();
    let mut replica_ns = Vec::new();
    let mut first: Option<FleetReport> = None;
    let mut insts = Some(insts);
    loop {
        run.calib.take(CALIB);
        let cpu = crate::cpu::process_ns();
        let report = run.tr.span(Name::RunFleetWith, 0, || run_fleet_with(&cfg, &irs));
        let cpu = (crate::cpu::process_ns() - cpu) as f64;
        run.calib.take(CALIB);
        let speed = run.calib.recent(2 * CALIB);
        per_unit_ns.push(cpu / report.units.max(1) as f64 * speed);
        units_per_s.push(report.units as f64 / report.wall.as_secs_f64() / speed);
        let fresh = match insts.take() {
            Some(i) => i,
            None => spawn_all(run, &cfg, &irs),
        };
        let rep = replica(run, &cfg, fresh);
        run.calib.take(CALIB);
        replica_ns.push(rep.cpu_ns / rep.units.max(1) as f64 * run.calib.recent(2 * CALIB));
        match &first {
            None => gate(run, &cfg, &report, &rep),
            Some(f) => {
                run.check(f.trace_root == report.trace_root && f.ledger == report.ledger, || {
                    "a repeated fleet run differs from the first".into()
                });
                run.check(f.trace_root == rep.root && f.ledger == rep.ledger, || {
                    "a repeated replica differs from the first fleet run".into()
                });
            }
        }
        if first.is_none() {
            first = Some(report);
        }
        let enough = if run.args.trace || run.args.tiny { 1 } else { 3 };
        if per_unit_ns.len() >= enough && Instant::now() >= deadline {
            break;
        }
    }
    let report = first.expect("at least one fleet run");
    let op = run.timing("run_fleet_with CPU ns per unit", &per_unit_ns, "ns").median;
    let ups = run.timing("run_fleet_with units per wall s", &units_per_s, "1/s").median;
    let rep_ns = run.timing("replica CPU ns per unit", &replica_ns, "ns").median;

    if !run.args.trace {
        run.set("setup_s", setup_s);
        run.set_prescaled("op_ns", op);
        run.set_prescaled("ref_op_ns", rep_ns);
        return;
    }

    // Traced run: the replica again with spans off, then with spans on
    // under the root span; the difference is the tracing overhead.
    let spawns_before = run.tr.agg(Name::Spawn).total_ns;
    run.tr.set_on(true);
    let insts_a = spawn_all(run, &cfg, &irs);
    let insts_b = spawn_all(run, &cfg, &irs);
    run.tr.set_on(false);
    let spawn_ns = (run.tr.agg(Name::Spawn).total_ns - spawns_before) as f64 / 2.0;
    let untraced = replica(run, &cfg, insts_a);
    let traced = crate::traced_segment(run, |run| replica(run, &cfg, insts_b));
    gate(run, &cfg, &report, &traced);
    let wall = run.tr.agg(Name::Root).total_ns as f64;
    run.set("bench.trace_overhead_frac", traced.cpu_ns / untraced.cpu_ns - 1.0);

    run.set_prescaled("devil_fleet.fleet_units_per_s", ups);
    for (i, kind) in WorkloadKind::ALL.iter().enumerate() {
        let (n, ns) = traced.per_kind[i];
        let mean = if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        run.set(&format!("devil_fleet.run_unit_ns.{}", kind.name()), mean);
    }
    let tr = &run.tr;
    let drain_ns = [Name::DrainCheckpoint, Name::DrainTraceSegment, Name::ForestAppend]
        .iter()
        .map(|&n| tr.agg(n).total_ns as f64)
        .sum::<f64>();
    let means = [
        ("hwsim.drain_checkpoint_ns", tr.mean_self_ns(Name::DrainCheckpoint)),
        ("hwsim.drain_trace_ns", tr.mean_self_ns(Name::DrainTraceSegment)),
        ("hwsim.forest_append_ns", tr.mean_self_ns(Name::ForestAppend)),
        ("hwsim.ledger_merge_ns", tr.mean_self_ns(Name::LedgerMerge)),
    ];
    for (name, v) in means {
        run.set(name, v);
    }
    run.set("devil_fleet.checkpoint_share", drain_ns / wall);
    run.set(
        "devil_fleet.empty_drain_frac",
        traced.empty_drains as f64 / traced.drains.max(1) as f64,
    );
    run.set("devil_fleet.spawn_s", spawn_ns / 1e9);
    run.set("hwsim.bus_ops", report.ledger.total_ops() as f64);
    let leaves: u64 = report.forest.roots().map(|(_, n, _)| n).sum();
    run.set("hwsim.trace_leaves", leaves as f64);
    run.set("hwsim.sim_makespan_ns", report.sim_makespan_ns as f64);
    let s = report.stats;
    run.set("devil_runtime.dispatch.straight", s.straight as f64);
    run.set("devil_runtime.dispatch.guarded", s.guarded as f64);
    run.set("devil_runtime.dispatch.fused", s.fused as f64);
    run.set("devil_runtime.dispatch.general", s.general as f64);
}
