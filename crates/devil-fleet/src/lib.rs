//! Fleet-scale sharded simulation of Devil-driven devices.
//!
//! The per-driver crates prove one device at a time; this crate proves
//! the *fleet* story: hundreds to thousands of [`DeviceInstance`]s with
//! mixed specifications running concurrently, sharded across worker
//! threads, with per-shard [`hwsim`] ledgers merged deterministically
//! at checkpoints.
//!
//! # Model
//!
//! Each instance owns a private [`hwsim::Bus`], device model, and Devil
//! driver, and runs a stream of *units* (one driver hot-loop iteration
//! each: a Figure-3 mouse sample, an ICW storm, a PIO sector, …). Unit
//! parameters and open-loop arrival times come from a per-instance
//! SplitMix64 stream seeded with `(fleet seed, instance id)`, so an
//! instance's history is identical no matter how the fleet is sharded.
//!
//! Each shard worker runs a discrete-event loop over its instances:
//! arrivals are exponential in integer simulated nanoseconds and
//! service times come from the instance's own bus clock (the hwsim
//! cost model), so the shard clock orders units and its final value is
//! the simulated makespan. Device models use `Rc` internally and are
//! not `Send`, so workers *build* their shard's instances locally from
//! shared [`Arc`]-backed IRs; only plain-data results cross threads.
//! A panic inside a unit is re-raised naming the fleet seed, shard,
//! instance, workload and unit index.
//!
//! # Determinism gate
//!
//! [`FleetReport::assert_replay_equivalent`] checks that merged
//! N-shard results — fleet ledger totals, per-instance final ledgers
//! and interpreter snapshots, plan-dispatch counters, unit counts —
//! are exactly equal to a single-threaded replay. The simulated
//! makespan is *excluded*: it measures queueing, which legitimately
//! depends on the shard count.

#![forbid(unsafe_code)]

mod rng;
mod workload;

pub use rng::Rng;
pub use workload::{FleetInstance, Mix, SharedIrs, WorkloadKind};

use devil_runtime::{DeviceInstance, InstanceSnapshot, PlanStats};
use hwsim::{Hash, Ledger, MmrForest};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fleet run configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Worker threads; instances are dealt round-robin (`id % shards`).
    pub shards: usize,
    /// Total device instances across all shards.
    pub instances: usize,
    /// Workload units each instance runs.
    pub units_per_instance: u64,
    /// Fleet seed; all per-instance streams derive from it.
    pub seed: u64,
    /// Mean of the exponential interarrival gap per instance.
    pub arrival_mean_ns: u64,
    /// Shard-local units between ledger-checkpoint merges (0 = only
    /// the final merge).
    pub checkpoint_every_units: u64,
    /// The workload blend.
    pub mix: Mix,
}

impl FleetConfig {
    /// A small default fleet of the given mix: single shard, 100
    /// instances, 100 units each.
    pub fn new(mix: Mix) -> Self {
        FleetConfig {
            shards: 1,
            instances: 100,
            units_per_instance: 100,
            seed: 0xf1ee7,
            arrival_mean_ns: 50_000,
            checkpoint_every_units: 64,
            mix,
        }
    }
}

/// The final, shard-independent state of one instance.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceFinal {
    /// Instance id (0-based, fleet-wide).
    pub id: u32,
    /// The workload it ran.
    pub kind: WorkloadKind,
    /// Units it completed.
    pub units: u64,
    /// Its private bus ledger at the end of the run.
    pub ledger: Ledger,
    /// Snapshots of its interpreter instances (two for IDE rigs).
    pub snapshots: Vec<InstanceSnapshot>,
}

/// What one shard worker sends back to the merge step.
struct ShardResult {
    ledger: Ledger,
    forest: MmrForest,
    stats: PlanStats,
    clock_ns: u64,
    units: u64,
    checkpoints: u64,
    finals: Vec<InstanceFinal>,
}

/// The merged result of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Shards the run used.
    pub shards: usize,
    /// Instances the run spawned.
    pub instances: usize,
    /// Total units completed.
    pub units: u64,
    /// Fleet ledger: every shard's checkpoint deltas merged in shard
    /// order.
    pub ledger: Ledger,
    /// Authenticated trace forest: one MMR per instance, fed from the
    /// per-instance bus traces at checkpoint drains. Leaf 0 of an
    /// instance's tree is its bring-up I/O and leaf `k` its unit `k`,
    /// so a tree has `units + 1` leaves. Leaves are sealed per unit and
    /// drains fall between units, so the cadence never moves a leaf
    /// boundary; an instance lives on exactly one shard, so the fleet
    /// merge is a disjoint union — commutative and cadence-independent.
    pub forest: MmrForest,
    /// The forest root: one 32-byte digest authenticating every bus
    /// operation of every instance in the fleet.
    pub trace_root: Hash,
    /// Summed plan-dispatch counters across every interpreter in the
    /// fleet.
    pub stats: PlanStats,
    /// Checkpoint merges performed across all shards.
    pub checkpoints: u64,
    /// Simulated makespan: the latest shard clock, in nanoseconds.
    pub sim_makespan_ns: u64,
    /// Wall-clock duration of the run (spawn + simulate + merge).
    pub wall: Duration,
    /// Final per-instance state, ordered by instance id.
    pub finals: Vec<InstanceFinal>,
}

impl FleetReport {
    /// Asserts that `self` and `other` agree on every shard-count
    /// independent quantity: the determinism gate. Panics with the
    /// first disagreement.
    pub fn assert_replay_equivalent(&self, other: &FleetReport) {
        assert_eq!(self.instances, other.instances, "instance counts differ");
        assert_eq!(self.units, other.units, "total unit counts differ");
        assert_eq!(self.ledger, other.ledger, "merged fleet ledgers differ");
        if self.trace_root != other.trace_root {
            // One 32-byte compare said the fleets diverged somewhere;
            // the per-instance roots name the culprit.
            for ((ida, la, ra), (idb, lb, rb)) in self.forest.roots().zip(other.forest.roots()) {
                assert_eq!(ida, idb, "trace forests cover different instance sets");
                assert!(
                    la == lb && ra == rb,
                    "instance {ida} bus trace diverges between {} and {} shards: \
                     {la} leaves root {ra} vs {lb} leaves root {rb}",
                    self.shards,
                    other.shards
                );
            }
            panic!(
                "fleet trace roots differ ({} vs {}) but every per-instance root agrees",
                self.trace_root, other.trace_root
            );
        }
        assert_eq!(self.stats, other.stats, "plan-dispatch counters differ");
        assert_eq!(self.finals.len(), other.finals.len(), "per-instance result counts differ");
        for (a, b) in self.finals.iter().zip(&other.finals) {
            assert_eq!(a.id, b.id, "instance order diverged");
            assert_eq!(
                a,
                b,
                "instance {} ({}) final state differs between {} and {} shards",
                a.id,
                a.kind.name(),
                self.shards,
                other.shards
            );
        }
    }
}

/// Merges one instance's ledger delta and trace segment since its last
/// drain.
fn drain(inst: &mut FleetInstance, ledger: &mut Ledger, forest: &mut MmrForest) {
    ledger.merge(&inst.drain_checkpoint());
    forest.append_segment(inst.id() as u64, &inst.drain_trace_segment());
}

/// Runs one unit through `run`. A panic inside it is re-raised as one
/// message naming the fleet seed, the shard, the instance and its
/// workload, the unit index (units the instance had completed before
/// it) and the original panic text.
fn run_contained<T>(
    seed: u64,
    shard: usize,
    id: u32,
    kind: WorkloadKind,
    unit: u64,
    run: impl FnOnce() -> T,
) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        panic!(
            "fleet seed {seed:#x}, shard {shard}: instance {id} ({}) panicked in unit {unit}: {text}",
            kind.name()
        )
    })
}

/// Runs one shard: build its instances locally, then drain the
/// discrete-event loop.
fn run_shard(cfg: &FleetConfig, irs: &SharedIrs, shard: usize) -> ShardResult {
    let mut insts: Vec<FleetInstance> = (shard..cfg.instances)
        .step_by(cfg.shards)
        .map(|id| {
            let mut rng = Rng::for_instance(cfg.seed, id as u64);
            let kind = cfg.mix.pick(&mut rng);
            FleetInstance::spawn(id as u32, kind, irs, rng)
        })
        .collect();

    // (arrival_ns, local index); Reverse for a min-heap, index as the
    // deterministic tie-breaker.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(insts.len());
    for (idx, inst) in insts.iter_mut().enumerate() {
        let gap = inst.next_gap_ns(cfg.arrival_mean_ns);
        heap.push(Reverse((gap, idx)));
    }

    let mut ledger = Ledger::default();
    // Streaming trees: the gate only needs roots, so a shard holds
    // O(instances · log ops) hashes no matter how long the run is.
    let mut forest = MmrForest::new(false);
    let mut clock_ns = 0u64;
    let mut units = 0u64;
    let mut checkpoints = 0u64;
    // Instances that ran a unit since the last checkpoint: only they
    // have a ledger delta or trace leaves to drain.
    let mut dirty: Vec<usize> = Vec::new();
    let mut is_dirty = vec![false; insts.len()];

    while let Some(Reverse((arrival, idx))) = heap.pop() {
        let inst = &mut insts[idx];
        let service = run_contained(cfg.seed, shard, inst.id(), inst.kind(), inst.units(), || {
            inst.run_unit()
        });
        if !is_dirty[idx] {
            is_dirty[idx] = true;
            dirty.push(idx);
        }
        let start = clock_ns.max(arrival);
        clock_ns = start + service;
        units += 1;
        if inst.units() < cfg.units_per_instance {
            let gap = inst.next_gap_ns(cfg.arrival_mean_ns);
            heap.push(Reverse((arrival + gap, idx)));
        }
        if cfg.checkpoint_every_units > 0 && units.is_multiple_of(cfg.checkpoint_every_units) {
            for idx in dirty.drain(..) {
                is_dirty[idx] = false;
                drain(&mut insts[idx], &mut ledger, &mut forest);
            }
            checkpoints += 1;
        }
    }
    // Final checkpoint: every instance, so each gets a tree.
    for inst in &mut insts {
        drain(inst, &mut ledger, &mut forest);
    }
    checkpoints += 1;

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

    ShardResult { ledger, forest, stats, clock_ns, units, checkpoints, finals }
}

/// Runs a fleet against already-compiled shared IRs.
pub fn run_fleet_with(cfg: &FleetConfig, irs: &SharedIrs) -> FleetReport {
    assert!(cfg.shards >= 1, "a fleet needs at least one shard");
    assert!(cfg.instances >= 1, "a fleet needs at least one instance");

    let start = Instant::now();
    let results: Vec<ShardResult> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..cfg.shards).map(|shard| s.spawn(move || run_shard(cfg, irs, shard))).collect();
        // A worker's panic already names its unit; pass it on unchanged.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let wall = start.elapsed();

    // Merge in shard order — deterministic, and `Ledger::merge` is
    // commutative besides (the property test in hwsim proves it).
    let mut ledger = Ledger::default();
    let mut forest = MmrForest::new(false);
    let mut stats = PlanStats::default();
    let mut units = 0u64;
    let mut checkpoints = 0u64;
    let mut sim_makespan_ns = 0u64;
    let mut finals: Vec<InstanceFinal> = Vec::with_capacity(cfg.instances);
    for r in results {
        ledger.merge(&r.ledger);
        forest.merge(r.forest);
        stats = stats + r.stats;
        units += r.units;
        checkpoints += r.checkpoints;
        sim_makespan_ns = sim_makespan_ns.max(r.clock_ns);
        finals.extend(r.finals);
    }
    finals.sort_by_key(|f| f.id);

    let trace_root = forest.root();
    FleetReport {
        shards: cfg.shards,
        instances: cfg.instances,
        units,
        ledger,
        forest,
        trace_root,
        stats,
        checkpoints,
        sim_makespan_ns,
        wall,
        finals,
    }
}

// The fleet hands instances to worker threads by construction recipe
// rather than by value (hwsim devices are intentionally `!Send`), but
// the interpreter state that crosses threads must stay `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Arc<devil_ir::DeviceIr>>();
    assert_send_sync::<DeviceInstance>();
    assert_send_sync::<InstanceSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::{run_contained, WorkloadKind};

    #[test]
    fn a_unit_panic_names_seed_shard_instance_workload_and_unit() {
        assert_eq!(run_contained(1, 0, 0, WorkloadKind::Figure3, 0, || 7), 7);
        let err = std::panic::catch_unwind(|| {
            run_contained(0xf1ee7, 3, 42, WorkloadKind::IcwStorm, 17, || -> u64 {
                panic!("device model fault at port {:#x}", 0x21)
            })
        })
        .expect_err("a panicking unit must panic");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        for want in [
            "fleet seed 0xf1ee7",
            "shard 3",
            "instance 42",
            "(icw_storm)",
            "unit 17",
            "device model fault at port 0x21",
        ] {
            assert!(msg.contains(want), "{want:?} missing from {msg:?}");
        }
    }
}
