//! The fleet determinism gate.
//!
//! A sharded fleet must be a pure reorganization of work: merged
//! ledger totals, per-instance final ledgers and interpreter
//! snapshots, plan-dispatch counters, and unit counts are exactly
//! equal to a single-threaded replay, for any shard count. The
//! simulated makespan is excluded — it measures queueing, which
//! depends on sharding by design.

use devil_fleet::{run_fleet_with, FleetConfig, Mix, SharedIrs, WorkloadKind};
use hwsim::mmr::leaf_hash;
use hwsim::Mmr;
use std::collections::HashSet;

fn cfg(mix: Mix, shards: usize, instances: usize) -> FleetConfig {
    let mut c = FleetConfig::new(mix);
    c.shards = shards;
    c.instances = instances;
    c.units_per_instance = 12;
    c
}

#[test]
fn sharded_fleet_replays_single_threaded_exactly() {
    let irs = SharedIrs::compile();
    let single = run_fleet_with(&cfg(Mix::all_specs(), 1, 32), &irs);
    for shards in [2, 4, 7] {
        let sharded = run_fleet_with(&cfg(Mix::all_specs(), shards, 32), &irs);
        sharded.assert_replay_equivalent(&single);
    }
}

#[test]
fn every_mix_is_shard_count_independent() {
    let irs = SharedIrs::compile();
    for mix in [Mix::interactive(), Mix::storage(), Mix::comms()] {
        let single = run_fleet_with(&cfg(mix, 1, 24), &irs);
        let sharded = run_fleet_with(&cfg(mix, 3, 24), &irs);
        sharded.assert_replay_equivalent(&single);
    }
}

#[test]
fn same_config_is_bit_identical() {
    let irs = SharedIrs::compile();
    let a = run_fleet_with(&cfg(Mix::all_specs(), 2, 24), &irs);
    let b = run_fleet_with(&cfg(Mix::all_specs(), 2, 24), &irs);
    a.assert_replay_equivalent(&b);
    // Same shard count: even the queueing-dependent numbers replay.
    assert_eq!(a.sim_makespan_ns, b.sim_makespan_ns);
}

#[test]
fn fleet_wide_general_interpreter_count_is_zero() {
    let irs = SharedIrs::compile();
    let r = run_fleet_with(&cfg(Mix::all_specs(), 2, 64), &irs);
    // The coverage mix must actually exercise all eight specs.
    let kinds: HashSet<WorkloadKind> = r.finals.iter().map(|f| f.kind).collect();
    assert_eq!(kinds.len(), WorkloadKind::ALL.len(), "all workload kinds spawned: {kinds:?}");
    assert!(r.stats.straight > 0, "fleet must dispatch on straight-line plans");
    assert!(r.stats.guarded > 0, "fleet must dispatch on guard-split variants");
    assert!(r.stats.fused > 0, "fleet must dispatch on fused superplans");
    assert_eq!(r.stats.general, 0, "no general-interpreter fallback anywhere: {:?}", r.stats);
    assert_eq!(r.units, 64 * 12);
    assert!(r.ledger.io_ops() > 0, "merged ledger saw the fleet's I/O");
}

#[test]
fn sharding_scales_simulated_throughput() {
    let irs = SharedIrs::compile();
    let one = run_fleet_with(&cfg(Mix::all_specs(), 1, 32), &irs);
    let four = run_fleet_with(&cfg(Mix::all_specs(), 4, 32), &irs);
    // Equal unit counts, so half the makespan is twice the simulated
    // throughput.
    assert_eq!(four.units, one.units);
    assert!(
        2 * four.sim_makespan_ns < one.sim_makespan_ns,
        "4 shards must beat 1 shard well past 2×: makespan {} vs {} ns",
        four.sim_makespan_ns,
        one.sim_makespan_ns
    );
}

/// The authenticated half of the gate: every instance grows a trace
/// tree with one leaf for bring-up and one per unit, the forest root is
/// one 32-byte digest over the whole fleet's bus history, and it is
/// identical for any shard count — the checkpoint drains that feed it
/// are a pure reorganization too.
#[test]
fn trace_forest_covers_every_instance_shard_independently() {
    let irs = SharedIrs::compile();
    let single = run_fleet_with(&cfg(Mix::all_specs(), 1, 32), &irs);
    assert_eq!(single.forest.len(), 32, "one trace tree per instance");
    for ((id, leaves, _), fin) in single.forest.roots().zip(&single.finals) {
        assert_eq!(id, u64::from(fin.id));
        assert_eq!(leaves, fin.units + 1, "instance {id}: bring-up leaf plus one per unit");
    }
    let sharded = run_fleet_with(&cfg(Mix::all_specs(), 4, 32), &irs);
    assert_eq!(single.trace_root, sharded.trace_root, "forest roots must be shard-independent");
}

/// Sensitivity: skew one instance's trace tree and the gate must fail
/// naming exactly that instance, not just "roots differ".
#[test]
fn gate_names_the_instance_whose_trace_diverges() {
    let irs = SharedIrs::compile();
    let clean = run_fleet_with(&cfg(Mix::all_specs(), 2, 8), &irs);
    let mut skewed = clean.clone();
    let mut extra = Mmr::retained();
    extra.push_leaf(leaf_hash(b"phantom bus op"));
    skewed.forest.append_segment(3, &extra);
    skewed.trace_root = skewed.forest.root();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        clean.assert_replay_equivalent(&skewed);
    }))
    .expect_err("skewed trace must fail the gate");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(std::string::ToString::to_string))
        .unwrap_or_default();
    assert!(msg.contains("instance 3 bus trace diverges"), "gate must name instance 3: {msg}");
}

#[test]
fn checkpoint_cadence_does_not_change_totals() {
    let irs = SharedIrs::compile();
    let mut every_unit = cfg(Mix::storage(), 2, 16);
    every_unit.checkpoint_every_units = 1;
    let mut only_final = cfg(Mix::storage(), 2, 16);
    only_final.checkpoint_every_units = 0;
    let a = run_fleet_with(&every_unit, &irs);
    let b = run_fleet_with(&only_final, &irs);
    a.assert_replay_equivalent(&b);
    assert!(a.checkpoints > b.checkpoints);
}
