//! Differential fuzzing of the runtime's fast-plan path against the
//! general interpreter, across the whole embedded specification
//! library.
//!
//! Each case draws a raw word stream, decodes it into a per-device op
//! sequence (reads, writes, structure round trips, block transfers,
//! device-side presets, deliberate out-of-domain arguments) and
//! replays it through both interpreter modes, asserting identical bus
//! traffic, results, errors and final state. A failing case prints a
//! `PROPTEST_SEED` that replays it exactly; CI's scheduled job raises
//! the case count via `PROPTEST_CASES`.

use devil_fuzz::rooted::{
    check_equivalence_rooted_stream, compare, diff_ops, replay_log, OpStream,
};
use devil_fuzz::superfuzz::{decode_super, install_synthetic};
use devil_fuzz::{check_equivalence, decode, init_sweep_ops, sweep_ops, Op, Rig};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess};
use hwsim::mmr::{bisect_divergence, linear_divergence};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The 8-spec library plus the synthetic formerly-fallback specs
/// (self-written tested, mem-cell tested, action-nested conditionals),
/// lowered once. Every differential check below runs over all of them.
fn irs() -> &'static Vec<(&'static str, DeviceIr)> {
    static IRS: OnceLock<Vec<(&'static str, DeviceIr)>> = OnceLock::new();
    IRS.get_or_init(|| {
        drivers::specs::ALL
            .iter()
            .chain(devil_fuzz::synthetic::ALL)
            .map(|(name, src)| {
                let model = devil_sema::check_source(src, &[]).expect("embedded spec checks");
                (*name, devil_ir::lower(&model))
            })
            .collect()
    })
}

/// The superplan-bearing specs: the shipped devices with their driver
/// superplans, and the synthetic shapes with their fixture superplans.
fn fused_irs() -> &'static Vec<(&'static str, DeviceIr)> {
    static IRS: OnceLock<Vec<(&'static str, DeviceIr)>> = OnceLock::new();
    IRS.get_or_init(|| {
        let mut fused = irs().clone();
        for (name, ir) in &mut fused {
            if devil_fuzz::synthetic::ALL.iter().any(|(n, _)| n == name) {
                install_synthetic(name, ir);
            } else {
                drivers::superplans::install(ir);
            }
        }
        fused.retain(|(_, ir)| !ir.superplans().is_empty());
        fused
    })
}

/// Every in-process rig, indexed by the bisection proptest's rig pair.
const RIGS: [Rig; 3] = [Rig::Fast, Rig::General, Rig::Unfused];

/// The deterministic coverage sweep: every variable, structure and
/// block transfer of every device, against both interpreter modes.
#[test]
fn coverage_sweep_agrees_on_all_devices() {
    for (name, ir) in irs() {
        let ops = sweep_ops(ir);
        // Shipped specs sweep wide; the synthetic fallback shapes are
        // deliberately tiny but must still produce real work.
        let synthetic = devil_fuzz::synthetic::ALL.iter().any(|(n, _)| n == name);
        let floor = if synthetic { 0 } else { 4 };
        assert!(ops.len() > floor, "{name}: sweep generated {} ops", ops.len());
        if let Err(e) = check_equivalence(ir, &ops) {
            panic!("{name}: fast and general paths diverge on the sweep\n{e}");
        }
    }
}

/// Steady-state plans really are hot on the spec library: every device
/// compiles at least one access plan, and the Figure 3 devices compile
/// their struct/family plans specifically. With guard-splitting, the
/// 8259A's conditional init automaton — the last structural reason any
/// shipped spec ran on the general interpreter — compiles too.
#[test]
fn spec_library_compiles_the_expected_plans() {
    for (name, ir) in irs() {
        let planned =
            ir.vars.iter().filter(|v| v.read_plan.is_some() || v.write_plan.is_some()).count();
        assert!(planned > 0, "{name}: no variable compiled a plan");
    }
    let busmouse = &irs().iter().find(|(n, _)| *n == "busmouse").unwrap().1;
    let st = busmouse.strct(busmouse.struct_id("mouse_state").unwrap());
    assert!(st.read_plan.is_some(), "busmouse mouse_state must plan-compile (Figure 3)");
    let cs = &irs().iter().find(|(n, _)| *n == "cs4236b").unwrap().1;
    let id = cs.var(cs.var_id("ID").unwrap());
    assert!(id.read_plan.is_some(), "cs4236b indexed registers must plan-compile");
    assert!(id.write_plan.is_some());
    let xd = cs.var(cs.var_id("XD").unwrap());
    assert!(xd.read_plan.is_some(), "cs4236b extended registers must plan-compile");
    let pic = &irs().iter().find(|(n, _)| *n == "pic8259").unwrap().1;
    let init = pic.strct(pic.struct_id("init").unwrap());
    let wp = init.write_plan.as_ref().expect("pic8259 init must guard-split");
    assert_eq!(wp.variants.len(), 4, "sngl × ic4 cross product");
    assert!(wp.variants.iter().all(|v| !v.guards.is_empty()));
}

/// The init-sequence sweep: every structure flushed across its whole
/// guard domain, equivalent in both interpreter modes on every device.
#[test]
fn init_sequence_sweep_agrees_on_all_devices() {
    for (name, ir) in irs() {
        let ops = init_sweep_ops(ir);
        if let Err(e) = check_equivalence(ir, &ops) {
            panic!("{name}: init sweep diverges\n{e}");
        }
    }
}

/// Conditional struct writes must actually execute guard-selected plan
/// variants in fast mode — not fall back to the general interpreter.
#[test]
fn conditional_writes_take_guarded_variants_in_fast_mode() {
    let pic = &irs().iter().find(|(n, _)| *n == "pic8259").unwrap().1;
    let sid = pic.struct_id("init").unwrap();
    let mut inst = DeviceInstance::new(pic.clone());
    let mut dev = FakeAccess::new();
    // Drive all four guard combinations: sngl ∈ {0,1} × ic4 ∈ {0,1}.
    for combo in 0..4u64 {
        let values: Vec<_> = pic
            .strct(sid)
            .fields
            .iter()
            .enumerate()
            .map(|(k, &fid)| (fid, (combo >> (k % 2)) & 1))
            .collect();
        let ops = [Op::WriteStruct { sid, values }];
        devil_fuzz::run(Rig::Fast, &mut inst, &mut dev, &ops);
    }
    let stats = inst.plan_stats();
    assert_eq!(stats.guarded, 4, "every conditional flush takes a guarded variant: {stats:?}");
    assert_eq!(stats.general, 0, "no general fallback in fast mode: {stats:?}");
}

/// Lowering records a loud fallback for every access that keeps the
/// general interpreter; the shipped library and the synthetic shapes
/// record none — the whole expressible surface is plan-backed.
#[test]
fn no_spec_records_a_plan_fallback() {
    for (name, ir) in irs() {
        assert!(
            ir.plan_fallbacks().is_empty(),
            "{name}: accesses fell back to the general interpreter: {:?}",
            ir.plan_fallbacks()
        );
    }
}

/// The formerly-fallback shapes dispatch entirely on plans: no access
/// in an in-range workload touches the general interpreter, and the
/// lowerer records zero fallbacks for any synthetic spec.
#[test]
fn formerly_fallback_specs_dispatch_on_plans() {
    for (name, src) in devil_fuzz::synthetic::ALL {
        let model = devil_sema::check_source(src, &[]).expect("synthetic spec checks");
        let ir = devil_ir::lower(&model);
        assert!(
            ir.plan_fallbacks().is_empty(),
            "{name}: unexpected fallbacks {:?}",
            ir.plan_fallbacks()
        );
        // An in-range workload: every plain variable written (masked to
        // its width) and read, every structure flushed across 0/1 field
        // values — the fallback shapes' whole concrete surface.
        let mut ops: Vec<Op> = Vec::new();
        for round in 0..4u64 {
            for vi in 0..ir.vars.len() as u32 {
                let vid = devil_sema::model::VarId(vi);
                let var = ir.var(vid);
                if !var.params.is_empty() {
                    continue;
                }
                if var.writable {
                    let mask = if var.width >= 64 { u64::MAX } else { (1 << var.width) - 1 };
                    ops.push(Op::WriteVar { vid, args: vec![], value: (round + vi as u64) & mask });
                }
                if var.readable {
                    ops.push(Op::ReadVar { vid, args: vec![] });
                }
            }
            for si in 0..ir.structs.len() as u32 {
                let sid = devil_sema::model::StructId(si);
                let values: Vec<_> = ir
                    .strct(sid)
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(k, &fid)| (fid, (round >> (k % 2)) & 1))
                    .collect();
                ops.push(Op::WriteStruct { sid, values });
            }
        }
        let mut inst = DeviceInstance::new(ir.clone());
        let mut dev = FakeAccess::new();
        devil_fuzz::run(Rig::Fast, &mut inst, &mut dev, &ops);
        let stats = inst.plan_stats();
        assert_eq!(stats.general, 0, "{name}: general dispatches in fast mode: {stats:?}");
        assert!(stats.straight + stats.guarded > 0, "{name}: workload hit no plans: {stats:?}");
        check_equivalence(&ir, &ops).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The rooted comparator agrees with the linear one on the coverage
/// sweep of every device — and both replays of the same ops produce
/// the same 32-byte root, whether fed a slice or a generated stream.
#[test]
fn rooted_sweep_agrees_on_all_devices() {
    for (name, ir) in irs() {
        let ops = sweep_ops(ir);
        let out = compare(ir, Rig::Fast, Rig::General, || ops.iter().cloned())
            .unwrap_or_else(|e| panic!("{name}: rooted sweep diverges\n{e}"));
        assert_eq!(out.ops, ops.len() as u64, "{name}");
    }
}

/// The long-replay gate, previously impossible: the linear comparator
/// retained every observation string from both rigs, capping replay
/// length; the rooted comparator streams in O(peaks) memory, so the
/// horizon is a knob. Default 20k ops per spec on PR runs; the nightly
/// `diff-longrun` job sets `DIFF_OPS=1000000` (mirroring
/// `PROPTEST_CASES`) to push a million ops per spec.
#[test]
fn diff_longrun_root_compare() {
    let n = diff_ops(20_000);
    for (name, ir) in irs() {
        let out = check_equivalence_rooted_stream(ir, 0xD1FF, n)
            .unwrap_or_else(|e| panic!("{name}: {n}-op rooted replay diverges\n{e}"));
        assert_eq!(out.ops, n, "{name}");
        assert!(
            out.retained_bytes < 512 * 1024,
            "{name}: streaming replay must stay in O(peaks) memory, retained {}",
            out.retained_bytes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences over every embedded device: the fast-plan
    /// and general interpreters must be observationally identical.
    #[test]
    fn fast_plan_and_general_interpreter_agree(words in collection::vec(any::<u64>(), 1..48)) {
        for (name, ir) in irs() {
            let ops = decode(ir, &words);
            let r = check_equivalence(ir, &ops);
            prop_assert!(r.is_ok(), "{}: {}", name, r.err().unwrap_or_default());
        }
    }

    /// Rooted and linear comparators agree on random streams, and the
    /// roots of the two interpreter modes match each other.
    #[test]
    fn rooted_comparator_agrees_on_random_streams(words in collection::vec(any::<u64>(), 1..48)) {
        for (name, ir) in irs() {
            let ops = decode(ir, &words);
            let r = compare(ir, Rig::Fast, Rig::General, || ops.iter().cloned());
            prop_assert!(r.is_ok(), "{}: {}", name, r.err().unwrap_or_default());
        }
    }

    /// Sensitivity at the harness level: corrupt exactly one op's leaf
    /// in a replay and bisection must name that op — the same index a
    /// linear leaf scan finds — within the O(log N) compare budget. The
    /// clean and the corrupted replay run on any pair of rigs (`pair`),
    /// over a plain op stream or, with `fused`, a superplan stream
    /// decoded from `super_words` on a superplan-bearing spec.
    #[test]
    fn bisection_names_injected_divergences(
        seed in any::<u64>(),
        n in 16u64..600,
        pick in any::<u64>(),
        pair in 0usize..9,
        fused in any::<bool>(),
        super_words in collection::vec(any::<u64>(), 16..600),
    ) {
        let (a, b) = (RIGS[pair / 3], RIGS[pair % 3]);
        let specs = if fused { fused_irs() } else { irs() };
        let (name, ir) = &specs[(seed % specs.len() as u64) as usize];
        let ops: Vec<Op> = if fused {
            decode_super(ir, &super_words)
        } else {
            OpStream::new(ir, seed, n).collect()
        };
        let k = pick % ops.len() as u64;
        let mut clean = replay_log(ir, a, ops.iter().cloned(), true, None);
        let mut mutated = replay_log(ir, b, ops.iter().cloned(), true, Some(k));
        let d = bisect_divergence(clean.mmr(), mutated.mmr());
        prop_assert!(d.is_some(), "{}: corrupted replay must diverge", name);
        let d = d.unwrap();
        prop_assert_eq!(d.leaf, k, "{} {:?}/{:?}: bisection names the corrupted op", name, a, b);
        prop_assert_eq!(linear_divergence(clean.mmr(), mutated.mmr()), Some(k));
        let leaves = clean.len().max(mutated.len());
        let bound = 2 * (64 - leaves.leading_zeros() as u64) + 2;
        prop_assert!(d.compares <= bound, "{}: {} compares > {}", name, d.compares, bound);
    }
}
