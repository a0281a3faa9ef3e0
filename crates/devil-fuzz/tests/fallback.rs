//! The formerly-fallback guard-split shapes, each pinned by a
//! synthetic spec: a conditional order testing the variable being
//! written, a memory-cell tested variable, and a nested conditional
//! order reached through an action. Each used to drop silently to the
//! general interpreter; all three now compile to straight/guarded
//! plans. For each, the access must dispatch **on a plan**
//! (`PlanStats.general == 0`), reproduce the same hand-computed
//! bus-log oracle the fallback tests pinned, and stay differentially
//! identical between the fast and general modes.

use devil_fuzz::{check_equivalence, synthetic, Op};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess};

fn ir(src: &str) -> DeviceIr {
    devil_ir::lower(&devil_sema::check_source(src, &[]).expect("spec checks"))
}

/// Cause 1 (retired): the serialization condition tests the variable
/// being written. The general path stores the new bits into the cache
/// before evaluating conditions; the plan mirrors that with an
/// input-sourced guard, and the skipped-flush variant still stores the
/// bits cache-only.
#[test]
fn self_written_tested_variable_compiles_input_guards() {
    let ir = ir(synthetic::SELF_TESTED);
    let w = ir.var_id("w").unwrap();
    let wp = ir.var(w).write_plan.as_ref().expect("self-tested write must plan-compile");
    assert_eq!(wp.variants.len(), 2, "one variant per written value");
    assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    inst.write_id(&mut dev, w, &[], 1).unwrap();
    inst.write_id(&mut dev, w, &[], 0).unwrap();
    inst.write_id(&mut dev, w, &[], 1).unwrap();
    // Hand-computed oracle (unchanged from the fallback pin): the
    // condition sees the *newly written* value. w=1 flushes `a` with
    // bit 0 set; w=0 flushes nothing at all.
    assert_eq!(
        dev.log,
        vec![(true, 0, 0, 1), (true, 0, 0, 1)],
        "the guard must evaluate against the written value"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "no general-interpreter dispatch: {stats:?}");
    assert_eq!(stats.guarded, 3, "every write takes a guard-selected variant: {stats:?}");

    // The w=0 variant's cache-only store must still land: writing
    // `rest` afterwards composes with w's stored 0.
    let rest = ir.var_id("rest").unwrap();
    inst.write_id(&mut dev, w, &[], 0).unwrap();
    inst.write_id(&mut dev, rest, &[], 0x5a).unwrap();
    assert_eq!(dev.log.last(), Some(&(true, 0, 0, 0x5au64 << 1)), "stored w bit composed");

    let ops = vec![
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
    ];
    check_equivalence(&ir, &ops).unwrap();
}

/// Cause 2 (retired): the serialization condition tests a memory-cell
/// variable. The plan guards on the cell directly; out-of-range cell
/// values (cells store unmasked) abort selection and fall back to the
/// general path, observably identically.
#[test]
fn mem_cell_tested_variable_compiles_cell_guards() {
    let ir = ir(synthetic::MEM_TESTED);
    let w = ir.var_id("w").unwrap();
    let wp = ir.var(w).write_plan.as_ref().expect("mem-tested write must plan-compile");
    assert_eq!(wp.variants.len(), 2, "one variant per cell value");
    assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());

    let m = ir.var_id("m").unwrap();
    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    inst.write_id(&mut dev, m, &[], 1).unwrap();
    inst.write_id(&mut dev, w, &[], 0b11).unwrap();
    inst.write_id(&mut dev, m, &[], 0).unwrap();
    inst.write_id(&mut dev, w, &[], 0b10).unwrap();
    // Hand-computed oracle (unchanged from the fallback pin): w's low
    // bit lands in `a`, its high bit in `c`. With m=1 both registers
    // flush; with m=0 only `a` does (the high bit stays staged in c's
    // cache).
    assert_eq!(
        dev.log,
        vec![(true, 0, 0, 1), (true, 0, 1, 1), (true, 0, 0, 0)],
        "the memory cell must gate the conditional flush"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "mem writes and guarded flushes all dispatch on plans: {stats:?}");
    assert_eq!(stats.guarded, 2, "both w writes take cell-guarded variants: {stats:?}");
    assert_eq!(stats.straight, 2, "mem-cell writes dispatch on their trivial plans: {stats:?}");

    // An out-of-range cell value (cells store unmasked) must fall back
    // to the general interpreter — and behave identically to it.
    inst.write_id(&mut dev, m, &[], 7).unwrap();
    inst.write_id(&mut dev, w, &[], 0b11).unwrap();
    assert_eq!(dev.log.last(), Some(&(true, 0, 0, 1)), "7 != true: only `a` flushes");
    assert!(inst.plan_stats().general > 0, "out-of-range cell falls back loudly in the stats");

    let ops = vec![
        Op::WriteVar { vid: m, args: vec![], value: 1 },
        Op::WriteVar { vid: w, args: vec![], value: 0b01 },
        Op::WriteVar { vid: ir.var_id("restc").unwrap(), args: vec![], value: 0x3c },
        Op::WriteVar { vid: m, args: vec![], value: 0 },
        Op::WriteVar { vid: w, args: vec![], value: 0b10 },
        // Out-of-range cell values must stay equivalent too.
        Op::WriteVar { vid: m, args: vec![], value: 0x5a5a },
        Op::WriteVar { vid: w, args: vec![], value: 0b11 },
    ];
    check_equivalence(&ir, &ops).unwrap();
}

/// Cause 3 (retired): a nested conditional order reached through an
/// action. The action assigns the tested field a constant, so the
/// condition folds at compile time and the whole access is one
/// straight-line plan.
#[test]
fn nested_conditional_through_action_compiles_straight() {
    let ir = ir(synthetic::NESTED_ACTION);
    let payload = ir.var_id("payload").unwrap();
    let rp = ir.var(payload).read_plan.as_ref().expect("nested conditional must plan-compile");
    assert_eq!(rp.variants.len(), 1, "assigned constant folds the condition");
    assert!(rp.variants[0].guards.is_empty());
    assert!(ir.plan_fallbacks().is_empty(), "{:?}", ir.plan_fallbacks());
    // The struct's own top-level flush still guard-splits.
    assert!(ir.strct(ir.struct_id("s").unwrap()).write_plan.is_some());

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    dev.preset(0, 2, 0x99);
    assert_eq!(inst.read_id(&mut dev, payload, &[]).unwrap(), 0x99);
    // Hand-computed oracle (unchanged from the fallback pin): the
    // pre-action stores sel=1, rest=1, v=2, then flushes with the
    // condition true — a (0b11) and c (2) — before the data read.
    assert_eq!(
        dev.log,
        vec![(true, 0, 0, 0b11), (true, 0, 1, 2), (false, 0, 2, 0x99)],
        "the nested conditional flush must run mid-access"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "the read dispatches on its plan: {stats:?}");
    assert_eq!(stats.straight, 1, "one straight-line dispatch: {stats:?}");

    let ops = vec![
        Op::ReadVar { vid: payload, args: vec![] },
        Op::Preset { port: 0, offset: 2, value: 0x42 },
        Op::ReadVar { vid: payload, args: vec![] },
    ];
    check_equivalence(&ir, &ops).unwrap();
}

/// Family-instance aliasing: a tested variable on one instance of a
/// family register must not be confused with a write to another
/// instance (same register id, different slot) — the guard stays
/// cache-sourced; and a variable spanning two instances keeps the
/// general path (orders name registers, not instances). Both shapes
/// must stay observationally identical to the general interpreter.
#[test]
fn family_instance_shapes_stay_equivalent() {
    let distinct = ir(r#"device d (base : bit[8] port @ {0..1}) {
        register f(i : int{0..1}) = write base @ i : bit[8];
        variable t = f(0)[0] : bool;
        variable rest0 = f(0)[7..1] : int(7);
        variable w = f(1)[0] : bool serialized as { if (t == true) f; };
        variable rest1 = f(1)[7..1] : int(7);
    }"#);
    let w = distinct.var_id("w").unwrap();
    let t = distinct.var_id("t").unwrap();
    assert!(distinct.var(w).write_plan.is_some(), "distinct instances must compile");
    let ops = vec![
        // t uncached (reads as 0): w=1 must not flush.
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: t, args: vec![], value: 1 },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: distinct.var_id("rest1").unwrap(), args: vec![], value: 0x3c },
        Op::WriteVar { vid: t, args: vec![], value: 0 },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
    ];
    check_equivalence(&distinct, &ops).unwrap();

    let spanning = ir(r#"device d (base : bit[8] port @ {0..1}) {
        register f(i : int{0..1}) = write base @ i : bit[8];
        variable t = f(0)[1] : bool;
        variable rest0 = f(0)[7..2] : int(6);
        variable w = f(1)[0] # f(0)[0] : int(2) serialized as { if (t == true) f; };
        variable rest1 = f(1)[7..1] : int(7);
    }"#);
    let w = spanning.var_id("w").unwrap();
    assert!(spanning.var(w).write_plan.is_none(), "multi-instance variable must fall back");
    let ops = vec![
        Op::WriteVar { vid: w, args: vec![], value: 0b01 },
        Op::WriteVar { vid: spanning.var_id("rest0").unwrap(), args: vec![], value: 1 },
        Op::WriteVar { vid: spanning.var_id("rest1").unwrap(), args: vec![], value: 2 },
        Op::WriteVar { vid: spanning.var_id("t").unwrap(), args: vec![], value: 1 },
        Op::WriteVar { vid: w, args: vec![], value: 0b10 },
    ];
    check_equivalence(&spanning, &ops).unwrap();
}

/// Cause 3, entry-state flavour: the action leaves the tested field
/// unassigned, so its cached value joins the outer guard enumeration
/// and the read guard-splits on it.
#[test]
fn nested_conditional_on_entry_state_guard_splits() {
    let ir = ir(synthetic::NESTED_ENTRY);
    let payload = ir.var_id("payload").unwrap();
    let rp = ir.var(payload).read_plan.as_ref().expect("entry-tested condition must inline");
    assert_eq!(rp.variants.len(), 2, "one variant per cached sel value");

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();
    dev.preset(0, 2, 0x99);
    // Cold cache: sel reads as 0 — `c` skipped, but the assigned v=2
    // still stores cache-only; a flushes rest=1.
    assert_eq!(inst.read_id(&mut dev, payload, &[]).unwrap(), 0x99);
    assert_eq!(dev.log, vec![(true, 0, 0, 0b10), (false, 0, 2, 0x99)]);
    // Set sel=1; the next read takes the other variant and flushes c.
    let sel = ir.var_id("sel").unwrap();
    inst.write_id(&mut dev, sel, &[], 1).unwrap();
    assert_eq!(inst.read_id(&mut dev, payload, &[]).unwrap(), 0x99);
    assert_eq!(
        dev.log[2..],
        [(true, 0, 0, 0b11), (true, 0, 0, 0b11), (true, 0, 1, 2), (false, 0, 2, 0x99)],
        "sel=1 write, then the guarded variant flushing a and c"
    );
    let stats = inst.plan_stats();
    assert_eq!(stats.general, 0, "{stats:?}");
    assert_eq!(stats.guarded, 2, "both payload reads take guard-selected variants: {stats:?}");

    let ops = vec![
        Op::ReadVar { vid: payload, args: vec![] },
        Op::WriteVar { vid: sel, args: vec![], value: 1 },
        Op::ReadVar { vid: payload, args: vec![] },
        Op::Preset { port: 0, offset: 2, value: 0x42 },
        Op::ReadVar { vid: payload, args: vec![] },
    ];
    check_equivalence(&ir, &ops).unwrap();
}

/// Fused superplans inherit cause 2's one remaining dynamic fallback:
/// a fused sequence crossing a cell-guarded access must abandon fusion
/// when the cell holds an out-of-range value (cells store unmasked),
/// re-dispatching op by op — observably identically to never having
/// fused, with the miss visible in the stats.
#[test]
fn fused_superplan_cell_miss_falls_back_observably_identically() {
    use devil_fuzz::rooted::compare;
    use devil_fuzz::superfuzz::{install_synthetic, SuperCall};
    use devil_fuzz::Rig;

    let mut ir = ir(synthetic::MEM_TESTED);
    install_synthetic("memw", &mut ir);
    let sid = ir.superplan_id("burst").expect("fixture superplan installed");
    let m = ir.var_id("m").unwrap();

    let mut inst = DeviceInstance::new(ir.clone());
    let mut dev = FakeAccess::new();

    // In-range cell: one fused dispatch, no general interpreter.
    inst.write_id(&mut dev, m, &[], 1).unwrap();
    inst.run_superplan(&mut dev, sid, &[0x2a, 0b11], &[], &mut [], &mut []).unwrap();
    let st = inst.plan_stats();
    assert_eq!(st.fused, 1, "in-range cell dispatches fused: {st:?}");
    assert_eq!(inst.superplan_hits()[sid], 1);
    assert_eq!(st.general, 0, "{st:?}");
    // Hand oracle: resta=0x2a flushes `a` with w's low bit uncached
    // (0x54); w=0b11 flushes `a` (0x55) and, with m=1, `c` (1).
    assert_eq!(dev.log, vec![(true, 0, 0, 0x54), (true, 0, 0, 0x55), (true, 0, 1, 1)]);

    // Out-of-range cell: fused selection misses, the sequence falls
    // back, and the cell-guarded write drops to the general path.
    inst.write_id(&mut dev, m, &[], 7).unwrap();
    let mark = dev.log.len();
    inst.run_superplan(&mut dev, sid, &[0x2a, 0b11], &[], &mut [], &mut []).unwrap();
    let st = inst.plan_stats();
    assert_eq!(st.fused, 1, "no second fused dispatch: {st:?}");
    assert_eq!(inst.superplan_hits()[sid], 1, "hit counts exclude fallbacks");
    assert!(st.general > 0, "cell miss falls back loudly in the stats: {st:?}");
    assert_eq!(
        &dev.log[mark..],
        &[(true, 0, 0, 0x55), (true, 0, 0, 0x55)],
        "7 != true: both writes flush only `a`"
    );

    // And the whole shape — fused attempt, miss, fallback — must stay
    // differentially identical to the always-unfused reference.
    let call = |args: Vec<u64>| {
        Op::Super(Box::new(SuperCall { sid, args, block_out: vec![], block_in_len: 0 }))
    };
    let ops = [
        Op::WriteVar { vid: m, args: vec![], value: 1 },
        call(vec![0x2a, 0b11]),
        Op::WriteVar { vid: m, args: vec![], value: 0x5a5a },
        call(vec![0x15, 0b01]),
    ];
    compare(&ir, Rig::Fast, Rig::Unfused, || ops.iter().cloned()).unwrap();
}
