//! The compiled-C differential oracle, over the whole embedded spec
//! library: emit the C stubs, compile them with `cc` together with a
//! generated bus-shim harness, replay fuzz op-streams through the
//! compiled binary and the fast-path interpreter, and assert identical
//! bus logs, read results and final cache state.
//!
//! Artifacts are content-hashed into `CARGO_TARGET_TMPDIR`, so repeated
//! runs (and CI caches of `target/tmp`) compile each spec at most once
//! per emitter/spec revision. CI runs this on every PR at the default
//! case count and nightly with `PROPTEST_CASES=1024`.

use devil_codegen::StubApi;
use devil_fuzz::compiled::{
    check_compiled, commands, interp_observation, rooted_verdict, stub_ops, Backend, Oracle,
};
use devil_fuzz::superfuzz::{decode_super, install_synthetic, super_sweep};
use devil_fuzz::{decode, init_sweep_ops, sweep_ops, Op};
use devil_ir::DeviceIr;
use proptest::prelude::*;
use std::sync::OnceLock;

struct Rig {
    name: &'static str,
    ir: DeviceIr,
    api: StubApi,
    stub: Oracle,
}

/// The 8-spec library plus the synthetic formerly-fallback specs,
/// lowered and compiled once per test binary. Ops a spec's stub
/// surface cannot express (memw's cell-guarded `w` setter keeps the
/// interpreter API) are filtered identically for both oracle sides.
fn rigs() -> &'static [Rig] {
    static RIGS: OnceLock<Vec<Rig>> = OnceLock::new();
    RIGS.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiled-oracle");
        drivers::specs::ALL
            .iter()
            .chain(devil_fuzz::synthetic::ALL)
            .map(|(name, src)| {
                let model = devil_sema::check_source(src, &[]).expect("embedded spec checks");
                let mut ir = devil_ir::lower(&model);
                // The same superplan surface the runtime ships: driver
                // declarations on the shipped specs, fixture fusions on
                // the synthetic fallback shapes.
                if devil_fuzz::synthetic::ALL.iter().any(|(n, _)| n == name) {
                    install_synthetic(name, &mut ir);
                } else {
                    drivers::superplans::install(&mut ir);
                }
                let api = StubApi::of(&ir);
                let stub = Oracle::build(Backend::C, name, &ir, &dir)
                    .unwrap_or_else(|e| panic!("{name}: cannot build compiled oracle: {e}"));
                Rig { name, ir, api, stub }
            })
            .collect()
    })
}

/// `cc` is required for this suite; bail out loudly (but green) on
/// machines without one so tier-1 stays runnable anywhere. The probe
/// spawns a process, so it runs once per test binary.
fn skip_without_cc() -> bool {
    static HAS_CC: OnceLock<bool> = OnceLock::new();
    if *HAS_CC.get_or_init(|| Backend::C.available()) {
        return false;
    }
    eprintln!("skipping compiled-C oracle: no `cc` on PATH");
    true
}

/// Every spec's stub surface is non-trivial: the oracle is replaying
/// real work, not an empty filtered stream.
#[test]
fn stub_surface_covers_the_spec_library() {
    if skip_without_cc() {
        return;
    }
    for rig in rigs() {
        assert!(
            !rig.api.read_vars.is_empty() || !rig.api.write_vars.is_empty(),
            "{}: no variable stubs emitted",
            rig.name
        );
        let ops = stub_ops(&rig.ir, &rig.api, &sweep_ops(&rig.ir));
        // Shipped specs keep the wide-coverage floor; the synthetic
        // fallback shapes are deliberately tiny.
        let synthetic = devil_fuzz::synthetic::ALL.iter().any(|(n, _)| *n == rig.name);
        let floor = if synthetic { 0 } else { 4 };
        assert!(ops.len() > floor, "{}: sweep filtered down to {} ops", rig.name, ops.len());
    }
    // The guard-split flagship: pic8259's conditional init flush is a
    // compiled stub, exercised through every guard combination below.
    let pic = rigs().iter().find(|r| r.name == "pic8259").unwrap();
    let init = pic.ir.struct_id("init").unwrap();
    assert!(pic.api.write_structs.contains(&init), "pic init flush must be compiled");
}

/// The deterministic coverage sweep, compiled stubs vs interpreter.
#[test]
fn coverage_sweep_matches_compiled_stubs() {
    if skip_without_cc() {
        return;
    }
    for rig in rigs() {
        if let Err(e) = check_compiled(&rig.stub, &rig.ir, &rig.api, &sweep_ops(&rig.ir)) {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// The guard-domain init sweep: every structure flushed across its
/// whole guard cross product, compiled stubs vs interpreter.
#[test]
fn init_sequence_sweep_matches_compiled_stubs() {
    if skip_without_cc() {
        return;
    }
    for rig in rigs() {
        if let Err(e) = check_compiled(&rig.stub, &rig.ir, &rig.api, &init_sweep_ops(&rig.ir)) {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// Cold-cache reads: the generated idempotent getters must perform the
/// same device I/O as `read_id` on a never-touched cache, then serve
/// later reads without I/O — validity tracking, not zero-initialization,
/// decides.
#[test]
fn cold_and_warm_reads_match_compiled_stubs() {
    if skip_without_cc() {
        return;
    }
    for rig in rigs() {
        let mut ops: Vec<Op> = Vec::new();
        for &vid in &rig.api.read_vars {
            ops.push(Op::ReadVar { vid, args: Vec::new() });
            ops.push(Op::ReadVar { vid, args: Vec::new() });
        }
        if let Err(e) = check_compiled(&rig.stub, &rig.ir, &rig.api, &ops) {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// Private (memory-cell) structure fields: staging, set-actions and
/// cached getters must agree between compiled stubs and interpreter.
/// Regression for the lowering bug where such fields carried an empty
/// slot-assemble list and the interpreter's cached getter returned 0.
#[test]
fn private_struct_fields_agree_with_compiled_stubs() {
    if skip_without_cc() {
        return;
    }
    let src = r#"device privfield (base : bit[8] port @ {0..0}) {
        register a = base @ 0, set {pm = true} : bit[8];
        structure s = {
          private variable pm : bool;
          variable fa = a : int(8);
        };
    }"#;
    let model = devil_sema::check_source(src, &[]).expect("probe spec checks");
    let ir = devil_ir::lower(&model);
    let api = StubApi::of(&ir);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiled-oracle");
    let stub = Oracle::build(Backend::C, "privfield", &ir, &dir).expect("probe stub builds");
    let pm = ir.var_id("pm").unwrap();
    let fa = ir.var_id("fa").unwrap();
    let sid = ir.struct_id("s").unwrap();
    let ops = vec![
        Op::WriteVar { vid: pm, args: vec![], value: 0x55 },
        Op::ReadVar { vid: pm, args: vec![] },
        Op::WriteStruct { sid, values: vec![(pm, 0), (fa, 0x7e)] },
        Op::ReadStruct { sid },
        Op::ReadVar { vid: pm, args: vec![] },
    ];
    if let Err(e) = check_compiled(&stub, &ir, &api, &ops) {
        panic!("privfield: {e}");
    }
}

/// The formerly-fallback shapes present exactly the expected stub
/// surface: input-sourced guards (selfw) and inlined nested
/// conditionals (nestedc/nestede) emit; cell-sourced guards (memw's
/// `w`) are rejected by `plan_emittable` — never mis-emitted — and
/// keep the interpreter API behind a marker comment. The emittable
/// shapes then replay guard-hammering streams through the oracle.
#[test]
fn formerly_fallback_shapes_join_the_compiled_oracle() {
    if skip_without_cc() {
        return;
    }
    let rig = |name: &str| rigs().iter().find(|r| r.name == name).unwrap();

    let selfw = rig("selfw");
    let w = selfw.ir.var_id("w").unwrap();
    assert!(selfw.api.writes_var(w), "input-guarded write must emit");
    let rest = selfw.ir.var_id("rest").unwrap();
    let ops = vec![
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
        Op::WriteVar { vid: w, args: vec![], value: 0 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x2a },
        Op::WriteVar { vid: w, args: vec![], value: 1 },
    ];
    check_compiled(&selfw.stub, &selfw.ir, &selfw.api, &ops).unwrap();

    let memw = rig("memw");
    let mw = memw.ir.var_id("w").unwrap();
    assert!(
        memw.ir.var(mw).write_plan.is_some(),
        "the cell-guarded plan compiles for the interpreter"
    );
    assert!(!memw.api.writes_var(mw), "cell-guarded writes must keep the interpreter API");
    let header = devil_codegen::emit_c(&memw.ir, "memw");
    assert!(header.contains("variable `w` (write): not plan-compiled"), "{header}");
    let m = memw.ir.var_id("m").unwrap();
    assert!(memw.api.writes_var(m) && memw.api.reads_var(m), "the plain cell round-trips");

    for name in ["nestedc", "nestede"] {
        let r = rig(name);
        let payload = r.ir.var_id("payload").unwrap();
        assert!(r.api.reads_var(payload), "{name}: inlined nested conditional must emit");
        let mut ops = vec![
            Op::Preset { port: 0, offset: 2, value: 0x99 },
            Op::ReadVar { vid: payload, args: vec![] },
            Op::Preset { port: 0, offset: 2, value: 0x42 },
            Op::ReadVar { vid: payload, args: vec![] },
        ];
        if name == "nestede" {
            // Drive both entry-state guard values of the unassigned
            // tested field.
            let sel = r.ir.var_id("sel").unwrap();
            ops.push(Op::WriteVar { vid: sel, args: vec![], value: 1 });
            ops.push(Op::ReadVar { vid: payload, args: vec![] });
        }
        check_compiled(&r.stub, &r.ir, &r.api, &ops).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The fused stub surface is exactly what ships: every driver-declared
/// superplan lowers to a compiled C body, the synthetic fixtures with
/// input-resolved or inlined-nested guards lower too, and memw's
/// cell-guarded burst is rejected — it keeps the interpreter API
/// behind a marker comment, never a mis-emitted guard chain.
#[test]
fn fused_stub_surface_is_complete() {
    if skip_without_cc() {
        return;
    }
    let surface: Vec<(&str, usize, usize)> = rigs()
        .iter()
        .filter(|r| !r.ir.superplans().is_empty())
        .map(|r| (r.name, r.ir.superplans().len(), r.api.superplans.len()))
        .collect();
    assert_eq!(
        surface,
        vec![
            ("ide", 2, 2),
            ("permedia2", 3, 3),
            ("ne2000", 1, 1),
            ("pic8259", 1, 1),
            ("selfw", 1, 1),
            ("memw", 1, 0),
            ("nestedc", 1, 1),
            ("nestede", 1, 1),
            ("selfact", 1, 1),
        ],
        "fused stub surface drifted"
    );
    let memw = rigs().iter().find(|r| r.name == "memw").unwrap();
    let header = devil_codegen::emit_c(&memw.ir, "memw");
    assert!(header.contains("superplan `burst`: not emittable"), "{header}");
}

/// The deterministic superplan sweep, compiled fused bodies vs the
/// fused interpreter path: identical bus logs (one word at a time, so
/// block bursts are compared cycle-for-cycle), outputs, read-block
/// contents and final cache state.
#[test]
fn superplan_sweep_matches_compiled_stubs() {
    if skip_without_cc() {
        return;
    }
    for rig in rigs().iter().filter(|r| !r.api.superplans.is_empty()) {
        if let Err(e) = check_compiled(&rig.stub, &rig.ir, &rig.api, &super_sweep(&rig.ir)) {
            panic!("{}: {e}", rig.name);
        }
    }
}

/// Sensitivity of the oracle on the new guard sources: dropping one
/// input-guarded write from the compiled side must surface as a
/// divergence (extends the PR-4 preset-dropping sensitivity test).
#[test]
fn oracle_detects_divergence_on_input_guarded_stubs() {
    if skip_without_cc() {
        return;
    }
    let rig = rigs().iter().find(|r| r.name == "selfw").unwrap();
    let w = rig.ir.var_id("w").unwrap();
    let rest = rig.ir.var_id("rest").unwrap();
    let kept = vec![
        Op::WriteVar { vid: w, args: vec![], value: 1 },
        Op::WriteVar { vid: rest, args: vec![], value: 0x5a },
    ];
    let want = interp_observation(&rig.ir, &kept);
    // Skew: the compiled side misses the guarded w write.
    let skewed = vec![kept[1].clone()];
    let got = rig.stub.run(commands(&rig.ir, &rig.api, &skewed)).expect("harness runs");
    assert_ne!(want, got, "oracle must notice the missing guarded write");
}

/// The oracle is sensitive: feeding the compiled side a stream with
/// the device presets removed must produce a visible divergence (bus
/// values and final cache state differ). Guards against a comparator
/// that vacuously passes.
#[test]
fn oracle_detects_injected_divergence() {
    if skip_without_cc() {
        return;
    }
    let rig = rigs().iter().find(|r| r.name == "busmouse").unwrap();
    let kept = stub_ops(&rig.ir, &rig.api, &sweep_ops(&rig.ir));
    assert!(kept.iter().any(|o| matches!(o, Op::Preset { .. })), "sweep must preset");
    let want = interp_observation(&rig.ir, &kept);
    let skewed: Vec<Op> =
        kept.iter().filter(|o| !matches!(o, Op::Preset { .. })).cloned().collect();
    let got = rig.stub.run(commands(&rig.ir, &rig.api, &skewed)).expect("harness runs");
    assert_ne!(want, got, "oracle must notice the diverging device state");
}

/// Shipped coverage corpus replay, promoted into the C oracle's stream
/// set: every minimized corpus stream (grown to saturate interpreter
/// dispatch coverage) also replays bit-identically through the
/// compiled C stubs and fused bodies.
#[test]
fn corpus_streams_match_compiled_stubs() {
    if skip_without_cc() {
        return;
    }
    for rig in rigs() {
        for (i, words) in devil_fuzz::coverage::shipped_corpus(rig.name).iter().enumerate() {
            let ops = decode(&rig.ir, words);
            if let Err(e) = check_compiled(&rig.stub, &rig.ir, &rig.api, &ops) {
                panic!("{}: corpus stream {i}: {e}", rig.name);
            }
            if !rig.api.superplans.is_empty() {
                let ops = decode_super(&rig.ir, words);
                if let Err(e) = check_compiled(&rig.stub, &rig.ir, &rig.api, &ops) {
                    panic!("{}: corpus stream {i} (fused): {e}", rig.name);
                }
            }
        }
    }
}

/// Sensitivity of root-compare mode: skew the compiled side's stream
/// (drop the device presets) and the rooted verdict must fail, with
/// bisection naming exactly the line a linear scan names first.
#[test]
fn rooted_oracle_bisects_injected_divergence() {
    if skip_without_cc() {
        return;
    }
    let rig = rigs().iter().find(|r| r.name == "busmouse").unwrap();
    let kept = stub_ops(&rig.ir, &rig.api, &sweep_ops(&rig.ir));
    let want = interp_observation(&rig.ir, &kept);
    let skewed: Vec<Op> =
        kept.iter().filter(|o| !matches!(o, Op::Preset { .. })).cloned().collect();
    let got = rig.stub.run(commands(&rig.ir, &rig.api, &skewed)).expect("harness runs");
    let linear_first = want
        .iter()
        .zip(got.iter())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.len().min(got.len()));
    let err = rooted_verdict("busmouse", "C stubs", &want, &got)
        .expect_err("skewed stream must fail root compare");
    assert!(
        err.contains(&format!("observation line {linear_first} ")),
        "bisection must name line {linear_first}: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op streams over every spec: the compiled stubs and the
    /// fast-path interpreter must be observationally identical.
    #[test]
    fn compiled_stubs_and_interpreter_agree(words in collection::vec(any::<u64>(), 1..48)) {
        if skip_without_cc() {
            return Ok(());
        }
        for rig in rigs() {
            let ops = decode(&rig.ir, &words);
            let r = check_compiled(&rig.stub, &rig.ir, &rig.api, &ops);
            prop_assert!(r.is_ok(), "{}: {}", rig.name, r.err().unwrap_or_default());
        }
    }

    /// Random interleavings of op preludes and superplan calls: the
    /// compiled fused bodies and the fused interpreter path must be
    /// observationally identical on the emittable surface.
    #[test]
    fn compiled_superplans_and_interpreter_agree(words in collection::vec(any::<u64>(), 2..32)) {
        if skip_without_cc() {
            return Ok(());
        }
        for rig in rigs().iter().filter(|r| !r.api.superplans.is_empty()) {
            let ops = decode_super(&rig.ir, &words);
            let r = check_compiled(&rig.stub, &rig.ir, &rig.api, &ops);
            prop_assert!(r.is_ok(), "{}: {}", rig.name, r.err().unwrap_or_default());
        }
    }
}
