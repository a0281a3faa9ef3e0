//! The shipped coverage-guided corpus, over the whole embedded spec
//! library: every minimized corpus must light up **all** compiled plan
//! variants (and cell serves and superplan variants) of its spec, beat
//! the uniform-random baseline at the same candidate budget, replay
//! cleanly through the fast/general and fused/unfused rooted
//! differential comparators, and already be a minimization fixpoint.
//!
//! Regenerate the shipped corpora after an emitter/decoder/spec change:
//!
//! ```text
//! UPDATE_CORPUS=1 cargo test -p devil-fuzz --test coverage_corpus
//! ```

use devil_fuzz::coverage::{
    corpus_path, cover_stream, fallback_shapes_path, format_corpus, format_fallback_shapes,
    grow_corpus, minimize, shipped_corpus, uniform_coverage, Coverage, CoverageSpace,
};
use devil_fuzz::decode;
use devil_fuzz::rooted::compare;
use devil_fuzz::superfuzz::{decode_super, install_synthetic};
use devil_ir::DeviceIr;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Fixed growth seed: the corpus is a deterministic function of
/// (seed, budget, decoder, specs).
const SEED: u64 = 0x5eed_c0ff_ee00_0009;

/// Candidate budget per spec, shared by guided growth and the uniform
/// baseline so the comparison is like-for-like. The nightly
/// `corpus-fuzz` job raises the *growth* budget via `CORPUS_BUDGET`;
/// the uniform baseline always runs at this fixed budget so the
/// beat-the-baseline assertion stays deterministic.
const BUDGET: usize = 2000;

fn grow_budget() -> usize {
    std::env::var("CORPUS_BUDGET").ok().and_then(|s| s.parse().ok()).unwrap_or(BUDGET)
}

struct Rig {
    name: &'static str,
    ir: DeviceIr,
}

fn rigs() -> &'static [Rig] {
    static RIGS: OnceLock<Vec<Rig>> = OnceLock::new();
    RIGS.get_or_init(|| {
        drivers::specs::ALL
            .iter()
            .chain(devil_fuzz::synthetic::ALL)
            .map(|(name, src)| {
                let model = devil_sema::check_source(src, &[]).expect("embedded spec checks");
                let mut ir = devil_ir::lower(&model);
                if devil_fuzz::synthetic::ALL.iter().any(|(n, _)| n == name) {
                    install_synthetic(name, &mut ir);
                } else {
                    drivers::superplans::install(&mut ir);
                }
                Rig { name, ir }
            })
            .collect()
    })
}

/// When `UPDATE_CORPUS=1`, regrow + minimize + rewrite every shipped
/// corpus before the assertions run (the golden-file convention).
fn maybe_regenerate() {
    static REGEN: OnceLock<()> = OnceLock::new();
    REGEN.get_or_init(|| {
        if std::env::var_os("UPDATE_CORPUS").is_none() {
            return;
        }
        for rig in rigs() {
            let grown = grow_corpus(&rig.ir, SEED, grow_budget());
            let min = minimize(&rig.ir, &grown);
            let path = corpus_path(rig.name);
            std::fs::create_dir_all(path.parent().unwrap()).expect("corpus dir");
            std::fs::write(&path, format_corpus(rig.name, &min)).expect("write corpus");
            eprintln!(
                "regenerated {}: {} grown -> {} minimized streams",
                path.display(),
                grown.len(),
                min.len()
            );
        }
    });
}

/// The tentpole claim: the shipped guided corpus reaches **every**
/// compiled plan variant and superplan variant of every spec, and the
/// uniform-random baseline at the same budget does not. The per-spec
/// numbers print side by side so the margin is visible in the test
/// output.
#[test]
fn shipped_corpus_reaches_every_plan_variant() {
    maybe_regenerate();
    let mut guided_total = 0usize;
    let mut uniform_total = 0usize;
    let mut space_total = 0usize;
    let mut incomplete: Vec<String> = Vec::new();
    for rig in rigs() {
        let space = CoverageSpace::of(&rig.ir);
        let corpus = shipped_corpus(rig.name);
        let mut cov = Coverage::new(&space);
        for s in &corpus {
            cover_stream(&rig.ir, &space, &mut cov, s);
        }
        let (uni, total) = uniform_coverage(&rig.ir, SEED ^ 1, BUDGET);
        println!(
            "{:>10}: guided {}/{} ({} streams), uniform {}/{}",
            rig.name,
            cov.covered(),
            total,
            corpus.len(),
            uni,
            total
        );
        guided_total += cov.covered();
        uniform_total += uni;
        space_total += total;
        if !cov.complete(&space) {
            incomplete.push(format!("{}: unreached {:?}", rig.name, cov.unreached(&space)));
        }
    }
    println!(
        "   library: guided {guided_total}/{space_total}, uniform {uniform_total}/{space_total}"
    );
    assert!(incomplete.is_empty(), "guided corpus must saturate the plan surface:\n{}", {
        incomplete.join("\n")
    });
    assert!(
        uniform_total < guided_total,
        "uniform baseline ({uniform_total}) must stay below the guided corpus ({guided_total})"
    );
}

/// The fallback shapes the shipped corpus reaches are an inventory,
/// not just a count: the committed `fallback-shapes.txt` pins the set
/// per spec, so a corpus generation that discovers a new way to miss —
/// or silently loses one — is a reviewable line diff. The nightly
/// corpus job regenerates the corpus at a 10× budget and diffs this
/// file across generations (ROADMAP's fallback-drift thread).
#[test]
fn shipped_corpus_fallback_shapes_match_committed_inventory() {
    maybe_regenerate();
    let mut shapes: BTreeMap<String, std::collections::BTreeSet<String>> = BTreeMap::new();
    for rig in rigs() {
        let space = CoverageSpace::of(&rig.ir);
        let mut cov = Coverage::new(&space);
        for s in &shipped_corpus(rig.name) {
            cover_stream(&rig.ir, &space, &mut cov, s);
        }
        shapes.insert(rig.name.to_string(), cov.fallback_set(&rig.ir));
    }
    let rendered = format_fallback_shapes(&shapes);
    let path = fallback_shapes_path();
    if std::env::var_os("UPDATE_CORPUS").is_some() {
        std::fs::write(&path, &rendered).expect("write fallback shapes");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("reading {} (run UPDATE_CORPUS=1 to create): {e}", path.display())
    });
    assert_eq!(
        committed,
        rendered,
        "fallback-shape inventory drifted from {} — a corpus generation gained or \
         lost a miss shape; inspect the diff, then regenerate with UPDATE_CORPUS=1",
        path.display()
    );
}

/// The shipped corpora are minimization fixpoints: re-minimizing
/// changes nothing, so what ships is exactly what the reducer produces
/// (idempotence, on the real corpora rather than a fixture).
#[test]
fn shipped_corpus_is_a_minimization_fixpoint() {
    maybe_regenerate();
    for rig in rigs() {
        let corpus = shipped_corpus(rig.name);
        let min = minimize(&rig.ir, &corpus);
        assert_eq!(
            min, corpus,
            "{}: shipped corpus is not minimal; regenerate with UPDATE_CORPUS=1",
            rig.name
        );
    }
}

/// Every corpus stream replays through the rooted fast-vs-general
/// comparator and (where the spec fuses) the rooted fused-vs-unfused
/// comparator: the corpus is differential-fuzz input, not just a
/// coverage artifact.
#[test]
fn corpus_streams_pass_rooted_differential_comparators() {
    maybe_regenerate();
    for rig in rigs() {
        for (i, words) in shipped_corpus(rig.name).iter().enumerate() {
            let ops = decode(&rig.ir, words);
            compare(&rig.ir, devil_fuzz::Rig::Fast, devil_fuzz::Rig::General, || {
                ops.iter().cloned()
            })
            .unwrap_or_else(|e| panic!("{} corpus stream {i}: {e}", rig.name));
            if !rig.ir.superplans().is_empty() {
                let ops = decode_super(&rig.ir, words);
                compare(&rig.ir, devil_fuzz::Rig::Fast, devil_fuzz::Rig::Unfused, || {
                    ops.iter().cloned()
                })
                .unwrap_or_else(|e| panic!("{} corpus stream {i} (fused): {e}", rig.name));
            }
        }
    }
}
