//! The PR-gating verification sweep: every embedded spec (8 shipped
//! drivers + 5 synthetic specs) must verify clean — zero diagnostics,
//! every installed superplan proven fused ≡ unfused — and its committed
//! plan-surface manifest must match byte for byte.
//!
//! The totals are pinned: the verifier's surface-point count must equal
//! `devil_fuzz::CoverageSpace`'s denominator per spec and 166 overall,
//! so the static proof and the fuzzers' sampling argue about the exact
//! same dispatch surface.

use devil_fuzz::coverage::CoverageSpace;
use devil_verify::manifest;

/// Installed superplans per spec; everything not listed has none.
const SUPERPLANS: &[(&str, usize)] = &[
    ("ide", 2),
    ("permedia2", 3),
    ("ne2000", 1),
    ("pic8259", 1),
    ("selfw", 1),
    ("memw", 1),
    ("nestedc", 1),
    ("nestede", 1),
    ("selfact", 1),
];

#[test]
fn every_embedded_spec_verifies_clean() {
    let mut specs = 0usize;
    let mut proven = 0usize;
    let mut total = 0usize;
    for (name, ir) in devil_verify::spec_library() {
        specs += 1;
        let report = devil_verify::verify(&ir);
        assert!(
            report.diagnostics.is_empty(),
            "{name}: expected zero diagnostics, got:\n{}",
            report.diagnostics.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
        );
        let expected = SUPERPLANS.iter().find(|(n, _)| *n == name).map_or(0, |&(_, c)| c);
        assert_eq!(
            report.superplans_total, expected,
            "{name}: unexpected installed superplan count"
        );
        assert_eq!(
            report.superplans_proven, report.superplans_total,
            "{name}: unproven superplan(s)"
        );
        assert!(report.clean(), "{name}: report not clean");
        proven += report.superplans_proven;
        total += report.superplans_total;
    }
    assert_eq!(specs, 13, "spec library changed size — update the sweep");
    assert_eq!((proven, total), (12, 12), "superplan proof totals drifted");
}

#[test]
fn committed_manifests_match() {
    for (name, ir) in devil_verify::spec_library() {
        manifest::check_manifest(&name, &ir).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn surface_points_equal_fuzz_coverage_space() {
    let mut points = 0usize;
    for (name, ir) in devil_verify::spec_library() {
        let space = CoverageSpace::of(&ir);
        let pts = manifest::surface_points(&ir);
        assert_eq!(
            pts,
            space.len(),
            "{name}: manifest surface points disagree with the fuzzers' \
             coverage denominator"
        );
        points += pts;
    }
    assert_eq!(points, 168, "whole-library surface-point total drifted");
}
