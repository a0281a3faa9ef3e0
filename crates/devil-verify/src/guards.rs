//! Guard soundness: the variant table is the selector's mixed-radix
//! enumeration, stored guards match the selector bit for bit, variant
//! domains are pairwise disjoint, and selection is total.
//!
//! The proof strategy leans on [`select_variant`]'s structure:
//! selection never scans guards, it assembles each tested value and
//! indexes the table. So soundness decomposes per dimension:
//!
//! * the table must hold exactly `Π radix` variants, laid out in
//!   mixed-radix order (first dimension most significant);
//! * variant `i`'s stored guard list must equal the guards the selector
//!   implies for `i`'s value decomposition — the same reconstruction
//!   the compiler's `dim_guards` performs, re-derived here from the
//!   public [`SelectorDim`] alone;
//! * two variants are disjoint iff every dimension can *discriminate*
//!   every pair of values it enumerates, i.e. every enumerated value
//!   bit is observable through some guard (a cache segment bit outside
//!   the input shadow, an input segment bit, or a whole-cell compare);
//! * selection is total iff no dimension can assemble a value outside
//!   its radix: a slot/input dimension's segment extracts must land
//!   strictly below its radix, and a cell dimension (cells store
//!   unmasked, so any value can appear) must enumerate its variable's
//!   `2^width` values plus the catch-all index `2^width` that every
//!   larger value clamps to.
//!
//! [`select_variant`]: devil_ir::AccessPlan::select_variant

use crate::{plan_refs, DiagClass, Diagnostic};
use devil_ir::{DeviceIr, GuardSource, PlanGuard, SelectorDim};

/// Reconstructs the guards pinning `dim` to the enumerated value `v`,
/// mirroring the compiler's `dim_guards`: a clamped cell compare (the
/// ceiling is the catch-all index) for cell-tested dims, else one masked
/// slot compare per cache segment
/// (input-shadowed bits excluded) followed by one input compare per
/// input segment.
pub fn dim_guards(dim: &SelectorDim, v: u64, out: &mut Vec<PlanGuard>) {
    if let Some(cell) = dim.cell {
        let mask = max_value(dim);
        out.push(PlanGuard { source: GuardSource::Cell(cell), mask, expected: v });
        return;
    }
    for &(slot, seg) in &dim.segs {
        // The cache-sourced mask is the segment's register bits minus
        // the input shadow: selection clears `input_mask` out of the
        // assembled value, so those value positions never read the
        // cache. `insert` maps value positions back to register bits.
        let cmask = seg.insert(!dim.input_mask);
        if cmask != 0 {
            out.push(PlanGuard {
                source: GuardSource::Slot(slot),
                mask: cmask,
                expected: seg.insert(v) & cmask,
            });
        }
    }
    for seg in &dim.input_segs {
        out.push(PlanGuard {
            source: GuardSource::Input,
            mask: seg.reg_mask(),
            expected: seg.insert(v),
        });
    }
}

/// Decomposes a mixed-radix variant index into per-dimension values
/// (first dimension most significant, matching selection's
/// accumulation).
pub fn decompose(dims: &[SelectorDim], idx: usize) -> Vec<u64> {
    let mut values = vec![0u64; dims.len()];
    let mut rest = idx;
    for (d, dim) in dims.iter().enumerate().rev() {
        values[d] = (rest % dim.radix) as u64;
        rest /= dim.radix;
    }
    values
}

/// The largest value `dim` enumerates, `radix - 1`: the tested-value
/// bit mask of a slot/input dimension, the catch-all index of a cell
/// dimension.
pub fn max_value(dim: &SelectorDim) -> u64 {
    (dim.radix as u64).saturating_sub(1)
}

/// The tested-value bits `dim` can actually observe through guards:
/// every cache segment's value span plus the input shadow. A whole-cell
/// compare observes everything.
fn observable_mask(dim: &SelectorDim) -> u64 {
    if dim.cell.is_some() {
        return u64::MAX;
    }
    let mut m = dim.input_mask;
    for &(_, seg) in &dim.segs {
        m |= seg.extract(seg.reg_mask());
    }
    m
}

/// Checks every access plan of `ir` and returns, per
/// [`plan_refs`] position, whether its table/guard structure verified
/// clean (downstream passes only trust the guards of clean accesses).
pub fn check(ir: &DeviceIr, diagnostics: &mut Vec<Diagnostic>) -> Vec<bool> {
    let mut clean = Vec::new();
    for pr in plan_refs(ir) {
        let mut ok = true;
        let mut diag = |class: DiagClass, detail: String| {
            diagnostics.push(Diagnostic { class, access: pr.access.clone(), detail });
        };
        let plan = pr.plan;

        // Memory-cell serve: no selection at all — one trivially
        // guard-free variant documents the single dispatch point.
        if let Some(cell) = plan.cell {
            if !plan.selector.is_empty()
                || plan.variants.len() != 1
                || !plan.variants[0].guards.is_empty()
                || plan.variants[0].len != 0
            {
                diag(
                    DiagClass::SelectorMismatch,
                    format!(
                        "cell-served access ({}) carries a non-trivial variant table",
                        ir.cell_name(cell)
                    ),
                );
                ok = false;
            }
            clean.push(ok);
            continue;
        }

        // Table size: exactly the selector's mixed-radix space.
        let expected: usize = plan.selector.iter().map(|d| d.radix).product();
        if plan.variants.len() != expected {
            diag(
                DiagClass::SelectorMismatch,
                format!("{} variants for a {}-combination selector", plan.variants.len(), expected),
            );
            clean.push(false);
            continue;
        }

        // Per-dimension structure: a power-of-two radix (a cell's
        // `2^width` plus its catch-all), input sourcing only where the
        // access has an input, and no assembleable value outside the
        // radix (totality).
        for (d, dim) in plan.selector.iter().enumerate() {
            if let Some(cell) = dim.cell {
                let width = ir.mem_owner(cell).map(|v| ir.var(v).width);
                let want = width.filter(|&w| w < 63).map(|w| (1usize << w) + 1);
                if want != Some(dim.radix) {
                    diag(
                        DiagClass::NonExhaustive,
                        format!(
                            "cell dim {d} has radix {} where its variable's values plus the \
                             catch-all need {want:?} — out-of-range cell values would select \
                             an in-range variant",
                            dim.radix
                        ),
                    );
                    ok = false;
                }
            } else if !dim.radix.is_power_of_two() {
                diag(
                    DiagClass::NonExhaustive,
                    format!("selector dim {d} has non-power-of-two radix {}", dim.radix),
                );
                ok = false;
            }
            if !pr.input_allowed && (dim.input_mask != 0 || !dim.input_segs.is_empty()) {
                diag(
                    DiagClass::SelectorMismatch,
                    format!("selector dim {d} sources from an input this access does not have"),
                );
                ok = false;
            }
            if dim.cell.is_none() {
                let reach = observable_mask(dim) & !max_value(dim);
                if reach != 0 {
                    diag(
                        DiagClass::NonExhaustive,
                        format!(
                            "selector dim {d} can assemble value bits {reach:#x} beyond \
                             radix {} — selection could miss",
                            dim.radix
                        ),
                    );
                    ok = false;
                }
            }
            // Disjointness: an enumerated value bit no guard observes
            // means two variants differing only in that bit share their
            // whole guard domain.
            let blind = max_value(dim) & !observable_mask(dim);
            if blind != 0 {
                diag(
                    DiagClass::GuardOverlap,
                    format!(
                        "selector dim {d} enumerates value bits {blind:#x} no guard \
                         observes — variants differing only there have identical domains"
                    ),
                );
                ok = false;
            }
        }
        if !ok {
            clean.push(false);
            continue;
        }

        // Stored guards: bit-for-bit the selector's reconstruction.
        let mut expect: Vec<PlanGuard> = Vec::new();
        for (idx, variant) in plan.variants.iter().enumerate() {
            expect.clear();
            for (dim, &v) in plan.selector.iter().zip(&decompose(&plan.selector, idx)) {
                dim_guards(dim, v, &mut expect);
            }
            if variant.guards != expect {
                diag(
                    DiagClass::SelectorMismatch,
                    format!(
                        "variant {idx} stores {} guard(s) where the selector implies {}: \
                         stored {:?}, implied {:?}",
                        variant.guards.len(),
                        expect.len(),
                        variant.guards,
                        expect
                    ),
                );
                ok = false;
            }
        }
        clean.push(ok);
    }
    clean
}
