//! The benchmark's own tests: a tiny run of every workload passes its
//! gates in both modes and reports every metric of its kind, and a
//! deliberately corrupted result makes the gates fail.

use perfbench::{metrics, run, Args, Workload};

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> perfbench::Run {
    run(Args { workload, seed: 7, seconds: 0.05, trace, tiny: true, corrupt })
}

#[test]
fn tiny_runs_pass_their_gates() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = tiny(w, trace, false);
            assert!(r.attempted > 0, "{} checked nothing", w.name());
            assert_eq!(r.failed, 0, "{} trace={trace} failed a gate", w.name());
            let line = metrics::result_line(&r);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            for (name, unit, v) in metrics::reported(&r) {
                assert!(v.is_finite(), "{name} is not a number");
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                if !trace {
                    assert!(v > 0.0, "{}: end-to-end {name} must never be 0", w.name());
                }
            }
        }
    }
}

#[test]
fn corrupted_results_raise_failed_frac() {
    for w in Workload::ALL {
        let r = tiny(w, true, true);
        assert!(r.failed > 0, "{}: a corrupted result passed every gate", w.name());
        let frac = r.metrics["bench.failed_frac"];
        assert!(frac > 0.0, "{}: failed_frac {frac}", w.name());
        assert!(metrics::result_line(&r).starts_with("{\"correct\": false"));
    }
}

#[test]
fn exact_counts_repeat() {
    let counts = [
        "hwsim.bus_ops",
        "hwsim.trace_leaves",
        "hwsim.sim_makespan_ns",
        "devil_runtime.dispatch.straight",
        "devil_runtime.dispatch.guarded",
        "devil_runtime.dispatch.fused",
        "hwsim.bisect_compares",
        "hwsim.mmr_retained_bytes",
    ];
    for w in [Workload::FleetMixed, Workload::DiffReplay] {
        let (a, b) = (tiny(w, true, false), tiny(w, true, false));
        for name in counts {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name} differs between runs");
        }
    }
}
