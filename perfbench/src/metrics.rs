//! The metric registry and the result line.
//!
//! Every run prints every metric of its kind — end-to-end with
//! `--trace 0`, per-layer with `--trace 1` — so a workload reports 0 for
//! a per-layer metric of a layer it does not exercise (the MMR forest
//! does no work in `driver_loop`, for instance). End-to-end metrics are
//! defined on every workload and are never 0.

use crate::Run;
use std::fmt::Write as _;

/// A metric: name, unit, and which direction is better.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric { name: name.into(), unit, better }
}

/// End-to-end metrics, with the bound by which each may worsen.
pub fn end_to_end() -> Vec<(Metric, f64)> {
    vec![
        (m("setup_s", "s", "lower"), 0.25),
        (m("op_ns", "ns", "lower"), 0.25),
        (m("ref_op_ns", "ns", "lower"), 0.25),
        (m("peak_rss_mb", "MB", "lower"), 0.15),
    ]
}

/// Layers whose self-time share of the traced segment is reported.
pub const SELF_SHARE_LAYERS: [&str; 7] = [
    "devil_fleet",
    "hwsim",
    "hwsim_mmr",
    "drivers",
    "devil_runtime",
    "devil_runtime_access",
    "devil_fuzz",
];

/// `driver_loop` ops with a hand-written counterpart, and the hand op
/// each is compared with.
pub const PAIRED_OPS: [(&str, &str); 9] = [
    ("mouse_read", "mouse_read"),
    ("pic_init", "pic_init"),
    ("pic_init_fused", "pic_init"),
    ("pio_read4", "pio_read4"),
    ("pio_read4_fused", "pio_read4"),
    ("ne2k_tx", "ne2k_tx"),
    ("ne2k_tx_fused", "ne2k_tx"),
    ("pm2_fill", "pm2_fill"),
    ("pm2_fill_fused", "pm2_fill"),
];

/// Every Devil op of `driver_loop`.
pub const DEVIL_OPS: [&str; 11] = [
    "mouse_read",
    "pic_init",
    "pic_init_fused",
    "pio_read4",
    "pio_read4_fused",
    "ne2k_tx",
    "ne2k_tx_fused",
    "pm2_fill",
    "pm2_fill_fused",
    "dma_program",
    "codec_index",
];

/// The hand-written ops of `driver_loop`.
pub const HAND_OPS: [&str; 5] = ["mouse_read", "pic_init", "pio_read4", "ne2k_tx", "pm2_fill"];

/// Ops timed directly on a `DeviceInstance`, against a null access and
/// through a `PortMap`.
pub const RUNTIME_OPS: [&str; 5] =
    ["mouse_read", "pic_init", "dma_program", "codec_index", "config"];

/// The fleet's workload kinds, by report name.
pub fn kind_names() -> Vec<&'static str> {
    devil_fleet::WorkloadKind::ALL.iter().map(|k| k.name()).collect()
}

/// Per-layer metrics.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("bench.unaccounted_frac", "fraction", "lower"),
        m("bench.trace_overhead_frac", "fraction", "lower"),
        m("bench.failed_frac", "fraction", "lower"),
        m("bench.host_speed", "ratio", "higher"),
    ];
    for layer in SELF_SHARE_LAYERS {
        v.push(m(format!("self_share.{layer}"), "fraction", "lower"));
    }
    v.extend([
        m("devil_sema.check_us", "us", "lower"),
        m("devil_ir.lower_us", "us", "lower"),
        m("drivers.superplans_install_us", "us", "lower"),
        // fleet_mixed
        m("devil_fleet.fleet_units_per_s", "1/s", "higher"),
    ]);
    for kind in kind_names() {
        v.push(m(format!("devil_fleet.run_unit_ns.{kind}"), "ns", "lower"));
    }
    v.extend([
        m("hwsim.drain_checkpoint_ns", "ns", "lower"),
        m("hwsim.drain_trace_ns", "ns", "lower"),
        m("hwsim.forest_append_ns", "ns", "lower"),
        m("hwsim.ledger_merge_ns", "ns", "lower"),
        m("devil_fleet.checkpoint_share", "fraction", "lower"),
        m("devil_fleet.empty_drain_frac", "fraction", "lower"),
        m("devil_fleet.spawn_s", "s", "lower"),
        m("hwsim.bus_ops", "count", "lower"),
        m("hwsim.trace_leaves", "count", "lower"),
        m("hwsim.sim_makespan_ns", "sim_ns", "lower"),
        m("devil_runtime.dispatch.straight", "count", "higher"),
        m("devil_runtime.dispatch.guarded", "count", "higher"),
        m("devil_runtime.dispatch.fused", "count", "higher"),
        m("devil_runtime.dispatch.general", "count", "lower"),
        // driver_loop
        m("drivers.devil_op_ns_geomean", "ns", "lower"),
        m("drivers.hand_op_ns_geomean", "ns", "lower"),
    ]);
    for op in DEVIL_OPS {
        v.push(m(format!("drivers.{op}.devil_ns"), "ns", "lower"));
        v.push(m(format!("drivers.{op}.devil_ns_p99"), "ns", "lower"));
    }
    for op in HAND_OPS {
        v.push(m(format!("drivers.{op}.hand_ns"), "ns", "lower"));
        v.push(m(format!("drivers.{op}.hand_ns_p99"), "ns", "lower"));
    }
    for (op, _) in PAIRED_OPS {
        v.push(m(format!("drivers.{op}.devil_over_hand"), "ratio", "lower"));
    }
    for op in DEVIL_OPS {
        v.push(m(format!("drivers.{op}.allocs_per_call"), "count", "lower"));
    }
    for op in RUNTIME_OPS {
        v.push(m(format!("devil_runtime.{op}.null_ns"), "ns", "lower"));
        v.push(m(format!("devil_runtime.{op}.portmap_ns"), "ns", "lower"));
    }
    v.extend([
        m("devil_runtime.portmap_new_ns", "ns", "lower"),
        m("hwsim.io_read_ns", "ns", "lower"),
        m("hwsim.io_write_ns", "ns", "lower"),
        m("hwsim.null_io_ns", "ns", "lower"),
    ]);
    for op in HAND_OPS {
        v.push(m(format!("devices.{op}.model_ns"), "ns", "lower"));
    }
    v.extend([
        // diff_replay
        m("devil_fuzz.diff_ops_per_s", "1/s", "higher"),
        m("devil_fuzz.locate_ms", "ms", "lower"),
        m("devil_fuzz.replay_fast_ns_per_op", "ns", "lower"),
        m("devil_fuzz.replay_general_ns_per_op", "ns", "lower"),
        m("hwsim.leaf_hash_per_s", "1/s", "higher"),
        m("hwsim.bisect_ns", "ns", "lower"),
        m("hwsim.bisect_compares", "count", "lower"),
        m("hwsim.mmr_retained_bytes", "bytes", "lower"),
        m("devil_fuzz.linear_compare_ns_per_op", "ns", "lower"),
    ]);
    v
}

/// Formats a metric value as JSON: finite numbers with all their
/// digits; anything else is a bug upstream and reads as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The metrics this run reports, in registry order, with their units.
pub fn reported(run: &Run) -> Vec<(String, &'static str, f64)> {
    let list: Vec<Metric> = if run.args.trace {
        per_layer()
    } else {
        end_to_end().into_iter().map(|(m, _)| m).collect()
    };
    list.into_iter()
        .map(|m| {
            let v = run.metrics.get(&m.name).copied().unwrap_or(0.0);
            (m.name, m.unit, v)
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(run: &Run) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failed == 0,
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, unit, v)) in reported(run).into_iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v));
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = end_to_end().into_iter().map(|(m, _)| m.name).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "metric names repeat");
        assert!(per_layer().len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squash = |s: &str| s.split_whitespace().collect::<String>();
        let json = squash(&json);
        for (m, bound) in end_to_end() {
            let want = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{bound}}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for m in per_layer() {
            let want = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&want), "BENCHMARK.json lacks {want}");
        }
        assert_eq!(json.matches("\"better\"").count(), end_to_end().len() + per_layer().len());
    }
}
