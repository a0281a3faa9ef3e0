//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! `perfbench --workload <fleet_mixed|driver_loop|diff_replay> --seed <n>
//! --seconds <s> --trace <0|1>` builds every input from the seed, runs
//! the workload for about `s` seconds, checks its outputs, writes a
//! result file with a `host` block under `perfbench/out/`, and prints
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `README.md` beside this crate lists the public functions each layer
//! is timed through and which end-to-end metric each layer metric moves.

pub mod alloc;
mod calib;
mod cpu;
mod diff;
mod driver_loop;
mod fleet;
pub mod host;
pub mod metrics;
mod probe;
mod stats;
mod trace;

use devil_ir::DeviceIr;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Name, Tracer};

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetMixed,
    DriverLoop,
    DiffReplay,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] =
        [Workload::FleetMixed, Workload::DriverLoop, Workload::DiffReplay];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMixed => "fleet_mixed",
            Workload::DriverLoop => "driver_loop",
            Workload::DiffReplay => "diff_replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds the timed phase runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Corrupts one checked result, so the tests can see a gate fail.
    pub corrupt: bool,
}

/// What a run accumulates: metrics, correctness counts, timing
/// summaries and the span recorder.
pub struct Run {
    pub args: Args,
    pub tr: Tracer,
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Timing summaries `(what, summary, unit)` for the result file.
    pub timings: Vec<(String, stats::Summary, &'static str)>,
    /// Host-speed calibration samples taken between measurements.
    pub calib: calib::Calib,
    /// Metrics already expressed at the nominal host speed, sample by
    /// sample; the run-level scaling leaves them alone.
    prescaled: Vec<String>,
}

impl Run {
    /// A fresh run; the recorder starts off and is switched on around
    /// the traced segment.
    pub fn new(args: Args) -> Self {
        Run {
            args,
            tr: Tracer::new(false),
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            timings: Vec::new(),
            calib: calib::Calib::default(),
            prescaled: Vec::new(),
        }
    }

    /// Counts one correctness check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a timing metric computed from samples that were each
    /// scaled to the nominal host speed already.
    pub fn set_prescaled(&mut self, name: &str, value: f64) {
        self.set(name, value);
        self.prescaled.push(name.to_string());
    }

    /// Records a timing summary for the result file and returns it.
    pub fn timing(&mut self, what: &str, samples: &[f64], unit: &'static str) -> stats::Summary {
        let s = stats::Summary::of(samples);
        self.timings.push((what.to_string(), s, unit));
        s
    }

    /// The timed phase's deadline, starting now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.args.seconds)
    }

    /// Set-up repetitions: `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.args.tiny {
            1
        } else {
            9
        }
    }
}

/// The shipped spec library, compiled the way the drivers compile it.
pub struct Library {
    /// `(spec name, shared IR)` in `drivers::specs::ALL` order.
    pub irs: Vec<(&'static str, Arc<DeviceIr>)>,
}

impl Library {
    /// Checks, lowers and installs superplans for every shipped spec,
    /// each step in its own span.
    pub fn compile(tr: &mut Tracer) -> Self {
        let irs = drivers::specs::ALL
            .iter()
            .enumerate()
            .map(|(i, &(name, src))| {
                let unit = i as u32;
                let model = tr.span(Name::CheckSource, unit, || {
                    devil_sema::check_source(src, &[]).expect("shipped spec checks")
                });
                let mut ir = tr.span(Name::Lower, unit, || devil_ir::lower(&model));
                tr.span(Name::SuperplansInstall, unit, || drivers::superplans::install(&mut ir));
                (name, Arc::new(ir))
            })
            .collect();
        Library { irs }
    }

    /// The IR of spec `name`.
    pub fn ir(&self, name: &str) -> Arc<DeviceIr> {
        self.irs.iter().find(|(n, _)| *n == name).expect("shipped spec").1.clone()
    }
}

/// Per-layer set-up metrics: the library compile split into its three
/// steps, each summed over the 8 specs (median over `reps` compiles).
pub fn library_layer_metrics(run: &mut Run) {
    let reps = run.setup_reps();
    let was_on = run.tr.is_on();
    run.tr.set_on(true);
    let before = [Name::CheckSource, Name::Lower, Name::SuperplansInstall].map(|n| run.tr.agg(n));
    for _ in 0..reps {
        Library::compile(&mut run.tr);
    }
    run.tr.set_on(was_on);
    for ((name, metric), b) in [
        (Name::CheckSource, "devil_sema.check_us"),
        (Name::Lower, "devil_ir.lower_us"),
        (Name::SuperplansInstall, "drivers.superplans_install_us"),
    ]
    .into_iter()
    .zip(before)
    {
        let total = run.tr.agg(name).total_ns - b.total_ns;
        run.set(metric, total as f64 / reps as f64 / 1e3);
    }
}

/// Runs `f` as the traced segment under the root span and records the
/// accounting metrics: each layer's self-time share of the segment and
/// the unaccounted remainder (the root's own self time).
pub fn traced_segment<R>(run: &mut Run, f: impl FnOnce(&mut Run) -> R) -> R {
    run.tr.set_on(true);
    let before: Vec<(&'static str, u64)> = run.tr.layer_self_ns();
    let root_before = run.tr.agg(Name::Root).self_ns;
    run.tr.enter(Name::Root, 0);
    let r = f(run);
    let wall = run.tr.exit();
    run.tr.set_on(false);
    let root_self = run.tr.agg(Name::Root).self_ns - root_before;
    run.set("bench.unaccounted_frac", root_self as f64 / wall.max(1) as f64);
    for ((layer, after), (_, b)) in run.tr.layer_self_ns().into_iter().zip(before) {
        if metrics::SELF_SHARE_LAYERS.contains(&layer) {
            run.set(&format!("self_share.{layer}"), (after - b) as f64 / wall.max(1) as f64);
        }
    }
    r
}

/// Expresses every timing metric not scaled sample by sample at the
/// nominal host speed, with the run's factor (see [`calib`]); counts,
/// shares and sizes are left as measured.
fn scale_to_nominal(run: &mut Run) {
    let scale = run.calib.scale();
    run.set("bench.host_speed", scale);
    let mut list: Vec<(String, &'static str)> =
        metrics::per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
    list.extend(metrics::end_to_end().into_iter().map(|(m, _)| (m.name, m.unit)));
    for (name, unit) in list {
        if run.prescaled.contains(&name) {
            continue;
        }
        if let Some(v) = run.metrics.get_mut(&name) {
            match unit {
                "ns" | "us" | "ms" | "s" => *v *= scale,
                "1/s" => *v /= scale,
                _ => {}
            }
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload end to end and returns the finished run.
pub fn run(args: Args) -> Run {
    let mut run = Run::new(args);
    let reps = if args.tiny { 1 } else { 10 };
    run.calib.take(reps);
    match args.workload {
        Workload::FleetMixed => fleet::run(&mut run),
        Workload::DriverLoop => driver_loop::run(&mut run),
        Workload::DiffReplay => diff::run(&mut run),
    }
    if args.trace {
        library_layer_metrics(&mut run);
        let frac = run.failed as f64 / run.attempted.max(1) as f64;
        run.set("bench.failed_frac", frac);
    } else {
        run.set("peak_rss_mb", peak_rss_mb());
    }
    run.calib.take(reps);
    let samples = run.calib.samples().to_vec();
    run.timing("calibration loop", &samples, "ns");
    scale_to_nominal(&mut run);
    run
}
