//! The `host` block every result carries, and the result file.

use crate::metrics;
use crate::Run;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Where result and span files go: `perfbench/out/` in the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `(key, value)` pairs: nproc, CPU model, `rustc -V`, git revision and
/// build profile.
pub fn host() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout of its own: a plain source tree
    // nested in some other repository must not report that one's head.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git = if std::path::Path::new(root).join(".git").exists() {
        command_line("git", &["-C", root, "rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_rev", git),
        ("profile", profile.to_string()),
    ]
}

fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// The full result as JSON: host, correctness, every metric, and every
/// timing with its sample count and spread.
pub fn result_json(run: &Run) -> String {
    let a = &run.args;
    let mut s = String::from("{\n  \"host\": {");
    for (i, (k, v)) in host().into_iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": {}", if i > 0 { ", " } else { "" }, quote(&v));
    }
    let _ = write!(
        s,
        "}},\n  \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {},\n  \
         \"correct\": {}, \"attempted\": {}, \"failed\": {},\n  \"metrics\": {{",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        run.failed == 0,
        run.attempted,
        run.failed
    );
    for (i, (name, unit, v)) in metrics::reported(run).into_iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { "," } else { "" },
            metrics::num(v)
        );
    }
    s.push_str("\n  },\n  \"timings\": [");
    for (i, (what, t, unit)) in run.timings.iter().enumerate() {
        let f = metrics::num;
        let _ = write!(
            s,
            "{}\n    {{\"what\": {}, \"unit\": \"{unit}\", \"median\": {}, \"p99\": {}, \
             \"iqr_frac\": {}, \"samples\": {}}}",
            if i > 0 { "," } else { "" },
            quote(what),
            f(t.median),
            f(t.p99),
            f(t.iqr_frac),
            t.samples
        );
    }
    s.push_str("\n  ],\n  \"self_time\": ");
    s.push_str(&quote(&run.tr.table()));
    s.push_str("\n}\n");
    s
}

/// Writes the result file (and, for a traced run, the span file) under
/// [`out_dir`]. Failure to write is reported and does not fail the run.
pub fn write_files(run: &Run) {
    let a = &run.args;
    let stem = format!("{}-seed{}-trace{}", a.workload.name(), a.seed, a.trace as u8);
    let dir = out_dir();
    let result = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), result_json(run)))
        .and_then(|()| {
            if a.trace {
                std::fs::write(dir.join(format!("{stem}.spans.tsv")), run.tr.spans_tsv())
            } else {
                Ok(())
            }
        });
    if let Err(e) = result {
        eprintln!("perfbench: could not write results under {}: {e}", dir.display());
    }
}
