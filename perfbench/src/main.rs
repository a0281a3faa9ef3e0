//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use perfbench::{alloc, host, metrics, Args, Workload};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        tiny: false,
        corrupt: false,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_mixed|driver_loop|diff_replay> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = perfbench::run(args);
    host::write_files(&run);
    for (k, v) in host::host() {
        eprintln!("host.{k}: {v}");
    }
    for (what, t, unit) in &run.timings {
        eprintln!(
            "{what}: median {:.1} {unit}, p99 {:.1}, iqr {:.1}% over {} samples",
            t.median,
            t.p99,
            t.iqr_frac * 100.0,
            t.samples
        );
    }
    if args.trace {
        eprint!("{}", run.tr.table());
    }
    for (name, unit, v) in metrics::reported(&run) {
        eprintln!("{name} = {v} {unit}");
    }
    println!("{}", metrics::result_line(&run));
    ExitCode::SUCCESS
}
