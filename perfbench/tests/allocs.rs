//! `allocs_per_call` under the counting allocator the benchmark binary
//! installs. A file of its own with a single test, so no other test
//! thread allocates while a count is running.

use perfbench::{alloc, metrics, run, Args, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[test]
fn allocs_per_call_are_counted_and_repeat() {
    let args = Args {
        workload: Workload::DriverLoop,
        seed: 7,
        seconds: 0.05,
        trace: true,
        tiny: true,
        corrupt: false,
    };
    let (a, b) = (run(args), run(args));
    let mut total = 0.0;
    for op in metrics::DEVIL_OPS {
        let name = format!("drivers.{op}.allocs_per_call");
        assert_eq!(a.metrics[&name], b.metrics[&name], "{name} differs between runs");
        total += a.metrics[&name];
    }
    // Every driver call builds a `PortMap`, whose port list is a `Vec`.
    assert!(total >= metrics::DEVIL_OPS.len() as f64, "allocations were not counted");
}
