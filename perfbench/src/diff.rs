//! `diff_replay`: the rooted fast-vs-general differential over all 8
//! shipped specs, plus one injected divergence per spec to locate.
//!
//! One long op stream per spec is replayed through the fast-plan and
//! the general interpreter and compared by MMR root; the figure is ns
//! per root-compared op. Locating replays the stream twice in retained
//! mode, the second time with op `k` corrupted, and bisects the two
//! trees: bisection must name exactly `k`. Each replay lasts tens of
//! milliseconds, so it is timed in CPU time (see [`crate::cpu`]).

use crate::trace::Name;
use crate::{cpu, Library, Run};
use devil_fleet::Rng;
use devil_fuzz::rooted::{check_equivalence_rooted_stream, replay_mmr, OpStream};
use hwsim::mmr::{bisect_divergence, MmrLog};
use std::time::Instant;

struct Stream {
    spec: &'static str,
    ir: std::sync::Arc<devil_ir::DeviceIr>,
    seed: u64,
    /// The op the locate pass corrupts.
    corrupt_at: u64,
}

/// Per-round results.
#[derive(Default)]
struct Round {
    compare_ns: f64,
    ops: u64,
    /// Per spec: both retained replays plus the bisection.
    locate_ns: Vec<f64>,
    compares: u64,
    retained_bytes: u64,
}

fn streams(lib: &Library, seed: u64, ops: u64) -> Vec<Stream> {
    let mut rng = Rng::new(seed ^ 0xd1ff_5eed);
    lib.irs
        .iter()
        .map(|(spec, ir)| Stream {
            spec,
            ir: ir.clone(),
            seed: rng.next_u64(),
            corrupt_at: rng.below(ops),
        })
        .collect()
}

/// One round over every spec: root compare, then locate.
fn round(run: &mut Run, streams: &[Stream], ops: u64) -> Round {
    let mut r = Round::default();
    for (u, s) in streams.iter().enumerate() {
        let unit = u as u32;
        run.calib.take(1);
        let t = cpu::thread_ns();
        let out = run.tr.span(Name::RootedCompare, unit, || {
            check_equivalence_rooted_stream(&s.ir, s.seed, ops)
        });
        r.compare_ns += (cpu::thread_ns() - t) as f64;
        match out {
            Ok(o) => run.check(o.ops == ops, || format!("{}: replayed {} ops", s.spec, o.ops)),
            Err(e) => run.check(false, || format!("{}: fast and general diverge: {e}", s.spec)),
        }
        r.ops += ops;

        let t = cpu::thread_ns();
        let mut clean = run
            .tr
            .span(Name::ReplayRetained, unit, || replay_mmr(&s.ir, true, s.seed, ops, true, None));
        let mut bad = run.tr.span(Name::ReplayRetained, unit, || {
            replay_mmr(&s.ir, false, s.seed, ops, true, Some(s.corrupt_at))
        });
        let (a, b) = (clean.mmr().clone(), bad.mmr().clone());
        let found = run.tr.span(Name::Bisect, unit, || bisect_divergence(&a, &b));
        r.locate_ns.push((cpu::thread_ns() - t) as f64);
        let want = s.corrupt_at + u64::from(run.args.corrupt);
        run.check(found.map(|d| d.leaf) == Some(want), || {
            format!("{}: bisection named {found:?}, injected op {want}", s.spec)
        });
        r.compares += found.map_or(0, |d| d.compares);
        r.retained_bytes += (clean.retained_bytes() + bad.retained_bytes()) as u64;
    }
    let f = run.calib.recent(4 * streams.len());
    r.compare_ns *= f;
    for ns in &mut r.locate_ns {
        *ns *= f;
    }
    r
}

/// The per-layer extras of a traced round: each replay half alone, the
/// leaf hash, and the linear reference comparator.
fn layer_round(run: &mut Run, streams: &[Stream], ops: u64, leaf: &[u8]) {
    for (u, s) in streams.iter().enumerate() {
        let unit = u as u32;
        run.tr.span(Name::ReplayFast, unit, || replay_mmr(&s.ir, true, s.seed, ops, false, None));
        run.tr
            .span(Name::ReplayGeneral, unit, || replay_mmr(&s.ir, false, s.seed, ops, false, None));
        let stream: Vec<devil_fuzz::Op> = OpStream::new(&s.ir, s.seed, ops).collect();
        let out = run
            .tr
            .span(Name::LinearCompare, unit, || devil_fuzz::check_equivalence(&s.ir, &stream));
        run.check(out.is_ok(), || format!("{}: linear comparator disagrees", s.spec));
    }
    let mut log = MmrLog::new(false).with_watermark(usize::MAX, usize::MAX);
    for i in 0..ops {
        let mut entry = leaf.to_vec();
        entry.extend_from_slice(&i.to_le_bytes());
        log.push(&entry);
    }
    run.tr.span(Name::LeafFold, 0, || log.fold());
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let ops: u64 = if run.args.tiny { 200 } else { 3000 };

    let mut setup = Vec::new();
    let mut lib = None;
    for _ in 0..run.setup_reps() {
        drop(lib.take());
        run.calib.take(2);
        let t = cpu::thread_ns();
        lib = Some(Library::compile(&mut run.tr));
        setup.push((cpu::thread_ns() - t) as f64 / 1e9);
    }
    let lib = lib.expect("at least one set-up");
    let setup_s = run.timing("setup (compile)", &setup, "s").median;
    let streams = streams(&lib, run.args.seed, ops);
    let leaf: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37) ^ run.args.seed as u8).collect();

    let min_rounds = if run.args.tiny { 1 } else { 3 };
    let mut rounds: Vec<Round> = Vec::new();
    if run.args.trace {
        // One round to warm the allocator and caches, then half the
        // time untraced and the same rounds traced.
        round(run, &streams, ops);
        layer_round(run, &streams, ops, &leaf);
        let half = std::time::Duration::from_secs_f64(run.args.seconds / 2.0);
        let (wall, t) = (Instant::now(), cpu::thread_ns());
        while rounds.len() < min_rounds || wall.elapsed() < half {
            rounds.push(round(run, &streams, ops));
            layer_round(run, &streams, ops, &leaf);
        }
        let untraced = (cpu::thread_ns() - t) as f64;
        let n = rounds.len();
        let t = cpu::thread_ns();
        crate::traced_segment(run, |run| {
            for _ in 0..n {
                rounds.push(round(run, &streams, ops));
                layer_round(run, &streams, ops, &leaf);
            }
        });
        let traced = (cpu::thread_ns() - t) as f64;
        run.set("bench.trace_overhead_frac", traced / untraced - 1.0);
    } else {
        let deadline = run.deadline();
        while rounds.len() < min_rounds || Instant::now() < deadline {
            rounds.push(round(run, &streams, ops));
        }
    }

    for r in &rounds[1..] {
        run.check(r.compares == rounds[0].compares, || "bisection compares vary".into());
    }
    let op_ns: Vec<f64> = rounds.iter().map(|r| r.compare_ns / r.ops as f64).collect();
    let locate: Vec<f64> = rounds.iter().flat_map(|r| r.locate_ns.iter().copied()).collect();
    let locate_per_op: Vec<f64> =
        rounds.iter().map(|r| r.locate_ns.iter().sum::<f64>() / r.ops as f64).collect();
    let op = run.timing("root compare ns per op", &op_ns, "ns").median;
    let locate_ns = run.timing("locate ns per injected divergence", &locate, "ns").median;
    let locate_op = run.timing("locate ns per stream op", &locate_per_op, "ns").median;
    if !run.args.trace {
        run.set("setup_s", setup_s);
        run.set_prescaled("op_ns", op);
        run.set_prescaled("ref_op_ns", locate_op);
        return;
    }

    let tr = &run.tr;
    let per_op = |n: Name| tr.agg(n).total_ns as f64 / (tr.agg(n).count.max(1) * ops) as f64;
    let metrics = [
        ("devil_fuzz.replay_fast_ns_per_op", per_op(Name::ReplayFast)),
        ("devil_fuzz.replay_general_ns_per_op", per_op(Name::ReplayGeneral)),
        ("hwsim.leaf_hash_per_s", 1e9 / per_op(Name::LeafFold)),
        ("hwsim.bisect_ns", tr.mean_self_ns(Name::Bisect)),
        ("hwsim.bisect_compares", rounds[0].compares as f64),
        ("hwsim.mmr_retained_bytes", rounds[0].retained_bytes as f64),
        ("devil_fuzz.linear_compare_ns_per_op", per_op(Name::LinearCompare)),
    ];
    for (name, v) in metrics {
        run.set(name, v);
    }
    run.set_prescaled("devil_fuzz.diff_ops_per_s", 1e9 / op);
    run.set_prescaled("devil_fuzz.locate_ms", locate_ns / 1e6);
}
