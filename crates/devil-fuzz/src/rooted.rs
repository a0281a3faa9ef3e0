//! Root-compare equivalence: the differential between any two
//! in-process [`Rig`]s over an MMR-authenticated trace instead of
//! retained observation logs.
//!
//! The linear comparator ([`crate::check_equivalence`]) keeps every
//! observation string and every device-log tuple from both rigs alive
//! until the end — memory grows with replay length, which is what
//! capped differential runs at tens of thousands of ops. Here each op
//! (a single access or one [`Op::Super`] call) folds to one MMR leaf —
//! its observation lines plus its device-op log delta, so the leaf
//! index *is* the op index — both rigs stream in O(peaks) memory, and
//! "bit-identical over N million ops" is one 32-byte root compare.
//!
//! [`compare`] takes the rig pair as an input: fast vs general,
//! fused vs unfused, or any other pairing. On a root mismatch it
//! re-replays in retained mode — replays are pure functions of the op
//! source, so this only costs the failing case — and
//! [`bisect_divergence`] names the first divergent op in O(log N) hash
//! compares; a third, windowed replay then recovers the human-readable
//! lines around that op for the report, labelled with the rig names.
//!
//! Replay length for the long-run tests comes from the `DIFF_OPS` env
//! knob (mirroring `PROPTEST_CASES`), so CI nightlies push millions of
//! ops while PR runs stay fast.

use crate::{probe_ops, run_op, Op, Rig};
use devil_ir::DeviceIr;
use devil_runtime::{DeviceInstance, FakeAccess};
use hwsim::mmr::{bisect_divergence, Hash, MmrLog};

/// Replay length for long-run differential tests: `DIFF_OPS` from the
/// environment, or `default`.
pub fn diff_ops(default: u64) -> u64 {
    parse_diff_ops(std::env::var("DIFF_OPS").ok().as_deref(), default)
}

/// The `DIFF_OPS` parse behind [`diff_ops`], on an explicit value.
///
/// # Panics
///
/// Panics when `var` is set but not an integer.
fn parse_diff_ops(var: Option<&str>, default: u64) -> u64 {
    match var {
        Some(v) => v.parse().unwrap_or_else(|_| panic!("DIFF_OPS must be an integer, got {v:?}")),
        None => default,
    }
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An unbounded deterministic op stream: 128-word chunks from a
/// splitmix64 generator run through [`crate::decode`] on demand, so a
/// million-op replay never materializes a million-`Op` vector. Pure in
/// `(ir, seed)`, like the proptest word streams.
pub struct OpStream<'ir> {
    ir: &'ir DeviceIr,
    state: u64,
    remaining: u64,
    chunk: std::vec::IntoIter<Op>,
}

impl<'ir> OpStream<'ir> {
    /// A stream of exactly `ops` operations derived from `seed`.
    pub fn new(ir: &'ir DeviceIr, seed: u64, ops: u64) -> Self {
        let remaining = if ir.vars.is_empty() { 0 } else { ops };
        OpStream { ir, state: seed, remaining, chunk: Vec::new().into_iter() }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(op) = self.chunk.next() {
                self.remaining -= 1;
                return Some(op);
            }
            let words: Vec<u64> = (0..128).map(|_| splitmix64(&mut self.state)).collect();
            self.chunk = crate::decode(self.ir, &words).into_iter();
        }
    }
}

/// Encodes one op's observable behavior — its observation lines and
/// its device-op log delta — into `scratch` as raw leaf bytes.
pub(crate) fn encode_leaf(
    scratch: &mut Vec<u8>,
    obs: &[String],
    dev_log: &[(bool, usize, u64, u64)],
) {
    scratch.clear();
    for line in obs {
        scratch.extend_from_slice(line.as_bytes());
        scratch.push(b'\n');
    }
    for &(is_write, port, offset, value) in dev_log {
        scratch.push(is_write as u8);
        scratch.extend_from_slice(&(port as u64).to_le_bytes());
        scratch.extend_from_slice(&offset.to_le_bytes());
        scratch.extend_from_slice(&value.to_le_bytes());
    }
}

/// One rig's replay result.
struct Replay {
    log: MmrLog,
    /// `(op index, observation line)` pairs captured inside the
    /// requested window (reporting only).
    window: Vec<(u64, String)>,
    /// Op-stream length (leaves beyond it are the coherence probe and
    /// the final-state digest).
    ops: u64,
}

/// Replays an op source through one rig, folding each op into a leaf.
/// The leaf stream is: one leaf per op, then one leaf per coherence
/// probe read, then one final leaf over the sorted device register
/// file — everything the linear comparator checks, in the same order.
///
/// `corrupt` appends a byte to that op's leaf — the injection hook the
/// bisection sensitivity tests use to fake a single-op divergence.
fn replay<I: Iterator<Item = Op>>(
    ir: &DeviceIr,
    rig: Rig,
    ops: I,
    retain: bool,
    corrupt: Option<u64>,
    window: Option<(u64, u64)>,
) -> Replay {
    let mut inst = rig.instance(ir);
    let mut dev = FakeAccess::new();
    dev.log.reserve(64);
    let mut log = MmrLog::new(retain);
    log.reserve(1024, 96);
    let mut obs: Vec<String> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();
    let mut captured = Vec::new();
    let mut idx = 0u64;
    let mut nops = 0u64;

    let mut fold =
        |op: &Op, inst: &mut DeviceInstance, dev: &mut FakeAccess, idx: u64, log: &mut MmrLog| {
            obs.clear();
            run_op(rig, inst, dev, op, &mut obs);
            encode_leaf(&mut scratch, &obs, &dev.log);
            // The delta is folded; drop it so memory stays O(1) per op.
            dev.log.clear();
            if corrupt == Some(idx) {
                scratch.push(0xA5);
            }
            log.push(&scratch);
            if let Some((lo, hi)) = window {
                if idx >= lo && idx < hi {
                    captured.extend(obs.iter().map(|l| (idx, l.clone())));
                }
            }
        };

    for op in ops {
        fold(&op, &mut inst, &mut dev, idx, &mut log);
        idx += 1;
        nops += 1;
    }
    for op in probe_ops(ir) {
        fold(&op, &mut inst, &mut dev, idx, &mut log);
        idx += 1;
    }
    // Final device state, order-normalized: the rooted analogue of the
    // linear comparator's `fast_dev.regs != slow_dev.regs`.
    encode_final_state(&mut scratch, &dev);
    log.push(&scratch);

    Replay { log, window: captured, ops: nops }
}

/// Encodes the final device register file, order-normalized, as the
/// last leaf of every rooted replay.
pub(crate) fn encode_final_state(scratch: &mut Vec<u8>, dev: &FakeAccess) {
    let mut regs: Vec<(usize, u64, u64)> = dev.regs.iter().map(|(&(p, o), &v)| (p, o, v)).collect();
    regs.sort_unstable();
    scratch.clear();
    for (p, o, v) in regs {
        scratch.extend_from_slice(&(p as u64).to_le_bytes());
        scratch.extend_from_slice(&o.to_le_bytes());
        scratch.extend_from_slice(&v.to_le_bytes());
    }
}

/// One rig's replay of `ops` as an MMR log alone — the building block
/// the sensitivity tests drive directly, with `corrupt` faking a
/// divergence at one op.
pub fn replay_log<I: Iterator<Item = Op>>(
    ir: &DeviceIr,
    rig: Rig,
    ops: I,
    retain: bool,
    corrupt: Option<u64>,
) -> MmrLog {
    replay(ir, rig, ops, retain, corrupt, None).log
}

/// [`replay_log`] over a generated [`OpStream`] on the fast (`fast`) or
/// general rig — the form the benches drive.
pub fn replay_mmr(
    ir: &DeviceIr,
    fast: bool,
    seed: u64,
    ops: u64,
    retain: bool,
    corrupt: Option<u64>,
) -> MmrLog {
    let rig = if fast { Rig::Fast } else { Rig::General };
    replay_log(ir, rig, OpStream::new(ir, seed, ops), retain, corrupt)
}

/// A successful root compare.
#[derive(Clone, Copy, Debug)]
pub struct RootedOutcome {
    /// The agreed 32-byte root.
    pub root: Hash,
    /// Ops replayed (excluding probe and final-state leaves).
    pub ops: u64,
    /// Total leaves under the root.
    pub leaves: u64,
    /// Peak bytes retained by the larger of the two streaming rigs —
    /// the O(peaks) memory bound the streaming mode exists for.
    pub retained_bytes: usize,
}

/// Replays the op source through rigs `a` and `b` and compares one
/// 32-byte root per rig: identical caller observations, device op log,
/// cache-coherence probe and final device state. `source` is called
/// once per replay and must yield the same ops every time. On a
/// mismatch, bisects to the first divergent op and reports the lines
/// around it from both rigs.
pub fn compare<I, F>(ir: &DeviceIr, a: Rig, b: Rig, mut source: F) -> Result<RootedOutcome, String>
where
    I: Iterator<Item = Op>,
    F: FnMut() -> I,
{
    let mut ra = replay(ir, a, source(), false, None, None);
    let mut rb = replay(ir, b, source(), false, None, None);
    let (root_a, root_b) = (ra.log.root(), rb.log.root());
    if root_a == root_b {
        return Ok(RootedOutcome {
            root: root_a,
            ops: ra.ops,
            leaves: ra.log.len(),
            retained_bytes: ra.log.retained_bytes().max(rb.log.retained_bytes()),
        });
    }

    // Mismatch: re-replay retained (replays are pure, so this only
    // costs the failing case), bisect to the first divergent leaf,
    // then re-replay once more capturing the lines around it.
    let mut ra = replay(ir, a, source(), true, None, None);
    let mut rb = replay(ir, b, source(), true, None, None);
    let d = bisect_divergence(ra.log.mmr(), rb.log.mmr())
        .expect("roots differ but retained replay bisects to nothing");
    let what = if d.leaf < ra.ops {
        format!("op {}", d.leaf)
    } else {
        "the cache-coherence probe / final device state".to_string()
    };
    let window = (d.leaf.saturating_sub(2), d.leaf + 3);
    let wa = replay(ir, a, source(), false, None, Some(window));
    let wb = replay(ir, b, source(), false, None, Some(window));
    let lines = |w: &Replay| {
        w.window.iter().map(|(i, l)| format!("    [{i}] {l}")).collect::<Vec<_>>().join("\n")
    };
    Err(format!(
        "trace roots diverge ({root_a:?} vs {root_b:?}): bisection names {what} \
         (leaf {} of {}) in {} hash compares\n  {}:\n{}\n  {}:\n{}",
        d.leaf,
        ra.log.len().max(rb.log.len()),
        d.compares,
        a.name(),
        lines(&wa),
        b.name(),
        lines(&wb),
    ))
}

/// `compare(Fast, General)` over a generated stream of exactly `ops`
/// operations — the long-run entry point: nothing is ever
/// materialized, so `DIFF_OPS=1000000` replays run flat in memory.
pub fn check_equivalence_rooted_stream(
    ir: &DeviceIr,
    seed: u64,
    ops: u64,
) -> Result<RootedOutcome, String> {
    compare(ir, Rig::Fast, Rig::General, || OpStream::new(ir, seed, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::mmr::linear_divergence;

    fn ir(src: &str) -> DeviceIr {
        devil_ir::lower(&devil_sema::check_source(src, &[]).expect("spec checks"))
    }

    const SPEC: &str = r#"device d (base : bit[8] port @ {0..2}) {
        register r = base @ 2 : bit[8];
        variable lo = r[3..0] : int(4);
        variable hi = r[7..4] : int(4);
        register f(i : int{0..1}) = base @ i : bit[8];
        variable fv(i : int{0..1}) = f(i), volatile : int(8);
    }"#;

    #[test]
    fn op_stream_is_deterministic_and_exact() {
        let ir = ir(SPEC);
        let a: Vec<Op> = OpStream::new(&ir, 42, 1000).collect();
        let b: Vec<Op> = OpStream::new(&ir, 42, 1000).collect();
        assert_eq!(a.len(), 1000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c: Vec<Op> = OpStream::new(&ir, 43, 10).collect();
        assert_ne!(format!("{:?}", &a[..10]), format!("{c:?}"));
    }

    #[test]
    fn rooted_and_linear_agree_on_equivalent_rigs() {
        let ir = ir(SPEC);
        let ops: Vec<Op> = OpStream::new(&ir, 7, 500).collect();
        crate::check_equivalence(&ir, &ops).unwrap();
        let out = compare(&ir, Rig::Fast, Rig::General, || ops.iter().cloned()).unwrap();
        assert_eq!(out.ops, 500);
        assert!(out.leaves > 500, "probe and final-state leaves follow the ops");
        let streamed = check_equivalence_rooted_stream(&ir, 7, 500).unwrap();
        assert_eq!(streamed.root, out.root, "slice and stream replays agree");
    }

    #[test]
    fn streaming_replay_memory_is_flat() {
        let ir = ir(SPEC);
        let short = check_equivalence_rooted_stream(&ir, 3, 200).unwrap();
        let long = check_equivalence_rooted_stream(&ir, 3, 20_000).unwrap();
        assert_eq!(long.ops, 20_000);
        // O(peaks) + constant arenas: 100× the ops must not even
        // double the retained bytes.
        assert!(
            long.retained_bytes < short.retained_bytes * 2,
            "retained {} vs {}",
            long.retained_bytes,
            short.retained_bytes
        );
    }

    #[test]
    fn injected_divergence_bisects_to_the_op_the_linear_scan_names() {
        let ir = ir(SPEC);
        let n = 800u64;
        let reference = replay_mmr(&ir, true, 11, n, true, None);
        for k in [0u64, 1, 17, 399, 799] {
            let mut mutated = replay_mmr(&ir, true, 11, n, true, Some(k));
            let mut clean = reference.clone();
            let d = bisect_divergence(clean.mmr(), mutated.mmr()).expect("corrupted leaf");
            assert_eq!(d.leaf, k, "bisection names the injected op");
            assert_eq!(linear_divergence(clean.mmr(), mutated.mmr()), Some(k));
            let bound = 2 * (64 - n.leading_zeros() as u64) + 2;
            assert!(d.compares <= bound, "{} compares > {bound}", d.compares);
        }
    }

    #[test]
    fn mismatch_report_names_the_first_divergent_op() {
        // Two *different* seeds replayed against each other via the
        // public checker would both be internally equivalent, so fake
        // a divergence through the corrupt hook at the replay level
        // and check the reporting path end to end.
        let ir = ir(SPEC);
        let mut a = replay_mmr(&ir, true, 5, 300, true, None);
        let mut b = replay_mmr(&ir, false, 5, 300, true, Some(123));
        assert_ne!(a.root(), b.root());
        let d = bisect_divergence(a.mmr(), b.mmr()).unwrap();
        assert_eq!(d.leaf, 123);
    }

    #[test]
    fn diff_ops_reads_the_env_knob() {
        assert_eq!(parse_diff_ops(None, 777), 777);
        assert_eq!(parse_diff_ops(Some("5"), 777), 5);
        assert_eq!(parse_diff_ops(Some("1000000"), 777), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "DIFF_OPS must be an integer, got \"lots\"")]
    fn diff_ops_rejects_a_non_integer() {
        parse_diff_ops(Some("lots"), 777);
    }
}
