//! Fused-superplan streams: `run_superplan` (one guard evaluation,
//! batched I/O) against `run_superplan_unfused` (the same declared op
//! sequence through the ordinary dispatch paths).
//!
//! A superplan call is one more [`Op`] — [`Op::Super`] — so a fused
//! stream is an ordinary op stream: [`decode_super`] interleaves
//! state-perturbing single ops with calls, [`super_sweep`] invokes
//! every superplan at fixed operands, and the crate's one set of
//! comparators replays them. Fusion is pure dispatch batching, so the
//! fused ≡ unfused check is [`crate::rooted::compare`] over
//! [`Rig::Fast`] and [`Rig::Unfused`]: identical caller observations,
//! device op log, final device state and cache-coherence probe.

use crate::{Op, Rig};
use devil_ir::{DeviceIr, FuseOp, PlanValue};
use devil_runtime::{DeviceInstance, FakeAccess, RtResult};

/// Installs synthetic superplans over the formerly-fallback shapes in
/// [`crate::synthetic`], so the fused differential covers input-dim
/// static resolution, cell-guarded dynamic selection and guard-split
/// read bodies — not just the shipped driver sequences.
///
/// # Panics
///
/// Panics on a fusion error: the shapes below are fixtures, so a
/// failure is a fusion-pass regression.
pub fn install_synthetic(name: &str, ir: &mut DeviceIr) {
    let var = |ir: &DeviceIr, n: &str| ir.var_id(n).unwrap_or_else(|| panic!("{n} exists"));
    let fuse = |ir: &mut DeviceIr, sp: &str, ops: Vec<FuseOp>| {
        if let Err(e) = ir.fuse(sp, ops) {
            panic!("synthetic superplan `{sp}` on `{}` failed to fuse: {e}", ir.name);
        }
    };
    match name {
        // Self-tested write order: `w`'s selector tests the written
        // value itself; the constant operand resolves it at fuse time.
        "selfw" => {
            let (rest, w) = (var(ir, "rest"), var(ir, "w"));
            fuse(
                ir,
                "burst",
                vec![
                    FuseOp::Write { var: rest, value: PlanValue::Arg(0) },
                    FuseOp::Write { var: w, value: PlanValue::Const(1) },
                ],
            );
        }
        // Cell-guarded write order: selection reads the private cell at
        // entry; an out-of-range cell selects the fused catch-all
        // variant (regression-pinned in `tests/fallback.rs`).
        "memw" => {
            let (resta, w) = (var(ir, "resta"), var(ir, "w"));
            fuse(
                ir,
                "burst",
                vec![
                    FuseOp::Write { var: resta, value: PlanValue::Arg(0) },
                    FuseOp::Write { var: w, value: PlanValue::Arg(1) },
                ],
            );
        }
        // Nested pre-action reads: `payload`'s plan embeds the folded
        // (nestedc) or guard-split (nestede) struct flush.
        "nestedc" | "nestede" => {
            let payload = var(ir, "payload");
            fuse(ir, "probe", vec![FuseOp::Read { var: payload }]);
        }
        // Set-action with a self-tested nested order: `rest` discovers
        // an entry-state cache dim, `w` a statically-resolved input dim.
        "selfact" => {
            let (rest, w) = (var(ir, "rest"), var(ir, "w"));
            fuse(
                ir,
                "burst",
                vec![
                    FuseOp::Write { var: rest, value: PlanValue::Arg(0) },
                    FuseOp::Write { var: w, value: PlanValue::Const(1) },
                ],
            );
        }
        other => panic!("no synthetic superplans for `{other}`"),
    }
}

/// One fused-sequence invocation with generated operands.
#[derive(Clone, Debug)]
pub struct SuperCall {
    /// Superplan index.
    pub sid: usize,
    /// Operand values for the superplan's `Arg` slots.
    pub args: Vec<u64>,
    /// Words for the `WriteBlock` op, if the superplan has one.
    pub block_out: Vec<u64>,
    /// Buffer length for the `ReadBlock` op, if the superplan has one.
    pub block_in_len: usize,
}

impl SuperCall {
    /// Dispatches the call on `inst` — fused, or op by op on
    /// [`Rig::Unfused`] — returning the result, the output slots and
    /// the read-block buffer.
    pub fn run(
        &self,
        rig: Rig,
        inst: &mut DeviceInstance,
        dev: &mut FakeAccess,
    ) -> (RtResult<()>, Vec<u64>, Vec<u64>) {
        let mut block_in = vec![0u64; self.block_in_len];
        let mut outs = vec![0u64; inst.ir().superplans()[self.sid].outputs];
        let (sid, args, block_out) = (self.sid, &self.args, &self.block_out);
        let r = if rig == Rig::Unfused {
            inst.run_superplan_unfused(dev, sid, args, block_out, &mut block_in, &mut outs)
        } else {
            inst.run_superplan(dev, sid, args, block_out, &mut block_in, &mut outs)
        };
        (r, outs, block_in)
    }
}

/// Whether superplan `sid` moves a block out and a block in.
pub(crate) fn blocks_of(ir: &DeviceIr, sid: usize) -> (bool, bool) {
    let sp = &ir.superplans()[sid];
    let out = sp.ops.iter().any(|o| matches!(o, FuseOp::WriteBlock { .. }));
    let inp = sp.ops.iter().any(|o| matches!(o, FuseOp::ReadBlock { .. }));
    (out, inp)
}

/// A deterministic in-range sweep: every superplan invoked four times
/// with varying operands and block lengths — including the zero-length
/// block, which must be a true no-op on both paths.
pub fn super_sweep(ir: &DeviceIr) -> Vec<Op> {
    let mut ops = Vec::new();
    for sid in 0..ir.superplans().len() {
        let (has_out, has_in) = blocks_of(ir, sid);
        let nargs = ir.superplans()[sid].args;
        for round in 0..4u64 {
            let args: Vec<u64> = (0..nargs as u64).map(|i| (round * 7 + i * 3) & 0xff).collect();
            let len = [0usize, 1, 4, 16][round as usize];
            let block_out = if has_out {
                (0..len as u64).map(|k| round * 0x1111 + k).collect()
            } else {
                vec![]
            };
            let block_in_len = if has_in { len } else { 0 };
            ops.push(Op::Super(Box::new(SuperCall { sid, args, block_out, block_in_len })));
        }
    }
    ops
}

/// Decodes a raw word stream into state-perturbing single ops
/// interleaved with superplan calls: each call is preceded by the
/// [`crate::decode`] of up to six words. Pure and total, like
/// [`crate::decode`].
pub fn decode_super(ir: &DeviceIr, words: &[u64]) -> Vec<Op> {
    let nsp = ir.superplans().len();
    if nsp == 0 {
        return Vec::new();
    }
    let mut ops = Vec::new();
    let mut i = 0usize;
    let pull = |i: &mut usize| {
        let w = words.get(*i).copied().unwrap_or(0);
        *i += 1;
        w
    };
    while i < words.len() {
        let w = pull(&mut i);
        let pre_len = (w % 4) as usize * 2;
        let pre_words: Vec<u64> = (0..pre_len).map(|_| pull(&mut i)).collect();
        ops.extend(crate::decode(ir, &pre_words));
        let sid = ((w >> 8) % nsp as u64) as usize;
        let (has_out, has_in) = blocks_of(ir, sid);
        let nargs = ir.superplans()[sid].args;
        let args: Vec<u64> = (0..nargs).map(|_| pull(&mut i)).collect();
        let len = ((w >> 16) % 9) as usize;
        let block_out = if has_out { (0..len).map(|_| pull(&mut i)).collect() } else { vec![] };
        let block_in_len = if has_in { len } else { 0 };
        ops.push(Op::Super(Box::new(SuperCall { sid, args, block_out, block_in_len })));
    }
    ops
}
