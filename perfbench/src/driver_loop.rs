//! `driver_loop`: the paper's comparison, one closed-loop client.
//!
//! Each op has one Devil rig and, where the paper has one, one
//! hand-written rig: an untraced bus, a real device model and the
//! driver. Every round runs one batch of each rig over the same seeded
//! inputs, so noise on the host lands on every op alike; an op's figure
//! is the median ns per call over its batches.
//!
//! Gates: on separate recording rigs, each Devil call's result must
//! equal the hand driver's and both devices must end in the same state
//! (for `dma_program` and `codec_index`, which have no hand driver, the
//! reference is the same Devil call on the general interpreter). After
//! the timed phase the timing rigs are compared the same way.

use crate::metrics::{DEVIL_OPS, HAND_OPS, PAIRED_OPS, RUNTIME_OPS};
use crate::probe::{NullAccess, NullDevice, Shared};
use crate::stats::{geomean, Summary};
use crate::trace::Name;
use crate::{alloc, Library, Run};
use devices::ide::SECTOR_SIZE;
use devices::{Busmouse, Cs4236b, IdeController, Ne2000, Permedia2, I8237, I8259};
use devil_fleet::Rng;
use devil_runtime::{DeviceAccess, DeviceInstance, MappedPort, PortMap};
use devil_sema::model::{StructId, VarId};
use drivers::{
    Depth, DevilBusmouse, DevilIde, DevilNe2000, DevilPic8259, DevilPm2, HandBusmouse, HandIde,
    HandNe2000, HandPic8259, HandPm2, MouseState, PicConfig, PioConfig, PioMove,
};
use hwsim::{Bus, IrqLine, SharedMem, Width};
use std::hint::black_box;
use std::time::Instant;

const MOUSE: u64 = 0x23c;
const PIC: u64 = 0x20;
const IDE: u64 = 0x1f0;
const NE2K: u64 = 0x300;
const PM2: u64 = 0xf000_0000;
const DMA: u64 = 0x0;
const CODEC: u64 = 0x534;
const IDE_SECTORS: u64 = 32;
const PM2_W: u32 = 128;
const PM2_H: u32 = 64;
const FRAME: usize = 1514;
/// Sectors per `pio_read4` call.
const PIO_SECTORS: u32 = 4;
/// Batches kept per op: room for a minute of rounds. The timed phase
/// stops at half of it, so a traced run's second half fits too.
const MAX_ROUNDS: usize = 1 << 17;

/// The seeded inputs every rig draws from, cycled in order.
struct Inputs {
    mouse: Vec<(i8, i8, u8)>,
    pic: Vec<PicConfig>,
    lba: Vec<u32>,
    frames: Vec<Vec<u8>>,
    rects: Vec<[u32; 5]>,
    dma: Vec<DmaInput>,
    codec: Vec<CodecInput>,
}

/// `(channel, mode, address, count, master clear)`.
type DmaInput = (usize, u64, u64, u64, bool);
/// `(write index, value, read index, extended (index, value))`.
type CodecInput = (u64, u64, u64, Option<(u64, u64)>);

impl Inputs {
    /// `n` inputs of each kind from `seed`.
    fn new(seed: u64, n: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0xd21e_100b);
        let r = &mut rng;
        let mouse =
            (0..n).map(|_| (r.next_u64() as i8, r.next_u64() as i8, r.below(8) as u8)).collect();
        let pic = (0..n)
            .map(|_| PicConfig {
                single: r.chance(1, 2),
                with_icw4: r.chance(1, 2),
                vector_base: (r.below(32) << 3) as u8,
                cascade_map: 0x04,
                x86: r.chance(1, 2),
                auto_eoi: r.chance(1, 4),
                irq_mask: r.next_u64() as u8,
            })
            .collect();
        let lba = (0..n).map(|_| r.below(IDE_SECTORS - PIO_SECTORS as u64 + 1) as u32).collect();
        let frames = (0..n.min(8))
            .map(|_| {
                let mut f = vec![0u8; FRAME];
                f[..6].copy_from_slice(&[0xff; 6]);
                f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
                for b in &mut f[12..] {
                    *b = r.next_u64() as u8;
                }
                f
            })
            .collect();
        let rects = (0..n)
            .map(|_| {
                let x = r.below((PM2_W - 16) as u64) as u32;
                let y = r.below((PM2_H - 8) as u64) as u32;
                [x, y, 1 + r.below(16) as u32, 1 + r.below(8) as u32, r.next_u64() as u32]
            })
            .collect();
        let dma = (0..n)
            .map(|_| {
                let ch = r.below(4) as usize;
                let mode = (r.next_u64() & 0xfc) | ch as u64;
                (ch, mode, r.below(1 << 16), r.below(256), r.chance(1, 16))
            })
            .collect();
        // I23 is the extended-register gateway; plain data goes to the
        // other 31 indexed registers.
        let plain = |r: &mut Rng| {
            let i = r.below(31);
            if i >= 23 {
                i + 1
            } else {
                i
            }
        };
        let codec = (0..n)
            .map(|_| {
                let (i, v, j) = (plain(r), r.below(256), plain(r));
                let x = r.chance(1, 4).then(|| {
                    let x = r.below(19);
                    (if x == 18 { 25 } else { x }, r.below(256))
                });
                (i, v, j, x)
            })
            .collect();
        Inputs { mouse, pic, lba, frames, rects, dma, codec }
    }
}

/// Which implementation a rig runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Devil,
    Hand,
    /// The Devil call on the general interpreter: the reference for ops
    /// without a hand-written driver.
    General,
}

struct DmaIds {
    addr: [VarId; 4],
    count: [VarId; 4],
    mode: VarId,
    single_mask: VarId,
    tc_status: VarId,
    master_clear: VarId,
}

impl DmaIds {
    fn of(dev: &DeviceInstance) -> Self {
        let v = |n: &str| dev.var_id(n).expect("dma8237 exports its registers");
        DmaIds {
            addr: [v("addr0"), v("addr1"), v("addr2"), v("addr3")],
            count: [v("count0"), v("count1"), v("count2"), v("count3")],
            mode: v("mode"),
            single_mask: v("single_mask"),
            tc_status: v("tc_status"),
            master_clear: v("master_clear"),
        }
    }
}

struct CodecIds {
    id: VarId,
    xd: VarId,
}

impl CodecIds {
    fn of(dev: &DeviceInstance) -> Self {
        CodecIds {
            id: dev.var_id("ID").expect("cs4236b exports ID"),
            xd: dev.var_id("XD").expect("cs4236b exports XD"),
        }
    }
}

// One rig per op, built once and never moved on a hot path, so the
// variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Drv {
    MouseDevil(DevilBusmouse),
    MouseHand(HandBusmouse),
    PicDevil(DevilPic8259, bool),
    PicHand(HandPic8259),
    IdeDevil(DevilIde, bool),
    IdeHand(HandIde),
    NeDevil(DevilNe2000, bool),
    NeHand(HandNe2000),
    PmDevil(DevilPm2, bool),
    PmHand(HandPm2),
    Dma(DeviceInstance, DmaIds),
    Codec(DeviceInstance, CodecIds),
}

enum Dev {
    Mouse(Shared<Busmouse>),
    Pic(Shared<I8259>),
    Ide(Shared<IdeController>),
    Ne(Shared<Ne2000>),
    Pm(Shared<Permedia2>),
    Dma(Shared<I8237>),
    Codec(Shared<Cs4236b>),
}

/// One op's bus, device and driver.
struct Rig {
    op: &'static str,
    side: Side,
    bus: Bus,
    drv: Drv,
    dev: Dev,
    /// Calls made so far; also the input cursor.
    calls: u64,
    /// Order-sensitive digest of every result.
    digest: u64,
}

fn mix(digest: u64, v: u64) -> u64 {
    (digest ^ v).wrapping_mul(0x0100_0000_01b3).rotate_left(7)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn pack_mouse(s: MouseState) -> u64 {
    (s.dx as u8 as u64) | ((s.dy as u8 as u64) << 8) | ((s.buttons as u64) << 16)
}

fn pio_cfg() -> PioConfig {
    PioConfig { sectors_per_irq: 1, io32: false, moves: PioMove::Block }
}

/// The disk image of every IDE rig.
fn disk_byte(i: usize) -> u8 {
    ((i / SECTOR_SIZE) * 7 + i % SECTOR_SIZE) as u8
}

fn devil(lib: &Library, spec: &str, side: Side) -> DeviceInstance {
    let mut inst = DeviceInstance::with_shared_ir(lib.ir(spec));
    if side == Side::General {
        inst.set_fast_plans(false);
    }
    inst
}

impl Rig {
    /// Builds the rig of `op` on `side`; `record` logs device accesses.
    fn new(lib: &Library, op: &'static str, side: Side, record: bool) -> Rig {
        let mut bus = Bus::default();
        let fused = op.ends_with("_fused");
        let hand = side == Side::Hand;
        let (drv, dev) = match op.trim_end_matches("_fused") {
            "mouse_read" => {
                let d = Shared::new(Busmouse::new(IrqLine::new()), record);
                bus.attach_io(Box::new(d.handle()), MOUSE, 4);
                let drv = if hand {
                    Drv::MouseHand(HandBusmouse::new(MOUSE))
                } else {
                    Drv::MouseDevil(DevilBusmouse::with_instance(
                        MOUSE,
                        devil(lib, "busmouse", side),
                    ))
                };
                (drv, Dev::Mouse(d))
            }
            "pic_init" => {
                let d = Shared::new(I8259::new(IrqLine::new()), record);
                bus.attach_io(Box::new(d.handle()), PIC, 2);
                let drv = if hand {
                    Drv::PicHand(HandPic8259::new(PIC))
                } else {
                    let inst = devil(lib, "pic8259", side);
                    Drv::PicDevil(DevilPic8259::with_instance(PIC, inst), fused)
                };
                (drv, Dev::Pic(d))
            }
            "pio_read4" => {
                let mut ctl = IdeController::new(IDE_SECTORS, IrqLine::new(), SharedMem::new(4096));
                for (i, b) in ctl.disk_mut().iter_mut().enumerate() {
                    *b = disk_byte(i);
                }
                let d = Shared::new(ctl, record);
                bus.attach_io(Box::new(d.handle()), IDE, 16);
                let drv = if hand {
                    Drv::IdeHand(HandIde::new(IDE))
                } else {
                    let (ide, bm) = (devil(lib, "ide", side), devil(lib, "piix4ide", side));
                    Drv::IdeDevil(DevilIde::with_instances(IDE, ide, bm), fused)
                };
                (drv, Dev::Ide(d))
            }
            "ne2k_tx" => {
                let d = Shared::new(Ne2000::new([2, 0, 0, 0, 0, 1], IrqLine::new()), record);
                bus.attach_io(Box::new(d.handle()), NE2K, 18);
                let drv = if hand {
                    let h = HandNe2000::new(NE2K);
                    h.start(&mut bus);
                    Drv::NeHand(h)
                } else {
                    let mut v = DevilNe2000::with_instance(NE2K, devil(lib, "ne2000", side));
                    v.start(&mut bus);
                    Drv::NeDevil(v, fused)
                };
                (drv, Dev::Ne(d))
            }
            "pm2_fill" => {
                let d = Shared::new(Permedia2::new(PM2_W, PM2_H), record);
                bus.attach_mem(Box::new(d.handle()), PM2, 4096);
                let drv = if hand {
                    let mut h = HandPm2::new(PM2, Depth::Bpp16);
                    h.set_depth(&mut bus);
                    Drv::PmHand(h)
                } else {
                    let inst = devil(lib, "permedia2", side);
                    let mut v = DevilPm2::with_instance(PM2, Depth::Bpp16, inst);
                    v.set_depth(&mut bus);
                    Drv::PmDevil(v, fused)
                };
                (drv, Dev::Pm(d))
            }
            "dma_program" => {
                let d = Shared::new(I8237::new(SharedMem::new(1024)), record);
                bus.attach_io(Box::new(d.handle()), DMA, 16);
                let inst = devil(lib, "dma8237", side);
                let ids = DmaIds::of(&inst);
                (Drv::Dma(inst, ids), Dev::Dma(d))
            }
            "codec_index" => {
                let d = Shared::new(Cs4236b::new(), record);
                bus.attach_io(Box::new(d.handle()), CODEC, 2);
                let inst = devil(lib, "cs4236b", side);
                let ids = CodecIds::of(&inst);
                (Drv::Codec(inst, ids), Dev::Codec(d))
            }
            other => panic!("unknown driver_loop op {other}"),
        };
        Rig { op, side, bus, drv, dev, calls: 0, digest: 0 }
    }

    /// Runs the next call on the next input and returns its result.
    fn call(&mut self, inp: &Inputs) -> u64 {
        let i = self.calls as usize;
        self.calls += 1;
        let bus = &mut self.bus;
        let r = match &mut self.drv {
            Drv::MouseDevil(_) | Drv::MouseHand(_) => {
                let (dx, dy, b) = inp.mouse[i % inp.mouse.len()];
                if let Dev::Mouse(d) = &self.dev {
                    let mut m = d.dev();
                    m.move_by(dx, dy);
                    m.set_buttons(b);
                }
                let s = match &mut self.drv {
                    Drv::MouseDevil(v) => v.read_state(bus),
                    Drv::MouseHand(h) => h.read_state(bus),
                    _ => unreachable!("mouse rig"),
                };
                pack_mouse(s)
            }
            Drv::PicDevil(v, fused) => {
                let cfg = inp.pic[i % inp.pic.len()];
                if *fused {
                    v.init_fused(bus, cfg);
                } else {
                    v.init(bus, cfg);
                }
                0
            }
            Drv::PicHand(h) => {
                h.init(bus, inp.pic[i % inp.pic.len()]);
                0
            }
            Drv::IdeDevil(v, fused) => {
                let lba = inp.lba[i % inp.lba.len()];
                let data = if *fused {
                    v.read_pio_fused(bus, lba, PIO_SECTORS, pio_cfg())
                } else {
                    v.read_pio(bus, lba, PIO_SECTORS, pio_cfg())
                };
                fnv(&data)
            }
            Drv::IdeHand(h) => {
                let lba = inp.lba[i % inp.lba.len()];
                fnv(&h.read_pio(bus, lba, PIO_SECTORS, pio_cfg()))
            }
            Drv::NeDevil(v, fused) => {
                let frame = &inp.frames[i % inp.frames.len()];
                if *fused {
                    v.send_fused(bus, frame);
                } else {
                    v.send(bus, frame);
                }
                0
            }
            Drv::NeHand(h) => {
                h.send(bus, &inp.frames[i % inp.frames.len()]);
                0
            }
            Drv::PmDevil(v, fused) => {
                let [x, y, w, h, c] = inp.rects[i % inp.rects.len()];
                if *fused {
                    v.fill_rect_fused(bus, x, y, w, h, c);
                } else {
                    v.fill_rect(bus, x, y, w, h, c);
                }
                0
            }
            Drv::PmHand(p) => {
                let [x, y, w, h, c] = inp.rects[i % inp.rects.len()];
                p.fill_rect(bus, x, y, w, h, c);
                0
            }
            Drv::Dma(dev, ids) => {
                let mut map = PortMap::new(bus, vec![MappedPort::io(DMA)]);
                dma_program(dev, &mut map, ids, inp.dma[i % inp.dma.len()])
            }
            Drv::Codec(dev, ids) => {
                let mut map = PortMap::new(bus, vec![MappedPort::io(CODEC)]);
                codec_index(dev, &mut map, ids, inp.codec[i % inp.codec.len()])
            }
        };
        self.digest = mix(self.digest, r);
        r
    }

    /// The device's state as far as the benchmark can observe it,
    /// reading back through the bus where the model has no getter.
    fn state(&mut self) -> Vec<u64> {
        match &self.dev {
            Dev::Mouse(d) => {
                let m = d.dev();
                vec![m.config() as u64, m.irq_enabled() as u64]
            }
            Dev::Pic(d) => {
                let flags = {
                    let p = d.dev();
                    [p.initialized() as u64, p.single() as u64, p.needs_icw4() as u64]
                };
                let mut v = flags.to_vec();
                v.push(self.bus.inb(PIC + 1) as u64);
                v
            }
            Dev::Ide(d) => {
                let multiple = d.dev().multiple() as u64;
                vec![multiple, self.bus.inb(IDE + devices::ide::reg::COMMAND) as u64]
            }
            Dev::Ne(d) => {
                let n = d.dev();
                let sent = n.transmitted.iter().fold(0, |h, f| mix(h, fnv(f)));
                vec![n.started() as u64, n.page() as u64, n.transmitted.len() as u64, sent]
            }
            Dev::Pm(d) => {
                let p = d.dev();
                let mut h = p.bpp() as u64;
                for y in 0..PM2_H {
                    for x in 0..PM2_W {
                        h = mix(h, p.pixel(x, y) as u64);
                    }
                }
                vec![h]
            }
            Dev::Dma(d) => vec![d.dev().flip_flop() as u64],
            Dev::Codec(d) => vec![d.dev().extended_mode() as u64],
        }
    }

    /// The last frame the NIC transmitted, for `ne2k_tx` rigs.
    fn last_frame(&self) -> Option<Vec<u8>> {
        match &self.dev {
            Dev::Ne(d) => d.dev().transmitted.last().cloned(),
            _ => None,
        }
    }

    /// Drops the NIC's record of transmitted frames, which otherwise
    /// grows with every call; both sides of a pair trim at the same
    /// points, so their states stay comparable.
    fn trim(&mut self) {
        if let Dev::Ne(d) = &self.dev {
            d.dev().transmitted.clear();
        }
    }

    /// Every access the device saw (recording rigs only).
    fn log(&self) -> Vec<crate::probe::Access> {
        match &self.dev {
            Dev::Mouse(d) => d.log(),
            Dev::Pic(d) => d.log(),
            Dev::Ide(d) => d.log(),
            Dev::Ne(d) => d.log(),
            Dev::Pm(d) => d.log(),
            Dev::Dma(d) => d.log(),
            Dev::Codec(d) => d.log(),
        }
    }

    /// Bus operations per call so far, counting each block word.
    fn bus_ops_per_call(&self) -> f64 {
        self.bus.ledger().total_ops() as f64 / self.calls.max(1) as f64
    }
}

/// 8237A channel programming as the fleet rig issues it: mode, mask,
/// the 16-bit address and count pairs, unmask, status read.
fn dma_program(
    dev: &mut DeviceInstance,
    map: &mut dyn DeviceAccess,
    ids: &DmaIds,
    (ch, mode, addr, count, clear): DmaInput,
) -> u64 {
    dev.write_id(map, ids.mode, &[], mode).expect("mode");
    dev.write_id(map, ids.single_mask, &[], 0b100 | ch as u64).expect("mask");
    dev.write_id(map, ids.addr[ch], &[], addr).expect("address");
    dev.write_id(map, ids.count[ch], &[], count).expect("count");
    dev.write_id(map, ids.single_mask, &[], ch as u64).expect("unmask");
    let status = dev.read_id(map, ids.tc_status, &[]).expect("status");
    if clear {
        dev.write_id(map, ids.master_clear, &[], 1).expect("master clear");
    }
    status
}

/// CS4236B indexed write and read, sometimes an extended register.
fn codec_index(
    dev: &mut DeviceInstance,
    map: &mut dyn DeviceAccess,
    ids: &CodecIds,
    (i, v, j, x): CodecInput,
) -> u64 {
    dev.write_id(map, ids.id, &[i], v).expect("indexed write");
    let mut r = dev.read_id(map, ids.id, &[j]).expect("indexed read");
    if let Some((x, xv)) = x {
        dev.write_id(map, ids.xd, &[x], xv).expect("extended write");
        r = mix(r, dev.read_id(map, ids.xd, &[x]).expect("extended read"));
    }
    r
}

/// The reference side and its op for each Devil op.
fn reference(op: &'static str) -> (Side, &'static str) {
    match PAIRED_OPS.iter().find(|(o, _)| *o == op) {
        Some(&(_, hand)) => (Side::Hand, hand),
        None => (Side::General, op),
    }
}

/// Compares a Devil rig with its reference rig after the same inputs.
/// Against the general interpreter the device must also have seen the
/// very same accesses; a hand driver may order or compose its writes
/// differently (and the IDE and Permedia2 Devil drivers add accesses by
/// design, the paper's Tables 2-4), so there only results and device
/// state must agree.
fn compare(run: &mut Run, d: &mut Rig, r: &mut Rig) {
    let op = d.op;
    run.check(d.calls == r.calls && d.digest == r.digest, || {
        format!("{op}: Devil results differ from the {:?} driver's", r.side)
    });
    let (sd, sr) = (d.state(), r.state());
    run.check(sd == sr, || format!("{op}: device state {sd:?} differs from reference {sr:?}"));
    if r.side == Side::General {
        run.check(d.log() == r.log(), || format!("{op}: device accesses differ from reference"));
    }
}

/// The gate pass on recording rigs: per-call results, device state and
/// device accesses against the reference.
fn gate(run: &mut Run, lib: &Library, inp: &Inputs, calls: usize) {
    for op in DEVIL_OPS {
        let (side, ref_op) = reference(op);
        let mut d = Rig::new(lib, op, Side::Devil, true);
        let mut r = Rig::new(lib, ref_op, side, true);
        for k in 0..calls {
            let (a, mut b) = (d.call(inp), r.call(inp));
            if run.args.corrupt && k == 0 && op == "mouse_read" {
                b ^= 1;
            }
            run.check(a == b, || format!("{op} call {k}: Devil {a:#x} vs reference {b:#x}"));
            if op.starts_with("pio_read4") {
                let lba = inp.lba[k % inp.lba.len()] as usize;
                let want = fnv(&(lba * SECTOR_SIZE..(lba + PIO_SECTORS as usize) * SECTOR_SIZE)
                    .map(disk_byte)
                    .collect::<Vec<u8>>());
                run.check(a == want, || format!("{op} call {k}: data differs from the disk"));
            }
            if let Some(frame) = d.last_frame() {
                let want = &inp.frames[k % inp.frames.len()];
                run.check(&frame == want, || format!("{op} call {k}: NIC sent another frame"));
            }
        }
        compare(run, &mut d, &mut r);
    }
}

/// A runtime op timed directly on a `DeviceInstance`.
struct RuntimeOp {
    inst: DeviceInstance,
    base: u64,
    ids: RuntimeIds,
    calls: u64,
}

enum RuntimeIds {
    Mouse(StructId, VarId),
    Pic(StructId),
    Dma(DmaIds),
    Codec(CodecIds),
    Config(VarId),
}

impl RuntimeOp {
    fn new(lib: &Library, op: &'static str) -> Self {
        let spec = match op {
            "mouse_read" | "config" => "busmouse",
            "pic_init" => "pic8259",
            "dma_program" => "dma8237",
            "codec_index" => "cs4236b",
            other => panic!("unknown runtime op {other}"),
        };
        let mut inst = DeviceInstance::with_shared_ir(lib.ir(spec));
        let ir = inst.ir();
        let (base, ids) = match op {
            "mouse_read" => (
                MOUSE,
                RuntimeIds::Mouse(
                    ir.struct_id("mouse_state").expect("mouse_state"),
                    ir.var_id("dx").expect("dx"),
                ),
            ),
            "config" => (MOUSE, RuntimeIds::Config(ir.var_id("config").expect("config"))),
            "pic_init" => (PIC, RuntimeIds::Pic(ir.struct_id("init").expect("init"))),
            "dma_program" => (DMA, RuntimeIds::Dma(DmaIds::of(&inst))),
            _ => (CODEC, RuntimeIds::Codec(CodecIds::of(&inst))),
        };
        if let RuntimeIds::Pic(_) = ids {
            // Stage the init fields once: CASCADED + IC4, as the micro
            // benchmark does; every call then flushes the structure.
            for (n, v) in [("ic4", 1), ("sngl", 0), ("vector_base", 4), ("cascade_map", 4)]
                .into_iter()
                .chain([("microprocessor", 1), ("irq_mask", 0xfb)])
            {
                let id = inst.var_id(n).expect("pic8259 init field");
                inst.set_field_id(id, v).expect("stage init field");
            }
        }
        RuntimeOp { inst, base, ids, calls: 0 }
    }

    fn call(&mut self, dev: &mut dyn DeviceAccess, inp: &Inputs) -> u64 {
        let i = self.calls as usize;
        self.calls += 1;
        let inst = &mut self.inst;
        match &self.ids {
            RuntimeIds::Mouse(sid, dx) => {
                inst.read_struct_id(dev, *sid).expect("mouse_state");
                inst.get_field_id(*dx).expect("dx")
            }
            RuntimeIds::Pic(sid) => {
                inst.write_struct_id(dev, *sid).expect("init flush");
                0
            }
            RuntimeIds::Dma(ids) => dma_program(inst, dev, ids, inp.dma[i % inp.dma.len()]),
            RuntimeIds::Codec(ids) => codec_index(inst, dev, ids, inp.codec[i % inp.codec.len()]),
            RuntimeIds::Config(id) => {
                inst.write_id(dev, *id, &[], (i & 1) as u64).expect("config");
                0
            }
        }
    }
}

/// Calls per batch: each batch takes tens of microseconds.
fn batch(op: &str) -> usize {
    match op.trim_end_matches("_fused") {
        "pio_read4" | "ne2k_tx" => 4,
        "pm2_fill" => 32,
        "dma_program" => 64,
        _ => 128,
    }
}

/// Per-op batch samples, ns per call.
struct Samples {
    devil: Vec<Vec<f64>>,
    hand: Vec<Vec<f64>>,
    null: Vec<Vec<f64>>,
    portmap: Vec<Vec<f64>>,
    portmap_new: Vec<f64>,
    io_read: Vec<f64>,
    io_write: Vec<f64>,
    null_io: Vec<f64>,
}

/// Everything one round touches.
struct Bench {
    inp: Inputs,
    devil: Vec<Rig>,
    hand: Vec<Rig>,
    /// Runtime ops: against a null access, and through a `PortMap` onto
    /// a bus of null devices.
    null: Vec<(RuntimeOp, NullAccess)>,
    portmap: Vec<(RuntimeOp, Bus)>,
    /// A bus with a real busmouse, and one with a null device.
    mouse_bus: Bus,
    null_bus: Bus,
}

fn time_batch<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

impl Bench {
    fn new(run: &mut Run, lib: &Library, inp: Inputs) -> Self {
        let devil = DEVIL_OPS.iter().map(|&op| Rig::new(lib, op, Side::Devil, false)).collect();
        let hand = HAND_OPS.iter().map(|&op| Rig::new(lib, op, Side::Hand, false)).collect();
        let mut null = Vec::new();
        let mut portmap = Vec::new();
        if run.args.trace {
            for op in RUNTIME_OPS {
                null.push((RuntimeOp::new(lib, op), NullAccess::new()));
                let rt = RuntimeOp::new(lib, op);
                let mut bus = Bus::default();
                bus.attach_io(Box::new(NullDevice), rt.base, 16);
                portmap.push((rt, bus));
            }
        }
        let mut mouse_bus = Bus::default();
        mouse_bus.attach_io(Box::new(Busmouse::new(IrqLine::new())), MOUSE, 4);
        let mut null_bus = Bus::default();
        null_bus.attach_io(Box::new(NullDevice), MOUSE, 4);
        Bench { inp, devil, hand, null, portmap, mouse_bus, null_bus }
    }

    /// One round: a batch of every rig, each inside its span.
    fn round(&mut self, run: &mut Run, s: &mut Samples) {
        // The host's speed over the last rounds scales this round.
        run.calib.take(1);
        let f = run.calib.recent(16);
        let inp = &self.inp;
        for (k, rig) in self.devil.iter_mut().enumerate() {
            let n = batch(rig.op);
            run.tr.enter(Name::DevilCall, k as u32);
            s.devil[k].push(f * time_batch(n, || rig.call(inp)));
            run.tr.exit();
        }
        for (k, rig) in self.hand.iter_mut().enumerate() {
            let n = batch(rig.op);
            run.tr.enter(Name::HandCall, k as u32);
            s.hand[k].push(f * time_batch(n, || rig.call(inp)));
            run.tr.exit();
        }
        for rig in self.devil.iter_mut().chain(&mut self.hand) {
            rig.trim();
        }
        if !run.args.trace {
            return;
        }
        for (k, (rt, acc)) in self.null.iter_mut().enumerate() {
            run.tr.enter(Name::RuntimeNull, k as u32);
            s.null[k].push(f * time_batch(128, || rt.call(acc, inp)));
            run.tr.exit();
        }
        for (k, (rt, bus)) in self.portmap.iter_mut().enumerate() {
            run.tr.enter(Name::RuntimePortMap, k as u32);
            let mut map = PortMap::new(bus, vec![MappedPort::io(rt.base); 4]);
            s.portmap[k].push(f * time_batch(128, || rt.call(&mut map, inp)));
            run.tr.exit();
        }
        let bus = &mut self.null_bus;
        s.portmap_new.push(
            f * run.tr.span(Name::PortMapNew, 0, || {
                // Through `black_box`, so the port list's allocation
                // cannot be elided.
                time_batch(256, || {
                    let mut map = PortMap::new(bus, black_box(vec![MappedPort::io(MOUSE)]));
                    black_box(&mut map);
                })
            }),
        );
        run.tr.enter(Name::BusIo, 0);
        let m = &mut self.mouse_bus;
        s.io_read.push(f * time_batch(256, || m.io_read(MOUSE, Width::W8)));
        let mut v = 0u64;
        s.io_write.push(
            f * time_batch(256, || {
                v = (v + 1) & 3;
                m.io_write(MOUSE + 2, 0x80 | (v << 5), Width::W8);
            }),
        );
        let nb = &mut self.null_bus;
        s.null_io.push(
            f * time_batch(256, || {
                nb.io_write(MOUSE + 2, 0x80, Width::W8);
                nb.io_read(MOUSE, Width::W8)
            }) / 2.0,
        );
        run.tr.exit();
    }
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let pool = if run.args.tiny { 8 } else { 256 };
    let gate_calls = if run.args.tiny { 4 } else { 32 };

    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..run.setup_reps() {
        drop(built.take());
        run.calib.take(2);
        let t = crate::cpu::thread_ns();
        let lib = Library::compile(&mut run.tr);
        let bench = Bench::new(run, &lib, Inputs::new(run.args.seed, pool));
        setup.push((crate::cpu::thread_ns() - t) as f64 / 1e9);
        built = Some((lib, bench));
    }
    let (lib, mut bench) = built.expect("at least one set-up");
    let setup_s = run.timing("setup (compile + rigs)", &setup, "s").median;

    gate(run, &lib, &bench.inp, gate_calls);

    // Sample buffers are sized for the longest run and touched up
    // front, so the resident set does not grow with the round count.
    let series = || {
        let mut v = Vec::with_capacity(MAX_ROUNDS);
        v.resize(MAX_ROUNDS, 1.0);
        v.clear();
        v
    };
    let mut s = Samples {
        devil: (0..DEVIL_OPS.len()).map(|_| series()).collect(),
        hand: (0..HAND_OPS.len()).map(|_| series()).collect(),
        null: (0..RUNTIME_OPS.len()).map(|_| series()).collect(),
        portmap: (0..RUNTIME_OPS.len()).map(|_| series()).collect(),
        portmap_new: series(),
        io_read: series(),
        io_write: series(),
        null_io: series(),
    };
    let min_rounds = if run.args.tiny { 2 } else { 20 };
    let (wall, cpu) = (Instant::now(), crate::cpu::thread_ns());
    let seconds = if run.args.trace { run.args.seconds / 2.0 } else { run.args.seconds };
    let mut rounds = 0;
    while rounds < min_rounds || (rounds < MAX_ROUNDS / 2 && wall.elapsed().as_secs_f64() < seconds)
    {
        bench.round(run, &mut s);
        rounds += 1;
    }
    if run.args.trace {
        // The same rounds again, traced.
        let untraced = (crate::cpu::thread_ns() - cpu) as f64;
        let t = crate::cpu::thread_ns();
        crate::traced_segment(run, |run| {
            for _ in 0..rounds {
                bench.round(run, &mut s);
            }
        });
        let traced = (crate::cpu::thread_ns() - t) as f64;
        run.set("bench.trace_overhead_frac", traced / untraced - 1.0);
    }

    // The timing rigs ran the same inputs the same number of times:
    // their results and devices must agree with the reference too.
    for (k, op) in DEVIL_OPS.iter().enumerate() {
        let (side, ref_op) = reference(op);
        if side == Side::Hand {
            let h = HAND_OPS.iter().position(|&o| o == ref_op).expect("hand op");
            compare(run, &mut bench.devil[k], &mut bench.hand[h]);
        }
    }

    let devil: Vec<Summary> = DEVIL_OPS
        .iter()
        .zip(&s.devil)
        .map(|(op, xs)| run.timing(&format!("drivers.{op}.devil ns/call"), xs, "ns"))
        .collect();
    let hand: Vec<Summary> = HAND_OPS
        .iter()
        .zip(&s.hand)
        .map(|(op, xs)| run.timing(&format!("drivers.{op}.hand ns/call"), xs, "ns"))
        .collect();
    let devil_geo = geomean(&devil.iter().map(|t| t.median).collect::<Vec<_>>());
    let hand_geo = geomean(&hand.iter().map(|t| t.median).collect::<Vec<_>>());
    if !run.args.trace {
        run.set("setup_s", setup_s);
        run.set_prescaled("op_ns", devil_geo);
        run.set_prescaled("ref_op_ns", hand_geo);
        return;
    }

    run.set_prescaled("drivers.devil_op_ns_geomean", devil_geo);
    run.set_prescaled("drivers.hand_op_ns_geomean", hand_geo);
    for (op, t) in DEVIL_OPS.iter().zip(&devil) {
        run.set_prescaled(&format!("drivers.{op}.devil_ns"), t.median);
        run.set_prescaled(&format!("drivers.{op}.devil_ns_p99"), t.p99);
    }
    for (op, t) in HAND_OPS.iter().zip(&hand) {
        run.set_prescaled(&format!("drivers.{op}.hand_ns"), t.median);
        run.set_prescaled(&format!("drivers.{op}.hand_ns_p99"), t.p99);
    }
    for (op, hand_op) in PAIRED_OPS {
        let d = devil[DEVIL_OPS.iter().position(|&o| o == op).expect("devil op")].median;
        let h = hand[HAND_OPS.iter().position(|&o| o == hand_op).expect("hand op")].median;
        run.set_prescaled(&format!("drivers.{op}.devil_over_hand"), d / h);
    }
    // Allocations per full driver call, on warm rigs.
    let calls = 16u64;
    for rig in &mut bench.devil {
        let inp = &bench.inp;
        let n = alloc::count(|| {
            for _ in 0..calls {
                black_box(rig.call(inp));
            }
        });
        run.set_prescaled(&format!("drivers.{}.allocs_per_call", rig.op), n as f64 / calls as f64);
    }
    for (k, op) in RUNTIME_OPS.iter().enumerate() {
        let null = run.timing(&format!("devil_runtime.{op} null ns/call"), &s.null[k], "ns");
        let pm = run.timing(&format!("devil_runtime.{op} portmap ns/call"), &s.portmap[k], "ns");
        run.set_prescaled(&format!("devil_runtime.{op}.null_ns"), null.median);
        run.set_prescaled(&format!("devil_runtime.{op}.portmap_ns"), pm.median);
    }
    let pm_new = run.timing("devil_runtime.portmap_new ns", &s.portmap_new, "ns").median;
    let io_read = run.timing("hwsim.io_read ns", &s.io_read, "ns").median;
    let io_write = run.timing("hwsim.io_write ns", &s.io_write, "ns").median;
    let null_io = run.timing("hwsim.null_io ns", &s.null_io, "ns").median;
    run.set_prescaled("devil_runtime.portmap_new_ns", pm_new);
    run.set_prescaled("hwsim.io_read_ns", io_read);
    run.set_prescaled("hwsim.io_write_ns", io_write);
    run.set_prescaled("hwsim.null_io_ns", null_io);
    for (k, op) in HAND_OPS.iter().enumerate() {
        let bus_ns = bench.hand[k].bus_ops_per_call() * null_io;
        run.set_prescaled(&format!("devices.{op}.model_ns"), hand[k].median - bus_ns);
    }
}
