//! Bench-local devices and accesses.
//!
//! * [`Shared`] puts a real device model on a bus while the benchmark
//!   keeps a handle to it, so it can feed inputs (mouse motion) and
//!   read the model's state after a run. It can also log every access
//!   the device sees, which is how the gates compare two drivers'
//!   effect on their devices.
//! * [`NullDevice`] answers every access with 0 and keeps nothing: the
//!   bus and `PortMap` costs without a device model.
//! * [`NullAccess`] is a fixed register file behind `DeviceAccess`: the
//!   runtime's cost with no bus at all.

use devil_runtime::DeviceAccess;
use hwsim::{Device, Width};
use std::cell::RefCell;
use std::rc::Rc;

/// One access as the device saw it: `(is_write, offset, value)`.
pub type Access = (bool, u64, u64);

/// A real device model the benchmark keeps a handle to.
pub struct Shared<D> {
    dev: Rc<RefCell<D>>,
    log: Option<Rc<RefCell<Vec<Access>>>>,
}

impl<D: Device> Shared<D> {
    /// Wraps `dev`; `record` keeps a log of every access.
    pub fn new(dev: D, record: bool) -> Self {
        Shared { dev: Rc::new(RefCell::new(dev)), log: record.then(Rc::default) }
    }

    /// A second handle to the same device and log (the bus owns one).
    pub fn handle(&self) -> Self {
        Shared { dev: self.dev.clone(), log: self.log.clone() }
    }

    /// The device model.
    pub fn dev(&self) -> std::cell::RefMut<'_, D> {
        self.dev.borrow_mut()
    }

    /// The access log so far (empty when not recording).
    pub fn log(&self) -> Vec<Access> {
        self.log.as_ref().map(|l| l.borrow().clone()).unwrap_or_default()
    }

    fn record(&self, write: bool, offset: u64, value: u64) {
        if let Some(l) = &self.log {
            l.borrow_mut().push((write, offset, value));
        }
    }
}

impl<D: Device> Device for Shared<D> {
    fn name(&self) -> &str {
        "shared"
    }

    fn io_read(&mut self, offset: u64, width: Width) -> u64 {
        let v = self.dev.borrow_mut().io_read(offset, width);
        self.record(false, offset, v);
        v
    }

    fn io_write(&mut self, offset: u64, value: u64, width: Width) {
        self.dev.borrow_mut().io_write(offset, value, width);
        self.record(true, offset, value);
    }

    fn mem_read(&mut self, offset: u64, width: Width) -> u64 {
        let v = self.dev.borrow_mut().mem_read(offset, width);
        self.record(false, offset, v);
        v
    }

    fn mem_write(&mut self, offset: u64, value: u64, width: Width) {
        self.dev.borrow_mut().mem_write(offset, value, width);
        self.record(true, offset, value);
    }

    fn tick(&mut self, now_ns: f64) {
        self.dev.borrow_mut().tick(now_ns);
    }
}

/// A device that reads 0 and ignores writes.
pub struct NullDevice;

impl Device for NullDevice {
    fn name(&self) -> &str {
        "null"
    }

    fn io_read(&mut self, _offset: u64, _width: Width) -> u64 {
        0
    }

    fn mem_read(&mut self, _offset: u64, _width: Width) -> u64 {
        0
    }
}

/// A register file of fixed arrays: no allocation, no bus.
pub struct NullAccess {
    regs: [[u64; 32]; 4],
}

impl NullAccess {
    /// All registers zero.
    pub fn new() -> Self {
        NullAccess { regs: [[0; 32]; 4] }
    }
}

impl Default for NullAccess {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceAccess for NullAccess {
    fn read(&mut self, port: usize, offset: u64, _width_bits: u32) -> u64 {
        self.regs[port % 4][offset as usize % 32]
    }

    fn write(&mut self, port: usize, offset: u64, _width_bits: u32, value: u64) {
        self.regs[port % 4][offset as usize % 32] = value;
    }
}
