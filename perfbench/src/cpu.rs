//! CPU-time clocks.
//!
//! Other tenants time-slice a shared host's cores, and a run that
//! lasts tens or hundreds of milliseconds is sliced in proportion to
//! their load, so its wall time says as much about them as about the
//! program. The long samples (a fleet run, a replica, a spec's replay)
//! are therefore timed in CPU time, which counts only the time the
//! measured threads ran. Short batches keep wall time: their median
//! already skips the batches a time slice hit.

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    pub const PROCESS: i32 = 2;
    pub const THREAD: i32 = 3;

    pub fn now(clock: i32) -> u64 {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two
        // 64-bit fields on 64-bit Linux) for the duration of the call,
        // and the clock ids are the kernel's fixed CPU-time clocks.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

/// CPU ns this thread has run.
#[cfg(target_os = "linux")]
pub fn thread_ns() -> u64 {
    sys::now(sys::THREAD)
}

/// CPU ns every thread of this process has run, summed.
#[cfg(target_os = "linux")]
pub fn process_ns() -> u64 {
    sys::now(sys::PROCESS)
}

#[cfg(not(target_os = "linux"))]
fn wall_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
}

/// Wall ns where no CPU-time clock is available.
#[cfg(not(target_os = "linux"))]
pub fn thread_ns() -> u64 {
    wall_ns()
}

/// Wall ns where no CPU-time clock is available.
#[cfg(not(target_os = "linux"))]
pub fn process_ns() -> u64 {
    wall_ns()
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_clock_advances_with_work() {
        let t0 = super::thread_ns();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::thread_ns() > t0);
        assert!(super::process_ns() >= super::thread_ns());
    }
}
