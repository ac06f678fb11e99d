//! Wall-clock and process CPU time, read together.
//!
//! The gated end-to-end metrics are CPU times: the CPU the process spent on
//! an operation, summed over the client thread and every worker the engine
//! started for it. On a host whose cores other processes share, wall time
//! also counts the time the engine's threads waited for a core, which
//! measures the neighbours rather than the engine. Wall times are printed
//! alongside.

use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads the process CPU clock and /proc: it runs on Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time used by every thread of this process so far, including threads
/// that have ended.
fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the clock id
    // is one every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// One reading of both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    cpu: Duration,
}

impl Stamp {
    pub fn now() -> Stamp {
        let cpu = process_cpu();
        Stamp {
            wall: Instant::now(),
            cpu,
        }
    }

    /// Time from `earlier` to this reading on both clocks.
    pub fn since(self, earlier: Stamp) -> Elapsed {
        Elapsed {
            wall: self.wall - earlier.wall,
            cpu: self.cpu.saturating_sub(earlier.cpu),
        }
    }
}

/// Time taken by one piece of work on both clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    pub wall: Duration,
    pub cpu: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spin until the process has used `cpu` more CPU time than at `from`,
    /// or five seconds have passed.
    fn spin_until(from: Stamp, cpu: Duration) {
        let mut x = 0u64;
        while Stamp::now().since(from).cpu < cpu && from.wall.elapsed() < Duration::from_secs(5) {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        }
    }

    #[test]
    fn cpu_time_counts_work() {
        let t0 = Stamp::now();
        spin_until(t0, Duration::from_millis(20));
        let spun = Stamp::now().since(t0);
        assert!(spun.cpu >= Duration::from_millis(20), "{spun:?}");
    }

    #[test]
    fn cpu_time_keeps_the_time_of_ended_threads() {
        let t0 = Stamp::now();
        std::thread::spawn(move || spin_until(t0, Duration::from_millis(20)))
            .join()
            .expect("spinning thread");
        let e = Stamp::now().since(t0);
        assert!(e.cpu >= Duration::from_millis(20), "{e:?}");
    }
}
