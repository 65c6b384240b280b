//! Host clocks read from outside the simulator: per-thread CPU time and
//! run-queue wait, process CPU time, and peak resident memory.
//!
//! Linux only: the thread clocks come from `clock_gettime` (through the
//! C library the standard library already links) and from
//! `/proc/thread-self/schedstat`.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hostbench reads 64-bit Linux clocks and /proc");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` laid out as the C
    // library expects on 64-bit Linux (pinned by the `compile_error!`
    // above), and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User + system CPU time of the whole process, exited threads included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// The calling thread's CPU time and the time it spent runnable but
/// waiting for a CPU.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadTimes {
    /// User + system CPU time of this thread.
    pub cpu: Duration,
    /// Run-queue wait of this thread.
    pub runq: Duration,
}

impl ThreadTimes {
    /// Read both clocks of the calling thread.
    pub fn now() -> ThreadTimes {
        // The second field of schedstat is the run-queue wait in ns.
        let runq = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
            .map(Duration::from_nanos)
            .expect("/proc/thread-self/schedstat is readable");
        ThreadTimes {
            cpu: cpu_clock(CLOCK_THREAD_CPUTIME_ID),
            runq,
        }
    }

    /// What this thread accrued since `earlier`.
    pub fn since(self, earlier: ThreadTimes) -> ThreadTimes {
        ThreadTimes {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            runq: self.runq.saturating_sub(earlier.runq),
        }
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the highest-numbered CPU it may use. Returns the previous set.
pub fn pin_to_one_cpu() -> CpuSet {
    let mut old = CpuSet([0; 16]);
    // SAFETY: `old` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut old) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let word = old
        .0
        .iter()
        .rposition(|&w| w != 0)
        .expect("some CPU allowed");
    let mut one = CpuSet([0; 16]);
    one.0[word] = 1 << (63 - old.0[word].leading_zeros());
    set_affinity(&one);
    old
}

/// Let the calling thread run on the CPUs of `set` again.
pub fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a valid `cpu_set_t`-sized buffer that is only read,
    // and the size passed is exactly its size; pid 0 names the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Logical CPUs this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
