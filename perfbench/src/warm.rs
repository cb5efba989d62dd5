//! Idle-priority spinners that keep every CPU busy while the clients run.
//!
//! On a virtual machine, a client that blocks on a mutex leaves its vCPU
//! idle; the vCPU halts, and waking it goes through the hypervisor, whose
//! wake-up latency drifts with the host's load over minutes. Measured on a
//! 2-vCPU VM, that alone moved the `map_point` p99 between about 6 µs and
//! 13 µs from run to run. A spinner at `SCHED_IDLE` runs only when nothing
//! else can, is preempted as soon as a client wakes, and keeps its vCPU from
//! halting, so the figures measure the program and the guest scheduler
//! rather than the host's idle handling: the user-space counterpart of
//! booting a benchmark machine with `idle=poll`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Run `f` with one idle-priority spinner pinned to each CPU.
pub fn with_warm_cpus<R>(f: impl FnOnce() -> R) -> R {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get().min(64));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for cpu in 0..cpus {
            let stop = &stop;
            s.spawn(move || {
                // A spinner that could not drop to idle priority would take
                // CPU from the clients, so it stops at once instead.
                if lower_to_idle(cpu) {
                    while !stop.load(Ordering::Relaxed) {}
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        f()
    })
}

/// Stops the spinners even when `f` panics, so the scope can join them.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Pin the calling thread to `cpu` (best effort) and move it to
/// `SCHED_IDLE`; returns whether the priority change took.
fn lower_to_idle(cpu: usize) -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let mask: u64 = 1 << cpu;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread. `mask` is a live u64, so the
    // kernel reads exactly the `cpusetsize` = 8 bytes it was given; `param`
    // is a live `struct sched_param` (one int). Neither call keeps either
    // pointer past its return.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
        sched_setscheduler(0, SCHED_IDLE, &param) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_stop_when_the_work_returns_or_panics() {
        assert_eq!(with_warm_cpus(|| 7), 7);
        let r = std::panic::catch_unwind(|| with_warm_cpus(|| panic!("work failed")));
        assert!(r.is_err());
    }
}
