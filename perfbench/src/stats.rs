//! Small measurement helpers: order statistics, digests and process
//! resource readings from `/proc`.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by nearest rank, or 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 64-bit FNV-1a digest of `bytes`, printed as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process (every thread, live or exited) has run, from
/// `CLOCK_PROCESS_CPUTIME_ID`. Unlike wall time it leaves out time the
/// hypervisor stole from the virtual CPUs.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The task id of this process's thread named `name`, from
/// `/proc/self/task/<tid>/comm`; `None` when no such thread lives.
pub fn thread_id(name: &str) -> Option<i32> {
    std::fs::read_dir("/proc/self/task").ok()?.flatten().find_map(|task| {
        let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
        if comm.trim_end() != name {
            return None;
        }
        task.file_name().to_str()?.parse().ok()
    })
}

/// CPU seconds run so far by this process's thread `tid`, from its
/// `/proc/self/task/<tid>/schedstat`; `None` when it cannot be read.
pub fn thread_cpu_seconds(tid: i32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns * 1e-9)
}

/// A CPU affinity mask for up to 1024 CPUs, as `sched_{get,set}affinity`
/// take it.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`; `false` when
/// the kernel refused.
pub fn pin_thread(tid: i32, cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed and
    // outlives the call.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), &mask) == 0 }
}

/// Wall, CPU and stolen seconds of one timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of every thread of the process.
    pub cpu: f64,
    /// Seconds stolen from the machine's CPUs meanwhile (all CPUs).
    pub steal: f64,
}

/// Runs `f` and returns its result with its [`Timing`].
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let (w0, c0, s0) = (std::time::Instant::now(), cpu_seconds(), steal_seconds());
    let out = f();
    let t = Timing {
        wall: w0.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - c0,
        steal: steal_seconds() - s0,
    };
    (out, t)
}

/// Prints the per-body timings of a run on one `bodies` line.
pub fn print_bodies(bodies: &[Timing]) {
    let list = |f: fn(&Timing) -> f64| bodies.iter().map(f).collect::<Vec<_>>();
    println!(
        "bodies {{\"wall_s\":{:?},\"cpu_s\":{:?},\"steal_s\":{:?}}}",
        list(|t| t.wall),
        list(|t| t.cpu),
        list(|t| t.steal)
    );
}

/// Seconds the hypervisor took from this machine's CPUs (all of them)
/// since boot, from the `steal` column of `/proc/stat`.
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_clock_counts_busy_time() {
        // The clock covers every thread of the test process, so only a
        // lower bound holds while other tests run alongside.
        let (_, busy) = timed(|| {
            let t0 = std::time::Instant::now();
            while t0.elapsed().as_millis() < 30 {
                std::hint::spin_loop();
            }
        });
        assert!(busy.cpu > 0.02 && busy.wall >= 0.03, "{busy:?}");
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
