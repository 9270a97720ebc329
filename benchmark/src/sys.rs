//! CPU, memory and clock accounting straight from the OS, and CPU pinning.
//!
//! Three sources, each optional: `clock_gettime` (monotonic wall clock and
//! per-thread CPU clock), `getrusage` (process and reaped-children CPU and
//! peak RSS) and `/proc/self/status` (`VmHWM`). A source that is missing
//! yields `None`; callers report the metric as absent, never as 0.
//!
//! `sched_setaffinity` gives every simulation client a core of its own and
//! keeps everything else (dedicated core, its workers, stream subscribers)
//! on the remaining ones — the paper's deployment, and what keeps the
//! client-side timings from measuring the scheduler on a 2-core host.

// The struct layouts and constants below are those of 64-bit Linux only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("benchmark/src/sys.rs declares the 64-bit Linux layouts of timespec and rusage");

/// `struct timespec` on every 64-bit Linux target.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct timeval` on every 64-bit Linux target.
#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals followed by fourteen longs, of which
/// only `ru_maxrss` (the first) is read here.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn clock_ns(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Nanoseconds on `CLOCK_MONOTONIC`. The clock is system-wide, so stamps
/// taken in different processes of one host compare directly — what the
/// process-world setup and stream-lag metrics need.
///
/// Panics when the clock is unavailable: nothing can be timed without it.
pub fn now_ns() -> u64 {
    clock_ns(CLOCK_MONOTONIC).expect("CLOCK_MONOTONIC is unavailable on this platform")
}

/// CPU nanoseconds the calling thread has consumed so far.
pub fn thread_cpu_ns() -> Option<u64> {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds (user + system) and peak RSS of one `getrusage` scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// `ru_maxrss` in KiB.
    pub max_rss_kib: u64,
}

fn rusage(who: i32) -> Option<Usage> {
    let zero = Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = Rusage {
        ru_utime: zero,
        ru_stime: zero,
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` (same size and
    // field order as the C definition) for the duration of the call.
    let rc = unsafe { getrusage(who, &mut ru) };
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (rc == 0).then(|| Usage {
        cpu_s: secs(ru.ru_utime) + secs(ru.ru_stime),
        max_rss_kib: ru.ru_maxrss.max(0) as u64,
    })
}

/// This process (all its threads).
pub fn usage_self() -> Option<Usage> {
    rusage(RUSAGE_SELF)
}

/// Every child process this process has already waited for.
pub fn usage_children() -> Option<Usage> {
    rusage(RUSAGE_CHILDREN)
}

/// CPU seconds of this process plus its reaped children.
pub fn cpu_total_s() -> Option<f64> {
    Some(usage_self()?.cpu_s + usage_children()?.cpu_s)
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&status, "VmHWM:")
}

fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak memory of the whole run in MiB: this process's `VmHWM` plus the
/// largest reaped child's `ru_maxrss`.
pub fn peak_rss_mib() -> Option<f64> {
    let own = vm_hwm_kib()?;
    let children = usage_children()?.max_rss_kib;
    Some((own + children) as f64 / 1024.0)
}

/// Words of a `cpu_set_t` (1024 CPUs, the glibc size).
const CPU_SET_WORDS: usize = 16;

/// CPUs the calling thread may run on; `None` when the call is unavailable.
fn affinity() -> Option<Vec<usize>> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a valid, writable buffer of the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then(|| {
        (0..CPU_SET_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Carries [`host_cpus`] to re-executed ranks: they inherit the narrowed
/// CPUs of the thread that launched them and could not tell otherwise
/// which CPUs the host has.
const HOST_CPUS_ENV: &str = "DAMARIS_E2E_HOST_CPUS";

/// CPUs the benchmark was started on, recorded at the first call — `main`
/// makes it before anything is pinned or any thread started — and handed
/// down to child processes through the environment. Empty when unavailable.
pub fn host_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        if let Some(inherited) = std::env::var(HOST_CPUS_ENV)
            .ok()
            .and_then(|list| list.split(',').map(|c| c.parse().ok()).collect())
        {
            return inherited;
        }
        let cpus = affinity().unwrap_or_default();
        let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
        std::env::set_var(HOST_CPUS_ENV, list.join(","));
        cpus
    })
}

/// Restrict the calling thread (and threads it spawns from now on) to
/// `cpus`. `false` when `cpus` is empty or the kernel refused; the thread
/// then stays where it was.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < CPU_SET_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    // SAFETY: `mask` is a valid buffer of the size passed, only read by
    // the call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Which CPUs the clients and everything else get: client `i` has
/// `host_cpus()[i]` to itself, the rest of the host serves the dedicated
/// core, its workers and the stream subscribers. With no CPU to spare
/// (fewer CPUs than clients + 1) nothing is pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    cpus: &'static [usize],
    clients: usize,
}

impl Placement {
    pub fn new(clients: usize) -> Placement {
        Placement::over(host_cpus(), clients)
    }

    fn over(cpus: &'static [usize], clients: usize) -> Placement {
        Placement { cpus, clients }
    }

    pub fn active(&self) -> bool {
        self.cpus.len() > self.clients
    }

    /// The CPU of client `client`; empty when nothing is pinned.
    pub fn client(&self, client: usize) -> &'static [usize] {
        match self.cpus.get(client..client + 1) {
            Some(cpu) if self.active() && client < self.clients => cpu,
            _ => &[],
        }
    }

    /// The CPUs of everything that is not a client.
    pub fn service(&self) -> &'static [usize] {
        if self.active() {
            &self.cpus[self.clients..]
        } else {
            &[]
        }
    }
}

/// Pins the calling thread to `cpus` and puts it back on all of
/// [`host_cpus`] when dropped.
pub struct Pinned(bool);

impl Pinned {
    pub fn to(cpus: &[usize]) -> Pinned {
        Pinned(pin_to(cpus))
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if self.0 {
            pin_to(host_cpus());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_splits_clients_from_services() {
        static FOUR: [usize; 4] = [0, 1, 4, 5];
        let p = Placement::over(&FOUR, 3);
        assert!(p.active());
        assert_eq!(p.client(0), &[0]);
        assert_eq!(p.client(2), &[4]);
        assert_eq!(p.client(3), &[] as &[usize]);
        assert_eq!(p.service(), &[5]);
        // No CPU to spare: nothing is pinned.
        let full = Placement::over(&FOUR[..1], 1);
        assert!(!full.active());
        assert_eq!(full.client(0), &[] as &[usize]);
        assert_eq!(full.service(), &[] as &[usize]);
    }

    #[test]
    fn pinning_narrows_and_the_guard_restores() {
        let all = host_cpus().to_vec();
        assert!(!all.is_empty());
        assert!(!pin_to(&[]));
        std::thread::spawn(move || {
            {
                let _guard = Pinned::to(&all[..1]);
                assert_eq!(affinity().unwrap(), all[..1]);
            }
            assert_eq!(affinity().unwrap(), all);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn monotonic_clock_advances() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_cpu_grows_with_work() {
        let before = thread_cpu_ns().unwrap();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns().unwrap() > before);
    }

    #[test]
    fn status_parser_reads_kib_and_reports_absence() {
        let status = "Name:\te2e\nVmPeak:\t  1000 kB\nVmHWM:\t   4242 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(4242));
        assert_eq!(parse_status_kib(status, "VmSwap:"), None);
    }

    #[test]
    fn rusage_and_hwm_are_present_on_linux() {
        assert!(usage_self().unwrap().max_rss_kib > 0);
        assert!(usage_children().is_some());
        assert!(vm_hwm_kib().unwrap() > 0);
    }
}
