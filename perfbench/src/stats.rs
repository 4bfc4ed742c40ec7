//! Measurement helpers: a seeded generator, order statistics, ratios that
//! refuse to divide by zero, and the host fingerprint every result carries.

use std::fmt;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// SplitMix64: the benchmark's only source of randomness, seeded from the
/// command line so that the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0da0_b3c4_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over bytes, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Nearest-rank percentile of an unsorted sample; `None` when empty.
pub fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method).
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return Some((v[0], v[0], v[0]));
    }
    let n = v.len() as f64;
    let at = |p: f64| {
        let pos = p * (n + 1.0);
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(0.25), at(0.5), at(0.75)))
}

/// A ratio printed with its numerator and denominator. A zero denominator
/// is "not available", never clamped to 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    pub fn value(self) -> Option<f64> {
        (self.den != 0.0).then(|| self.num / self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{v:.4} ({}/{})", self.num, self.den),
            None => write!(f, "n/a ({}/{})", self.num, self.den),
        }
    }
}

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux's process CPU clock and /proc");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Size of the kernel's `cpu_set_t`: 1024 CPUs.
const CPU_SET_BYTES: usize = 128;

/// CPUs the process could use before [`pin_to_one_cpu`], and the one it
/// was pinned to.
static PINNED: OnceLock<(usize, usize)> = OnceLock::new();

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU. Call it
/// before any thread is spawned. `None` if the affinity could not be read
/// or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of the stated size.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_BYTES * 8).find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let allowed = mask.iter().map(|b| b.count_ones() as usize).sum();
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the stated size.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
        return None;
    }
    let _ = PINNED.set((allowed, cpu));
    Some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by all threads of this process, in ns. The
/// kernel does not count time a vCPU spent preempted by the hypervisor
/// (steal), nor time other processes ran, so on a shared host this clock
/// moves with the program's own work far more than wall time does.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process CPU time the speed probe takes on the reference host at its
/// fast end (the tenth percentile over a run), when no other guest slows
/// it. Scaled CPU times are expressed at this speed.
pub const PROBE_REF_NS: u64 = 230_000;

/// A fixed piece of CPU work owned by the benchmark and independent of the
/// program under test: sorting, hashing, float formatting, allocation and
/// scattered writes over an L2-sized table, the kinds of work the program
/// does. The same instructions run every time, so its CPU time measures
/// how fast the host runs the benchmark's thread right now.
fn probe_work() -> u64 {
    let mut rng = Rng::new(0);
    let mut v: Vec<f64> = (0..4096)
        .map(|_| (rng.next_u64() >> 11) as f64 * 1e-3)
        .collect();
    v.sort_by(f64::total_cmp);
    let mut map = std::collections::BTreeMap::new();
    for (i, x) in v.iter().enumerate().step_by(8) {
        map.insert(i as u64 ^ rng.next_u64(), x.sqrt().ln_1p());
    }
    let mut text = String::new();
    for (k, x) in map.iter().take(64) {
        let _ = write!(text, "{k}:{x:.9},");
    }
    let mut table = vec![0u32; 1 << 15];
    let mut p = 0usize;
    for i in 0..20_000u32 {
        p = (p * 31 + rng.next_u64() as usize) & ((1 << 15) - 1);
        table[p] = table[p].wrapping_add(i);
    }
    fnv1a(FNV_OFFSET, text.as_bytes()) ^ u64::from(table[p]) ^ v[2048].to_bits()
}

/// Runs the speed probe once and returns its process CPU time in ns.
pub fn probe_cpu_ns() -> u64 {
    let c = process_cpu_ns();
    std::hint::black_box(probe_work());
    process_cpu_ns().saturating_sub(c).max(1)
}

/// `cpu_ns` of process CPU time at the speed a probe of `probe_ns` shows,
/// scaled to the reference speed ([`PROBE_REF_NS`]).
pub fn scale_cpu(cpu_ns: u64, probe_ns: u64) -> u64 {
    (u128::from(cpu_ns) * u128::from(PROBE_REF_NS) / u128::from(probe_ns.max(1))) as u64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative CPU time of the whole host from `/proc/stat`, in clock ticks:
/// the time the hypervisor gave to other guests (steal) and the total.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    pub steal: u64,
    pub total: u64,
}

impl HostCpu {
    /// `None` where `/proc/stat` is missing or has no steal column.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().next()?.strip_prefix("cpu ")?;
        let ticks: Vec<u64> = line
            .split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user time.
        Some(HostCpu {
            steal: *ticks.get(7)?,
            total: ticks.iter().take(8).sum(),
        })
    }

    /// Share of host CPU time stolen between `self` and `later`.
    pub fn steal_since(self, later: HostCpu) -> Ratio {
        Ratio::new(
            later.steal.saturating_sub(self.steal) as f64,
            later.total.saturating_sub(self.total) as f64,
        )
    }
}

/// What every result is tagged with, so numbers from different hosts or
/// builds are never compared by accident.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    /// The one CPU every thread of the process is pinned to, if any.
    pub pinned_cpu: Option<usize>,
    pub profile: &'static str,
    pub rustc: &'static str,
    pub shards: usize,
    pub workers: usize,
    pub generator_threads: usize,
}

impl Fingerprint {
    pub fn new(shards: usize, workers: usize) -> Self {
        Fingerprint {
            nproc: PINNED.get().map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |&(allowed, _)| allowed,
            ),
            pinned_cpu: PINNED.get().map(|&(_, cpu)| cpu),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: env!("PERFBENCH_RUSTC"),
            shards,
            workers,
            generator_threads: 1,
        }
    }

    /// Thread pools wider than the host: each one is flagged, since their
    /// threads can only take turns on the cores.
    pub fn oversubscribed(&self) -> Vec<String> {
        [
            ("shards", self.shards),
            ("runtime workers", self.workers),
            ("generator threads", self.generator_threads),
        ]
        .iter()
        .filter(|(_, n)| *n > self.nproc)
        .map(|(what, n)| format!("{what}={n} > nproc={}", self.nproc))
        .collect()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} pinned_to_cpu={} profile={} rustc=\"{}\" shards={} runtime_workers={} generator_threads={}",
            self.nproc,
            self.pinned_cpu.map_or("none".to_string(), |c| c.to_string()),
            self.profile,
            self.rustc,
            self.shards,
            self.workers,
            self.generator_threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    }

    #[test]
    fn zero_denominator_is_not_available() {
        let r = Ratio::new(0.0, 0.0);
        assert_eq!(r.value(), None);
        assert_eq!(r.to_string(), "n/a (0/0)");
        assert_eq!(Ratio::new(1.0, 4.0).value(), Some(0.25));
    }

    #[test]
    fn cpu_time_scales_to_the_reference_speed() {
        assert_eq!(scale_cpu(1_000, PROBE_REF_NS), 1_000);
        // A probe that took twice as long shows a host running at half speed.
        assert_eq!(scale_cpu(1_000, 2 * PROBE_REF_NS), 500);
        assert_eq!(scale_cpu(1_000, 0), 1_000 * PROBE_REF_NS);
        assert!(probe_cpu_ns() > 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
