//! Host fingerprint printed with every result, so figures taken on
//! different machines are never compared blindly.

use std::hint::black_box;
use std::time::Instant;

/// What the benchmark knows about the machine it ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU brand string (from `cpuid`), or `unknown`.
    pub cpu: String,
    /// AVX2 detected at run time.
    pub avx2: bool,
    /// AVX-512F detected at run time.
    pub avx512: bool,
    /// Last-level (L3) cache size in MiB as `cpuid` reports it; 0 when
    /// unknown.
    pub l3_mib: f64,
}

impl Host {
    /// Probe the running machine. Reads no files.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_brand(),
            avx2: has_avx2(),
            avx512: has_avx512(),
            l3_mib: l3_mib(),
        }
    }

    /// One-line rendering for the result header.
    pub fn line(&self, rank_threads: usize, calib_ns: f64) -> String {
        format!(
            "host: nproc={} rank_threads={} cpu=\"{}\" avx2={} avx512={} l3_mib={:.1} calib_ns={:.4}",
            self.nproc, rank_threads, self.cpu, self.avx2, self.avx512, self.l3_mib, calib_ns
        )
    }
}

/// Iterations of the calibration chain.
const CALIB_ITERS: u32 = 1 << 20;

/// Host speed calibration: nanoseconds per iteration of a fixed,
/// dependent scalar multiply-add chain (latency-bound, so it reads the
/// core's clock and not its vector width), median of 7 repetitions.
pub fn calib_ns() -> f64 {
    let reps: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(1.0_f64);
            let (a, b) = (black_box(0.999_999_9), black_box(1e-9));
            for _ in 0..CALIB_ITERS {
                x = x * a + b;
            }
            black_box(x);
            t.elapsed().as_nanos() as f64 / CALIB_ITERS as f64
        })
        .collect();
    crate::stats::median(&reps)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kib = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    // `cpuid` exists on every x86_64 processor.
    let r = std::arch::x86_64::__cpuid_count(leaf, sub);
    [r.eax, r.ebx, r.ecx, r.edx]
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    if cpuid(0x8000_0000, 0)[0] < 0x8000_0004 {
        return "unknown".into();
    }
    let bytes: Vec<u8> = (0x8000_0002..=0x8000_0004u32)
        .flat_map(|leaf| cpuid(leaf, 0))
        .flat_map(u32::to_le_bytes)
        .collect();
    let s = String::from_utf8_lossy(&bytes);
    s.trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .replace('"', "'")
}

/// L3 size from the deterministic cache parameters leaf (4 on Intel,
/// 0x8000001D on AMD).
#[cfg(target_arch = "x86_64")]
fn l3_mib() -> f64 {
    let vendor = cpuid(0, 0);
    let leaf = if vendor[1] == u32::from_le_bytes(*b"Auth") {
        0x8000_001D
    } else {
        4
    };
    for sub in 0..16 {
        let [eax, ebx, ecx, _] = cpuid(leaf, sub);
        if eax & 0x1f == 0 {
            break;
        }
        if (eax >> 5) & 0x7 == 3 {
            let ways = ((ebx >> 22) & 0x3ff) as f64 + 1.0;
            let parts = ((ebx >> 12) & 0x3ff) as f64 + 1.0;
            let line = (ebx & 0xfff) as f64 + 1.0;
            let sets = ecx as f64 + 1.0;
            return ways * parts * line * sets / (1024.0 * 1024.0);
        }
    }
    0.0
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    "unknown".into()
}

#[cfg(not(target_arch = "x86_64"))]
fn l3_mib() -> f64 {
    0.0
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx2() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx512() -> bool {
    false
}

/// CPU time, in seconds, that every thread of this process has used so
/// far, threads that have ended included (`CLOCK_PROCESS_CPUTIME_ID`).
/// Time the hypervisor steals from a virtual CPU and time a thread
/// spends blocked are not in it. Linux only.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    #[test]
    fn process_cpu_time_advances_with_work() {
        let c0 = super::process_cpu_s();
        let t = std::time::Instant::now();
        let mut x = 1u64;
        while t.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let used = super::process_cpu_s() - c0;
        assert!(used > 0.005, "20 ms of spinning used {used} s of CPU");
    }
}
