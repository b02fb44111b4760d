//! What the operating system says about this process, and the memory
//! bandwidth ceiling the per-layer rates are read against. `/proc` only:
//! the container has no `libc` crate and this needs no `unsafe`.

use std::time::Instant;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture it supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// Cumulative CPU time and minor faults of the process (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub wall_s: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub minor_faults: f64,
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, o: Usage) {
        self.wall_s += o.wall_s;
        self.cpu_user_s += o.cpu_user_s;
        self.cpu_sys_s += o.cpu_sys_s;
        self.minor_faults += o.minor_faults;
    }
}

/// A point from which [`Meter::stop`] measures a region's [`Usage`].
pub struct Meter {
    at: Instant,
    base: Usage,
}

impl Meter {
    pub fn start() -> Meter {
        Meter { at: Instant::now(), base: read_stat() }
    }

    pub fn stop(&self) -> Usage {
        let now = read_stat();
        Usage {
            wall_s: self.at.elapsed().as_secs_f64(),
            cpu_user_s: now.cpu_user_s - self.base.cpu_user_s,
            cpu_sys_s: now.cpu_sys_s - self.base.cpu_sys_s,
            minor_faults: now.minor_faults - self.base.minor_faults,
        }
    }
}

/// Fields 10 (`minflt`), 14 (`utime`) and 15 (`stime`) of `/proc/self/stat`,
/// counted after the parenthesised command name, which may hold spaces.
fn read_stat() -> Usage {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<f64> = after.split_whitespace().map(|t| t.parse().unwrap_or(0.0)).collect();
    // `after` starts at field 3 (state), so field k sits at index k - 3.
    let field = |k: usize| f.get(k - 3).copied().unwrap_or(0.0);
    Usage {
        wall_s: 0.0,
        cpu_user_s: field(14) / TICKS_PER_SECOND,
        cpu_sys_s: field(15) / TICKS_PER_SECOND,
        minor_faults: field(10),
    }
}

/// Peak resident set of the process so far (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Single-thread `memcpy` bandwidth in MB/s over buffers far larger than
/// the last-level cache (64 MiB each), median of nine copies after one
/// that faults the pages in. Counts bytes copied once, like every other
/// rate in the benchmark, not read plus written.
pub fn memcpy_mbps() -> f64 {
    const LEN: usize = 64 << 20;
    let src = vec![0x5Au8; LEN];
    let mut dst = vec![0u8; LEN];
    dst.copy_from_slice(&src);
    let secs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    LEN as f64 / 1e6 / crate::stats::median(&secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(peak_rss_mb() > 0.5, "VmHWM missing");
        let m = Meter::start();
        std::hint::black_box(vec![1u8; 8 << 20]);
        let u = m.stop();
        assert!(u.wall_s > 0.0);
        // Huge pages can map 8 MiB in a handful of faults, but never in none.
        assert!(u.minor_faults >= 1.0, "faults {}", u.minor_faults);
    }
}
