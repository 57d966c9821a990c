//! Process-wide resource readings from `/proc/self` (Linux only; the
//! benchmark refuses to run where they are missing).

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` has
/// been 100 on every Linux ABI since 2.6; reading it properly needs
/// `sysconf`, which needs libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by every thread of this process,
/// including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After ')' come state (3rd field) … utime is the 14th, stime the 15th.
    let utime: f64 = fields.nth(11).and_then(|s| s.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).expect("stime");
    (utime + stime) / USER_HZ
}

/// Resident set size of this process in MB: `(now, peak so far)`, from
/// the `VmRSS` and `VmHWM` lines (kB, so no page size is assumed).
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let field = |name: &str| -> f64 {
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmRSS and VmHWM lines");
        kb / 1024.0
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let (now, peak) = rss_mb();
        assert!(now > 0.5 && peak >= now);
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() - before >= 0.03);
    }
}
