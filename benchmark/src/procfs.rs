//! What the benchmark reads from `/proc`: the process's CPU time,
//! memory high-water mark, context switches and I/O syscalls, the
//! machine's steal share, and the provenance of the run.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// The number after `key` on its line of a `/proc` status-style file.
fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One pass over `/proc/self/task/*`: threads alive, on-CPU time and
/// voluntary context switches summed over them. Threads that already
/// exited are not counted, so take deltas only across intervals in
/// which no thread ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskTotals {
    pub threads: u64,
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
}

pub fn task_totals() -> TaskTotals {
    let mut t = TaskTotals::default();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return t;
    };
    for entry in dir.flatten() {
        let base = entry.path();
        t.threads += 1;
        // schedstat: "<on-cpu ns> <run-queue wait ns> <timeslices>".
        t.cpu_ns += fs::read_to_string(base.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        let status = fs::read_to_string(base.join("status")).unwrap_or_default();
        t.voluntary_switches += field(&status, "voluntary_ctxt_switches:");
    }
    t
}

/// `syscr + syscw` of `/proc/self/io`: read- and write-family system
/// calls that went through the VFS (`read`, `write`, `readv`, `writev`,
/// `pwrite`…). `send`/`recv`, `epoll_wait` and `fsync` are not in it.
pub fn io_syscalls() -> u64 {
    let io = read("/proc/self/io");
    field(&io, "syscr:") + field(&io, "syscw:")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    field(&read("/proc/self/status"), "VmHWM:") as f64 / 1024.0
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let cols: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    (cols.get(7).copied().unwrap_or(0), cols.iter().take(8).sum())
}

/// Steal share in percent between two [`steal_jiffies`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// A fixed single-thread ALU loop run for `span`: millions of
/// iterations per second. A diagnostic of the machine's state, never a
/// divisor — dividing by it did not shrink the run-to-run spread.
pub fn calibrate(span: Duration) -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut iters = 0u64;
    while start.elapsed() < span {
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        iters += 10_000;
    }
    std::hint::black_box(x);
    iters as f64 / start.elapsed().as_secs_f64() / 1e6
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

/// The revision of the checkout this was built in, when it is a git
/// repository (the driver's checkouts are not): `.git/HEAD`, followed
/// through one loose ref.
pub fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = read(&git.join("HEAD").to_string_lossy());
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&git.join(r).to_string_lossy()),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".into(),
        rev => rev.chars().take(7).collect(),
    }
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let (_, mount, fstype) = (cols.next()?, cols.next()?, cols.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_from_status_style_text() {
        let text = "Name:\tx\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(field(text, "VmHWM:"), 2048);
        assert_eq!(field(text, "voluntary_ctxt_switches:"), 17);
        assert_eq!(field(text, "missing:"), 0);
    }

    #[test]
    fn steal_share_is_a_percentage_of_elapsed_jiffies() {
        assert_eq!(steal_pct((10, 1000), (15, 1100)), 5.0);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
    }

    #[test]
    fn this_process_has_a_thread_and_cpu_time() {
        let t = task_totals();
        assert!(t.threads >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(calibrate(Duration::from_millis(5)) > 0.0);
    }
}
