//! Process and thread accounting read from Linux `/proc`.
//!
//! The benchmark needs on-CPU time per thread (to split party threads from
//! the executor), process user/system time, and peak resident memory. The
//! standard library exposes none of these, and the repository has no
//! `libc` binding, so they come from `/proc`. Any failure to read them is
//! a broken environment, not a measurement, and panics.

use std::fs::File;
use std::os::unix::fs::FileExt;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// On-CPU time of the calling thread, from `/proc/thread-self/schedstat`.
///
/// The file is opened once and re-read in place with `pread`, so one
/// sample costs a single system call. It must be opened on the thread it
/// measures: `/proc/thread-self` resolves to the opener.
#[derive(Debug)]
pub struct ThreadCpu(File);

impl ThreadCpu {
    /// Opens the calling thread's schedstat file.
    pub fn open() -> Self {
        ThreadCpu(
            File::open("/proc/thread-self/schedstat").expect("read /proc/thread-self/schedstat"),
        )
    }

    /// Nanoseconds this thread has spent on a CPU.
    pub fn now_ns(&self) -> u64 {
        let mut buf = [0u8; 96];
        let len = self.0.read_at(&mut buf, 0).expect("read schedstat");
        let text = std::str::from_utf8(&buf[..len]).expect("schedstat is ASCII");
        text.split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .expect("schedstat starts with on-CPU nanoseconds")
    }
}

/// Process user and system CPU seconds so far, including exited threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessCpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl ProcessCpu {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
        let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric stat field") };
        ProcessCpu {
            user_s: ticks(11) / USER_HZ,
            sys_s: ticks(12) / USER_HZ,
        }
    }

    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn add(&mut self, other: &ProcessCpu) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }

    /// CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &ProcessCpu) -> ProcessCpu {
        ProcessCpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs had work to run (`steal` in `/proc/stat`), summed over its CPUs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steal {
    seconds: f64,
    cpus: usize,
}

impl Steal {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        // "cpu  user nice system idle iowait irq softirq steal ..."
        let seconds = stat
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|f| f.parse::<f64>().ok())
            .expect("steal time in /proc/stat")
            / USER_HZ;
        let cpus = stat
            .lines()
            .filter(|l| {
                l.strip_prefix("cpu")
                    .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
            })
            .count();
        Steal { seconds, cpus }
    }

    /// Share of the machine's CPU time over the `wall_s` seconds since
    /// `earlier` that was stolen.
    pub fn share_since(&self, earlier: &Steal, wall_s: f64) -> f64 {
        let capacity = wall_s * self.cpus as f64;
        if capacity > 0.0 {
            (self.seconds - earlier.seconds) / capacity
        } else {
            0.0
        }
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
