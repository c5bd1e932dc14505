//! CPU and memory accounting from `/proc`.
//!
//! CPU time comes from `schedstat` (exact on-CPU nanoseconds): the
//! load is periodic at 30 ms, and tick-sampled `utime`/`stime` can
//! alias with it. Kernels without schedstats fall back to the `stat`
//! tick counters.

use std::fs;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Clock ticks per second of the `stat` counters (the Linux user ABI
/// fixes USER_HZ at 100).
const USER_HZ: u64 = 100;

/// The calling thread's kernel task id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling task")
}

/// On-CPU nanoseconds of one task of this process, or `None` when the
/// task has exited.
pub fn task_cpu_ns(tid: u32) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let mut f = rest.split_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// On-CPU nanoseconds summed over every live task of this process.
pub fn process_cpu_ns() -> u64 {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(task_cpu_ns)
        .sum()
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
/// Steal is time the hypervisor ran someone else while this guest
/// wanted the CPU — the visible part of a noisy host.
fn host_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Cumulative CPU of the whole process and of the load generator's
/// own threads, marked by the sender at every slice edge. The
/// difference is the server's.
pub struct CpuMeter {
    sender_tid: u32,
    /// The generator's receiver thread, when it has one.
    receiver_tid: Option<Arc<AtomicU32>>,
    /// `(process_ns, generator_ns)` at each mark.
    marks: Vec<(u64, u64)>,
    /// Host `(steal, total)` jiffies at the first and the latest mark.
    host: Option<((u64, u64), (u64, u64))>,
}

impl CpuMeter {
    /// The calling thread is the sender; a receiver thread publishes
    /// its task id through `receiver_tid` when it starts.
    pub fn new(receiver_tid: Option<Arc<AtomicU32>>) -> CpuMeter {
        CpuMeter {
            sender_tid: current_tid(),
            receiver_tid,
            marks: Vec::new(),
            host: None,
        }
    }

    pub fn mark(&mut self) {
        let receiver = self
            .receiver_tid
            .as_ref()
            .and_then(|tid| task_cpu_ns(tid.load(Ordering::Acquire)));
        let generator = task_cpu_ns(self.sender_tid).unwrap_or(0) + receiver.unwrap_or(0);
        self.marks.push((process_cpu_ns(), generator));
        let now = host_jiffies();
        self.host = Some((self.host.map_or(now, |(first, _)| first), now));
    }

    /// Share of all CPU time between the first and the last mark that
    /// the host stole from this guest.
    pub fn steal_share(&self) -> f64 {
        match self.host {
            Some(((s0, t0), (s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }

    /// Server CPU nanoseconds between consecutive marks.
    pub fn server_ns_per_slice(&self) -> Vec<u64> {
        self.marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).saturating_sub(w[1].1 - w[0].1))
            .collect()
    }

    /// Generator CPU seconds from the first mark to the last.
    pub fn generator_s(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(a), Some(b)) => (b.1 - a.1) as f64 / 1e9,
            _ => 0.0,
        }
    }
}

/// Peak resident set size of this process so far, in MB.
pub fn vm_hwm_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_thread_burns_measurable_cpu() {
        let tid = current_tid();
        let before = task_cpu_ns(tid).unwrap();
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 30 {
            std::hint::spin_loop();
        }
        let after = task_cpu_ns(tid).unwrap();
        assert!(after > before, "{before} -> {after}");
        assert!(process_cpu_ns() >= after - before);
        assert!(vm_hwm_mb() > 0.5);
    }

    #[test]
    fn exited_task_reads_none() {
        assert_eq!(task_cpu_ns(u32::MAX), None);
    }
}
