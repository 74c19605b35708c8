//! Host measurements read from `/proc`, and the run's scratch directory.

use std::path::{Path, PathBuf};

/// CPU seconds (user + system, all threads) consumed so far by process
/// `pid` (`None` = this process).
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    // /proc reports USER_HZ ticks, fixed at 100 per second on Linux.
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) of process `pid` (`None` = this
/// process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-run scratch directory under `.flowbench_work/` in the current
/// directory, removed when dropped.
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let root = PathBuf::from(".flowbench_work").join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root, next: 0 })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, not yet existing path inside the directory.
    pub fn fresh(&mut self, stem: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{stem}{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
