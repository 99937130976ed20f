//! Host facts and scratch space.

use std::path::{Path, PathBuf};

/// Peak resident set (`VmHWM`) of process `pid`, in MiB, from
/// `/proc/<pid>/status`. `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    vm_hwm_mb(&status)
}

/// Peak resident set of this process, in MiB.
pub fn own_peak_rss_mb() -> Option<f64> {
    peak_rss_mb(std::process::id())
}

fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A directory under the current directory (the checkout) that the
/// benchmark writes into; removed with everything in it on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_tmp/<name>-<pid>`, emptied first.
    ///
    /// # Errors
    ///
    /// Propagates the directory creation failure.
    pub fn new(name: &str) -> std::io::Result<Self> {
        let path = Path::new(".bench_tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory `name`.
    ///
    /// # Errors
    ///
    /// Propagates the directory creation failure.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_tmp` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(2.0));
        assert_eq!(vm_hwm_mb("Name:\tx\n"), None);
    }
}
