//! Scratch directories unique per process and per call, removed on drop,
//! so concurrent runs (and concurrent tests) never share a journal, socket
//! or replica file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parent of every scratch directory, relative to the working directory:
/// a run reads and writes only inside the tree it was started from, and
/// the short relative path keeps Unix socket paths under the 108-byte
/// `sun_path` limit however deep that tree is.
pub const ROOT: &str = ".bench_tmp";

pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `ROOT/<tag>-<pid>-<n>`, `n` counting calls in this process.
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        // A directory left by a killed process whose pid was reused.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // `ROOT` itself stays: removing it could race a sibling being
        // created by another thread.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed_on_drop() {
        let a = TempDir::new("t").unwrap();
        let b = TempDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
