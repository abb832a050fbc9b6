//! A temporary directory per test, shared by the crate's unit tests (`lib.rs` takes this
//! file by `#[path]`) and its integration tests (`mod common;`).

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An empty directory under the system temporary directory, removed with everything in
/// it on drop. The name holds the process id and a per-process counter, so no two tests
/// share one — neither across the test binaries `cargo test` runs at once, nor between
/// the threads of one binary, nor between two cases of one proptest.
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates the directory; `tag` only makes a leftover (a test killed mid-run)
    /// recognisable.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let serial = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("p2h-store-test-{}-{serial}-{tag}", std::process::id()));
        // A killed process that had this id may have left the name behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the test directory");
        Self(path)
    }
}

impl Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
