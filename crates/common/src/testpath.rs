//! Deterministic temp-file paths for tests and benches.
//!
//! Every test or bench that needs files on disk (WAL directories, flight
//! dumps, chaos artifacts) routes its paths through [`TestDir`]: one
//! deterministic subdirectory per test name under `target/testtmp/`, wiped
//! on creation and removed again by a drop guard. Deterministic names — not
//! `mktemp` randomness — mean a failing run always leaves its debris at the
//! same place for inspection, while per-name isolation keeps repeated-loop
//! CI jobs and concurrently running tests from colliding as long as each
//! caller picks a unique name (the convention is the test function's name).

use std::path::{Path, PathBuf};

/// A per-test scratch directory with a drop-guard cleanup.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
    keep: bool,
}

/// The shared root for all test scratch directories: `target/testtmp/`
/// next to the workspace's build artifacts (honoring `CARGO_TARGET_DIR`).
fn testtmp_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        });
    target.join("testtmp")
}

impl TestDir {
    /// Creates (or wipes and recreates) `target/testtmp/<name>`. Non-path
    /// characters in `name` are replaced with `-`, so test names like
    /// `module::case` are valid inputs.
    pub fn new(name: &str) -> TestDir {
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        let path = testtmp_root().join(safe);
        // Start from a clean slate: a previous crashed run may have left
        // debris behind (that is the point of deterministic names).
        let _ = std::fs::remove_dir_all(&path);
        #[expect(
            clippy::expect_used,
            reason = "test scaffolding: an unusable scratch directory must fail the test loudly"
        )]
        std::fs::create_dir_all(&path).expect("create test scratch directory");
        TestDir { path, keep: false }
    }

    /// The scratch directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `rel` inside the scratch directory.
    pub fn file(&self, rel: &str) -> PathBuf {
        self.path.join(rel)
    }

    /// Disarms the drop-guard cleanup, leaving the directory on disk — used
    /// by failure paths that want the artifacts inspectable after the test
    /// process exits.
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_cleans_and_isolates() {
        let marker;
        {
            let dir = TestDir::new("common::testpath smoke/a");
            assert!(dir.path().is_dir());
            assert!(dir.path().ends_with("common--testpath-smoke-a"));
            marker = dir.file("marker.txt");
            std::fs::write(&marker, b"x").unwrap();
            // re-creating the same name wipes prior contents
            let again = TestDir::new("common::testpath smoke/a");
            assert!(!marker.exists());
            std::fs::write(again.file("other.txt"), b"y").unwrap();
        }
        assert!(!marker.parent().unwrap().exists(), "drop guard must clean");
    }

    #[test]
    fn keep_disarms_cleanup() {
        let path;
        {
            let mut dir = TestDir::new("common::testpath keep");
            dir.keep();
            path = dir.path().to_path_buf();
        }
        assert!(path.is_dir(), "kept directory must survive drop");
        let _ = std::fs::remove_dir_all(path);
    }
}
