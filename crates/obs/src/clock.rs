//! The observability wall clock.
//!
//! This file is the only place in the workspace allowed to read the OS
//! clock: `clippy.toml` disallows `Instant::now` and `SystemTime::now`, and
//! [`now_nanos`] carries the one `#[expect]`. Everything else — record
//! stage walls, latency histograms, per-worker collection timings, the
//! bench binaries — receives nanosecond readings *through* [`now_nanos`],
//! which keeps all timing quarantined in record/metrics state and out of
//! anything statistics-bearing: a reading taken here can decorate a
//! statement record, but it can never influence what the engine computes.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
///
/// Process-relative (not UNIX time) on purpose: differences are meaningful,
/// absolute values are not, so a reading is useless as a data timestamp —
/// one more guard against timing leaking into statistics.
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one wall-clock read; callers only time volatile metrics"
)]
pub fn now_nanos() -> u64 {
    let now = Instant::now();
    now.duration_since(*EPOCH.get_or_init(|| now)).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}
