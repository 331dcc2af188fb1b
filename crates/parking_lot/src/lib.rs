//! Offline vendored `parking_lot` facade.
//!
//! The real `parking_lot` crate cannot be fetched in this build environment,
//! so this workspace-local crate provides its lock API over `std::sync`
//! primitives. Semantics match what callers rely on:
//!
//! - `lock()` / `read()` / `write()` return guards directly (no
//!   `Result` — poisoning is absorbed: a panic while holding a lock does
//!   not poison it for other threads, matching parking_lot behavior),
//! - `try_*` variants return `Option`,
//! - guards deref to the protected value.
//!
//! On top of the upstream API, [`RwLock::with_rank`] attaches a
//! [`rank::LockRank`] to a lock; under `debug_assertions` every acquisition
//! of a ranked lock is validated against the thread's currently-held ranks
//! (see [`rank`]), turning lock-order violations into immediate panics with
//! both lock names instead of rare deadlocks.
//!
//! When the real crate becomes available, deleting this crate and
//! restoring the registry dependency is a drop-in swap (the rank extension
//! maps onto `parking_lot`'s `deadlock_detection` feature or a wrapper).

#![forbid(unsafe_code)]

pub mod rank;

use rank::LockRank;
use std::ops::{Deref, DerefMut};
use std::sync;

pub use sync::MutexGuard;

/// A mutual-exclusion lock with parking_lot's panic-transparent API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// A reader-writer lock with parking_lot's panic-transparent API and
/// optional rank validation (see [`RwLock::with_rank`]).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    lock_rank: Option<LockRank>,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new, unranked reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            lock_rank: None,
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a reader-writer lock carrying a [`LockRank`]. Under
    /// `debug_assertions`, every acquisition asserts that the calling
    /// thread holds no lock of an equal or higher rank.
    pub const fn with_rank(value: T, lock_rank: LockRank) -> Self {
        RwLock {
            lock_rank: Some(lock_rank),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// The rank this lock was built with, if any.
    pub fn rank(&self) -> Option<LockRank> {
        self.lock_rank
    }

    /// Validates the acquisition order before blocking (debug builds only).
    fn check_rank(&self) {
        #[cfg(debug_assertions)]
        if let Some(r) = self.lock_rank {
            rank::check(r);
        }
    }

    /// Records a successful acquisition (debug builds only).
    fn note_acquired(&self) {
        #[cfg(debug_assertions)]
        if let Some(r) = self.lock_rank {
            rank::acquired(r);
        }
    }

    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.check_rank();
        let g = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        self.note_acquired();
        RwLockReadGuard {
            lock_rank: self.lock_rank,
            inner: g,
        }
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.check_rank();
        let g = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        self.note_acquired();
        RwLockWriteGuard {
            lock_rank: self.lock_rank,
            inner: g,
        }
    }

    /// Tries to acquire read access without blocking. Rank order is still
    /// validated: a `try_read` that *would* violate the order panics in
    /// debug builds even though it could not deadlock by itself, because
    /// the sibling blocking path would.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        self.check_rank();
        let g = match self.inner.try_read() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        self.note_acquired();
        Some(RwLockReadGuard {
            lock_rank: self.lock_rank,
            inner: g,
        })
    }

    /// Tries to acquire write access without blocking (rank-validated like
    /// [`RwLock::try_read`]).
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        self.check_rank();
        let g = match self.inner.try_write() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        self.note_acquired();
        Some(RwLockWriteGuard {
            lock_rank: self.lock_rank,
            inner: g,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// Shared read guard; releases the lock (and its rank entry) on drop.
#[must_use = "dropping a guard releases the lock immediately"]
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock_rank: Option<LockRank>,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if let Some(r) = self.lock_rank {
            rank::released(r);
        }
        #[cfg(not(debug_assertions))]
        let _ = self.lock_rank;
    }
}

/// Exclusive write guard; releases the lock (and its rank entry) on drop.
#[must_use = "dropping a guard releases the lock immediately"]
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock_rank: Option<LockRank>,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if let Some(r) = self.lock_rank {
            rank::released(r);
        }
        #[cfg(not(debug_assertions))]
        let _ = self.lock_rank;
    }
}

#[cfg(test)]
mod tests {
    use super::rank::{held_ranks, LockRank};
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    const RANK_A: LockRank = LockRank::new(1, "a");
    const RANK_B: LockRank = LockRank::new(2, "b");
    const RANK_C: LockRank = LockRank::new(3, "c");

    /// The calling thread holds exactly `ranks`, in order. The tracker
    /// compiles out without `debug_assertions`, so a release build runs
    /// the acquire/drop sequence around this and checks nothing here.
    fn assert_held(ranks: &[LockRank]) {
        if cfg!(debug_assertions) {
            assert_eq!(held_ranks(), ranks);
        }
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
        let _r = l.read();
        assert!(l.try_read().is_some(), "readers share");
        assert!(l.try_write().is_none(), "writer excluded by reader");
    }

    #[test]
    fn panic_does_not_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        // parking_lot semantics: still usable afterwards
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn concurrent_increments() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    // ---- lock-rank tracker ------------------------------------------------

    #[test]
    fn ordered_acquisition_passes() {
        let a = RwLock::with_rank(1, RANK_A);
        let b = RwLock::with_rank(2, RANK_B);
        let c = RwLock::with_rank(3, RANK_C);
        let ga = a.read();
        let gb = b.write();
        let gc = c.read();
        assert_held(&[RANK_A, RANK_B, RANK_C]);
        assert_eq!(*ga + *gb + *gc, 6);
        drop(ga);
        drop(gb);
        drop(gc);
        assert_held(&[]);
        // skipping ranks is fine, only relative order matters
        let _ga = a.read();
        let _gc = c.write();
    }

    #[test]
    fn guards_may_drop_out_of_order() {
        let a = RwLock::with_rank(1, RANK_A);
        let b = RwLock::with_rank(2, RANK_B);
        let ga = a.read();
        let gb = b.read();
        drop(ga); // released before the later-ranked guard
        assert_held(&[RANK_B]);
        drop(gb);
        assert_held(&[]);
        // the earlier rank is reusable afterwards
        let _ga = a.write();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracker compiles out in release")]
    fn out_of_order_acquisition_panics() {
        let a = RwLock::with_rank(1, RANK_A);
        let b = RwLock::with_rank(2, RANK_B);
        let gb = b.read();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ga = a.read(); // rank 1 after rank 2: violation
        }))
        .expect_err("out-of-order read must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-rank violation"), "{msg}");
        assert!(msg.contains("`a`") && msg.contains("`b`"), "{msg}");
        // the failed acquisition must not leave a stale held entry
        assert_eq!(held_ranks(), vec![RANK_B]);
        drop(gb);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracker compiles out in release")]
    fn reacquisition_panics() {
        let a = RwLock::with_rank(1, RANK_A);
        let ga = a.write();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = a.read(); // same rank while held: self-deadlock shape
        }))
        .expect_err("re-acquiring a held rank must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("re-acquires"), "{msg}");
        drop(ga);
        assert!(held_ranks().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracker compiles out in release")]
    fn try_acquisition_is_rank_checked() {
        let a = RwLock::with_rank(1, RANK_A);
        let b = RwLock::with_rank(2, RANK_B);
        let gb = b.write();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = a.try_write(); // would violate the order if it blocked
        }))
        .expect_err("try_write against the order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-rank violation"), "{msg}");
        drop(gb);
    }

    #[test]
    fn ranks_are_per_thread() {
        // one thread holding a high rank must not constrain another thread
        let a = Arc::new(RwLock::with_rank(1u64, RANK_A));
        let b = Arc::new(RwLock::with_rank(2u64, RANK_B));
        let gb = b.write();
        let a2 = Arc::clone(&a);
        std::thread::spawn(move || {
            let _ga = a2.read(); // fresh thread: holds nothing yet
        })
        .join()
        .unwrap();
        drop(gb);
    }

    #[test]
    fn unranked_locks_are_never_checked() {
        let ranked = RwLock::with_rank(1, RANK_B);
        let plain = RwLock::new(2);
        let _gr = ranked.read();
        let _gp = plain.read(); // no rank: no ordering constraint
        assert_held(&[RANK_B]);
    }
}
