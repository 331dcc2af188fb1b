//! Runtime lock-rank validation.
//!
//! Locks built with [`crate::RwLock::with_rank`] carry a [`LockRank`] — a
//! numeric position in a global acquisition order plus a human-readable
//! name. Under `debug_assertions` every `.read()`/`.write()`/`try_*`
//! acquisition is validated against a thread-local stack of the ranks this
//! thread currently holds:
//!
//! - acquiring a rank **lower than or equal to** any held rank panics
//!   (out-of-order acquisition, or re-entrant acquisition of a lock the
//!   thread already holds — both are deadlock recipes);
//! - the check runs **before** blocking on the lock, so a would-be deadlock
//!   surfaces as a panic with both lock names instead of a hang.
//!
//! In release builds (no `debug_assertions`) every function here compiles
//! to nothing, so ranked locks cost the same as unranked ones.
//!
//! The tracker only sees acquisitions a test performs. The engine takes
//! every ranked lock inside branch-free bundle methods, so a test that calls
//! each bundle once (`jits-engine`'s
//! `store::tests::every_bundle_acquires_in_rank_order`) covers every
//! acquisition order the engine has.

/// A lock's position in the global acquisition order.
///
/// Lower `order` values must be acquired first. The `name` appears in
/// violation panics so the offending pair of locks is identifiable without
/// a debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    /// Position in the acquisition order (lower acquires first).
    pub order: u8,
    /// Human-readable lock name for diagnostics.
    pub name: &'static str,
}

impl LockRank {
    /// Builds a rank.
    pub const fn new(order: u8, name: &'static str) -> Self {
        LockRank { order, name }
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks of the locks this thread currently holds, in acquisition
        /// order. Guards may drop in any order, so releases remove by value
        /// rather than popping.
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Validates that acquiring `rank` respects the order given what this
    /// thread already holds. Panics on violation. Must run *before* the
    /// blocking acquisition so violations panic instead of deadlocking.
    pub fn check(rank: LockRank) {
        HELD.with(|h| {
            let held = h.borrow();
            if let Some(worst) = held.iter().filter(|r| r.order >= rank.order).max_by_key(|r| r.order) {
                if worst.order == rank.order {
                    panic!(
                        "lock-rank violation: thread re-acquires `{}` (rank {}) while already holding it — \
                         a write guard held across a re-acquiring call self-deadlocks",
                        rank.name, rank.order,
                    );
                }
                panic!(
                    "lock-rank violation: acquiring `{}` (rank {}) while holding `{}` (rank {}) — \
                     the fixed order requires lower ranks first",
                    rank.name, rank.order, worst.name, worst.order,
                );
            }
        });
    }

    /// Records a successful acquisition.
    pub fn acquired(rank: LockRank) {
        HELD.with(|h| h.borrow_mut().push(rank));
    }

    /// Records a guard drop. Guards can drop in any order, so this removes
    /// the most recent matching entry rather than popping the top.
    pub fn released(rank: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|r| *r == rank) {
                held.remove(pos);
            }
        });
    }

    /// Snapshot of the ranks this thread holds (test observability).
    pub fn held() -> Vec<LockRank> {
        HELD.with(|h| h.borrow().clone())
    }
}

#[cfg(debug_assertions)]
pub(crate) use imp::{acquired, check, released};

/// Snapshot of the ranks the current thread holds. Always empty in release
/// builds (the tracker compiles out).
pub fn held_ranks() -> Vec<LockRank> {
    #[cfg(debug_assertions)]
    {
        imp::held()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}
