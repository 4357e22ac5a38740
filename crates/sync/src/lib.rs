//! # xdx-sync — the workspace's one lock policy
//!
//! A panic poisons the locks its thread held. Every lock and condition
//! wait in the workspace goes through this crate, which uses a poisoned
//! lock anyway: a panic ends only the exchange it interrupted, and every
//! structure behind a lock is consistent between steps (DESIGN §10).
//! The one structure whose invariants span statements repairs itself
//! through [`lock_or_repair`]. The workspace's `clippy.toml` refuses the
//! standard lock and wait everywhere else, and `PoisonError` is named
//! here alone.

#![forbid(unsafe_code)]
#![allow(clippy::disallowed_methods)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `mutex`, also after a panic elsewhere while it was held.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks `mutex`. When a panic poisoned it, `repair` first restores what
/// the interrupted edit may have left half done, and the mutex is
/// healthy again: the next lock repairs nothing.
pub fn lock_or_repair<T>(mutex: &Mutex<T>, repair: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        repair(&mut guard);
        mutex.clear_poison();
        guard
    })
}

/// Releases `guard` until `condvar` is notified, then locks again.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait`] for at most `timeout`.
pub fn wait_timeout<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    let woken = condvar.wait_timeout(guard, timeout);
    woken.unwrap_or_else(PoisonError::into_inner).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that panics while it holds a mutex poisons it; the
    /// runtime's plan cache, queue and aggregates must keep working
    /// after such a panic, through a lock and a condition wait alike.
    #[test]
    fn a_poisoned_lock_still_locks_and_waits() {
        let (cell, condvar) = (Mutex::new(0), Condvar::new());
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                *lock(&cell) = 1;
                let _held = lock(&cell);
                panic!("a panic while the lock is held");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cell.is_poisoned());
        assert_eq!(*lock(&cell), 1);
        let timed_out = wait_timeout(&condvar, lock(&cell), Duration::from_millis(1));
        assert_eq!(*timed_out, 1);
        drop(timed_out);
        std::thread::scope(|s| {
            let mut guard = lock(&cell);
            s.spawn(|| {
                *lock(&cell) = 2;
                condvar.notify_all();
            });
            while *guard != 2 {
                guard = wait(&condvar, guard);
            }
        });
        assert_eq!(*lock(&cell), 2);
    }

    /// A poisoned mutex is repaired once, by the lock that finds it
    /// poisoned; a healthy one is never handed to `repair`.
    #[test]
    fn a_poisoned_lock_is_repaired_once() {
        let cell = Mutex::new(vec![1, 2]);
        let mut repairs = 0;
        let mut repair = |v: &mut Vec<i32>| {
            repairs += 1;
            v.clear();
        };
        assert_eq!(*lock_or_repair(&cell, &mut repair), [1, 2]);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let mut held = lock(&cell);
                held.push(3);
                panic!("a panic halfway through an edit");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cell.is_poisoned());
        lock_or_repair(&cell, &mut repair).push(4);
        assert!(!cell.is_poisoned());
        assert_eq!(*lock_or_repair(&cell, &mut repair), [4]);
        assert_eq!(repairs, 1);
    }
}
