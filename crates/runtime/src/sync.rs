//! The runtime's one lock policy: a poisoned lock is still used, since
//! a panic ends only the exchange it interrupted and every structure
//! behind a runtime lock is consistent between steps (DESIGN §10). The
//! crate's `clippy.toml` refuses the standard lock and wait elsewhere.

#![allow(clippy::disallowed_methods)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `mutex`, also after a panic elsewhere while it was held.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Releases `guard` until `condvar` is notified, then locks again.
pub(crate) fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait`] for at most `timeout`.
pub(crate) fn wait_timeout<'a, T>(
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
}
