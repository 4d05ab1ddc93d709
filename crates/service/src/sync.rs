//! Poison-tolerant locking.
//!
//! A panic while holding a `std::sync::Mutex` poisons it, and the default
//! `lock().unwrap()` idiom then propagates that panic into every other
//! thread that touches the lock — one crashed worker cascades into a dead
//! daemon. rapd's locks guard state that stays structurally valid even if
//! the holder panicked mid-update (queues of owned frames, ring buffers of
//! complete records, vectors of join handles), so the right policy is to
//! take the data and keep serving. These helpers centralize that policy;
//! service code must not call `.lock().expect(..)` directly.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

/// Lock a mutex, recovering the guard if a panicking holder poisoned it.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock an `RwLock` under the same poison-recovery policy.
pub(crate) fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock an `RwLock` under the same poison-recovery policy.
pub(crate) fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison-recovery policy.
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] with the same poison-recovery policy.
pub(crate) fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_mutex_is_recovered_not_propagated() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        // the data survives and stays writable
        let mut g = lock_recover(&m);
        assert_eq!(*g, 7);
        *g = 8;
        drop(g);
        assert_eq!(*lock_recover(&m), 8);
    }

    #[test]
    fn condvar_wait_timeout_recovers() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let (guard, timed_out) =
            wait_timeout_recover(&cv, lock_recover(&m), Duration::from_millis(1));
        assert!(timed_out.timed_out());
        assert!(!*guard);
    }

    #[test]
    fn condvar_wait_recovers_from_a_poisoned_mutex() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));

        // Poison the mutex: a holder thread panics mid-update.
        let p = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _guard = p.0.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(pair.0.is_poisoned());

        // A notifier flips the flag through the recovered lock and wakes us.
        let p = Arc::clone(&pair);
        let notifier = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            *lock_recover(&p.0) = true;
            p.1.notify_all();
        });

        // wait_recover must survive the poisoned re-acquire instead of
        // propagating the holder's panic into this thread.
        let mut guard = lock_recover(&pair.0);
        while !*guard {
            guard = wait_recover(&pair.1, guard);
        }
        assert!(*guard);
        drop(guard);
        notifier.join().expect("notifier thread");
    }
}
