//! Poison-recovering lock acquisition, shared by every crate that guards
//! process-wide state.
//!
//! The workspace absorbs panics instead of propagating them: SA candidate
//! evaluations, worker-pool tasks and serve jobs all run under
//! `catch_unwind`, so a thread can panic while holding a `Mutex` and the
//! process keeps going. Std's poisoning then turns every later acquisition
//! into an `Err` — which is the wrong default here, because the guarded
//! structures are all either insert-only registries, memo caches or
//! monotonic counters whose invariants a mid-update panic cannot break
//! (the canonical audit is the analyzer's shared-state inventory).
//!
//! This helper makes that recovery decision once, in one place, instead
//! of scattering `unwrap_or_else(|p| p.into_inner())` matches across
//! crates: one panicked tenant must not wedge the shared cache, pool or
//! metrics registry for everyone else.

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Use for shared state whose invariants hold at every await-free point
/// (registries, caches, counters); state with multi-step invariants should
/// keep explicit poisoning instead.
pub fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let m = Mutex::new(7u64);
        let poison = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().expect("first lock");
            panic!("poison the mutex");
        }));
        assert!(poison.is_err());
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        let mut g = lock_recover(&m);
        assert_eq!(*g, 7);
        *g += 1;
        drop(g);
        assert_eq!(*lock_recover(&m), 8);
    }
}
