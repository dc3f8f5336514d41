//! Explicit processor-count control.
//!
//! The paper's evaluation sweeps the number of processors (Table II's sixth
//! column: p ∈ {1, 4, 8, 16, 64}). Rayon's global pool is sized once at
//! startup, so the sweep instead pins each measurement to a dedicated
//! `p`-thread pool via [`with_processors`]. All parallel routines in this
//! workspace use rayon's *current* pool, so running them inside the closure
//! confines them to exactly `p` worker threads. `p` may exceed the physical
//! core count (the paper itself ran 64 threads on a 32-core machine).
//!
//! Pools are built once per width and cached for the life of the process:
//! the sweep calls `with_processors` once per (dataset, p, rep) sample, and
//! rebuilding the pool on every call would charge pool construction to the
//! first measurement taken on it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Returns the process-wide cached pool of exactly `processors` threads,
/// building (and caching) it on first use.
fn cached_pool(processors: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let mut pools = POOLS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    Arc::clone(pools.entry(processors).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(processors)
                .build()
                .expect("failed to build rayon pool"),
        )
    }))
}

/// Runs `f` on a cached rayon pool with exactly `processors` threads and
/// returns its result.
///
/// # Panics
///
/// Panics if `processors == 0`, or if the pool cannot be built.
pub fn with_processors<R: Send>(processors: usize, f: impl FnOnce() -> R + Send) -> R {
    assert!(processors > 0, "need at least one processor");
    cached_pool(processors).install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_requested_width() {
        for p in [1usize, 2, 4] {
            let seen = with_processors(p, rayon::current_num_threads);
            assert_eq!(seen, p);
        }
    }

    #[test]
    fn oversubscription_is_allowed() {
        let logical = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let p = logical * 2;
        assert_eq!(with_processors(p, rayon::current_num_threads), p);
    }

    #[test]
    fn returns_closure_value() {
        let v = with_processors(2, || (0..100).sum::<u64>());
        assert_eq!(v, 4950);
    }

    #[test]
    fn repeated_installs_reuse_the_cached_pool() {
        // Same width twice: the second call must hit the cache and still
        // report the right width (the cache is keyed by width, so distinct
        // widths coexist).
        assert!(Arc::ptr_eq(&cached_pool(3), &cached_pool(3)));
        assert!(!Arc::ptr_eq(&cached_pool(3), &cached_pool(5)));
        for _ in 0..2 {
            assert_eq!(with_processors(3, rayon::current_num_threads), 3);
            assert_eq!(with_processors(5, rayon::current_num_threads), 5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_processors_rejected() {
        with_processors(0, || ());
    }
}
