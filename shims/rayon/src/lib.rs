//! In-tree shim of the `rayon` API used by this workspace.
//!
//! The build environment has no crates.io access, so the workspace vendors a
//! minimal, API-compatible subset of rayon. Since the concurrency-correctness
//! PR it executes **with real threads** whenever the effective pool width is
//! greater than one:
//!
//! * [`join`] runs its second closure on a scoped thread.
//! * `map` / `flat_map` / `flat_map_iter` evaluate eagerly across a scoped
//!   thread team, splitting the input into one contiguous chunk per thread
//!   (results are concatenated in input order, so output equals the
//!   sequential result for deterministic closures).
//! * `for_each` dispatches its items across the same kind of thread team.
//!
//! At width 1 (`ThreadPool::install`ed width 1, or a single-core machine)
//! every operation runs sequentially on the calling thread, byte-for-byte
//! identical to the old sequential shim — the determinism anchor the
//! processor-sweep tests rely on. Worker threads report
//! [`current_num_threads`] `== 1`, so nested parallel calls run sequentially
//! inside workers (depth-one parallelism; rayon would instead share one
//! global pool).
//!
//! Remaining deliberately sequential pieces, chosen because their callers do
//! the heavy lifting in an upstream eager `map`: `reduce`, `sum`, `collect`
//! (they drain an already-computed buffer), `map_init` (its single-state
//! sequential semantics is one legal rayon schedule and keeps sampled
//! generators deterministic), and the `par_sort_*` family.
//!
//! Semantics the codebase relies on are preserved:
//!
//! * `ThreadPoolBuilder` / `ThreadPool::install` / `current_num_threads`
//!   round-trip the requested pool width (the paper's processor sweep reads
//!   it), tracked per thread so nested `install`s nest correctly.
//! * All `par_*` adapters have rayon's signatures and are drop-in at the
//!   type level, so swapping the real rayon back in is a one-line Cargo.toml
//!   change. Eager adapters carry rayon's `Send`/`Sync` bounds, which is
//!   what lets them actually thread.
//! * Every algorithm in this workspace is written to be result-deterministic
//!   under rayon's nondeterministic scheduling (disjoint chunk writes
//!   verified by `parcsr-check`, first-writer-wins via CAS, fixed-shape
//!   reductions, canonicalized frontiers), so outputs do not depend on the
//!   width.

use std::cell::Cell;

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

thread_local! {
    static POOL_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Index of the current worker thread within its parallel region (0-based),
/// or `None` on any thread that is not a pool worker — the same shape as
/// rayon's free function. The shim spawns workers per region, so the index
/// identifies which of the `p` chunk workers (or `join`'s second arm) is
/// running; instrumentation uses it to attribute spans to workers.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Number of threads in the current pool: the width `install`ed on this
/// thread, or the machine's available parallelism outside any pool.
pub fn current_num_threads() -> usize {
    POOL_WIDTH.with(|w| w.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Error building a thread pool (the shim never fails; kept for API parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (machine-width) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool width; `0` means "use the default width".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A pool that records its width; closures `install`ed on it dispatch their
/// `par_*` calls across scoped threads of that width.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with [`current_num_threads`] reporting this pool's width.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        POOL_WIDTH.with(|w| {
            let prev = w.replace(Some(self.num_threads));
            let out = f();
            w.set(prev);
            out
        })
    }

    /// The pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Runs two closures and returns both results. At width > 1 the second
/// closure runs on a scoped thread while the first runs on the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(|| {
            POOL_WIDTH.with(|w| w.set(Some(1)));
            // The spawned arm is "the other worker" relative to the caller.
            WORKER_INDEX.with(|w| w.set(Some(1)));
            b()
        });
        let ra = a();
        let rb = match hb.join() {
            Ok(v) => v,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (ra, rb)
    })
}

/// The scoped-thread work driver shared by the eager adapters.
mod pool {
    use super::{POOL_WIDTH, WORKER_INDEX};

    /// Splits `items` into `parts` contiguous runs of near-equal size
    /// (larger first — the same convention as `parcsr_runtime::chunk_ranges`).
    fn split_vec<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
        let n = items.len();
        let parts = parts.max(1).min(n.max(1));
        let base = n / parts;
        let extra = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut rest = items;
        for i in 0..parts - 1 {
            let size = base + usize::from(i < extra);
            let tail = rest.split_off(size);
            out.push(std::mem::replace(&mut rest, tail));
        }
        out.push(rest);
        out
    }

    /// Runs `work` over each chunk of `items` on its own scoped thread and
    /// returns the per-chunk results in input order. Worker threads see a
    /// pool width of 1, so nested parallelism degrades to sequential.
    fn run_chunked<T, R>(items: Vec<T>, width: usize, work: impl Fn(Vec<T>) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let chunks = split_vec(items, width);
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .enumerate()
                .map(|(index, chunk)| {
                    scope.spawn(move || {
                        POOL_WIDTH.with(|w| w.set(Some(1)));
                        WORKER_INDEX.with(|w| w.set(Some(index)));
                        work(chunk)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        })
    }

    /// Parallel map preserving input order.
    pub(crate) fn map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let width = super::current_num_threads();
        if width <= 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        run_chunked(items, width, |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Parallel flat-map (serial inner iterators) preserving input order.
    pub(crate) fn flat_map_vec<T, P, F>(items: Vec<T>, f: F) -> Vec<P::Item>
    where
        T: Send,
        P: IntoIterator,
        P::Item: Send,
        F: Fn(T) -> P + Sync,
    {
        let width = super::current_num_threads();
        if width <= 1 || items.len() <= 1 {
            return items.into_iter().flat_map(f).collect();
        }
        run_chunked(items, width, |chunk| {
            chunk.into_iter().flat_map(&f).collect::<Vec<P::Item>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Parallel for-each.
    pub(crate) fn for_each_vec<T, F>(items: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(T) + Sync,
    {
        let width = super::current_num_threads();
        if width <= 1 || items.len() <= 1 {
            items.into_iter().for_each(f);
            return;
        }
        run_chunked(items, width, |chunk| chunk.into_iter().for_each(&f));
    }
}

pub mod iter {
    //! rayon-shaped parallel iterator adapters. Eager adapters (`map`,
    //! `flat_map`, `for_each`) dispatch across scoped threads; the rest wrap
    //! standard sequential iterators.

    /// The shim's parallel iterator: a wrapper over a standard iterator
    /// exposing rayon-shaped adapter methods.
    #[derive(Debug, Clone)]
    pub struct Par<I>(pub I);

    impl<I: Iterator> IntoIterator for Par<I> {
        type Item = I::Item;
        type IntoIter = I;
        fn into_iter(self) -> I {
            self.0
        }
    }

    /// Anything convertible into a [`Par`] iterator (rayon's
    /// `IntoParallelIterator`).
    pub trait IntoParallelIterator {
        /// Element type.
        type Item;
        /// Underlying sequential iterator type.
        type Iter: Iterator<Item = Self::Item>;
        /// Converts `self` into a parallel iterator.
        fn into_par_iter(self) -> Par<Self::Iter>;
    }

    impl<T: IntoIterator> IntoParallelIterator for T {
        type Item = T::Item;
        type Iter = T::IntoIter;
        fn into_par_iter(self) -> Par<T::IntoIter> {
            Par(self.into_iter())
        }
    }

    /// `par_iter` by shared reference.
    pub trait IntoParallelRefIterator<'a> {
        /// Element type (a reference).
        type Item: 'a;
        /// Underlying sequential iterator type.
        type Iter: Iterator<Item = Self::Item>;
        /// Iterates `self` by reference.
        fn par_iter(&'a self) -> Par<Self::Iter>;
    }

    impl<'a, T: 'a + ?Sized> IntoParallelRefIterator<'a> for T
    where
        &'a T: IntoIterator,
    {
        type Item = <&'a T as IntoIterator>::Item;
        type Iter = <&'a T as IntoIterator>::IntoIter;
        fn par_iter(&'a self) -> Par<Self::Iter> {
            Par(self.into_iter())
        }
    }

    /// `par_iter_mut` by exclusive reference.
    pub trait IntoParallelRefMutIterator<'a> {
        /// Element type (a mutable reference).
        type Item: 'a;
        /// Underlying sequential iterator type.
        type Iter: Iterator<Item = Self::Item>;
        /// Iterates `self` by mutable reference.
        fn par_iter_mut(&'a mut self) -> Par<Self::Iter>;
    }

    impl<'a, T: 'a + ?Sized> IntoParallelRefMutIterator<'a> for T
    where
        &'a mut T: IntoIterator,
    {
        type Item = <&'a mut T as IntoIterator>::Item;
        type Iter = <&'a mut T as IntoIterator>::IntoIter;
        fn par_iter_mut(&'a mut self) -> Par<Self::Iter> {
            Par(self.into_iter())
        }
    }

    /// Marker re-export so `use rayon::prelude::*` brings the adapter
    /// methods into scope exactly like rayon's `ParallelIterator` trait
    /// does. The methods themselves are inherent on [`Par`].
    pub trait ParallelIterator {}
    impl<I: Iterator> ParallelIterator for Par<I> {}

    impl<I: Iterator> Par<I> {
        /// Maps each element, eagerly, across the current pool width.
        /// Output order equals input order.
        pub fn map<R, F>(self, f: F) -> Par<std::vec::IntoIter<R>>
        where
            I::Item: Send,
            R: Send,
            F: Fn(I::Item) -> R + Sync,
        {
            let items: Vec<I::Item> = self.0.collect();
            Par(crate::pool::map_vec(items, f).into_iter())
        }

        /// rayon's `map_init`: sequential here, with one state total (one
        /// legal schedule of rayon's one-state-per-worker contract; also
        /// what keeps seeded samplers deterministic).
        pub fn map_init<T, R, INIT, F>(self, init: INIT, mut f: F) -> Par<impl Iterator<Item = R>>
        where
            INIT: Fn() -> T,
            F: FnMut(&mut T, I::Item) -> R,
        {
            let mut state = init();
            Par(self.0.map(move |x| f(&mut state, x)))
        }

        /// Keeps elements satisfying the predicate.
        pub fn filter<F: FnMut(&I::Item) -> bool>(self, f: F) -> Par<std::iter::Filter<I, F>> {
            Par(self.0.filter(f))
        }

        /// Maps then keeps the `Some`s.
        pub fn filter_map<R, F: FnMut(I::Item) -> Option<R>>(
            self,
            f: F,
        ) -> Par<std::iter::FilterMap<I, F>> {
            Par(self.0.filter_map(f))
        }

        /// Maps each element to an iterable and flattens, eagerly, across
        /// the current pool width. Output order equals input order.
        pub fn flat_map<R, F>(self, f: F) -> Par<std::vec::IntoIter<R::Item>>
        where
            I::Item: Send,
            R: IntoIterator,
            R::Item: Send,
            F: Fn(I::Item) -> R + Sync,
        {
            let items: Vec<I::Item> = self.0.collect();
            Par(crate::pool::flat_map_vec::<_, R, _>(items, f).into_iter())
        }

        /// rayon's serial-inner `flat_map_iter`; identical to [`Par::flat_map`]
        /// here (the inner iterators are always consumed serially by the
        /// worker that produced them).
        pub fn flat_map_iter<R, F>(self, f: F) -> Par<std::vec::IntoIter<R::Item>>
        where
            I::Item: Send,
            R: IntoIterator,
            R::Item: Send,
            F: Fn(I::Item) -> R + Sync,
        {
            self.flat_map(f)
        }

        /// Flattens nested iterables.
        pub fn flatten(self) -> Par<std::iter::Flatten<I>>
        where
            I::Item: IntoIterator,
        {
            Par(self.0.flatten())
        }

        /// Copies referenced elements.
        pub fn copied<'a, T: 'a + Copy>(self) -> Par<std::iter::Copied<I>>
        where
            I: Iterator<Item = &'a T>,
        {
            Par(self.0.copied())
        }

        /// Clones referenced elements.
        pub fn cloned<'a, T: 'a + Clone>(self) -> Par<std::iter::Cloned<I>>
        where
            I: Iterator<Item = &'a T>,
        {
            Par(self.0.cloned())
        }

        /// Pairs elements with their index.
        pub fn enumerate(self) -> Par<std::iter::Enumerate<I>> {
            Par(self.0.enumerate())
        }

        /// Skips the first `n` items.
        pub fn skip(self, n: usize) -> Par<std::iter::Skip<I>> {
            Par(self.0.skip(n))
        }

        /// Takes only the first `n` items.
        pub fn take(self, n: usize) -> Par<std::iter::Take<I>> {
            Par(self.0.take(n))
        }

        /// Zips with another (into-)parallel iterator.
        pub fn zip<Z: IntoParallelIterator>(self, other: Z) -> Par<std::iter::Zip<I, Z::Iter>> {
            Par(self.0.zip(other.into_par_iter().0))
        }

        /// Chains another (into-)parallel iterator after this one.
        pub fn chain<C>(self, other: C) -> Par<std::iter::Chain<I, C::Iter>>
        where
            C: IntoParallelIterator<Item = I::Item>,
        {
            Par(self.0.chain(other.into_par_iter().0))
        }

        /// Calls `f` on every element, dispatched across the current pool
        /// width (sequential at width 1).
        pub fn for_each<F>(self, f: F)
        where
            I::Item: Send,
            F: Fn(I::Item) + Sync,
        {
            let items: Vec<I::Item> = self.0.collect();
            crate::pool::for_each_vec(items, f);
        }

        /// rayon's `reduce`: folds with `op` from `identity()`. Sequential:
        /// the expensive upstream stages (`map`) have already run in
        /// parallel by the time the fold drains them.
        pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> I::Item
        where
            ID: Fn() -> I::Item,
            OP: Fn(I::Item, I::Item) -> I::Item,
        {
            self.0.fold(identity(), op)
        }

        /// Sums the elements.
        pub fn sum<S: std::iter::Sum<I::Item>>(self) -> S {
            self.0.sum()
        }

        /// Maximum element, if any.
        pub fn max(self) -> Option<I::Item>
        where
            I::Item: Ord,
        {
            self.0.max()
        }

        /// Minimum element, if any.
        pub fn min(self) -> Option<I::Item>
        where
            I::Item: Ord,
        {
            self.0.min()
        }

        /// Element count.
        pub fn count(self) -> usize {
            self.0.count()
        }

        /// True if any element satisfies the predicate.
        pub fn any<F: FnMut(I::Item) -> bool>(self, f: F) -> bool {
            let mut iter = self.0;
            iter.any(f)
        }

        /// True if all elements satisfy the predicate.
        pub fn all<F: FnMut(I::Item) -> bool>(self, f: F) -> bool {
            let mut iter = self.0;
            iter.all(f)
        }

        /// Collects into any `FromIterator` collection.
        pub fn collect<C: FromIterator<I::Item>>(self) -> C {
            self.0.collect()
        }

        /// rayon's `collect_into_vec`: clears `out` and fills it.
        pub fn collect_into_vec(self, out: &mut Vec<I::Item>) {
            out.clear();
            out.extend(self.0);
        }

        /// Minimum split length hint — a no-op here.
        pub fn with_min_len(self, _len: usize) -> Self {
            self
        }

        /// Maximum split length hint — a no-op here.
        pub fn with_max_len(self, _len: usize) -> Self {
            self
        }
    }
}

pub mod slice {
    //! `par_chunks` / `par_sort_*` extension traits over slices.

    use crate::iter::Par;

    /// Shared-slice parallel views.
    pub trait ParallelSlice<T> {
        /// Chunks of at most `size` elements.
        fn par_chunks(&self, size: usize) -> Par<std::slice::Chunks<'_, T>>;
        /// Overlapping windows of exactly `size` elements.
        fn par_windows(&self, size: usize) -> Par<std::slice::Windows<'_, T>>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, size: usize) -> Par<std::slice::Chunks<'_, T>> {
            Par(self.chunks(size))
        }
        fn par_windows(&self, size: usize) -> Par<std::slice::Windows<'_, T>> {
            Par(self.windows(size))
        }
    }

    /// Exclusive-slice parallel views and sorts.
    pub trait ParallelSliceMut<T> {
        /// Mutable chunks of at most `size` elements.
        fn par_chunks_mut(&mut self, size: usize) -> Par<std::slice::ChunksMut<'_, T>>;
        /// Mutable chunks of exactly `size` elements (remainder dropped).
        fn par_chunks_exact_mut(&mut self, size: usize) -> Par<std::slice::ChunksExactMut<'_, T>>;
        /// Unstable sort.
        fn par_sort_unstable(&mut self)
        where
            T: Ord;
        /// Unstable sort by key.
        fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F);
        /// Unstable sort by comparator.
        fn par_sort_unstable_by<F: FnMut(&T, &T) -> std::cmp::Ordering>(&mut self, f: F);
        /// Stable sort.
        fn par_sort(&mut self)
        where
            T: Ord;
        /// Stable sort by key.
        fn par_sort_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F);
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> Par<std::slice::ChunksMut<'_, T>> {
            Par(self.chunks_mut(size))
        }
        fn par_chunks_exact_mut(&mut self, size: usize) -> Par<std::slice::ChunksExactMut<'_, T>> {
            Par(self.chunks_exact_mut(size))
        }
        fn par_sort_unstable(&mut self)
        where
            T: Ord,
        {
            self.sort_unstable()
        }
        fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F) {
            self.sort_unstable_by_key(f)
        }
        fn par_sort_unstable_by<F: FnMut(&T, &T) -> std::cmp::Ordering>(&mut self, f: F) {
            self.sort_unstable_by(f)
        }
        fn par_sort(&mut self)
        where
            T: Ord,
        {
            self.sort()
        }
        fn par_sort_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, f: F) {
            self.sort_by_key(f)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pool_width_round_trips_and_nests() {
        let outer = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let inner = crate::ThreadPoolBuilder::new()
            .num_threads(7)
            .build()
            .unwrap();
        outer.install(|| {
            assert_eq!(crate::current_num_threads(), 3);
            inner.install(|| assert_eq!(crate::current_num_threads(), 7));
            assert_eq!(crate::current_num_threads(), 3);
        });
    }

    #[test]
    fn adapters_match_sequential_results() {
        let v: Vec<u64> = (0..100).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled[99], 198);
        let s: u64 = v.par_iter().copied().sum();
        assert_eq!(s, 4950);
        let r = (0..10u64).into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(r, 45);
        let mut out = Vec::new();
        v.par_iter().map(|&x| x + 1).collect_into_vec(&mut out);
        assert_eq!(out.len(), 100);
        let mut arr = [3u64, 1, 2];
        arr.par_sort_unstable();
        assert_eq!(arr, [1, 2, 3]);
    }

    #[test]
    fn join_runs_both_and_nests() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (a, b) = pool.install(|| {
            crate::join(
                || (0..1000u64).sum::<u64>(),
                // Nested width inside a worker is 1: nested joins degrade to
                // sequential instead of fanning out.
                || crate::join(crate::current_num_threads, || 7usize),
            )
        });
        assert_eq!(a, 499500);
        assert_eq!(b, (1, 7));
    }

    #[test]
    fn threaded_map_preserves_order_and_runs_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        // Worker threads are distinct OS threads: at width 4 with 4 items,
        // at least two distinct thread ids must appear.
        let seen = AtomicUsize::new(0);
        let ids: Vec<u64> = pool.install(|| {
            (0..4u64)
                .into_par_iter()
                .map(|i| {
                    seen.fetch_add(1, Ordering::Relaxed);
                    i * 10
                })
                .collect()
        });
        assert_eq!(ids, [0, 10, 20, 30]);
        assert_eq!(seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn threaded_for_each_touches_disjoint_slots() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        let mut data = vec![0u64; 64];
        pool.install(|| {
            data.par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = i as u64 + 1)
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn width_one_is_sequential_on_the_calling_thread() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let caller = std::thread::current().id();
        pool.install(|| {
            (0..16u64)
                .into_par_iter()
                .for_each(|_| assert_eq!(std::thread::current().id(), caller));
            let (ta, tb) = crate::join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!(ta, caller);
            assert_eq!(tb, caller);
        });
    }

    #[test]
    fn flat_map_matches_sequential() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let got: Vec<u64> = pool.install(|| {
            (0..10u64)
                .into_par_iter()
                .flat_map_iter(|i| (0..i).map(move |j| i * 100 + j))
                .collect()
        });
        let want: Vec<u64> = (0..10u64)
            .flat_map(|i| (0..i).map(move |j| i * 100 + j))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn worker_index_attributes_chunks_and_join_arms() {
        // Outside any pool: no worker identity.
        assert_eq!(crate::current_thread_index(), None);
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let indices: Vec<Option<usize>> = pool.install(|| {
            // The coordinator inside `install` is still not a worker.
            assert_eq!(crate::current_thread_index(), None);
            (0..4u64)
                .into_par_iter()
                .map(|_| crate::current_thread_index())
                .collect()
        });
        // 4 items at width 4: one chunk per worker, indices 0..4.
        let mut seen: Vec<usize> = indices.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3]);
        let (ia, ib) =
            pool.install(|| crate::join(crate::current_thread_index, crate::current_thread_index));
        assert_eq!(ia, None);
        assert_eq!(ib, Some(1));
    }

    #[test]
    fn panic_in_worker_propagates() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..8u64).into_par_iter().for_each(|i| {
                    assert!(i < 4, "worker panic {i}");
                })
            })
        }));
        assert!(r.is_err());
    }
}
