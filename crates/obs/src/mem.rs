//! Memory accounting: a counting global allocator and per-stage peak
//! attribution.
//!
//! Bit packing exists precisely to trade CPU for bytes, so the size story
//! has to be measured next to the time story. This module provides a
//! `CountingAlloc` that wraps the system allocator and keeps three relaxed
//! atomics: **live** bytes (allocated minus freed), the process-wide
//! monotone **peak**, and a resettable **watermark** used by top-level
//! coordinator spans to attribute peak memory to individual pipeline stages
//! (scatter buffers, per-chunk bit buffers, …).
//!
//! # Cost model
//!
//! Nothing here is registered automatically. The bench and CLI *binaries*
//! register the allocator with `#[global_allocator]`, and only when built
//! with their `obs` feature — library users and default builds keep the
//! plain system allocator and pay zero. When registered, every
//! alloc/dealloc pays three relaxed atomic RMW operations (a few ns,
//! invisible next to the allocator call itself). The numbers are reported
//! whenever recording is on ([`crate::set_enabled`], wired to `--trace` /
//! `--metrics`): there is no separate memory switch. Accounting tracks
//! requested layout sizes, not allocator-internal overhead, so the numbers
//! are deterministic across machines for a deterministic run.
//!
//! # Attribution
//!
//! Top-level coordinator spans reset the watermark at entry and read it at
//! exit, so their peak is exact, spikes made by worker threads inside the
//! stage included. Nested and worker spans report `max(live at entry, live
//! at exit)`: an allocate-and-free spike inside such a span shows only in
//! its enclosing top-level stage.
//!
//! Without the `enabled` cargo feature the whole module collapses to inert
//! stubs and the allocator type does not exist, so the default workspace
//! build contains no `unsafe` from this file.

/// Point-in-time memory accounting snapshot (bytes of live heap and the
/// process-wide peak).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Currently live heap bytes (allocated minus freed).
    pub live_bytes: u64,
    /// Peak live heap bytes since process start (monotone).
    pub peak_bytes: u64,
}

/// True when memory accounting is compiled in, recording is on
/// ([`crate::is_enabled`]), and a counting allocator is actually registered
/// in this process.
#[inline(always)]
#[must_use]
pub fn active() -> bool {
    #[cfg(feature = "enabled")]
    {
        // ORDERING: Relaxed — monotone peak counter; eventual visibility is
        // enough for a reporting gate.
        crate::is_enabled() && imp::PEAK.load(std::sync::atomic::Ordering::Relaxed) > 0
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Takes a [`MemSnapshot`], or `None` when accounting is not
/// [`active`] — callers render the memory section only when there is
/// real data behind it.
#[must_use]
pub fn snapshot() -> Option<MemSnapshot> {
    if !active() {
        return None;
    }
    Some(MemSnapshot {
        live_bytes: live_bytes(),
        peak_bytes: peak_bytes(),
    })
}

/// Currently live heap bytes (0 without the feature).
#[must_use]
pub fn live_bytes() -> u64 {
    #[cfg(feature = "enabled")]
    {
        // ORDERING: Relaxed — statistical counter read for reporting; no
        // memory is synchronized through it.
        imp::LIVE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Peak live heap bytes since process start (0 without the feature).
#[must_use]
pub fn peak_bytes() -> u64 {
    #[cfg(feature = "enabled")]
    {
        // ORDERING: Relaxed — monotone peak gauge; advisory reporting only.
        imp::PEAK.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Peak live heap bytes since the last [`reset_watermark`] (0 without the
/// feature). The span layer reads this at the end of a top-level stage.
#[must_use]
pub fn watermark_bytes() -> u64 {
    #[cfg(feature = "enabled")]
    {
        // ORDERING: Relaxed — stage watermark gauge; advisory reporting only.
        imp::WATER.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Resets the stage watermark to the current live size. Called by the span
/// layer at the start of each top-level coordinator span; top-level stages
/// are sequential, so the store/`fetch_max` race with concurrent worker
/// allocations can misattribute at most one in-flight allocation.
pub fn reset_watermark() {
    #[cfg(feature = "enabled")]
    {
        // ORDERING: Relaxed — the store/fetch_max race with concurrent
        // worker allocations is tolerated (see the doc comment): at most one
        // in-flight allocation is misattributed.
        use std::sync::atomic::Ordering::Relaxed;
        imp::WATER.store(imp::LIVE.load(Relaxed), Relaxed);
    }
}

#[cfg(feature = "enabled")]
pub use imp::CountingAlloc;

#[cfg(feature = "enabled")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    // ORDERING: Relaxed throughout — allocator counters are per-cell
    // monotone or commutative updates (fetch_add/fetch_sub/fetch_max) read
    // for reporting; nothing synchronizes through them, and the watermark
    // race is documented at `reset_watermark`.
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Live heap bytes: allocated minus freed, requested layout sizes.
    pub(super) static LIVE: AtomicU64 = AtomicU64::new(0);
    /// Monotone process-wide peak of `LIVE`. Non-zero iff a counting
    /// allocator is registered (every Rust program allocates at startup).
    pub(super) static PEAK: AtomicU64 = AtomicU64::new(0);
    /// Resettable per-stage watermark of `LIVE`.
    pub(super) static WATER: AtomicU64 = AtomicU64::new(0);

    #[inline]
    fn on_alloc(bytes: u64) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
        WATER.fetch_max(live, Relaxed);
    }

    #[inline]
    fn on_dealloc(bytes: u64) {
        LIVE.fetch_sub(bytes, Relaxed);
    }

    /// A counting wrapper around the system allocator. Registered by the
    /// bench/CLI binaries (never by the library) via:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static A: parcsr_obs::mem::CountingAlloc = parcsr_obs::mem::CountingAlloc::new();
    /// ```
    #[derive(Debug)]
    pub struct CountingAlloc;

    impl CountingAlloc {
        /// The allocator value (`const` so it can sit in a `static`).
        #[must_use]
        pub const fn new() -> Self {
            CountingAlloc
        }
    }

    impl Default for CountingAlloc {
        fn default() -> Self {
            Self::new()
        }
    }

    // SAFETY: pure pass-through to `System`, which upholds the GlobalAlloc
    // contract; the accounting only touches atomics and never allocates, so
    // it cannot recurse or unwind into the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (non-zero
        // `layout`); forwarded unchanged to `System`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same layout obligations as our own caller's.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        // SAFETY: caller passes a pointer previously returned by this
        // allocator with its original layout; forwarded unchanged.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: same pointer/layout obligations as our own caller's.
            unsafe { System.dealloc(ptr, layout) };
            on_dealloc(layout.size() as u64);
        }

        // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract;
        // forwarded unchanged.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same layout obligations as our own caller's.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (`ptr`
        // from this allocator, `layout` its current layout, `new_size`
        // valid); forwarded unchanged.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: same pointer/layout/size obligations as our caller's.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }
}
