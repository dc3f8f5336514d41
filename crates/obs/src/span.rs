//! Span-based tracing: RAII guards, per-thread buffers, payloads, merge at
//! join.
//!
//! A span is opened with [`enter`] (or the [`span!`](crate::span!) macro) and
//! closed when its guard drops. Open spans nest: each thread tracks a depth
//! counter, and the recorded depth is the nesting level at entry. Completed
//! spans go into a plain per-thread `Vec` — no locking, no atomics on the
//! record path — and are flushed into a global sink when the thread exits.
//! The rayon shim runs workers as scoped threads that exit at the end of
//! every parallel region, so worker spans merge into the sink exactly at
//! join. The coordinator's own buffer is flushed by [`drain`].
//!
//! Worker attribution: the record's `tid` is `0` for the coordinator (any
//! thread outside a pool worker) and `1 + rayon::current_thread_index()` for
//! pool workers, so a trace at width `p` shows tids `0..=p`.
//!
//! # Memory attribution
//!
//! When recording is on and the counting allocator is registered (see
//! [`crate::mem`]), each recorded span carries the live heap bytes at its end
//! ([`SpanRecord::mem_live`]) and the peak live bytes observed during it
//! ([`SpanRecord::mem_peak`]). Top-level coordinator spans — the sequential
//! pipeline stages — use a resettable allocator watermark, so their peak is
//! exact even for allocations made by worker threads inside the stage;
//! nested and worker spans fall back to `max(live at entry, live at exit)`,
//! which misses intra-span spikes but costs nothing extra per allocation.

use std::sync::OnceLock;
use std::time::Instant;

/// Typed span payload: the small fixed set of numeric arguments the pipeline
/// attaches to spans so traces explain *why* a stage was slow (how many
/// edges, which chunk, how wide the packed elements are) and not only that
/// it was. All fields are optional; an empty `SpanArgs` costs nothing to
/// carry. Exported as the Chrome-trace `args` object and validated by
/// `cargo xtask check-trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanArgs {
    /// Number of edges (or packed values) the span processed.
    pub edges: Option<u64>,
    /// Chunk index within the span's parallel region.
    pub chunk: Option<u64>,
    /// Chunk length in elements.
    pub chunk_len: Option<u64>,
    /// Bit width of the packed elements.
    pub bits: Option<u32>,
    /// Number of chunks a planner produced (planner spans, not per-chunk
    /// spans).
    pub chunks: Option<u64>,
}

impl SpanArgs {
    /// No arguments (same as `Default`, but `const`).
    #[must_use]
    pub const fn new() -> Self {
        SpanArgs {
            edges: None,
            chunk: None,
            chunk_len: None,
            bits: None,
            chunks: None,
        }
    }

    /// Sets the edge/value count.
    #[must_use]
    pub const fn edges(mut self, n: u64) -> Self {
        self.edges = Some(n);
        self
    }

    /// Sets the chunk index.
    #[must_use]
    pub const fn chunk(mut self, i: u64) -> Self {
        self.chunk = Some(i);
        self
    }

    /// Sets the chunk length.
    #[must_use]
    pub const fn chunk_len(mut self, n: u64) -> Self {
        self.chunk_len = Some(n);
        self
    }

    /// Sets the packed bit width.
    #[must_use]
    pub const fn bits(mut self, w: u32) -> Self {
        self.bits = Some(w);
        self
    }

    /// Sets the planner output size (number of chunks planned).
    #[must_use]
    pub const fn chunks(mut self, n: u64) -> Self {
        self.chunks = Some(n);
        self
    }

    /// True when no argument is set.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.edges.is_none()
            && self.chunk.is_none()
            && self.chunk_len.is_none()
            && self.bits.is_none()
            && self.chunks.is_none()
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name passed to [`enter`].
    pub name: &'static str,
    /// Start time in nanoseconds on the process-wide monotonic clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Worker id: `0` = coordinator, `1..=p` = pool worker `tid - 1`.
    pub tid: u32,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: u16,
    /// Typed payload arguments (empty unless the call site attached any).
    pub args: SpanArgs,
    /// Peak live heap bytes observed during the span; `0` when memory
    /// accounting was off (see [`crate::mem`]).
    pub mem_peak: u64,
    /// Live heap bytes at span end; `0` when memory accounting was off.
    pub mem_live: u64,
}

impl SpanRecord {
    /// End time in nanoseconds (`start_ns + dur_ns`).
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Nanoseconds since the process-wide epoch (first use of the clock).
/// Monotonic: backed by [`Instant`].
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

#[cfg(feature = "enabled")]
mod collect {
    use super::{now_ns, SpanArgs, SpanRecord};
    use std::cell::RefCell;
    use std::sync::{Mutex, PoisonError};

    pub(super) struct ActiveSpan {
        name: &'static str,
        start_ns: u64,
        depth: u16,
        args: SpanArgs,
        /// Memory accounting at entry; `None` when accounting was inactive.
        mem: Option<MemTrack>,
    }

    impl ActiveSpan {
        pub(super) fn set_args(&mut self, args: SpanArgs) {
            self.args = args;
        }
    }

    /// Per-span memory bookkeeping captured at entry.
    struct MemTrack {
        /// Live heap bytes when the span opened.
        live_at_begin: u64,
        /// True for top-level coordinator spans, which own the exact
        /// resettable watermark.
        top: bool,
    }

    #[derive(Default)]
    struct ThreadBuf {
        records: Vec<SpanRecord>,
        depth: u16,
    }

    impl Drop for ThreadBuf {
        fn drop(&mut self) {
            // Thread exit: merge this worker's spans into the global sink.
            // For pool workers this runs at the end of the parallel region
            // (the shim scopes workers per region), i.e. at join.
            flush_records(std::mem::take(&mut self.records));
        }
    }

    thread_local! {
        static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::default());
    }

    static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

    fn flush_records(mut records: Vec<SpanRecord>) {
        if records.is_empty() {
            return;
        }
        SINK.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut records);
    }

    pub(super) fn begin(name: &'static str, args: SpanArgs) -> Option<ActiveSpan> {
        if !crate::is_enabled() {
            return None;
        }
        let depth = BUF.with(|b| {
            let mut b = b.borrow_mut();
            let depth = b.depth;
            b.depth = b.depth.saturating_add(1);
            depth
        });
        let mem = crate::mem::active().then(|| {
            // Top-level coordinator spans (the sequential pipeline stages)
            // own the resettable watermark; everything else uses the
            // endpoint approximation.
            let top = depth == 0 && rayon::current_thread_index().is_none();
            if top {
                crate::mem::reset_watermark();
            }
            MemTrack {
                live_at_begin: crate::mem::live_bytes(),
                top,
            }
        });
        Some(ActiveSpan {
            name,
            start_ns: now_ns(),
            depth,
            args,
            mem,
        })
    }

    pub(super) fn finish(active: ActiveSpan) {
        let end_ns = now_ns();
        let tid = rayon::current_thread_index().map_or(0, |i| i as u32 + 1);
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            b.depth = b.depth.saturating_sub(1);
            let (mem_peak, mem_live) = match active.mem {
                Some(track) => {
                    let live_now = crate::mem::live_bytes();
                    let peak = if track.top {
                        crate::mem::watermark_bytes()
                    } else {
                        live_now
                    };
                    (peak.max(track.live_at_begin), live_now)
                }
                None => (0, 0),
            };
            b.records.push(SpanRecord {
                name: active.name,
                start_ns: active.start_ns,
                dur_ns: end_ns.saturating_sub(active.start_ns),
                tid,
                depth: active.depth,
                args: active.args,
                mem_peak,
                mem_live,
            });
        });
    }

    pub(super) fn drain() -> Vec<SpanRecord> {
        BUF.with(|b| flush_records(std::mem::take(&mut b.borrow_mut().records)));
        let mut all = std::mem::take(&mut *SINK.lock().unwrap_or_else(PoisonError::into_inner));
        all.sort_by_key(|r| (r.tid, r.start_ns, r.depth));
        all
    }
}

/// RAII span guard; records a [`SpanRecord`] when dropped. Zero-sized when
/// the `enabled` feature is off.
pub struct Span {
    #[cfg(feature = "enabled")]
    active: Option<collect::ActiveSpan>,
}

impl Span {
    /// Replaces the span's payload after entry — for arguments only known
    /// once the span's work has run (a planner's output size, a computed
    /// width). A no-op when recording is off.
    pub fn set_args(&mut self, args: SpanArgs) {
        #[cfg(feature = "enabled")]
        if let Some(active) = self.active.as_mut() {
            active.set_args(args);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = args;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(active) = self.active.take() {
            collect::finish(active);
        }
    }
}

/// Opens a span named `name`; it closes when the returned guard drops.
/// `name` should be a short stable stage identifier (`"degree"`, `"scan"`,
/// `"scan.chunk"` …). Compiles to nothing when the `enabled` feature is off;
/// records nothing when runtime recording is off.
#[inline(always)]
pub fn enter(name: &'static str) -> Span {
    enter_with_args(name, SpanArgs::new())
}

/// Opens a span named `name` carrying the typed payload `args`; see
/// [`enter`]. The macro form `span!("name", edges = n, …)` builds the
/// [`SpanArgs`] for you.
#[inline(always)]
pub fn enter_with_args(name: &'static str, args: SpanArgs) -> Span {
    #[cfg(feature = "enabled")]
    {
        Span {
            active: collect::begin(name, args),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, args);
        Span {}
    }
}

/// Runs `f` under a span named `name` and returns its result. Convenient for
/// wrapping a sequential stage expression — and, unlike two bare
/// [`span!`](crate::span!) guards in one scope, two `with_span` calls in
/// sequence record two *sibling* spans, not nested ones.
#[inline(always)]
pub fn with_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = enter(name);
    f()
}

/// [`with_span`] with a typed payload; see [`enter_with_args`].
#[inline(always)]
pub fn with_span_args<R>(name: &'static str, args: SpanArgs, f: impl FnOnce() -> R) -> R {
    let _span = enter_with_args(name, args);
    f()
}

/// Takes all completed spans recorded so far (flushing the calling thread's
/// buffer first) and resets the sink. Spans still open, or buffered on other live threads, are not
/// included — drain after joining workers. Returns records sorted by
/// `(tid, start_ns, depth)`; always empty when the `enabled` feature is off.
#[must_use]
pub fn drain() -> Vec<SpanRecord> {
    #[cfg(feature = "enabled")]
    {
        collect::drain()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}
