#![deny(unsafe_op_in_unsafe_fn)]

//! Zero-dependency observability for the parcsr pipeline (tracing, latency
//! histograms, memory accounting, per-stage profiling).
//!
//! The paper's whole evaluation is per-stage wall-clock attribution — degree
//! count, prefix sum, scatter, bit packing, TCSR merge — so the reproduction
//! needs to see *where* time goes at each processor count, not just whole
//! experiment durations. This crate provides that with no external
//! dependencies (the workspace builds offline):
//!
//! * **Spans** ([`span`](mod@span)): RAII guards created with [`enter`] /
//!   [`enter_with_args`] or the [`span!`] macro, timed on the monotonic
//!   clock, nestable, carrying typed payloads ([`SpanArgs`]: edge counts,
//!   chunk index/size, bit width), recorded into per-thread buffers that
//!   merge into a global sink when worker threads exit (the rayon shim's
//!   scoped workers exit at join, so merge-at-join is automatic). Each span
//!   carries the worker id it ran on. Every span is recorded; the
//!   instrumented code opens spans only around parallel regions and
//!   pipeline stages, so a trace grows with the regions that ran.
//! * **Histograms** ([`metrics`]): log-bucketed (HDR-style) latency
//!   histograms with p50/p95/p99 extraction, the value type the serving
//!   slabs below are built from.
//! * **Memory** ([`mem`]): a counting global allocator (registered only by
//!   the bench/CLI binaries) tracking live/peak heap bytes, with per-stage
//!   peak attribution threaded through the span records.
//! * **Serving telemetry** ([`serve`]): sharded per-worker latency slabs
//!   and sliding-window histograms ([`serve::WindowedHistogram`]) with
//!   per-query accounting by query kind and degree class — the qps /
//!   percentile-per-window shape a query server reports against an SLO.
//!   Plain value types: the `queries_closed_loop` load driver owns the one
//!   slab set, times each query call once, and keeps one
//!   [`serve::HistoryWindow`] per rotated window.
//! * **Exporters** ([`export`]): a human-readable per-stage/per-thread
//!   summary table (with a memory section) and a Chrome `chrome://tracing`
//!   JSON trace writer — span events with `args` payloads plus counter
//!   events for memory and the serving windows it is handed — built on the
//!   hand-rolled [`json`] module (shared with `parcsr-bench`).
//! * **Analysis** ([`analyze`]): pure arithmetic over collected spans —
//!   per-stage worker-utilization/critical-path metrics and chunk-imbalance
//!   statistics. Compiled unconditionally (it holds no recording state), so
//!   offline tools like `cargo xtask trace-analyze` use it without the
//!   `enabled` feature.
//!
//! # Cost model
//!
//! Instrumented crates call the entry points here unconditionally. Without
//! the `enabled` cargo feature every entry point is an empty
//! `#[inline(always)]` function and every guard is a zero-sized type, so
//! disabled builds — the default everywhere in the workspace — pay nothing,
//! on the hot query path or anywhere else. With the feature compiled in,
//! recording is additionally gated behind a runtime [`set_enabled`] switch
//! (one relaxed atomic load when off) so the `--trace` / `--metrics` flags
//! decide whether anything is collected; memory is accounted whenever
//! recording is on and a counting allocator is registered.

pub mod analyze;
pub mod export;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod serve;
pub mod span;

pub use metrics::Histogram;
pub use span::{
    drain, enter, enter_with_args, with_span, with_span_args, Span, SpanArgs, SpanRecord,
};

#[cfg(feature = "enabled")]
// ORDERING: Relaxed — ENABLED is an on/off knob; readers need eventual
// visibility only, and no other memory is published through it.
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

#[cfg(feature = "enabled")]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation was compiled in (the `enabled` cargo feature).
#[must_use]
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

/// Turns runtime recording on or off. A no-op unless the `enabled` feature
/// was compiled in.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "enabled")]
    ENABLED.store(on, Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// True when instrumentation is compiled in *and* runtime recording is on.
#[inline(always)]
#[must_use]
pub fn is_enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        ENABLED.load(Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Opens a span that lasts until the end of the enclosing scope, or runs a
/// block under a span.
///
/// Guard form — the span closes at the end of the enclosing scope:
///
/// ```
/// fn stage() {
///     parcsr_obs::span!("degree_count");
///     // ... work timed under "degree_count" ...
/// }
/// ```
///
/// **Nesting footgun:** two guard-form `span!` invocations in the same scope
/// *nest* (both guards live to the scope's end) — the second records at
/// depth 1, not as a sibling. For sequential stages use the block form,
/// which scopes each span to its block and composes sequentially:
///
/// ```
/// let a = parcsr_obs::span!("stage_a", { 40 });
/// let b = parcsr_obs::span!("stage_b", { a + 2 }); // sibling, not nested
/// assert_eq!(b, 42);
/// ```
///
/// (or [`with_span`] for an expression). Either form takes trailing
/// `key = value` payload arguments from the [`SpanArgs`] field set:
///
/// ```
/// let edge_count = 10u64;
/// parcsr_obs::span!("pack", edges = edge_count, bits = 7u32);
/// parcsr_obs::span!("pack.chunk", chunk = 0u64, { /* work */ });
/// ```
#[macro_export]
macro_rules! span {
    // Block form: span scoped to the block, usable in statement position —
    // sequential invocations record siblings. `?`/`return`/`break` inside
    // the block behave as in any ordinary block.
    ($name:expr, $body:block) => {{
        let _parcsr_obs_span_guard = $crate::enter($name);
        $body
    }};
    ($name:expr, $($key:ident = $value:expr),+ , $body:block) => {{
        let _parcsr_obs_span_guard =
            $crate::enter_with_args($name, $crate::SpanArgs::new()$(.$key($value))+);
        $body
    }};
    // Guard form: span lasts to the end of the enclosing scope.
    ($name:expr) => {
        let _parcsr_obs_span_guard = $crate::enter($name);
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        let _parcsr_obs_span_guard =
            $crate::enter_with_args($name, $crate::SpanArgs::new()$(.$key($value))+);
    };
}
