//! Per-span memory peaks: a top-level stage's peak is the exact allocator
//! watermark, spikes made by pool workers inside it included; a nested span
//! reports `max(live at entry, live at exit)`.
//!
//! Runs in its own integration-test binary because it registers the
//! counting global allocator and asserts on process-wide accounting — other
//! tests allocating concurrently would make the numbers nondeterministic,
//! so this file holds exactly one `#[test]`.
#![cfg(feature = "enabled")]

use parcsr_obs::{self as obs, mem, SpanRecord};

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc::new();

/// Far above the test harness's own heap.
const SPIKE: u64 = 32 << 20;
/// A block a nested span allocates and its sibling frees.
const HELD: u64 = 8 << 20;
/// Room for the harness's own allocations between two readings.
const SLACK: u64 = 1 << 20;

/// Allocates [`SPIKE`] bytes, touches them and frees them.
fn spike() {
    let v = vec![1u8; SPIKE as usize];
    std::hint::black_box(&v[v.len() / 2]);
}

fn find<'a>(records: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    records
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("span `{name}` missing from {records:?}"))
}

#[test]
fn top_level_peaks_are_exact_and_nested_peaks_are_endpoints() {
    obs::set_enabled(true);
    let _ = obs::drain();
    assert!(
        mem::active(),
        "recording is on and the allocator registered"
    );

    // A spike on the coordinator, inside a top-level stage.
    let before = mem::live_bytes();
    obs::span!("stage.coordinator", {
        spike();
    });
    let records = obs::drain();
    let stage = find(&records, "stage.coordinator");
    assert!(
        stage.mem_peak + SLACK >= before + SPIKE,
        "coordinator spike missed: peak {}, before {before}",
        stage.mem_peak
    );

    // The same spike made by a worker of a two-wide pool (the pool
    // `with_processors(2, …)` installs): the watermark is process-wide, so
    // the stage sees it although no span of the worker's recorded it.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let before = mem::live_bytes();
    obs::span!("stage.workers", {
        pool.install(|| {
            let (_, worker) = rayon::join(
                || (),
                || {
                    spike();
                    rayon::current_thread_index()
                },
            );
            assert_eq!(worker, Some(1), "the spike ran on a pool worker");
        });
    });
    let records = obs::drain();
    let stage = find(&records, "stage.workers");
    assert!(
        stage.mem_peak + SLACK >= before + SPIKE,
        "worker spike missed: peak {}, before {before}",
        stage.mem_peak
    );

    // Nested spans keep only their endpoints: a freed spike does not show,
    // and the peak is the larger of the live sizes at entry and at exit.
    let at_shrink_entry;
    {
        let _stage = obs::enter("stage.nested");
        let held = obs::span!("grow", {
            spike();
            vec![1u8; HELD as usize]
        });
        at_shrink_entry = mem::live_bytes();
        obs::span!("shrink", {
            spike();
            drop(held);
        });
    }
    let records = obs::drain();
    let stage = find(&records, "stage.nested");
    let grow = find(&records, "grow");
    let shrink = find(&records, "shrink");
    assert_eq!((grow.depth, shrink.depth), (1, 1));
    // Exit above entry: the peak is the live size at exit.
    assert_eq!(grow.mem_peak, grow.mem_live, "{grow:?}");
    // Entry above exit: the peak is the live size at entry.
    assert!(
        shrink.mem_peak + SLACK >= shrink.mem_live + HELD,
        "{shrink:?}"
    );
    assert!(
        shrink.mem_peak.abs_diff(at_shrink_entry) < SLACK,
        "peak {} against {at_shrink_entry} live at entry",
        shrink.mem_peak
    );
    for span in [grow, shrink] {
        assert!(
            span.mem_peak < at_shrink_entry + SPIKE / 2,
            "`{}` saw the freed spike: {span:?}",
            span.name
        );
    }
    // The enclosing top-level stage saw both spikes.
    assert!(
        stage.mem_peak + SLACK >= grow.mem_live - HELD + SPIKE,
        "{stage:?}"
    );
}
