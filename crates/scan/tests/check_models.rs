//! Schedule-exploration tests for the chunked scan. Compiled (and run) only
//! under `RUSTFLAGS="--cfg parcsr_check"`; see DESIGN.md §"Concurrency
//! correctness".
#![cfg(parcsr_check)]

use parcsr_check as check;
use parcsr_scan::checked::{chunked_scan_model, ScanFault};

fn reference(input: &[u64]) -> Vec<u64> {
    let mut out = input.to_vec();
    let mut acc = 0u64;
    for x in out.iter_mut() {
        acc += *x;
        *x = acc;
    }
    out
}

/// The shipped three-phase structure is race-free in every interleaving at
/// p = 2, and every schedule computes the sequential scan.
#[test]
fn chunked_scan_all_schedules_p2() {
    let input = vec![3u64, 1, 4, 1, 5];
    let want = reference(&input);
    let report = check::model(|| {
        let got = chunked_scan_model(input.clone(), 2, ScanFault::None);
        assert_eq!(got, want);
    });
    // Phase 1 alone has two orders of the two chunk scans, so the explorer
    // must run more than one schedule.
    assert!(report.executions >= 2, "executions = {}", report.executions);
}

/// Same at p = 3, where a middle chunk has both a predecessor and a
/// successor (the fullest boundary structure).
#[test]
fn chunked_scan_all_schedules_p3() {
    let input = vec![2u64, 7, 1, 8, 2, 8, 1];
    let want = reference(&input);
    let report = check::model(|| {
        let got = chunked_scan_model(input.clone(), 3, ScanFault::None);
        assert_eq!(got, want);
    });
    assert!(report.executions >= 6, "executions = {}", report.executions);
}

/// Dropping the sync between carry propagation and fix-up is a real race:
/// the carry thread writes chunk 1's tail while chunk 2's fix-up reads it.
#[test]
fn chunked_scan_missing_sync_races() {
    let input = vec![1u64, 2, 3, 4, 5, 6];
    let err = check::check(|| {
        chunked_scan_model(input.clone(), 3, ScanFault::SkipPhase2Sync);
    })
    .expect_err("carry/fix-up overlap must race");
    assert_eq!(err.location, "scan.data");
    assert!(
        err.kind == "read-write" || err.kind == "write-read",
        "unexpected kind: {err}"
    );
}

/// Degenerate shapes stay race-free (single chunk, empty input).
#[test]
fn chunked_scan_degenerate_shapes() {
    check::model(|| {
        assert_eq!(
            chunked_scan_model(vec![4u64, 4], 1, ScanFault::None),
            [4, 8]
        );
        assert!(chunked_scan_model(vec![], 3, ScanFault::None).is_empty());
    });
}
