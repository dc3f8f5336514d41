//! Schedule-checked model of the chunked scan (compiled only under
//! `--cfg parcsr_check`).
//!
//! The model re-expresses the kernel's phase structure over
//! [`parcsr_check::Slice`] shared memory, with one logical thread per chunk
//! and joins where the real kernel has a rayon phase boundary (the paper's
//! `sync()`). Chunk-local work uses `with_range`/`read_range` — one schedule
//! point per phase — so the explored interleavings are exactly the
//! cross-chunk ones the disjointness argument is about.
//!
//! [`ScanFault`] seeds known-bad variants so the test suite can prove the
//! checker actually catches the races the real synchronization prevents.

use parcsr_check as check;

use parcsr_runtime::chunk_ranges;

/// Known-bad variants of the chunked scan, used to validate the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanFault {
    /// The shipped phase structure (must be race-free).
    None,
    /// Drops the `sync()` between carry propagation (phase 2) and chunk
    /// fix-up (phase 3): the carry thread's tail writes run concurrently
    /// with phase-3 threads reading those tails. Racy for `chunks >= 3`
    /// (phase 2 writes the tail of chunk 1, which chunk 2's fix-up reads).
    SkipPhase2Sync,
}

/// Model of Algorithm 1 (three-phase chunked inclusive scan, `+` monoid)
/// over instrumented shared memory. Must be called inside
/// [`parcsr_check::model`] / [`parcsr_check::check`]. Returns the final
/// array contents under the schedule being explored.
pub fn chunked_scan_model(input: Vec<u64>, chunks: usize, fault: ScanFault) -> Vec<u64> {
    let n = input.len();
    let ranges = chunk_ranges(n, chunks);
    let data = check::Slice::new(input).named("scan.data");
    if ranges.len() <= 1 {
        data.with_range(0..n, scan_in_place);
        return data.snapshot();
    }

    // Phase 1: independent per-chunk scans (Alg. 1 lines 2-3).
    let phase1: Vec<_> = ranges
        .iter()
        .cloned()
        .map(|r| {
            let data = data.clone();
            check::spawn(move || data.with_range(r, scan_in_place))
        })
        .collect();
    for h in phase1 {
        h.join(); // line 4: sync()
    }

    // Phase 2: serialized carry propagation across chunk tails (lines 6-9).
    let phase2 = {
        let data = data.clone();
        let ranges = ranges.clone();
        move || {
            for w in ranges.windows(2) {
                let prev = data.read(w[0].end - 1);
                let cur = data.read(w[1].end - 1);
                data.write(w[1].end - 1, prev + cur);
            }
        }
    };
    // The seeded fault runs phase 2 on its own thread *concurrently* with
    // phase 3 instead of completing it first (missing line-10 sync()).
    let unsynced_carry = match fault {
        ScanFault::None => {
            phase2();
            None
        }
        ScanFault::SkipPhase2Sync => Some(check::spawn(phase2)),
    };

    // Phase 3: each chunk but the first adds its predecessor's global tail
    // to all of its elements except the last (lines 11-13).
    let phase3: Vec<_> = ranges
        .windows(2)
        .map(|w| {
            let (prev, cur) = (w[0].clone(), w[1].clone());
            let data = data.clone();
            check::spawn(move || {
                let carry = data.read(prev.end - 1);
                data.with_range(cur.start..cur.end - 1, |chunk| {
                    for x in chunk.iter_mut() {
                        *x += carry;
                    }
                })
            })
        })
        .collect();
    for h in phase3 {
        h.join();
    }
    if let Some(h) = unsynced_carry {
        h.join();
    }
    data.snapshot()
}

fn scan_in_place(chunk: &mut [u64]) {
    let mut acc = 0u64;
    for x in chunk.iter_mut() {
        acc += *x;
        *x = acc;
    }
}
