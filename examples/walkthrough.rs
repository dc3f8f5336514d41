//! Walkthrough of the paper's didactic figures on its own examples:
//!
//! * Figure 1: the CSR arrays of the 10-node graph of Table I;
//! * Figure 2: the chunked parallel prefix sum, phase by phase;
//! * Figure 3: the per-chunk degree computation with the side array.
//!
//! ```text
//! cargo run --release -p parcsr --example walkthrough
//! ```

use parcsr::{degrees_parallel, CsrBuilder};
use parcsr_graph::EdgeList;
use parcsr_runtime::chunk_ranges;
use parcsr_scan::inclusive_scan_seq;

fn main() {
    figure_1();
    figure_2();
    figure_3();
}

/// The Table I adjacency matrix as an edge list, and its CSR (Figure 1).
fn figure_1() {
    println!("== Figure 1: CSR of the Table I graph ==");
    let graph = EdgeList::new(
        10,
        vec![
            (0, 5),
            (1, 6),
            (1, 7),
            (2, 7),
            (3, 8),
            (3, 9),
            (4, 9),
            (5, 0),
            (6, 1),
            (7, 1),
            (7, 2),
            (8, 2),
            (8, 3),
            (9, 3),
        ],
    );
    let csr = CsrBuilder::new().build(&graph);
    println!("  iA (offsets):  {:?}", csr.offsets());
    println!("  jA (columns):  {:?}", csr.targets());
    for u in 0..10u32 {
        println!("  neighbors({u}) = {:?}", csr.neighbors(u));
    }
    println!();
}

/// The chunked scan of Figure 2, with each phase printed.
fn figure_2() {
    println!("== Figure 2: chunked parallel prefix sum ==");
    let mut v: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let chunks = 4;
    let ranges = chunk_ranges(v.len(), chunks);
    println!("  input:          {v:?}");
    println!("  chunks:         {ranges:?}");

    // Phase 1: per-chunk inclusive scans.
    for r in &ranges {
        let mut acc = 0u64;
        for x in &mut v[r.clone()] {
            acc += *x;
            *x = acc;
        }
    }
    println!("  after phase 1:  {v:?}   (each chunk scanned independently)");

    // Phase 2: serialized carry across chunk tails (the Lock() region).
    for w in ranges.windows(2) {
        v[w[1].end - 1] += v[w[0].end - 1];
    }
    println!("  after phase 2:  {v:?}   (chunk tails carry the global prefix)");

    // Phase 3: each chunk adds its predecessor's tail to the rest.
    let carries: Vec<u64> = ranges[..ranges.len() - 1]
        .iter()
        .map(|r| v[r.end - 1])
        .collect();
    for (r, carry) in ranges[1..].iter().zip(carries) {
        for x in &mut v[r.start..r.end - 1] {
            *x += carry;
        }
    }
    println!("  after phase 3:  {v:?}");

    let mut check: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    inclusive_scan_seq(&mut check);
    assert_eq!(v, check, "walkthrough must match the sequential scan");
    println!("  matches the sequential prefix sum ✓\n");
}

/// The per-chunk degree computation of Figure 3.
fn figure_3() {
    println!("== Figure 3: parallel degree computation ==");
    // A sorted edge array whose node runs straddle chunk boundaries.
    let edges: Vec<(u32, u32)> = vec![
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 2), // <- chunk boundary inside node 1's run
        (1, 3),
        (2, 0),
        (3, 1),
        (3, 2), // <- chunk boundary at node 3's run start
        (3, 4),
        (5, 0),
        (5, 1),
        (5, 2),
    ];
    let sources: Vec<u32> = edges.iter().map(|&(u, _)| u).collect();
    let chunks = 4;
    let ranges = chunk_ranges(edges.len(), chunks);
    println!("  sources:  {sources:?}");
    println!("  chunks:   {ranges:?}");
    for (pid, r) in ranges.iter().enumerate() {
        let chunk = &sources[r.clone()];
        let head = chunk[0];
        let head_count = chunk.iter().take_while(|&&x| x == head).count();
        println!(
            "  processor {pid}: head node {head} ×{head_count} -> globalTempDegree; rest -> globalDegArray"
        );
    }
    let degrees = degrees_parallel(&edges, 6, chunks);
    println!("  merged degree array: {degrees:?}");
    assert_eq!(degrees, [2, 3, 1, 3, 0, 3]);
    println!("  matches the sequential histogram ✓");
}
