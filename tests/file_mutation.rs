//! Mutation tests for the untrusted-file readers: valid `.pcsr` and `.tcsr`
//! files with one region damaged — a bit flipped in the header, the
//! offsets, the columns, or a frame's sources, offsets or columns, the file
//! truncated at any byte,
//! or bytes appended. `read_from` must return `Err`, or `Ok` with a value
//! every query kernel agrees on; it must never panic.

use std::ops::Range;

use proptest::prelude::*;

use parcsr::query::{edges_exist_batch, edges_exist_batch_binary, neighbors_batch};
use parcsr::{with_processors, BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{EdgeList, NodeId, TemporalEdge, TemporalEdgeList};
use parcsr_temporal::{Tcsr, TcsrBuilder};

/// `.pcsr` header: magic, mode, n, m, offset width and count, column
/// width and count.
const PCSR_HEADER: usize = 8 + 1 + 8 + 8 + 4 + 8 + 4 + 8;
/// `.tcsr` file header: magic, n, frame count.
const TCSR_HEADER: usize = 8 + 8 + 8;
/// Header of one `.tcsr` frame array: width, length, bit length.
const ARRAY_HEADER: usize = 4 + 8 + 8;
/// The three packed arrays of a `.tcsr` frame, in file order.
const FRAME_ARRAYS: [&str; 3] = ["sources", "offsets", "columns"];

/// One damage to a file.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip bit `bit` of the byte at `pos` (reduced modulo the region's
    /// size) in region `region` (reduced modulo the region count).
    Flip { region: usize, pos: usize, bit: u8 },
    /// Keep only the first `pos` bytes (reduced modulo the file length).
    Truncate { pos: usize },
    /// Append bytes.
    Append(Vec<u8>),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..6, any::<u32>(), 0u8..8).prop_map(|(region, pos, bit)| Mutation::Flip {
            region,
            pos: pos as usize,
            bit
        }),
        any::<u32>().prop_map(|pos| Mutation::Truncate { pos: pos as usize }),
        prop::collection::vec(any::<u8>(), 1..24).prop_map(Mutation::Append),
    ]
}

/// Applies `mutation` to `bytes`, whose regions are named byte ranges (a
/// region may be several ranges under one name); returns the damaged file
/// and what was hit.
fn mutate(
    mut bytes: Vec<u8>,
    regions: &[(&'static str, Range<usize>)],
    mutation: &Mutation,
) -> (Vec<u8>, &'static str) {
    match *mutation {
        Mutation::Flip { region, pos, bit } => {
            let mut names: Vec<&str> = regions.iter().map(|r| r.0).collect();
            names.dedup();
            let name = names[region % names.len()];
            let ranges: Vec<&Range<usize>> = regions
                .iter()
                .filter(|r| r.0 == name)
                .map(|r| &r.1)
                .collect();
            let size: usize = ranges.iter().map(|r| r.len()).sum();
            let mut pos = pos % size;
            for r in ranges {
                if pos < r.len() {
                    bytes[r.start + pos] ^= 1 << bit;
                    break;
                }
                pos -= r.len();
            }
            (bytes, name)
        }
        Mutation::Truncate { pos } => {
            bytes.truncate(pos % bytes.len());
            (bytes, "truncate")
        }
        Mutation::Append(ref tail) => {
            bytes.extend_from_slice(tail);
            (bytes, "append")
        }
    }
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Byte length of a packed array's words, from its bit-length field.
fn words_len(bits: u64) -> usize {
    bits.div_ceil(64) as usize * 8
}

/// A small graph with up to `max_nodes` nodes, possibly empty.
fn arb_graph(max_nodes: u32) -> impl Strategy<Value = EdgeList> {
    (
        0..max_nodes,
        prop::collection::vec((0..max_nodes, 0..max_nodes), 0..150),
    )
        .prop_map(|(n_extra, edges)| {
            let n = edges
                .iter()
                .map(|&(u, v)| u.max(v) + 1)
                .max()
                .unwrap_or(0)
                .max(n_extra);
            EdgeList::new(n as usize, edges)
        })
}

/// The header, offset and column regions of a `.pcsr` file. Each array's
/// region starts at its bit-length field.
fn pcsr_regions(bytes: &[u8]) -> Vec<(&'static str, Range<usize>)> {
    let cols_at = PCSR_HEADER + 8 + words_len(u64_at(bytes, PCSR_HEADER));
    vec![
        ("header", 0..PCSR_HEADER),
        ("offsets", PCSR_HEADER..cols_at),
        ("columns", cols_at..bytes.len()),
    ]
}

/// The header, sources, offsets and columns regions of a `.tcsr` file: the
/// file header and every array header count as header; each frame's
/// packed words join the region of their array.
fn tcsr_regions(bytes: &[u8]) -> Vec<(&'static str, Range<usize>)> {
    let mut headers = vec![("header", 0..TCSR_HEADER)];
    let mut arrays = Vec::new();
    let mut at = TCSR_HEADER;
    for _ in 0..u64_at(bytes, 8 + 8) {
        for name in FRAME_ARRAYS {
            let words_at = at + ARRAY_HEADER;
            headers.push(("header", at..words_at));
            at = words_at + words_len(u64_at(bytes, words_at - 8));
            if at > words_at {
                arrays.push((name, words_at..at));
            }
        }
    }
    // `mutate` names regions in first-seen order: list them grouped.
    for name in FRAME_ARRAYS {
        headers.extend(arrays.iter().filter(|r| r.0 == name).cloned());
    }
    headers
}

/// Every kernel of an accepted `.pcsr` agrees with `unpack()`, which holds
/// the invariants the kernels assume.
fn check_pcsr(packed: &BitPackedCsr) {
    let csr = packed.unpack();
    assert_eq!(csr.validate(), Ok(()));
    assert_eq!(csr.num_nodes(), packed.num_nodes());
    assert_eq!(csr.num_edges(), packed.num_edges());
    let n = csr.num_nodes() as NodeId;
    let nodes: Vec<NodeId> = (0..n).collect();
    let mut row = Vec::new();
    let mut probes = Vec::new();
    for u in 0..n {
        let want = csr.neighbors(u);
        packed.row_into(u, &mut row);
        assert_eq!(row, want, "row_into({u})");
        assert!(packed.row_iter(u).eq(want.iter().copied()), "row_iter({u})");
        for v in 0..n {
            assert_eq!(
                packed.has_edge(u, v),
                csr.has_edge(u, v),
                "has_edge({u}, {v})"
            );
            probes.push((u, v));
        }
    }
    let hits: Vec<bool> = probes.iter().map(|&(u, v)| csr.has_edge(u, v)).collect();
    for p in [1, 3] {
        let rows = neighbors_batch(packed, &nodes, p);
        assert!(rows.iter().zip(&nodes).all(|(r, &u)| r == csr.neighbors(u)));
        assert_eq!(edges_exist_batch(packed, &probes, p), hits, "p={p}");
        assert_eq!(edges_exist_batch_binary(packed, &probes, p), hits, "p={p}");
    }
}

/// Every kernel of an accepted `.tcsr` agrees with `snapshot_at`.
fn check_tcsr(tcsr: &Tcsr) {
    let few = tcsr.num_nodes().min(24) as NodeId;
    for t in 0..tcsr.num_frames() as u32 {
        let snapshot = tcsr.snapshot_at(t);
        assert!(snapshot.windows(2).all(|w| w[0] < w[1]), "t={t}");
        let mut nodes: Vec<NodeId> = (0..few).chain(snapshot.iter().map(|e| e.0)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for &u in &nodes {
            let want: Vec<NodeId> = snapshot.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
            assert_eq!(tcsr.neighbors_at(u, t), want, "neighbors_at({u}, {t})");
            for v in want.iter().copied().chain(0..few) {
                assert_eq!(
                    tcsr.edge_active_at(u, v, t),
                    snapshot.binary_search(&(u, v)).is_ok(),
                    "edge_active_at({u}, {v}, {t})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn damaged_pcsr_is_rejected_or_consistent(
        g in arb_graph(40),
        procs in 1usize..4,
        mutation in arb_mutation(),
    ) {
        let csr = CsrBuilder::new().processors(procs).build(&g);
        let mut bytes = Vec::new();
        BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, procs)
            .write_to(&mut bytes)
            .unwrap();
        let regions = pcsr_regions(&bytes);
        let (bytes, hit) = mutate(bytes, &regions, &mutation);
        if let Ok(packed) = BitPackedCsr::read_from(&mut bytes.as_slice()) {
            // One thread: the kernels run thousands of times per case.
            with_processors(1, || check_pcsr(&packed));
            if hit == "append" {
                prop_assert_eq!(packed.unpack(), csr);
            }
        }
    }

    #[test]
    fn damaged_tcsr_is_rejected_or_consistent(
        events in prop::collection::vec((0u32..24, 0u32..24, 0u32..6), 0..80),
        procs in 1usize..4,
        mutation in arb_mutation(),
    ) {
        let events = TemporalEdgeList::new(
            24,
            events.into_iter().map(|(u, v, t)| TemporalEdge::new(u, v, t)).collect(),
        );
        let tcsr = TcsrBuilder::new().processors(procs).build(&events);
        let mut bytes = Vec::new();
        tcsr.write_to(&mut bytes).unwrap();
        let regions = tcsr_regions(&bytes);
        let (bytes, hit) = mutate(bytes, &regions, &mutation);
        if let Ok(back) = Tcsr::read_from(&mut bytes.as_slice()) {
            with_processors(1, || check_tcsr(&back));
            if hit == "append" {
                prop_assert_eq!(back, tcsr);
            }
        }
    }
}
