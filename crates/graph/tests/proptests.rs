//! Property tests for the graph substrate.

use std::io::Cursor;

use proptest::prelude::*;

use parcsr_graph::io::{
    read_edge_list, read_edge_list_in_blocks, read_temporal_edge_list,
    read_temporal_edge_list_in_blocks, write_edge_list, write_temporal_edge_list, ParseError,
};
use parcsr_graph::{EdgeList, TemporalEdge, TemporalEdgeList};

/// The line-at-a-time SNAP reader the block parser replaced, kept verbatim
/// as the differential oracle: one `String` per line through `lines()`,
/// `trim`, `split_whitespace` and `str::parse::<u64>`.
mod reference {
    use std::io::BufRead;

    use parcsr_graph::io::ParseError;
    use parcsr_graph::{EdgeList, NodeId, TemporalEdge, TemporalEdgeList};

    fn parse_fields<const N: usize>(
        line: &str,
        lineno: usize,
    ) -> Result<Option<[u64; N]>, ParseError> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            return Ok(None);
        }
        let mut out = [0u64; N];
        let mut fields = trimmed.split_whitespace();
        for slot in out.iter_mut() {
            let f = fields.next().ok_or(ParseError::Malformed {
                line: lineno,
                content: line.to_string(),
                reason: "too few fields",
            })?;
            *slot = f.parse().map_err(|_| ParseError::Malformed {
                line: lineno,
                content: line.to_string(),
                reason: "field is not an unsigned integer",
            })?;
        }
        if fields.next().is_some() {
            return Err(ParseError::Malformed {
                line: lineno,
                content: line.to_string(),
                reason: "too many fields",
            });
        }
        Ok(Some(out))
    }

    fn check_node(x: u64, line: usize, content: &str) -> Result<NodeId, ParseError> {
        NodeId::try_from(x).map_err(|_| ParseError::Malformed {
            line,
            content: content.to_string(),
            reason: "node id exceeds u32",
        })
    }

    pub fn read_edge_list<R: BufRead>(reader: R) -> Result<EdgeList, ParseError> {
        let mut edges = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            if let Some([u, v]) = parse_fields::<2>(&line, i + 1)? {
                edges.push((check_node(u, i + 1, &line)?, check_node(v, i + 1, &line)?));
            }
        }
        Ok(EdgeList::from_pairs(edges))
    }

    pub fn read_temporal_edge_list<R: BufRead>(reader: R) -> Result<TemporalEdgeList, ParseError> {
        let mut events = Vec::new();
        let mut max_node: u64 = 0;
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            if let Some([u, v, t]) = parse_fields::<3>(&line, i + 1)? {
                max_node = max_node.max(u).max(v);
                let t = u32::try_from(t).map_err(|_| ParseError::Malformed {
                    line: i + 1,
                    content: line.to_string(),
                    reason: "timestamp exceeds u32",
                })?;
                events.push(TemporalEdge::new(
                    check_node(u, i + 1, &line)?,
                    check_node(v, i + 1, &line)?,
                    t,
                ));
            }
        }
        let num_nodes = if events.is_empty() {
            0
        } else {
            max_node as usize + 1
        };
        Ok(TemporalEdgeList::new(num_nodes, events))
    }
}

/// Everything about a parse result the two readers must agree on: the
/// records and node count, or the error's kind, line, reason and content.
fn outcome<T: PartialEq + std::fmt::Debug>(
    r: Result<(usize, Vec<T>), ParseError>,
) -> Result<(usize, Vec<T>), String> {
    r.map_err(|e| match e {
        ParseError::Io(e) => format!("io {:?}", e.kind()),
        ParseError::Malformed {
            line,
            content,
            reason,
        } => format!("line {line}: {reason}: {content:?}"),
    })
}

/// Runs `f` with `threads` rayon workers, so each block splits into that
/// many pieces.
fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// The byte strings the differential tests draw text from: digits, every
/// ASCII whitespace byte, comment markers, a sign, garbage, a non-ASCII
/// space (U+00A0) and a byte that is never UTF-8.
const TOKENS: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"5",
    b"7",
    b"9",
    b" ",
    b"\t",
    b"\x0B",
    b"\x0C",
    b"\r",
    b"\n",
    b"#",
    b"%",
    b"+",
    b"x",
    "\u{a0}".as_bytes(),
    b"\xff",
];

/// Text drawn token by token from [`TOKENS`].
fn arb_token_text(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0..TOKENS.len(), 0..max_len).prop_map(|ix| {
        ix.into_iter()
            .flat_map(|i| TOKENS[i].iter().copied())
            .collect()
    })
}

/// Mostly well-formed `fields`-field lines with mixed separators and line
/// ends, and about one line in twelve drawn from [`TOKENS`] (comments, blanks,
/// signs, overflow, garbage, invalid UTF-8), so errors land anywhere in the
/// file and not only on its first line.
fn arb_snap_text(fields: usize, max_lines: usize) -> impl Strategy<Value = Vec<u8>> {
    // One field in 32 is just past `u32::MAX`.
    let number = (0u32..32, 0u64..1000, any::<u32>()).prop_map(|(k, small, big)| match k {
        0 => (u64::from(u32::MAX) + 1).to_string(),
        1 => u32::MAX.to_string(),
        2..=4 => format!("00{small}"),
        5..=12 => big.to_string(),
        _ => small.to_string(),
    });
    let sep = prop_oneof![Just(" "), Just("\t"), Just("  "), Just(" \x0B\x0C")];
    let good = (
        prop::collection::vec((number, sep), fields..fields + 1),
        0usize..3,
        any::<bool>(),
    )
        .prop_map(|(fs, pad, crlf)| {
            let mut line = " ".repeat(pad);
            for (i, (f, s)) in fs.into_iter().enumerate() {
                if i > 0 {
                    line.push_str(s);
                }
                line.push_str(&f);
            }
            line.push_str(if crlf { "\r\n" } else { "\n" });
            line.into_bytes()
        });
    let odd =
        (prop::collection::vec(0..TOKENS.len(), 0..10), any::<bool>()).prop_map(|(ix, crlf)| {
            let mut line: Vec<u8> = ix
                .into_iter()
                .flat_map(|i| TOKENS[i].iter().copied())
                .filter(|&b| b != b'\n')
                .collect();
            line.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            line
        });
    let line = (0u32..12, good, odd).prop_map(|(k, good, odd)| if k == 0 { odd } else { good });
    (prop::collection::vec(line, 0..max_lines), 0usize..3).prop_map(|(lines, cut)| {
        let mut text = lines.concat();
        // Sometimes drop the final line end, or its `\n` only.
        text.truncate(text.len().saturating_sub(cut));
        text
    })
}

fn new_edges(
    text: &[u8],
    block: usize,
    threads: usize,
) -> Result<(usize, Vec<(u32, u32)>), String> {
    outcome(with_threads(threads, || {
        read_edge_list_in_blocks(Cursor::new(text), block)
            .map(|g| (g.num_nodes(), g.edges().to_vec()))
    }))
}

fn old_edges(text: &[u8]) -> Result<(usize, Vec<(u32, u32)>), String> {
    outcome(
        reference::read_edge_list(Cursor::new(text)).map(|g| (g.num_nodes(), g.edges().to_vec())),
    )
}

fn new_events(
    text: &[u8],
    block: usize,
    threads: usize,
) -> Result<(usize, Vec<TemporalEdge>), String> {
    outcome(with_threads(threads, || {
        read_temporal_edge_list_in_blocks(Cursor::new(text), block)
            .map(|g| (g.num_nodes(), g.events().to_vec()))
    }))
}

fn old_events(text: &[u8]) -> Result<(usize, Vec<TemporalEdge>), String> {
    outcome(
        reference::read_temporal_edge_list(Cursor::new(text))
            .map(|g| (g.num_nodes(), g.events().to_vec())),
    )
}

fn arb_edges(max_node: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_len)
}

proptest! {
    #[test]
    fn io_roundtrip(edges in arb_edges(10_000, 300)) {
        let g = EdgeList::from_pairs(edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn sort_is_permutation(edges in arb_edges(1_000, 300)) {
        let g = EdgeList::from_pairs(edges.clone());
        let sorted = g.sorted_by_source();
        prop_assert!(sorted.is_sorted_by_source());
        let mut a = edges;
        a.sort_unstable();
        prop_assert_eq!(sorted.edges(), &a[..]);
    }

    #[test]
    fn degrees_sum_to_edge_count(edges in arb_edges(500, 400)) {
        let g = EdgeList::from_pairs(edges);
        let degrees = g.degrees_sequential();
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(total as usize, g.num_edges());
    }

    #[test]
    fn symmetrized_contains_both_directions(edges in arb_edges(200, 100)) {
        let g = EdgeList::from_pairs(edges);
        let s = g.symmetrized();
        for &(u, v) in g.edges() {
            prop_assert!(s.edges().contains(&(u, v)));
            if u != v {
                prop_assert!(s.edges().contains(&(v, u)));
            }
        }
    }

    #[test]
    fn temporal_io_roundtrip(
        events in prop::collection::vec((0u32..500, 0u32..500, 0u32..50), 0..200)
    ) {
        let evs: Vec<TemporalEdge> = events.iter().map(|&(u, v, t)| TemporalEdge::new(u, v, t)).collect();
        let num_nodes = if evs.is_empty() { 0 } else { 500 };
        let tl = TemporalEdgeList::new(num_nodes, evs);
        let mut buf = Vec::new();
        write_temporal_edge_list(&tl, &mut buf).unwrap();
        let back = read_temporal_edge_list(Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.events(), tl.events());
    }

    #[test]
    fn snapshot_parity_is_consistent_with_manual_replay(
        events in prop::collection::vec((0u32..20, 0u32..20, 0u32..8), 0..120),
        query_t in 0u32..8,
    ) {
        let evs: Vec<TemporalEdge> = events.iter().map(|&(u, v, t)| TemporalEdge::new(u, v, t)).collect();
        let tl = TemporalEdgeList::new(20, evs.clone());
        let snap = tl.snapshot_at(query_t);
        // Manual parity count per edge. The bound is read at run time: with
        // a constant bound the optimiser works on the whole 20 × 20 loop
        // nest around the assertion macro, and a release build of this file
        // does not finish. (Asserting `n == 20` first would make it a
        // constant again.)
        let n = tl.num_nodes() as u32;
        for u in 0..n {
            for v in 0..n {
                let count = evs.iter().filter(|e| e.u == u && e.v == v && e.t <= query_t).count();
                let active = snap.binary_search(&(u, v)).is_ok();
                prop_assert_eq!(active, count % 2 == 1, "edge ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn text_bytes_matches_actual_rendering(edges in arb_edges(100_000, 150)) {
        let g = EdgeList::from_pairs(edges);
        let actual: usize = g
            .edges()
            .iter()
            .map(|&(u, v)| format!("{u}\t{v}\n").len())
            .sum();
        prop_assert_eq!(g.text_bytes(), actual);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_parser_matches_line_reader_on_snap_text(
        text in arb_snap_text(2, 40),
        block in 1usize..48,
        threads in 1usize..5,
    ) {
        prop_assert_eq!(new_edges(&text, block, threads), old_edges(&text));
    }

    #[test]
    fn block_parser_matches_line_reader_on_token_soup(
        text in arb_token_text(120),
        block in 1usize..48,
        threads in 1usize..5,
    ) {
        prop_assert_eq!(new_edges(&text, block, threads), old_edges(&text));
    }

    #[test]
    fn temporal_block_parser_matches_line_reader(
        text in arb_snap_text(3, 40),
        block in 1usize..48,
        threads in 1usize..5,
    ) {
        prop_assert_eq!(new_events(&text, block, threads), old_events(&text));
    }

    #[test]
    fn default_blocks_match_line_reader(text in arb_snap_text(2, 40)) {
        let new = outcome(
            read_edge_list(Cursor::new(&text)).map(|g| (g.num_nodes(), g.edges().to_vec())),
        );
        prop_assert_eq!(new, old_edges(&text));
    }
}
