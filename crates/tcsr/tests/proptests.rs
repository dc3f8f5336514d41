//! Property tests for the temporal pipeline: the differential TCSR must agree
//! with a sequential replay of the event stream for arbitrary event sets,
//! frame counts and processor counts.

use proptest::prelude::*;

use parcsr_graph::{TemporalEdge, TemporalEdgeList};
use parcsr_temporal::{sym_diff, DeltaFrame, TcsrBuilder};

fn arb_events(
    nodes: u32,
    frames: u32,
    max_events: usize,
) -> impl Strategy<Value = TemporalEdgeList> {
    prop::collection::vec((0..nodes, 0..nodes, 0..frames), 0..max_events).prop_map(move |evs| {
        TemporalEdgeList::new(
            nodes as usize,
            evs.into_iter()
                .map(|(u, v, t)| TemporalEdge::new(u, v, t))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshots_match_replay(events in arb_events(24, 8, 200), p in 1usize..9) {
        let tcsr = TcsrBuilder::new().processors(p).build(&events);
        for t in 0..events.num_frames() as u32 {
            prop_assert_eq!(tcsr.snapshot_at(t), events.snapshot_at(t), "frame {}", t);
        }
    }

    #[test]
    fn snapshots_all_is_the_scan_of_snapshot_at(
        events in arb_events(16, 10, 150),
        p in 1usize..7,
    ) {
        let tcsr = TcsrBuilder::new().build(&events);
        let all = tcsr.snapshots_all(p);
        prop_assert_eq!(all.len(), events.num_frames());
        for (t, snap) in all.into_iter().enumerate() {
            prop_assert_eq!(snap, events.snapshot_at(t as u32), "frame {}", t);
        }
    }

    #[test]
    fn edge_activity_parity(events in arb_events(12, 6, 120), u in 0u32..12, v in 0u32..12) {
        let tcsr = TcsrBuilder::new().build(&events);
        for t in 0..events.num_frames() as u32 {
            let toggles = events
                .events()
                .iter()
                .filter(|e| e.u == u && e.v == v && e.t <= t)
                .count();
            prop_assert_eq!(
                tcsr.edge_active_at(u, v, t),
                toggles % 2 == 1,
                "({}, {}) frame {}",
                u, v, t
            );
        }
    }

    #[test]
    fn builder_is_processor_invariant(events in arb_events(20, 6, 150)) {
        let base = TcsrBuilder::new().processors(1).build(&events);
        for p in [2usize, 3, 8, 17] {
            prop_assert_eq!(&TcsrBuilder::new().processors(p).build(&events), &base, "p={}", p);
        }
    }

    #[test]
    fn frame_rows_answer_like_the_pair_set(
        pairs in prop::collection::btree_set((0u32..40, 0u32..40), 0..120),
        p in 1usize..5,
    ) {
        let keys: Vec<u64> = pairs.iter().map(|&(u, v)| u64::from(u) << 32 | u64::from(v)).collect();
        let frame = DeltaFrame::from_sorted_keys(&keys, p);
        prop_assert_eq!(frame.len(), pairs.len());
        prop_assert_eq!(frame.decode_keys(), keys);
        for u in 0..41u32 {
            let row: Vec<u32> = pairs.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
            for v in 0..41u32 {
                prop_assert_eq!(frame.contains(u, v), pairs.contains(&(u, v)), "({}, {})", u, v);
            }
            prop_assert_eq!(frame.row(u), row, "row {}", u);
        }
    }

    #[test]
    fn sym_diff_monoid_laws(
        a in prop::collection::btree_set(0u64..1000, 0..50),
        b in prop::collection::btree_set(0u64..1000, 0..50),
        c in prop::collection::btree_set(0u64..1000, 0..50),
    ) {
        let a: Vec<u64> = a.into_iter().collect();
        let b: Vec<u64> = b.into_iter().collect();
        let c: Vec<u64> = c.into_iter().collect();
        // Associativity.
        prop_assert_eq!(
            sym_diff(&sym_diff(&a, &b), &c),
            sym_diff(&a, &sym_diff(&b, &c))
        );
        // Identity and self-inverse.
        prop_assert_eq!(sym_diff(&a, &[]), a.clone());
        prop_assert_eq!(sym_diff(&a, &a), Vec::<u64>::new());
        // Commutativity.
        prop_assert_eq!(sym_diff(&a, &b), sym_diff(&b, &a));
    }

    #[test]
    fn neighbors_at_consistent_with_snapshot(events in arb_events(16, 6, 150), u in 0u32..16) {
        let tcsr = TcsrBuilder::new().build(&events);
        for t in 0..events.num_frames() as u32 {
            let expect: Vec<u32> = events
                .snapshot_at(t)
                .into_iter()
                .filter(|&(s, _)| s == u)
                .map(|(_, v)| v)
                .collect();
            prop_assert_eq!(tcsr.neighbors_at(u, t), expect, "u={} t={}", u, t);
        }
    }
}
