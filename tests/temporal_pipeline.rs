//! Temporal pipeline integration: toggle-event generation → parallel TCSR →
//! temporal queries, cross-checked against both the sequential replay and
//! the copy-per-frame representation, plus the differential-compression
//! size claim of Section IV.

use std::io::Cursor;

use parcsr_graph::gen::{temporal_toggles, TemporalParams};
use parcsr_graph::io::{read_temporal_edge_list, write_temporal_edge_list};
use parcsr_temporal::{AbsoluteFrames, TcsrBuilder};

#[test]
fn tcsr_agrees_with_replay_and_copy_baseline() {
    let events = temporal_toggles(TemporalParams::new(256, 3_000, 12, 21));
    let diff = TcsrBuilder::new().processors(4).build(&events);
    let copies = AbsoluteFrames::build(&events, 4);

    assert_eq!(diff.num_frames(), events.num_frames());
    assert_eq!(copies.num_frames(), events.num_frames());

    for t in 0..events.num_frames() as u32 {
        let replay = events.snapshot_at(t);
        assert_eq!(diff.snapshot_at(t), replay, "diff vs replay, frame {t}");
        assert_eq!(copies.snapshot_at(t), replay, "copies vs replay, frame {t}");
    }

    let last = (events.num_frames() - 1) as u32;
    for u in (0..256u32).step_by(13) {
        assert_eq!(
            diff.neighbors_at(u, last),
            copies.neighbors_at(u, last),
            "u={u}"
        );
        for v in (0..256u32).step_by(29) {
            assert_eq!(
                diff.edge_active_at(u, v, last),
                copies.edge_active_at(u, v, last),
                "({u},{v})"
            );
        }
    }
}

#[test]
fn snapshots_all_equals_frame_by_frame_reconstruction() {
    let events = temporal_toggles(TemporalParams::new(512, 6_000, 20, 31));
    let tcsr = TcsrBuilder::new().build(&events);
    let all = tcsr.snapshots_all(8);
    assert_eq!(all.len(), events.num_frames());
    for (t, snap) in all.iter().enumerate() {
        assert_eq!(snap, &events.snapshot_at(t as u32), "frame {t}");
    }
}

#[test]
fn temporal_io_roundtrip_feeds_the_builder() {
    let events = temporal_toggles(TemporalParams::new(128, 1_500, 8, 41));
    let mut text = Vec::new();
    write_temporal_edge_list(&events, &mut text).expect("serialize");
    let parsed = read_temporal_edge_list(Cursor::new(text)).expect("parse");
    assert_eq!(parsed.num_events(), events.num_events());

    let a = TcsrBuilder::new().build(&events);
    let b = TcsrBuilder::new().build(&parsed);
    let last = (events.num_frames() - 1) as u32;
    assert_eq!(a.snapshot_at(last), b.snapshot_at(last));
}

#[test]
fn differential_compression_beats_copies_on_slowly_evolving_graphs() {
    // The motivating regime: a large active graph with small per-frame
    // churn ("not all nodes have changed state from one time-frame to
    // another").
    let events =
        temporal_toggles(TemporalParams::new(2_048, 30_000, 32, 51).with_events_per_frame(64));
    let diff = TcsrBuilder::new().build(&events);
    let copies = AbsoluteFrames::build(&events, 4);
    assert!(
        diff.packed_bytes() * 4 < copies.packed_bytes(),
        "differential {} B should be ≤ 1/4 of copy-per-frame {} B",
        diff.packed_bytes(),
        copies.packed_bytes()
    );
}

#[test]
fn rapid_churn_shrinks_the_differential_advantage() {
    // Control for the claim above: when nearly everything toggles every
    // frame, differential storage approaches the copy strategy's size
    // (modulo constant factors) — the trade-off is workload-dependent.
    let slow = temporal_toggles(TemporalParams::new(512, 4_000, 16, 61).with_events_per_frame(16));
    let fast =
        temporal_toggles(TemporalParams::new(512, 4_000, 16, 61).with_events_per_frame(2_000));
    let slow_diff = TcsrBuilder::new().build(&slow).packed_bytes();
    let slow_abs = AbsoluteFrames::build(&slow, 2).packed_bytes();
    let fast_diff = TcsrBuilder::new().build(&fast).packed_bytes();
    let fast_abs = AbsoluteFrames::build(&fast, 2).packed_bytes();

    let slow_ratio = slow_diff as f64 / slow_abs as f64;
    let fast_ratio = fast_diff as f64 / fast_abs as f64;
    assert!(
        slow_ratio < fast_ratio,
        "differential advantage should shrink with churn: slow {slow_ratio:.3} vs fast {fast_ratio:.3}"
    );
}
