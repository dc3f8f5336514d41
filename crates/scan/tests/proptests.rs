//! Property tests: the chunked scan is equivalent to the sequential scan
//! for arbitrary inputs and chunk counts.

use proptest::prelude::*;

use parcsr_scan::{inclusive_scan_chunked, inclusive_scan_seq};

fn seq_inclusive(v: &[u64]) -> Vec<u64> {
    let mut r = v.to_vec();
    inclusive_scan_seq(&mut r);
    r
}

proptest! {
    #[test]
    fn chunked_equals_sequential(v in prop::collection::vec(any::<u64>(), 0..2000), chunks in 1usize..40) {
        let want = seq_inclusive(&v);
        let mut got = v.clone();
        inclusive_scan_chunked(&mut got, chunks);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scan_is_monotone_for_nonnegative_inputs(
        v in prop::collection::vec(0u64..1_000_000, 1..500),
        chunks in 1usize..9,
    ) {
        // With no wrapping possible, inclusive prefix sums are non-decreasing:
        // the key invariant the CSR offset array relies on.
        let mut got = v.clone();
        inclusive_scan_chunked(&mut got, chunks);
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(*got.last().unwrap(), v.iter().sum::<u64>());
    }
}

/// A degree-array shape dominated by one hub: a long run of equal values
/// whose span crosses two or more chunk boundaries at p = 7 and many at
/// p = 64 (the offsets-scan input produced by a hub node's neighbor run).
fn arb_hub_degrees() -> impl Strategy<Value = Vec<u64>> {
    (
        prop::collection::vec(0u64..4, 0..40),
        300usize..800,
        1u64..16,
        prop::collection::vec(0u64..4, 0..40),
    )
        .prop_map(|(pre, run, value, post)| {
            let mut v = pre;
            v.extend(std::iter::repeat_n(value, run));
            v.extend(post);
            v
        })
}

proptest! {
    /// The chunked scan agrees with the sequential scan on
    /// hub-dominated inputs at every paper-relevant processor count —
    /// including p = 64, where the hub's run straddles ~20 chunk
    /// boundaries and every carry in between is hub-generated.
    #[test]
    fn hub_straddling_scans_match_serial(v in arb_hub_degrees()) {
        let want = seq_inclusive(&v);
        for chunks in [1usize, 2, 7, 64] {
            let mut got = v.clone();
            inclusive_scan_chunked(&mut got, chunks);
            prop_assert_eq!(&got, &want, "chunked, p={}", chunks);
        }
    }
}
