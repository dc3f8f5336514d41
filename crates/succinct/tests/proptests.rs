//! Property tests for the succinct structures, cross-checked against plain
//! Rust references and against the CSR from the core crate.

use std::collections::BTreeSet;

use proptest::prelude::*;

use parcsr::CsrBuilder;
use parcsr_graph::EdgeList;
use parcsr_succinct::{K2Tree, RankSelect};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitvector_rank_select(bits in prop::collection::vec(any::<bool>(), 0..700)) {
        let rs = RankSelect::from_bits(bits.iter().copied());
        let mut ones = 0usize;
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(rs.rank1(i), ones);
            prop_assert_eq!(rs.get(i), bit);
            if bit {
                prop_assert_eq!(rs.select1(ones), Some(i));
                ones += 1;
            }
        }
        prop_assert_eq!(rs.count_ones(), ones);
        prop_assert_eq!(rs.select1(ones), None);
    }

    #[test]
    fn k2tree_matches_edge_set(
        raw in prop::collection::vec((0u32..48, 0u32..48), 0..300),
    ) {
        let set: BTreeSet<(u32, u32)> = raw.iter().copied().collect();
        let t = K2Tree::from_edges(48, &raw);
        prop_assert_eq!(t.num_edges(), set.len());
        for u in 0..48u32 {
            let row: Vec<u32> = set.iter().filter(|&&(s, _)| s == u).map(|&(_, v)| v).collect();
            prop_assert_eq!(t.row(u), row, "row {}", u);
            let col: Vec<u32> = set.iter().filter(|&&(_, d)| d == u).map(|&(s, _)| s).collect();
            prop_assert_eq!(t.column(u), col, "column {}", u);
        }
    }

    #[test]
    fn k2tree_agrees_with_csr(
        raw in prop::collection::vec((0u32..40, 0u32..40), 1..250),
    ) {
        let g = EdgeList::from_pairs(raw).deduped();
        let csr = CsrBuilder::new().build(&g);
        let t = K2Tree::from_edges(g.num_nodes(), g.edges());
        for u in 0..g.num_nodes() as u32 {
            prop_assert_eq!(&t.row(u)[..], csr.neighbors(u), "row {}", u);
        }
    }
}
