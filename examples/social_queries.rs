//! Domain scenario from the paper's introduction: a social-network service
//! answering "who are this user's friends?" and "are these two users
//! connected?" at high volume, directly on the compressed structure.
//!
//! Compares the same query workload on the edge list, the adjacency list,
//! the plain CSR and the bit-packed CSR, reporting memory footprint and
//! query throughput for each — the time/space trade-off the paper frames.
//!
//! ```text
//! cargo run --release -p parcsr --example social_queries [nodes] [edges]
//! ```

use std::time::Instant;

use parcsr::query::{edges_exist_batch_binary, neighbors_batch, NeighborSource};
use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_baseline::{AdjacencyList, EdgeListStore, GraphStore};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::NodeId;

struct StoreAdapter<'a, S: GraphStore + Sync>(&'a S);

impl<S: GraphStore + Sync> NeighborSource for StoreAdapter<'_, S> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn degree(&self, u: NodeId) -> usize {
        self.0.degree(u)
    }
    fn row_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        self.0.row_into(u, out)
    }
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.0.has_edge(u, v)
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1 << 17);
    let m: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1 << 21);
    let p = rayon::current_num_threads();

    println!("simulated social network: {n} users, {m} follow edges, {p} processors\n");
    let graph = rmat(RmatParams::new(n, m, 7));

    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p);
    let adj = AdjacencyList::from_edge_list(&graph);
    let flat = EdgeListStore::from_edge_list(&graph);

    // A session burst: 100k mixed queries.
    let friend_lookups: Vec<NodeId> = (0..50_000).map(|i| ((i * 48271) % n) as NodeId).collect();
    let connection_checks: Vec<(NodeId, NodeId)> = (0..50_000)
        .map(|i| {
            if i % 2 == 0 {
                graph.edges()[(i * 31) % m]
            } else {
                (((i * 16807) % n) as NodeId, ((i * 69621) % n) as NodeId)
            }
        })
        .collect();

    println!(
        "{:<16} {:>12} {:>16} {:>16}",
        "structure", "memory", "friends-of (qps)", "connected? (qps)"
    );
    report(
        "edge list",
        flat.heap_bytes(),
        &StoreAdapter(&flat),
        &friend_lookups,
        &connection_checks,
        p,
    );
    report(
        "adjacency list",
        adj.heap_bytes(),
        &StoreAdapter(&adj),
        &friend_lookups,
        &connection_checks,
        p,
    );
    report(
        "csr",
        csr.heap_bytes(),
        &csr,
        &friend_lookups,
        &connection_checks,
        p,
    );
    report(
        "packed csr",
        packed.packed_bytes(),
        &packed,
        &friend_lookups,
        &connection_checks,
        p,
    );

    println!(
        "\npacked CSR serves the same queries in {:.1}% of the edge list's memory",
        packed.packed_bytes() as f64 / flat.heap_bytes() as f64 * 100.0
    );
}

fn report<S: NeighborSource>(
    name: &str,
    bytes: usize,
    source: &S,
    friends: &[NodeId],
    checks: &[(NodeId, NodeId)],
    p: usize,
) {
    let t = Instant::now();
    let hoods = neighbors_batch(source, friends, p);
    let friends_qps = friends.len() as f64 / t.elapsed().as_secs_f64();
    std::hint::black_box(&hoods);

    let t = Instant::now();
    let answers = edges_exist_batch_binary(source, checks, p);
    let checks_qps = checks.len() as f64 / t.elapsed().as_secs_f64();
    std::hint::black_box(&answers);

    println!(
        "{:<16} {:>9.2} MB {:>16.0} {:>16.0}",
        name,
        bytes as f64 / 1e6,
        friends_qps,
        checks_qps
    );
}
