//! Query microbench (Section V / Algorithm 9): batch neighborhood and
//! edge-existence queries across processor counts, on the plain CSR, the
//! bit-packed CSR, and the three baselines; plus the single-edge split
//! search on a hub row (Algorithm 8) and its binary-search refinement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parcsr::query::{
    edge_exists_split, edge_exists_split_binary, edges_exist_batch, edges_exist_batch_binary,
    neighbors_batch,
};
use parcsr::{with_processors, BitPackedCsr, Csr, CsrBuilder, NeighborSource, PackedCsrMode};
use parcsr_baseline::{AdjacencyList, EdgeListStore, GraphStore};
use parcsr_graph::gen::{rmat, RmatParams};
use parcsr_graph::{EdgeList, NodeId};

const N: usize = 1 << 14;
const M: usize = 1 << 18;
const QUERIES: usize = 1 << 12;

struct Fixtures {
    csr: Csr,
    packed: BitPackedCsr,
    adj: AdjacencyList,
    flat: EdgeListStore,
    node_queries: Vec<NodeId>,
    edge_queries: Vec<(NodeId, NodeId)>,
}

fn fixtures() -> Fixtures {
    let graph = rmat(RmatParams::new(N, M, 42));
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 8);
    let adj = AdjacencyList::from_edge_list(&graph);
    let flat = EdgeListStore::from_edge_list(&graph);
    let node_queries: Vec<NodeId> = (0..QUERIES)
        .map(|i| ((i * 2654435761) % N) as NodeId)
        .collect();
    // Half existing edges, half random probes.
    let edge_queries: Vec<(NodeId, NodeId)> = (0..QUERIES)
        .map(|i| {
            if i % 2 == 0 {
                graph.edges()[(i * 31) % graph.num_edges()]
            } else {
                (((i * 48271) % N) as NodeId, ((i * 16807) % N) as NodeId)
            }
        })
        .collect();
    Fixtures {
        csr,
        packed,
        adj,
        flat,
        node_queries,
        edge_queries,
    }
}

/// Adapter so baselines run through the same batch drivers as the CSRs.
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

fn bench_neighbors_batch(c: &mut Criterion) {
    let f = fixtures();
    let mut group = c.benchmark_group("neighbors_batch");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(f.node_queries.len() as u64));
    for &p in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("csr", p), &f, |b, f| {
            with_processors(p, || {
                b.iter(|| black_box(neighbors_batch(&f.csr, &f.node_queries, p)))
            });
        });
        group.bench_with_input(BenchmarkId::new("packed", p), &f, |b, f| {
            with_processors(p, || {
                b.iter(|| black_box(neighbors_batch(&f.packed, &f.node_queries, p)))
            });
        });
    }
    group.bench_with_input(BenchmarkId::new("adjacency-list", 8), &f, |b, f| {
        with_processors(8, || {
            b.iter(|| black_box(neighbors_batch(&StoreAdapter(&f.adj), &f.node_queries, 8)))
        });
    });
    group.bench_with_input(BenchmarkId::new("edge-list", 8), &f, |b, f| {
        with_processors(8, || {
            b.iter(|| black_box(neighbors_batch(&StoreAdapter(&f.flat), &f.node_queries, 8)))
        });
    });
    group.finish();
}

fn bench_edges_exist_batch(c: &mut Criterion) {
    let f = fixtures();
    let mut group = c.benchmark_group("edges_exist_batch");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(f.edge_queries.len() as u64));
    for &p in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("packed/linear", p), &f, |b, f| {
            with_processors(p, || {
                b.iter(|| black_box(edges_exist_batch(&f.packed, &f.edge_queries, p)))
            });
        });
        group.bench_with_input(BenchmarkId::new("packed/binary", p), &f, |b, f| {
            with_processors(p, || {
                b.iter(|| black_box(edges_exist_batch_binary(&f.packed, &f.edge_queries, p)))
            });
        });
    }
    group.bench_with_input(BenchmarkId::new("csr", 8), &f, |b, f| {
        with_processors(8, || {
            b.iter(|| black_box(edges_exist_batch_binary(&f.csr, &f.edge_queries, 8)))
        });
    });
    group.finish();
}

/// The streaming-vs-materializing row-access dimension: answer the same
/// batch of neighborhood queries on the packed CSR by (a) decoding each
/// row into a reused `Vec` (`row_into`), (b) streaming it through the
/// allocation-free iterator (`row_iter`) and (c) visiting it block by block
/// through the slice visitor (`for_each_block_while`). Each variant folds
/// the visited neighbor ids so the decode work cannot be optimized away.
fn bench_row_access(c: &mut Criterion) {
    let graph = rmat(RmatParams::new(N, M, 42));
    let csr = CsrBuilder::new().build(&graph);
    let node_queries: Vec<NodeId> = (0..QUERIES)
        .map(|i| ((i * 2654435761) % N) as NodeId)
        .collect();
    let visited: u64 = node_queries.iter().map(|&u| csr.degree(u) as u64).sum();

    let mut group = c.benchmark_group("row_access");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(visited));
    let mode = PackedCsrMode::Raw;
    let packed = BitPackedCsr::from_csr(&csr, mode, 8);
    group.bench_with_input(
        BenchmarkId::new(mode.name(), "decode"),
        &packed,
        |b, packed| {
            let mut row = Vec::new();
            b.iter(|| {
                let mut acc = 0u64;
                for &u in &node_queries {
                    packed.row_into(u, &mut row);
                    for &v in &row {
                        acc ^= u64::from(v);
                    }
                }
                black_box(acc)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new(mode.name(), "stream"),
        &packed,
        |b, packed| {
            b.iter(|| {
                let mut acc = 0u64;
                for &u in &node_queries {
                    for v in packed.row_iter(u) {
                        acc ^= u64::from(v);
                    }
                }
                black_box(acc)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new(mode.name(), "visit"),
        &packed,
        |b, packed| {
            b.iter(|| {
                let mut acc = 0u64;
                for &u in &node_queries {
                    packed.for_each_block_while(u, &mut |block| {
                        for &v in block {
                            acc ^= u64::from(v);
                        }
                        true
                    });
                }
                black_box(acc)
            });
        },
    );
    group.finish();
}

fn bench_single_edge_split(c: &mut Criterion) {
    // A dedicated hub graph: Algorithm 8's split search only pays off on
    // long rows.
    let hub_edges: Vec<(NodeId, NodeId)> = (0..250_000u32).map(|v| (0, v)).collect();
    let graph = EdgeList::new(250_001, hub_edges);
    let csr = CsrBuilder::new().build(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, 8);
    let probe: NodeId = 249_999; // worst case for the linear scan

    let mut group = c.benchmark_group("single_edge_split");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    for &p in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("linear", p), &packed, |b, packed| {
            with_processors(p, || {
                b.iter(|| black_box(edge_exists_split(packed, 0, probe, p)))
            });
        });
        group.bench_with_input(BenchmarkId::new("binary", p), &packed, |b, packed| {
            with_processors(p, || {
                b.iter(|| black_box(edge_exists_split_binary(packed, 0, probe, p)))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_neighbors_batch,
    bench_edges_exist_batch,
    bench_row_access,
    bench_single_edge_split
);
criterion_main!(benches);
