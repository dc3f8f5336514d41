//! Scan microbench: the paper's chunked Algorithm 1 against the sequential
//! baseline across input sizes, and the chunked scan across chunk counts
//! (DESIGN.md µ-bench "scan").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parcsr_scan::{inclusive_scan_chunked, inclusive_scan_seq};

fn input(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 2654435761) % 1000).collect()
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let chunks = rayon::current_num_threads();
    for &n in &[10_000usize, 400_000] {
        let data = input(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sequential", n), &data, |b, data| {
            b.iter(|| {
                let mut v = data.clone();
                inclusive_scan_seq(&mut v);
                black_box(v)
            });
        });
        group.bench_with_input(BenchmarkId::new("chunked", n), &data, |b, data| {
            b.iter(|| {
                let mut v = data.clone();
                inclusive_scan_chunked(&mut v, chunks);
                black_box(v)
            });
        });
    }
    group.finish();
}

fn bench_scan_chunk_sweep(c: &mut Criterion) {
    // How the paper's algorithm scales with the number of chunks at a fixed
    // input size.
    let mut group = c.benchmark_group("scan_chunks");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let data = input(400_000);
    group.throughput(Throughput::Elements(data.len() as u64));
    for &chunks in &[1usize, 2, 4, 8, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(chunks), &data, |b, data| {
            b.iter(|| {
                let mut v = data.clone();
                inclusive_scan_chunked(&mut v, chunks);
                black_box(v)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scan, bench_scan_chunk_sweep);
criterion_main!(benches);
