//! Bit-packing microbench: parallel chunk-and-merge packing across
//! processor counts and value widths, and fixed-width vs. varint codecs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parcsr_bitpack::{pack_parallel, varint_encode_stream, PackedArray};

fn bench_pack_parallel(c: &mut Criterion) {
    let values: Vec<u64> = (0..1_000_000u64)
        .map(|i| (i * 2654435761) % (1 << 20))
        .collect();
    let mut group = c.benchmark_group("pack_parallel");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.throughput(Throughput::Elements(values.len() as u64));
    for &chunks in &[1usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(chunks), &values, |b, v| {
            b.iter(|| black_box(pack_parallel(v, chunks)));
        });
    }
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    // Fixed-width vs. varint on uniform small values (fixed-width's home
    // turf) and on heavy-tailed gaps (varint's).
    let uniform: Vec<u64> = (0..1_000_000u64).map(|i| i % 512).collect();
    let heavy: Vec<u64> = (0..1_000_000u64)
        .map(|i| if i % 100 == 0 { 1 << 40 } else { i % 8 })
        .collect();
    let mut group = c.benchmark_group("codecs");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    for (name, data) in [("uniform", &uniform), ("heavy-tail", &heavy)] {
        group.throughput(Throughput::Elements(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("fixed", name), data, |b, d| {
            b.iter(|| black_box(PackedArray::pack(d)));
        });
        group.bench_with_input(BenchmarkId::new("varint", name), data, |b, d| {
            b.iter(|| black_box(varint_encode_stream(d)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pack_parallel, bench_codecs);
criterion_main!(benches);
