//! Bit-packing microbench: parallel chunk-and-merge packing across
//! processor counts and value widths, fixed-width vs. varint codecs, and
//! the 64-value block decode kernel vs. per-value bit reads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parcsr_bitpack::{pack_parallel, varint_encode_stream, PackedArray, BLOCK_LEN};

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

fn bench_decode(c: &mut Criterion) {
    // Decode a 16 000-value range (a hub row) starting mid-block, at column
    // widths around the benchmark graphs' (12, 18, 22 bits): the block
    // kernel vs. one `read_bits` per value.
    const LEN: usize = 16_000;
    const START: usize = 37;
    let mut group = c.benchmark_group("decode");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    group.throughput(Throughput::Elements(LEN as u64));
    for width in [12u32, 18, 22] {
        let values: Vec<u64> = (0..(START + LEN) as u64)
            .map(|i| (i * 2654435761) % (1 << width))
            .collect();
        let p = PackedArray::pack_with_width(&values, width);
        let mut out = vec![0u32; LEN];
        group.bench_with_input(BenchmarkId::new("block", width), &p, |b, p| {
            b.iter(|| {
                p.decode_range_u32(START, &mut out);
                black_box(out[LEN - 1])
            });
        });
        group.bench_with_input(BenchmarkId::new("per-value", width), &p, |b, p| {
            b.iter(|| {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = p.bit_buf().read_bits((START + i) * width as usize, width) as u32;
                }
                black_box(out[LEN - 1])
            });
        });
        group.bench_with_input(BenchmarkId::new("cursor", width), &p, |b, p| {
            let mut block = [0u32; BLOCK_LEN];
            b.iter(|| {
                let mut c = p.block_cursor(START, LEN);
                let mut acc = 0u32;
                loop {
                    let chunk = c.next_block(&mut block);
                    if chunk.is_empty() {
                        break;
                    }
                    acc ^= chunk[chunk.len() - 1];
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pack_parallel, bench_codecs, bench_decode);
criterion_main!(benches);
