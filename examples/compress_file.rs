//! Compress a SNAP edge-list file into a bit-packed CSR and report the
//! sizes — the operational task Table II measures. With no argument, a
//! synthetic WebNotreDame-profile graph is written to a temp file first, so
//! the example is runnable offline.
//!
//! ```text
//! cargo run --release -p parcsr --example compress_file [path/to/snap.txt]
//! ```

use std::time::Instant;

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::io::{read_edge_list_file, write_edge_list_file};
use parcsr_graph::paper_datasets;

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            // Synthesize a stand-in and round-trip it through the SNAP text
            // format, as if it had been downloaded.
            let profile = &paper_datasets()[3]; // WebNotreDame
            let graph = profile.synthesize(0.25, 42);
            let path = std::env::temp_dir().join("parcsr-example-webnotredame.txt");
            write_edge_list_file(&graph, &path).expect("write temp snap file");
            println!(
                "no input given — synthesized {} quarter-scale stand-in at {}",
                profile.name,
                path.display()
            );
            path.to_string_lossy().into_owned()
        }
    };

    let t = Instant::now();
    let graph = match read_edge_list_file(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "parsed {} nodes / {} edges in {:.1} ms",
        graph.num_nodes(),
        graph.num_edges(),
        t.elapsed().as_secs_f64() * 1e3
    );

    let p = rayon::current_num_threads();
    let t = Instant::now();
    let (csr, timings) = CsrBuilder::new().build_timed(&graph);
    let packed = BitPackedCsr::from_csr(&csr, PackedCsrMode::Raw, p);
    let total_ms = t.elapsed().as_secs_f64() * 1e3;

    let text_bytes = std::fs::metadata(&path)
        .map(|m| m.len() as usize)
        .unwrap_or(0);
    println!("compressed with {p} processors in {total_ms:.1} ms:");
    println!(
        "  sort {:.1} ms, degrees {:.1} ms, scan {:.1} ms, fill {:.1} ms, pack {:.1} ms",
        timings.sort_ms,
        timings.degree_ms,
        timings.scan_ms,
        timings.fill_ms,
        total_ms - timings.total_ms(),
    );
    println!("  edge list (text file):   {:>12} bytes", text_bytes);
    println!(
        "  edge list (in memory):   {:>12} bytes",
        graph.binary_bytes()
    );
    println!("  CSR (uncompressed):      {:>12} bytes", csr.heap_bytes());
    println!(
        "  CSR (bit-packed):        {:>12} bytes  ({}-bit columns, {}-bit offsets)",
        packed.packed_bytes(),
        packed.column_width(),
        packed.offset_width()
    );
    println!(
        "  compression vs text:     {:>11.1}x",
        text_bytes as f64 / packed.packed_bytes() as f64
    );

    // Prove the compressed structure still answers queries.
    let sample: Vec<u32> = (0..5.min(graph.num_nodes() as u32)).collect();
    for u in sample {
        let row = packed.row(u);
        let preview: Vec<u32> = row.iter().copied().take(6).collect();
        println!(
            "  row({u}) = {preview:?}{}",
            if row.len() > 6 { " …" } else { "" }
        );
    }
}
