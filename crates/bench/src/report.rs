//! Formatting: Table II rows and the Figure 6/7 data series, as
//! terminal-friendly markdown and as machine-readable CSV blocks.

use std::fmt::Write as _;

use crate::experiment::DatasetResult;

/// `1234567` → `"1.23 MB"` (decimal units, like the paper's table).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1000.0 && unit + 1 < UNITS.len() {
        value /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

/// Renders the Table II analogue: one row per (dataset, processor count),
/// with the paper's published numbers alongside for shape comparison.
pub fn print_table2(results: &[DatasetResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Graph | Nodes | Edges | EdgeList (text) | CSR (packed) | p | Time (ms) | Speed-Up (%) | Paper t (ms) | Paper SU (%) |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for r in results {
        for (i, s) in r.samples.iter().enumerate() {
            let (name, nodes, edges, el, csr) = if i == 0 {
                (
                    format!(
                        "{}{}",
                        r.name,
                        if r.real_data { "" } else { " (synthetic)" }
                    ),
                    r.nodes.to_string(),
                    r.edges.to_string(),
                    format_bytes(r.edgelist_text_bytes),
                    format_bytes(r.csr_packed_bytes),
                )
            } else {
                (
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                )
            };
            let su = if s.processors == 1 {
                "-".to_string()
            } else {
                format!("{:.2}", s.speedup_percent)
            };
            let paper_t = s
                .paper_time_ms
                .map_or("-".to_string(), |t| format!("{t:.2}"));
            let paper_su = if s.processors == 1 {
                "-".to_string()
            } else {
                s.paper_speedup_percent
                    .map_or("-".to_string(), |v| format!("{v:.2}"))
            };
            let _ = writeln!(
                out,
                "| {name} | {nodes} | {edges} | {el} | {csr} | {p} | {t:.3} | {su} | {paper_t} | {paper_su} |",
                p = s.processors,
                t = s.time_ms,
            );
        }
    }
    out
}

/// Renders the Figure 6 series: per dataset, `processors,time_ms` CSV.
pub fn print_fig6(results: &[DatasetResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 6: CSR construction time vs processors");
    let _ = writeln!(out, "dataset,processors,time_ms,paper_time_ms");
    for r in results {
        for s in &r.samples {
            let _ = writeln!(
                out,
                "{},{},{:.4},{}",
                r.name,
                s.processors,
                s.time_ms,
                s.paper_time_ms.map_or(String::new(), |t| format!("{t}"))
            );
        }
    }
    out.push('\n');
    out.push_str(&ascii_series(results, false));
    out
}

/// Renders the Figure 7 series: per dataset, `processors,speedup%` CSV.
pub fn print_fig7(results: &[DatasetResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 7: speed-up gained vs processors");
    let _ = writeln!(
        out,
        "dataset,processors,speedup_percent,paper_speedup_percent"
    );
    for r in results {
        for s in &r.samples {
            let _ = writeln!(
                out,
                "{},{},{:.2},{}",
                r.name,
                s.processors,
                s.speedup_percent,
                s.paper_speedup_percent
                    .map_or(String::new(), |v| format!("{v:.2}"))
            );
        }
    }
    out.push('\n');
    out.push_str(&ascii_series(results, true));
    out
}

/// A small terminal plot: one line per dataset, one column per processor
/// count, bar length proportional to time (fig6) or speed-up (fig7).
fn ascii_series(results: &[DatasetResult], speedup: bool) -> String {
    let mut out = String::new();
    for r in results {
        let _ = writeln!(out, "{}:", r.name);
        let max = r
            .samples
            .iter()
            .map(|s| {
                if speedup {
                    s.speedup_percent.max(1.0)
                } else {
                    s.time_ms
                }
            })
            .fold(f64::MIN, f64::max);
        for s in &r.samples {
            let v = if speedup {
                s.speedup_percent
            } else {
                s.time_ms
            };
            let bar_len = if max > 0.0 {
                (v / max * 40.0).round() as usize
            } else {
                0
            };
            let _ = writeln!(
                out,
                "  p={:<3} {:>10.3} {} {}",
                s.processors,
                v,
                if speedup { "%" } else { "ms" },
                "#".repeat(bar_len)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ProcessorSample;

    fn fake_result() -> DatasetResult {
        DatasetResult {
            name: "LiveJournal",
            real_data: false,
            nodes: 100,
            edges: 500,
            edgelist_text_bytes: 4000,
            edgelist_binary_bytes: 4000,
            csr_packed_bytes: 700,
            csr_raw_bytes: 2808,
            samples: vec![
                ProcessorSample {
                    processors: 1,
                    time_ms: 10.0,
                    speedup_percent: 0.0,
                    paper_time_ms: Some(164.76),
                    paper_speedup_percent: None,
                    stages: Vec::new(),
                    mem_peak_bytes: None,
                },
                ProcessorSample {
                    processors: 4,
                    time_ms: 4.0,
                    speedup_percent: 60.0,
                    paper_time_ms: Some(57.94),
                    paper_speedup_percent: Some(64.83),
                    stages: Vec::new(),
                    mem_peak_bytes: None,
                },
            ],
        }
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(999), "999 B");
        assert_eq!(format_bytes(1_500), "1.50 KB");
        assert_eq!(format_bytes(24_730_000), "24.73 MB");
        assert_eq!(format_bytes(1_100_000_000), "1.10 GB");
    }

    #[test]
    fn table2_contains_all_cells() {
        let t = print_table2(&[fake_result()]);
        assert!(t.contains("LiveJournal (synthetic)"));
        assert!(t.contains("| 1 | 10.000 | - | 164.76 | - |"));
        assert!(t.contains("60.00"));
        assert!(t.contains("64.83"));
    }

    #[test]
    fn fig6_is_csv_plus_plot() {
        let f = print_fig6(&[fake_result()]);
        assert!(f.contains("dataset,processors,time_ms"));
        assert!(f.contains("LiveJournal,4,4.0000,57.94"));
        assert!(f.contains("p=4"));
        assert!(f.contains('#'));
    }

    #[test]
    fn fig7_reports_speedups() {
        let f = print_fig7(&[fake_result()]);
        assert!(f.contains("LiveJournal,4,60.00,64.83"));
        assert!(f.contains("LiveJournal,1,0.00,"));
    }
}
