//! `parcsr watch`: poll a running process's admin plane and render a
//! refreshing per-query-kind / per-degree-class latency table — the live
//! view of the `query.win.*` grid the closed-loop driver (and any future
//! server) publishes through `--admin-port` — plus per-cell p99 sparkline
//! columns built from the `history` endpoint's rotated-window ring, so a
//! queueing collapse is visible as it develops rather than only in the
//! final report.
//!
//! The rendering is a pure function from a parsed exposition to a string,
//! so the table and sparklines are unit-tested without sockets; only the
//! poll loop talks to the network (via [`parcsr_server::client`]).

use parcsr_obs::expo::{self, Exposition};
use std::fmt::Write as _;

/// The windowed summary family name the admin plane exposes.
const WIN_FAMILY: &str = "parcsr_query_win_ns";

/// The per-window history summary family the `history` endpoint exposes.
const HIST_FAMILY: &str = "parcsr_query_hist_ns";

/// Eight-level sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Maps a value series to sparkline glyphs, normalized to the series max
/// (an all-zero series renders as a flat baseline).
fn spark(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                SPARKS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                SPARKS[idx.min(7)]
            }
        })
        .collect()
}

fn gauge(expo: &Exposition, name: &str) -> Option<f64> {
    expo.samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// One `(kind, class)` row assembled from the summary family's samples.
struct Row {
    kind: String,
    class: String,
    count: f64,
    p50: Option<f64>,
    p95: Option<f64>,
    p99: Option<f64>,
    max: Option<f64>,
}

fn collect_rows(expo: &Exposition) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let cell = |s: &expo::Sample| -> Option<(String, String)> {
        Some((s.label("kind")?.to_string(), s.label("class")?.to_string()))
    };
    // First pass establishes row order from the `_count` series (render
    // emits cells in slab-grid order, which groups kinds together).
    for s in &expo.samples {
        if s.name != format!("{WIN_FAMILY}_count") {
            continue;
        }
        if let Some((kind, class)) = cell(s) {
            rows.push(Row {
                kind,
                class,
                count: s.value,
                p50: None,
                p95: None,
                p99: None,
                max: None,
            });
        }
    }
    for s in &expo.samples {
        let Some((kind, class)) = cell(s) else {
            continue;
        };
        let Some(row) = rows.iter_mut().find(|r| r.kind == kind && r.class == class) else {
            continue;
        };
        if s.name == WIN_FAMILY {
            match s.label("quantile") {
                Some("0.5") => row.p50 = Some(s.value),
                Some("0.95") => row.p95 = Some(s.value),
                Some("0.99") => row.p99 = Some(s.value),
                _ => {}
            }
        } else if s.name == format!("{WIN_FAMILY}_max") {
            row.max = Some(s.value);
        }
    }
    rows
}

/// Renders the per-kind/per-class table for one scrape. Pure: feed it any
/// parsed exposition (tests use canned documents).
#[must_use]
pub fn render_table(expo: &Exposition, addr: &str) -> String {
    let mut out = String::new();
    let epoch = gauge(expo, "parcsr_query_win_epoch");
    let dur_ns = gauge(expo, "parcsr_query_win_duration_ns").unwrap_or(0.0);
    let rows = collect_rows(expo);
    let total: f64 = rows.iter().map(|r| r.count).sum();
    let qps = if dur_ns > 0.0 {
        total / (dur_ns / 1e9)
    } else {
        0.0
    };

    let _ = write!(out, "parcsr watch — {addr}");
    if let Some(epoch) = epoch {
        let _ = write!(out, " — window {epoch:.0}");
    }
    if dur_ns > 0.0 {
        let _ = write!(out, " ({:.0}ms, {qps:.0} qps)", dur_ns / 1e6);
    }
    out.push('\n');

    if rows.is_empty() {
        out.push_str("  (no windowed series yet — is the target recording?)\n");
        return out;
    }

    let _ = writeln!(
        out,
        "  {:<12} {:<5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "kind", "class", "count", "p50", "p95", "p99", "max"
    );
    for r in &rows {
        let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), fmt_ns);
        let _ = writeln!(
            out,
            "  {:<12} {:<5} {:>9.0} {:>9} {:>9} {:>9} {:>9}",
            r.kind,
            r.class,
            r.count,
            cell(r.p50),
            cell(r.p95),
            cell(r.p99),
            cell(r.max),
        );
    }
    out
}

/// Renders per-cell p99 sparkline columns from a parsed `history`
/// exposition: a throughput row plus one row per `(kind, class)` cell,
/// oldest window on the left, each row normalized to its own peak so hub
/// and low cells stay readable on one screen.
#[must_use]
pub fn render_sparklines(expo: &Exposition) -> String {
    let mut out = String::new();
    let window_of = |s: &expo::Sample| s.label("window").and_then(|v| v.parse::<u64>().ok());
    let mut wins: Vec<u64> = expo
        .samples
        .iter()
        .filter(|s| s.name == "parcsr_history_qps")
        .filter_map(window_of)
        .collect();
    wins.sort_unstable();
    wins.dedup();
    if wins.is_empty() {
        out.push_str("history: (no completed windows yet)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "history — {} windows ({}..{}), p99 per cell (left = oldest):",
        wins.len(),
        wins[0],
        wins[wins.len() - 1],
    );
    let series = |pred: &dyn Fn(&expo::Sample) -> bool| -> Vec<f64> {
        wins.iter()
            .map(|&w| {
                expo.samples
                    .iter()
                    .find(|s| window_of(s) == Some(w) && pred(s))
                    .map_or(0.0, |s| s.value)
            })
            .collect()
    };
    let qps = series(&|s| s.name == "parcsr_history_qps");
    let _ = writeln!(
        out,
        "  {:<12} {:<5} {}  peak {:.0} qps",
        "throughput",
        "",
        spark(&qps),
        qps.iter().copied().fold(0.0_f64, f64::max),
    );
    // Cell rows in first-seen order (render_history emits grid order).
    let mut cells: Vec<(String, String)> = Vec::new();
    for s in &expo.samples {
        if s.name != HIST_FAMILY || s.label("quantile") != Some("0.99") {
            continue;
        }
        if let (Some(kind), Some(class)) = (s.label("kind"), s.label("class")) {
            if !cells.iter().any(|(k, c)| k == kind && c == class) {
                cells.push((kind.to_string(), class.to_string()));
            }
        }
    }
    for (kind, class) in &cells {
        let vals = series(&|s| {
            s.name == HIST_FAMILY
                && s.label("quantile") == Some("0.99")
                && s.label("kind") == Some(kind)
                && s.label("class") == Some(class)
        });
        let peak = vals.iter().copied().fold(0.0_f64, f64::max);
        let _ = writeln!(
            out,
            "  {:<12} {:<5} {}  peak {}",
            kind,
            class,
            spark(&vals),
            fmt_ns(peak),
        );
    }
    out
}

/// Scrapes `addr` once over the plain protocol and returns `(raw exposition
/// text, rendered table)`.
pub fn scrape(addr: &str) -> Result<(String, String), String> {
    let raw = parcsr_server::client::fetch(addr, "metrics")
        .map_err(|e| format!("watch: cannot scrape {addr}: {e}"))?;
    let expo =
        expo::parse(&raw).map_err(|e| format!("watch: invalid exposition from {addr}: {e}"))?;
    Ok((raw, render_table(&expo, addr)))
}

/// Scrapes `addr`'s `history` endpoint and returns `(raw exposition text,
/// rendered sparkline panel)`.
pub fn scrape_history(addr: &str) -> Result<(String, String), String> {
    let raw = parcsr_server::client::fetch(addr, "history")
        .map_err(|e| format!("watch: cannot scrape history from {addr}: {e}"))?;
    let expo = expo::parse(&raw)
        .map_err(|e| format!("watch: invalid history exposition from {addr}: {e}"))?;
    let panel = render_sparklines(&expo);
    Ok((raw, panel))
}

fn save(out: &Option<String>, raw: &str, history_raw: Option<&str>) -> Result<(), String> {
    if let Some(path) = out {
        std::fs::write(path, raw).map_err(|e| format!("watch: cannot write {path}: {e}"))?;
        if let Some(history) = history_raw {
            let hpath = format!("{path}.history");
            std::fs::write(&hpath, history)
                .map_err(|e| format!("watch: cannot write {hpath}: {e}"))?;
        }
    }
    Ok(())
}

/// Runs the watch command: `--once` scrapes a single time and returns the
/// table (plus the history sparkline panel) as the report; otherwise polls
/// every `interval_ms`, redrawing the terminal until the target goes away
/// (the usual end: the watched run finished). `--out FILE` saves the latest
/// raw `/metrics` scrape to FILE and the raw `history` scrape to
/// FILE.history either way. A target without the `history` endpoint still
/// renders the table — the panel degrades to a one-line note.
pub fn run_watch(
    addr: &str,
    interval_ms: u64,
    once: bool,
    out: &Option<String>,
) -> Result<String, String> {
    let compose = |table: String, history: &Result<(String, String), String>| match history {
        Ok((_, panel)) => format!("{table}{panel}"),
        Err(e) => format!("{table}history: unavailable ({e})\n"),
    };
    if once {
        let (raw, table) = scrape(addr)?;
        let history = scrape_history(addr);
        save(out, &raw, history.as_ref().ok().map(|(r, _)| r.as_str()))?;
        return Ok(compose(table, &history));
    }
    loop {
        let (raw, table) = scrape(addr)?;
        let history = scrape_history(addr);
        save(out, &raw, history.as_ref().ok().map(|(r, _)| r.as_str()))?;
        // Clear screen + home, then the fresh table.
        print!("\x1b[2J\x1b[H{}", compose(table, &history));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcsr_obs::metrics::{HistogramSummary, MetricsSnapshot, WindowSeries};

    fn live_expo() -> Exposition {
        let mut snap = MetricsSnapshot::default();
        snap.gauges.push(("query.win.epoch".to_string(), 9));
        snap.gauges
            .push(("query.win.duration_ns".to_string(), 250_000_000));
        for (kind, class, count, max) in [
            ("neighbors", "low", 4000, 900),
            ("neighbors", "hub", 120, 2_400_000),
            ("split", "mid", 800, 45_000),
        ] {
            snap.windows.push(WindowSeries {
                name: format!("query.win.{kind}.{class}"),
                kind,
                class,
                window: 9,
                summary: HistogramSummary {
                    count,
                    sum: count * 100,
                    max,
                    p50: max / 2,
                    p95: max,
                    p99: max,
                },
            });
        }
        expo::parse(&expo::render(&snap)).unwrap()
    }

    #[test]
    fn table_shows_every_cell_with_window_header() {
        let table = render_table(&live_expo(), "127.0.0.1:9184");
        assert!(table.starts_with("parcsr watch — 127.0.0.1:9184 — window 9 (250ms, 19680 qps)"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + 3, "header + columns + one line per cell");
        assert!(lines[1].contains("kind") && lines[1].contains("p99"));
        assert!(table.contains("neighbors    low        4000"));
        assert!(table.contains("2.40ms"), "hub max renders in ms");
        assert!(table.contains("45.0µs"), "mid max renders in µs");
        assert!(table.contains("450ns"), "low p50 renders in ns");
    }

    #[test]
    fn empty_exposition_renders_hint_not_panic() {
        let expo = expo::parse(&expo::render(&MetricsSnapshot::default())).unwrap();
        let table = render_table(&expo, "x:1");
        assert!(table.contains("no windowed series yet"));
    }

    fn history_expo(p99s: &[u64]) -> Exposition {
        use parcsr_obs::serve::{DegreeClass, HistoryWindow, QueryKind, WindowCell};
        let windows: Vec<HistoryWindow> = p99s
            .iter()
            .enumerate()
            .map(|(i, &p99)| {
                let summary = HistogramSummary {
                    count: 1000,
                    sum: p99 * 100,
                    max: p99,
                    p50: p99 / 2,
                    p95: p99,
                    p99,
                };
                HistoryWindow {
                    window: i as u64,
                    start_ns: i as u64 * 250_000_000,
                    end_ns: (i as u64 + 1) * 250_000_000,
                    dur_ns: 250_000_000,
                    queries: 1000,
                    qps: 4000.0,
                    cells: vec![WindowCell {
                        kind: QueryKind::Neighbors,
                        class: DegreeClass::Hub,
                        phases: [summary; 3],
                        summary,
                    }],
                    exemplars: Vec::new(),
                }
            })
            .collect();
        expo::parse(&expo::render_history(&windows)).unwrap()
    }

    #[test]
    fn sparklines_normalize_per_cell_and_keep_window_order() {
        let panel = render_sparklines(&history_expo(&[100, 100, 100, 800]));
        assert!(panel.starts_with("history — 4 windows (0..3)"));
        // The hub cell row: three low windows then the collapse spike.
        let hub = panel
            .lines()
            .find(|l| l.contains("neighbors") && l.contains("hub"))
            .expect("hub cell row");
        assert!(hub.contains("▂▂▂█"), "row was: {hub}");
        assert!(hub.contains("peak 800ns"));
        // Flat throughput renders at full height everywhere (max == value).
        let qps = panel
            .lines()
            .find(|l| l.contains("throughput"))
            .expect("throughput row");
        assert!(qps.contains("████"));
        assert!(qps.contains("peak 4000 qps"));
    }

    #[test]
    fn empty_history_renders_hint_not_panic() {
        let panel = render_sparklines(&expo::parse(&expo::render_history(&[])).unwrap());
        assert!(panel.contains("no completed windows yet"));
    }
}
