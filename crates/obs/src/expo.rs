//! Prometheus-style text exposition of a [`MetricsSnapshot`], plus the
//! small in-tree parser the `parcsr watch` client and the round-trip tests
//! consume.
//!
//! This module is pure string work over an already-taken snapshot, so it is
//! compiled unconditionally (like [`crate::analyze`]) — offline tools such
//! as `cargo xtask expo-check` validate scrapes without the `enabled`
//! feature. Only *taking* a live snapshot is feature-gated.
//!
//! # Format grammar
//!
//! The output is the Prometheus text format, restricted to the subset the
//! admin plane actually emits (documented in DESIGN.md):
//!
//! ```text
//! exposition  = *family "# EOF" LF
//! family      = help-line type-line *sample
//! help-line   = "# HELP " name " " escaped-text LF
//! type-line   = "# TYPE " name " " ("counter" / "gauge" / "summary") LF
//! sample      = name [labels] " " value LF
//! labels      = "{" label *("," label) "}"
//! label       = label-name "=" DQUOTE escaped-text DQUOTE
//! name        = [a-zA-Z_:][a-zA-Z0-9_:]*
//! label-name  = [a-zA-Z_][a-zA-Z0-9_]*
//! value       = decimal integer or float (as produced by Rust `Display`)
//! ```
//!
//! `escaped-text` escapes `\` as `\\`, `"` as `\"` (label values only), and
//! newline as `\n`. Metric names are the dotted registry names prefixed
//! with `parcsr_` and sanitized (every char outside `[a-zA-Z0-9_:]` becomes
//! `_`); when two dotted names collide after sanitization the later one
//! gets a `_2` / `_3` … suffix so exposition names stay unique. Histograms
//! render as `summary` families: `{quantile="0.5|0.95|0.99"}` samples plus
//! `_sum` / `_count` / `_max` series (the `_max` series is an in-house
//! extension — exact maxima matter for SLO work — and our parser and
//! `expo-check` treat it as part of the summary family). The windowed
//! kind×degree-class grid renders as one labeled family,
//! `parcsr_query_win_ns{kind="…",class="…"}`, rather than one family per
//! cell, so scrapers can aggregate across the grid. A constant
//! `parcsr_up 1` gauge makes the exposition non-empty even before any
//! metric records, and the final line is always `# EOF`.

use crate::json::Json;
use crate::metrics::{HistogramSummary, MetricsSnapshot};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The quantiles every summary family exposes, with their label values.
const QUANTILES: [&str; 3] = ["0.5", "0.95", "0.99"];

/// Derived series names a summary family claims alongside its base name.
const SUMMARY_SUFFIXES: [&str; 3] = ["_sum", "_count", "_max"];

/// Maps a dotted registry name (`query.win.split.hub`) to an exposition
/// metric name: `parcsr_` prefix, every char outside `[a-zA-Z0-9_:]`
/// replaced with `_`.
#[must_use]
pub fn sanitize_name(dotted: &str) -> String {
    let mut name = String::with_capacity(dotted.len() + 7);
    name.push_str("parcsr_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            name.push(c);
        } else {
            name.push('_');
        }
    }
    name
}

/// Escapes a label value for inclusion between double quotes: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
#[must_use]
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes HELP text: `\` → `\\`, newline → `\n` (quotes are fine in HELP).
#[must_use]
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Claims a unique exposition name: if `base` (or any `base + suffix`
/// derived series) is already taken, tries `base_2`, `base_3`, … Inserts
/// the claimed name and its derived series into `used`.
fn claim(used: &mut BTreeSet<String>, base: &str, suffixes: &[&str]) -> String {
    let mut candidate = base.to_string();
    let mut n = 1usize;
    loop {
        let free = !used.contains(&candidate)
            && suffixes
                .iter()
                .all(|s| !used.contains(&format!("{candidate}{s}")));
        if free {
            used.insert(candidate.clone());
            for s in suffixes {
                used.insert(format!("{candidate}{s}"));
            }
            return candidate;
        }
        n += 1;
        candidate = format!("{base}_{n}");
    }
}

fn push_family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn push_summary_samples(out: &mut String, name: &str, label_prefix: &str, s: &HistogramSummary) {
    for (q, v) in QUANTILES.iter().zip([s.p50, s.p95, s.p99]) {
        if label_prefix.is_empty() {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
        } else {
            let _ = writeln!(out, "{name}{{{label_prefix},quantile=\"{q}\"}} {v}");
        }
    }
    let labels = if label_prefix.is_empty() {
        String::new()
    } else {
        format!("{{{label_prefix}}}")
    };
    let _ = writeln!(out, "{name}_sum{labels} {}", s.sum);
    let _ = writeln!(out, "{name}_count{labels} {}", s.count);
    let _ = writeln!(out, "{name}_max{labels} {}", s.max);
}

/// Renders a snapshot in the text format described in the module docs.
/// Always emits `parcsr_up 1` and a trailing `# EOF` line, so the output
/// is non-empty and self-terminating even for an empty snapshot.
#[must_use]
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut used: BTreeSet<String> = BTreeSet::new();

    let up = claim(&mut used, "parcsr_up", &[]);
    push_family(
        &mut out,
        &up,
        "admin plane liveness (constant 1 while the process serves)",
        "gauge",
    );
    let _ = writeln!(out, "{up} 1");

    for (dotted, value) in &snap.counters {
        let name = claim(&mut used, &sanitize_name(dotted), &[]);
        push_family(&mut out, &name, dotted, "counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (dotted, value) in &snap.gauges {
        let name = claim(&mut used, &sanitize_name(dotted), &[]);
        push_family(&mut out, &name, dotted, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (dotted, summary) in &snap.histograms {
        let name = claim(&mut used, &sanitize_name(dotted), &SUMMARY_SUFFIXES);
        push_family(&mut out, &name, dotted, "summary");
        push_summary_samples(&mut out, &name, "", summary);
    }
    if !snap.windows.is_empty() {
        let name = claim(&mut used, "parcsr_query_win_ns", &SUMMARY_SUFFIXES);
        push_family(
            &mut out,
            &name,
            "windowed query latency (ns) by kind and degree class, last completed window",
            "summary",
        );
        for w in &snap.windows {
            let labels = format!(
                "kind=\"{}\",class=\"{}\"",
                escape_label(w.kind),
                escape_label(w.class)
            );
            push_summary_samples(&mut out, &name, &labels, &w.summary);
        }
    }

    out.push_str("# EOF\n");
    out
}

/// Renders the rotated-window history ring (the admin plane's `history`
/// endpoint) in the same text format as [`render`]. The document carries a
/// `parcsr_history_windows` gauge (always present, so the output is
/// non-empty even before any rotation), per-window `parcsr_history_qps` /
/// `parcsr_history_duration_ns` / `parcsr_history_queries` gauges labeled
/// by window ordinal, and one `parcsr_query_hist_ns{kind,class,window}`
/// summary family carrying every retained cell summary. The `window` label
/// keeps series unique across rotations, so a history scrape satisfies the
/// same `cargo xtask expo-check` rules as a `/metrics` scrape.
#[must_use]
pub fn render_history(windows: &[crate::serve::HistoryWindow]) -> String {
    let mut out = String::new();
    push_family(
        &mut out,
        "parcsr_history_windows",
        "rotated windows retained in the history ring",
        "gauge",
    );
    let _ = writeln!(out, "parcsr_history_windows {}", windows.len());
    if !windows.is_empty() {
        push_family(
            &mut out,
            "parcsr_history_qps",
            "completed queries per second in each retained window",
            "gauge",
        );
        for w in windows {
            let _ = writeln!(
                out,
                "parcsr_history_qps{{window=\"{}\"}} {}",
                w.window, w.qps
            );
        }
        push_family(
            &mut out,
            "parcsr_history_duration_ns",
            "wall-clock duration (ns) of each retained window",
            "gauge",
        );
        for w in windows {
            let _ = writeln!(
                out,
                "parcsr_history_duration_ns{{window=\"{}\"}} {}",
                w.window, w.dur_ns
            );
        }
        push_family(
            &mut out,
            "parcsr_history_queries",
            "queries completed in each retained window",
            "gauge",
        );
        for w in windows {
            let _ = writeln!(
                out,
                "parcsr_history_queries{{window=\"{}\"}} {}",
                w.window, w.queries
            );
        }
        if windows.iter().any(|w| !w.cells.is_empty()) {
            push_family(
                &mut out,
                "parcsr_query_hist_ns",
                "windowed query latency (ns) by kind and degree class, every retained window",
                "summary",
            );
            for w in windows {
                for cell in &w.cells {
                    let labels = format!(
                        "kind=\"{}\",class=\"{}\",window=\"{}\"",
                        escape_label(cell.kind.name()),
                        escape_label(cell.class.name()),
                        w.window
                    );
                    push_summary_samples(&mut out, "parcsr_query_hist_ns", &labels, &cell.summary);
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// The metric type declared by a `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonically non-decreasing value.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Quantile samples plus `_sum` / `_count` / `_max` series.
    Summary,
    /// Declared `untyped` (accepted on input; never emitted by [`render`]).
    Untyped,
}

impl FamilyKind {
    /// The keyword as it appears on the `# TYPE` line.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Summary => "summary",
            FamilyKind::Untyped => "untyped",
        }
    }
}

/// A `# TYPE` declaration with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDecl {
    /// Declared family name.
    pub name: String,
    /// Declared kind.
    pub kind: FamilyKind,
    /// 1-based line number of the declaration.
    pub line: usize,
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name (family name, possibly with a `_sum`-style suffix).
    pub name: String,
    /// Labels in source order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// 1-based line number of the sample.
    pub line: usize,
}

impl Sample {
    /// The value of the first label named `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `# HELP` lines: `(name, unescaped text)` in source order.
    pub helps: Vec<(String, String)>,
    /// `# TYPE` declarations in source order.
    pub types: Vec<TypeDecl>,
    /// Samples in source order.
    pub samples: Vec<Sample>,
    /// Whether the terminating `# EOF` line was seen.
    pub saw_eof: bool,
}

fn check_name(name: &str, lineno: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first =
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':');
    let ok_rest = chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    if ok_first && ok_rest {
        Ok(())
    } else {
        Err(format!("line {lineno}: invalid metric name {name:?}"))
    }
}

fn unescape(text: &str, lineno: usize) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            other => {
                return Err(format!(
                    "line {lineno}: bad escape sequence \\{}",
                    other.map_or(String::from("<end>"), String::from)
                ))
            }
        }
    }
    Ok(out)
}

/// Splits off a leading metric/label name (returns `(name, rest)`).
fn take_name(s: &str) -> (&str, &str) {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(s.len());
    s.split_at(end)
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let (name, mut rest) = take_name(line);
    check_name(name, lineno)?;

    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        rest = body;
        loop {
            if let Some(after) = rest.strip_prefix('}') {
                rest = after;
                break;
            }
            let (lname, after) = take_name(rest);
            if lname.is_empty() || lname.contains(':') {
                return Err(format!("line {lineno}: invalid label name"));
            }
            rest = after
                .strip_prefix("=\"")
                .ok_or_else(|| format!("line {lineno}: label {lname:?} missing =\"value\""))?;

            // Scan the quoted value, honouring escapes.
            let mut value = String::new();
            let mut iter = rest.char_indices();
            let mut end = None;
            while let Some((pos, c)) = iter.next() {
                match c {
                    '"' => {
                        end = Some(pos + 1);
                        break;
                    }
                    '\\' => match iter.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        _ => return Err(format!("line {lineno}: bad escape in label value")),
                    },
                    c => value.push(c),
                }
            }
            let end = end.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
            rest = &rest[end..];
            labels.push((lname.to_string(), value));

            if let Some(after) = rest.strip_prefix(',') {
                rest = after;
            } else if !rest.starts_with('}') {
                return Err(format!("line {lineno}: expected ',' or '}}' after label"));
            }
        }
    }

    let value_text = rest
        .strip_prefix(' ')
        .ok_or_else(|| format!("line {lineno}: expected ' ' before value"))?;
    if value_text.is_empty() || value_text.contains(' ') {
        return Err(format!("line {lineno}: expected exactly one value token"));
    }
    let value: f64 = value_text
        .parse()
        .map_err(|_| format!("line {lineno}: bad sample value {value_text:?}"))?;

    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
        line: lineno,
    })
}

/// Parses an exposition document produced by [`render`] (or scraped from
/// the admin endpoint). Strict about structure — blank lines, content after
/// `# EOF`, malformed escapes, and missing terminators are errors — because
/// the parser doubles as the validation core of `cargo xtask expo-check`.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut expo = Exposition::default();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if expo.saw_eof {
            return Err(format!("line {lineno}: content after # EOF"));
        }
        if line.is_empty() {
            return Err(format!("line {lineno}: blank line"));
        }
        if line == "# EOF" {
            expo.saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: HELP without text"))?;
            check_name(name, lineno)?;
            expo.helps.push((name.to_string(), unescape(text, lineno)?));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: TYPE without kind"))?;
            check_name(name, lineno)?;
            let kind = match kind {
                "counter" => FamilyKind::Counter,
                "gauge" => FamilyKind::Gauge,
                "summary" => FamilyKind::Summary,
                "untyped" => FamilyKind::Untyped,
                other => return Err(format!("line {lineno}: unknown TYPE kind {other:?}")),
            };
            expo.types.push(TypeDecl {
                name: name.to_string(),
                kind,
                line: lineno,
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        expo.samples.push(parse_sample(line, lineno)?);
    }
    if !expo.saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(expo)
}

// ---------------------------------------------------------------------------
// JSON stats document
// ---------------------------------------------------------------------------

fn json_u64(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn json_summary(s: &HistogramSummary) -> Json {
    Json::Object(vec![
        ("count".to_string(), json_u64(s.count)),
        ("sum".to_string(), json_u64(s.sum)),
        ("max".to_string(), json_u64(s.max)),
        ("p50".to_string(), json_u64(s.p50)),
        ("p95".to_string(), json_u64(s.p95)),
        ("p99".to_string(), json_u64(s.p99)),
    ])
}

/// Builds the JSON stats document (`parcsr.stats.v1`) the admin plane's
/// `stats` endpoint serves: same [`MetricsSnapshot`], dotted names kept
/// verbatim (no exposition sanitization).
#[must_use]
pub fn snapshot_json(snap: &MetricsSnapshot) -> Json {
    Json::Object(vec![
        (
            "schema".to_string(),
            Json::Str("parcsr.stats.v1".to_string()),
        ),
        (
            "counters".to_string(),
            Json::Object(
                snap.counters
                    .iter()
                    .map(|(n, v)| (n.clone(), json_u64(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges".to_string(),
            Json::Object(
                snap.gauges
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Int(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_string(),
            Json::Object(
                snap.histograms
                    .iter()
                    .map(|(n, s)| (n.clone(), json_summary(s)))
                    .collect(),
            ),
        ),
        (
            "windows".to_string(),
            Json::Array(
                snap.windows
                    .iter()
                    .map(|w| {
                        Json::Object(vec![
                            ("series".to_string(), Json::Str(w.name.clone())),
                            ("kind".to_string(), Json::Str(w.kind.to_string())),
                            ("class".to_string(), Json::Str(w.class.to_string())),
                            ("window".to_string(), json_u64(w.window)),
                            ("latency_ns".to_string(), json_summary(&w.summary)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WindowSeries;

    fn summary(count: u64, sum: u64, max: u64) -> HistogramSummary {
        HistogramSummary {
            count,
            sum,
            max,
            p50: max / 2,
            p95: max,
            p99: max,
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("queries.total".to_string(), 41));
        snap.gauges.push(("query.win.epoch".to_string(), 7));
        snap.histograms
            .push(("query.has_edge_ns".to_string(), summary(10, 1000, 400)));
        snap.windows.push(WindowSeries {
            name: "query.win.neighbors.hub".to_string(),
            kind: "neighbors",
            class: "hub",
            window: 6,
            summary: summary(5, 500, 200),
        });
        snap
    }

    #[test]
    fn render_emits_expected_series() {
        let text = render(&sample_snapshot());
        assert!(text.starts_with("# HELP parcsr_up "));
        assert!(text.contains("\nparcsr_up 1\n"));
        assert!(text.contains("# TYPE parcsr_queries_total counter\n"));
        assert!(text.contains("\nparcsr_queries_total 41\n"));
        assert!(text.contains("# TYPE parcsr_query_win_epoch gauge\n"));
        assert!(text.contains("\nparcsr_query_win_epoch 7\n"));
        assert!(text.contains("# TYPE parcsr_query_has_edge_ns summary\n"));
        assert!(text.contains("\nparcsr_query_has_edge_ns{quantile=\"0.99\"} 400\n"));
        assert!(text.contains("\nparcsr_query_has_edge_ns_sum 1000\n"));
        assert!(text.contains("\nparcsr_query_has_edge_ns_max 400\n"));
        assert!(text.contains(
            "\nparcsr_query_win_ns{kind=\"neighbors\",class=\"hub\",quantile=\"0.5\"} 100\n"
        ));
        assert!(text.contains("\nparcsr_query_win_ns_count{kind=\"neighbors\",class=\"hub\"} 5\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn sanitize_prefixes_and_replaces() {
        assert_eq!(
            sanitize_name("query.win.split.hub"),
            "parcsr_query_win_split_hub"
        );
        assert_eq!(sanitize_name("weird name-1"), "parcsr_weird_name_1");
        assert_eq!(sanitize_name(""), "parcsr_");
    }

    #[test]
    fn colliding_sanitized_names_get_disambiguated() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("a.b".to_string(), 1));
        snap.counters.push(("a_b".to_string(), 2));
        snap.counters.push(("a-b".to_string(), 3));
        let text = render(&snap);
        assert!(text.contains("\nparcsr_a_b 1\n"));
        assert!(text.contains("\nparcsr_a_b_2 2\n"));
        assert!(text.contains("\nparcsr_a_b_3 3\n"));
    }

    #[test]
    fn label_escaping_round_trips() {
        let raw = "he said \"hi\\there\"\nbye";
        let escaped = escape_label(raw);
        let line = format!("m{{k=\"{escaped}\"}} 1");
        let sample = parse_sample(&line, 1).unwrap();
        assert_eq!(sample.label("k"), Some(raw));
    }

    #[test]
    fn parse_accepts_render_output() {
        let snap = sample_snapshot();
        let expo = parse(&render(&snap)).unwrap();
        assert!(expo.saw_eof);
        // up + counter + gauge + 6 histogram series + 6 window series
        assert_eq!(expo.samples.len(), 1 + 1 + 1 + 6 + 6);
        // HELP and TYPE are paired per family, declared before their samples.
        assert_eq!(expo.helps.len(), expo.types.len());
        for s in &expo.samples {
            let family = expo
                .types
                .iter()
                .find(|t| {
                    t.name == s.name
                        || SUMMARY_SUFFIXES
                            .iter()
                            .any(|suf| s.name == format!("{}{suf}", t.name))
                })
                .expect("sample has a declared family");
            assert!(family.line < s.line, "TYPE declared before sample");
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for (text, why) in [
            ("parcsr_up 1\n", "missing EOF"),
            ("# EOF\nparcsr_up 1\n", "content after EOF"),
            ("\n# EOF\n", "blank line"),
            (
                "# TYPE parcsr_up widget\nparcsr_up 1\n# EOF\n",
                "unknown kind",
            ),
            ("# HELP parcsr_up\n# EOF\n", "HELP without text"),
            ("9leading_digit 1\n# EOF\n", "bad name"),
            ("m{k=\"unterminated} 1\n# EOF\n", "unterminated label"),
            ("m{k=\"bad\\q\"} 1\n# EOF\n", "bad escape"),
            ("m 1 2\n# EOF\n", "trailing token"),
            ("m{k=\"v\"}1\n# EOF\n", "missing space"),
            ("m notanumber\n# EOF\n", "bad value"),
        ] {
            assert!(parse(text).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn parse_tolerates_free_comments_and_untyped() {
        let text = "# scraped at window 12\n# TYPE x untyped\nx 3\n# EOF\n";
        let expo = parse(text).unwrap();
        assert_eq!(expo.types[0].kind, FamilyKind::Untyped);
        assert_eq!(expo.samples[0].value, 3.0);
    }

    #[test]
    fn render_history_empty_ring_is_still_a_valid_document() {
        let text = render_history(&[]);
        assert!(text.contains("\nparcsr_history_windows 0\n"));
        let expo = parse(&text).unwrap();
        assert_eq!(expo.samples.len(), 1);
        assert!(expo.saw_eof);
    }

    #[test]
    fn render_history_labels_every_series_with_its_window() {
        use crate::serve::{DegreeClass, HistoryWindow, QueryKind, WindowCell};
        let window = |epoch: u64| HistoryWindow {
            window: epoch,
            start_ns: (epoch - 1) * 1_000_000,
            end_ns: epoch * 1_000_000,
            dur_ns: 1_000_000,
            queries: 5,
            qps: 5_000.0,
            cells: vec![WindowCell {
                kind: QueryKind::Neighbors,
                class: DegreeClass::Hub,
                summary: summary(5, 500, 200),
                phases: [summary(5, 500, 200); 3],
            }],
            exemplars: Vec::new(),
        };
        let text = render_history(&[window(3), window(4)]);
        assert!(text.contains("\nparcsr_history_windows 2\n"));
        assert!(text.contains("\nparcsr_history_qps{window=\"3\"} 5000\n"));
        assert!(text.contains("\nparcsr_history_queries{window=\"4\"} 5\n"));
        assert!(text.contains(
            "\nparcsr_query_hist_ns{kind=\"neighbors\",class=\"hub\",window=\"3\",quantile=\"0.99\"} 200\n"
        ));
        assert!(text.contains(
            "\nparcsr_query_hist_ns_count{kind=\"neighbors\",class=\"hub\",window=\"4\"} 5\n"
        ));
        let expo = parse(&text).unwrap();
        // windows gauge + 3 gauges x 2 windows + 6 summary series x 2 cells.
        assert_eq!(expo.samples.len(), 1 + 6 + 12);
        // Each (name, labels) pair is unique thanks to the window label.
        let mut seen = BTreeSet::new();
        for s in &expo.samples {
            let mut key = format!("{}|", s.name);
            let mut labels = s.labels.clone();
            labels.sort();
            for (k, v) in labels {
                key.push_str(&format!("{k}={v},"));
            }
            assert!(seen.insert(key), "duplicate series in history exposition");
        }
    }

    #[test]
    fn stats_json_has_schema_and_sections() {
        let doc = snapshot_json(&sample_snapshot());
        let text = doc.pretty();
        assert!(text.contains("\"schema\": \"parcsr.stats.v1\""));
        assert!(text.contains("\"queries.total\": 41"));
        assert!(text.contains("\"query.win.neighbors.hub\""));
        assert!(text.contains("\"latency_ns\""));
        // Round-trips through the in-tree JSON parser.
        assert!(crate::json::Json::parse(&text).is_ok());
    }
}
