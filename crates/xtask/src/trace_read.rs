//! Reader for Chrome trace-event JSON, used by `check-trace`, plus the
//! file and labeled-JSON readers the baseline graders share — one parser,
//! one set of error messages, instead of each command re-walking raw
//! [`Json`].
//!
//! Parsing here is *structural*: the file must be a non-empty JSON array of
//! objects, each with a `name`, a numeric `ts`, a known phase (`"X"`
//! complete spans or `"C"` counters), and the per-phase required fields.
//! Semantic rules (time ordering, arg typing, counter namespaces) stay with
//! the commands that care about them.

use parcsr_obs::json::Json;

/// Trace-event phase, as written by the `parcsr-obs` exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete (`"ph": "X"`) span event.
    Complete,
    /// A counter (`"ph": "C"`) event.
    Counter,
}

/// One parsed trace event with the fields every consumer needs, plus the
/// raw `args` object for consumers that dig deeper.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (span stage name or counter metric name).
    pub name: String,
    /// Event phase.
    pub ph: Phase,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (`0` for counters or a missing value — the
    /// exporter always writes `dur` on spans and `check-trace` enforces its
    /// presence).
    pub dur_us: f64,
    /// Thread id (`0` = coordinator).
    pub tid: i64,
    /// The raw `args` object, when present.
    pub args: Option<Json>,
}

impl TraceEvent {
    /// A non-negative integer arg by key, as `u64` (`None` when absent,
    /// negative or non-integer).
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        let v = self.args.as_ref()?.get(key).and_then(Json::as_i64)?;
        u64::try_from(v).ok()
    }
}

/// Reads a file for command `cmd`, with the commands' shared error shape.
pub fn read_file(cmd: &str, path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("xtask {cmd}: cannot read {}: {e}", path.display()))
}

/// Parses `text` as a labeled JSON document (`"{which}: not valid JSON"`),
/// the shape `stage-diff` reports per side.
pub fn parse_json(which: &str, text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| format!("{which}: not valid JSON: {e}"))
}

/// Parses Chrome trace text into events. Errors use the exact messages
/// `check-trace` has always reported (its tests pin them).
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let json = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = json
        .as_array()
        .ok_or_else(|| "top level is not an array of trace events".to_string())?;
    if events.is_empty() {
        return Err("trace contains no events (was the binary built with --features obs?)".into());
    }
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        if ev.as_object().is_none() {
            return Err(format!("event {i} is not an object"));
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} is missing required field `name`"))?
            .to_string();
        let ts_us = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} has a missing or non-numeric ts"))?;
        let ph = match ev.get("ph").and_then(Json::as_str) {
            Some("X") => Phase::Complete,
            Some("C") => Phase::Counter,
            _ => {
                return Err(format!(
                    "event {i} is neither a complete (`\"X\"`) nor a counter (`\"C\"`) event"
                ));
            }
        };
        let required: &[&str] = match ph {
            Phase::Complete => &["dur", "pid", "tid"],
            Phase::Counter => &["pid", "tid"],
        };
        for field in required {
            if ev.get(field).is_none() {
                return Err(format!("event {i} is missing required field `{field}`"));
            }
        }
        let tid = match ph {
            Phase::Complete => ev
                .get("tid")
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("event {i} has a non-integer tid"))?,
            // Counters carry tid 0 by construction; only presence is
            // required of them.
            Phase::Counter => ev.get("tid").and_then(Json::as_i64).unwrap_or(0),
        };
        let dur_us = ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        out.push(TraceEvent {
            name,
            ph,
            ts_us,
            dur_us,
            tid,
            args: ev.get("args").cloned(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spans_and_counters() {
        let text = r#"[
            {"name":"degree","ph":"X","ts":10.5,"dur":5.25,"pid":1,"tid":0,
             "args":{"depth":0,"edges":16}},
            {"name":"mem.live_bytes","ph":"C","ts":20,"pid":1,"tid":0,
             "args":{"live_bytes":1024}}
        ]"#;
        let events = parse_trace(text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ph, Phase::Complete);
        assert_eq!(events[0].name, "degree");
        assert_eq!(events[0].ts_us, 10.5);
        assert_eq!(events[0].dur_us, 5.25);
        assert_eq!(events[0].arg_u64("depth"), Some(0));
        assert_eq!(events[0].arg_u64("edges"), Some(16));
        assert_eq!(events[0].arg_u64("chunk"), None);
        assert_eq!(events[1].ph, Phase::Counter);
        assert_eq!(events[1].dur_us, 0.0);
    }

    #[test]
    fn error_messages_match_the_historical_checker() {
        assert!(parse_trace("nope").unwrap_err().contains("not valid JSON"));
        assert!(parse_trace("{}")
            .unwrap_err()
            .contains("not an array of trace events"));
        assert!(parse_trace("[]").unwrap_err().contains("no events"));
        assert!(parse_trace("[3]").unwrap_err().contains("not an object"));
        assert!(parse_trace(r#"[{"ph":"X"}]"#)
            .unwrap_err()
            .contains("`name`"));
        assert!(parse_trace(r#"[{"name":"a","ph":"X","ts":"x"}]"#)
            .unwrap_err()
            .contains("non-numeric ts"));
        assert!(parse_trace(r#"[{"name":"a","ph":"X","ts":1}]"#)
            .unwrap_err()
            .contains("missing required field `dur`"));
        assert!(parse_trace(r#"[{"name":"a","ph":"B","ts":1}]"#)
            .unwrap_err()
            .contains("neither a complete"));
        assert!(
            parse_trace(r#"[{"name":"a","ph":"X","ts":1,"dur":1,"pid":1,"tid":1.5}]"#)
                .unwrap_err()
                .contains("non-integer tid")
        );
    }

    #[test]
    fn labeled_json_parse_reports_the_side() {
        assert!(parse_json("baseline", "nope")
            .unwrap_err()
            .starts_with("baseline: not valid JSON"));
        assert!(parse_json("current", "[]").is_ok());
    }
}
