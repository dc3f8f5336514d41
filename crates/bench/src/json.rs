//! Minimal JSON emission for bench results.
//!
//! The workspace builds without crates.io access, so instead of `serde` +
//! `serde_json` the harness serializes the one shape it needs: pretty-printed
//! JSON of the experiment result tree. The value type (and a parser) lives in
//! `parcsr_obs::json` — one hand-rolled JSON implementation serves both the
//! bench output and the Chrome trace exporter. The output is byte-compatible
//! with what `serde_json::to_string_pretty` produced for the same derive
//! layout (2-space indent, field order = declaration order), so downstream
//! tooling that parses `BENCH_*.json` files keeps working.

use parcsr_obs::export::StageAgg;

use crate::experiment::{DatasetResult, ProcessorSample};

pub use parcsr_obs::json::Json;

/// Types that can render themselves as a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for StageAgg {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.to_string())),
            ("calls".into(), Json::Int(self.calls as i64)),
            ("total_ms".into(), Json::Float(self.total_ms)),
            ("workers".into(), Json::Int(self.workers as i64)),
            (
                "mem_peak_bytes".into(),
                Json::Int(self.mem_peak_bytes as i64),
            ),
        ])
    }
}

impl ToJson for ProcessorSample {
    fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
        Json::Object(vec![
            ("processors".into(), Json::Int(self.processors as i64)),
            ("time_ms".into(), Json::Float(self.time_ms)),
            ("speedup_percent".into(), Json::Float(self.speedup_percent)),
            ("paper_time_ms".into(), opt(self.paper_time_ms)),
            (
                "paper_speedup_percent".into(),
                opt(self.paper_speedup_percent),
            ),
            (
                "stages".into(),
                Json::Array(self.stages.iter().map(ToJson::to_json).collect()),
            ),
            (
                "mem".into(),
                self.mem_peak_bytes.map_or(Json::Null, |peak| {
                    Json::Object(vec![("peak_bytes".into(), Json::Int(peak as i64))])
                }),
            ),
        ])
    }
}

impl ToJson for DatasetResult {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.to_string())),
            ("real_data".into(), Json::Bool(self.real_data)),
            ("nodes".into(), Json::Int(self.nodes as i64)),
            ("edges".into(), Json::Int(self.edges as i64)),
            (
                "edgelist_text_bytes".into(),
                Json::Int(self.edgelist_text_bytes as i64),
            ),
            (
                "edgelist_binary_bytes".into(),
                Json::Int(self.edgelist_binary_bytes as i64),
            ),
            (
                "csr_packed_bytes".into(),
                Json::Int(self.csr_packed_bytes as i64),
            ),
            ("csr_raw_bytes".into(), Json::Int(self.csr_raw_bytes as i64)),
            (
                "samples".into(),
                Json::Array(self.samples.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Pretty-prints experiment results — the drop-in replacement for
/// `serde_json::to_string_pretty(&results)` in the bench binaries.
pub fn results_to_json_pretty(results: &[DatasetResult]) -> String {
    results.to_json().pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_escaping() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::Int(-3).pretty(), "-3");
        assert_eq!(Json::Float(1.5).pretty(), "1.5");
        assert_eq!(Json::Float(2.0).pretty(), "2.0");
        assert_eq!(Json::Str("a\"b\\c\nd".into()).pretty(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn pretty_layout_matches_serde_json_shape() {
        let v = Json::Object(vec![
            ("xs".into(), Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("empty".into(), Json::Array(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn sample_round_trips_field_order() {
        let s = ProcessorSample {
            processors: 4,
            time_ms: 1.25,
            speedup_percent: 50.0,
            paper_time_ms: None,
            paper_speedup_percent: Some(61.0),
            stages: vec![StageAgg {
                name: "degree",
                calls: 1,
                total_ms: 0.7,
                workers: 1,
                mem_peak_bytes: 2048,
            }],
            mem_peak_bytes: Some(2048),
        };
        let text = s.to_json().pretty();
        let procs_at = text.find("processors").unwrap();
        let time_at = text.find("time_ms").unwrap();
        assert!(procs_at < time_at);
        assert!(text.contains("\"paper_time_ms\": null"));
        assert!(text.contains("\"paper_speedup_percent\": 61.0"));
        assert!(text.contains("\"stages\""));
        assert!(text.contains("\"name\": \"degree\""));
        assert!(text.contains("\"calls\": 1"));
        assert!(text.contains("\"mem_peak_bytes\": 2048"));
        assert!(text.contains("\"peak_bytes\": 2048"));
    }

    #[test]
    fn emitted_results_parse_back() {
        let s = ProcessorSample {
            processors: 2,
            time_ms: 3.5,
            speedup_percent: 0.0,
            paper_time_ms: Some(7.13),
            paper_speedup_percent: None,
            stages: Vec::new(),
            mem_peak_bytes: None,
        };
        let parsed = Json::parse(&s.to_json().pretty()).unwrap();
        assert_eq!(parsed.get("processors").unwrap().as_i64(), Some(2));
        assert_eq!(parsed.get("time_ms").unwrap().as_f64(), Some(3.5));
        assert_eq!(parsed.get("stages").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(parsed.get("mem"), Some(&Json::Null));
    }
}
