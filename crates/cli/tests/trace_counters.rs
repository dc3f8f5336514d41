//! A traced `parcsr compress` run writes every memory counter series with
//! one set of arg keys, and the process heap peak as one point, with no
//! switch beyond `--trace`. Needs the `obs` feature: only then does the
//! binary register the counting allocator and record anything.
#![cfg(feature = "obs")]

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use parcsr_obs::json::Json;

fn parcsr(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_parcsr"))
        .args(args)
        .output()
        .expect("run parcsr");
    assert!(
        out.status.success(),
        "parcsr {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn each_memory_counter_appears_once_in_the_trace() {
    let dir = std::env::temp_dir().join(format!("parcsr-cli-counters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (graph, packed, trace) = (
        path(&dir, "g.txt"),
        path(&dir, "g.pcsr"),
        path(&dir, "t.json"),
    );
    parcsr(&[
        "generate", "--nodes", "4096", "--edges", "65536", "--out", &graph,
    ]);
    parcsr(&[
        "--trace", &trace, "compress", &graph, "--out", &packed, "--procs", "2",
    ]);
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let events = Json::parse(&text).unwrap();
    let mut keys: BTreeMap<String, BTreeSet<Vec<String>>> = BTreeMap::new();
    let mut points: BTreeMap<String, usize> = BTreeMap::new();
    for ev in events.as_array().unwrap() {
        if ev.get("ph").and_then(Json::as_str) != Some("C") {
            continue;
        }
        let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
        let args = ev.get("args").and_then(Json::as_object).unwrap();
        let mut set: Vec<String> = args.iter().map(|(k, _)| k.clone()).collect();
        set.sort();
        keys.entry(name.clone()).or_default().insert(set);
        *points.entry(name).or_default() += 1;
    }
    for name in ["mem.live_bytes", "mem.stage_peak_bytes", "mem.peak_bytes"] {
        assert!(points.contains_key(name), "no `{name}` series: {points:?}");
    }
    for (name, sets) in &keys {
        assert_eq!(
            sets.len(),
            1,
            "`{name}` carries several arg-key sets: {sets:?}"
        );
    }
    assert_eq!(points["mem.peak_bytes"], 1, "{points:?}");
}
