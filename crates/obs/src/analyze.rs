//! Trace analytics: worker-utilization timelines, critical-path ratios, and
//! chunk-imbalance statistics computed from drained span records.
//!
//! Recording spans (PR 3–4) answers *what ran when*; this module answers the
//! question the paper's parallel kernels actually care about: **was anyone
//! idle?** Hub rows and uneven frame sizes leave chunk boundaries imbalanced
//! — one worker straggles while the rest wait at the join — and that shows
//! up as a utilization gap long before it shows up in wall-clock noise.
//!
//! # Model
//!
//! A **stage instance** is a top-level coordinator span (`tid == 0`,
//! `depth == 0`): one execution of `degree`, `scan`, `pack`, … Within the
//! instance's `[start, end)` interval the analyzer attributes **work spans**:
//! the outermost spans of each thread fully contained in the interval
//! (worker spans at depth 0, coordinator sub-spans at depth 1 — deeper
//! nesting would double-count time already attributed to its parent). Each
//! span's duration is scaled by its sampling period (Horvitz–Thompson, as in
//! [`aggregate_stages`](crate::export::aggregate_stages)) so sampled traces
//! produce unbiased busy-time estimates.
//!
//! Per instance:
//!
//! * **lanes** — threads that recorded at least one work span. Workers that
//!   recorded nothing do not count as idle lanes (the trace cannot
//!   distinguish "idle" from "not part of this stage").
//! * **utilization** = `Σ busy / (wall × lanes)`, clamped to `(0, 1]`. A
//!   stage with no attributable work spans is *coordinator-only*: the stage
//!   itself is the single lane and utilization is 1 by definition.
//! * **critical-path ratio** = `max busy over lanes / Σ busy` — the share of
//!   total work on the slowest lane; `1/lanes` is perfectly balanced, `1.0`
//!   is fully serial.
//! * **chunk statistics** over contained spans carrying a `chunk` payload:
//!   max/mean duration, coefficient of variation, the straggler `(tid,
//!   chunk)`, and the Pearson correlation of duration against the
//!   `chunk_len` / `edges` payloads (a high correlation says the imbalance
//!   is *size*-driven and a size-aware splitter would fix it; a low one says
//!   it is content-driven). Per-chunk durations are used unscaled — sampling
//!   thins the observations but does not bias an individual duration.
//!
//! This module is plain arithmetic over already-collected records, so it is
//! compiled unconditionally — `cargo xtask trace-analyze` links it without
//! the `enabled` feature. With the feature off, [`crate::drain`] returns no
//! records and [`analyze`] of the empty slice is an empty analysis.

use crate::json::Json;
use crate::span::SpanRecord;

/// One span in analyzer form: owned name plus the payload fields the
/// analyzer consumes. Built from live [`SpanRecord`]s via `From`, or from a
/// parsed Chrome trace by external readers (`cargo xtask trace-analyze`).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedSpan {
    /// Span name (`"degree"`, `"degree.chunk"`, …).
    pub name: String,
    /// Start time in nanoseconds on the trace's monotonic clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Worker id: `0` = coordinator, `1..=p` = pool workers.
    pub tid: u32,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: u16,
    /// Sampling period the record was kept under (`1` = unsampled); busy
    /// time is scaled by this factor.
    pub sample: u32,
    /// Chunk index payload, when the span carried one.
    pub chunk: Option<u64>,
    /// Chunk length payload (elements), when carried.
    pub chunk_len: Option<u64>,
    /// Edge-count payload, when carried.
    pub edges: Option<u64>,
}

impl AnalyzedSpan {
    /// End time in nanoseconds.
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

impl From<&SpanRecord> for AnalyzedSpan {
    fn from(r: &SpanRecord) -> Self {
        AnalyzedSpan {
            name: r.name.to_string(),
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            tid: r.tid,
            depth: r.depth,
            sample: r.sample.max(1),
            chunk: r.args.chunk,
            chunk_len: r.args.chunk_len,
            edges: r.args.edges,
        }
    }
}

/// Busy-time accounting for one lane (thread) of one stage instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerBusy {
    /// Worker id (`0` = coordinator).
    pub tid: u32,
    /// Sample-scaled busy nanoseconds attributed to this lane.
    pub busy_ns: u64,
    /// Work spans actually recorded on this lane (unscaled).
    pub spans: u64,
    /// Merged busy intervals `(start_ns, end_ns)`, ascending and disjoint;
    /// drives the [`timeline`](Self::timeline) bar.
    pub intervals: Vec<(u64, u64)>,
}

impl WorkerBusy {
    /// Renders a `cols`-character busy/idle bar over `[start_ns, end_ns)`:
    /// `#` where the lane had a recorded span, `.` where it was idle.
    #[must_use]
    pub fn timeline(&self, start_ns: u64, end_ns: u64, cols: usize) -> String {
        if cols == 0 || end_ns <= start_ns {
            return String::new();
        }
        let span = (end_ns - start_ns) as f64;
        let mut cells = vec![b'.'; cols];
        for &(a, b) in &self.intervals {
            let (a, b) = (a.max(start_ns), b.min(end_ns));
            if b <= a {
                continue;
            }
            let lo = ((a - start_ns) as f64 / span * cols as f64).floor() as usize;
            let hi = (((b - start_ns) as f64 / span * cols as f64).ceil() as usize).min(cols);
            for cell in &mut cells[lo.min(cols - 1)..hi] {
                *cell = b'#';
            }
        }
        String::from_utf8(cells).expect("bar is ASCII")
    }
}

/// One observation of a per-chunk span inside a stage instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkObs {
    /// Name of the chunk span (`"degree.chunk"`, `"scatter.chunk"`, …).
    pub name: String,
    /// Worker the chunk ran on.
    pub tid: u32,
    /// Chunk index payload.
    pub chunk: u64,
    /// Observed (unscaled) duration in nanoseconds.
    pub dur_ns: u64,
    /// Sampling period the observation was kept under.
    pub sample: u32,
    /// `chunk_len` payload, when carried.
    pub chunk_len: Option<u64>,
    /// `edges` payload, when carried.
    pub edges: Option<u64>,
}

/// Imbalance statistics over a set of chunk observations.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkStats {
    /// Chunk spans actually observed (after sampling).
    pub observed: usize,
    /// Estimated true chunk count (`Σ sample` over observations).
    pub estimated: u64,
    /// Mean observed chunk duration in nanoseconds.
    pub mean_ns: f64,
    /// Maximum observed chunk duration in nanoseconds.
    pub max_ns: u64,
    /// Coefficient of variation of chunk durations (population std-dev over
    /// mean); 0 is perfectly even, ≳0.5 is heavily skewed.
    pub cv: f64,
    /// Worker id of the slowest observed chunk.
    pub straggler_tid: u32,
    /// Chunk index of the slowest observed chunk.
    pub straggler_chunk: u64,
    /// Pearson correlation of duration vs the `chunk_len` payload; `None`
    /// with fewer than two carrying observations or zero variance.
    pub corr_chunk_len: Option<f64>,
    /// Pearson correlation of duration vs the `edges` payload.
    pub corr_edges: Option<f64>,
}

/// Computes [`ChunkStats`] over a set of observations; `None` when empty.
#[must_use]
pub fn chunk_stats(obs: &[ChunkObs]) -> Option<ChunkStats> {
    if obs.is_empty() {
        return None;
    }
    let n = obs.len() as f64;
    let mean = obs.iter().map(|o| o.dur_ns as f64).sum::<f64>() / n;
    let var = obs
        .iter()
        .map(|o| {
            let d = o.dur_ns as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    let straggler = obs
        .iter()
        .max_by_key(|o| o.dur_ns)
        .expect("obs is non-empty");
    let pairs_with = |f: fn(&ChunkObs) -> Option<u64>| -> Vec<(f64, f64)> {
        obs.iter()
            .filter_map(|o| f(o).map(|x| (o.dur_ns as f64, x as f64)))
            .collect()
    };
    Some(ChunkStats {
        observed: obs.len(),
        estimated: obs.iter().map(|o| u64::from(o.sample)).sum(),
        mean_ns: mean,
        max_ns: straggler.dur_ns,
        cv,
        straggler_tid: straggler.tid,
        straggler_chunk: straggler.chunk,
        corr_chunk_len: pearson(&pairs_with(|o| o.chunk_len)),
        corr_edges: pearson(&pairs_with(|o| o.edges)),
    })
}

/// Pearson correlation coefficient of `(x, y)` pairs; `None` with fewer
/// than two pairs or when either side has zero variance.
#[must_use]
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (x, y) in pairs {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Analysis of one execution of one top-level stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageInstance {
    /// Stage name.
    pub name: String,
    /// Instance start in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration of the instance in nanoseconds.
    pub dur_ns: u64,
    /// Per-lane busy accounting, ascending by `tid`.
    pub workers: Vec<WorkerBusy>,
    /// Total sample-scaled busy nanoseconds over all lanes.
    pub busy_ns: u64,
    /// Busy nanoseconds of the busiest lane.
    pub critical_path_ns: u64,
    /// `busy / (wall × lanes)`, clamped to `(0, 1]`.
    pub utilization: f64,
    /// `critical_path / busy` — share of all work on the slowest lane.
    pub critical_path_ratio: f64,
    /// True when no work spans were attributable and the stage itself was
    /// counted as the only (coordinator) lane.
    pub coordinator_only: bool,
    /// Chunk-span observations contained in the instance (any depth).
    pub chunks: Vec<ChunkObs>,
}

/// Aggregated analysis of all instances of one stage name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage name.
    pub name: String,
    /// Number of instances (e.g. one per benchmark repetition).
    pub instances: usize,
    /// Summed wall-clock nanoseconds over instances.
    pub wall_ns: u64,
    /// Summed busy nanoseconds over instances.
    pub busy_ns: u64,
    /// Capacity-weighted utilization: `Σ busy / Σ (wall × lanes)`.
    pub utilization: f64,
    /// Worst single-instance utilization.
    pub min_utilization: f64,
    /// `Σ critical_path / Σ busy` over instances.
    pub critical_path_ratio: f64,
    /// Most lanes seen in any instance.
    pub max_workers: usize,
    /// Pooled chunk statistics over all instances; `None` when the stage
    /// recorded no chunk spans.
    pub chunks: Option<ChunkStats>,
}

/// A full trace analysis: per-instance detail plus per-stage-name summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceAnalysis {
    /// Every top-level stage instance, ascending by start time.
    pub instances: Vec<StageInstance>,
    /// Per-stage-name summaries, in first-seen order.
    pub stages: Vec<StageSummary>,
}

impl TraceAnalysis {
    /// The summary for `name`, if that stage appears in the trace.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// JSON rendering (the `--json` output of `cargo xtask trace-analyze`
    /// and the experiment artifacts).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "stages".into(),
                Json::Array(self.stages.iter().map(StageSummary::to_json).collect()),
            ),
            (
                "instances".into(),
                Json::Array(self.instances.iter().map(StageInstance::to_json).collect()),
            ),
        ])
    }
}

fn ms(ns: u64) -> Json {
    Json::Float(ns as f64 / 1e6)
}

fn opt_float(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Float)
}

impl ChunkStats {
    /// JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("observed".into(), Json::Int(self.observed as i64)),
            ("estimated".into(), Json::Int(self.estimated as i64)),
            ("mean_ms".into(), Json::Float(self.mean_ns / 1e6)),
            ("max_ms".into(), ms(self.max_ns)),
            ("cv".into(), Json::Float(self.cv)),
            (
                "straggler_tid".into(),
                Json::Int(i64::from(self.straggler_tid)),
            ),
            (
                "straggler_chunk".into(),
                Json::Int(self.straggler_chunk as i64),
            ),
            ("corr_chunk_len".into(), opt_float(self.corr_chunk_len)),
            ("corr_edges".into(), opt_float(self.corr_edges)),
        ])
    }
}

impl StageSummary {
    /// JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("instances".into(), Json::Int(self.instances as i64)),
            ("wall_ms".into(), ms(self.wall_ns)),
            ("busy_ms".into(), ms(self.busy_ns)),
            ("utilization".into(), Json::Float(self.utilization)),
            ("min_utilization".into(), Json::Float(self.min_utilization)),
            (
                "critical_path_ratio".into(),
                Json::Float(self.critical_path_ratio),
            ),
            ("max_workers".into(), Json::Int(self.max_workers as i64)),
            (
                "chunks".into(),
                self.chunks.as_ref().map_or(Json::Null, ChunkStats::to_json),
            ),
        ])
    }
}

impl StageInstance {
    /// JSON rendering (omits the raw chunk observations; the pooled stats
    /// live on the summary).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("start_ms".into(), ms(self.start_ns)),
            ("wall_ms".into(), ms(self.dur_ns)),
            ("utilization".into(), Json::Float(self.utilization)),
            (
                "critical_path_ratio".into(),
                Json::Float(self.critical_path_ratio),
            ),
            ("coordinator_only".into(), Json::Bool(self.coordinator_only)),
            (
                "workers".into(),
                Json::Array(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::Object(vec![
                                ("tid".into(), Json::Int(i64::from(w.tid))),
                                ("busy_ms".into(), ms(w.busy_ns)),
                                ("spans".into(), Json::Int(w.spans as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Analyzes live span records (see [`analyze`]).
#[must_use]
pub fn analyze_records(records: &[SpanRecord]) -> TraceAnalysis {
    let spans: Vec<AnalyzedSpan> = records.iter().map(AnalyzedSpan::from).collect();
    analyze(&spans)
}

/// Analyzes a set of spans: finds every top-level stage instance, attributes
/// contained work spans to lanes, and summarizes per stage name. See the
/// module docs for the model.
#[must_use]
pub fn analyze(spans: &[AnalyzedSpan]) -> TraceAnalysis {
    let mut tops: Vec<&AnalyzedSpan> = spans
        .iter()
        .filter(|s| s.depth == 0 && s.tid == 0)
        .collect();
    tops.sort_by_key(|s| (s.start_ns, s.end_ns()));
    let instances: Vec<StageInstance> = tops
        .into_iter()
        .map(|top| analyze_instance(top, spans))
        .collect();
    let stages = summarize(&instances);
    TraceAnalysis { instances, stages }
}

fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        if let Some(last) = out.last_mut() {
            if a <= last.1 {
                last.1 = last.1.max(b);
                continue;
            }
        }
        out.push((a, b));
    }
    out
}

fn analyze_instance(top: &AnalyzedSpan, spans: &[AnalyzedSpan]) -> StageInstance {
    let (s, e) = (top.start_ns, top.end_ns());
    let mut workers: Vec<WorkerBusy> = Vec::new();
    let mut chunks: Vec<ChunkObs> = Vec::new();
    for r in spans {
        // Top-level coordinator records are other stage instances (or `top`
        // itself), never work spans of this one.
        if (r.depth == 0 && r.tid == 0) || r.start_ns < s || r.end_ns() > e {
            continue;
        }
        if let Some(chunk) = r.chunk {
            chunks.push(ChunkObs {
                name: r.name.clone(),
                tid: r.tid,
                chunk,
                dur_ns: r.dur_ns,
                sample: r.sample.max(1),
                chunk_len: r.chunk_len,
                edges: r.edges,
            });
        }
        // Only the outermost span of each thread contributes busy time;
        // anything deeper is already inside its parent's interval.
        let outermost = if r.tid == 0 {
            r.depth == 1
        } else {
            r.depth == 0
        };
        if !outermost {
            continue;
        }
        let w = match workers.iter_mut().find(|w| w.tid == r.tid) {
            Some(w) => w,
            None => {
                workers.push(WorkerBusy {
                    tid: r.tid,
                    busy_ns: 0,
                    spans: 0,
                    intervals: Vec::new(),
                });
                workers.last_mut().expect("just pushed")
            }
        };
        w.busy_ns += r.dur_ns * u64::from(r.sample.max(1));
        w.spans += 1;
        w.intervals.push((r.start_ns, r.end_ns()));
    }
    workers.sort_by_key(|w| w.tid);
    for w in &mut workers {
        w.intervals = merge_intervals(std::mem::take(&mut w.intervals));
    }

    let wall = top.dur_ns;
    let busy: u64 = workers.iter().map(|w| w.busy_ns).sum();
    let coordinator_only = busy == 0;
    let (workers, busy) = if coordinator_only {
        // No attributable work spans (e.g. `scatter`, `sort`): the stage ran
        // entirely on the coordinator, which is then the single, fully-busy
        // lane by definition.
        (
            vec![WorkerBusy {
                tid: top.tid,
                busy_ns: wall,
                spans: 1,
                intervals: vec![(s, e)],
            }],
            wall,
        )
    } else {
        (workers, busy)
    };
    let lanes = workers.len() as u64;
    let capacity = u128::from(wall) * u128::from(lanes);
    let utilization = if capacity == 0 {
        1.0 // zero-duration stage: degenerate, defined as fully utilized
    } else {
        (busy as f64 / capacity as f64).min(1.0)
    };
    let critical_path_ns = workers.iter().map(|w| w.busy_ns).max().unwrap_or(0);
    let critical_path_ratio = if busy > 0 {
        critical_path_ns as f64 / busy as f64
    } else {
        1.0
    };
    StageInstance {
        name: top.name.clone(),
        start_ns: s,
        dur_ns: wall,
        workers,
        busy_ns: busy,
        critical_path_ns,
        utilization,
        critical_path_ratio,
        coordinator_only,
        chunks,
    }
}

fn summarize(instances: &[StageInstance]) -> Vec<StageSummary> {
    let mut names: Vec<&str> = Vec::new();
    for i in instances {
        if !names.contains(&i.name.as_str()) {
            names.push(&i.name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let group: Vec<&StageInstance> = instances.iter().filter(|i| i.name == name).collect();
            let wall_ns: u64 = group.iter().map(|i| i.dur_ns).sum();
            let busy_ns: u64 = group.iter().map(|i| i.busy_ns).sum();
            let capacity: u128 = group
                .iter()
                .map(|i| u128::from(i.dur_ns) * i.workers.len() as u128)
                .sum();
            let utilization = if capacity == 0 {
                1.0
            } else {
                (busy_ns as f64 / capacity as f64).min(1.0)
            };
            let min_utilization = group
                .iter()
                .map(|i| i.utilization)
                .fold(f64::INFINITY, f64::min);
            let crit: u64 = group.iter().map(|i| i.critical_path_ns).sum();
            let critical_path_ratio = if busy_ns > 0 {
                crit as f64 / busy_ns as f64
            } else {
                1.0
            };
            let all_chunks: Vec<ChunkObs> = group
                .iter()
                .flat_map(|i| i.chunks.iter().cloned())
                .collect();
            StageSummary {
                name: name.to_string(),
                instances: group.len(),
                wall_ns,
                busy_ns,
                utilization,
                min_utilization,
                critical_path_ratio,
                max_workers: group.iter().map(|i| i.workers.len()).max().unwrap_or(0),
                chunks: chunk_stats(&all_chunks),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u32, depth: u16, start: u64, dur: u64) -> AnalyzedSpan {
        AnalyzedSpan {
            name: name.to_string(),
            start_ns: start,
            dur_ns: dur,
            tid,
            depth,
            sample: 1,
            chunk: None,
            chunk_len: None,
            edges: None,
        }
    }

    fn chunk_span(
        name: &str,
        tid: u32,
        start: u64,
        dur: u64,
        chunk: u64,
        chunk_len: u64,
    ) -> AnalyzedSpan {
        AnalyzedSpan {
            chunk: Some(chunk),
            chunk_len: Some(chunk_len),
            ..span(name, tid, 0, start, dur)
        }
    }

    #[test]
    fn single_worker_is_fully_utilized() {
        let spans = vec![
            span("degree", 0, 0, 0, 100),
            span("degree.work", 1, 0, 0, 100),
        ];
        let a = analyze(&spans);
        assert_eq!(a.instances.len(), 1);
        let i = &a.instances[0];
        assert!((i.utilization - 1.0).abs() < 1e-12, "{}", i.utilization);
        assert!((i.critical_path_ratio - 1.0).abs() < 1e-12);
        assert!(!i.coordinator_only);
        assert_eq!(i.workers.len(), 1);
        assert_eq!(i.busy_ns, 100);
    }

    #[test]
    fn one_straggler_among_p_workers_is_one_over_p() {
        // Worker 1 is busy the whole stage; workers 2..=4 record
        // zero-duration spans (they participated but did ~no work).
        let spans = vec![
            span("scan", 0, 0, 0, 1000),
            span("w", 1, 0, 0, 1000),
            span("w", 2, 0, 10, 0),
            span("w", 3, 0, 10, 0),
            span("w", 4, 0, 10, 0),
        ];
        let a = analyze(&spans);
        let i = &a.instances[0];
        assert_eq!(i.workers.len(), 4);
        assert!((i.utilization - 0.25).abs() < 1e-12, "{}", i.utilization);
        assert!((i.critical_path_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_workers_reach_high_utilization() {
        let mut spans = vec![span("scan", 0, 0, 0, 100)];
        for tid in 1..=4 {
            spans.push(span("w", tid, 0, 0, 95));
        }
        let i = &analyze(&spans).instances[0];
        assert!((i.utilization - 0.95).abs() < 1e-12);
        assert!((i.critical_path_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stage_has_no_division_by_zero() {
        // No children at all, and even a zero-duration instance.
        let spans = vec![span("scatter", 0, 0, 0, 50), span("sort", 0, 0, 60, 0)];
        let a = analyze(&spans);
        assert_eq!(a.instances.len(), 2);
        for i in &a.instances {
            assert!(i.coordinator_only);
            assert!(i.utilization > 0.0 && i.utilization <= 1.0);
            assert!(i.critical_path_ratio.is_finite());
        }
        assert!((a.instances[0].utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_empty_analysis() {
        let a = analyze(&[]);
        assert!(a.instances.is_empty() && a.stages.is_empty());
        assert_eq!(a, TraceAnalysis::default());
    }

    #[test]
    fn sampling_scales_busy_time_up() {
        let mut w = span("w", 1, 0, 0, 10);
        w.sample = 4; // stands for 4 same-name spans
        let spans = vec![span("pack", 0, 0, 0, 80), w];
        let i = &analyze(&spans).instances[0];
        assert_eq!(i.busy_ns, 40);
        assert!((i.utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_do_not_double_count() {
        let spans = vec![
            span("pack", 0, 0, 0, 100),
            span("pack.columns", 0, 1, 0, 100), // coordinator sub-span: counts
            span("inner", 0, 2, 10, 50),        // nested deeper: ignored
            span("w", 1, 0, 0, 100),
            span("w.inner", 1, 1, 5, 20), // nested on the worker: ignored
        ];
        let i = &analyze(&spans).instances[0];
        assert_eq!(i.busy_ns, 200);
        assert_eq!(i.workers.len(), 2);
        assert!((i.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spans_outside_the_instance_are_not_attributed() {
        let spans = vec![
            span("degree", 0, 0, 0, 100),
            span("scan", 0, 0, 200, 100),
            span("w", 1, 0, 210, 50), // inside scan, not degree
        ];
        let a = analyze(&spans);
        assert!(a.instances[0].coordinator_only);
        assert!(!a.instances[1].coordinator_only);
        assert_eq!(a.instances[1].busy_ns, 50);
    }

    #[test]
    fn chunk_stats_pin_mean_max_cv_and_straggler() {
        let obs = vec![
            ChunkObs {
                name: "x.chunk".into(),
                tid: 1,
                chunk: 0,
                dur_ns: 10,
                sample: 1,
                chunk_len: Some(1),
                edges: Some(3),
            },
            ChunkObs {
                name: "x.chunk".into(),
                tid: 2,
                chunk: 1,
                dur_ns: 20,
                sample: 1,
                chunk_len: Some(2),
                edges: Some(2),
            },
            ChunkObs {
                name: "x.chunk".into(),
                tid: 3,
                chunk: 2,
                dur_ns: 30,
                sample: 1,
                chunk_len: Some(3),
                edges: Some(1),
            },
        ];
        let st = chunk_stats(&obs).unwrap();
        assert_eq!(st.observed, 3);
        assert_eq!(st.estimated, 3);
        assert!((st.mean_ns - 20.0).abs() < 1e-12);
        assert_eq!(st.max_ns, 30);
        // Population std-dev of {10,20,30} is sqrt(200/3) ≈ 8.165.
        assert!((st.cv - (200.0f64 / 3.0).sqrt() / 20.0).abs() < 1e-12);
        assert_eq!((st.straggler_tid, st.straggler_chunk), (3, 2));
        // Duration rises with chunk_len and falls with edges.
        assert!((st.corr_chunk_len.unwrap() - 1.0).abs() < 1e-12);
        assert!((st.corr_edges.unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn chunk_stats_edge_cases() {
        assert!(chunk_stats(&[]).is_none());
        let one = vec![ChunkObs {
            name: "x".into(),
            tid: 1,
            chunk: 0,
            dur_ns: 5,
            sample: 2,
            chunk_len: None,
            edges: None,
        }];
        let st = chunk_stats(&one).unwrap();
        assert_eq!(st.estimated, 2);
        assert_eq!(st.cv, 0.0);
        assert!(st.corr_chunk_len.is_none() && st.corr_edges.is_none());
        // Zero variance on one side: correlation undefined, not NaN.
        assert!(pearson(&[(1.0, 5.0), (2.0, 5.0)]).is_none());
    }

    #[test]
    fn chunks_are_collected_into_instances_and_summaries() {
        let spans = vec![
            span("degree", 0, 0, 0, 100),
            chunk_span("degree.chunk", 1, 0, 60, 0, 50),
            chunk_span("degree.chunk", 2, 0, 40, 1, 50),
            span("degree", 0, 0, 200, 100),
            chunk_span("degree.chunk", 1, 200, 55, 0, 50),
            chunk_span("degree.chunk", 2, 200, 45, 1, 50),
        ];
        let a = analyze(&spans);
        assert_eq!(a.instances.len(), 2);
        assert_eq!(a.instances[0].chunks.len(), 2);
        let s = a.stage("degree").unwrap();
        assert_eq!(s.instances, 2);
        let st = s.chunks.as_ref().unwrap();
        assert_eq!(st.observed, 4);
        assert_eq!((st.straggler_tid, st.straggler_chunk), (1, 0));
        assert!((st.mean_ns - 50.0).abs() < 1e-12);
    }

    #[test]
    fn summary_weights_utilization_by_capacity() {
        // Instance A: wall 100, 2 lanes, busy 100 (util 0.5).
        // Instance B: wall 300, 2 lanes, busy 600 (util 1.0).
        // Capacity-weighted: 700 / 800 = 0.875; min is 0.5.
        let spans = vec![
            span("pack", 0, 0, 0, 100),
            span("w", 1, 0, 0, 60),
            span("w", 2, 0, 0, 40),
            span("pack", 0, 0, 1000, 300),
            span("w", 1, 0, 1000, 300),
            span("w", 2, 0, 1000, 300),
        ];
        let s = analyze(&spans).stage("pack").unwrap().clone();
        assert!((s.utilization - 0.875).abs() < 1e-12, "{}", s.utilization);
        assert!((s.min_utilization - 0.5).abs() < 1e-12);
        assert_eq!(s.max_workers, 2);
    }

    #[test]
    fn timeline_bar_marks_busy_cells() {
        let w = WorkerBusy {
            tid: 1,
            busy_ns: 50,
            spans: 1,
            intervals: vec![(0, 25), (75, 100)],
        };
        let bar = w.timeline(0, 100, 20);
        assert_eq!(bar.len(), 20);
        assert!(bar.starts_with("#####"));
        assert!(bar.ends_with("#####"));
        assert!(bar.contains(".........."));
        assert_eq!(w.timeline(0, 0, 20), "");
        assert_eq!(w.timeline(0, 100, 0), "");
    }

    #[test]
    fn to_json_roundtrips_through_the_parser() {
        let spans = vec![
            span("degree", 0, 0, 0, 100),
            chunk_span("degree.chunk", 1, 0, 60, 0, 50),
        ];
        let text = analyze(&spans).to_json().pretty();
        let doc = Json::parse(&text).unwrap();
        let stages = doc.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("degree"));
        assert!(stages[0].get("utilization").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(stages[0].get("chunks").unwrap().get("cv").is_some());
    }
}
