//! Medians, percentiles, peak memory and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle two for an even count); NaN if empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Percentile `q` (0..=1) of `sorted`, read as the mean of the values
/// ranked within half a percentage point of it on either side, so one
/// outlier at the exact rank does not decide it; NaN if empty.
pub fn percentile_band(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len() as f64;
    let lo = (((q - 0.005) * n).round().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((q + 0.005) * n).round() as usize).clamp(lo + 1, sorted.len());
    let band = &sorted[lo..hi];
    band.iter().map(|&x| x as f64).sum::<f64>() / band.len() as f64
}

/// A `/proc/self/status` field, in kB.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the peak-RSS mark to the current RSS and returns that RSS, in kB.
/// Work measured afterwards is charged only for what it adds on top of the
/// inputs and oracle already resident.
pub fn reset_peak_rss() -> Result<u64, String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting peak RSS: {e}"))?;
    status_kb("VmRSS:").ok_or_else(|| "no VmRSS in /proc/self/status".into())
}

/// Peak RSS since the last reset, in kB.
pub fn peak_rss_kb() -> Result<u64, String> {
    status_kb("VmHWM:").ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Named metrics with their units, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit it needs to round-trip.
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_band_averages_the_ranks_around_the_percentile() {
        let xs: Vec<u64> = (0..1000).collect();
        // Ranks 485..=494 and 985..=994.
        assert_eq!(percentile_band(&xs, 0.49), 489.5);
        assert_eq!(percentile_band(&xs, 0.99), 989.5);
        assert_eq!(percentile_band(&xs, 1.0), 997.0);
        assert_eq!(percentile_band(&[7], 0.99), 7.0);
        assert!(percentile_band(&[], 0.5).is_nan());
    }
}
