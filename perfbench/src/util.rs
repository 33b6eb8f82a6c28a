//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, peak memory, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: every input the benchmark makes comes from one of these,
/// seeded from `--seed`, so a seed always gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    pub fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// Nearest-rank percentile of unsorted samples, `p` in `0..=100`.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Metric values by name; units come from the lists in `main.rs`.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run measured and checked.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The result line: one JSON object with `metrics` in `list` order.
/// Every end-to-end metric must have been measured; a per-layer metric
/// a workload does not exercise reads 0.
pub fn result_line(outcome: &Outcome, list: &[(&str, &str)], all_required: bool) -> String {
    for name in outcome.metrics.keys() {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not in the benchmark's list"
        );
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if all_required => panic!("metric {name} was not measured"),
            None => 0.0,
        };
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Records what a run got wrong; the run goes on, and the result line
/// says `"correct": false`.
#[derive(Default)]
pub struct Checker {
    mismatches: u64,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            if self.mismatches <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn all_passed(&self) -> bool {
        self.mismatches == 0
    }
}
