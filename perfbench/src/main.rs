//! End-to-end benchmark of the optimizing Prolog front end.
//!
//! ```text
//! perfbench --workload <goals_hot|goals_spill|served_rw> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints, as its last line, one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `README.md`.

mod embedded;
mod goals;
mod oracle;
mod served;
mod util;

use std::collections::BTreeMap;
use storage::MetricsSnapshot;
use util::Metrics;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics reported with `--trace 1`. A metric of a layer
/// the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("metaeval.us_per_goal", "us"),
    ("metaeval.branches_per_goal", "count"),
    ("metaeval.kb_facts", "count"),
    ("optimizer.us_per_branch", "us"),
    ("optimizer.rows_removed_per_branch", "count"),
    ("optimizer.empty_branch_ratio", "ratio"),
    ("coupling.cache_hit_ratio", "ratio"),
    ("coupling.cache_us_per_lookup", "us"),
    ("coupling.install_facts_us_per_goal", "us"),
    ("coupling.residual_us_per_branch", "us"),
    ("sqlgen.us_per_branch", "us"),
    ("sqlgen.join_terms_per_branch", "count"),
    ("rqs.parse_us", "us"),
    ("rqs.plan_us", "us"),
    ("rqs.exec_us", "us"),
    ("rqs.rows_scanned_per_stmt", "count"),
    ("rqs.joins_per_stmt", "count"),
    ("rqs.join_comparisons_per_stmt", "count"),
    ("rqs.rows_scanned_per_op", "count/op"),
    ("rqs.commit_us", "us"),
    ("storage.pages_per_op", "count/op"),
    ("storage.page_reads_per_op", "count/op"),
    ("storage.fault_ins", "count/op"),
    ("storage.buffer_hits", "count/op"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.evictions", "count/op"),
    ("storage.wal_bytes", "B/write"),
    ("storage.wal_bytes_per_raise", "B"),
    ("storage.wal_fsyncs", "count/write"),
    ("storage.wal_checkpoints", "count"),
    ("storage.commit_p50_us", "us"),
    ("storage.versions_kept", "count/write"),
    ("storage.lock_waits", "count"),
    ("storage.pool_shard_conflicts", "count"),
    ("storage.btree_latch_waits", "count"),
    ("server.locks_us", "us"),
    ("server.session_retries", "count"),
    ("server.write_p50_us", "us"),
    ("server.write_p95_us", "us"),
    ("net.wire_us_per_stmt", "us"),
    ("client.read_p90_us", "us"),
    ("client.read_p99_us", "us"),
    ("trace.ops_per_s", "1/s"),
];

/// Front-end and DBMS work of the goal workloads' traced pipeline.
#[derive(Default)]
pub struct Layers {
    goals: u64,
    branches: u64,
    metaeval_ns: u64,
    optimizer_ns: u64,
    rows_removed: u64,
    empty_branches: u64,
    lookups: u64,
    hits: u64,
    cache_ns: u64,
    residual_ns: u64,
    install_ns: u64,
    sqlgen_ns: u64,
    join_terms: u64,
    statements: u64,
    parse_ns: u64,
    plan_ns: u64,
    exec_ns: u64,
    rows_scanned: u64,
    joins: u64,
    join_comparisons: u64,
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    fn absorb_statement(&mut self, m: &rqs::QueryMetrics) {
        self.statements += 1;
        self.parse_ns += m.parse_nanos;
        self.plan_ns += m.plan_nanos;
        self.exec_ns += m.exec_nanos.saturating_sub(m.plan_nanos);
        self.rows_scanned += m.rows_scanned;
        self.joins += m.joins as u64;
        self.join_comparisons += m.join_comparisons;
    }

    fn report(&self, out: &mut Metrics) {
        let us = |ns: u64, n: u64| ratio(ns, n) / 1e3;
        let resolved = self.branches - self.empty_branches;
        out.insert("metaeval.us_per_goal", us(self.metaeval_ns, self.goals));
        out.insert(
            "metaeval.branches_per_goal",
            ratio(self.branches, self.goals),
        );
        out.insert(
            "optimizer.us_per_branch",
            us(self.optimizer_ns, self.branches),
        );
        out.insert(
            "optimizer.rows_removed_per_branch",
            ratio(self.rows_removed, self.branches),
        );
        out.insert(
            "optimizer.empty_branch_ratio",
            ratio(self.empty_branches, self.branches),
        );
        out.insert("coupling.cache_hit_ratio", ratio(self.hits, self.lookups));
        out.insert(
            "coupling.cache_us_per_lookup",
            us(self.cache_ns, self.lookups),
        );
        out.insert(
            "coupling.install_facts_us_per_goal",
            us(self.install_ns, self.goals),
        );
        out.insert(
            "coupling.residual_us_per_branch",
            us(self.residual_ns, resolved),
        );
        out.insert("sqlgen.us_per_branch", us(self.sqlgen_ns, self.statements));
        out.insert(
            "sqlgen.join_terms_per_branch",
            ratio(self.join_terms, self.statements),
        );
        self.report_statements(out);
        out.insert(
            "rqs.rows_scanned_per_op",
            ratio(self.rows_scanned, self.goals),
        );
    }

    /// The relational query system's share, per SQL statement.
    fn report_statements(&self, out: &mut Metrics) {
        let n = self.statements;
        out.insert("rqs.parse_us", ratio(self.parse_ns, n) / 1e3);
        out.insert("rqs.plan_us", ratio(self.plan_ns, n) / 1e3);
        out.insert("rqs.exec_us", ratio(self.exec_ns, n) / 1e3);
        out.insert("rqs.rows_scanned_per_stmt", ratio(self.rows_scanned, n));
        out.insert("rqs.joins_per_stmt", ratio(self.joins, n));
        out.insert(
            "rqs.join_comparisons_per_stmt",
            ratio(self.join_comparisons, n),
        );
    }
}

/// Counter increments between two registry snapshots, by name.
pub fn counter_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> BTreeMap<&'static str, u64> {
    before
        .counters()
        .into_iter()
        .zip(after.counters())
        .map(|((name, b), (_, a))| (name, a - b))
        .collect()
}

/// Buffer-pool traffic per operation.
pub fn report_storage(out: &mut Metrics, io: &BTreeMap<&'static str, u64>, ops: u64) {
    let (faults, hits) = (io["fault_ins"], io["buffer_hits"]);
    out.insert("storage.pages_per_op", ratio(faults + hits, ops));
    out.insert("storage.page_reads_per_op", ratio(faults, ops));
    out.insert("storage.fault_ins", ratio(faults, ops));
    out.insert("storage.buffer_hits", ratio(hits, ops));
    out.insert("storage.pool_hit_ratio", ratio(hits, faults + hits));
    out.insert("storage.evictions", ratio(io["evictions"], ops));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "goals_hot" => embedded::run(&embedded::HOT, args.seed, args.seconds, args.trace),
        "goals_spill" => embedded::run(&embedded::SPILL, args.seed, args.seconds, args.trace),
        "served_rw" => served::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", util::result_line(&outcome, list, !args.trace));
}
