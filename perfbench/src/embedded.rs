//! `goals_hot` and `goals_spill`: Prolog goals through an embedded
//! `pfe_core::Session` on the paged engine (in-memory pager), one
//! closed-loop client.
//!
//! A run repeats whole rounds of one seeded goal stream. On
//! `goals_spill` the answer cache is emptied before every round, so each
//! round asks distinct keys and goes to the DBMS; the Prolog facts the
//! warm-up round installed stay, so every round does the same work.

use crate::goals::{self, answer_set, Goal};
use crate::oracle::Oracle;
use crate::util::{median, peak_rss_mb, percentile, Checker, Metrics, Outcome, Rng};
use crate::Layers;
use coupling::workload::{Firm, FirmParams};
use coupling::{cache, stepwise, Answer, Coupler, CouplerConfig, QueryCache};
use metaeval::MetaEvaluator;
use optimizer::{Simplifier, SimplifyOutcome};
use pfe_core::Session;
use sqlgen::MappingOptions;
use std::collections::HashSet;
use std::time::Instant;

/// One goal workload's inputs.
pub struct Spec {
    /// The generated firm's shape (salaries come from `--seed`).
    pub depth: usize,
    pub branching: usize,
    pub staff_per_dept: usize,
    /// Buffer-pool frames of the paged engine.
    pub pool_frames: usize,
    /// Goals in one round.
    pub round_len: usize,
    /// Empty the answer cache before each round.
    pub fresh_keys: bool,
}

pub const HOT: Spec = Spec {
    depth: 2,
    branching: 3,
    staff_per_dept: 3,
    pool_frames: 64,
    round_len: 490,
    fresh_keys: false,
};

pub const SPILL: Spec = Spec {
    depth: 5,
    branching: 3,
    staff_per_dept: 6,
    pool_frames: 16,
    round_len: 126,
    fresh_keys: true,
};

/// Goals of the seeded sample re-run with the optimizer and the cache
/// off, to check that §6 simplification kept every answer.
const DIRECT_SAMPLE: usize = 16;

/// The paper's pipeline rebuilt from public calls, as `Coupler::query`
/// runs it with the default configuration, timing each layer.
struct Traced {
    cache: QueryCache,
    layers: Layers,
}

impl Traced {
    fn query(&mut self, c: &mut Coupler, goals_src: &str) -> coupling::Result<Vec<Answer>> {
        let l = &mut self.layers;
        let t = Instant::now();
        let meta = MetaEvaluator::with_limits(c.engine.kb(), &c.db, c.config.unfold);
        let outcome = meta.metaevaluate(goals_src, "q")?;
        let pattern = prolog::parse_term(goals_src)?;
        l.metaeval_ns += elapsed(t);
        l.goals += 1;
        l.branches += outcome.branches.len() as u64;

        let mut seen = HashSet::new();
        let mut answers = Vec::new();
        let mut raw_union = Vec::new();
        for branch in outcome.branches {
            let t = Instant::now();
            let simplified = Simplifier::with_config(&c.db, &c.constraints, c.config.simplify)
                .simplify(branch.query);
            l.optimizer_ns += elapsed(t);
            let query = match simplified {
                SimplifyOutcome::Simplified(q, stats) => {
                    l.rows_removed += stats.rows_removed() as u64;
                    q
                }
                SimplifyOutcome::Empty(_) => {
                    l.empty_branches += 1;
                    continue;
                }
            };
            let t = Instant::now();
            let cached = self.cache.lookup(&query);
            l.cache_ns += elapsed(t);
            l.lookups += 1;
            let raw = match cached {
                Some(hit) => {
                    l.hits += 1;
                    hit
                }
                None => {
                    let opts = MappingOptions {
                        first_var_index: 1,
                        distinct: c.config.distinct,
                    };
                    let t = Instant::now();
                    let sql = sqlgen::mapping::to_sql_text(&query, &c.db, opts)?;
                    l.sqlgen_ns += elapsed(t);
                    l.join_terms +=
                        sqlgen::mapping::translate(&query, &c.db, opts)?.join_term_count() as u64;
                    let result = c.rqs.execute(&sql)?;
                    l.absorb_statement(&result.metrics);
                    let fetched = coupling::answers_from_result(&query, &result)?;
                    self.cache.store(&query, &fetched);
                    fetched
                }
            };
            let t = Instant::now();
            let (kept, _) = stepwise::filter_residual(&c.engine, &branch.residual, raw.clone())?;
            l.residual_ns += elapsed(t);
            raw_union.extend(raw);
            for a in kept {
                if seen.insert(a.clone()) {
                    answers.push(a);
                }
            }
        }
        let t = Instant::now();
        cache::install_facts(&c.engine, &pattern, &raw_union);
        l.install_ns += elapsed(t);
        Ok(answers)
    }
}

fn elapsed(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

struct State {
    session: Session,
    round: Vec<Goal>,
    traced: Option<Traced>,
}

impl State {
    fn run_goal(&mut self, text: &str) -> coupling::Result<Vec<Answer>> {
        match &mut self.traced {
            None => self.session.query(text, "q").map(|run| run.answers),
            Some(t) => t.query(self.session.coupler_mut(), text),
        }
    }

    fn clear_cache(&mut self) {
        match &mut self.traced {
            None => self.session.coupler_mut().clear_cache(),
            Some(t) => t.cache.clear(),
        }
    }
}

/// Everything before the measured phase: generate, load, warm up.
fn setup(spec: &Spec, seed: u64, trace: bool, checker: &mut Checker) -> State {
    let firm = Firm::generate(FirmParams {
        depth: spec.depth,
        branching: spec.branching,
        staff_per_dept: spec.staff_per_dept,
        seed,
    });
    let mut session = Session::empdep_paged(spec.pool_frames);
    for view in goals::views() {
        session.consult(view).expect("views parse");
    }
    firm.load_into(session.coupler_mut())
        .expect("generated firm is consistent");
    let depth = session.coupler().config.unfold.max_recursion_depth;
    let oracle = Oracle::new(&firm);
    let round = goals::round(
        &mut Rng::new(seed),
        &firm,
        &oracle,
        depth,
        spec.round_len,
        goals::KINDS,
    );
    let mut state = State {
        session,
        round,
        traced: trace.then(|| Traced {
            cache: QueryCache::new(),
            layers: Layers::default(),
        }),
    };
    // Warm-up: one checked round, so the goal space is warm (hot) and
    // the installed facts are in place (spill).
    for goal in state.round.clone() {
        match state.run_goal(&goal.text) {
            Ok(answers) => check_answers(checker, &goal, &answers),
            Err(e) => checker.check(false, || format!("warm-up {}: {e}", goal.text)),
        }
    }
    state
}

fn check_answers(checker: &mut Checker, goal: &Goal, answers: &[Answer]) {
    let got = answer_set(answers);
    checker.check(got == goal.expected, || {
        format!(
            "{} ({}): got {got:?}, oracle {:?}",
            goal.text, goal.kind, goal.expected
        )
    });
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut checker = Checker::default();
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..crate::SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(spec, seed, trace, &mut checker));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one setup");
    if let Some(t) = &mut state.traced {
        t.layers = Layers::default();
    }

    let io_before = state.session.coupler().rqs.backend().metrics();
    let mut latencies = Vec::new();
    let mut round_rates = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + std::time::Duration::from_secs(seconds);
    let round = state.round.clone();
    loop {
        if spec.fresh_keys {
            state.clear_cache();
        }
        let mut busy = 0u64;
        for goal in &round {
            let t = Instant::now();
            let out = state.run_goal(&goal.text);
            let nanos = elapsed(t);
            attempted += 1;
            busy += nanos;
            latencies.push(nanos);
            match out {
                Ok(answers) => check_answers(&mut checker, goal, &answers),
                Err(e) => {
                    failed += 1;
                    eprintln!("{} failed: {e}", goal.text);
                }
            }
        }
        round_rates.push(round.len() as f64 / (busy as f64 / 1e9));
        if Instant::now() >= deadline {
            break;
        }
    }
    let io = state.session.coupler().rqs.backend().metrics();
    let io = crate::counter_delta(&io_before, &io);
    let rss = peak_rss_mb();

    check_direct(&mut state, seed, &mut checker);

    let mut metrics = Metrics::new();
    // Goals per second of the client's time inside `query` (the oracle
    // checks between goals do not count), the median over rounds.
    let ops_per_s = median(&round_rates);
    match state.traced {
        None => {
            metrics.insert("setup_s", median(&setup_times));
            metrics.insert("ops_per_s", ops_per_s);
            metrics.insert("read_p50_us", percentile(&latencies, 50.0) / 1e3);
            metrics.insert("peak_rss_mb", rss);
        }
        Some(t) => {
            t.layers.report(&mut metrics);
            metrics.insert(
                "metaeval.kb_facts",
                kb_facts(state.session.coupler()) as f64,
            );
            crate::report_storage(&mut metrics, &io, attempted);
            metrics.insert("client.read_p90_us", percentile(&latencies, 90.0) / 1e3);
            metrics.insert("client.read_p99_us", percentile(&latencies, 99.0) / 1e3);
            metrics.insert("trace.ops_per_s", ops_per_s);
        }
    }
    Outcome {
        correct: checker.all_passed(),
        attempted,
        failed,
        metrics,
    }
}

/// Re-runs a seeded sample of the round with the optimizer and the
/// cache off, untimed: §6 must leave every answer unchanged.
fn check_direct(state: &mut State, seed: u64, checker: &mut Checker) {
    let mut rng = Rng::new(seed ^ 0xd1ec7);
    let saved = state.session.coupler().config;
    *state.session.config_mut() = CouplerConfig {
        optimize: false,
        cache: false,
        ..saved
    };
    for _ in 0..DIRECT_SAMPLE {
        let goal = &state.round[rng.below(state.round.len())];
        match state.session.query(&goal.text, "q") {
            Ok(run) => {
                let got = answer_set(&run.answers);
                checker.check(got == goal.expected, || {
                    format!(
                        "direct {}: got {got:?}, oracle {:?}",
                        goal.text, goal.expected
                    )
                });
            }
            Err(e) => checker.check(false, || format!("direct {}: {e}", goal.text)),
        }
    }
    *state.session.config_mut() = saved;
}

/// Ground facts in the knowledge base: the answers installed so far.
fn kb_facts(c: &Coupler) -> u64 {
    let kb = c.engine.kb();
    kb.predicates()
        .into_iter()
        .map(|key| {
            kb.clauses(key)
                .iter()
                .filter(|cl| cl.body.is_empty() && cl.head.is_ground())
                .count() as u64
        })
        .sum()
}
