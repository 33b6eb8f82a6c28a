//! `served_rw`: durable SQL over TCP. A `server::net::Server` serves a
//! file-backed `SharedDatabase` (WAL forced at every commit); two
//! closed-loop connections overlap for the whole measured phase:
//!
//! - the reader sends SELECTs: the SQL the front end emits for the
//!   paper's goals, plus key and range lookups;
//! - the writer sends explicit transactions that update salaries and
//!   insert and delete rows, all inside a key range of its own.
//!
//! The generated firm is never written, so every read of it is checked
//! exactly against the oracle; reads of the writer's range are checked
//! against the CHECK bound on salaries. After the measured phase the
//! database is crashed and reopened, and its rows must equal the firm
//! plus a replay of the writer's committed transactions.

use crate::goals::{self, Goal};
use crate::oracle::Oracle;
use crate::util::{median, peak_rss_mb, percentile, Checker, Metrics, Outcome, Rng};
use coupling::workload::{Firm, FirmParams};
use dbcl::{ConstraintSet, DatabaseDef};
use pfe_core::Session;
use rqs::Datum;
use server::net::{Client, Server, WireResult};
use server::SharedDatabase;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const FIRM: (usize, usize, usize) = (3, 3, 5);
/// Buffer-pool frames: the whole database fits.
const POOL_FRAMES: usize = 128;
/// The writer's rows: its department and employees live at and above
/// this number, apart from the firm's.
const WRITER_BASE: i64 = 1_000_000;
/// Writer rows alive at any time (each insert is paired with a delete).
const WRITER_LIVE: i64 = 32;
const SAL_LO: i64 = 10_000;
const SAL_HI: i64 = 90_000;
/// Goals whose SQL one reader round sends, and the lookups beside them.
const ROUND_GOALS: usize = 24;
const ROUND_KEY_LOOKUPS: usize = 8;
const ROUND_WRITER_LOOKUPS: usize = 4;
const ROUND_RANGES: usize = 4;
/// Transactions in one writer round.
const WRITER_ROUND: usize = 16;
/// The writer's pause between transactions. A commit holds the statement
/// latch through its log force, and every read that arrives meanwhile
/// waits for the disk; the pause keeps such reads to about 1% of all.
const WRITER_THINK: Duration = Duration::from_millis(100);

/// A scratch directory inside the benchmark's own directory, removed
/// when dropped.
struct DataDir(PathBuf);

impl DataDir {
    fn new(tag: usize) -> DataDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the data directory");
        DataDir(dir)
    }

    fn db_path(&self) -> PathBuf {
        self.0.join("served.db")
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One read: one or more SELECTs and what their rows must satisfy.
#[derive(Clone)]
enum Read {
    /// The SQL of every branch of a goal: the union of their rows is the
    /// goal's answer.
    Goal { goal: Goal, sql: Vec<String> },
    /// A firm employee by key: exactly its (name, salary, department).
    Key { sql: String, row: Vec<String> },
    /// A writer-range key: no row, or one with the writer's name and a
    /// salary inside the CHECK bound.
    WriterKey { sql: String, eno: i64 },
    /// A key range of the firm: exactly these names.
    Range {
        sql: String,
        names: BTreeSet<String>,
    },
}

impl Read {
    fn statements(&self) -> Vec<&str> {
        match self {
            Read::Goal { sql, .. } => sql.iter().map(String::as_str).collect(),
            Read::Key { sql, .. } | Read::WriterKey { sql, .. } | Read::Range { sql, .. } => {
                vec![sql.as_str()]
            }
        }
    }

    /// Checks the results of [`Read::statements`], in order.
    fn check(&self, results: &[WireResult]) -> Result<(), String> {
        let cells = |r: &WireResult| -> Vec<Vec<String>> {
            r.rows
                .iter()
                .map(|row| row.iter().map(|c| unquote(c)).collect())
                .collect()
        };
        match self {
            Read::Goal { goal, .. } => {
                let got: BTreeSet<String> = results
                    .iter()
                    .flat_map(|r| cells(r).into_iter().flatten())
                    .collect();
                if got == goal.expected {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: got {got:?}, oracle {:?}",
                        goal.text, goal.expected
                    ))
                }
            }
            Read::Key { row, .. } => match cells(&results[0]).as_slice() {
                [got] if got == row => Ok(()),
                other => Err(format!("key lookup: got {other:?}, expected {row:?}")),
            },
            Read::WriterKey { eno, .. } => match cells(&results[0]).as_slice() {
                [] => Ok(()),
                [got] if got[0] == writer_name(*eno) && in_bounds(&got[1]) => Ok(()),
                other => Err(format!("writer key {eno}: got {other:?}")),
            },
            Read::Range { names, .. } => {
                let got: BTreeSet<String> = cells(&results[0]).into_iter().flatten().collect();
                if &got == names {
                    Ok(())
                } else {
                    Err(format!("range: got {got:?}, expected {names:?}"))
                }
            }
        }
    }
}

fn unquote(cell: &str) -> String {
    cell.strip_prefix('\'')
        .and_then(|c| c.strip_suffix('\''))
        .unwrap_or(cell)
        .to_owned()
}

fn in_bounds(sal: &str) -> bool {
    sal.parse::<i64>()
        .is_ok_and(|s| (SAL_LO..=SAL_HI).contains(&s))
}

fn writer_name(eno: i64) -> String {
    format!("w{eno}")
}

/// The SQL the front end emits for each goal, one entry per branch it
/// sends to the DBMS. Translation depends on the views and the schema's
/// constraints, not on the rows, so an empty embedded session serves.
fn front_end_sql(goal_list: &[Goal]) -> Vec<Vec<String>> {
    let mut session = Session::empdep();
    for view in goals::views() {
        session.consult(view).expect("views parse");
    }
    session.config_mut().cache = false;
    goal_list
        .iter()
        .map(|g| {
            let run = session
                .query(&g.text, "q")
                .expect("front end translates the goal");
            run.branches.iter().filter_map(|b| b.sql.clone()).collect()
        })
        .collect()
}

fn reader_round(firm: &Firm, oracle: &Oracle, depth: usize, rng: &mut Rng) -> Vec<Read> {
    // Goals §6 proves empty send no SQL, so the reader leaves them out.
    let goal_list = goals::round(rng, firm, oracle, depth, ROUND_GOALS, goals::KINDS - 1);
    let mut reads: Vec<Read> = front_end_sql(&goal_list)
        .into_iter()
        .zip(goal_list)
        .map(|(sql, goal)| Read::Goal { goal, sql })
        .collect();
    let n = firm.employees.len();
    for _ in 0..ROUND_KEY_LOOKUPS {
        let e = &firm.employees[rng.below(n)];
        reads.push(Read::Key {
            sql: format!(
                "SELECT v1.nam, v1.sal, v1.dno FROM empl v1 WHERE v1.eno = {}",
                e.eno
            ),
            row: vec![e.nam.clone(), e.sal.to_string(), e.dno.to_string()],
        });
    }
    for _ in 0..ROUND_WRITER_LOOKUPS {
        let eno = WRITER_BASE + 1 + rng.in_range(0, 4 * WRITER_LIVE);
        reads.push(Read::WriterKey {
            sql: format!("SELECT v1.nam, v1.sal FROM empl v1 WHERE v1.eno = {eno}"),
            eno,
        });
    }
    for _ in 0..ROUND_RANGES {
        let lo = rng.in_range(1, n as i64);
        let hi = lo + rng.in_range(1, 32);
        reads.push(Read::Range {
            sql: format!("SELECT v1.nam FROM empl v1 WHERE v1.eno >= {lo} AND v1.eno < {hi}"),
            names: firm
                .employees
                .iter()
                .filter(|e| e.eno >= lo && e.eno < hi)
                .map(|e| e.nam.clone())
                .collect(),
        });
    }
    // Shuffle so lookups and goals interleave.
    for i in (1..reads.len()).rev() {
        reads.swap(i, rng.below(i + 1));
    }
    reads
}

/// The writer's own view of its key range: eno → (name, salary).
#[derive(Clone, Default, PartialEq, Debug)]
struct WriterRows(BTreeMap<i64, (String, i64)>);

/// One writer transaction's statements, in order.
#[derive(Clone, Debug)]
enum WriteOp {
    Raise { eno: i64, sal: i64 },
    Hire { eno: i64, sal: i64 },
    Fire { eno: i64 },
}

impl WriteOp {
    fn sql(&self) -> String {
        match self {
            WriteOp::Raise { eno, sal } => format!("UPDATE empl SET sal = {sal} WHERE eno = {eno}"),
            WriteOp::Hire { eno, sal } => format!(
                "INSERT INTO empl VALUES ({eno}, '{}', {sal}, {WRITER_BASE})",
                writer_name(*eno)
            ),
            WriteOp::Fire { eno } => format!("DELETE FROM empl WHERE eno = {eno}"),
        }
    }

    fn apply(&self, rows: &mut WriterRows) {
        match self {
            WriteOp::Raise { eno, sal } => {
                rows.0.get_mut(eno).expect("raise a live row").1 = *sal;
            }
            WriteOp::Hire { eno, sal } => {
                rows.0.insert(*eno, (writer_name(*eno), *sal));
            }
            WriteOp::Fire { eno } => {
                rows.0.remove(eno);
            }
        }
    }
}

/// The writer: plans each transaction from its own committed state.
struct Writer {
    rng: Rng,
    /// Rows as loaded at set-up.
    initial: WriterRows,
    /// Rows as of the last commit.
    committed: WriterRows,
    next_eno: i64,
    /// Every committed transaction, in commit order.
    log: Vec<Vec<WriteOp>>,
}

impl Writer {
    fn new(seed: u64) -> Writer {
        let mut rng = Rng::new(seed ^ 0x3717e5);
        let mut committed = WriterRows::default();
        // The department's manager heads the range and is never fired.
        for eno in WRITER_BASE..=WRITER_BASE + WRITER_LIVE {
            committed
                .0
                .insert(eno, (writer_name(eno), rng.in_range(SAL_LO, SAL_HI)));
        }
        Writer {
            rng,
            initial: committed.clone(),
            committed,
            next_eno: WRITER_BASE + WRITER_LIVE + 1,
            log: Vec::new(),
        }
    }

    /// Transaction `i` of a round: a raise, a hire-and-fire, or both.
    fn plan(&mut self, i: usize) -> Vec<WriteOp> {
        let staff: Vec<i64> = self.committed.0.keys().copied().skip(1).collect();
        let raise = WriteOp::Raise {
            eno: staff[self.rng.below(staff.len())],
            sal: self.rng.in_range(SAL_LO, SAL_HI),
        };
        let hire = WriteOp::Hire {
            eno: self.next_eno,
            sal: self.rng.in_range(SAL_LO, SAL_HI),
        };
        let fire = WriteOp::Fire { eno: staff[0] };
        match i % 3 {
            0 => vec![raise],
            1 => vec![hire, fire],
            _ => vec![raise, hire, fire],
        }
    }

    fn committed(&mut self, ops: Vec<WriteOp>) {
        for op in &ops {
            if matches!(op, WriteOp::Hire { .. }) {
                self.next_eno += 1;
            }
            op.apply(&mut self.committed);
        }
        self.log.push(ops);
    }
}

/// Per-statement figures of the traced run.
#[derive(Default)]
struct WireSpans {
    statements: u64,
    wire_ns: u64,
    locks_ns: u64,
    parse_ns: u64,
    plan_ns: u64,
    exec_ns: u64,
}

impl WireSpans {
    /// Sends `TRACE <sql>`; the wire's share is the round trip less the
    /// server's spans.
    fn trace(&mut self, client: &mut Client, sql: &str) -> Result<(), String> {
        let t = Instant::now();
        let r = client
            .execute(&format!("TRACE {sql}"))
            .map_err(|e| e.to_string())??;
        let rtt = t.elapsed().as_nanos() as u64;
        let mut server_ns = 0;
        for row in &r.rows {
            let nanos: u64 = row[1].parse().map_err(|_| format!("trace row {row:?}"))?;
            server_ns += nanos;
            match unquote(&row[0]).as_str() {
                "locks" => self.locks_ns += nanos,
                "parse" => self.parse_ns += nanos,
                "plan" => self.plan_ns += nanos,
                "exec" => self.exec_ns += nanos,
                _ => {}
            }
        }
        self.statements += 1;
        self.wire_ns += rtt.saturating_sub(server_ns);
        Ok(())
    }

    fn merge(&mut self, o: &WireSpans) {
        self.statements += o.statements;
        self.wire_ns += o.wire_ns;
        self.locks_ns += o.locks_ns;
        self.parse_ns += o.parse_ns;
        self.plan_ns += o.plan_ns;
        self.exec_ns += o.exec_ns;
    }
}

struct State {
    dir: DataDir,
    db: SharedDatabase,
    server: Server,
    reader: Client,
    writer_conn: Client,
    writer: Writer,
    round: Vec<Read>,
    firm: Firm,
}

/// Everything before the measured phase: create and load the database
/// file, start the server, connect, translate the goals, warm up.
fn setup(seed: u64, tag: usize, checker: &mut Checker) -> State {
    let firm = Firm::generate(FirmParams {
        depth: FIRM.0,
        branching: FIRM.1,
        staff_per_dept: FIRM.2,
        seed,
    });
    let dir = DataDir::new(tag);
    let db = SharedDatabase::open(&dir.db_path(), POOL_FRAMES).expect("open the database file");
    let writer = Writer::new(seed);
    db.with_db(|d| -> rqs::RqsResult<()> {
        // Tables and rows in one transaction, so they cost one log force.
        // An index build cannot run inside a transaction; it runs after.
        let (tables, indexes): (Vec<String>, Vec<String>) =
            coupling::ddl_statements(&DatabaseDef::empdep(), &ConstraintSet::empdep())
                .into_iter()
                .partition(|ddl| ddl.starts_with("CREATE TABLE"));
        let txn = d.begin_session_txn()?;
        d.resume_session_txn(txn)?;
        for ddl in &tables {
            d.execute(ddl)?;
        }
        let empl = |eno, nam: &str, sal, dno| {
            vec![
                Datum::Int(eno),
                Datum::text(nam),
                Datum::Int(sal),
                Datum::Int(dno),
            ]
        };
        for e in &firm.employees {
            d.insert_unchecked("empl", empl(e.eno, &e.nam, e.sal, e.dno))?;
        }
        for (&eno, (nam, sal)) in &writer.committed.0 {
            d.insert_unchecked("empl", empl(eno, nam, *sal, WRITER_BASE))?;
        }
        for dp in &firm.departments {
            d.insert_unchecked(
                "dept",
                vec![Datum::Int(dp.dno), Datum::text(&dp.fct), Datum::Int(dp.mgr)],
            )?;
        }
        d.insert_unchecked(
            "dept",
            vec![
                Datum::Int(WRITER_BASE),
                Datum::text("writers"),
                Datum::Int(WRITER_BASE),
            ],
        )?;
        d.suspend_session_txn();
        d.commit_session_txn(txn)?;
        for ddl in &indexes {
            d.execute(ddl)?;
        }
        d.validate_all()
    })
    .expect("database is open")
    .expect("load the firm");
    let server = Server::start(db.clone(), "127.0.0.1:0").expect("start the server");
    let reader = Client::connect(server.addr()).expect("connect the reader");
    let writer_conn = Client::connect(server.addr()).expect("connect the writer");

    let oracle = Oracle::new(&firm);
    let depth = coupling::CouplerConfig::default()
        .unfold
        .max_recursion_depth;
    let round = reader_round(&firm, &oracle, depth, &mut Rng::new(seed));
    let mut state = State {
        dir,
        db,
        server,
        reader,
        writer_conn,
        writer,
        round,
        firm,
    };
    // Warm-up: one checked reader round.
    let round = state.round.clone();
    let mut lat = Vec::new();
    for read in &round {
        if let Err(e) = do_read(&mut state.reader, read, &mut lat, None).and_then(|c| c) {
            checker.check(false, || format!("warm-up read: {e}"));
        }
    }
    state
}

/// Sends one read's statements, timing each. `Err` is a statement that
/// failed; `Ok(Err)` is rows that failed their check.
fn do_read(
    client: &mut Client,
    read: &Read,
    latencies: &mut Vec<u64>,
    mut spans: Option<&mut WireSpans>,
) -> Result<Result<(), String>, String> {
    let mut results = Vec::new();
    for sql in read.statements() {
        let t = Instant::now();
        let r = client.execute(sql).map_err(|e| e.to_string())??;
        latencies.push(t.elapsed().as_nanos() as u64);
        results.push(r);
        if let Some(s) = spans.as_deref_mut() {
            s.trace(client, sql)?;
        }
    }
    Ok(read.check(&results))
}

/// Runs writer transaction `i` of a round; on success the writer logs it.
fn do_write(
    client: &mut Client,
    writer: &mut Writer,
    i: usize,
    spans: Option<&mut WireSpans>,
) -> Result<(), String> {
    let ops = writer.plan(i);
    let mut send = |sql: &str| -> Result<WireResult, String> {
        client.execute(sql).map_err(|e| e.to_string())?
    };
    send("BEGIN")?;
    let body = match spans {
        None => ops
            .iter()
            .try_for_each(|op| match send(&op.sql())?.affected {
                1 => Ok(()),
                n => Err(format!("{} affected {n} rows", op.sql())),
            }),
        Some(s) => ops.iter().try_for_each(|op| s.trace(client, &op.sql())),
    };
    if let Err(e) = body {
        let _ = client.execute("ROLLBACK");
        return Err(e);
    }
    client.execute("COMMIT").map_err(|e| e.to_string())??;
    writer.committed(ops);
    Ok(())
}

/// What one connection did in the measured phase.
#[derive(Default)]
struct Side {
    latencies: Vec<u64>,
    attempted: u64,
    failed: u64,
    spans: WireSpans,
    /// Statements that failed, then rows that failed their checks.
    errors: Vec<String>,
    mismatches: Vec<String>,
    /// Log bytes of each traced one-row salary UPDATE transaction.
    raise_wal_bytes: Vec<u64>,
    /// The reader's statements per second, one figure per round.
    round_rates: Vec<f64>,
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut checker = Checker::default();
    let mut setup_times = Vec::new();
    let mut state = None;
    for tag in 0..crate::SETUPS {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let t = Instant::now();
        state = Some(setup(seed, tag, &mut checker));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one setup");

    let io_before = state.db.metrics().expect("database is open");
    let hist_before = state.db.histograms().expect("database is open").commit;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let round = state.round.clone();
    let (reads, writes) = std::thread::scope(|scope| {
        let reader = &mut state.reader;
        let read_side = scope.spawn(move || {
            let mut side = Side::default();
            loop {
                let (started, done) = (Instant::now(), side.latencies.len());
                for read in &round {
                    let n = read.statements().len() as u64;
                    side.attempted += n;
                    let spans = trace.then_some(&mut side.spans);
                    match do_read(reader, read, &mut side.latencies, spans) {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => side.mismatches.push(e),
                        Err(e) => {
                            side.failed += n;
                            side.errors.push(e);
                        }
                    }
                }
                let statements = (side.latencies.len() - done) as f64;
                side.round_rates
                    .push(statements / started.elapsed().as_secs_f64());
                if Instant::now() >= deadline {
                    return side;
                }
            }
        });
        let (client, writer) = (&mut state.writer_conn, &mut state.writer);
        let db = &state.db;
        let write_side = scope.spawn(move || {
            let mut side = Side::default();
            loop {
                for i in 0..WRITER_ROUND {
                    side.attempted += 1;
                    let spans = trace.then_some(&mut side.spans);
                    let wal_before = wal_bytes(db);
                    let t = Instant::now();
                    match do_write(client, writer, i, spans) {
                        Ok(()) => {
                            side.latencies.push(t.elapsed().as_nanos() as u64);
                            // The writer is the only one appending to the log.
                            if trace && i % 3 == 0 {
                                side.raise_wal_bytes.push(wal_bytes(db) - wal_before);
                            }
                        }
                        Err(e) => {
                            side.failed += 1;
                            side.errors.push(e);
                        }
                    }
                    std::thread::sleep(WRITER_THINK);
                }
                if Instant::now() >= deadline {
                    return side;
                }
            }
        });
        (
            read_side.join().expect("reader thread"),
            write_side.join().expect("writer thread"),
        )
    });
    for e in reads.errors.iter().chain(&writes.errors).take(5) {
        eprintln!("served_rw failed: {e}");
    }
    for e in &reads.mismatches {
        checker.check(false, || e.clone());
    }
    let io_after = state.db.metrics().expect("database is open");
    let io = crate::counter_delta(&io_before, &io_after);
    let hist_after = state.db.histograms().expect("database is open").commit;
    let retries: u64 = [&mut state.reader, &mut state.writer_conn]
        .into_iter()
        .map(|c| {
            c.stats()
                .map_or(0, |s| s.get("session_retries").copied().unwrap_or(0))
        })
        .sum();
    let rss = peak_rss_mb();

    check_durable(state, &mut checker);

    let ops = (reads.latencies.len() + writes.latencies.len()) as u64;
    // The writer is paced, so throughput is the reader's: statements per
    // second, the median over its rounds.
    let ops_per_s = median(&reads.round_rates);
    let mut metrics = Metrics::new();
    if !trace {
        metrics.insert("setup_s", median(&setup_times));
        metrics.insert("ops_per_s", ops_per_s);
        metrics.insert("read_p50_us", percentile(&reads.latencies, 50.0) / 1e3);
        metrics.insert("peak_rss_mb", rss);
    } else {
        let mut spans = WireSpans::default();
        spans.merge(&reads.spans);
        spans.merge(&writes.spans);
        let per_stmt = |ns: u64| ns as f64 / spans.statements.max(1) as f64 / 1e3;
        metrics.insert("net.wire_us_per_stmt", per_stmt(spans.wire_ns));
        metrics.insert("server.locks_us", per_stmt(spans.locks_ns));
        metrics.insert("rqs.parse_us", per_stmt(spans.parse_ns));
        metrics.insert("rqs.plan_us", per_stmt(spans.plan_ns));
        metrics.insert("rqs.exec_us", per_stmt(spans.exec_ns));
        metrics.insert("server.session_retries", retries as f64);
        metrics.insert(
            "server.write_p50_us",
            percentile(&writes.latencies, 50.0) / 1e3,
        );
        metrics.insert(
            "server.write_p95_us",
            percentile(&writes.latencies, 95.0) / 1e3,
        );
        let commits = hist_after.count() - hist_before.count();
        let commit_ns = hist_after.total_nanos - hist_before.total_nanos;
        metrics.insert(
            "rqs.commit_us",
            commit_ns as f64 / commits.max(1) as f64 / 1e3,
        );
        let mut commit_hist = hist_after;
        for (b, a) in commit_hist.buckets.iter_mut().zip(hist_before.buckets) {
            *b -= a;
        }
        metrics.insert(
            "storage.commit_p50_us",
            commit_hist.percentile(50.0) as f64 / 1e3,
        );
        let per_write = |n: u64| n as f64 / writes.latencies.len().max(1) as f64;
        metrics.insert("storage.wal_bytes", per_write(io["wal_bytes"]));
        metrics.insert(
            "storage.wal_bytes_per_raise",
            percentile(&writes.raise_wal_bytes, 50.0),
        );
        metrics.insert("storage.wal_fsyncs", per_write(io["wal_fsyncs"]));
        metrics.insert("storage.versions_kept", per_write(io["versions_kept"]));
        for (key, counter) in [
            ("storage.wal_checkpoints", "wal_checkpoints"),
            ("storage.lock_waits", "lock_waits"),
            ("storage.pool_shard_conflicts", "pool_shard_conflicts"),
            ("storage.btree_latch_waits", "btree_latch_waits"),
        ] {
            metrics.insert(key, io[counter] as f64);
        }
        crate::report_storage(&mut metrics, &io, ops);
        metrics.insert(
            "client.read_p90_us",
            percentile(&reads.latencies, 90.0) / 1e3,
        );
        metrics.insert(
            "client.read_p99_us",
            percentile(&reads.latencies, 99.0) / 1e3,
        );
        metrics.insert("trace.ops_per_s", ops_per_s);
    }
    Outcome {
        correct: checker.all_passed(),
        attempted: reads.attempted + writes.attempted,
        failed: reads.failed + writes.failed,
        metrics,
    }
}

fn wal_bytes(db: &SharedDatabase) -> u64 {
    db.metrics().expect("database is open").wal_bytes
}

fn teardown(state: State) {
    let State {
        dir,
        db,
        server,
        reader,
        writer_conn,
        ..
    } = state;
    drop((reader, writer_conn));
    server.stop();
    drop(db);
    drop(dir);
}

/// Crashes the database (no flush), reopens the file, and compares
/// every row with the firm plus a replay of the writer's log.
fn check_durable(state: State, checker: &mut Checker) {
    let State {
        dir,
        db,
        server,
        reader,
        writer_conn,
        writer,
        firm,
        ..
    } = state;
    drop((reader, writer_conn));
    server.stop();
    db.crash().expect("database is open");
    drop(db);

    let mut replay = writer.initial.clone();
    for txn in &writer.log {
        for op in txn {
            op.apply(&mut replay);
        }
    }
    checker.check(replay == writer.committed, || {
        "the writer's log does not replay to its own state".into()
    });
    let mut expected: BTreeSet<Vec<String>> = firm
        .employees
        .iter()
        .map(|e| {
            vec![
                e.eno.to_string(),
                e.nam.clone(),
                e.sal.to_string(),
                e.dno.to_string(),
            ]
        })
        .collect();
    expected.extend(replay.0.iter().map(|(eno, (nam, sal))| {
        vec![
            eno.to_string(),
            nam.clone(),
            sal.to_string(),
            WRITER_BASE.to_string(),
        ]
    }));

    let reopened = SharedDatabase::open(&dir.db_path(), POOL_FRAMES).expect("reopen after crash");
    let mut session = reopened.session();
    let rows = session
        .execute("SELECT v1.eno, v1.nam, v1.sal, v1.dno FROM empl v1")
        .expect("read back empl");
    let got: BTreeSet<Vec<String>> = rows
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|d| match d {
                    Datum::Int(i) => i.to_string(),
                    Datum::Text(s) => s.to_string(),
                })
                .collect()
        })
        .collect();
    checker.check(got == expected && rows.rows.len() == expected.len(), || {
        format!(
            "after crash and reopen: {} empl rows, {} expected ({} differ)",
            rows.rows.len(),
            expected.len(),
            got.symmetric_difference(&expected).count()
        )
    });
    drop(session);
    drop(reopened);
}
