//! One run of a workload: set up, warm up, the measured window, then the
//! correctness checks. One client thread sends each operation after the
//! previous one completed (a closed loop).

use crate::check::{Answer, Checker};
use crate::clock::{Elapsed, Stamp};
use crate::trace::{journal_nodes, Node, Trace};
use crate::workload::{tables_named, Op, Stream, Workload};
use datastore::obs::Counter;
use datastore::sample::{scaled_movie_database, ScaleConfig};
use datastore::Database;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use talkback::{ContentConfig, Talkback};

pub struct Settings {
    pub workload: Workload,
    pub scale: ScaleConfig,
    pub seed: u64,
    /// Length of the measured window; it also runs at least
    /// `workload.count_ops()` operations.
    pub seconds: f64,
    /// Trace every other operation of the window.
    pub trace: bool,
    /// Set up at least this many times and for at least `setup_seconds`,
    /// once before the run and once more after it, so the median set-up
    /// time spans the conditions of the whole run rather than its first
    /// seconds.
    pub setup_reps: usize,
    pub setup_seconds: f64,
    /// Rebuild the database every this many measured operations, once the
    /// count prefix is done (see `Workload::reset_ops`).
    pub reset_ops: Option<usize>,
}

/// Latencies of one group of operations (the untraced or the traced ones):
/// wall-clock, and the CPU time the process spent on them.
#[derive(Debug, Default)]
pub struct Samples {
    pub ask: Vec<Duration>,
    pub ask_cpu: Vec<Duration>,
    pub verify: Vec<Duration>,
    pub verify_cpu: Vec<Duration>,
    pub write: Vec<Duration>,
    pub validate: Vec<Duration>,
    pub narrate: Vec<Duration>,
    /// Time the client spent waiting on the engine.
    pub busy: Duration,
    /// CPU time the process spent on the operations.
    pub busy_cpu: Duration,
    pub ops: usize,
    /// Total wall latency and count per ask shape or operation kind.
    pub by_key: BTreeMap<&'static str, (Duration, usize)>,
}

impl Samples {
    fn add(&mut self, op: &Op, done: &Done) {
        let total = done.total.wall;
        self.ops += 1;
        self.busy += total;
        self.busy_cpu += done.total.cpu;
        let slot = self.by_key.entry(op.key()).or_default();
        slot.0 += total;
        slot.1 += 1;
        match op {
            Op::Ask { .. } => {
                self.ask.push(total);
                self.ask_cpu.push(done.total.cpu);
            }
            Op::Write(_) => self.write.push(total),
            Op::Validate { .. } => self.validate.push(total),
            Op::Narrate => self.narrate.push(total),
        }
        if let Some(v) = done.verify {
            self.verify.push(v.wall);
            self.verify_cpu.push(v.cpu);
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64()
    }

    /// Operations per second of the process's CPU time.
    pub fn ops_per_cpu_s(&self) -> f64 {
        self.ops as f64 / self.busy_cpu.as_secs_f64()
    }

    /// How much slower these operations ran than `base`, at the same mix:
    /// each shape's mean latency is weighted by its count on both sides, so
    /// an uneven split of a slow shape does not read as overhead.
    pub fn slowdown_vs(&self, base: &Samples) -> f64 {
        let (mut mine, mut theirs) = (0.0, 0.0);
        for (key, (sum, n)) in &self.by_key {
            if let Some((base_sum, base_n)) = base.by_key.get(key) {
                let weight = (n + base_n) as f64;
                mine += weight * sum.as_secs_f64() / *n as f64;
                theirs += weight * base_sum.as_secs_f64() / *base_n as f64;
            }
        }
        if theirs == 0.0 {
            0.0
        } else {
            mine / theirs - 1.0
        }
    }
}

/// Engine counters and epoch bumps at one point of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub counters: [u64; Counter::ALL.len()],
    pub epoch_bumps: u64,
    pub ops: u64,
    pub asks: u64,
}

impl Counts {
    fn now(db: &Database) -> Counts {
        Counts {
            counters: Counter::ALL.map(|c| db.obs().counter(c)),
            epoch_bumps: db.adaptive().epoch_cause_counts().iter().sum(),
            ops: 0,
            asks: 0,
        }
    }

    fn since(self, before: Counts) -> Counts {
        let mut counters = self.counters;
        for (c, b) in counters.iter_mut().zip(before.counters) {
            *c -= b;
        }
        Counts {
            counters,
            epoch_bumps: self.epoch_bumps - before.epoch_bumps,
            ops: self.ops,
            asks: self.asks,
        }
    }

    pub fn get(&self, counter: Counter) -> u64 {
        let i = Counter::ALL
            .iter()
            .position(|c| *c == counter)
            .expect("every counter is listed in Counter::ALL");
        self.counters[i]
    }
}

pub struct Run {
    /// Every set-up's time, before the run and after it.
    pub setup: Vec<Elapsed>,
    /// Peak resident memory up to the end of the checks.
    pub peak_rss_mb: Option<f64>,
    pub rows_start: BTreeMap<String, usize>,
    pub rows_end: BTreeMap<String, usize>,
    pub untraced: Samples,
    pub traced: Samples,
    pub trace: Trace,
    /// Counter deltas over the first `count_ops` measured operations.
    pub counts: Counts,
    /// Operations attempted in the measured window.
    pub attempted: usize,
    pub checker: Checker,
}

fn row_counts(db: &Database) -> BTreeMap<String, usize> {
    db.tables()
        .map(|t| (t.name().to_string(), t.len()))
        .collect()
}

/// Build the workload's database once, timing the set-up into `times`.
fn build(settings: &Settings, times: &mut Vec<Elapsed>) -> Talkback {
    let t = Stamp::now();
    let db = scaled_movie_database(settings.scale);
    db.analyze();
    let tb = Talkback::new(db);
    times.push(Stamp::now().since(t));
    tb
}

/// Build the workload's database `setup_reps` times and for at least
/// `setup_seconds`, timing each set-up into `times`; returns the last.
fn set_up(settings: &Settings, times: &mut Vec<Elapsed>) -> Talkback {
    let mut tb = None;
    let mut reps = 0;
    let start = Instant::now();
    while reps < settings.setup_reps || start.elapsed().as_secs_f64() < settings.setup_seconds {
        drop(tb.take());
        tb = Some(build(settings, times));
        reps += 1;
    }
    tb.expect("set up at least once")
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn run(settings: &Settings) -> Run {
    let mut setup = Vec::new();
    let mut tb = set_up(settings, &mut setup);

    let workload = settings.workload;
    let rows_start = row_counts(tb.database());
    let mut stream = Stream::new(workload, settings.seed, tb.database());
    let mut client = Client {
        checker: Checker::default(),
        config: ContentConfig::standard(),
        written: BTreeMap::new(),
        origin: Instant::now(),
    };

    for _ in 0..workload.warmup_ops() {
        let op = stream.next_op();
        client.execute(&mut tb, &op, false, false);
    }

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut trace = Trace::default();
    let before = Counts::now(tb.database());
    let mut counts = None;
    let mut asks = 0u64;
    let window = Instant::now();
    let mut attempted = 0usize;
    while attempted < workload.count_ops() || window.elapsed().as_secs_f64() < settings.seconds {
        let op = stream.next_op();
        let traced_op = settings.trace && attempted % 2 == 1;
        asks += u64::from(matches!(op, Op::Ask { .. }));
        if let Some(done) = client.execute(&mut tb, &op, true, traced_op) {
            if traced_op {
                traced.add(&op, &done);
            } else {
                untraced.add(&op, &done);
            }
            if let Some(node) = done.node {
                trace.push(node);
            }
        }
        attempted += 1;
        if attempted == workload.count_ops() {
            let mut c = Counts::now(tb.database()).since(before);
            c.ops = attempted as u64;
            c.asks = asks;
            counts = Some(c);
        }
        if attempted >= workload.count_ops()
            && settings
                .reset_ops
                .is_some_and(|n| attempted.is_multiple_of(n))
        {
            client.check_rows(&tb, &rows_start);
            drop(tb);
            tb = build(settings, &mut setup);
        }
    }

    let rows_end = row_counts(tb.database());
    client.check_rows(&tb, &rows_start);
    client.checker.compare_with_reference(&tb);
    let peak_rss_mb = peak_rss_mb();
    drop(tb);
    drop(set_up(settings, &mut setup));

    Run {
        setup,
        peak_rss_mb,
        rows_start,
        rows_end,
        untraced,
        traced,
        trace,
        counts: counts.expect("the window runs at least count_ops operations"),
        attempted,
        checker: client.checker,
    }
}

struct Done {
    total: Elapsed,
    /// Until the back-translation was ready (asks only).
    verify: Option<Elapsed>,
    node: Option<Node>,
}

struct Client {
    checker: Checker,
    config: ContentConfig,
    /// Rows inserted per table since the database was built.
    written: BTreeMap<&'static str, usize>,
    origin: Instant,
}

impl Client {
    /// Check that each table holds its start count plus the rows written
    /// since the database was built, and start counting writes afresh.
    fn check_rows(&mut self, tb: &Talkback, rows_start: &BTreeMap<String, usize>) {
        let rows = row_counts(tb.database());
        for (table, start) in rows_start {
            let expected = start + self.written.get(table.as_str()).copied().unwrap_or(0);
            let end = rows.get(table).copied().unwrap_or(0);
            if end != expected {
                self.checker.fail(
                    true,
                    format!("{table} holds {end} rows, expected {start} + writes = {expected}"),
                );
            }
        }
        self.written.clear();
    }

    /// Run one operation and check its outcome. A failed operation is
    /// recorded with the checker and returns `None`.
    fn execute(
        &mut self,
        tb: &mut Talkback,
        op: &Op,
        measured: bool,
        traced: bool,
    ) -> Option<Done> {
        let outcome = match op {
            Op::Ask { sql, .. } => self.ask(tb, sql, measured, traced),
            Op::Write(movie) => {
                let rows = movie.rows();
                let mut children = Vec::new();
                let t0 = Stamp::now();
                for (table, values) in rows {
                    let a = Instant::now();
                    let inserted = tb.database_mut().insert(table, values);
                    let b = Instant::now();
                    if let Err(e) = inserted {
                        self.checker
                            .fail(measured, format!("insert into {table}: {e}"));
                        return None;
                    }
                    *self.written.entry(table).or_default() += 1;
                    if traced {
                        children.push(Node::call("datastore.insert_us", self.origin, a, b));
                    }
                }
                let t1 = Stamp::now();
                Ok(self.done(op.label(), t0, t1, None, traced, children))
            }
            Op::Validate { title } => {
                let t0 = Stamp::now();
                let text = tb.describe_entity("MOVIES", title, &self.config);
                let t1 = Stamp::now();
                match text {
                    Ok(text) if text.contains(title.as_str()) => {
                        let child =
                            Node::call("content.describe_entity_us", self.origin, t0.wall, t1.wall);
                        Ok(self.done(op.label(), t0, t1, None, traced, vec![child]))
                    }
                    Ok(text) => Err(format!("narration of {title:?} does not name it: {text}")),
                    Err(e) => Err(format!("describe_entity({title:?}): {e}")),
                }
            }
            Op::Narrate => {
                let t0 = Stamp::now();
                let text = tb.describe_database(&self.config, None);
                let t1 = Stamp::now();
                match text {
                    Ok(text) if !text.trim().is_empty() => {
                        let child = Node::call(
                            "content.describe_database_us",
                            self.origin,
                            t0.wall,
                            t1.wall,
                        );
                        Ok(self.done(op.label(), t0, t1, None, traced, vec![child]))
                    }
                    Ok(_) => Err("describe_database returned an empty narration".to_string()),
                    Err(e) => Err(format!("describe_database: {e}")),
                }
            }
        };
        match outcome {
            Ok(done) => Some(done),
            Err(why) => {
                self.checker.fail(measured, why);
                None
            }
        }
    }

    fn done(
        &self,
        label: &'static str,
        t0: Stamp,
        t1: Stamp,
        verify: Option<Elapsed>,
        traced: bool,
        children: Vec<Node>,
    ) -> Done {
        let node = traced.then(|| {
            let mut root = Node::call("bench", self.origin, t0.wall, t1.wall);
            root.name = label.to_string();
            root.children = children;
            root
        });
        Done {
            total: t1.since(t0),
            verify,
            node,
        }
    }

    /// An ask: the back-translation the user checks, then the answer.
    /// Traced, the translation is made of its two public calls and the
    /// statement's tables have their statistics fetched first, so a
    /// recollection after a write gets its own span.
    fn ask(
        &mut self,
        tb: &Talkback,
        sql: &str,
        measured: bool,
        traced: bool,
    ) -> Result<Done, String> {
        let tables = if traced {
            tables_named(sql, tb.database())
        } else {
            Vec::new()
        };
        let t0 = Stamp::now();
        let (translation, t1, mut children) = if traced {
            let statement = sqlparse::parse_statement(sql).map_err(|e| format!("{e}: {sql}"))?;
            let tp = Instant::now();
            let sqlparse::ast::Statement::Select(select) = &statement else {
                return Err(format!("not a SELECT: {sql}"));
            };
            let translation = tb
                .queries()
                .translate_select(tb.database().catalog(), sql, select)
                .map_err(|e| format!("back-translation failed ({e}): {sql}"))?;
            let t1 = Stamp::now();
            let children = vec![
                Node::call("sqlparse.parse_us", self.origin, t0.wall, tp),
                Node::call("query.translate_us", self.origin, tp, t1.wall),
            ];
            (translation, t1, children)
        } else {
            let translation = tb
                .explain_query(sql)
                .map_err(|e| format!("back-translation failed ({e}): {sql}"))?;
            (translation, Stamp::now(), Vec::new())
        };
        for table in &tables {
            tb.database().table_stats(table);
        }
        let t2 = Instant::now();
        let result = tb
            .run_query(sql)
            .map_err(|e| format!("query failed ({e}): {sql}"))?;
        let t3 = Stamp::now();
        if traced {
            children.push(Node::call(
                "datastore.table_stats_us",
                self.origin,
                t1.wall,
                t2,
            ));
            let mut run = Node::call("obs.facade_other_us", self.origin, t2, t3.wall);
            run.name = "run_query".to_string();
            let entry = tb
                .database()
                .obs()
                .journal()
                .tail(Some(1))
                .pop()
                .filter(|e| e.sql == sql.trim())
                .ok_or_else(|| format!("no journal entry for: {sql}"))?;
            run.children = journal_nodes(&entry, t2 - self.origin);
            children.push(run);
        }
        if translation.best.trim().is_empty() {
            return Err(format!("empty back-translation: {sql}"));
        }
        self.checker
            .record_answer(sql, Answer::of(sql, &result), measured);
        Ok(self.done("ask", t0, t3, Some(t1.since(t0)), traced, children))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings(workload: Workload, seed: u64, trace: bool) -> Settings {
        Settings {
            workload,
            scale: ScaleConfig {
                movies: 40,
                directors: 8,
                actors: 24,
                ..ScaleConfig::default()
            },
            seed,
            seconds: 0.0,
            trace,
            setup_reps: 1,
            setup_seconds: 0.0,
            reset_ops: workload.reset_ops(),
        }
    }

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Run {
        run(&tiny_settings(workload, seed, trace))
    }

    fn answers(run: &Run) -> Vec<(String, Answer)> {
        run.checker
            .answers()
            .map(|(sql, a)| (sql.to_string(), a))
            .collect()
    }

    #[test]
    fn same_seed_repeats_answers_and_counts() {
        for workload in Workload::ALL {
            let a = tiny(workload, 11, true);
            let b = tiny(workload, 11, true);
            let name = workload.name();
            assert!(
                a.checker.failures().is_empty(),
                "{name}: {:?}",
                a.checker.failures()
            );
            assert_eq!(a.attempted, workload.count_ops(), "{name}");
            assert_eq!(answers(&a), answers(&b), "{name}");
            assert_eq!(a.checker.digest(), b.checker.digest(), "{name}");
            assert_eq!(a.counts, b.counts, "{name}");
            assert_eq!(a.rows_end, b.rows_end, "{name}");
        }
    }

    #[test]
    fn another_seed_changes_the_stream() {
        let a = tiny(Workload::Lookup, 1, false);
        let b = tiny(Workload::Lookup, 2, false);
        assert_ne!(answers(&a), answers(&b));
    }

    #[test]
    fn ingest_grows_each_written_table_by_its_writes() {
        let settings = Settings {
            reset_ops: None,
            ..tiny_settings(Workload::Ingest, 5, false)
        };
        let run = run(&settings);
        let movies = run.rows_end["MOVIES"] - run.rows_start["MOVIES"];
        let ops = Workload::Ingest.warmup_ops() + Workload::Ingest.count_ops();
        assert_eq!(movies, ops / 3);
        assert_eq!(run.rows_end["CAST"] - run.rows_start["CAST"], 3 * movies);
        assert_eq!(run.rows_end["GENRE"] - run.rows_start["GENRE"], 2 * movies);
        assert_eq!(run.rows_end["ACTOR"], run.rows_start["ACTOR"]);
    }

    #[test]
    fn ingest_checks_rows_and_rebuilds_the_database() {
        let settings = Settings {
            reset_ops: Some(30),
            ..tiny_settings(Workload::Ingest, 5, false)
        };
        let run = run(&settings);
        assert!(
            run.checker.failures().is_empty(),
            "{:?}",
            run.checker.failures()
        );
        // The run ends on a multiple of 30 operations, so on a fresh
        // database; the initial set-up and the rebuild were both timed.
        assert_eq!(run.rows_end, run.rows_start);
        assert_eq!(run.setup.len(), 1 + 1 + 1);
        assert_eq!(run.counts, tiny(Workload::Ingest, 5, false).counts);
    }

    #[test]
    fn traced_layers_add_up_to_the_traced_wall_time() {
        let run = tiny(Workload::Analytic, 3, true);
        assert_eq!(run.trace.ops(), Workload::Analytic.count_ops() / 2);
        let totals = run.trace.layer_totals();
        let layered: Duration = totals
            .iter()
            .filter(|(layer, _)| **layer != "bench")
            .map(|(_, d)| *d)
            .sum();
        let wall = run.trace.wall().as_secs_f64();
        assert!((layered.as_secs_f64() / wall - 1.0).abs() < 0.10);
        assert!(totals.contains_key("query.translate_us"));
        assert!(totals.keys().any(|l| l.starts_with("exec.self_ms.")));
    }
}
