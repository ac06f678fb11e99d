//! The A/B gate harness behind `cargo bench -p talkbench`.
//!
//! Every speed claim the engine makes is one row of the table in
//! `benches/ab.rs`. A row names its database and gives one or two sides
//! (A, optionally B) that run the same work. [`run_row`] runs a row in
//! three steps:
//!
//! 1. **Check.** Both sides run once and must return identical rows (in
//!    order, or as a multiset for rows whose sides may legitimately reorder),
//!    and the row's own check must hold (a plan shape, an advisor
//!    prescription, an enumeration cost).
//! 2. **Sample.** Alternating A/B samples (the side that goes first flips
//!    every pair), so scheduler drift hits both sides alike. Work faster than
//!    [`SAMPLE_TARGET`] is repeated within a sample, and the per-execution
//!    time is recorded. A side can read its sample from the engine instead
//!    of the wall clock ([`Side::timed_by`]).
//! 3. **Gate.** The ratio of the medians (A/B) is held against the row's
//!    bound by [`gate_loop`]: up to [`GATE_ATTEMPTS`] attempts with growing
//!    sample counts, failing only when every attempt misses.
//!
//! [`snapshot_json`] renders every row's p10/p50/p90, sample count, and
//! ratio, next to the commit and the core count, as one JSON document.

use datastore::Row;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum A/B pairs per attempt. Only a row whose slow side takes longer
/// than [`SLOW_SIDE`] may ask for fewer ([`AbRow::pairs`]).
pub const MIN_PAIRS: usize = 10;
/// A side slower than this per execution may run fewer than [`MIN_PAIRS`].
pub const SLOW_SIDE: Duration = Duration::from_secs(1);
/// Attempts a gated row gets; attempt `k` takes `k` times the row's pairs.
pub const GATE_ATTEMPTS: usize = 3;
/// Wall-clock work shorter than this is repeated within one sample.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(2);

/// A bound on a row's median ratio A/B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// A/B must be at least this (B is this many times faster).
    AtLeast(f64),
    /// A/B must be at most this (A costs at most this factor of B).
    AtMost(f64),
}

impl Gate {
    /// Does `ratio` satisfy the bound? A NaN ratio never does.
    pub fn holds(self, ratio: f64) -> bool {
        match self {
            Gate::AtLeast(bound) => ratio >= bound,
            Gate::AtMost(bound) => ratio <= bound,
        }
    }

    /// The bound as text ("A/B >= 5").
    pub fn describe(self) -> String {
        match self {
            Gate::AtLeast(bound) => format!("A/B >= {bound}"),
            Gate::AtMost(bound) => format!("A/B <= {bound}"),
        }
    }
}

/// Run `attempt(pairs × k)` for k = 1, 2, … until the ratio it returns
/// satisfies `gate`, at most [`GATE_ATTEMPTS`] times (once for an ungated
/// row). Returns the last ratio, the attempts taken, and whether the gate
/// held.
pub fn gate_loop(
    gate: Option<Gate>,
    pairs: usize,
    mut attempt: impl FnMut(usize) -> f64,
) -> (f64, usize, bool) {
    let attempts = if gate.is_some() { GATE_ATTEMPTS } else { 1 };
    let mut ratio = f64::NAN;
    for k in 1..=attempts {
        ratio = attempt(pairs * k);
        if gate.is_none_or(|g| g.holds(ratio)) {
            return (ratio, k, true);
        }
    }
    (ratio, attempts, false)
}

type Run<'a> = Box<dyn FnMut() -> Vec<Row> + 'a>;

/// One side of a row: a label and one execution of the work, returning the
/// result rows.
pub struct Side<'a> {
    pub label: String,
    run: Run<'a>,
    /// Reads one sample from the engine after each execution (instead of
    /// the wall clock).
    clock: Option<Box<dyn FnMut() -> Duration + 'a>>,
}

impl<'a> Side<'a> {
    /// A wall-clock timed side.
    pub fn new(label: impl Into<String>, run: impl FnMut() -> Vec<Row> + 'a) -> Side<'a> {
        Side {
            label: label.into(),
            run: Box::new(run),
            clock: None,
        }
    }

    /// Take each sample from `clock`, called right after each execution.
    pub fn timed_by(mut self, clock: impl FnMut() -> Duration + 'a) -> Side<'a> {
        self.clock = Some(Box::new(clock));
        self
    }

    /// Executions per sample, for work that took `once` one time: enough
    /// to fill [`SAMPLE_TARGET`] on the wall clock, one on an engine clock.
    fn iters_for(&self, once: Duration) -> u32 {
        if self.clock.is_some() {
            return 1;
        }
        let per = once.max(Duration::from_nanos(100));
        (SAMPLE_TARGET.as_nanos() / per.as_nanos()).clamp(1, 10_000) as u32
    }

    /// One sample: `iters` executions, timed per execution.
    fn sample(&mut self, iters: u32) -> Duration {
        if let Some(clock) = &mut self.clock {
            black_box((self.run)());
            return clock();
        }
        let start = Instant::now();
        for _ in 0..iters {
            black_box((self.run)());
        }
        start.elapsed() / iters
    }
}

/// How the check compares the two sides' rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Identical rows in identical order.
    InOrder,
    /// Identical rows as a multiset (no `ORDER BY`; join strategies may
    /// legitimately emit them in different orders).
    AnyOrder,
}

type Check<'a> = Box<dyn FnMut() -> Result<(), String> + 'a>;

/// One row of the A/B table.
pub struct AbRow<'a> {
    pub name: String,
    /// The database the work runs on ("movies x1000 + composite indexes").
    pub db: String,
    pub a: Side<'a>,
    pub b: Option<Side<'a>>,
    pub compare: Compare,
    check: Option<Check<'a>>,
    pub gate: Option<Gate>,
    pub pairs: usize,
}

impl<'a> AbRow<'a> {
    /// A single-side row: timed, checked, never compared.
    pub fn new(name: impl Into<String>, db: impl Into<String>, a: Side<'a>) -> AbRow<'a> {
        AbRow {
            name: name.into(),
            db: db.into(),
            a,
            b: None,
            compare: Compare::InOrder,
            check: None,
            gate: None,
            pairs: MIN_PAIRS,
        }
    }

    /// Add side B, whose rows must equal side A's in order.
    pub fn vs(mut self, b: Side<'a>) -> AbRow<'a> {
        self.b = Some(b);
        self
    }

    /// Compare the two sides' rows as multisets.
    pub fn any_order(mut self) -> AbRow<'a> {
        self.compare = Compare::AnyOrder;
        self
    }

    /// An extra check that must hold before anything is timed.
    pub fn check(mut self, check: impl FnMut() -> Result<(), String> + 'a) -> AbRow<'a> {
        self.check = Some(Box::new(check));
        self
    }

    /// Hold the median ratio A/B to `gate`.
    pub fn gate(mut self, gate: Gate) -> AbRow<'a> {
        self.gate = Some(gate);
        self
    }

    /// Pairs per attempt. Below [`MIN_PAIRS`] only counts when the slow side
    /// takes longer than [`SLOW_SIDE`]; otherwise the floor applies.
    pub fn pairs(mut self, pairs: usize) -> AbRow<'a> {
        self.pairs = pairs.max(1);
        self
    }
}

/// Nearest-rank percentiles of one side's samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spread {
    pub p10: Duration,
    pub p50: Duration,
    pub p90: Duration,
}

impl Spread {
    /// Percentiles of a non-empty sample set.
    pub fn of(samples: &mut [Duration]) -> Spread {
        samples.sort();
        let at = |p: usize| samples[((samples.len() - 1) * p + 50) / 100];
        Spread {
            p10: at(10),
            p50: at(50),
            p90: at(90),
        }
    }
}

/// One side's measured outcome.
#[derive(Debug, Clone)]
pub struct SideResult {
    pub label: String,
    pub spread: Spread,
    /// Executions per sample.
    pub iters: u32,
}

/// One row's outcome.
#[derive(Debug, Clone)]
pub struct RowResult {
    pub name: String,
    pub db: String,
    pub a: Option<SideResult>,
    pub b: Option<SideResult>,
    /// Samples per side in the last attempt.
    pub samples: usize,
    /// Median ratio A/B (NaN for a single-side row).
    pub ratio: f64,
    pub gate: Option<Gate>,
    pub attempts: usize,
    /// Why the row failed (check or gate), if it did.
    pub failure: Option<String>,
}

fn rows_equal(a: &[Row], b: &[Row], compare: Compare) -> bool {
    match compare {
        Compare::InOrder => a == b,
        Compare::AnyOrder => {
            let sorted = |rows: &[Row]| {
                let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
                keys.sort();
                keys
            };
            a.len() == b.len() && sorted(a) == sorted(b)
        }
    }
}

/// One timed execution of a side, with its rows.
fn run_once(side: &mut Side) -> (Duration, Vec<Row>) {
    let start = Instant::now();
    let rows = (side.run)();
    (start.elapsed(), rows)
}

/// Check, sample, and gate one row.
pub fn run_row(row: &mut AbRow) -> RowResult {
    let mut result = RowResult {
        name: row.name.clone(),
        db: row.db.clone(),
        a: None,
        b: None,
        samples: 0,
        ratio: f64::NAN,
        gate: row.gate,
        attempts: 0,
        failure: None,
    };
    let (a_once, a_rows) = run_once(&mut row.a);
    let mut slow = a_once;
    let mut b_iters = 1;
    if let Some(b) = &mut row.b {
        let (b_once, b_rows) = run_once(b);
        if !rows_equal(&a_rows, &b_rows, row.compare) {
            result.failure = Some(format!(
                "{} and {} returned different rows ({} vs {})",
                row.a.label,
                b.label,
                a_rows.len(),
                b_rows.len()
            ));
            return result;
        }
        slow = slow.max(b_once);
        b_iters = b.iters_for(b_once);
    }
    if let Some(check) = &mut row.check {
        if let Err(why) = check() {
            result.failure = Some(why);
            return result;
        }
    }
    let a_iters = row.a.iters_for(a_once);
    let pairs = if slow > SLOW_SIDE {
        row.pairs
    } else {
        row.pairs.max(MIN_PAIRS)
    };
    let (a, b) = (&mut row.a, &mut row.b);
    let mut spreads = (None, None);
    let (ratio, attempts, held) = gate_loop(row.gate, pairs, |n| {
        let mut a_samples = Vec::with_capacity(n);
        let mut b_samples = Vec::with_capacity(n);
        for i in 0..n {
            if i % 2 == 1 {
                if let Some(b) = b.as_mut() {
                    b_samples.push(b.sample(b_iters));
                }
            }
            a_samples.push(a.sample(a_iters));
            if i % 2 == 0 {
                if let Some(b) = b.as_mut() {
                    b_samples.push(b.sample(b_iters));
                }
            }
        }
        let a_spread = Spread::of(&mut a_samples);
        let b_spread = (!b_samples.is_empty()).then(|| Spread::of(&mut b_samples));
        spreads = (Some(a_spread), b_spread);
        match b_spread {
            Some(b) => a_spread.p50.as_secs_f64() / b.p50.as_secs_f64().max(1e-12),
            None => f64::NAN,
        }
    });
    result.samples = pairs * attempts;
    result.ratio = ratio;
    result.attempts = attempts;
    result.a = spreads.0.map(|spread| SideResult {
        label: row.a.label.clone(),
        spread,
        iters: a_iters,
    });
    result.b = spreads.1.zip(row.b.as_ref()).map(|(spread, b)| SideResult {
        label: b.label.clone(),
        spread,
        iters: b_iters,
    });
    if !held {
        let gate = row.gate.expect("only a gated row can fail its gate");
        result.failure = Some(format!(
            "ratio {ratio:.3} misses {} after {attempts} attempts",
            gate.describe()
        ));
    }
    result
}

/// A duration at the precision a p10/p50/p90 column needs.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    match ns {
        0..=999 => format!("{ns} ns"),
        1_000..=999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

fn fmt_side(side: &Option<SideResult>) -> String {
    match side {
        Some(s) => format!(
            "{:<15} {:>9} {:>9} {:>9}",
            s.label,
            fmt_duration(s.spread.p10),
            fmt_duration(s.spread.p50),
            fmt_duration(s.spread.p90)
        ),
        None => String::new(),
    }
}

/// One human-readable line per row: each side's p10/p50/p90, the ratio,
/// the sample count, and the verdict.
pub fn print_row(r: &RowResult) {
    let ratio = if r.ratio.is_nan() {
        String::new()
    } else {
        format!("A/B {:>8.3}", r.ratio)
    };
    let verdict = match (&r.failure, r.gate) {
        (Some(why), _) => format!("FAIL: {why}"),
        (None, Some(g)) => format!("ok ({})", g.describe()),
        (None, None) => String::new(),
    };
    println!(
        "{:<40} {}  {}  {ratio}  n={}  {verdict}",
        r.name,
        fmt_side(&r.a),
        fmt_side(&r.b),
        r.samples
    );
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

fn json_side(side: &Option<SideResult>) -> String {
    match side {
        Some(s) => format!(
            "{{\"label\": {}, \"p10_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"iters\": {}}}",
            json_str(&s.label),
            s.spread.p10.as_nanos(),
            s.spread.p50.as_nanos(),
            s.spread.p90.as_nanos(),
            s.iters
        ),
        None => "null".to_string(),
    }
}

/// The snapshot document: commit, core count, and every row.
pub fn snapshot_json(commit: &str, nproc: usize, rows: &[RowResult]) -> String {
    let mut out = format!(
        "{{\n  \"commit\": {},\n  \"nproc\": {nproc},\n  \"rows\": [\n",
        json_str(commit)
    );
    for (i, r) in rows.iter().enumerate() {
        let gate = r
            .gate
            .map_or("null".to_string(), |g| json_str(&g.describe()));
        let failure = r.failure.as_deref().map_or("null".to_string(), json_str);
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"db\": {}, \"a\": {}, \"b\": {}, \"samples\": {}, \
             \"ratio\": {}, \"gate\": {gate}, \"attempts\": {}, \"pass\": {}, \
             \"failure\": {failure}}}{}",
            json_str(&r.name),
            json_str(&r.db),
            json_side(&r.a),
            json_side(&r.b),
            r.samples,
            json_num(r.ratio),
            r.attempts,
            r.failure.is_none(),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::PAPER_QUERIES;
    use datastore::Value;

    #[test]
    fn all_paper_queries_parse() {
        for (id, sql) in PAPER_QUERIES {
            assert!(sqlparse::parse_query(sql).is_ok(), "{id} should parse");
        }
        assert_eq!(PAPER_QUERIES.len(), 9);
    }

    #[test]
    fn gate_loop_fails_below_the_bound_and_passes_at_or_above_it() {
        // Below the bound on every attempt: three attempts, with growing
        // sample counts, then a failure.
        let mut asked = Vec::new();
        let (ratio, attempts, held) = gate_loop(Some(Gate::AtLeast(5.0)), 10, |n| {
            asked.push(n);
            4.99
        });
        assert!(!held);
        assert_eq!((ratio, attempts), (4.99, GATE_ATTEMPTS));
        assert_eq!(asked, [10, 20, 30]);
        // Exactly at the bound passes on the first attempt.
        assert_eq!(
            gate_loop(Some(Gate::AtLeast(5.0)), 10, |_| 5.0),
            (5.0, 1, true)
        );
        // A noisy first attempt is forgiven by a later one.
        let mut ratios = [0.9, 10.0].into_iter();
        assert_eq!(
            gate_loop(Some(Gate::AtLeast(2.0)), 10, |_| ratios.next().unwrap()),
            (10.0, 2, true)
        );
        // Upper bounds, and NaN never satisfies either kind.
        assert!(gate_loop(Some(Gate::AtMost(1.05)), 10, |_| 1.05).2);
        assert!(!gate_loop(Some(Gate::AtMost(1.05)), 10, |_| 1.06).2);
        assert!(!gate_loop(Some(Gate::AtLeast(2.0)), 10, |_| f64::NAN).2);
        // An ungated row takes one attempt and always holds.
        assert_eq!(gate_loop(None, 10, |_| 0.1), (0.1, 1, true));
    }

    #[test]
    fn run_row_fails_a_gate_the_sides_cannot_meet() {
        // Identical work on both sides measures a ratio near 1, far below a
        // 5× bound: the row must fail after every attempt.
        let work = || vec![Row::new(vec![Value::int(1)])];
        let mut row = AbRow::new("same", "none", Side::new("a", work))
            .vs(Side::new("b", work))
            .gate(Gate::AtLeast(5.0));
        let r = run_row(&mut row);
        assert_eq!(r.attempts, GATE_ATTEMPTS);
        assert_eq!(r.samples, MIN_PAIRS * GATE_ATTEMPTS);
        assert!(r.failure.is_some_and(|f| f.contains("A/B >= 5")));
    }

    #[test]
    fn run_row_refuses_sides_with_different_rows() {
        let mut row = AbRow::new("diff", "none", Side::new("a", || vec![Row::empty()]))
            .vs(Side::new("b", Vec::new));
        let r = run_row(&mut row);
        assert_eq!(r.samples, 0, "nothing is timed after a failed check");
        assert!(r.failure.is_some_and(|f| f.contains("different rows")));
        // As multisets, reordered rows match; in order, they do not.
        let (x, y) = (Row::new(vec![Value::int(1)]), Row::new(vec![Value::int(2)]));
        let ab = [x.clone(), y.clone()];
        let ba = [y, x];
        assert!(rows_equal(&ab, &ba, Compare::AnyOrder));
        assert!(!rows_equal(&ab, &ba, Compare::InOrder));
    }

    #[test]
    fn engine_clocks_and_slow_sides_set_the_sample_plan() {
        let mut ticks = 0u64;
        let mut row = AbRow::new("clocked", "none", Side::new("a", Vec::new))
            .vs(Side::new("b", Vec::new).timed_by(|| {
                ticks += 1;
                Duration::from_micros(ticks)
            }))
            .pairs(3);
        let r = run_row(&mut row);
        // Fast sides cannot lower the floor.
        assert_eq!(r.samples, MIN_PAIRS);
        let b = r.b.expect("side B measured");
        assert_eq!(b.iters, 1, "engine-clocked samples are one execution");
        assert_eq!(b.spread.p50, Duration::from_micros(6));
        assert!(r.failure.is_none());
    }

    #[test]
    fn durations_print_at_column_precision() {
        assert_eq!(fmt_duration(Duration::from_nanos(640)), "640 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(6_400)), "6.4 µs");
        assert_eq!(fmt_duration(Duration::from_micros(6_400)), "6.40 ms");
        assert_eq!(fmt_duration(Duration::from_millis(11_540)), "11.54 s");
    }

    #[test]
    fn spread_uses_nearest_rank_percentiles() {
        let mut samples: Vec<Duration> = (1..=11).rev().map(Duration::from_millis).collect();
        let s = Spread::of(&mut samples);
        assert_eq!(s.p10, Duration::from_millis(2));
        assert_eq!(s.p50, Duration::from_millis(6));
        assert_eq!(s.p90, Duration::from_millis(10));
    }

    #[test]
    fn snapshot_records_commit_nproc_and_rows() {
        let row = RowResult {
            name: "q\"1".into(),
            db: "x100".into(),
            a: Some(SideResult {
                label: "scan".into(),
                spread: Spread {
                    p10: Duration::from_nanos(1),
                    p50: Duration::from_nanos(2),
                    p90: Duration::from_nanos(3),
                },
                iters: 4,
            }),
            b: None,
            samples: 10,
            ratio: f64::NAN,
            gate: Some(Gate::AtMost(1.05)),
            attempts: 1,
            failure: None,
        };
        let json = snapshot_json("abc123", 2, &[row]);
        assert!(json.contains("\"commit\": \"abc123\""));
        assert!(json.contains("\"nproc\": 2"));
        assert!(json.contains("\"name\": \"q\\\"1\""));
        assert!(json.contains("\"p50_ns\": 2"));
        assert!(json.contains("\"ratio\": null"));
        assert!(json.contains("\"gate\": \"A/B <= 1.05\""));
        assert!(json.contains("\"pass\": true"));
    }
}
