//! The A/B table: every pair the engine's speed claims rest on, and every
//! gate that holds a claim to its bound, run by `cargo bench -p talkbench`.
//!
//! Side A is the baseline and side B the improvement, so the ratio A/B reads
//! as B's speed-up; the observability row is the exception (A is the
//! instrumented engine, and its cost over B is bounded from above). Gates:
//!
//! * observability on/off on Q1–Q9: A/B ≤ 1.05;
//! * plan cache, parse + plan time per statement (journal spans): ≥ 5×;
//! * feedback-corrected plan: ≥ 2×, with an index scan the first plan lacks;
//! * advisor: top prescription `CAST (aid, mid)` with what-if cost under
//!   0.8 × base, and building it ≥ 10× faster on the evidence query;
//! * top-k: `ORDER BY … LIMIT` under 4 workers is a top-k exchange with no
//!   full sort, at ×100 and ×1000;
//! * join enumeration: the DP order is estimated no worse than greedy on
//!   Q1–Q9.
//!
//! The snapshot goes to `BENCH_ab.json` at the workspace root, or to the
//! path in `BENCH_JSON`. The process exits non-zero when any row check or
//! gate fails.

use datastore::exec::{execute, execute_with_stats, ColumnInfo, GatherMode, Plan, PlanNode};
use datastore::expr::{CmpOp, Expr};
use datastore::obs::doctor::mine;
use datastore::sample::{scaled_movie_database, ScaleConfig, PAPER_QUERIES};
use datastore::{ColumnDef, DataType, Database, IndexDef, IndexKind, Row, TableSchema, Value};
use sqlparse::parse_query;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use talkback::planner::cost::{choose_join_order_greedy, choose_join_order_hinted, Estimator};
use talkback::planner::logical::build_join_graph;
use talkback::{plan_query_with, recommendations, PlannerOptions, Talkback};
use talkback_bench::{print_row, run_row, snapshot_json, AbRow, Gate, Side};

/// Secondary indexes a scaled movie database is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Setup {
    Plain,
    /// Ordered MOVIES(year) and CAST(aid): the index access paths.
    YearAid,
    /// Composite CAST(mid, aid) and MOVIES(year, id): access-path depth.
    Composite,
}

/// A fresh ×`scale` movie database (10·scale movies, 30·scale credits,
/// 6·scale actors) with `setup`'s indexes, analyzed.
fn build_movies(scale: usize, setup: Setup) -> Database {
    let mut db = scaled_movie_database(ScaleConfig {
        movies: 10 * scale,
        actors: 6 * scale,
        directors: 2 * scale,
        ..ScaleConfig::default()
    });
    let indexes: &[(&str, &str, &[&str])] = match setup {
        Setup::Plain => &[],
        Setup::YearAid => &[
            ("idx_movies_year", "MOVIES", &["year"]),
            ("idx_cast_aid", "CAST", &["aid"]),
        ],
        Setup::Composite => &[
            ("c_cast_mid_aid", "CAST", &["mid", "aid"]),
            ("c_movies_year_id", "MOVIES", &["year", "id"]),
        ],
    };
    for (name, table, columns) in indexes {
        db.create_index(IndexDef {
            name: name.to_string(),
            table: table.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            kind: IndexKind::Ordered,
        })
        .expect("bench index builds");
    }
    db.analyze();
    db
}

/// [`build_movies`], built once per (scale, setup) and shared by every row
/// that only reads it.
fn movies(scale: usize, setup: Setup) -> &'static Database {
    thread_local! {
        static BUILT: std::cell::RefCell<HashMap<(usize, Setup), &'static Database>> =
            Default::default();
    }
    BUILT.with_borrow_mut(|built| {
        *built
            .entry((scale, setup))
            .or_insert_with(|| leak(build_movies(scale, setup)))
    })
}

fn db_label(scale: usize, setup: Setup) -> String {
    match setup {
        Setup::Plain => format!("movies x{scale}"),
        Setup::YearAid => format!("movies x{scale} + year, aid indexes"),
        Setup::Composite => format!("movies x{scale} + composite indexes"),
    }
}

/// Keep a gate system alive for the whole run.
fn leak<T>(value: T) -> &'static T {
    Box::leak(Box::new(value))
}

fn run(db: &Database, plan: &Plan) -> Vec<Row> {
    execute(db, plan).expect("bench plan executes").rows
}

/// True when any operator in the plan satisfies `pred`.
fn any_node(plan: &Plan, pred: &dyn Fn(&PlanNode) -> bool) -> bool {
    if pred(&plan.node) {
        return true;
    }
    match &plan.node {
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::Exchange { input, .. }
        | PlanNode::IndexNestedLoopJoin { left: input, .. } => any_node(input, pred),
        PlanNode::NestedLoopJoin { left, right, .. }
        | PlanNode::HashJoin { left, right, .. }
        | PlanNode::HashSemiJoin { left, right, .. }
        | PlanNode::HashAntiJoin { left, right, .. }
        | PlanNode::ScalarSubquery {
            input: left,
            subplan: right,
            ..
        }
        | PlanNode::Apply {
            input: left,
            subplan: right,
            ..
        } => any_node(left, pred) || any_node(right, pred),
        PlanNode::Scan { .. } | PlanNode::IndexScan { .. } | PlanNode::Values { .. } => false,
    }
}

// ------------------------------------------------------------- SQL rows --

fn plan(db: &Database, sql: &str, options: PlannerOptions) -> Plan {
    let query = parse_query(sql).expect("bench query parses");
    plan_query_with(db, &query, options)
        .expect("bench query plans")
        .plan
}

/// A row that plans `sql` under each side's options on the ×`scale`
/// database and times the two plans.
fn plans(
    name: &str,
    scale: usize,
    setup: Setup,
    sql: &str,
    (a_label, a): (&str, PlannerOptions),
    (b_label, b): (&str, PlannerOptions),
) -> AbRow<'static> {
    let db = movies(scale, setup);
    let (a, b) = (plan(db, sql, a), plan(db, sql, b));
    AbRow::new(
        format!("{name}_x{scale}"),
        db_label(scale, setup),
        Side::new(a_label, move || run(db, &a)),
    )
    .vs(Side::new(b_label, move || run(db, &b)))
}

fn parallel(workers: usize, decorrelate: bool) -> PlannerOptions {
    PlannerOptions {
        parallelism: workers,
        // Forced, so the ×100 database parallelizes too.
        parallel_row_threshold: 0.0,
        decorrelate_subqueries: decorrelate,
        ..PlannerOptions::default()
    }
}

fn indexes(on: bool) -> PlannerOptions {
    PlannerOptions {
        use_indexes: on,
        ..PlannerOptions::sequential()
    }
}

fn vectorized(on: bool, workers: usize) -> PlannerOptions {
    PlannerOptions {
        use_vectorized: on,
        ..parallel(workers, true)
    }
}

/// ORDER BY … LIMIT under 4 workers: a bounded top-k exchange, never a
/// materializing sort.
fn top_k_shape(plan: &Plan) -> Result<(), String> {
    let sort = any_node(plan, &|n| matches!(n, PlanNode::Sort { .. }));
    let top_k = any_node(plan, &|n| {
        matches!(
            n,
            PlanNode::Exchange {
                gather: GatherMode::TopK { .. },
                ..
            }
        )
    });
    if sort || !top_k {
        return Err(format!(
            "ORDER BY … LIMIT must push down as top-k (full sort: {sort}, top-k exchange: {top_k})"
        ));
    }
    Ok(())
}

/// The planner-option pairs: one statement, two sets of options.
fn sql_rows() -> Vec<AbRow<'static>> {
    use Setup::*;
    let from_order = (
        "from_order",
        PlannerOptions {
            reorder_joins: false,
            ..PlannerOptions::default()
        },
    );
    let optimized = ("optimized", PlannerOptions::default());
    let apply = (
        "apply",
        PlannerOptions {
            decorrelate_subqueries: false,
            ..PlannerOptions::default()
        },
    );
    let decorrelated = |label| (label, PlannerOptions::default());
    // Without ORDER BY, join strategies may emit the rows in any order.
    let mut rows = vec![
        plans(
            "join_order_filtered_3way",
            100,
            Plain,
            "select m.title from MOVIES m, ACTOR a, CAST c \
             where m.id = c.mid and c.aid = a.id and a.name = 'Alex Smith #1'",
            from_order,
            optimized,
        )
        .any_order(),
        plans(
            "join_order_unfiltered_3way",
            100,
            Plain,
            "select m.title from MOVIES m, ACTOR a, CAST c where m.id = c.mid and c.aid = a.id",
            from_order,
            optimized,
        )
        .any_order(),
        plans(
            "subqueries_exists",
            100,
            Plain,
            "select m.title from MOVIES m where exists (select * from CAST c where c.mid = m.id)",
            apply,
            decorrelated("semi_join"),
        )
        .any_order(),
        plans(
            "subqueries_not_in",
            100,
            Plain,
            "select m.title from MOVIES m where m.id not in (select c.mid from CAST c)",
            apply,
            decorrelated("anti_join"),
        )
        .any_order(),
    ];
    let (scan, index) = (("scan", indexes(false)), ("index", indexes(true)));
    let workers = |n, decorrelate| {
        let label = if n == 1 { "workers/1" } else { "workers/4" };
        (label, parallel(n, decorrelate))
    };
    for scale in [100, 1000] {
        let mid = 5 * scale;
        // One actor's movies: a one-row outer side probes idx_cast_aid and
        // pk_movies instead of hash-building both.
        let actor = movies(scale, YearAid)
            .table("ACTOR")
            .expect("ACTOR exists")
            .rows()[0]
            .get(1)
            .expect("name column")
            .to_string();
        rows.extend([
            // Morsel parallelism, identical rows in order.
            plans(
                "parallel_scan",
                scale,
                Plain,
                "select m.title from MOVIES m where m.id > 0",
                workers(1, true),
                workers(4, true),
            ),
            plans(
                "parallel_join3",
                scale,
                Plain,
                "select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id",
                workers(1, true),
                workers(4, true),
            ),
            plans(
                "parallel_apply",
                scale,
                Plain,
                "select m.title from MOVIES m where m.id <= 300 and exists \
                 (select * from CAST c where c.mid = m.id)",
                workers(1, false),
                workers(4, false),
            ),
            // Index access paths vs. full scans.
            plans(
                "indexes_point",
                scale,
                YearAid,
                &format!("select m.title from MOVIES m where m.id = {mid}"),
                scan,
                index,
            ),
            plans(
                "indexes_range",
                scale,
                YearAid,
                "select m.title from MOVIES m where m.year >= 2023",
                scan,
                index,
            ),
            plans(
                "indexes_inlj",
                scale,
                YearAid,
                &format!(
                    "select m.title from ACTOR a, CAST c, MOVIES m \
                     where a.name = '{actor}' and c.aid = a.id and m.id = c.mid"
                ),
                scan,
                index,
            ),
            // Access-path depth: parameterized probes under Apply (at x1000
            // the scan side runs ~10 s per execution), composite and
            // index-only scans.
            plans(
                "access_apply_q6",
                scale,
                Composite,
                PAPER_QUERIES[5].1,
                scan,
                index,
            )
            .pairs(3),
            plans(
                "access_composite_point",
                scale,
                Composite,
                &format!(
                    "select c.role from CAST c where c.mid = {mid} and c.aid = \
                     (select min(c2.aid) from CAST c2 where c2.mid = {mid})"
                ),
                scan,
                index,
            ),
            plans(
                "access_composite_prefix",
                scale,
                Composite,
                &format!("select c.role from CAST c where c.mid = {mid}"),
                scan,
                index,
            ),
            plans(
                "access_index_only",
                scale,
                Composite,
                "select m.year, m.id from MOVIES m where m.year >= 2020 order by m.year",
                scan,
                index,
            ),
        ]);
        // Vectorized kernels: row vs. vec on one worker, then vec on one
        // vs. four workers (partial-agg / merge-sort / top-k gathers).
        for (name, sql) in [
            (
                "agg",
                "select m.year, count(*), sum(m.id), min(m.id), max(m.id) \
                 from MOVIES m group by m.year",
            ),
            (
                "sort",
                "select m.id, m.title, m.year from MOVIES m order by m.year, m.id",
            ),
            (
                "topk",
                "select m.id, m.title, m.year from MOVIES m order by m.year, m.id limit 10",
            ),
        ] {
            let (row, vec1, vec4) = (
                ("row/1", vectorized(false, 1)),
                ("vec/1", vectorized(true, 1)),
                ("vec/4", vectorized(true, 4)),
            );
            rows.push(plans(
                &format!("vectorized_{name}_vec1"),
                scale,
                Plain,
                sql,
                row,
                vec1,
            ));
            let pair = plans(
                &format!("vectorized_{name}_vec4"),
                scale,
                Plain,
                sql,
                vec1,
                vec4,
            );
            rows.push(if name == "topk" {
                let shape = top_k_shape(&plan(movies(scale, Plain), sql, vec4.1));
                pair.check(move || shape.clone())
            } else {
                pair
            });
        }
    }
    rows
}

// ------------------------------------------------------ hand-built joins --

/// Hash joins vs. the nested-loop and cross-product strategies the planner
/// replaced, on the ×100 database.
fn join_rows() -> Vec<AbRow<'static>> {
    let db = movies(100, Setup::Plain);
    let scan = |table: &str, alias: &str| Plan::scan(table, alias);
    let title = || {
        (
            vec![Expr::Column(1)],
            vec![ColumnInfo::qualified("m", "title")],
        )
    };
    let hash_3way = plan(
        db,
        "select m.title from MOVIES m, CAST c, ACTOR a \
         where m.id = c.mid and c.aid = a.id and a.name = 'Alex Smith #1'",
        PlannerOptions::default(),
    );
    // Nested loops with per-pair join predicates. Joined row layout:
    // m.id=0 m.title=1 m.year=2 c.mid=3 c.aid=4 c.role=5 a.id=6 a.name=7.
    let (exprs, columns) = title();
    let nested_3way = Plan::nested_loop_join(
        Plan::nested_loop_join(
            scan("MOVIES", "m"),
            scan("CAST", "c"),
            Some(Expr::col_eq(0, 3)),
        ),
        scan("ACTOR", "a"),
        Some(Expr::col_eq(4, 6)),
    )
    .filter(Expr::col_cmp_value(
        7,
        CmpOp::Eq,
        Value::text("Alex Smith #1"),
    ))
    .project(exprs, columns);
    let (exprs, columns) = title();
    let cross_2way = Plan::nested_loop_join(scan("MOVIES", "m"), scan("CAST", "c"), None)
        .filter(Expr::col_eq(0, 3))
        .project(exprs, columns);
    let (exprs, columns) = title();
    let hash_2way = Plan::hash_join(scan("MOVIES", "m"), scan("CAST", "c"), vec![0], vec![0])
        .project(exprs, columns);
    let label = db_label(100, Setup::Plain);
    // The baselines take about a second per execution.
    vec![
        AbRow::new(
            "joins_3way_x100",
            label.clone(),
            Side::new("nested_loop", move || run(db, &nested_3way)),
        )
        .vs(Side::new("hash_planner", move || run(db, &hash_3way)))
        .any_order()
        .pairs(5),
        AbRow::new(
            "joins_2way_x100",
            label,
            Side::new("cross_product", move || run(db, &cross_2way)),
        )
        .vs(Side::new("hash", move || run(db, &hash_2way)))
        .any_order()
        .pairs(5),
    ]
}

// ---------------------------------------------------------- enumeration --

/// Join enumeration on Q1–Q9's join graphs at ×100: the DP over connected
/// subsets vs. the greedy walk, timed, and the DP's chosen order must be
/// estimated no worse than the greedy one.
fn enumeration_rows() -> Vec<AbRow<'static>> {
    let db = movies(100, Setup::Composite);
    PAPER_QUERIES
        .iter()
        .map(|(id, sql)| {
            let query = parse_query(sql).expect("paper query parses");
            let bound = sqlparse::bind_query(db.catalog(), &query).expect("paper query binds");
            let graph = leak(build_join_graph(db, &query, &bound));
            AbRow::new(
                format!("enumerate_{id}_x100"),
                db_label(100, Setup::Composite),
                Side::new("dp", move || {
                    choose_join_order_hinted(graph, &Estimator::new(db), true, &[]);
                    Vec::new()
                }),
            )
            .vs(Side::new("greedy", move || {
                choose_join_order_greedy(graph, &Estimator::new(db), true);
                Vec::new()
            }))
            .check(move || {
                let estimator = Estimator::new(db);
                let (dp, _) = choose_join_order_hinted(graph, &estimator, true, &[]);
                let (greedy, _) = choose_join_order_greedy(graph, &estimator, true);
                if dp.cost() <= greedy.cost() {
                    Ok(())
                } else {
                    Err(format!(
                        "DP order estimated worse than greedy: {} > {}",
                        dp.cost(),
                        greedy.cost()
                    ))
                }
            })
        })
        .collect()
}

// ------------------------------------------------------- observability --

/// Q1–Q9 through the full statement path with the metrics registry on vs.
/// off, on the default (×10) movie database.
fn observability_rows() -> Vec<AbRow<'static>> {
    let system = || leak(Talkback::new(scaled_movie_database(ScaleConfig::default())));
    let (on, off) = (system(), system());
    off.database().obs().set_enabled(false);
    let suite = |system: &Talkback| -> Vec<Row> {
        PAPER_QUERIES
            .iter()
            .flat_map(|(id, sql)| {
                system
                    .run_query(sql)
                    .unwrap_or_else(|e| panic!("{id} should execute: {e:?}"))
                    .rows
            })
            .collect()
    };
    for _ in 0..2 {
        suite(on);
        suite(off);
    }
    vec![AbRow::new(
        "observability_q1_q9",
        "movies x10",
        Side::new("on", move || suite(on)),
    )
    .vs(Side::new("off", move || suite(off)))
    .gate(Gate::AtMost(1.05))
    .pairs(11)]
}

// ------------------------------------------------------------ adaptive --

fn cache_options(on: bool) -> PlannerOptions {
    PlannerOptions {
        use_plan_cache: on,
        ..PlannerOptions::sequential()
    }
}

/// A side running point lookups with a fresh literal each time.
fn lookups(label: &'static str, system: &'static Talkback, cache: bool) -> Side<'static> {
    let mut i = 0usize;
    Side::new(label, move || {
        i += 1;
        let sql = format!("select m.title from MOVIES m where m.id = {}", i % 997);
        system
            .run_query_with(&sql, cache_options(cache))
            .expect("lookup runs")
            .rows
    })
}

/// Parse + plan time of the system's last statement, from its journal.
fn parse_and_plan(system: &'static Talkback) -> impl FnMut() -> Duration {
    move || {
        let last = system.database().obs().journal().tail(Some(1));
        last[0]
            .span
            .children
            .iter()
            .filter(|s| s.name == "parse" || s.name == "plan")
            .map(|s| s.elapsed)
            .sum()
    }
}

/// A ×1000-scale fact table where the uniform-NDV assumption overestimates
/// 500×: `category = 'rare'` is estimated at 10,000 of 20,000 rows, far too
/// many for the index on `category`, but matches 20.
fn feedback_database() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "FACTS",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("did", DataType::Integer),
                ColumnDef::new("category", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .expect("FACTS table");
    for i in 0..20_000i64 {
        let category = if i % 1000 == 0 { "rare" } else { "common" };
        db.insert(
            "FACTS",
            vec![Value::int(i), Value::int(i % 5000), Value::text(category)],
        )
        .expect("FACTS row");
    }
    db.create_index(IndexDef::single(
        "facts_by_category",
        "FACTS",
        "category",
        IndexKind::Ordered,
    ))
    .expect("category index");
    db.analyze();
    db
}

/// The plan cache (parse + plan time and wall time of point lookups at
/// ×100) and the cardinality-feedback loop (a misestimated filter's first
/// plan vs. its corrected plan).
fn adaptive_rows() -> Vec<AbRow<'static>> {
    // Each system gets its own database: clones would share one plan cache.
    let system = || leak(Talkback::new(build_movies(100, Setup::Plain)));
    let (off, on) = (system(), system());
    let (wall_off, wall_on) = (system(), system());

    let db = leak(feedback_database());
    let sql = "select f.id, f.did from FACTS f where f.category = 'rare'";
    let options = PlannerOptions::sequential();
    let first = plan(db, sql, options);
    // One execution feeds the est-vs-actual delta back to the planner.
    let (_, profile) = execute_with_stats(db, &first).expect("first plan runs");
    db.adaptive().absorb(&profile, options.misestimate_factor);
    let corrected = plan(db, sql, options);
    let index_scan = |plan: &Plan| any_node(plan, &|n| matches!(n, PlanNode::IndexScan { .. }));
    let paths = (index_scan(&first), index_scan(&corrected));

    vec![
        AbRow::new(
            "adaptive_cache_parse_plan_x100",
            "movies x100",
            lookups("cache_off", off, false).timed_by(parse_and_plan(off)),
        )
        .vs(lookups("cache_on", on, true).timed_by(parse_and_plan(on)))
        .gate(Gate::AtLeast(5.0))
        .pairs(101),
        AbRow::new(
            "adaptive_cache_point_lookup_x100",
            "movies x100",
            lookups("cache_off", wall_off, false),
        )
        .vs(lookups("cache_on", wall_on, true)),
        AbRow::new(
            "adaptive_feedback_misscan",
            "FACTS 20,000 rows",
            Side::new("first_plan", move || run(db, &first)),
        )
        .vs(Side::new("corrected_plan", move || run(db, &corrected)))
        .any_order()
        .check(move || match paths {
            (false, true) => Ok(()),
            (first, corrected) => Err(format!(
                "feedback must move the plan from a scan to the category index \
                 (index scan in first plan: {first}, in corrected plan: {corrected})"
            )),
        })
        .gate(Gate::AtLeast(2.0))
        .pairs(11),
    ]
}

// ------------------------------------------------------------- advisor --

/// The ×1000 doctor database after a lopsided workload: the same point and
/// range probe over the 30,000-row CAST table, twenty times with shifting
/// literals, every run a full scan.
fn doctor_system() -> Talkback {
    let system = Talkback::new(scaled_movie_database(ScaleConfig {
        movies: 1000,
        directors: 120,
        actors: 600,
        cast_per_movie: 30,
        genres_per_movie: 2,
        seed: 42,
    }));
    for i in 0..20 {
        let sql = format!(
            "select c.role from CAST c where c.aid = {} and c.mid > {}",
            10 + i,
            100 + i
        );
        system
            .run_query_with(&sql, PlannerOptions::sequential())
            .expect("doctor workload runs");
    }
    system
}

/// A small database whose ledger holds 256 statements over 32 shapes.
fn mining_system() -> Talkback {
    let system = Talkback::new(scaled_movie_database(ScaleConfig {
        movies: 150,
        directors: 20,
        actors: 80,
        cast_per_movie: 4,
        genres_per_movie: 2,
        seed: 11,
    }));
    system
        .execute_show("set journal capacity 256")
        .expect("journal capacity");
    let shapes: [fn(usize) -> String; 4] = [
        |i| {
            format!(
                "select c.role from CAST c where c.aid = {i} and c.mid > {}",
                i * 2
            )
        },
        |i| format!("select m.title from MOVIES m where m.year > {}", 1950 + i),
        |i| format!("select g.genre from GENRE g where g.mid = {i}"),
        |i| format!("select m.title from MOVIES m, CAST c where m.id = c.mid and c.aid = {i}"),
    ];
    for family in 0..8 {
        for (s, shape) in shapes.iter().enumerate() {
            let sql = shape(family * 4 + s + 1);
            for _ in 0..8 {
                system
                    .run_query_with(&sql, PlannerOptions::sequential())
                    .expect("mining workload runs");
            }
        }
    }
    system
}

/// The doctor: its top prescription at ×1000 and what taking it buys
/// (before on a system without the index, after on one that built it, so
/// every attempt compares scan against index), plus the cost of mining and
/// of the three doctor statements.
fn advisor_rows() -> Vec<AbRow<'static>> {
    let before = leak(doctor_system());
    let mut after = doctor_system();
    let top = recommendations(before.database(), PlannerOptions::sequential())
        .into_iter()
        .next();
    let prescription = match &top {
        Some(t) if t.table == "CAST" && t.columns == ["aid", "mid"] => {
            if t.what_if_cost < t.base_cost * 0.8 {
                Ok(())
            } else {
                Err(format!(
                    "what-if cost {:.0} must beat 0.8 x base {:.0}",
                    t.what_if_cost, t.base_cost
                ))
            }
        }
        Some(t) => Err(format!(
            "top prescription must be CAST (aid, mid), got {}",
            t.create_sql
        )),
        None => Err("the x1000 workload must yield advice".to_string()),
    };
    let evidence = leak(
        top.as_ref()
            .map_or(String::new(), |t| t.evidence_sql.clone()),
    );
    if let Some(top) = &top {
        println!(
            "advisor prescription: {} (cost {:.0} -> {:.0}, est {:.1}x)",
            top.create_sql, top.base_cost, top.what_if_cost, top.estimated_speedup
        );
        after
            .execute_ddl(&top.create_sql)
            .expect("prescribed index builds");
    }
    let after = leak(after);
    let evidence_side = |label, system: &'static Talkback| {
        Side::new(label, move || {
            system
                .run_query_with(evidence, PlannerOptions::sequential())
                .expect("evidence query runs")
                .rows
        })
    };
    let miner = leak(mining_system());
    let mining = |label, f: fn(&Talkback)| {
        AbRow::new(
            format!("advisor_mine_256_{label}"),
            "movies x15, 256 journaled statements",
            Side::new(label, move || {
                f(miner);
                Vec::new()
            }),
        )
    };
    let mut rows = vec![
        AbRow::new(
            "advisor_payoff_x1000",
            "doctor movies x1000",
            evidence_side("before", before),
        )
        .vs(evidence_side("after", after))
        .any_order()
        .check(move || prescription.clone())
        .gate(Gate::AtLeast(10.0)),
        mining("snapshot", |s| {
            s.database().obs().workload().snapshot();
        }),
        mining("mine", |s| {
            mine(&s.database().obs().workload().snapshot());
        }),
        mining("recommendations", |s| {
            recommendations(s.database(), PlannerOptions::sequential());
        }),
    ];
    for statement in ["show workload", "advise", "checkup"] {
        rows.push(AbRow::new(
            format!("advisor_{}_x1000", statement.replace(' ', "_")),
            "doctor movies x1000",
            Side::new(statement, move || {
                before
                    .execute_show(statement)
                    .expect("doctor statement runs");
                Vec::new()
            }),
        ));
    }
    rows
}

// ---------------------------------------------------------------- main --

/// The measured commit, with `-dirty` when tracked files differ from it.
fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn main() {
    let start = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("A/B gate harness: nproc={nproc}; per side p10 / p50 / p90 per execution");
    let table = [
        join_rows(),
        sql_rows(),
        enumeration_rows(),
        observability_rows(),
        adaptive_rows(),
        advisor_rows(),
    ];
    let results: Vec<_> = table
        .into_iter()
        .flatten()
        .map(|mut row| {
            let result = run_row(&mut row);
            print_row(&result);
            result
        })
        .collect();
    let path = std::env::var_os("BENCH_JSON").map_or_else(
        || {
            let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
            let root = crate_dir.ancestors().nth(2).expect("workspace root");
            root.join("BENCH_ab.json")
        },
        PathBuf::from,
    );
    let commit = commit();
    if let Err(e) = std::fs::write(&path, snapshot_json(&commit, nproc, &results)) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(2);
    }
    let failed = results.iter().filter(|r| r.failure.is_some()).count();
    println!(
        "{} rows, {failed} failed, {:.1} s; snapshot of {commit} at {}",
        results.len(),
        start.elapsed().as_secs_f64(),
        path.display()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
