//! The four workloads: their databases and the seeded operation streams the
//! single closed-loop client sends. The engine sees only the SQL text and the
//! rows generated here.

use crate::rng::Rng;
use datastore::sample::ScaleConfig;
use datastore::{Database, Value};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Analytic,
    Lookup,
    Ingest,
    Paper,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Analytic,
        Workload::Lookup,
        Workload::Ingest,
        Workload::Paper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Analytic => "analytic_x1000",
            Workload::Lookup => "lookup_x1000",
            Workload::Ingest => "ingest_x100",
            Workload::Paper => "paper_x10",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The database the workload runs on: ×1000 (10k movies, 78k rows),
    /// ×100 (1k movies, 7.8k rows) or the ×10 default (100 movies).
    ///
    /// `ingest_x100` runs at ×100: its single client thread spends most of
    /// its time rescanning the written tables for statistics, and at ×1000
    /// that made its throughput swing almost twofold from run to run on a
    /// shared host, while the cache-resident `paper_x10`, run in between,
    /// held steady.
    pub fn scale(self) -> ScaleConfig {
        match self {
            Workload::Paper => ScaleConfig::default(),
            Workload::Ingest => x100(),
            Workload::Analytic | Workload::Lookup => x1000(),
        }
    }

    /// Operations run before the measured window, so every shape has been
    /// planned (and cached, where it can be) once.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::Analytic => ANALYTIC.len(),
            Workload::Lookup => LOOKUP.len(),
            Workload::Ingest => 3 * LOOKUP.len(),
            Workload::Paper => PAPER_QUERIES.len() + 2,
        }
    }

    /// Measured operations after which the database is rebuilt from
    /// scratch, for workloads that write. Without it every run would
    /// measure a different database: the more operations a run completes,
    /// the more rows its later operations read (at ×1000, the asks and
    /// validates took twice as long after 60 s as at the start). Rebuilding
    /// every 200 rounds keeps each run on the ×100 database plus at most
    /// 200 new movies, growing the same way in every stretch.
    pub fn reset_ops(self) -> Option<usize> {
        match self {
            Workload::Ingest => Some(200 * 3),
            _ => None,
        }
    }

    /// Length of the fixed prefix of the measured window over which count
    /// metrics are taken, so they repeat exactly for a seed. A run never
    /// stops before this many operations.
    pub fn count_ops(self) -> usize {
        match self {
            Workload::Analytic => 6 * ANALYTIC.len(),
            Workload::Lookup => 100 * LOOKUP.len(),
            Workload::Ingest => 150,
            Workload::Paper => 3 * (PAPER_QUERIES.len() + 2),
        }
    }
}

/// ×100: 1k movies, 200 directors, 600 actors, 3k CAST and 2k GENRE rows.
pub fn x100() -> ScaleConfig {
    ScaleConfig {
        movies: 1_000,
        directors: 200,
        actors: 600,
        cast_per_movie: 3,
        genres_per_movie: 2,
        ..ScaleConfig::default()
    }
}

/// ×1000: 10k movies, 2k directors, 6k actors, 30k CAST and 20k GENRE rows.
pub fn x1000() -> ScaleConfig {
    ScaleConfig {
        movies: 10_000,
        directors: 2_000,
        actors: 6_000,
        cast_per_movie: 3,
        genres_per_movie: 2,
        ..ScaleConfig::default()
    }
}

/// One operation of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Back-translate the statement, then run it.
    Ask { shape: &'static str, sql: String },
    /// Insert one movie with its DIRECTED, CAST and GENRE rows.
    Write(NewMovie),
    /// Narrate one movie back (`describe_entity`).
    Validate { title: String },
    /// Narrate the whole database (`describe_database`).
    Narrate,
}

impl Op {
    /// The operation's kind: `ask`, `write`, `validate` or `narrate`.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Ask { .. } => "ask",
            Op::Write(_) => "write",
            Op::Validate { .. } => "validate",
            Op::Narrate => "narrate",
        }
    }

    /// The ask's shape, or the kind of any other operation.
    pub fn key(&self) -> &'static str {
        match self {
            Op::Ask { shape, .. } => shape,
            other => other.label(),
        }
    }
}

/// A movie the ingest workload writes, with its credits.
#[derive(Debug, Clone, PartialEq)]
pub struct NewMovie {
    pub id: i64,
    pub title: String,
    pub year: i64,
    pub director: i64,
    pub actors: Vec<i64>,
    pub genres: Vec<String>,
}

impl NewMovie {
    /// The rows to insert, parents first so every foreign key resolves.
    pub fn rows(&self) -> Vec<(&'static str, Vec<Value>)> {
        let mut rows = vec![
            (
                "MOVIES",
                vec![
                    Value::int(self.id),
                    Value::text(self.title.as_str()),
                    Value::int(self.year),
                ],
            ),
            (
                "DIRECTED",
                vec![Value::int(self.id), Value::int(self.director)],
            ),
        ];
        for &aid in &self.actors {
            rows.push((
                "CAST",
                vec![
                    Value::int(self.id),
                    Value::int(aid),
                    Value::text(format!("Role {aid}")),
                ],
            ));
        }
        for g in &self.genres {
            rows.push(("GENRE", vec![Value::int(self.id), Value::text(g.as_str())]));
        }
        rows
    }
}

/// The paper's queries Q1–Q9, exactly as the paper writes them.
pub const PAPER_QUERIES: [(&str, &str); 9] = [
    (
        "Q1-path",
        "select m.title from MOVIES m, CAST c, ACTOR a \
         where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
    ),
    (
        "Q2-subgraph",
        "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
         where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
           and m.id = g.mid and d.name = 'G. Loucas' and g.genre = 'action'",
    ),
    (
        "Q3-graph-multi",
        "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
         where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
           and a1.id > a2.id",
    ),
    (
        "Q4-graph-cyclic",
        "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
    ),
    (
        "Q5-nested-flat",
        "select m.title from MOVIES m where m.id in ( \
            select c.mid from CAST c where c.aid in ( \
                select a.id from ACTOR a where a.name = 'Brad Pitt'))",
    ),
    (
        "Q6-nested-division",
        "select m.title from MOVIES m where not exists ( \
            select * from GENRE g1 where not exists ( \
                select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
    ),
    (
        "Q7-aggregate",
        "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
         group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
    ),
    (
        "Q8-impossible-allsame",
        "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
         where m.id = c.mid and c.aid = a.id \
         group by a.id, a.name having count(distinct m.year) = 1",
    ),
    (
        "Q9-impossible-superlative",
        "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
         and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
         where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
    ),
];

/// Analytic shapes: the paper's Q1–Q5, Q7 and Q8 with seeded literals, plus
/// four scan/aggregate shapes. `{year}..{year_end}` is a fixed ten-year
/// window, so every literal selects a similar share of the movies.
const ANALYTIC: [(&str, &str); 11] = [
    (
        "Q1-path",
        "select m.title from MOVIES m, CAST c, ACTOR a \
         where m.id = c.mid and c.aid = a.id and a.name = '{actor}'",
    ),
    (
        "Q2-subgraph",
        "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
         where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
           and m.id = g.mid and d.name = '{director}' and g.genre = '{genre}'",
    ),
    (
        "Q3-graph-multi",
        "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
         where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
           and a1.id > a2.id and m.year = {year}",
    ),
    (
        "Q4-graph-cyclic",
        "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title \
         and m.year >= {year} and m.year < {year_end}",
    ),
    (
        "Q5-nested-flat",
        "select m.title from MOVIES m where m.id in ( \
            select c.mid from CAST c where c.aid in ( \
                select a.id from ACTOR a where a.name = '{actor}'))",
    ),
    (
        "Q7-aggregate",
        "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
         and m.year = {year} group by m.id, m.title \
         having 1 < (select count(*) from GENRE g where g.mid = m.id)",
    ),
    (
        "Q8-impossible-allsame",
        "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
         where m.id = c.mid and c.aid = a.id and m.year >= {year} and m.year < {year_end} \
         group by a.id, a.name having count(distinct m.year) = 1",
    ),
    (
        "year-range-scan",
        "select m.title, m.year from MOVIES m where m.year >= {year} and m.year < {year_end}",
    ),
    (
        "year-count",
        "select count(*) from MOVIES m where m.year >= {year} and m.year < {year_end}",
    ),
    (
        "genre-groupby",
        "select g.genre, count(*) from MOVIES m, GENRE g where m.id = g.mid \
         and m.year >= {year} and m.year < {year_end} group by g.genre",
    ),
    (
        "top-k",
        "select m.id, m.title, m.year from MOVIES m where m.year >= {year} \
         and m.year < {year_end} order by m.year desc, m.id limit 10",
    ),
];

/// Keyed lookups: `{movie}` and `{actor_id}` are uniform keys.
const LOOKUP: [(&str, &str); 5] = [
    (
        "movie-by-id",
        "select m.id, m.title, m.year from MOVIES m where m.id = {movie}",
    ),
    (
        "movie-genres",
        "select g.genre from GENRE g where g.mid = {movie}",
    ),
    (
        "movie-cast",
        "select a.name, c.role from MOVIES m, CAST c, ACTOR a \
         where m.id = {movie} and c.mid = m.id and c.aid = a.id",
    ),
    (
        "movie-director",
        "select d.name from MOVIES m, DIRECTED r, DIRECTOR d \
         where m.id = {movie} and r.mid = m.id and r.did = d.id",
    ),
    (
        "actor-by-id",
        "select a.id, a.name, a.nationality from ACTOR a where a.id = {actor_id}",
    ),
];

/// Distinct literal sets drawn per analytic shape. Every distinct statement
/// is re-checked against the reference engine after the run, so the pools
/// bound that check's cost.
const ANALYTIC_POOL: usize = 4;
/// Distinct keys drawn per lookup shape.
const LOOKUP_POOL: usize = 64;
const YEAR_WINDOW: i64 = 10;

/// The value domains literals are drawn from, read from the generated
/// database before the run.
struct Domain {
    movies: i64,
    actors: Vec<String>,
    directors: Vec<String>,
    genres: Vec<String>,
    titles: Vec<String>,
    years: (i64, i64),
}

impl Domain {
    fn of(db: &Database) -> Domain {
        let texts = |table: &str, column: &str| -> Vec<String> {
            let mut values: Vec<String> = db
                .table(table)
                .expect("movie schema table")
                .column_values(column)
                .iter()
                .map(Value::to_string)
                .collect();
            values.dedup();
            values
        };
        let mut genres = texts("GENRE", "genre");
        genres.sort();
        genres.dedup();
        let years: Vec<i64> = db
            .table("MOVIES")
            .expect("movie schema table")
            .column_values("year")
            .iter()
            .filter_map(|v| match v {
                Value::Integer(y) => Some(*y),
                _ => None,
            })
            .collect();
        Domain {
            movies: db.table("MOVIES").expect("movie schema table").len() as i64,
            actors: texts("ACTOR", "name"),
            directors: texts("DIRECTOR", "name"),
            genres,
            titles: texts("MOVIES", "title"),
            years: (
                years.iter().copied().min().unwrap_or(1960),
                years.iter().copied().max().unwrap_or(2024),
            ),
        }
    }

    /// One statement of a template, with every placeholder drawn afresh.
    fn instantiate(&self, template: &str, rng: &mut Rng) -> String {
        let (lo, hi) = self.years;
        let year = rng.range(lo, hi);
        let window = rng.range(lo, (hi - YEAR_WINDOW + 1).max(lo));
        let mut sql = template.to_string();
        let mut fill = |key: &str, value: String| {
            if sql.contains(key) {
                sql = sql.replace(key, &value);
            }
        };
        if template.contains("{year_end}") {
            fill("{year}", window.to_string());
            fill("{year_end}", (window + YEAR_WINDOW).to_string());
        } else {
            fill("{year}", year.to_string());
        }
        fill("{actor}", quote(rng.pick::<String>(&self.actors)));
        fill("{director}", quote(rng.pick::<String>(&self.directors)));
        fill("{genre}", quote(rng.pick::<String>(&self.genres)));
        fill("{movie}", rng.range(1, self.movies).to_string());
        fill(
            "{actor_id}",
            rng.range(1, self.actors.len() as i64).to_string(),
        );
        sql
    }
}

fn quote(text: &str) -> String {
    text.replace('\'', "''")
}

/// Ask shapes with their statement pools, asked in rounds: every shape once
/// per round, in an order shuffled afresh each round so no shape always
/// follows the same neighbour.
struct Shapes {
    shapes: Vec<(&'static str, Vec<String>)>,
    round: Vec<usize>,
}

impl Shapes {
    fn new(
        templates: &[(&'static str, &'static str)],
        pool: usize,
        domain: &Domain,
        rng: &mut Rng,
    ) -> Shapes {
        let shapes: Vec<(&'static str, Vec<String>)> = templates
            .iter()
            .map(|(name, template)| {
                let mut statements: Vec<String> = Vec::with_capacity(pool);
                for _ in 0..pool {
                    statements.push(domain.instantiate(template, rng));
                }
                (*name, statements)
            })
            .collect();
        Shapes {
            shapes,
            round: Vec::new(),
        }
    }

    /// The next shape of the round, with a statement drawn from its pool.
    fn next(&mut self, rng: &mut Rng) -> Op {
        if self.round.is_empty() {
            self.round = (0..self.shapes.len()).collect();
            rng.shuffle(&mut self.round);
        }
        let (shape, pool) = &self.shapes[self.round.pop().expect("refilled above")];
        Op::Ask {
            shape,
            sql: rng.pick(pool).clone(),
        }
    }
}

/// An endless, deterministic operation stream for one workload and seed.
pub struct Stream {
    workload: Workload,
    seed: u64,
    rng: Rng,
    domain: Domain,
    asks: Shapes,
    pending: VecDeque<Op>,
    next_movie: i64,
    written: usize,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, db: &Database) -> Stream {
        let mut rng = Rng::new(seed);
        let domain = Domain::of(db);
        let asks = match workload {
            Workload::Analytic => Shapes::new(&ANALYTIC, ANALYTIC_POOL, &domain, &mut rng),
            Workload::Lookup | Workload::Ingest => {
                Shapes::new(&LOOKUP, LOOKUP_POOL, &domain, &mut rng)
            }
            Workload::Paper => Shapes::new(&PAPER_QUERIES, 1, &domain, &mut rng),
        };
        let max_id = db
            .table("MOVIES")
            .expect("movie schema table")
            .column_values("id")
            .iter()
            .filter_map(|v| match v {
                Value::Integer(id) => Some(*id),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Stream {
            workload,
            seed,
            rng,
            domain,
            asks,
            pending: VecDeque::new(),
            next_movie: max_id + 1,
            written: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front().expect("refill queues a cycle")
    }

    /// Queue one cycle of the workload.
    fn refill(&mut self) {
        match self.workload {
            Workload::Analytic | Workload::Lookup => {
                let op = self.asks.next(&mut self.rng);
                self.pending.push_back(op);
            }
            Workload::Ingest => {
                let read = self.asks.next(&mut self.rng);
                let movie = self.new_movie();
                let title = movie.title.clone();
                self.pending.push_back(read);
                self.pending.push_back(Op::Write(movie));
                self.pending.push_back(Op::Validate { title });
            }
            Workload::Paper => {
                for _ in 0..PAPER_QUERIES.len() {
                    let op = self.asks.next(&mut self.rng);
                    self.pending.push_back(op);
                }
                self.pending.push_back(Op::Narrate);
                let title = self.rng.pick(&self.domain.titles).clone();
                self.pending.push_back(Op::Validate { title });
            }
        }
    }

    fn new_movie(&mut self) -> NewMovie {
        const ADJ: [&str; 4] = ["Quiet", "Northern", "Painted", "Second"];
        const NOUN: [&str; 4] = ["Harbor", "Letter", "Orchard", "Signal"];
        let id = self.next_movie;
        self.next_movie += 1;
        self.written += 1;
        let title = format!(
            "A {} {} (seed {} take {})",
            self.rng.pick(&ADJ),
            self.rng.pick(&NOUN),
            self.seed,
            self.written
        );
        let (lo, hi) = self.domain.years;
        let mut genres = self.domain.genres.clone();
        self.rng.shuffle(&mut genres);
        genres.truncate(2);
        NewMovie {
            id,
            title,
            year: self.rng.range(lo, hi),
            director: self.rng.range(1, self.domain.directors.len() as i64),
            actors: self.rng.distinct(3, 1, self.domain.actors.len() as i64),
            genres,
        }
    }
}

/// The catalog tables a statement names, in first-mention order (table
/// names are written upper-case; aliases and columns are not).
pub fn tables_named(sql: &str, db: &Database) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for token in sql.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if !token.is_empty()
            && !out.iter().any(|t| t == token)
            && db.tables().any(|t| t.name() == token)
        {
            out.push(token.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::scaled_movie_database;

    fn stream_prefix(workload: Workload, seed: u64, n: usize) -> Vec<Op> {
        let db = scaled_movie_database(ScaleConfig::default());
        let mut stream = Stream::new(workload, seed, &db);
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        for workload in Workload::ALL {
            assert_eq!(
                stream_prefix(workload, 7, 60),
                stream_prefix(workload, 7, 60),
                "{}",
                workload.name()
            );
            assert_ne!(
                stream_prefix(workload, 7, 60),
                stream_prefix(workload, 8, 60),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn placeholders_are_all_filled() {
        for workload in Workload::ALL {
            for op in stream_prefix(workload, 3, 100) {
                if let Op::Ask { sql, .. } = op {
                    assert!(!sql.contains('{'), "{sql}");
                }
            }
        }
    }

    #[test]
    fn ingest_cycles_read_write_validate() {
        let ops = stream_prefix(Workload::Ingest, 1, 6);
        assert!(matches!(ops[0], Op::Ask { .. }));
        let Op::Write(movie) = &ops[1] else {
            panic!("expected a write, got {:?}", ops[1]);
        };
        assert_eq!(
            ops[2],
            Op::Validate {
                title: movie.title.clone()
            }
        );
        assert_eq!(movie.rows().len(), 1 + 1 + 3 + 2);
        let Op::Write(next) = &ops[4] else {
            panic!("expected a write, got {:?}", ops[4]);
        };
        assert_eq!(next.id, movie.id + 1);
    }

    #[test]
    fn tables_named_ignores_aliases_and_columns() {
        let db = scaled_movie_database(ScaleConfig::default());
        assert_eq!(
            tables_named(
                "select g.genre from GENRE g, MOVIES m where m.id = g.mid",
                &db
            ),
            vec!["GENRE".to_string(), "MOVIES".to_string()]
        );
    }
}
