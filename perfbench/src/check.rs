//! Correctness, checked outside the timed window: every distinct statement
//! is re-run on the reference engine (sequential, row-at-a-time, no plan
//! cache, no feedback) and its answer compared — in order where the
//! statement sorts, as a multiset otherwise.

use datastore::exec::ResultSet;
use datastore::Value;
use std::collections::BTreeMap;
use talkback::{PlannerOptions, Talkback};

/// The configuration every answer is checked against.
pub fn reference_options() -> PlannerOptions {
    PlannerOptions {
        use_vectorized: false,
        use_plan_cache: false,
        use_feedback: false,
        ..PlannerOptions::sequential()
    }
}

/// Row count and checksum of one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: usize,
    pub checksum: u64,
}

impl Answer {
    pub fn of(sql: &str, result: &ResultSet) -> Answer {
        let ordered = sql.to_ascii_lowercase().contains("order by");
        let checksum = result.rows.iter().fold(FNV_OFFSET, |acc, row| {
            let h = hash_values(row.values());
            if ordered {
                (acc ^ h).wrapping_mul(FNV_PRIME)
            } else {
                acc.wrapping_add(h)
            }
        });
        Answer {
            rows: result.len(),
            checksum,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_values(values: &[Value]) -> u64 {
    values.iter().fold(FNV_OFFSET, |h, v| match v {
        Value::Null => fnv(h, &[0]),
        Value::Integer(i) => fnv(fnv(h, &[1]), &i.to_le_bytes()),
        Value::Float(f) => fnv(fnv(h, &[2]), &f.to_bits().to_le_bytes()),
        Value::Text(s) => fnv(fnv(fnv(h, &[3]), s.as_bytes()), &[0xff]),
        Value::Boolean(b) => fnv(h, &[4, u8::from(*b)]),
        Value::Date(d) => fnv(fnv(h, &[5]), d.to_string().as_bytes()),
    })
}

#[derive(Debug, Default)]
struct Seen {
    answer: Option<Answer>,
    /// Measured-window operations that ran the statement.
    uses: usize,
}

/// Answers seen during a run, keyed by statement text.
#[derive(Debug, Default)]
pub struct Checker {
    seen: BTreeMap<String, Seen>,
    failures: Vec<String>,
    /// Measured-window operations whose outcome was wrong.
    pub wrong_ops: usize,
}

impl Checker {
    /// Remember an answer. A statement that answers differently from its
    /// first run is wrong: the stream never writes rows a read can see.
    pub fn record_answer(&mut self, sql: &str, answer: Answer, measured: bool) {
        let seen = self.seen.entry(sql.to_string()).or_default();
        seen.uses += usize::from(measured);
        match seen.answer {
            None => seen.answer = Some(answer),
            Some(first) if first != answer => {
                self.fail(measured, format!("answer changed between runs of: {sql}"));
            }
            Some(_) => {}
        }
    }

    /// Record a failed operation check.
    pub fn fail(&mut self, measured: bool, why: String) {
        self.wrong_ops += usize::from(measured);
        self.failures.push(why);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Statements seen, with their answers, in text order.
    pub fn answers(&self) -> impl Iterator<Item = (&str, Answer)> {
        self.seen
            .iter()
            .filter_map(|(sql, s)| s.answer.map(|a| (sql.as_str(), a)))
    }

    /// Digest of every (statement, answer) pair: equal digests mean equal
    /// per-statement row counts and checksums.
    pub fn digest(&self) -> u64 {
        self.answers().fold(FNV_OFFSET, |h, (sql, a)| {
            let h = fnv(h, sql.as_bytes());
            let h = fnv(h, &(a.rows as u64).to_le_bytes());
            fnv(h, &a.checksum.to_le_bytes())
        })
    }

    /// Re-run every distinct statement on the reference engine.
    pub fn compare_with_reference(&mut self, tb: &Talkback) {
        let mut failures = Vec::new();
        let mut wrong = 0;
        for (sql, seen) in &self.seen {
            let Some(answer) = seen.answer else { continue };
            match tb.run_query_with(sql, reference_options()) {
                Ok(result) if Answer::of(sql, &result) == answer => {}
                Ok(result) => {
                    wrong += seen.uses;
                    failures.push(format!(
                        "{} rows (checksum {:016x}) but the reference gives {} rows \
                         (checksum {:016x}): {sql}",
                        answer.rows,
                        answer.checksum,
                        result.len(),
                        Answer::of(sql, &result).checksum
                    ));
                }
                Err(e) => {
                    wrong += seen.uses;
                    failures.push(format!("reference run failed ({e}): {sql}"));
                }
            }
        }
        self.wrong_ops += wrong;
        self.failures.extend(failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::Row;

    fn result(rows: &[&[i64]]) -> ResultSet {
        ResultSet {
            columns: Vec::new(),
            rows: rows
                .iter()
                .map(|r| Row::new(r.iter().map(|&v| Value::int(v)).collect()))
                .collect(),
        }
    }

    #[test]
    fn multiset_checksum_ignores_order_unless_sorted() {
        let a = result(&[&[1, 2], &[3, 4]]);
        let b = result(&[&[3, 4], &[1, 2]]);
        assert_eq!(Answer::of("select x", &a), Answer::of("select x", &b));
        assert_ne!(
            Answer::of("select x order by y", &a),
            Answer::of("select x order by y", &b)
        );
        assert_ne!(
            Answer::of("select x", &a),
            Answer::of("select x", &result(&[&[1, 2], &[3, 5]]))
        );
    }

    #[test]
    fn changed_answer_is_a_failure() {
        let mut checker = Checker::default();
        let one = Answer {
            rows: 1,
            checksum: 1,
        };
        checker.record_answer("q", one, true);
        checker.record_answer("q", one, true);
        assert!(checker.failures().is_empty());
        checker.record_answer(
            "q",
            Answer {
                rows: 1,
                checksum: 2,
            },
            true,
        );
        assert_eq!(checker.wrong_ops, 1);
    }
}
