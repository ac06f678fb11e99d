//! The traced run's spans. The benchmark times each public call it makes
//! (one id per operation) and attaches, below `run_query`, the phase and
//! operator times the facade already writes to the query journal. Spans stay
//! in memory until the run ends; layer self times are summed from them.

use datastore::obs::{CacheStatus, JournalEntry, Span as JournalSpan};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed node of an operation's trace.
#[derive(Debug, Clone)]
pub struct Node {
    /// The layer the node's self time is charged to.
    pub layer: &'static str,
    /// The call or operator the node times.
    pub name: String,
    /// Offset from the run's start. Journal phases are laid end to end from
    /// their parent's start; operators, which carry only a duration, start
    /// with their parent.
    pub start: Duration,
    pub duration: Duration,
    /// Wall time not covered by children. For operators this is the share
    /// of the execute phase's wall time attributed to the operator: an
    /// exchange or a fanned-out apply reports its children's time summed
    /// over worker threads, so children split the parent's remaining wall
    /// time in proportion to what they report.
    pub self_time: Duration,
    pub children: Vec<Node>,
}

impl Node {
    /// A node timed by the benchmark around one call; self time is filled in
    /// when the operation is closed.
    pub fn call(layer: &'static str, origin: Instant, from: Instant, to: Instant) -> Node {
        Node {
            layer,
            name: layer.to_string(),
            start: from - origin,
            duration: to - from,
            self_time: Duration::ZERO,
            children: Vec::new(),
        }
    }

    /// Charge every non-operator node the part of its duration its children
    /// do not cover.
    fn settle(&mut self) {
        for c in &mut self.children {
            c.settle();
        }
        if !self.layer.starts_with("exec.self_ms.") {
            let covered: Duration = self.children.iter().map(|c| c.duration).sum();
            self.self_time = self.duration.saturating_sub(covered);
        }
    }

    fn walk<'a>(&'a self, depth: usize, out: &mut Vec<(usize, &'a Node)>) {
        out.push((depth, self));
        for c in &self.children {
            c.walk(depth + 1, out);
        }
    }
}

/// The journal's phases of one `run_query` call, as child nodes starting at
/// `start`: parse, plan (cache path on a hit), and execute with its operator
/// tree.
pub fn journal_nodes(entry: &JournalEntry, start: Duration) -> Vec<Node> {
    let mut out = Vec::new();
    let mut at = start;
    for phase in &entry.span.children {
        let layer = match phase.name.as_str() {
            "parse" => "sqlparse.parse_us",
            "plan" if entry.cache == CacheStatus::Hit => "adaptive.cache_path_us",
            "plan" => "planner.plan_us",
            _ => "exec.outside_operators_us",
        };
        let mut node = Node {
            layer,
            name: phase.name.clone(),
            start: at,
            duration: phase.elapsed,
            self_time: Duration::ZERO,
            children: Vec::new(),
        };
        if let Some(root) = phase.children.first() {
            let wall = root.elapsed.min(phase.elapsed);
            node.children.push(operator_node(root, at, wall));
        }
        at += phase.elapsed;
        out.push(node);
    }
    out
}

fn operator_node(span: &JournalSpan, start: Duration, wall: Duration) -> Node {
    let reported: Duration = span.children.iter().map(|c| c.elapsed).sum();
    let own = span.elapsed.saturating_sub(reported);
    let self_time = if reported.is_zero() || span.elapsed.is_zero() {
        wall
    } else {
        own.mul_f64(wall.as_secs_f64() / span.elapsed.as_secs_f64())
            .min(wall)
    };
    let rest = wall - self_time;
    let children = span
        .children
        .iter()
        .map(|c| {
            let share = if reported.is_zero() {
                Duration::ZERO
            } else {
                rest.mul_f64(c.elapsed.as_secs_f64() / reported.as_secs_f64())
            };
            operator_node(c, start, share)
        })
        .collect();
    Node {
        layer: operator_layer(&span.name),
        name: if span.detail.is_empty() {
            span.name.clone()
        } else {
            format!("{}: {}", span.name, span.detail)
        },
        start,
        duration: wall,
        self_time,
        children,
    }
}

/// The `exec.self_ms.*` layer an operator's self time is charged to.
pub fn operator_layer(operator: &str) -> &'static str {
    match operator {
        "scan" => "exec.self_ms.scan",
        "index scan" => "exec.self_ms.index_scan",
        "filter" => "exec.self_ms.filter",
        "project" => "exec.self_ms.project",
        "hash join" => "exec.self_ms.hash_join",
        "index nested-loop join" | "index probe" => "exec.self_ms.inl_join",
        "nested-loop join" => "exec.self_ms.nl_join",
        "semi join" | "anti join" => "exec.self_ms.semi_anti_join",
        "apply" | "scalar subquery" => "exec.self_ms.apply",
        "aggregate" => "exec.self_ms.aggregate",
        "sort" => "exec.self_ms.sort",
        "exchange" => "exec.self_ms.exchange",
        _ => "exec.self_ms.other",
    }
}

/// Every traced operation of a run.
#[derive(Debug, Default)]
pub struct Trace {
    ops: Vec<Node>,
}

impl Trace {
    /// Close one operation: settle self times and keep its tree.
    pub fn push(&mut self, mut op: Node) {
        op.settle();
        self.ops.push(op);
    }

    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Total wall time of the traced operations.
    pub fn wall(&self) -> Duration {
        self.ops.iter().map(|o| o.duration).sum()
    }

    /// Every node of every operation, depth first.
    fn nodes(&self) -> Vec<&Node> {
        let mut out = Vec::new();
        for op in &self.ops {
            let mut nodes = Vec::new();
            op.walk(0, &mut nodes);
            out.extend(nodes.into_iter().map(|(_, node)| node));
        }
        out
    }

    /// Self time per layer, summed over every operation. The operation
    /// roots' own self time (benchmark glue between calls) is under `bench`.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, Duration> {
        let mut totals = BTreeMap::new();
        for node in self.nodes() {
            *totals.entry(node.layer).or_insert(Duration::ZERO) += node.self_time;
        }
        totals
    }

    /// Summed duration, children included, of the nodes charged to `layer`.
    pub fn inclusive(&self, layer: &str) -> Duration {
        self.nodes()
            .iter()
            .filter(|node| node.layer == layer)
            .map(|node| node.duration)
            .sum()
    }

    /// Number of nodes charged to `layer`.
    pub fn calls(&self, layer: &str) -> usize {
        self.nodes()
            .iter()
            .filter(|node| node.layer == layer)
            .count()
    }

    /// One JSON object per span: operation id, span id, parent id, layer,
    /// name, start and duration in µs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (op_id, op) in self.ops.iter().enumerate() {
            let mut nodes = Vec::new();
            op.walk(0, &mut nodes);
            let mut parents: Vec<usize> = Vec::new();
            for (id, (depth, node)) in nodes.iter().enumerate() {
                parents.truncate(*depth);
                let parent = parents
                    .last()
                    .map_or_else(|| "null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"op\":{op_id},\"span\":{id},\"parent\":{parent},\"layer\":\"{}\",\
                     \"name\":{:?},\"start_us\":{:.3},\"duration_us\":{:.3},\"self_us\":{:.3}}}",
                    node.layer,
                    node.name,
                    node.start.as_secs_f64() * 1e6,
                    node.duration.as_secs_f64() * 1e6,
                    node.self_time.as_secs_f64() * 1e6,
                );
                parents.push(id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, us: u64, children: Vec<JournalSpan>) -> JournalSpan {
        JournalSpan {
            name: name.to_string(),
            detail: String::new(),
            elapsed: Duration::from_micros(us),
            rows: Some(0),
            children,
        }
    }

    fn self_sum(node: &Node) -> Duration {
        node.self_time + node.children.iter().map(self_sum).sum::<Duration>()
    }

    #[test]
    fn sequential_operators_keep_their_own_time() {
        let tree = span(
            "project",
            100,
            vec![span("filter", 80, vec![span("scan", 50, vec![])])],
        );
        let node = operator_node(&tree, Duration::ZERO, Duration::from_micros(100));
        assert_eq!(node.self_time, Duration::from_micros(20));
        assert_eq!(node.children[0].self_time, Duration::from_micros(30));
        assert_eq!(
            node.children[0].children[0].self_time,
            Duration::from_micros(50)
        );
    }

    #[test]
    fn worker_summed_children_share_the_exchange_wall_time() {
        // Two workers each scanned for 90µs under a 100µs exchange.
        let tree = span(
            "exchange",
            100,
            vec![span("filter", 180, vec![span("scan", 120, vec![])])],
        );
        let wall = Duration::from_micros(100);
        let node = operator_node(&tree, Duration::ZERO, wall);
        assert_eq!(node.self_time, Duration::ZERO);
        let sum = self_sum(&node);
        assert!(sum.abs_diff(wall) < Duration::from_nanos(10), "{sum:?}");
        let filter = &node.children[0];
        let scan = &filter.children[0];
        assert!(scan.self_time > filter.self_time);
    }

    #[test]
    fn settled_self_times_add_up_to_the_operation() {
        let origin = Instant::now();
        let t = |us| origin + Duration::from_micros(us);
        let mut op = Node::call("bench", origin, t(0), t(100));
        op.children
            .push(Node::call("query.translate_us", origin, t(0), t(30)));
        op.children
            .push(Node::call("obs.facade_other_us", origin, t(30), t(95)));
        let mut trace = Trace::default();
        trace.push(op);
        let totals = trace.layer_totals();
        assert_eq!(totals["bench"], Duration::from_micros(5));
        assert_eq!(totals.values().sum::<Duration>(), trace.wall());
        assert_eq!(trace.calls("query.translate_us"), 1);
        assert_eq!(trace.to_jsonl().lines().count(), 3);
    }
}
