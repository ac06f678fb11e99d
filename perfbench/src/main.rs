//! The talk-back loop benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analytic_x1000|lookup_x1000|ingest_x100|paper_x10> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it traces every other operation of the window and prints the per-layer
//! metrics, the layer-sum check and the tracing overhead. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Any correctness failure makes the command exit with code 1.

mod check;
mod clock;
mod rng;
mod run;
mod trace;
mod workload;

use clock::Elapsed;
use datastore::obs::Counter;
use run::{Run, Settings};
use std::fmt::Write as _;
use std::time::Duration;
use talkback::PlannerOptions;
use workload::Workload;

/// The end-to-end metrics every workload reports with `--trace 0`. The
/// times are the process's CPU time (see `clock`); their wall-clock
/// counterparts are printed above the result line.
const END_TO_END: [&str; 6] = [
    "ops_per_cpu_s",
    "verify_cpu_p50_us",
    "ask_cpu_p50_ms",
    "ask_cpu_p95_ms",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics every workload prints with `--trace 1`: counts,
/// ratios, and the self times of layers every workload enters. The full
/// layer table, including layers only some workloads enter, is printed
/// above the result line.
const PER_LAYER: [&str; 22] = [
    "query.translate_us",
    "sqlparse.parse_us",
    "datastore.table_stats_us",
    "exec.execute_us",
    "exec.outside_operators_us",
    "exec.self_ms.scan",
    "exec.self_ms.index_scan",
    "exec.self_ms.project",
    "exec.self_ms.hash_join",
    "obs.facade_other_us",
    "adaptive.plan_cache_hit_ratio",
    "adaptive.epoch_bumps_per_op",
    "exec.rows_scanned_per_row_out",
    "exec.index_probes_per_ask",
    "exec.hash_build_rows_per_ask",
    "exec.apply_evaluations_per_ask",
    "exec.apply_cache_hit_ratio",
    "exec.workers_spawned_per_ask",
    "trace.layer_sum_pct",
    "trace.overhead_pct",
    "trace.ops",
    "trace.wall_ms",
];

/// The traced layer self times must add up to within this share of the
/// traced operations' wall time.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let settings = Settings {
        workload,
        scale: workload.scale(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps: 3,
        setup_seconds: 1.0,
        reset_ops: workload.reset_ops(),
    };
    let run = run::run(&settings);

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("env {}", env_stamp(&run, args.seed));

    let mut failures: Vec<String> = run.checker.failures().to_vec();
    let metrics = if args.trace {
        traced_metrics(&run, workload, args.seed, &mut failures)
    } else {
        end_to_end_metrics(&run, &mut failures)
    };
    println!(
        "answers distinct={} digest={:016x}",
        run.checker.answers().count(),
        run.checker.digest()
    );
    let failed = run.checker.wrong_ops.min(run.attempted);
    println!(
        "error_rate = {} ({failed}/{} operations)",
        failed as f64 / run.attempted as f64,
        run.attempted
    );
    for f in failures.iter().take(20) {
        println!("FAIL {f}");
    }
    let correct = failures.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        run.attempted
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}

type Metric = (&'static str, f64, &'static str);

/// Nearest-rank percentile.
fn percentile(samples: &[Duration], q: f64) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn end_to_end_metrics(run: &Run, failures: &mut Vec<String>) -> Vec<Metric> {
    let s = &run.untraced;
    let mut all: Vec<(Metric, usize)> = vec![
        (("ops_per_cpu_s", s.ops_per_cpu_s(), "1/s"), s.ops),
        (("ops_per_s", s.ops_per_s(), "1/s"), s.ops),
    ];
    let mut pct = |name, samples: &[Duration], q, scale: f64, unit| {
        if let Some(d) = percentile(samples, q) {
            all.push(((name, d.as_secs_f64() * scale, unit), samples.len()));
        }
    };
    pct("verify_cpu_p50_us", &s.verify_cpu, 0.50, 1e6, "us");
    pct("ask_cpu_p50_ms", &s.ask_cpu, 0.50, 1e3, "ms");
    pct("ask_cpu_p95_ms", &s.ask_cpu, 0.95, 1e3, "ms");
    pct("verify_p50_us", &s.verify, 0.50, 1e6, "us");
    pct("ask_p50_ms", &s.ask, 0.50, 1e3, "ms");
    pct("ask_p95_ms", &s.ask, 0.95, 1e3, "ms");
    pct("write_p50_us", &s.write, 0.50, 1e6, "us");
    pct("write_p95_us", &s.write, 0.95, 1e6, "us");
    pct("validate_p50_ms", &s.validate, 0.50, 1e3, "ms");
    pct("validate_p95_ms", &s.validate, 0.95, 1e3, "ms");
    pct("narrate_p50_ms", &s.narrate, 0.50, 1e3, "ms");
    let setup = |time: fn(&Elapsed) -> Duration| -> Vec<f64> {
        run.setup.iter().map(|e| time(e).as_secs_f64()).collect()
    };
    let n = run.setup.len();
    all.push((("setup_s", median(&setup(|e| e.cpu)), "s"), n));
    all.push((("setup_wall_s", median(&setup(|e| e.wall)), "s"), n));
    match run.peak_rss_mb {
        Some(mb) => all.push((("peak_rss_mb", mb, "MB"), 1)),
        None => failures.push("VmHWM is not readable from /proc/self/status".to_string()),
    }
    for ((name, value, unit), n) in &all {
        println!("metric {name} = {value} {unit} (n={n})");
    }
    for (key, (sum, n)) in &s.by_key {
        println!(
            "shape {key} mean = {} ms (n={n})",
            sum.as_secs_f64() * 1e3 / *n as f64
        );
    }
    let mut out = Vec::new();
    for name in END_TO_END {
        match all.iter().find(|((n, _, _), _)| *n == name) {
            Some((m, _)) => out.push(*m),
            None => failures.push(format!("{name} was not measured")),
        }
    }
    out
}

fn traced_metrics(
    run: &Run,
    workload: Workload,
    seed: u64,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let trace = &run.trace;
    let totals = trace.layer_totals();
    let total = |layer: &str| totals.get(layer).copied().unwrap_or(Duration::ZERO);
    let asks = trace.calls("query.translate_us");
    let per =
        |d: Duration, n: usize, scale: f64| (n > 0).then(|| d.as_secs_f64() * scale / n as f64);
    let us = 1e6;

    let mut all: Vec<(&'static str, Option<f64>, &'static str, usize)> = Vec::new();
    for (layer, calls) in [
        ("query.translate_us", asks),
        ("sqlparse.parse_us", asks),
        ("planner.plan_us", trace.calls("planner.plan_us")),
        (
            "adaptive.cache_path_us",
            trace.calls("adaptive.cache_path_us"),
        ),
        ("datastore.table_stats_us", asks),
        ("obs.facade_other_us", asks),
        ("exec.outside_operators_us", asks),
        ("datastore.insert_us", trace.calls("datastore.insert_us")),
        (
            "content.describe_entity_us",
            trace.calls("content.describe_entity_us"),
        ),
        (
            "content.describe_database_us",
            trace.calls("content.describe_database_us"),
        ),
    ] {
        all.push((layer, per(total(layer), calls, us), "us", calls));
    }
    all.push((
        "exec.execute_us",
        per(trace.inclusive("exec.outside_operators_us"), asks, us),
        "us",
        asks,
    ));
    for layer in [
        "exec.self_ms.scan",
        "exec.self_ms.index_scan",
        "exec.self_ms.filter",
        "exec.self_ms.project",
        "exec.self_ms.hash_join",
        "exec.self_ms.inl_join",
        "exec.self_ms.nl_join",
        "exec.self_ms.semi_anti_join",
        "exec.self_ms.apply",
        "exec.self_ms.aggregate",
        "exec.self_ms.sort",
        "exec.self_ms.exchange",
    ] {
        all.push((layer, per(total(layer), asks, 1e3), "ms", asks));
    }

    let c = &run.counts;
    let of = |a: u64, b: u64| ratio(a as f64, b as f64);
    let hits = c.get(Counter::PlanCacheHits);
    let misses = c.get(Counter::PlanCacheMisses);
    let apply_hits = c.get(Counter::ApplyCacheHits);
    let apply_evals = c.get(Counter::ApplyEvaluations);
    let counted = c.ops as usize;
    for (name, value, unit) in [
        (
            "adaptive.plan_cache_hit_ratio",
            of(hits, hits + misses),
            "ratio",
        ),
        (
            "adaptive.epoch_bumps_per_op",
            of(c.epoch_bumps, c.ops),
            "count",
        ),
        (
            "exec.rows_scanned_per_row_out",
            of(c.get(Counter::RowsScanned), c.get(Counter::RowsEmitted)),
            "ratio",
        ),
        (
            "exec.index_probes_per_ask",
            of(c.get(Counter::IndexProbes), c.asks),
            "count",
        ),
        (
            "exec.hash_build_rows_per_ask",
            of(c.get(Counter::HashBuildRows), c.asks),
            "count",
        ),
        (
            "exec.apply_evaluations_per_ask",
            of(apply_evals, c.asks),
            "count",
        ),
        (
            "exec.apply_cache_hit_ratio",
            of(apply_hits, apply_hits + apply_evals),
            "ratio",
        ),
        (
            "exec.workers_spawned_per_ask",
            of(c.get(Counter::WorkersSpawned), c.asks),
            "count",
        ),
    ] {
        all.push((name, Some(value), unit, counted));
    }

    // Layer sum: every self time except the benchmark's own glue.
    let wall = trace.wall();
    let layered: Duration = totals
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, d)| *d)
        .sum();
    let layer_sum = ratio(layered.as_secs_f64(), wall.as_secs_f64());
    if trace.ops() == 0 || (layer_sum - 1.0).abs() > LAYER_SUM_TOLERANCE {
        failures.push(format!(
            "layer self times add up to {:.1}% of the traced wall time ({} ops)",
            layer_sum * 100.0,
            trace.ops()
        ));
    }
    let overhead = run.traced.slowdown_vs(&run.untraced);
    all.push((
        "trace.layer_sum_pct",
        Some(layer_sum * 100.0),
        "%",
        trace.ops(),
    ));
    all.push((
        "trace.overhead_pct",
        Some(overhead * 100.0),
        "%",
        run.untraced.ops,
    ));
    all.push(("trace.ops", Some(trace.ops() as f64), "count", trace.ops()));
    all.push((
        "trace.wall_ms",
        Some(wall.as_secs_f64() * 1e3),
        "ms",
        trace.ops(),
    ));

    println!("layer self time (all traced operations):");
    for (layer, d) in &totals {
        println!(
            "  {layer:<32} {:>12.3} ms {:>6.2}%",
            d.as_secs_f64() * 1e3,
            100.0 * ratio(d.as_secs_f64(), wall.as_secs_f64())
        );
    }
    println!(
        "layer sum = {:.2}% of traced wall {:.3} ms; tracing overhead = {:+.2}% at the same \
         mix (untraced {:.3} ops/s over {} ops, traced {:.3} ops/s over {} ops)",
        layer_sum * 100.0,
        wall.as_secs_f64() * 1e3,
        overhead * 100.0,
        run.untraced.ops_per_s(),
        run.untraced.ops,
        run.traced.ops_per_s(),
        run.traced.ops
    );
    for (name, value, unit, n) in &all {
        match value {
            Some(v) => println!("layer {name} = {v} {unit} (n={n})"),
            None => println!("layer {name} = n/a (no calls)"),
        }
    }
    if let Err(e) = write_trace(run, workload, seed) {
        println!("trace file not written: {e}");
    }

    let mut out = Vec::new();
    for name in PER_LAYER {
        match all.iter().find(|(n, _, _, _)| *n == name) {
            Some((_, Some(v), unit, _)) => out.push((name, *v, *unit)),
            _ => failures.push(format!("{name} was not measured")),
        }
    }
    out
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Write the traced run's spans, one JSON object a line, under
/// `perfbench/out/`.
fn write_trace(run: &Run, workload: Workload, seed: u64) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    std::fs::write(&path, run.trace.to_jsonl())?;
    println!("trace spans written to {}", path.display());
    Ok(())
}

/// The environment a result was measured in, as one JSON object.
fn env_stamp(run: &Run, seed: u64) -> String {
    let rows = |m: &std::collections::BTreeMap<String, usize>| {
        let inner: Vec<String> = m.iter().map(|(t, n)| format!("\"{t}\": {n}")).collect();
        format!("{{{}}}", inner.join(", "))
    };
    format!(
        "{{\"nproc\": {}, \"parallelism\": {}, \"profile\": \"{}\", \"commit\": \"{}\", \
         \"seed\": {seed}, \"rows_start\": {}, \"rows_end\": {}}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        PlannerOptions::default().parallelism,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit().unwrap_or_else(|| "unknown".to_string()),
        rows(&run.rows_start),
        rows(&run.rows_end)
    )
}

/// The commit checked out in the current directory or a parent, read from
/// `.git` without running git.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|p| p.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
