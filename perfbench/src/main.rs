//! The repository benchmark. One command runs one named workload through
//! the public `Session` / `Server` / `run_stream` API, checks its
//! outputs, and prints its metrics by name and unit:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tenant_mix --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run. `--trace
//! 1` runs the same timed phase untraced and then traced, replays a
//! seeded sample of the workload's items through the layer entry points,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Runs leave a record line, a plan record and (traced) the span table
//! under `.perfbench_out/` in the working directory.

mod common;
mod scan;
mod serving;
mod stats;
mod stream;
mod tenant;
mod trace;

use common::{Checks, Metrics};
use smol_core::PlanCandidate;
use smol_serve::{Query, Session};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["scan_fullres", "tenant_mix", "stream_overload"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports every one of them.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_ips", "outputs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("deadline_met_ratio", "ratio"),
    ("served_accuracy", "fraction"),
    ("fidelity_share", "ratio"),
    ("coverage", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units. A layer that does no
/// work in a workload reports 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("codec.decode_ms_p50", "ms"),
    ("codec.decode_cpu_s", "s"),
    ("codec.bytes_in_mb", "MiB"),
    ("imgproc.preproc_ms_p50", "ms"),
    ("imgproc.preproc_cpu_s", "s"),
    ("runtime.produce_ms_p50", "ms"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_evictions", "count"),
    ("runtime.cache_lookup_us_p50", "us"),
    ("runtime.pool_waits", "count"),
    ("accel.occupancy", "ratio"),
    ("accel.mean_batch", "images"),
    ("serve.submit_block_ms_tail", "ms"),
    ("serve.query_wall_ms_p50", "ms"),
    ("serve.full_batch_ratio", "ratio"),
    ("serve.cross_query_ratio", "ratio"),
    ("serve.steals", "count"),
    ("serve.degradations", "count"),
    ("serve.waiting_admission_max", "count"),
    ("core.explain_miss_ms", "ms"),
    ("core.explain_hit_us", "us"),
    ("core.profiler_calls", "count"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.est_over_measured", "ratio"),
    ("video.gop_decode_ms_p50", "ms"),
    ("video.frames_decoded", "count"),
    ("stream.lag_p95_ms", "ms"),
    ("stream.downgraded_share", "ratio"),
    ("stream.dropped_share", "ratio"),
    ("data.store_load_s", "s"),
    ("bench.send_lag_tail_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// What a workload hands back to `main`.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub checks: Checks,
    /// Outputs the workload asked for, and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
    /// `(query class, chosen plan)` as `Session::explain` picked them.
    pub plan_labels: Vec<(String, String)>,
}

/// A set-up session with its query classes explained once.
pub struct Setup {
    pub session: Arc<Session>,
    /// `(class name, query)`, one per query class.
    pub classes: Vec<(String, Query)>,
    /// The plan `Session::explain` chose for each class.
    pub chosen: Vec<PlanCandidate>,
    /// `Session::new` through the first explain of every class.
    pub setup_s: f64,
    pub explain_miss_s: Vec<f64>,
    pub explain_hit_s: Vec<f64>,
    /// Seconds spent materializing and loading the variant store.
    pub store_s: f64,
}

impl Setup {
    /// Explains every class (the planning misses that end set-up), stops
    /// the set-up clock, then explains each again to time a cache hit.
    pub fn finish(
        session: Session,
        classes: Vec<(String, Query)>,
        start: Instant,
        tracer: &Tracer,
        store_s: f64,
    ) -> Setup {
        let explain = |i: usize, q: &Query| {
            let t = Instant::now();
            let e = tracer
                .span("core.explain", None, i as u64, |_| session.explain(q))
                .expect("every query class is feasible");
            (e, t.elapsed().as_secs_f64())
        };
        let mut chosen = Vec::new();
        let mut explain_miss_s = Vec::new();
        for (i, (_, q)) in classes.iter().enumerate() {
            let (e, t) = explain(i, q);
            chosen.push(e.chosen);
            explain_miss_s.push(t);
        }
        let setup_s = start.elapsed().as_secs_f64();
        let explain_hit_s = classes
            .iter()
            .enumerate()
            .map(|(i, (_, q))| explain(i, q).1)
            .collect();
        Setup {
            session: Arc::new(session),
            classes,
            chosen,
            setup_s,
            explain_miss_s,
            explain_hit_s,
            store_s,
        }
    }

    pub fn plan_labels(&self) -> Vec<(String, String)> {
        self.classes
            .iter()
            .zip(&self.chosen)
            .map(|((class, _), c)| {
                (
                    class.clone(),
                    format!("{} [{:?}]", c.plan.label(), c.plan.decode),
                )
            })
            .collect()
    }

    /// The planner's per-layer metrics.
    pub fn core_metrics(&self, m: &mut Metrics) {
        // Mean, not median: only the first class of each dataset pays for
        // profiling, and that cost is what set-up work shows up as.
        m.set(
            "core.explain_miss_ms",
            self.explain_miss_s.iter().sum::<f64>() / self.explain_miss_s.len().max(1) as f64 * 1e3,
        );
        m.set(
            "core.explain_hit_us",
            stats::median(&self.explain_hit_s) * 1e6,
        );
        m.set(
            "core.profiler_calls",
            self.session.profiler().calls() as f64,
        );
        let c = self.session.cache_stats();
        m.set(
            "core.plan_cache_hit_ratio",
            stats::ratio(c.hits as f64, (c.hits + c.misses) as f64, 0.0),
        );
        m.set("data.store_load_s", self.store_s);
    }
}

/// Sets up [`SETUP_REPS`] times, dropping each session before the next,
/// and returns the last set-up with the median set-up seconds. Only the
/// last one is traced.
pub fn set_up(tracer: &Tracer, mut f: impl FnMut(&Tracer) -> Setup) -> (Setup, f64) {
    let off = Tracer::new(false);
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let s = f(if rep + 1 == SETUP_REPS { tracer } else { &off });
        times.push(s.setup_s);
        last = Some(s);
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times))
}

struct Args {
    workload: String,
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
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The source revision: git's HEAD when the tree is a repository, else
/// an FNV-1a hash over the sources the benchmark builds.
fn revision() -> String {
    let git = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
            return Some(rev.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    if let Some(rev) = git() {
        return rev;
    }
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "third_party"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-fnv:{h:016x}")
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

/// Compares this run's plan choices with the first run's of the same
/// workload in this tree; a difference is flagged, never averaged away
/// silently. Returns the differing classes.
fn plan_flips(workload: &str, labels: &[(String, String)]) -> Vec<String> {
    let path = common::out_dir().join(format!("plans-{workload}.tsv"));
    let mine: String = labels.iter().map(|(c, l)| format!("{c}\t{l}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(first) => {
            let first: Vec<&str> = first.lines().collect();
            mine.lines()
                .zip(first.iter().chain(std::iter::repeat(&"")))
                .filter(|(a, b)| a != *b)
                .map(|(a, _)| a.split('\t').next().unwrap_or(a).to_string())
                .collect()
        }
        Err(_) => {
            let _ = std::fs::write(&path, mine);
            Vec::new()
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let params = match args.workload.as_str() {
        "scan_fullres" => scan::params(),
        "tenant_mix" => tenant::params(args.seconds),
        _ => stream::params(args.seconds),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = revision();
    let mut banner = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("cores", cores.to_string()),
        ("revision", rev),
        ("profile", profile.to_string()),
    ];
    banner.extend(params);
    for (k, v) in &banner {
        println!("# {k}: {v}");
    }

    let tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "scan_fullres" => scan::run(args.seed, args.seconds, &tracer),
        "tenant_mix" => tenant::run(args.seed, args.seconds, &tracer),
        _ => stream::run(args.seed, args.seconds, &tracer),
    };

    let flips = plan_flips(&args.workload, &out.plan_labels);
    for (class, label) in &out.plan_labels {
        println!("# plan {class}: {label}");
    }
    if !flips.is_empty() {
        println!("# PLAN FLIP: {flips:?} chose differently from this tree's first run");
    }
    for note in out.e2e.notes.iter().chain(&out.layers.notes) {
        println!("# {note}");
    }
    let spans = tracer.spans();
    if args.trace {
        println!("# layer self time (replay and traced phase):");
        for (layer, (n, secs)) in trace::layer_self_times(&spans) {
            println!("#   {layer:<8} {n:>6} spans {:>10.3} ms", secs * 1e3);
        }
        let path = common::out_dir().join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let (metrics, table) = if args.trace {
        (&out.layers, &PER_LAYER[..])
    } else {
        (&out.e2e, &END_TO_END[..])
    };
    let mut body = Vec::new();
    for &(name, unit) in table {
        let value = metrics.values.get(name).copied().unwrap_or(0.0);
        out.checks.check(value.is_finite(), || {
            format!("metric {name} is not finite ({value})")
        });
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# {name:<30} {value:>14.4} {unit}");
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for f in &out.checks.failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = out.checks.failures.is_empty();
    let attempted = out.attempted + out.checks.passed + out.checks.failures.len();
    let failed = out.failed + out.checks.failures.len();

    let record = format!(
        "{{\"banner\": {{{}}}, \"plans\": {{{}}}, \"plan_flips\": [{}], \"checks_failed\": [{}], \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
        banner
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
        out.plan_labels
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
        flips.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
        out.checks
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
        body.join(", "),
    );
    let runs = common::out_dir().join("runs.jsonl");
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&runs)
        .and_then(|mut f| f.write_all(record.as_bytes()))
    {
        eprintln!("perfbench: cannot append {}: {e}", runs.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
