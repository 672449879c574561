//! perfbench: the repository's benchmark. Runs one named workload from a
//! seed, measures it for a fixed number of seconds, checks the program's
//! outputs, and prints a report line followed by the result line:
//!
//! ```text
//! perfbench --workload study-smoke --seed 1 --seconds 8 --trace 0 \
//!     [--trace-file trace.json] [--work-dir DIR] [--serve-bin PATH] \
//!     [--rustc VERSION]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` runs the traced
//! replay and reports the per-layer metrics (and, with `--trace-file`,
//! writes the spans as Chrome trace-event JSON). `perfbench/run.py` builds
//! this binary and the server and is the command to use.

mod calib;
mod rq1;
mod serve;
mod stats;
mod study;
mod trace;

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit). Every workload reports all of them; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("datasets.generate_s", "s"),
    ("tabular.sample_s", "s"),
    ("tabular.encode_s", "s"),
    ("cleaning.prepare_s", "s"),
    ("mlcore.fit_s.log-reg", "s"),
    ("mlcore.fit_s.knn", "s"),
    ("mlcore.fit_s.xgboost", "s"),
    ("mlcore.predict_s", "s"),
    ("mlcore.unit_p50_ms", "ms"),
    ("mlcore.unit_tail_ms", "ms"),
    ("rectify.s", "s"),
    ("rectify.nodes_expanded", "count"),
    ("rectify.pruned_frac", "ratio"),
    ("fairness.score_s", "s"),
    ("runner.busy_frac", "ratio"),
    ("core.journal_records", "count"),
    ("core.journal_bytes", "bytes"),
    ("statskit.tables_s", "s"),
    ("statskit.tests", "count"),
    ("cleaning.detect_s.missing_values", "s"),
    ("cleaning.detect_s.outliers-sd", "s"),
    ("cleaning.detect_s.outliers-iqr", "s"),
    ("cleaning.detect_s.outliers-if", "s"),
    ("cleaning.detect_s.mislabels", "s"),
    ("cleaning.flagged.missing_values", "count"),
    ("cleaning.flagged.outliers-sd", "count"),
    ("cleaning.flagged.outliers-iqr", "count"),
    ("cleaning.flagged.outliers-if", "count"),
    ("cleaning.flagged.mislabels", "count"),
    ("fairness.groups_s", "s"),
    ("statskit.g_test_s", "s"),
    ("serve.parse_us", "us"),
    ("serve.route_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.score_us", "us"),
    ("serve.drift_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.client_p50_ms", "ms"),
    ("serve.client_tail_ms", "ms"),
    ("serve.batch_mean_requests", "count"),
    ("serve.residual_us", "us"),
    ("serve.registry_train_s", "s"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Set-up times of the repeated set-ups, in seconds.
    pub setup_s: Vec<f64>,
    /// One latency sample per operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub ops_per_s: f64,
    /// CPU microseconds the program spent per operation while measured.
    pub cpu_us_per_op: f64,
    /// Peak RSS the run reports: the server's, or this process's at a point
    /// the workload chose; `None` means this process's at the end.
    pub program_rss_mb: Option<f64>,
    /// Host speed over the run and the metrics it scales to the reference
    /// host (see [`calib`]); `None` leaves every metric as measured.
    pub host_speed: Option<(calib::HostSpeed, Scaled)>,
    pub layers: BTreeMap<&'static str, f64>,
    pub details: Map<String, Value>,
}

impl Outcome {
    pub fn mismatch(&mut self, message: String) {
        eprintln!("perfbench: mismatch: {message}");
        self.mismatches.push(message);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: impl Into<Value>) {
        self.details.insert(key.to_string(), value.into());
    }
}

/// Which end-to-end times a run's host speed scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaled {
    /// `ops_per_s`, `cpu_us_per_op` and `setup_s`: the program computed in
    /// this process, and its speed moves with the host's.
    AllTimes,
    /// `setup_s` alone. A server's throughput under an open loop is the
    /// offered rate, and its CPU per request at these rates is mostly
    /// system calls and wake-ups, which the reference kernel does not track.
    SetupOnly,
}

/// The dataset's group definitions: every single-attribute spec, then the
/// intersectional one when the dataset declares it.
pub fn group_specs(id: datasets::DatasetId) -> Vec<fairness::GroupSpec> {
    let spec = id.spec();
    let mut gs = spec.single_attribute_specs();
    gs.extend(spec.intersectional_spec());
    gs
}

pub fn elapsed_s(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Writes spans as Chrome trace-event JSON.
pub fn write_trace(path: &Path, spans: &[trace::Span]) -> std::io::Result<()> {
    let text = serde_json::to_string(&trace::chrome_trace(spans)).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds a process has used so far.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
    work_dir: PathBuf,
    serve_bin: Option<PathBuf>,
    rustc: String,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH] \
         [--work-dir DIR] [--serve-bin PATH] [--rustc VERSION]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_file: None,
        work_dir: PathBuf::from(".bench_work"),
        serve_bin: None,
        rustc: "unknown".to_string(),
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an unsigned integer"));
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--trace-file" => args.trace_file = Some(PathBuf::from(value)),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            "--rustc" => args.rustc = value,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() || !seen_seed || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--workload, --seed and a positive --seconds are required");
    }
    args
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let serve_bin = || {
        args.serve_bin
            .clone()
            .ok_or_else(|| "serve workloads need --serve-bin".to_string())
    };
    let trace_file = args.trace_file.as_deref();
    let work = &args.work_dir;
    let tabular_err = |e: tabular::TabularError| e.to_string();
    match (args.workload.as_str(), args.trace) {
        ("study-smoke", false) => {
            study::run(&study::StudySpec::smoke(), args.seed, args.seconds, work)
                .map_err(tabular_err)
        }
        ("study-smoke", true) => {
            study::traced(&study::StudySpec::smoke(), args.seed, work, trace_file)
                .map_err(tabular_err)
        }
        ("study-large", false) => {
            study::run(&study::StudySpec::large(), args.seed, args.seconds, work)
                .map_err(tabular_err)
        }
        ("study-large", true) => {
            study::traced(&study::StudySpec::large(), args.seed, work, trace_file)
                .map_err(tabular_err)
        }
        ("rq1-full", false) => rq1::run(args.seed, args.seconds).map_err(tabular_err),
        ("rq1-full", true) => rq1::traced(args.seed, trace_file).map_err(tabular_err),
        ("serve-low", trace) => serve::run(
            serve::LOW_RPS,
            &serve_bin()?,
            args.seed,
            args.seconds,
            work,
            trace,
            trace_file,
        ),
        ("serve-high", trace) => serve::run(
            serve::HIGH_RPS,
            &serve_bin()?,
            args.seed,
            args.seconds,
            work,
            trace,
            trace_file,
        ),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// The metrics of the result line, in table order.
fn result_metrics(args: &Args, out: &mut Outcome) -> Vec<(&'static str, f64, &'static str)> {
    if args.trace {
        let unlisted: Vec<&str> = out
            .layers
            .keys()
            .copied()
            .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == k))
            .collect();
        for name in unlisted {
            out.mismatch(format!("workload emitted unlisted per-layer metric {name}"));
        }
        return PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
    }
    if let Some(s) = stats::summarize(&out.latencies_ms) {
        out.detail("p50_ms", s.median);
        out.detail("tail_ms", s.tail);
        out.detail("tail_quantile", s.tail_q);
        out.detail("latency_samples", s.n);
    }
    let rss = out
        .program_rss_mb
        .or_else(|| peak_rss_mb("self"))
        .unwrap_or(f64::NAN);
    let mut ops_per_s = out.ops_per_s;
    let mut cpu_us_per_op = out.cpu_us_per_op;
    let mut setup_s = stats::median(&out.setup_s).unwrap_or(f64::NAN);
    if let Some((speed, scaled)) = out.host_speed.take() {
        let slowdown = speed.slowdown().unwrap_or(f64::NAN);
        out.detail("host_slowdown", slowdown);
        out.detail("kernel_runs", speed.runs());
        out.detail("raw_setup_s", setup_s);
        setup_s /= slowdown;
        if scaled == Scaled::AllTimes {
            out.detail("raw_ops_per_s", ops_per_s);
            out.detail("raw_cpu_us_per_op", cpu_us_per_op);
            ops_per_s *= slowdown;
            cpu_us_per_op /= slowdown;
        }
    }
    let values = [ops_per_s, cpu_us_per_op, rss, setup_s];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn main() {
    let args = parse_args();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    rayon::set_global_threads(threads);
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        usage(&format!(
            "cannot create work dir {}: {e}",
            args.work_dir.display()
        ));
    }
    let started = Instant::now();
    let mut out = match run_workload(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let metrics = result_metrics(&args, &mut out);
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        out.mismatch(format!("metric {name} was not measured"));
    }
    let correct = out.mismatches.is_empty() && out.attempted > 0;
    out.detail("fail_frac", out.failed as f64 / out.attempted.max(1) as f64);
    let report = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_s": elapsed_s(started),
        "host": {
            "nproc": threads,
            "cpu_model": cpu_model(),
            "pool_threads": rayon::current_num_threads(),
            "rustc": args.rustc,
        },
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "mismatches": Value::from(out.mismatches.clone()),
        "setup_s_samples": Value::from(out.setup_s.clone()),
        "details": Value::Object(out.details.clone()),
        "metrics": Value::Object(metrics.iter().map(|&(n, v, u)| (n.to_string(), json!({"value": v, "unit": u}))).collect()),
    });
    println!(
        "{}",
        serde_json::to_string(&json!({ "report": report })).unwrap_or_default()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            // A metric that was not measured makes the run incorrect; print
            // it as null so the line stays valid JSON.
            let value = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!("\"{n}\": {{\"value\": {value}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary reports, with the same units.
    #[test]
    fn benchmark_manifest_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Value, k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            manifest
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
    }
}
