//! The RQ1 workload: the demographic-disparity scan of every detector over
//! all five datasets at the full-scale pool size, rendering Figures 1 and 2
//! from one analysis, and a traced replay of the scan.

use crate::calib::HostSpeed;
use crate::trace::{self, Tracer};
use crate::{elapsed_s, group_specs, Outcome, Scaled};
use cleaning::detect::DetectorKind;
use datasets::{DatasetId, ErrorType};
use demodq::report::render_disparities;
use demodq::rq1::{analyze_dataset, analyze_datasets, DisparityRow};
use statskit::g_test_2x2;
use std::time::Instant;
use tabular::Result;

/// Rows per dataset pool: the RQ1 pool size of the full study scale.
pub const POOL_ROWS: usize = 80_000;
/// Set-up samples whose median is `setup_s`.
const SETUP_SAMPLES: usize = 10;
const ALPHA: f64 = 0.05;

/// Detectors the scan runs on `id`: every detector, except missing-value
/// detection on a dataset without missing values.
fn detectors_for(has_missing: bool) -> impl Iterator<Item = DetectorKind> {
    DetectorKind::all()
        .into_iter()
        .filter(move |d| has_missing || *d != DetectorKind::MissingValues)
}

fn setup(seed: u64) -> Result<f64> {
    let start = Instant::now();
    for id in DatasetId::all() {
        std::hint::black_box(id.generate(POOL_ROWS, seed)?);
    }
    Ok(elapsed_s(start))
}

/// The end-to-end run: whole scans until `seconds` have been measured.
/// Each dataset's analysis is one latency sample; rendering both figures
/// counts toward throughput. Set-up samples are taken before the first
/// scan and after each dataset's analysis, and host-speed samples before
/// every analysis and set-up, so that both span the run.
/// Checks that every scan has one row per (detector, group spec) and
/// that every scan after the first repeats the first exactly.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome> {
    let mut speed = HostSpeed::default();
    speed.sample();
    let mut out = Outcome {
        setup_s: vec![setup(seed)?],
        ..Outcome::default()
    };
    let mut first: Option<String> = None;
    let mut busy = 0.0;
    let mut cpu = 0.0;
    let mut rows_analysed = 0usize;
    let mut passes = 0usize;
    while passes == 0 || busy < seconds {
        let mut pass_s = 0.0;
        let mut cpu_s = 0.0;
        let mut rows: Vec<DisparityRow> = Vec::new();
        for id in DatasetId::all() {
            speed.sample();
            let call = Instant::now();
            let cpu_start = crate::cpu_seconds("self").unwrap_or(f64::NAN);
            let part = analyze_dataset(id, POOL_ROWS, seed)?;
            cpu_s += crate::cpu_seconds("self").unwrap_or(f64::NAN) - cpu_start;
            pass_s += elapsed_s(call);
            out.latencies_ms.push(elapsed_s(call) * 1e3);
            let detectors =
                detectors_for(id.spec().has_error_type(ErrorType::MissingValues)).count();
            out.attempted += detectors as u64;
            let expected = detectors * group_specs(id).len();
            if part.len() != expected {
                out.mismatch(format!(
                    "{}: {} rows, expected {expected}",
                    id.name(),
                    part.len()
                ));
                out.failed += detectors as u64;
            }
            rows.extend(part);
            if out.setup_s.len() < SETUP_SAMPLES {
                speed.sample();
                out.setup_s.push(setup(seed)?);
            }
        }
        let render = Instant::now();
        let cpu_start = crate::cpu_seconds("self").unwrap_or(f64::NAN);
        let figures =
            render_disparities(&rows, false, ALPHA) + &render_disparities(&rows, true, ALPHA);
        cpu += cpu_s + crate::cpu_seconds("self").unwrap_or(f64::NAN) - cpu_start;
        busy += pass_s + elapsed_s(render);
        rows_analysed += DatasetId::all().len() * POOL_ROWS;
        std::hint::black_box(figures);
        let digest = format!("{rows:?}");
        match &first {
            Some(f) if *f != digest => out.mismatch(format!("scan {passes} differs from scan 0")),
            Some(_) => {}
            None => first = Some(digest),
        }
        passes += 1;
    }
    while out.setup_s.len() < SETUP_SAMPLES {
        speed.sample();
        out.setup_s.push(setup(seed)?);
    }
    out.host_speed = Some((speed, Scaled::AllTimes));
    out.ops_per_s = rows_analysed as f64 / busy;
    out.cpu_us_per_op = cpu * 1e6 / rows_analysed as f64;
    out.detail("passes", passes);
    Ok(out)
}

/// Flagged-row counters per detector, in `DetectorKind::all()` order.
const FLAGGED: [&str; 5] = [
    "cleaning.flagged.missing_values",
    "cleaning.flagged.outliers-sd",
    "cleaning.flagged.outliers-iqr",
    "cleaning.flagged.outliers-if",
    "cleaning.flagged.mislabels",
];

fn detect_span(d: DetectorKind) -> &'static str {
    match d {
        DetectorKind::MissingValues => "cleaning.detect_s.missing_values",
        DetectorKind::OutliersSd { .. } => "cleaning.detect_s.outliers-sd",
        DetectorKind::OutliersIqr { .. } => "cleaning.detect_s.outliers-iqr",
        DetectorKind::OutliersIf { .. } => "cleaning.detect_s.outliers-if",
        _ => "cleaning.detect_s.mislabels",
    }
}

/// `analyze_dataset` rebuilt from the public `datasets`, `cleaning`,
/// `fairness` and `statskit` calls, one span per layer call.
fn replay_dataset(
    id: DatasetId,
    seed: u64,
    tracer: &Tracer,
    flagged: &mut [u64; 5],
) -> Result<Vec<DisparityRow>> {
    let frame = tracer.span("datasets.generate_s", None, 0, |_| {
        id.generate(POOL_ROWS, seed)
    })?;
    let specs = group_specs(id);
    let mut rows = Vec::new();
    for detector in detectors_for(frame.missing_cells() > 0) {
        let report = tracer.span(detect_span(detector), None, 0, |_| {
            detector.fit(&frame, seed ^ 0xD47A)?.detect(&frame)
        })?;
        let slot = DetectorKind::all()
            .iter()
            .position(|d| d.name() == detector.name())
            .unwrap_or(0);
        flagged[slot] += report.flagged_rows() as u64;
        for gs in &specs {
            let (pf, pu, df, du) = tracer.span("fairness.groups_s", None, 0, |_| -> Result<_> {
                let groups = gs.evaluate(&frame)?;
                let (pf, pu) = report.counts_within(&groups.privileged);
                let (df, du) = report.counts_within(&groups.disadvantaged);
                Ok((pf, pu, df, du))
            })?;
            let g_test = tracer.span("statskit.g_test_s", None, 0, |_| g_test_2x2(pf, pu, df, du));
            rows.push(DisparityRow {
                dataset: id.name().to_string(),
                detector: detector.name().to_string(),
                group: gs.label(),
                intersectional: gs.is_intersectional(),
                privileged_flagged: pf,
                privileged_total: pf + pu,
                disadvantaged_flagged: df,
                disadvantaged_total: df + du,
                g_test,
            });
        }
    }
    Ok(rows)
}

/// The traced run: the untraced `analyze_datasets` as the reference, then
/// the traced replay, whose rows must equal the reference's.
pub fn traced(seed: u64, trace_file: Option<&std::path::Path>) -> Result<Outcome> {
    let mut out = Outcome::default();
    let start = Instant::now();
    let reference = analyze_datasets(&DatasetId::all(), POOL_ROWS, seed)?;
    let reference_s = elapsed_s(start);

    let tracer = Tracer::new(true);
    let mut flagged = [0u64; 5];
    let start = Instant::now();
    let mut rows = Vec::new();
    for id in DatasetId::all() {
        rows.extend(replay_dataset(id, seed, &tracer, &mut flagged)?);
    }
    let traced_s = elapsed_s(start);
    out.attempted = rows
        .iter()
        .map(|r| (&r.dataset, &r.detector))
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    if format!("{rows:?}") != format!("{reference:?}") {
        out.mismatch("replayed RQ1 rows differ from analyze_datasets".to_string());
        out.failed = out.attempted;
    }

    let spans = tracer.spans();
    let by_name = trace::self_time_by_name(&spans);
    for d in DetectorKind::all() {
        let name = detect_span(d);
        out.layer(
            name,
            by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9),
        );
    }
    for name in [
        "fairness.groups_s",
        "statskit.g_test_s",
        "datasets.generate_s",
    ] {
        out.layer(
            name,
            by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9),
        );
    }
    for (name, count) in FLAGGED.iter().zip(flagged) {
        out.layer(name, count as f64);
    }
    out.layer(
        "runner.busy_frac",
        trace::busy_fraction(
            &spans,
            rayon::current_num_threads(),
            (traced_s * 1e9) as u64,
        ),
    );
    out.layer("bench.trace_overhead_frac", traced_s / reference_s - 1.0);
    out.detail("reference_s", reference_s);
    out.detail("traced_s", traced_s);
    if let Some(path) = trace_file {
        crate::write_trace(path, &spans)
            .map_err(|e| tabular::TabularError::InvalidArgument(e.to_string()))?;
    }
    Ok(out)
}
