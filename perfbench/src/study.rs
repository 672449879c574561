//! The study workloads: `run_error_type_study_with` over every error type,
//! followed by the RQ2 impact tables, and a traced replay of the same grid
//! built from the public `pipeline` and `cleaning` functions.

use crate::calib::HostSpeed;
use crate::trace::{self, Tracer};
use crate::{elapsed_s, group_specs, Outcome, Scaled};
use cleaning::detect::DetectorKind;
use cleaning::repair::{CatImpute, LabelRepair, MissingRepair, NumImpute};
use cleaning::DetectionReport;
use datasets::{DatasetId, ErrorType};
use demodq::config::{RepairSide, RepairSpec, StudyOptions, StudyScale};
use demodq::export::study_results_json;
use demodq::pipeline::{encode_arm, fit_unit, rectify_unit_model, sample_split, EncodedArm};
use demodq::runner::{run_error_type_study_with, ConfigScores, GroupMetricScores, StudyResults};
use demodq::tables::build_table;
use demodq::{ExperimentConfig, PhaseSeconds};
use fairness::{group_confusions, FairnessMetric};
use mlcore::ModelKind;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tabular::{BlockStore, DataFrame, Result, TabularError};

/// One study workload: a scale, the error types a pass runs and the model
/// roster it trains.
pub struct StudySpec {
    pub scale: StudyScale,
    pub errors: Vec<ErrorType>,
    pub models: Vec<ModelKind>,
    /// Set-up samples whose median is `setup_s`.
    pub setup_samples: usize,
    /// Set-ups timed together as one sample, so a sample lasts long enough
    /// to time steadily; the sample is their mean.
    pub setups_per_sample: usize,
}

impl StudySpec {
    pub fn smoke() -> StudySpec {
        StudySpec {
            scale: StudyScale::smoke(),
            errors: ErrorType::all().to_vec(),
            models: ModelKind::all().to_vec(),
            setup_samples: 5,
            setups_per_sample: 250,
        }
    }

    /// Missing values only, so that one pass takes a few seconds and a run
    /// holds several passes.
    pub fn large() -> StudySpec {
        StudySpec {
            scale: StudyScale::large(),
            errors: vec![ErrorType::MissingValues],
            models: vec![ModelKind::LogReg, ModelKind::Gbdt],
            setup_samples: 3,
            setups_per_sample: 1,
        }
    }

    /// Every dataset some error type of the pass runs on.
    fn datasets(&self) -> Vec<DatasetId> {
        DatasetId::all()
            .into_iter()
            .filter(|id| self.errors.iter().any(|&e| id.spec().has_error_type(e)))
            .collect()
    }
}

/// Passes every run makes at least.
const MIN_PASSES: usize = 3;

const SIDE: RepairSide = RepairSide::Both;
const ALPHA: f64 = 0.05;

/// The four RQ2 tables of one error type: (PP, EO) × (single, intersectional).
const TABLES: [(FairnessMetric, bool); 4] = [
    (FairnessMetric::PredictiveParity, false),
    (FairnessMetric::EqualOpportunity, false),
    (FairnessMetric::PredictiveParity, true),
    (FairnessMetric::EqualOpportunity, true),
];

/// FNV-1a, as the runner derives per-dataset seeds.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The runner's split-seed derivation.
fn split_seed(study_seed: u64, dataset: DatasetId, split: usize) -> u64 {
    study_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(fnv(dataset.name()))
        .wrapping_add(split as u64 * 0xA24BAED4963EE407)
}

fn datasets_for(error: ErrorType) -> Vec<DatasetId> {
    DatasetId::all()
        .into_iter()
        .filter(|id| id.spec().has_error_type(error))
        .collect()
}

/// Evaluation units of one error type's grid, counted from the grid's
/// shape alone.
fn grid_units(spec: &StudySpec, error: ErrorType) -> usize {
    datasets_for(error).len()
        * spec.scale.n_splits
        * spec.models.len()
        * spec.scale.n_model_seeds
        * (1 + RepairSpec::variants_for(error).len())
}

fn study_options(journal_dir: &Path) -> StudyOptions {
    StudyOptions {
        journal_dir: Some(journal_dir.to_path_buf()),
        repair_side: SIDE,
        ..StudyOptions::default()
    }
}

/// A fresh, empty journal directory under the run's work directory.
fn fresh_dir(work: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// (records, bytes) of every journal file in `dir`.
fn journal_size(dir: &Path) -> std::io::Result<(u64, u64)> {
    let mut records = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let text = std::fs::read_to_string(entry?.path())?;
        records += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        bytes += text.len() as u64;
    }
    Ok((records, bytes))
}

/// Set-up: generate every dataset pool the grid samples from, as the
/// runner does before its first task. One sample times
/// `setups_per_sample` set-ups and returns their mean.
fn setup(spec: &StudySpec, seed: u64) -> Result<f64> {
    let datasets = spec.datasets();
    let start = Instant::now();
    for _ in 0..spec.setups_per_sample {
        for id in &datasets {
            std::hint::black_box(id.generate_store(spec.scale.pool_size, seed ^ fnv(id.name()))?);
        }
    }
    Ok(elapsed_s(start) / spec.setups_per_sample as f64)
}

fn fail(message: String) -> TabularError {
    TabularError::InvalidArgument(message)
}

/// The end-to-end run: whole passes over the spec's error types until
/// `seconds` have been measured and at least [`MIN_PASSES`] were made.
/// `ops_per_s` and `cpu_us_per_op` are those of all passes together.
/// Set-up samples are taken before the first pass and between passes, and
/// host-speed samples before every call and set-up, so that both span the
/// run. `peak_rss_mb` is this process's peak at the end of the first pass:
/// one set-up and one pass of the grid. Checks the unit count against the
/// grid, that no task failed, that
/// the journal holds one record per task plus its header, and that every
/// pass after the first exports byte-identical results.
pub fn run(spec: &StudySpec, seed: u64, seconds: f64, work: &Path) -> Result<Outcome> {
    let mut speed = HostSpeed::default();
    speed.sample();
    let mut out = Outcome {
        setup_s: vec![setup(spec, seed)?],
        ..Outcome::default()
    };

    let mut cpu_total = 0.0;
    let mut first_exports: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut measured = 0.0;
    let mut pass_rates = Vec::new();
    let mut units = 0usize;
    let mut pass = 0usize;
    while pass < MIN_PASSES || measured < seconds {
        let (mut pass_units, mut busy, mut cpu) = (0usize, 0.0, 0.0);
        for &error in &spec.errors {
            let dir = fresh_dir(work, "journal").map_err(|e| fail(e.to_string()))?;
            let tasks = datasets_for(error).len() * spec.scale.n_splits;
            out.attempted += tasks as u64;
            speed.sample();
            let call = Instant::now();
            let cpu_start = crate::cpu_seconds("self").unwrap_or(f64::NAN);
            let results = run_error_type_study_with(
                error,
                &DatasetId::all(),
                &spec.models,
                &spec.scale,
                seed,
                &study_options(&dir),
            )?;
            let tables: usize = TABLES
                .iter()
                .map(|&(m, inter)| build_table(&results, m, inter, ALPHA).total())
                .sum();
            cpu += crate::cpu_seconds("self").unwrap_or(f64::NAN) - cpu_start;
            let wall = elapsed_s(call);
            busy += wall;
            out.latencies_ms.push(wall * 1e3);
            std::hint::black_box(tables);

            let expected = grid_units(spec, error);
            let n = results.n_model_evaluations();
            pass_units += n;
            out.failed += results.failed_tasks.len() as u64;
            let (records, _) = journal_size(&dir).map_err(|e| fail(e.to_string()))?;
            let export = study_results_json(&results);
            if n != expected || results.degraded() {
                out.mismatch(format!(
                    "{}: {n} units (grid {expected}), degraded {}",
                    error.name(),
                    results.degraded()
                ));
            }
            if records != tasks as u64 + 1 {
                out.mismatch(format!(
                    "{}: journal has {records} records for {tasks} tasks",
                    error.name()
                ));
            }
            match first_exports.get(error.name()) {
                Some(first) if *first != export => {
                    out.mismatch(format!(
                        "{}: pass {pass} export differs from pass 0",
                        error.name()
                    ));
                }
                Some(_) => {}
                None => {
                    first_exports.insert(error.name(), export);
                }
            }
        }
        units += pass_units;
        measured += busy;
        cpu_total += cpu;
        pass_rates.push(pass_units as f64 / busy);
        if pass == 0 {
            // Later passes add a few MB each on some seeds, as the
            // allocator's and the workers' retained buffers grow, so a
            // run's final peak depends on how many passes fit in it.
            out.program_rss_mb = crate::peak_rss_mb("self");
        }
        pass += 1;
        if out.setup_s.len() < spec.setup_samples {
            speed.sample();
            out.setup_s.push(setup(spec, seed)?);
        }
    }
    while out.setup_s.len() < spec.setup_samples {
        speed.sample();
        out.setup_s.push(setup(spec, seed)?);
    }
    out.ops_per_s = units as f64 / measured;
    out.cpu_us_per_op = cpu_total * 1e6 / units as f64;
    out.host_speed = Some((speed, Scaled::AllTimes));
    out.detail("passes", pass);
    out.detail("units", units);
    out.detail("pass_ops_per_s", pass_rates);
    Ok(out)
}

/// The shared dirty frames plus one repaired (train, test) pair per variant.
type Prepared = (DataFrame, DataFrame, Vec<(DataFrame, DataFrame)>);

fn baseline_imputer() -> MissingRepair {
    MissingRepair {
        num: NumImpute::Mean,
        cat: CatImpute::Dummy,
    }
}

fn drop_incomplete(train: &DataFrame) -> Result<DataFrame> {
    let kept = train.drop_incomplete_rows()?;
    if kept.n_rows() < 10 {
        return Err(fail(
            "dropping incomplete rows leaves too little training data".to_string(),
        ));
    }
    Ok(kept)
}

fn preclean(train: &DataFrame, test: &DataFrame) -> Result<(DataFrame, DataFrame)> {
    if train.missing_cells() == 0 && test.missing_cells() == 0 {
        return Ok((train.clone(), test.clone()));
    }
    let clean_train = drop_incomplete(train)?;
    let clean_test = baseline_imputer().fit(&clean_train)?.apply(test)?;
    Ok((clean_train, clean_test))
}

/// The runner's per-split preparation: detection once per detector,
/// one repair per variant, through the public `cleaning` API.
fn prepare(
    train: &DataFrame,
    test: &DataFrame,
    error: ErrorType,
    variants: &[RepairSpec],
    seed: u64,
) -> Result<Prepared> {
    let mismatch = || fail("variant/error mismatch".to_string());
    match error {
        ErrorType::MissingValues => {
            let dirty_train = drop_incomplete(train)?;
            let dirty_test = baseline_imputer().fit(&dirty_train)?.apply(test)?;
            let mut repaired = Vec::with_capacity(variants.len());
            for variant in variants {
                let RepairSpec::Missing(config) = variant else {
                    return Err(mismatch());
                };
                let fitted = config.fit(train)?;
                repaired.push((fitted.apply(train)?, fitted.apply(test)?));
            }
            Ok((dirty_train, dirty_test, repaired))
        }
        ErrorType::Outliers => {
            let (base_train, base_test) = preclean(train, test)?;
            let mut reports: BTreeMap<&'static str, (DetectionReport, DetectionReport)> =
                BTreeMap::new();
            let mut repaired = Vec::with_capacity(variants.len());
            for variant in variants {
                let RepairSpec::Outliers { detector, repair } = variant else {
                    return Err(mismatch());
                };
                if !reports.contains_key(detector.name()) {
                    let fitted = detector.fit(&base_train, seed)?;
                    reports.insert(
                        detector.name(),
                        (fitted.detect(&base_train)?, fitted.detect(&base_test)?),
                    );
                }
                let (train_report, test_report) = &reports[detector.name()];
                let fitted = repair.fit(&base_train, train_report)?;
                repaired.push((
                    fitted.apply(&base_train, train_report)?,
                    fitted.apply(&base_test, test_report)?,
                ));
            }
            Ok((base_train, base_test, repaired))
        }
        ErrorType::Mislabels => {
            let (base_train, base_test) = preclean(train, test)?;
            let report = DetectorKind::Mislabels
                .fit(&base_train, seed)?
                .detect(&base_train)?;
            let flipped = LabelRepair.apply(&base_train, &report)?;
            let repaired = variants
                .iter()
                .map(|_| (flipped.clone(), base_test.clone()))
                .collect();
            Ok((base_train, base_test, repaired))
        }
    }
}

fn fit_span(model: ModelKind) -> &'static str {
    match model {
        ModelKind::LogReg => "mlcore.fit_s.log-reg",
        ModelKind::Knn => "mlcore.fit_s.knn",
        ModelKind::Gbdt => "mlcore.fit_s.xgboost",
        _ => "mlcore.fit_s.other",
    }
}

/// Counters the replay collects beside its spans.
#[derive(Default)]
struct Counters {
    nodes_expanded: u64,
    nodes_pruned: u64,
}

/// One evaluation unit's (accuracy, disparities in group × metric order).
type UnitScores = (f64, Vec<f64>);

struct Grid<'a> {
    spec: &'a StudySpec,
    metrics: Vec<FairnessMetric>,
    tracer: &'a Tracer,
    counters: std::sync::Mutex<Counters>,
}

impl Grid<'_> {
    /// Fit, rectify when the side asks for it, predict, and score one unit.
    fn unit(
        &self,
        arm: &EncodedArm,
        model: ModelKind,
        seed: u64,
        rectify: bool,
        labels: &[(String, bool)],
        group: u64,
    ) -> UnitScores {
        let t = self.tracer;
        t.span("mlcore.unit", None, group, |uid| {
            let mut tuned = t.span(fit_span(model), uid, group, |_| {
                fit_unit(arm, model, self.spec.scale.cv_folds, seed)
            });
            if rectify {
                let report = t.span("rectify.s", uid, group, |_| {
                    rectify_unit_model(
                        tuned.model.as_mut(),
                        arm,
                        seed,
                        &StudyOptions::default().rectify,
                    )
                });
                if let Some(report) = report {
                    let mut c = self
                        .counters
                        .lock()
                        .expect("counter lock poisoned by a panicking worker");
                    c.nodes_expanded += report.bound.nodes_expanded as u64;
                    c.nodes_pruned += report.bound.nodes_pruned as u64;
                }
            }
            let preds = t.span("mlcore.predict_s", uid, group, |_| {
                tuned.model.predict(&arm.x_test)
            });
            t.span("fairness.score_s", uid, group, |_| {
                let accuracy = mlcore::accuracy(&arm.y_test, &preds);
                let mut disp = Vec::with_capacity(labels.len() * self.metrics.len());
                for (label, _) in labels {
                    let gc = arm
                        .groups
                        .iter()
                        .find(|(l, _)| l == label)
                        .map(|(_, masks)| group_confusions(&arm.y_test, &preds, masks));
                    for metric in &self.metrics {
                        disp.push(
                            gc.as_ref()
                                .and_then(|gc| metric.absolute_disparity(gc))
                                .unwrap_or(f64::NAN),
                        );
                    }
                }
                (accuracy, disp)
            })
        })
    }

    /// Sample, prepare and encode one (dataset, split) task, then run its
    /// (model × seed × arm) units on the pool. Returns the units' scores in
    /// the runner's grid order.
    fn task(
        &self,
        error: ErrorType,
        pool: &BlockStore,
        id: DatasetId,
        split: usize,
        study_seed: u64,
        task_group: u64,
    ) -> Result<Vec<UnitScores>> {
        let t = self.tracer;
        let scale = &self.spec.scale;
        let sseed = split_seed(study_seed, id, split);
        let variants = RepairSpec::variants_for(error);
        let specs = group_specs(id);
        let labels: Vec<(String, bool)> = specs
            .iter()
            .map(|g| (g.label(), g.is_intersectional()))
            .collect();
        let (train, test) = t.span("tabular.sample_s", None, task_group, |_| {
            sample_split(pool, scale, sseed)
        })?;
        let (dirty_train, dirty_test, repaired) =
            t.span("cleaning.prepare_s", None, task_group, |_| {
                prepare(&train, &test, error, &variants, sseed ^ 0x5EED)
            })?;
        let (dirty_arm, variant_arms) =
            t.span("tabular.encode_s", None, task_group, |_| -> Result<_> {
                let dirty = encode_arm(&dirty_train, &dirty_test, &specs)?;
                let arms = repaired
                    .iter()
                    .map(|(tr, te)| encode_arm(tr, te, &specs))
                    .collect::<Result<Vec<_>>>()?;
                Ok((dirty, arms))
            })?;
        let models = &self.spec.models;
        let n_arms = 1 + variant_arms.len();
        let n_seeds = scale.n_model_seeds;
        Ok((0..models.len() * n_seeds * n_arms)
            .into_par_iter()
            .map(|unit| {
                let m = unit / (n_seeds * n_arms);
                let k = (unit / n_arms) % n_seeds;
                let a = unit % n_arms;
                let model_seed = sseed
                    .wrapping_add(fnv(models[m].name()))
                    .wrapping_add(k as u64 * 0x2545F4914F6CDD1D);
                let arm = if a > 0 && SIDE.repairs_data() {
                    &variant_arms[a - 1]
                } else {
                    &dirty_arm
                };
                let group = (task_group << 20) | unit as u64;
                self.unit(
                    arm,
                    models[m],
                    model_seed,
                    a > 0 && SIDE.rectifies(),
                    &labels,
                    group,
                )
            })
            .collect())
    }

    /// The whole grid of one error type, assembled as the runner does.
    fn replay(&self, error: ErrorType, study_seed: u64) -> Result<StudyResults> {
        let t = self.tracer;
        // Task groups are unique across error types, so unit groups are too.
        let group_base = 1000
            * ErrorType::all()
                .iter()
                .position(|&e| e == error)
                .unwrap_or(0) as u64;
        let scale = &self.spec.scale;
        let datasets = datasets_for(error);
        let variants = RepairSpec::variants_for(error);
        let pools = datasets
            .iter()
            .map(|id| {
                t.span("datasets.generate_s", None, 0, |_| {
                    id.generate_store(scale.pool_size, study_seed ^ fnv(id.name()))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let tasks: Vec<(usize, usize)> = (0..datasets.len())
            .flat_map(|d| (0..scale.n_splits).map(move |s| (d, s)))
            .collect();
        let outputs = (0..tasks.len())
            .into_par_iter()
            .map(|i| {
                let (d, s) = tasks[i];
                self.task(
                    error,
                    &pools[d],
                    datasets[d],
                    s,
                    study_seed,
                    group_base + i as u64 + 1,
                )
            })
            .collect::<Vec<_>>()
            .into_iter()
            .collect::<Result<Vec<_>>>()?;

        let n_arms = 1 + variants.len();
        let n_seeds = scale.n_model_seeds;
        let mut configs = Vec::new();
        for (d, id) in datasets.iter().enumerate() {
            let labels: Vec<(String, bool)> = group_specs(*id)
                .iter()
                .map(|g| (g.label(), g.is_intersectional()))
                .collect();
            for (m, model) in self.spec.models.iter().enumerate() {
                for (v, variant) in variants.iter().enumerate() {
                    let mut cs = ConfigScores {
                        config: ExperimentConfig {
                            dataset: *id,
                            model: *model,
                            repair: *variant,
                        },
                        dirty_accuracy: Vec::new(),
                        repaired_accuracy: Vec::new(),
                        fairness: labels
                            .iter()
                            .flat_map(|(label, inter)| {
                                self.metrics.iter().map(move |metric| GroupMetricScores {
                                    group: label.clone(),
                                    intersectional: *inter,
                                    metric: *metric,
                                    dirty: Vec::new(),
                                    repaired: Vec::new(),
                                })
                            })
                            .collect(),
                    };
                    for s in 0..scale.n_splits {
                        let units = &outputs[d * scale.n_splits + s];
                        for k in 0..n_seeds {
                            let base = (m * n_seeds + k) * n_arms;
                            let (dirty_acc, dirty_disp) = &units[base];
                            let (rep_acc, rep_disp) = &units[base + 1 + v];
                            cs.dirty_accuracy.push(*dirty_acc);
                            cs.repaired_accuracy.push(*rep_acc);
                            for (slot, f) in cs.fairness.iter_mut().enumerate() {
                                f.dirty.push(dirty_disp[slot]);
                                f.repaired.push(rep_disp[slot]);
                            }
                        }
                    }
                    configs.push(cs);
                }
            }
        }
        Ok(StudyResults {
            error,
            scale: *scale,
            configs,
            failed_tasks: Vec::new(),
            journal_hits: 0,
            journal_warnings: 0,
            phases: PhaseSeconds::default(),
            repair_side: SIDE,
        })
    }
}

/// Paired t-tests `build_table` runs for one table: one accuracy test per
/// configuration and one fairness test per matching (group, metric) entry.
fn table_tests(results: &StudyResults, metric: FairnessMetric, intersectional: bool) -> usize {
    results
        .configs
        .iter()
        .map(|c| {
            1 + c
                .fairness
                .iter()
                .filter(|f| f.metric == metric && f.intersectional == intersectional)
                .count()
        })
        .sum()
}

/// The traced run: for each error type, the untraced runner (the
/// reference) and then the traced replay, whose export must be
/// byte-identical; the impact tables are built from the replay.
pub fn traced(
    spec: &StudySpec,
    seed: u64,
    work: &Path,
    trace_file: Option<&Path>,
) -> Result<Outcome> {
    let mut out = Outcome::default();
    let tracer = Tracer::new(true);
    let grid = Grid {
        spec,
        metrics: FairnessMetric::all().to_vec(),
        tracer: &tracer,
        counters: Default::default(),
    };
    let mut reference_s = 0.0;
    let mut traced_s = 0.0;
    let (mut journal_records, mut journal_bytes, mut tests) = (0u64, 0u64, 0usize);
    for &error in &spec.errors {
        let dir = fresh_dir(work, "journal").map_err(|e| fail(e.to_string()))?;
        let start = Instant::now();
        let reference = run_error_type_study_with(
            error,
            &DatasetId::all(),
            &spec.models,
            &spec.scale,
            seed,
            &study_options(&dir),
        )?;
        reference_s += elapsed_s(start);
        let (records, bytes) = journal_size(&dir).map_err(|e| fail(e.to_string()))?;
        journal_records += records;
        journal_bytes += bytes;

        let start = Instant::now();
        let replayed = grid.replay(error, seed)?;
        traced_s += elapsed_s(start);
        let tasks = (datasets_for(error).len() * spec.scale.n_splits) as u64;
        out.attempted += tasks;
        let units = replayed.n_model_evaluations();
        if study_results_json(&replayed) != study_results_json(&reference) {
            out.mismatch(format!(
                "{}: replayed scores differ from the runner's export",
                error.name()
            ));
            out.failed += tasks;
        } else if units != grid_units(spec, error) {
            out.mismatch(format!(
                "{}: replay ran {units} units, grid has {}",
                error.name(),
                grid_units(spec, error)
            ));
            out.failed += tasks;
        }
        for (metric, inter) in TABLES {
            tracer.span("statskit.tables_s", None, 0, |_| {
                std::hint::black_box(build_table(&replayed, metric, inter, ALPHA))
            });
            tests += table_tests(&replayed, metric, inter);
        }
    }
    let spans = tracer.spans();
    let wall_ns = spans.iter().map(|s| s.end_ns).max().unwrap_or(0)
        - spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let by_name = trace::self_time_by_name(&spans);
    let secs = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9);
    for name in [
        "datasets.generate_s",
        "tabular.sample_s",
        "tabular.encode_s",
        "cleaning.prepare_s",
        "mlcore.fit_s.log-reg",
        "mlcore.fit_s.knn",
        "mlcore.fit_s.xgboost",
        "mlcore.predict_s",
        "rectify.s",
        "fairness.score_s",
        "statskit.tables_s",
    ] {
        out.layer(name, secs(name));
    }
    let unit_ms = unit_busy_ms(&spans);
    if let Some(s) = crate::stats::summarize(&unit_ms) {
        out.layer("mlcore.unit_p50_ms", s.median);
        out.layer("mlcore.unit_tail_ms", s.tail);
        out.detail("unit_tail_quantile", s.tail_q);
        out.detail("units_traced", s.n);
    }
    let c = grid
        .counters
        .lock()
        .expect("counter lock poisoned by a panicking worker");
    out.layer("rectify.nodes_expanded", c.nodes_expanded as f64);
    let explored = c.nodes_expanded + c.nodes_pruned;
    out.layer(
        "rectify.pruned_frac",
        if explored == 0 {
            0.0
        } else {
            c.nodes_pruned as f64 / explored as f64
        },
    );
    out.layer(
        "runner.busy_frac",
        trace::busy_fraction(&spans, rayon::current_num_threads(), wall_ns),
    );
    out.layer("core.journal_records", journal_records as f64);
    out.layer("core.journal_bytes", journal_bytes as f64);
    out.layer("statskit.tests", tests as f64);
    out.layer("bench.trace_overhead_frac", traced_s / reference_s - 1.0);
    out.detail("reference_s", reference_s);
    out.detail("traced_s", traced_s);
    if let Some(path) = trace_file {
        crate::write_trace(path, &spans).map_err(|e| fail(e.to_string()))?;
    }
    Ok(out)
}

/// Busy milliseconds of each evaluation unit: the self time of every span
/// sharing the unit's group, excluding work the worker stole meanwhile.
fn unit_busy_ms(spans: &[trace::Span]) -> Vec<f64> {
    let own = trace::self_times(spans);
    let mut per_unit: BTreeMap<u64, u64> = BTreeMap::new();
    let unit_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "mlcore.unit")
        .map(|s| s.group)
        .collect();
    for (s, ns) in spans.iter().zip(own) {
        if unit_ids.contains(&s.group) {
            *per_unit.entry(s.group).or_default() += ns;
        }
    }
    per_unit.into_values().map(|ns| ns as f64 / 1e6).collect()
}
