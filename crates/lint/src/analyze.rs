//! The AST/call-graph analyzer: the flow-aware pass of `demodq-lint`.
//!
//! Parses every workspace source (vendor excluded — see
//! [`AnalyzeConfig`]), builds the call graph, and runs the four
//! flow-aware analyses:
//!
//! | code | meaning |
//! |------|---------|
//! | T001 | determinism taint: a fn in a determinism-critical file transitively reaches a wall-clock/entropy source |
//! | L001 | lock-order cycle across `Mutex`/`RwLock` acquisition orders (one call level inlined) |
//! | E001 | blocking call (`thread::sleep`, `read_to_end`/`write_all`, lock held across `predict_batch`) reachable from an event-loop handler |
//! | K001 | allocation (`Vec::new`/`push`/`to_vec`/`vec!`/`format!`) inside the hot scoring kernels |
//!
//! Findings reuse the `// lint:allow(CODE, reason)` suppression and
//! shrink-only baseline machinery of the lexical linter; `demodq-lint`
//! merges both passes ([`crate::check_tree`]) and gates the merged
//! report against `lint-baseline.txt`.

use crate::callgraph::{self, Graph, RawCall};
use crate::parser;
use crate::{Code, Finding, Report};
use std::path::Path;

/// Path policy for the analyzer.
///
/// Unlike the lexical linter, the analyzer does **not** scan `vendor/`:
/// the call-graph over-approximation would link workspace method calls
/// into vendored internals (rayon blocks and sleeps by design), and
/// vendored code is frozen anyway. The parser itself is still exercised
/// against vendor sources in tests to prove error tolerance.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Top-level directories to scan.
    pub roots: Vec<String>,
    /// T001 sinks: determinism-critical files (suffix match) — same
    /// set as the lexical D001 path list.
    pub sink_paths: Vec<String>,
    /// T001 allowlist (prefix match): telemetry/bench files that may
    /// read the clock and never propagate taint to their callers.
    pub allow_paths: Vec<String>,
    /// E001 entries: files (suffix match) whose non-test fns anchor
    /// the event-loop reachability scan.
    pub entry_files: Vec<String>,
    /// K001 scope: hot-kernel files (suffix match).
    pub kernel_paths: Vec<String>,
}

impl AnalyzeConfig {
    /// The demodq workspace policy.
    pub fn demodq() -> AnalyzeConfig {
        AnalyzeConfig {
            roots: vec![
                "crates".to_string(),
                "src".to_string(),
                "tests".to_string(),
                "examples".to_string(),
            ],
            sink_paths: vec![
                "crates/core/src/export.rs".to_string(),
                "crates/core/src/journal.rs".to_string(),
                "crates/core/src/runner.rs".to_string(),
                "crates/core/src/results.rs".to_string(),
                "crates/core/src/report.rs".to_string(),
                "crates/core/src/tables.rs".to_string(),
                "crates/serve/src/metrics.rs".to_string(),
            ],
            allow_paths: vec![
                "crates/core/src/progress.rs".to_string(),
                "crates/serve/".to_string(),
                "crates/bench/".to_string(),
            ],
            entry_files: vec!["crates/serve/src/event.rs".to_string()],
            kernel_paths: vec!["crates/mlcore/src/kernels.rs".to_string()],
        }
    }

    fn is_sink(&self, rel: &str) -> bool {
        self.sink_paths.iter().any(|s| rel.ends_with(s.as_str()))
    }

    fn is_allowed(&self, rel: &str) -> bool {
        self.allow_paths.iter().any(|p| rel.starts_with(p.as_str()))
    }

    fn is_entry_file(&self, rel: &str) -> bool {
        self.entry_files.iter().any(|s| rel.ends_with(s.as_str()))
    }

    fn is_kernel(&self, rel: &str) -> bool {
        self.kernel_paths.iter().any(|s| rel.ends_with(s.as_str()))
    }
}

/// Analyzes a set of in-memory sources (`(rel_path, source)` pairs).
/// This is the unit-test entry point; [`analyze_tree`] feeds it from
/// disk.
pub fn analyze_sources(sources: &[(String, String)], config: &AnalyzeConfig) -> Report {
    let mut files = Vec::with_capacity(sources.len());
    let mut lexes = Vec::with_capacity(sources.len());
    for (rel, src) in sources {
        let p = parser::parse_source(rel, src);
        files.push(p.file);
        lexes.push(p.lexed);
    }
    let graph = callgraph::build(&files);

    let lex_by_rel: std::collections::BTreeMap<&str, &crate::lexer::Lexed> =
        files.iter().zip(&lexes).map(|(f, l)| (f.rel.as_str(), l)).collect();
    let excused = |rel: &str, line: usize| -> bool {
        lex_by_rel
            .get(rel)
            .map(|l| crate::line_excused(l, line, &[Code::T001, Code::D002, Code::D003]))
            .unwrap_or(false)
    };

    let mut findings = Vec::new();
    crate::taint::run(
        &graph,
        &|rel| config.is_sink(rel),
        &|rel| config.is_allowed(rel),
        &excused,
        &mut findings,
    );
    crate::locks::run(&graph, &mut findings);
    run_e001(&graph, config, &mut findings);
    run_k001(&graph, config, &mut findings);

    // Suppressions: same machinery as the lexical linter, driven by the
    // lex that the parse already produced.
    for (file, lexed) in files.iter().zip(&lexes) {
        let rel = file.rel.as_str();
        let mut slice: Vec<&mut Finding> =
            findings.iter_mut().filter(|f| f.file == rel).collect();
        if slice.is_empty() {
            continue;
        }
        crate::suppress_by_allows(lexed, &mut slice);
    }

    crate::sort_findings(&mut findings);
    Report { findings, files_scanned: files.len(), flow_files_scanned: files.len() }
}

/// Analyzes every `.rs` file under `root`'s configured roots.
pub fn analyze_tree(root: &Path, config: &AnalyzeConfig) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    for path in crate::collect_rs_files(root, &config.roots)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        sources.push((rel, source));
    }
    Ok(analyze_sources(&sources, config))
}

/// E001: forward reachability from the event-loop handler fns; any
/// blocking call on a reachable path is reported with its entry chain.
fn run_e001(graph: &Graph, config: &AnalyzeConfig, findings: &mut Vec<Finding>) {
    let n = graph.fns.len();
    // parent[i] = (caller index, entry distance) for the BFS tree.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reachable = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if config.is_entry_file(&f.file) && !f.in_test {
            reachable[i] = true;
            queue.push(i);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        for edge in &graph.fns[cur].edges {
            let callee = &graph.fns[edge.callee];
            if reachable[edge.callee] || callee.in_test {
                continue;
            }
            reachable[edge.callee] = true;
            parent[edge.callee] = Some(cur);
            queue.push(edge.callee);
        }
    }

    let chain = |mut i: usize| -> String {
        let mut names = vec![graph.fns[i].display()];
        let mut guard = 0;
        while let Some(p) = parent[i] {
            names.push(graph.fns[p].display());
            i = p;
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        names.reverse();
        names.join(" -> ")
    };

    for (i, f) in graph.fns.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let mut lock_lines: Vec<usize> = Vec::new();
        for call in &f.calls {
            if let Some((_, line)) = crate::locks::acquisition(call) {
                lock_lines.push(line);
            }
            let blocking = match call {
                RawCall::Path { path, .. } => {
                    let last = path.last().map(String::as_str);
                    let qual = path.len().checked_sub(2).map(|k| path[k].as_str());
                    if last == Some("sleep") && qual == Some("thread") {
                        Some("std::thread::sleep".to_string())
                    } else {
                        None
                    }
                }
                RawCall::Method { name, .. } => match name.as_str() {
                    "read_to_end" | "read_to_string" | "read_exact" | "write_all" => {
                        Some(format!(".{name}(..)"))
                    }
                    _ => None,
                },
                RawCall::Macro { .. } => None,
            };
            if let Some(what) = blocking {
                findings.push(Finding {
                    file: f.file.clone(),
                    line: call.line(),
                    code: Code::E001,
                    message: format!(
                        "blocking call `{what}` on an event-loop path ({}); the epoll loop \
                         must never block on a foreign fd or sleep — queue the work or move \
                         it off-loop",
                        chain(i)
                    ),
                    suppressed: false,
                    reason: None,
                });
            }
            // A lock acquired earlier in this fn and still (assumed)
            // held when scoring runs stalls every connection.
            let is_predict = match call {
                RawCall::Path { path, .. } => {
                    path.last().map(String::as_str) == Some("predict_batch")
                }
                RawCall::Method { name, .. } => name == "predict_batch",
                RawCall::Macro { .. } => false,
            };
            if is_predict {
                // Calls iterate in source order, so anything already in
                // `lock_lines` was acquired before this call — no line
                // comparison (which would miss one-line bodies).
                if let Some(&acq) = lock_lines.first() {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: call.line(),
                        code: Code::E001,
                        message: format!(
                            "`predict_batch` called with a lock acquired at line {acq} \
                             (assumed still held) on an event-loop path ({}); score outside \
                             the guard",
                            chain(i)
                        ),
                        suppressed: false,
                        reason: None,
                    });
                }
            }
        }
    }
}

/// K001: allocations inside the hot-kernel files must go through the
/// caller-provided scratch pool.
fn run_k001(graph: &Graph, config: &AnalyzeConfig, findings: &mut Vec<Finding>) {
    for f in &graph.fns {
        if !config.is_kernel(&f.file) || f.in_test {
            continue;
        }
        for call in &f.calls {
            let what = match call {
                RawCall::Path { path, .. } => match path.last().map(String::as_str) {
                    Some("new") if path.len() >= 2 && (path[path.len() - 2] == "Vec" || path[path.len() - 2] == "String") => {
                        Some(format!("{}::new()", path[path.len() - 2]))
                    }
                    _ => None,
                },
                RawCall::Method { name, n_args, .. } => match name.as_str() {
                    "push" => Some(".push(..)".to_string()),
                    "to_vec" if *n_args == 0 => Some(".to_vec()".to_string()),
                    _ => None,
                },
                RawCall::Macro { name, .. } => match name.as_str() {
                    "vec" => Some("vec![..]".to_string()),
                    "format" => Some("format!(..)".to_string()),
                    _ => None,
                },
            };
            if let Some(what) = what {
                findings.push(Finding {
                    file: f.file.clone(),
                    line: call.line(),
                    code: Code::K001,
                    message: format!(
                        "allocation `{what}` in hot kernel `{}`; route the buffer through \
                         the scratch pool (caller-reserved, reused across rows)",
                        f.display()
                    ),
                    suppressed: false,
                    reason: None,
                });
            }
        }
    }
}
