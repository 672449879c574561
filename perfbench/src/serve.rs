//! The serving workloads: `demodq-serve --scale default` with all fifteen
//! (dataset, model) pairs, driven open-loop at a fixed rate from one client
//! thread over two keep-alive connections, plus an in-process replay of
//! the same request stream through the server's public layers.
//!
//! Traffic: bodies come from a seed-generated row pool spread over the
//! fifteen models. Three in four requests are single-row unlabeled
//! predicts; the rest are eight-row labeled predicts, which also feed the
//! drift windows. `/metrics` is scraped once per second. Requests are due
//! at evenly spaced instants and each is timed from when it was due, so a
//! stall is charged to every request queued behind it.

use crate::calib::HostSpeed;
use crate::trace::{self, Tracer};
use crate::{elapsed_s, stats, Outcome, Scaled};
use datasets::DatasetId;
use demodq::StudyScale;
use demodq_serve::codec::{frame_from_rows, rows_from_frame};
use demodq_serve::http::{try_parse, ParseOutcome, Request, Response};
use demodq_serve::routes::Routed;
use demodq_serve::{App, DriftConfig, DriftStore, Registry};
use mlcore::ModelKind;
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tabular::{DataFrame, DenseMatrix, Rng64};

/// Offered rates, about a quarter and two thirds of the closed-loop
/// capacity for this mix on a 2-core x86-64 host.
pub const LOW_RPS: f64 = 4_000.0;
pub const HIGH_RPS: f64 = 16_000.0;

/// The server's registry: its default seed at `--scale default`.
const SCALE: &str = "default";
const REGISTRY_SEED: u64 = 7;
const ROWS_PER_DATASET: usize = 96;
const SINGLES_PER_PAIR: usize = 24;
const BATCHES_PER_PAIR: usize = 8;
const BATCH_ROWS: usize = 8;
const CONNECTIONS: usize = 2;
const SETUP_REPEATS: usize = 9;
const SCRAPE_EVERY_NS: u64 = 1_000_000_000;
/// How long outstanding replies may take after the last request is due.
const DRAIN_NS: u64 = 2_000_000_000;
/// Requests replayed in process by the traced run.
const REPLAY_REQUESTS: usize = 20_000;
/// A run whose generator ran later than this at p99 did not offer the
/// intended load.
const VALID_LATE_P99_MS: f64 = 1.0;

/// One distinct request body, its wire form, and the reply the in-process
/// `App` gives it.
struct Body {
    wire: Vec<u8>,
    expected: Vec<u8>,
    dataset: DatasetId,
    model: ModelKind,
    rows: Vec<Value>,
    labeled: bool,
}

fn predict_request(body: &[u8]) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/v1/predict".to_string(),
        headers: vec![("content-type".to_string(), "application/json".to_string())],
        body: body.to_vec(),
    }
}

/// Builds the body pool from `seed` and answers each body in process.
fn build_bodies(seed: u64, app: &App) -> Result<Vec<Body>, String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5E57E);
    let mut bodies = Vec::new();
    for dataset in DatasetId::all() {
        let frame = dataset
            .generate(ROWS_PER_DATASET, seed ^ rng.next_u64())
            .map_err(|e| e.to_string())?;
        let rows = rows_from_frame(&frame);
        let label = frame
            .schema()
            .label()
            .map(|f| f.name.clone())
            .ok_or("dataset without a label column")?;
        for model in ModelKind::all() {
            let mut pick = || rows[rng.below(rows.len())].clone();
            let mut shapes: Vec<(Vec<Value>, bool)> = Vec::new();
            for _ in 0..SINGLES_PER_PAIR {
                let mut row = pick();
                if let Value::Object(map) = &mut row {
                    map.remove(&label);
                }
                shapes.push((vec![row], false));
            }
            for _ in 0..BATCHES_PER_PAIR {
                shapes.push(((0..BATCH_ROWS).map(|_| pick()).collect(), true));
            }
            for (rows, labeled) in shapes {
                let doc = if labeled {
                    json!({"dataset": dataset.name(), "model": model.name(), "rows": Value::Array(rows.clone())})
                } else {
                    json!({"dataset": dataset.name(), "model": model.name(), "row": rows[0].clone()})
                };
                let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
                let reply = app.handle(&predict_request(text.as_bytes()));
                if reply.status != 200 {
                    return Err(format!("in-process predict answered {}", reply.status));
                }
                let mut wire = format!(
                    "POST /v1/predict HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                    text.len()
                )
                .into_bytes();
                wire.extend_from_slice(text.as_bytes());
                bodies.push(Body {
                    wire,
                    expected: reply.body,
                    dataset,
                    model,
                    rows,
                    labeled,
                });
            }
        }
    }
    Ok(bodies)
}

/// The seeded request stream: body indices, three in four single-row.
struct Stream {
    rng: Rng64,
    singles: Vec<usize>,
    batches: Vec<usize>,
}

impl Stream {
    fn new(seed: u64, bodies: &[Body]) -> Stream {
        let (batches, singles): (Vec<usize>, Vec<usize>) =
            (0..bodies.len()).partition(|&i| bodies[i].labeled);
        Stream {
            rng: Rng64::seed_from_u64(seed ^ 0x57EA),
            singles,
            batches,
        }
    }

    fn next_body(&mut self) -> usize {
        let r = self.rng.next_u64();
        let pool = if r.is_multiple_of(4) {
            &self.batches
        } else {
            &self.singles
        };
        pool[((r >> 2) % pool.len() as u64) as usize]
    }
}

/// A parsed HTTP response head: status and the body's byte range.
fn parse_response(buf: &[u8]) -> Option<Result<(u16, usize, usize), String>> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Some(Err("response head is not UTF-8".to_string())),
    };
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    let length = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok());
    match (status, length) {
        (Some(status), Some(length)) if buf.len() >= head_end + length => {
            Some(Ok((status, head_end, head_end + length)))
        }
        (Some(_), Some(_)) => None,
        _ => Some(Err(format!("malformed response head {head:?}"))),
    }
}

/// One GET over a fresh connection.
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    let mut sock =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    sock.write_all(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16384];
    loop {
        if let Some(parsed) = parse_response(&buf) {
            let (status, start, end) = parsed?;
            return Ok((status, buf[start..end].to_vec()));
        }
        let n = sock.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed before a full reply".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Sum of every sample of a Prometheus metric family in `text`.
fn metric_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A spawned `demodq-serve`; dropping it stops the process and waits.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and waits for its first healthy `/healthz`;
    /// returns it with the seconds that took.
    fn spawn(bin: &Path, work: &Path, k: usize) -> Result<(ServerProc, f64), String> {
        let addr_file = work.join(format!("serve-addr-{k}"));
        let _ = std::fs::remove_file(&addr_file);
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let start = Instant::now();
        let child = Command::new(bin)
            .args([
                "--scale",
                SCALE,
                "--seed",
                &REGISTRY_SEED.to_string(),
                "--addr",
                "127.0.0.1:0",
                "--quiet",
            ])
            .arg("--addr-file")
            .arg(&addr_file)
            .env("DEMODQ_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Duration::from_secs(60);
        loop {
            if start.elapsed() > deadline {
                return Err("server did not become healthy within 60 s".to_string());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if server.addr.port() == 0 {
                if let Some(addr) = std::fs::read_to_string(&addr_file)
                    .ok()
                    .and_then(|t| t.trim().parse().ok())
                {
                    server.addr = addr;
                }
            }
            if server.addr.port() != 0 && matches!(http_get(server.addr, "/healthz"), Ok((200, _)))
            {
                return Ok((server, elapsed_s(start)));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// SIGTERM, then SIGKILL if the drain takes longer than five seconds.
    fn stop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            const SIGTERM: i32 = 15;
            // SAFETY: `kill` only sends a signal; the pid is our own child,
            // which has not been reaped (try_wait just returned None).
            unsafe {
                kill(self.child.id() as i32, SIGTERM);
            }
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(5) {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What an outstanding request was.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Predict(usize),
    Scrape,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    due_ns: u64,
    kind: Kind,
}

/// Open-loop bookkeeping: per-connection FIFOs of outstanding requests
/// (replies on a keep-alive connection come back in order), latencies
/// from each request's due time, generator lateness, and the attempted
/// and failed counts. A request never answered is attempted and failed.
#[derive(Default)]
struct Ledger {
    queues: Vec<VecDeque<Pending>>,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn new(connections: usize) -> Ledger {
        Ledger {
            queues: vec![VecDeque::new(); connections],
            ..Ledger::default()
        }
    }

    /// A request due at `due_ns` handed to connection `conn` at `now_ns`.
    fn send(&mut self, conn: usize, due_ns: u64, now_ns: u64, kind: Kind) {
        self.attempted += 1;
        self.late_ms
            .push(now_ns.saturating_sub(due_ns) as f64 / 1e6);
        self.queues[conn].push_back(Pending { due_ns, kind });
    }

    /// A request that could not be sent at all.
    fn refuse(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// The next reply on `conn` arrived at `now_ns`; `ok` says whether it
    /// was the right answer. Returns what it answered.
    fn reply(&mut self, conn: usize, now_ns: u64, ok: bool) -> Option<Kind> {
        let pending = self.queues[conn].pop_front()?;
        if matches!(pending.kind, Kind::Predict(_)) {
            self.latencies_ms
                .push(now_ns.saturating_sub(pending.due_ns) as f64 / 1e6);
        }
        if !ok {
            self.failed += 1;
        }
        Some(pending.kind)
    }

    /// Fails everything still outstanding on `conn`.
    fn abandon(&mut self, conn: usize) {
        self.failed += self.queues[conn].len() as u64;
        self.queues[conn].clear();
    }

    fn idle(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Blocks until a socket is readable (or writable, where output is
/// pending) or `wait_ns` passes, with the kernel's high-resolution timer.
fn wait_sockets(conns: &[Conn], wait_ns: u64) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .filter(|c| c.alive)
        .map(|c| PollFd {
            fd: c.sock.as_raw_fd(),
            events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live, correctly laid out pollfd array of the
    // length passed, `timeout` outlives the call, and a null sigmask
    // leaves the signal mask unchanged.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        );
    }
}

struct Conn {
    sock: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    alive: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let sock =
            TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            sock,
            out: Vec::new(),
            inbuf: Vec::new(),
            alive: true,
        })
    }

    /// Writes as much pending output as the socket takes.
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.sock.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads everything available; an EOF is an error (the server never
    /// closes a keep-alive connection it is still answering).
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 65536];
        loop {
            match self.sock.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

struct LoadResult {
    ledger: Ledger,
    mismatches: Vec<String>,
    completed_ok: u64,
    /// From the first due instant to the last correct reply.
    elapsed_s: f64,
}

/// Offers `rate` requests per second for `seconds`, then waits up to
/// [`DRAIN_NS`] for outstanding replies.
fn open_loop(
    addr: SocketAddr,
    bodies: &[Body],
    stream: &mut Stream,
    rate: f64,
    seconds: f64,
) -> Result<LoadResult, String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut ledger = Ledger::new(CONNECTIONS);
    let mut mismatches = Vec::new();
    let mut completed_ok = 0u64;
    let mut last_reply_ns = 0u64;
    let end_ns = (seconds * 1e9) as u64;
    let total = (seconds * rate) as u64;
    let due = |i: u64| (i as f64 * 1e9 / rate) as u64;
    let scrape = b"GET /metrics HTTP/1.1\r\nhost: perfbench\r\n\r\n";
    let mut next = 0u64;
    let mut next_scrape = SCRAPE_EVERY_NS;
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    loop {
        let now = now_ns();
        while next < total && due(next) <= now {
            let c = (next % CONNECTIONS as u64) as usize;
            let body = stream.next_body();
            if conns[c].alive {
                conns[c].out.extend_from_slice(&bodies[body].wire);
                ledger.send(c, due(next), now, Kind::Predict(body));
            } else {
                ledger.refuse();
            }
            next += 1;
        }
        while next_scrape < end_ns && next_scrape <= now {
            if conns[0].alive {
                conns[0].out.extend_from_slice(scrape);
                ledger.send(0, next_scrape, now, Kind::Scrape);
            } else {
                ledger.refuse();
            }
            next_scrape += SCRAPE_EVERY_NS;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if !conn.alive {
                continue;
            }
            if let Err(e) = conn.flush().and_then(|_| conn.fill()) {
                mismatches.push(format!("connection {c}: {e}"));
                conn.alive = false;
                ledger.abandon(c);
                continue;
            }
            let mut consumed = 0;
            while let Some(parsed) = parse_response(&conn.inbuf[consumed..]) {
                let arrived = now_ns();
                let (status, start, end) = match parsed {
                    Ok(p) => p,
                    Err(e) => {
                        mismatches.push(format!("connection {c}: {e}"));
                        conn.alive = false;
                        ledger.abandon(c);
                        break;
                    }
                };
                let reply = &conn.inbuf[consumed + start..consumed + end];
                let kind = ledger.queues[c].front().map(|p| p.kind);
                let ok = match kind {
                    Some(Kind::Predict(i)) => {
                        status == 200 && reply == bodies[i].expected.as_slice()
                    }
                    Some(Kind::Scrape) => status == 200,
                    None => false,
                };
                if !ok && mismatches.len() < 8 {
                    mismatches.push(format!(
                        "status {status} reply {:?} for {kind:?}",
                        String::from_utf8_lossy(reply)
                    ));
                }
                if ledger.reply(c, arrived, ok).is_none() {
                    mismatches.push(format!("connection {c}: reply without a request"));
                }
                if ok && matches!(kind, Some(Kind::Predict(_))) {
                    completed_ok += 1;
                    last_reply_ns = arrived;
                }
                consumed += end;
            }
            if conn.alive {
                conn.inbuf.drain(..consumed);
            }
        }
        let now = now_ns();
        let sending = next < total;
        if !sending && ledger.idle() {
            break;
        }
        if !sending && now > end_ns + DRAIN_NS {
            for c in 0..CONNECTIONS {
                if !ledger.queues[c].is_empty() {
                    mismatches.push(format!(
                        "connection {c}: {} replies missing",
                        ledger.queues[c].len()
                    ));
                }
                ledger.abandon(c);
            }
            break;
        }
        let mut wake = if sending { due(next) } else { now + 1_000_000 };
        if next_scrape < end_ns {
            wake = wake.min(next_scrape);
        }
        if wake > now {
            wait_sockets(&conns, wake - now);
        }
    }
    Ok(LoadResult {
        ledger,
        mismatches,
        completed_ok,
        elapsed_s: last_reply_ns.max(1) as f64 / 1e9,
    })
}

fn labels_of(frame: &DataFrame) -> Option<Vec<Option<u8>>> {
    let name = &frame.schema().label()?.name;
    let data = frame.numeric(name).ok()?;
    Some(
        data.iter()
            .map(|&x| {
                if x.is_nan() {
                    None
                } else {
                    Some(u8::from(x != 0.0))
                }
            })
            .collect(),
    )
}

/// The scores a reply body carries: its `predictions` and
/// `probabilities` arrays (`None` where the server wrote `null`).
type Scores = (Vec<u8>, Vec<Option<f64>>);

fn reply_scores(body: &[u8]) -> Result<Scores, String> {
    let doc: Value = serde_json::from_slice(body).map_err(|e| e.to_string())?;
    let array = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("reply without {key:?}"))
    };
    let predictions = array("predictions")?
        .iter()
        .map(|p| p.as_u64().and_then(|p| u8::try_from(p).ok()))
        .collect::<Option<Vec<u8>>>()
        .ok_or("non-integer prediction")?;
    let probabilities = array("probabilities")?.iter().map(Value::as_f64).collect();
    Ok((predictions, probabilities))
}

/// Whether freshly computed scores equal a reply's, bit for bit.
fn same_scores(labels: &[u8], probas: &[f64], expected: &Scores) -> bool {
    labels == expected.0.as_slice()
        && probas.len() == expected.1.len()
        && probas.iter().zip(&expected.1).all(|(q, e)| match e {
            Some(e) => q.to_bits() == e.to_bits(),
            None => !q.is_finite(),
        })
}

/// Replays `stream` through the stages of `App::predict_batch`, called one
/// by one through the server's public functions, in batches of `batch`
/// requests: `try_parse` → `App::route_or_defer` → codec → encoder →
/// batched scoring → drift windows → `Response::write_to`. Each request's
/// predictions and probabilities must equal those in the body's expected
/// reply, which is also the reply written.
fn replay(
    app: &App,
    bodies: &[Body],
    expected: &[Scores],
    stream: &[usize],
    batch: usize,
    tracer: &Tracer,
) -> Result<Vec<String>, String> {
    let registry = app.registry();
    let drift = DriftStore::new(DriftConfig::default());
    let replies: Vec<Response> = bodies
        .iter()
        .map(|b| Response {
            status: 200,
            content_type: "application/json",
            body: b.expected.clone(),
        })
        .collect();
    let mut mismatches = Vec::new();
    for (b, chunk) in stream.chunks(batch.max(1)).enumerate() {
        let group = b as u64;
        for &i in chunk {
            let request = tracer.span("serve.parse_us", None, group, |_| {
                match try_parse(&bodies[i].wire) {
                    ParseOutcome::Complete(request, _) => Ok(request),
                    other => Err(format!("request did not parse: {other:?}")),
                }
            })?;
            match tracer.span("serve.route_us", None, group, |_| {
                app.route_or_defer(&request)
            }) {
                Routed::Predict(job) if job.n_rows() == bodies[i].rows.len() => {}
                Routed::Predict(job) => {
                    return Err(format!("predict job has {} rows", job.n_rows()))
                }
                Routed::Immediate(r) => {
                    return Err(format!("predict answered inline with {}", r.status))
                }
            }
        }
        let mut encoded = Vec::with_capacity(chunk.len());
        for &i in chunk {
            let body = &bodies[i];
            let served = registry
                .get(body.dataset.name(), body.model.name())
                .ok_or("model missing from registry")?;
            let frame = tracer.span("serve.codec_us", None, group, |_| {
                frame_from_rows(served.train.schema(), &body.rows, false)
            })?;
            let (x, _) = tracer
                .span("serve.encode_us", None, group, |_| {
                    served.encoder.transform_with_report(&frame)
                })
                .map_err(|e| e.to_string())?;
            encoded.push((served, frame, x, body.labeled));
        }
        let mut by_model: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (j, (served, ..)) in encoded.iter().enumerate() {
            by_model
                .entry((served.dataset.name(), served.model.name()))
                .or_default()
                .push(j);
        }
        let mut scored: Vec<(Vec<u8>, Vec<f64>)> = vec![Default::default(); encoded.len()];
        for members in by_model.values() {
            let served = encoded[members[0]].0;
            let cols = encoded[members[0]].2.n_cols();
            let mut data = Vec::new();
            for &j in members {
                data.extend_from_slice(encoded[j].2.as_slice());
            }
            let x = DenseMatrix::from_vec(data.len() / cols.max(1), cols, data);
            let (labels, probas) = tracer.span("serve.score_us", None, group, |_| {
                served.classifier.predict_with_proba(&x)
            });
            let mut offset = 0;
            for &j in members {
                let n = encoded[j].2.n_rows();
                scored[j] = (
                    labels[offset..offset + n].to_vec(),
                    probas[offset..offset + n].to_vec(),
                );
                offset += n;
            }
        }
        for (((served, frame, _, labeled), (labels, probas)), &i) in
            encoded.iter().zip(&scored).zip(chunk)
        {
            if *labeled {
                let truth = labels_of(frame).ok_or("labeled body without labels")?;
                tracer.span("serve.drift_us", None, group, |_| {
                    drift.observe(served, frame, &truth, labels)
                });
            }
            if !same_scores(labels, probas, &expected[i]) {
                mismatches.push(format!("replayed scores differ for body {i}"));
            }
            let mut wire = Vec::with_capacity(replies[i].body.len() + 128);
            tracer
                .span("serve.reply_us", None, group, |_| {
                    replies[i].write_to(&mut wire, true)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(mismatches)
}

/// The serve workload at `rate`: the untraced run measures set-up and the
/// open-loop latencies; the traced run adds the in-process replay.
pub fn run(
    rate: f64,
    bin: &Path,
    seed: u64,
    seconds: f64,
    work: &Path,
    traced: bool,
    trace_file: Option<&Path>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let datasets = DatasetId::all();
    let models = ModelKind::all();
    let scale = StudyScale::parse(SCALE).ok_or("unknown scale")?;
    let registry = Registry::train(&datasets, &models, &scale, SCALE, REGISTRY_SEED)
        .map_err(|e| e.to_string())?;
    let app = App::new(registry);
    let bodies = build_bodies(seed, &app)?;

    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut server = None;
    // Host-speed samples go between spawns and after the load, never
    // during it.
    let mut speed = HostSpeed::default();
    // Each spawn replaces (and so stops) the previous server; the last one
    // takes the load.
    for k in 0..repeats {
        speed.sample();
        let (proc_, setup) = ServerProc::spawn(bin, work, k)?;
        out.setup_s.push(setup);
        server = Some(proc_);
    }
    let mut server = server.ok_or("no server started")?;
    let mut stream = Stream::new(seed, &bodies);
    let pid = server.child.id().to_string();
    let cpu_start = crate::cpu_seconds(&pid).unwrap_or(f64::NAN);
    let load = open_loop(server.addr, &bodies, &mut stream, rate, seconds)?;
    let server_cpu_s = crate::cpu_seconds(&pid).unwrap_or(f64::NAN) - cpu_start;
    let (status, metrics) = http_get(server.addr, "/metrics")?;
    out.program_rss_mb = server.peak_rss_mb();
    server.stop();
    speed.sample();
    out.host_speed = Some((speed, Scaled::SetupOnly));
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let metrics = String::from_utf8_lossy(&metrics).into_owned();

    for m in load.mismatches {
        out.mismatch(m);
    }
    let ledger = load.ledger;
    out.attempted = ledger.attempted;
    out.failed = ledger.failed;
    out.ops_per_s = load.completed_ok as f64 / load.elapsed_s;
    out.cpu_us_per_op = server_cpu_s * 1e6 / load.completed_ok.max(1) as f64;
    let late_p99 = stats::quantile(&ledger.late_ms, 0.99).unwrap_or(0.0);
    out.detail("offered_rps", rate);
    out.detail("gen_late_p99_ms", late_p99);
    out.detail("valid_run", late_p99 <= VALID_LATE_P99_MS);
    out.detail("distinct_bodies", bodies.len());
    if late_p99 > VALID_LATE_P99_MS {
        eprintln!(
            "perfbench: generator ran {late_p99:.3} ms late at p99; the offered load was not met"
        );
    }
    let batches = metric_sum(&metrics, "demodq_batches_total");
    let batch_mean = if batches > 0.0 {
        metric_sum(&metrics, "demodq_batched_requests_total") / batches
    } else {
        0.0
    };
    out.detail("batch_mean_requests", batch_mean);
    out.latencies_ms = ledger.latencies_ms;

    if traced {
        let client = stats::summarize(&out.latencies_ms);
        let client_p50_us = client.map_or(0.0, |s| s.median * 1e3);
        let mut replay_stream = Stream::new(seed, &bodies);
        let indices: Vec<usize> = (0..REPLAY_REQUESTS)
            .map(|_| replay_stream.next_body())
            .collect();
        let batch = batch_mean.round().max(1.0) as usize;
        let expected = bodies
            .iter()
            .map(|b| reply_scores(&b.expected))
            .collect::<Result<Vec<_>, _>>()?;
        let replay = |tracer: &Tracer| replay(&app, &bodies, &expected, &indices, batch, tracer);
        // A first untraced pass warms caches, so neither timed pass is cold.
        let warm = replay(&Tracer::new(false))?;
        let tracer = Tracer::new(true);
        let start = Instant::now();
        let checked = replay(&tracer)?;
        let traced_s = elapsed_s(start);
        let start = Instant::now();
        let plain = replay(&Tracer::new(false))?;
        let plain_s = elapsed_s(start);
        for m in warm.into_iter().chain(checked).chain(plain).take(8) {
            out.mismatch(m);
        }
        let spans = tracer.spans();
        let by_name = trace::self_time_by_name(&spans);
        let mut in_process_us = 0.0;
        for name in [
            "serve.parse_us",
            "serve.route_us",
            "serve.codec_us",
            "serve.encode_us",
            "serve.score_us",
            "serve.drift_us",
            "serve.reply_us",
        ] {
            let per_request = by_name
                .get(name)
                .map_or(0.0, |&(ns, _)| ns as f64 / 1e3 / indices.len() as f64);
            in_process_us += per_request;
            out.layer(name, per_request);
        }
        if let Some(s) = client {
            out.layer("serve.client_p50_ms", s.median);
            out.layer("serve.client_tail_ms", s.tail);
        }
        out.layer("serve.batch_mean_requests", batch_mean);
        out.layer("serve.residual_us", client_p50_us - in_process_us);
        out.layer(
            "serve.registry_train_s",
            metric_sum(&metrics, "serve_startup_train_seconds"),
        );
        out.layer(
            "serve.rejected",
            metric_sum(&metrics, "demodq_rejected_total"),
        );
        out.layer("serve.errors", metric_sum(&metrics, "demodq_errors_total"));
        out.layer("bench.gen_late_p99_ms", late_p99);
        out.layer("bench.trace_overhead_frac", traced_s / plain_s - 1.0);
        out.detail("replay_requests", indices.len());
        out.detail("replay_batch", batch);
        if let Some(path) = trace_file {
            crate::write_trace(path, &spans).map_err(|e| e.to_string())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stalled_reply_is_charged_to_the_requests_behind_it() {
        let mut ledger = Ledger::new(1);
        for i in 0..5 {
            ledger.send(0, i * MS, i * MS, Kind::Predict(0));
        }
        // The first reply stalls until 10 ms; the rest follow 0.1 ms apart.
        for i in 0..5 {
            ledger.reply(0, 10 * MS + i * MS / 10, true);
        }
        let expected = [10.0, 9.1, 8.2, 7.3, 6.4];
        for (got, want) in ledger.latencies_ms.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert!(ledger.late_ms.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn a_late_generator_is_timed_from_the_due_instant() {
        let mut ledger = Ledger::new(2);
        // The generator stalled: five requests due at 0..4 ms go out at 5 ms.
        for i in 0..5u64 {
            ledger.send((i % 2) as usize, i * MS, 5 * MS, Kind::Predict(0));
        }
        assert_eq!(ledger.late_ms, vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        ledger.reply(0, 6 * MS, true);
        ledger.reply(1, 6 * MS, true);
        assert_eq!(ledger.latencies_ms, vec![6.0, 5.0]);
    }

    #[test]
    fn fail_frac_counts_every_attempt_including_unanswered_ones() {
        let mut ledger = Ledger::new(2);
        for i in 0..4 {
            ledger.send(0, i, i, Kind::Predict(0));
        }
        ledger.send(1, 4, 4, Kind::Scrape);
        ledger.refuse();
        assert_eq!(ledger.reply(0, 10, true), Some(Kind::Predict(0)));
        assert_eq!(ledger.reply(0, 11, false), Some(Kind::Predict(0)));
        assert_eq!(ledger.reply(1, 12, true), Some(Kind::Scrape));
        // Two predicts on connection 0 never come back.
        ledger.abandon(0);
        assert!(ledger.idle());
        assert_eq!(ledger.reply(0, 13, true), None);
        assert_eq!((ledger.attempted, ledger.failed), (6, 4));
        // Scrapes are attempts but not latency samples.
        assert_eq!(ledger.latencies_ms.len(), 2);
    }

    #[test]
    fn responses_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-type: x\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1";
        assert_eq!(parse_response(full), Some(Ok((200, 55, 60))));
        assert_eq!(parse_response(&full[..58]), None);
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n"), None);
        assert!(matches!(parse_response(b"garbage\r\n\r\n"), Some(Err(_))));
    }

    #[test]
    fn replayed_scores_must_equal_the_reply_bit_for_bit() {
        let body = br#"{"dataset":"german","n_rows":3,"predictions":[1,0,1],"probabilities":[0.75,0.1,null],"prediction":1}"#;
        let expected = reply_scores(body).expect("reply parses");
        let nan = f64::NAN;
        assert!(same_scores(&[1, 0, 1], &[0.75, 0.1, nan], &expected));
        assert!(!same_scores(&[1, 1, 1], &[0.75, 0.1, nan], &expected));
        let next = f64::from_bits(0.1f64.to_bits() + 1);
        assert!(!same_scores(&[1, 0, 1], &[0.75, next, nan], &expected));
        assert!(!same_scores(&[1, 0, 1], &[0.75, 0.1, 0.5], &expected));
        assert!(!same_scores(&[1, 0], &[0.75, 0.1], &expected));
    }

    #[test]
    fn metric_families_sum_over_labels() {
        let text = "# HELP x\nserve_startup_train_seconds{a=\"1\"} 0.5\nserve_startup_train_seconds{a=\"2\"} 0.25\n\
                    demodq_batches_total 4\ndemodq_batches_total_other 9\n";
        assert_eq!(metric_sum(text, "serve_startup_train_seconds"), 0.75);
        assert_eq!(metric_sum(text, "demodq_batches_total"), 4.0);
    }
}
