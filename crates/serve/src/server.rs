//! The daemon: TCP accept loop, request routing, the campaign-runner
//! pool, and crash-safe persistence.
//!
//! ## Persistence and resume
//!
//! Every accepted campaign is persisted *before* the daemon
//! acknowledges it: `<state>/<id>/spec.json` is written to a temp file
//! and atomically renamed, and the campaign's resume manifest lives in
//! the same directory. A daemon killed at any instant — `SIGKILL`
//! included — rehydrates on restart by re-registering every persisted
//! spec and re-enqueueing it through the ordinary runner path: already
//! completed jobs replay instantly from the manifest, pending ones
//! re-run, and the result stream a client re-reads is byte-identical
//! to an uninterrupted run. A `cancelled` marker file survives
//! restarts the same way, pre-tripping the campaign's cancel token so
//! a cancelled campaign never resumes its work.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vpsim_harness::{
    CampaignMetrics, CampaignSpec, CellOutcome, Exec, FleetConfig, Isolate, JobObserver, SpecError,
    WorkerBackend,
};
use vpsim_json::escaped;
use vpsim_obs::{Counter, Gauge, Registry};

use crate::http::{self, ChunkedWriter, HttpError, Request};
use crate::registry::{CampaignState, Entry, StreamObserver};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// State directory: specs, manifests, cancel markers.
    pub state_dir: PathBuf,
    /// Campaign-runner threads (campaigns executing concurrently).
    pub runners: usize,
    /// Worker threads *per campaign* (the campaign `Exec::jobs`).
    pub jobs: usize,
    /// Default execution substrate for campaigns whose spec does not
    /// request one (`"isolate"` in the spec wins).
    pub isolate: Isolate,
    /// Override the worker-process command for the process backend
    /// (tests point this at a prebuilt worker binary; `None` re-execs
    /// the daemon's own binary with `--worker-loop`).
    pub worker_cmd: Option<Vec<String>>,
    /// Read timeout on accepted connections: a peer that trickles its
    /// request slower than this (slowloris) is disconnected instead of
    /// pinning a handler thread forever.
    pub read_timeout: Duration,
    /// Write timeout on accepted connections (stalled result readers).
    pub write_timeout: Duration,
    /// Maximum concurrently served connections; excess ones get an
    /// immediate `503` + `Retry-After` instead of an unbounded thread.
    pub max_connections: usize,
    /// Overload high-water mark: campaign submissions are shed with
    /// `503` while this many campaigns already wait for a runner.
    pub queue_high_water: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: PathBuf::from("serve-state"),
            runners: 2,
            jobs: 1,
            isolate: Isolate::Thread,
            worker_cmd: None,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            max_connections: 128,
            queue_high_water: 64,
        }
    }
}

/// The daemon's own series: what no campaign counts. They are
/// unlabelled; everything a campaign counts lives in its
/// `campaign="<id>"` store, and a daemon-wide total is a sum over those
/// series. The gauges are set from the entry table at scrape time
/// ([`metrics_text`]), with no lock held while rendering.
#[derive(Debug)]
struct DaemonMetrics {
    uptime_seconds: Gauge,
    campaigns_active: Gauge,
    campaigns_queued: Gauge,
    campaigns_done: Counter,
    jobs_queued: Gauge,
    sim_cycles_per_second: Gauge,
    shed_requests: Counter,
    connections_active: Gauge,
}

impl DaemonMetrics {
    /// Register the daemon's series, and declare the per-campaign
    /// families so an idle daemon already describes them.
    fn register(r: &Registry) -> DaemonMetrics {
        CampaignMetrics::declare(r);
        DaemonMetrics {
            uptime_seconds: r.gauge("vpsim_uptime_seconds", "daemon uptime", &[]),
            campaigns_active: r.gauge("vpsim_campaigns_active", "campaigns currently running", &[]),
            campaigns_queued: r.gauge(
                "vpsim_campaigns_queued",
                "campaigns waiting for a runner",
                &[],
            ),
            campaigns_done: r.counter(
                "vpsim_campaigns_done_total",
                "campaigns completed since start (replays that ran no job excluded)",
                &[],
            ),
            jobs_queued: r.gauge(
                "vpsim_jobs_queued",
                "jobs not yet completed across active and queued campaigns",
                &[],
            ),
            sim_cycles_per_second: r.gauge(
                "vpsim_sim_cycles_per_second",
                "cycles simulated by this daemon's campaigns per second of uptime",
                &[],
            ),
            shed_requests: r.counter(
                "vpsim_shed_requests_total",
                "requests shed with 503 under overload",
                &[],
            ),
            connections_active: r.gauge(
                "vpsim_connections_active",
                "connections currently being served",
                &[],
            ),
        }
    }
}

/// Shared daemon state.
#[derive(Debug)]
struct Inner {
    cfg: ServeConfig,
    addr: SocketAddr,
    entries: Mutex<HashMap<u64, Arc<Entry>>>,
    queue: Mutex<VecDeque<Arc<Entry>>>,
    queue_cond: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    /// Connections currently inside `handle_connection`.
    connections: AtomicUsize,
    /// The workspace metrics registry backing `/metrics` and
    /// `/campaigns/<id>/metrics`: daemon-level series plus one
    /// `campaign="<id>"`-labelled series set per campaign run.
    registry: Arc<Registry>,
    metrics: DaemonMetrics,
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or POST `/shutdown`) then [`Server::join`].
#[derive(Debug)]
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, rehydrate persisted campaigns, and start serving.
    ///
    /// # Errors
    ///
    /// Fails if the state directory cannot be created or the address
    /// cannot be bound. Unreadable persisted specs are skipped with a
    /// warning, never a startup failure.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        let metrics = DaemonMetrics::register(&registry);
        let inner = Arc::new(Inner {
            addr,
            entries: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            connections: AtomicUsize::new(0),
            registry,
            metrics,
            cfg,
        });
        rehydrate(&inner);

        let mut threads = Vec::new();
        for _ in 0..inner.cfg.runners.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || runner_loop(&inner)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || accept_loop(&inner, &listener)));
        }
        Ok(Server { inner, threads })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Request a graceful stop: every campaign not yet finished is
    /// cooperatively cancelled (its manifest keeps every completed job
    /// and its spec stays persisted, so a restart resumes it).
    pub fn shutdown(&self) {
        request_shutdown(&self.inner);
    }

    /// Wait for every daemon thread to exit.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Set the shutdown flag, wake the runner pool, trip every unfinished
/// campaign, and nudge the accept loop out of `accept()`.
fn request_shutdown(inner: &Arc<Inner>) {
    {
        // Under the queue lock: `runner_loop` checks the flag under it
        // before waiting, so the wake-up below cannot fall in between.
        let _queue = inner.queue.lock().expect("queue poisoned");
        if inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
    }
    inner.queue_cond.notify_all();
    // Queued entries too: a runner may have popped one that is not yet
    // `Running`. The token lives in memory only; a restart re-registers
    // the campaign with a fresh one.
    for entry in inner.entries.lock().expect("entries poisoned").values() {
        if !matches!(
            entry.state(),
            CampaignState::Done | CampaignState::Failed | CampaignState::Cancelled
        ) {
            entry.cancel.cancel();
        }
    }
    // The accept loop blocks in accept(); a throwaway connection makes
    // it re-check the flag.
    let _ = TcpStream::connect(inner.addr);
}

/// Re-register every persisted campaign from the state directory.
fn rehydrate(inner: &Arc<Inner>) {
    let Ok(dir) = std::fs::read_dir(&inner.cfg.state_dir) else {
        return;
    };
    let mut found: Vec<(u64, CampaignSpec, bool)> = Vec::new();
    for item in dir.flatten() {
        let Some(id) = item
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let spec_path = item.path().join("spec.json");
        let Ok(text) = std::fs::read_to_string(&spec_path) else {
            continue;
        };
        match CampaignSpec::parse(&text) {
            Ok(spec) => {
                let cancelled = item.path().join("cancelled").exists();
                found.push((id, spec, cancelled));
            }
            Err(e) => {
                eprintln!(
                    "vpsim-serve: skipping unreadable persisted spec {}: {e}",
                    spec_path.display()
                );
            }
        }
    }
    // Deterministic re-enqueue order: by id, i.e. original arrival order.
    found.sort_by_key(|(id, _, _)| *id);
    let mut entries = inner.entries.lock().expect("entries poisoned");
    let mut queue = inner.queue.lock().expect("queue poisoned");
    for (id, spec, cancelled) in found {
        let entry = Arc::new(Entry::new(id, spec));
        if cancelled {
            entry.request_cancel();
        }
        let ceiling = inner.next_id.load(Ordering::Relaxed).max(id + 1);
        inner.next_id.store(ceiling, Ordering::Relaxed);
        entries.insert(id, Arc::clone(&entry));
        queue.push_back(entry);
    }
    if !queue.is_empty() {
        eprintln!(
            "vpsim-serve: rehydrated {} persisted campaign(s) from {}",
            queue.len(),
            inner.cfg.state_dir.display()
        );
    }
    drop(entries);
    drop(queue);
    inner.queue_cond.notify_all();
}

/// RAII connection slot: decrements the live-connection count however
/// the handler thread exits.
struct ConnSlot(Arc<Inner>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Front-door hardening applies to *every* accepted connection,
        // `/healthz` and `/metrics` included: socket timeouts bound the
        // damage a slowloris peer can do to one handler thread, and the
        // connection cap bounds how many such threads can exist at all.
        let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
        if inner.connections.fetch_add(1, Ordering::AcqRel) >= inner.cfg.max_connections {
            inner.connections.fetch_sub(1, Ordering::AcqRel);
            inner.metrics.shed_requests.inc();
            let _ = http::respond_with_headers(
                &mut stream,
                503,
                "application/json",
                &[("retry-after", "1")],
                &error_body("connection limit reached; retry shortly"),
            );
            continue;
        }
        let slot = ConnSlot(Arc::clone(inner));
        let inner = Arc::clone(inner);
        // Thread-per-connection: a stalled client occupies one thread
        // and its own socket buffer, nothing shared.
        std::thread::spawn(move || {
            let _slot = slot;
            let _ = handle_connection(&inner, stream);
        });
    }
}

fn runner_loop(inner: &Arc<Inner>) {
    loop {
        let entry = {
            let mut queue = inner.queue.lock().expect("queue poisoned");
            loop {
                if let Some(entry) = queue.pop_front() {
                    break entry;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.queue_cond.wait(queue).expect("queue poisoned");
            }
        };
        if inner.shutdown.load(Ordering::Acquire) {
            // Drain mode: the campaign stays persisted for the next
            // start; just terminate its stream.
            entry
                .log
                .push("{\"type\":\"status\",\"state\":\"interrupted\"}".to_owned());
            entry.log.close();
            continue;
        }
        run_campaign(inner, &entry);
    }
}

/// Execute one campaign end to end and finalize its stream.
fn run_campaign(inner: &Arc<Inner>, entry: &Arc<Entry>) {
    let user_cancelled_early = entry.state() == CampaignState::Cancelled;
    if user_cancelled_early {
        // Cancelled before a runner ever picked it up: nothing to run.
        entry
            .log
            .push(status_line(entry, CampaignState::Cancelled, 0));
        entry.log.close();
        return;
    }
    entry.set_state(CampaignState::Running);

    let observer: Arc<dyn JobObserver> = Arc::new(StreamObserver::new(
        Arc::clone(&entry.log),
        Arc::clone(&entry.jobs_done),
        &entry.spec.trials_per_cell(),
    ));
    // The spec's `isolate` wins over the daemon default; the process
    // backend re-execs this binary (or `worker_cmd`) as the fleet, and
    // a graceful drain kills the fleet via the same cancel token.
    let backend = match entry.spec.isolate.unwrap_or(inner.cfg.isolate) {
        Isolate::Thread => WorkerBackend::Thread,
        Isolate::Process => WorkerBackend::Process(FleetConfig {
            workers: inner.cfg.jobs,
            worker_cmd: inner.cfg.worker_cmd.clone(),
            ..FleetConfig::default()
        }),
    };
    let exec = Exec {
        jobs: inner.cfg.jobs,
        resume: Some(inner.cfg.state_dir.join(entry.id.to_string())),
        cancel: Some(entry.cancel.clone()),
        observer: Some(observer),
        metrics: Some(CampaignMetrics::register(
            &inner.registry,
            &entry.id.to_string(),
        )),
        backend,
        ..Exec::default()
    };
    let outcome = entry.spec.to_campaign().run(&exec);

    let shutting_down =
        inner.shutdown.load(Ordering::Acquire) && entry.state() != CampaignState::Cancelled;
    match outcome {
        Ok(_) if shutting_down => {
            // Interrupted by daemon shutdown: completed jobs are in the
            // manifest; the next start resumes and re-streams them.
            entry
                .log
                .push("{\"type\":\"status\",\"state\":\"interrupted\"}".to_owned());
            entry.log.close();
        }
        Ok(outcome) => {
            let mut failed_cells = 0usize;
            for (cell, result) in outcome.cells().iter().enumerate() {
                entry.log.push(cell_line(cell, result));
                if matches!(result.outcome, CellOutcome::Failed(_)) {
                    failed_cells += 1;
                }
            }
            let state = if entry.state() == CampaignState::Cancelled {
                CampaignState::Cancelled
            } else {
                // A restart replays every finished campaign from its
                // manifest: count a campaign only when this daemon ran
                // one of its jobs.
                if outcome.stats.jobs_run > 0 {
                    inner.metrics.campaigns_done.inc();
                }
                CampaignState::Done
            };
            entry.set_state(state);
            entry.log.push(status_line(entry, state, failed_cells));
            entry.log.close();
        }
        Err(e) => {
            entry.set_state(CampaignState::Failed);
            entry.log.push(format!(
                "{{\"type\":\"status\",\"state\":\"failed\",\"error\":\"{}\"}}",
                escaped(&e.to_string())
            ));
            entry.log.close();
        }
    }
}

/// The per-cell summary line appended after all result lines. Floats
/// are emitted as IEEE-754 bit patterns (bit-exact across hosts) plus
/// a short human-readable rendering.
fn cell_line(cell: usize, result: &vpsim_harness::CellResult) -> String {
    match &result.outcome {
        CellOutcome::Unsupported => format!(
            "{{\"type\":\"cell\",\"cell\":{cell},\"name\":\"{}\",\"status\":\"unsupported\"}}",
            escaped(&result.name)
        ),
        CellOutcome::Evaluated(e) => format!(
            "{{\"type\":\"cell\",\"cell\":{cell},\"name\":\"{}\",\"status\":\"evaluated\",\
             \"p_bits\":\"{:016x}\",\"p\":{:.6},\"rate_kbps\":{:.3},\"succeeds\":{}}}",
            escaped(&result.name),
            e.ttest.p_value.to_bits(),
            e.ttest.p_value,
            e.rate_kbps,
            e.succeeds(),
        ),
        CellOutcome::Failed(err) => format!(
            "{{\"type\":\"cell\",\"cell\":{cell},\"name\":\"{}\",\"status\":\"failed\",\
             \"error\":\"{}\"}}",
            escaped(&result.name),
            escaped(&err.to_string()),
        ),
    }
}

/// The terminal status line of a stream.
fn status_line(entry: &Entry, state: CampaignState, failed_cells: usize) -> String {
    format!(
        "{{\"type\":\"status\",\"state\":\"{}\",\"jobs_total\":{},\"jobs_done\":{},\
         \"failed_cells\":{failed_cells}}}",
        state.token(),
        entry.jobs_total,
        entry.jobs_done.load(Ordering::Relaxed),
    )
}

/// Serve one connection (one request; responses close the connection).
fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let request = match http::read_request(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return Ok(()),
        Err(HttpError::BodyTooLarge(n)) => {
            return http::respond(
                &mut stream,
                413,
                "application/json",
                &error_body(&HttpError::BodyTooLarge(n).to_string()),
            );
        }
        Err(e) => {
            return http::respond(
                &mut stream,
                400,
                "application/json",
                &error_body(&e.to_string()),
            );
        }
    };
    route(inner, &request, stream)
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", escaped(message))
}

fn route(inner: &Arc<Inner>, request: &Request, mut stream: TcpStream) -> std::io::Result<()> {
    let path = request.path.as_str();
    let method = request.method.as_str();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => http::respond(&mut stream, 200, "text/plain", "ok\n"),
        ("GET", ["metrics"]) => {
            let body = metrics_text(inner);
            http::respond(&mut stream, 200, "text/plain", &body)
        }
        ("POST", ["shutdown"]) => {
            http::respond(
                &mut stream,
                200,
                "application/json",
                "{\"shutting_down\":true}\n",
            )?;
            request_shutdown(inner);
            Ok(())
        }
        ("POST", ["campaigns"]) => submit(inner, request, &mut stream),
        ("GET", ["campaigns"]) => {
            let mut docs: Vec<(u64, String)> = inner
                .entries
                .lock()
                .expect("entries poisoned")
                .values()
                .map(|e| (e.id, progress_body(e).trim_end().to_owned()))
                .collect();
            docs.sort_by_key(|(id, _)| *id);
            let body = format!(
                "[{}]\n",
                docs.iter()
                    .map(|(_, d)| d.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            http::respond(&mut stream, 200, "application/json", &body)
        }
        ("GET", ["campaigns", id]) => with_entry(inner, id, &mut stream, |entry, stream| {
            let body = progress_body(entry);
            http::respond(stream, 200, "application/json", &body)
        }),
        ("GET", ["campaigns", id, "metrics"]) => {
            with_entry(inner, id, &mut stream, |entry, stream| {
                let body = campaign_metrics_body(inner, entry);
                http::respond(stream, 200, "application/json", &body)
            })
        }
        ("GET", ["campaigns", id, "results"]) => {
            with_entry(inner, id, &mut stream, |entry, stream| {
                stream_results(entry, stream)
            })
        }
        ("POST", ["campaigns", id, "cancel"]) => {
            with_entry(inner, id, &mut stream, |entry, stream| {
                cancel(inner, entry, stream)
            })
        }
        (_, ["healthz" | "metrics" | "shutdown" | "campaigns", ..]) => http::respond(
            &mut stream,
            405,
            "application/json",
            &error_body(&format!("method {method} not allowed on {path}")),
        ),
        _ => http::respond(
            &mut stream,
            404,
            "application/json",
            &error_body(&format!("no such resource {path}")),
        ),
    }
}

/// Look an entry up by its path segment and hand it to `action`;
/// answers 404 for unknown or non-numeric ids.
fn with_entry(
    inner: &Arc<Inner>,
    id: &str,
    stream: &mut TcpStream,
    action: impl FnOnce(&Arc<Entry>, &mut TcpStream) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let entry = id.parse::<u64>().ok().and_then(|id| {
        inner
            .entries
            .lock()
            .expect("entries poisoned")
            .get(&id)
            .cloned()
    });
    match entry {
        Some(entry) => action(&entry, stream),
        None => http::respond(
            stream,
            404,
            "application/json",
            &error_body(&format!("no campaign with id {id:?}")),
        ),
    }
}

/// `POST /campaigns`: validate, persist, register, enqueue, 201.
fn submit(inner: &Arc<Inner>, request: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return http::respond(
            stream,
            400,
            "application/json",
            &error_body("campaign spec must be UTF-8 JSON"),
        );
    };
    let spec = match CampaignSpec::parse(text) {
        Ok(spec) => spec,
        Err(SpecError { message }) => {
            return http::respond(
                stream,
                400,
                "application/json",
                &error_body(&format!("invalid campaign spec: {message}")),
            );
        }
    };
    if inner.shutdown.load(Ordering::Acquire) {
        return http::respond(
            stream,
            409,
            "application/json",
            &error_body("daemon is shutting down"),
        );
    }
    let queued = inner.queue.lock().expect("queue poisoned").len();
    if queued >= inner.cfg.queue_high_water {
        // Overload shedding: accepting would only deepen the backlog;
        // tell the client when to come back instead.
        inner.metrics.shed_requests.inc();
        return http::respond_with_headers(
            stream,
            503,
            "application/json",
            &[("retry-after", "5")],
            &error_body(&format!(
                "runner queue is at its high-water mark ({queued} campaigns \
                 waiting); retry later"
            )),
        );
    }
    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    // Persist before acknowledging: an id the client has seen survives
    // any crash from here on.
    if let Err(e) = persist_spec(&inner.cfg.state_dir, id, &spec) {
        return http::respond(
            stream,
            500,
            "application/json",
            &error_body(&format!("failed to persist campaign: {e}")),
        );
    }
    let entry = Arc::new(Entry::new(id, spec));
    inner
        .entries
        .lock()
        .expect("entries poisoned")
        .insert(id, Arc::clone(&entry));
    inner
        .queue
        .lock()
        .expect("queue poisoned")
        .push_back(Arc::clone(&entry));
    inner.queue_cond.notify_one();
    let body = format!(
        "{{\"id\":{id},\"name\":\"{}\",\"jobs_total\":{},\"effective_seed\":\"{:016x}\"}}\n",
        escaped(&entry.spec.name),
        entry.jobs_total,
        entry.spec.namespaced_seed(),
    );
    http::respond(stream, 201, "application/json", &body)
}

/// Atomic spec persistence: temp file + rename.
fn persist_spec(state_dir: &Path, id: u64, spec: &CampaignSpec) -> std::io::Result<()> {
    let dir = state_dir.join(id.to_string());
    std::fs::create_dir_all(&dir)?;
    let tmp = dir.join("spec.json.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(spec.to_json().as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, dir.join("spec.json"))
}

/// `POST /campaigns/<id>/cancel`: persist the marker, trip the token.
fn cancel(inner: &Arc<Inner>, entry: &Arc<Entry>, stream: &mut TcpStream) -> std::io::Result<()> {
    let already_terminal = matches!(
        entry.state(),
        CampaignState::Done | CampaignState::Failed | CampaignState::Cancelled
    );
    if !already_terminal {
        // Marker first: if we die right after, the restart still
        // honours the cancellation.
        let _ = std::fs::write(
            inner
                .cfg
                .state_dir
                .join(entry.id.to_string())
                .join("cancelled"),
            b"",
        );
        entry.request_cancel();
    }
    let body = format!(
        "{{\"id\":{},\"state\":\"{}\"}}\n",
        entry.id,
        entry.state().token()
    );
    http::respond(stream, 200, "application/json", &body)
}

/// `GET /campaigns/<id>`: the progress document.
fn progress_body(entry: &Arc<Entry>) -> String {
    format!(
        "{{\"id\":{},\"name\":\"{}\",\"state\":\"{}\",\"jobs_total\":{},\"jobs_done\":{},\
         \"log_lines\":{}}}\n",
        entry.id,
        escaped(&entry.spec.name),
        entry.state().token(),
        entry.jobs_total,
        entry.jobs_done.load(Ordering::Relaxed),
        entry.log.len(),
    )
}

/// `GET /campaigns/<id>/results`: stream the log as chunked JSONL.
///
/// The per-client cursor plus bounded batches is the backpressure
/// story: lines are copied out of the shared log in batches of at most
/// [`crate::registry::STREAM_BATCH`] under the log lock, then written
/// to the socket with no lock held — a stalled consumer blocks only
/// its own connection thread.
fn stream_results(entry: &Arc<Entry>, stream: &mut TcpStream) -> std::io::Result<()> {
    let log = Arc::clone(&entry.log);
    let mut writer = ChunkedWriter::start(stream, "application/jsonl")?;
    let mut cursor = 0usize;
    let mut buf = String::new();
    while let Some(batch) = log.next_batch(cursor) {
        cursor += batch.len();
        buf.clear();
        for line in &batch {
            buf.push_str(line);
            buf.push('\n');
        }
        writer.chunk(&buf)?;
    }
    writer.finish()
}

/// Set the daemon's gauges: campaign and job counts from the entry
/// table (computed under its lock, which is released before any handle
/// is touched), and the simulation rate from the per-campaign cycle
/// series.
fn refresh_daemon_metrics(inner: &Arc<Inner>) {
    let entries = inner.entries.lock().expect("entries poisoned");
    let mut active = 0usize;
    let mut queued = 0usize;
    let mut jobs_queued = 0usize;
    for entry in entries.values() {
        let left = entry
            .jobs_total
            .saturating_sub(entry.jobs_done.load(Ordering::Relaxed));
        match entry.state() {
            CampaignState::Running => active += 1,
            CampaignState::Queued => queued += 1,
            _ => continue,
        }
        jobs_queued += left;
    }
    drop(entries);
    let uptime = inner.started.elapsed().as_secs_f64().max(1e-9);
    let cycles = inner
        .registry
        .snapshot()
        .counter_sum("vpsim_sim_cycles_total");
    let m = &inner.metrics;
    m.uptime_seconds.set(uptime);
    m.campaigns_active.set(active as f64);
    m.campaigns_queued.set(queued as f64);
    m.jobs_queued.set(jobs_queued as f64);
    m.sim_cycles_per_second.set(cycles as f64 / uptime);
    m.connections_active
        .set(inner.connections.load(Ordering::Relaxed) as f64);
}

/// `GET /metrics`: Prometheus text exposition of the whole registry —
/// the daemon's own series plus every per-campaign series
/// (`campaign="<id>"` labels) updated live by the worker pools.
fn metrics_text(inner: &Arc<Inner>) -> String {
    refresh_daemon_metrics(inner);
    inner.registry.snapshot().to_prometheus()
}

/// `GET /campaigns/<id>/metrics`: the campaign's progress document plus
/// its slice of the registry (every series labelled with its id), as
/// one JSON document.
fn campaign_metrics_body(inner: &Arc<Inner>, entry: &Arc<Entry>) -> String {
    let snap = inner
        .registry
        .snapshot()
        .filter_label("campaign", &entry.id.to_string());
    format!(
        "{{\"id\":{},\"name\":\"{}\",\"state\":\"{}\",\"jobs_total\":{},\"jobs_done\":{},\
         \"metrics\":{}}}\n",
        entry.id,
        escaped(&entry.spec.name),
        entry.state().token(),
        entry.jobs_total,
        entry.jobs_done.load(Ordering::Relaxed),
        snap.to_json(),
    )
}
