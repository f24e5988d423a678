//! `daemon_fleet` — the `table3` spec with `"isolate":"process"`,
//! POSTed to an in-process `vpsim_serve::Server` (one runner, a fleet
//! of two worker processes) and read back over one streaming result
//! connection. One client, closed loop.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vpsim_harness::{CampaignSpec, Exec, FleetConfig, Isolate, RealIo, SinkIo, WorkerBackend};
use vpsim_serve::{client, ServeConfig, Server};

use crate::layers::JobTimes;
use crate::stats::{median, quantile, rate, Report};
use crate::table3::{self, Reference, WORKERS};
use crate::trace::Tracer;

/// Timed daemon campaigns per run, however short `--seconds` is.
const MIN_REPS: usize = 2;

/// Extra start/stop cycles per run, so `setup_s` is a median.
const SETUP_STARTS: usize = 6;

/// A daemon on a fresh state directory under `work_dir`. Returns it with
/// the time `Server::start` took.
fn start(work_dir: &Path, tag: &str) -> Result<(Server, PathBuf, f64), String> {
    let dir = work_dir.join(tag);
    let t = Instant::now();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: dir.clone(),
        runners: 1,
        jobs: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    Ok((server, dir, t.elapsed().as_secs_f64()))
}

fn stop(server: Server, dir: &Path) {
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

/// One campaign through the daemon: submit, then stream until the
/// final `done` status line.
struct Streamed {
    lines: Vec<String>,
    /// When the POST started.
    posted: Instant,
    /// From the start of `POST /campaigns` to the `done` line.
    wall: Duration,
    submit: Duration,
    /// Arrival of each line, from the start of the POST.
    arrivals: Vec<Duration>,
}

fn stream_once(addr: &str, spec: &str) -> Result<Streamed, String> {
    let t0 = Instant::now();
    let resp = client::request(addr, "POST", "/campaigns", Some(spec))
        .map_err(|e| format!("POST /campaigns failed: {e}"))?;
    let submit = t0.elapsed();
    if resp.status != 201 {
        return Err(format!(
            "POST /campaigns answered {}: {}",
            resp.status,
            resp.body.trim()
        ));
    }
    let id = vpsim_json::parse(resp.body.trim())
        .ok()
        .and_then(|doc| doc.get("id").and_then(vpsim_json::Json::as_u64))
        .ok_or_else(|| format!("no campaign id in {:?}", resp.body))?;
    let (mut lines, mut arrivals) = (Vec::new(), Vec::new());
    let status = client::stream(addr, &format!("/campaigns/{id}/results"), |line| {
        arrivals.push(t0.elapsed());
        lines.push(line.to_owned());
    })
    .map_err(|e| format!("GET /campaigns/{id}/results failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /campaigns/{id}/results answered {status}"));
    }
    let done = lines
        .iter()
        .position(|l| l.starts_with("{\"type\":\"status\"") && l.contains("\"state\":\"done\""))
        .ok_or_else(|| format!("the stream ended without a done line: {:?}", lines.last()))?;
    Ok(Streamed {
        wall: arrivals[done],
        posted: t0,
        lines,
        submit,
        arrivals,
    })
}

/// Check a stream against the `repro run` reference of the table3
/// spec: result lines byte-identical, Table III verdicts in the cell
/// lines, a clean `done` status. Returns the failed jobs: every job
/// whose result line is missing or differs, and every job of a cell
/// that did not evaluate.
fn check_stream(
    lines: &[String],
    reference: &Reference,
    spec: &CampaignSpec,
    report: &mut Report,
) -> u64 {
    let results: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"result\""))
        .collect();
    let mut bad: Vec<bool> = reference
        .lines
        .iter()
        .enumerate()
        .map(|(i, want)| results.get(i) != Some(&want))
        .collect();
    report.check(results.len() == reference.lines.len(), || {
        format!(
            "{} result lines streamed, {} in the reference",
            results.len(),
            reference.lines.len()
        )
    });
    let trials = spec.trials_per_cell();
    let first_job: Vec<usize> = trials
        .iter()
        .scan(0, |acc, t| {
            let first = *acc;
            *acc += t;
            Some(first)
        })
        .collect();
    let mut evaluated = 0;
    for line in lines.iter().filter(|l| l.starts_with("{\"type\":\"cell\"")) {
        let doc = vpsim_json::parse(line).ok();
        let field = |k: &str| doc.as_ref().and_then(|d| d.get(k));
        let Some(cell) = field("cell").and_then(vpsim_json::Json::as_u64) else {
            report.check(false, || format!("unreadable cell line {line}"));
            continue;
        };
        let cell = cell as usize;
        let (Some(coord), Some(&n)) = (spec.cells.get(cell), trials.get(cell)) else {
            report.check(false, || format!("cell line for unknown cell {cell}"));
            continue;
        };
        match field("status").and_then(vpsim_json::Json::as_str) {
            Some("unsupported") if n == 0 => {}
            Some("evaluated") => {
                evaluated += 1;
                let paper = coord.predictor == vpsec::experiment::PredictorKind::Lvp;
                let succeeds = field("succeeds").and_then(vpsim_json::Json::as_bool);
                report.check(succeeds == Some(paper), || {
                    format!("Table III verdict of cell {}: {line}", coord.name())
                });
            }
            _ => {
                bad[first_job[cell]..first_job[cell] + n].fill(true);
                report.check(false, || {
                    format!("cell {} did not evaluate: {line}", coord.name())
                });
            }
        }
    }
    report.check(evaluated == 18, || {
        format!("{evaluated} Table III cells evaluated over the stream, expected 18")
    });
    let last = lines.last().map_or("", String::as_str);
    report.check(
        last.contains("\"state\":\"done\"") && last.contains("\"failed_cells\":0"),
        || format!("the stream ended with {last}"),
    );
    bad.iter().filter(|&&b| b).count() as u64
}

/// One daemon campaign of the table3 spec with process isolation, on a
/// fresh daemon and state directory, checked against the `repro run`
/// reference of the table3 spec. Returns the stream and the set-up
/// time.
fn daemon_rep(
    spec: &CampaignSpec,
    reference: &Reference,
    work_dir: &Path,
    tag: &str,
    report: &mut Report,
) -> Result<(Streamed, f64), String> {
    let (server, dir, setup) = start(work_dir, tag)?;
    let streamed = stream_once(&server.addr().to_string(), &process_json(spec));
    stop(server, &dir);
    let streamed = streamed?;
    report.attempted += spec.num_jobs() as u64;
    report.failed += check_stream(&streamed.lines, reference, spec, report);
    Ok((streamed, setup))
}

/// The table3 spec document with `"isolate":"process"`.
fn process_json(spec: &CampaignSpec) -> String {
    CampaignSpec {
        isolate: Some(Isolate::Process),
        ..spec.clone()
    }
    .to_json()
}

/// The end-to-end run: daemon campaigns back to back for `budget`.
pub fn run(
    spec_seed: u64,
    budget: Duration,
    work_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let spec = table3::parse(&table3::spec_json(spec_seed))?;
    let reference = table3::reference(&spec)?;
    table3::check_verdicts(&reference.outcome, &spec, report);
    let mut setup = Vec::new();
    for i in 0..SETUP_STARTS {
        let (server, dir, secs) = start(work_dir, &format!("setup-{i}"))?;
        stop(server, &dir);
        setup.push(secs);
    }
    let jobs = spec.num_jobs() as f64;
    let cycles = reference.outcome.stats.sim_cycles as f64;
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed() < budget {
        let tag = format!("rep-{}", walls.len());
        let (streamed, secs) = daemon_rep(&spec, &reference, work_dir, &tag, report)?;
        setup.push(secs);
        walls.push(streamed.wall.as_secs_f64());
    }
    report.set("jobs_per_s", rate(jobs, &walls));
    report.set("bits_per_s", rate(2.0 * jobs, &walls));
    report.set("sim_cycles_per_s", rate(cycles, &walls));
    report.set("setup_s", median(&setup));
    eprintln!(
        "daemon_fleet: {} daemon campaigns of {jobs} jobs, {cycles} sim cycles each; walls {walls:.3?} s",
        walls.len()
    );
    Ok(())
}

/// The layers only `daemon_fleet` exercises, measured on the table3
/// spec: fleet frame IPC and the manifest sink from two observed
/// `Campaign::run`s on the process backend, the serve layer from
/// client-side timers on one daemon campaign.
pub fn measure_layers(
    spec: &CampaignSpec,
    reference: &Reference,
    work_dir: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let process = table3::parse(&process_json(spec))?;
    let jobs = process.num_jobs() as f64;
    let fleet = || Exec {
        jobs: WORKERS,
        backend: WorkerBackend::Process(FleetConfig {
            workers: WORKERS,
            ..FleetConfig::default()
        }),
        ..Exec::default()
    };

    // Fleet frame IPC: what the supervisor and the pipes add per job.
    let times = Arc::new(JobTimes::default());
    let exec = Exec {
        observer: Some(Arc::clone(&times) as _),
        ..fleet()
    };
    let (began, ended) = table3::timed_run(&process, &exec, reference, report)?;
    let run = times.finish(began, ended, tracer);
    report.set(
        "harness.fleet.overhead_us",
        (run.wall.as_secs_f64() * WORKERS as f64 - run.busy) / jobs * 1e6,
    );

    // Manifest sink: the same campaign with a fresh resume directory.
    let io = Arc::new(TimedIo::default());
    let dir = work_dir.join("sink");
    let exec = Exec {
        resume: Some(dir.clone()),
        sink_io: Some(Arc::clone(&io) as _),
        ..fleet()
    };
    let result = table3::timed_run(&process, &exec, reference, report);
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    let appends = io.appends.lock().expect("append log poisoned");
    let append_us: Vec<f64> = appends.iter().map(|a| a.0 * 1e6).collect();
    report.timing("harness.sink.append_us", &append_us);
    report.set("harness.sink.appends_per_job", appends.len() as f64 / jobs);
    report.set(
        "harness.sink.bytes_per_job",
        appends.iter().map(|a| a.1 as f64).sum::<f64>() / jobs,
    );
    drop(appends);

    // HTTP: submit, first result, gaps between streamed lines.
    let (streamed, _) = daemon_rep(spec, reference, work_dir, "traced", report)?;
    let t0 = streamed.posted;
    let span = tracer.record("serve.campaign", t0, t0 + streamed.wall, None, 0);
    tracer.record("serve.submit", t0, t0 + streamed.submit, Some(span), 0);
    let first_result = streamed
        .lines
        .iter()
        .position(|l| l.starts_with("{\"type\":\"result\""))
        .map_or(streamed.wall, |i| streamed.arrivals[i]);
    let gaps: Vec<f64> = streamed
        .arrivals
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    let bytes: usize = streamed.lines.iter().map(|l| l.len() + 1).sum();
    report.set("serve.submit_ms", streamed.submit.as_secs_f64() * 1e3);
    report.set("serve.first_result_ms", first_result.as_secs_f64() * 1e3);
    report.set("serve.stream_gap_ms.p99", quantile(&gaps, 0.99));
    report.set("serve.stream_bytes_per_job", bytes as f64 / jobs);
    Ok(())
}

/// The real filesystem, with every manifest append timed.
#[derive(Debug, Default)]
struct TimedIo {
    /// (seconds, bytes) per append.
    appends: Mutex<Vec<(f64, usize)>>,
}

impl SinkIo for TimedIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealIo.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }

    fn read(&self, path: &Path) -> io::Result<String> {
        RealIo.read(path)
    }

    fn replace(&self, path: &Path, contents: &str) -> io::Result<()> {
        RealIo.replace(path, contents)
    }

    fn append(&self, path: &Path, data: &str) -> io::Result<()> {
        let t = Instant::now();
        let result = RealIo.append(path, data);
        let secs = t.elapsed().as_secs_f64();
        self.appends
            .lock()
            .expect("append log poisoned")
            .push((secs, data.len()));
        result
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        RealIo.remove(path)
    }
}
