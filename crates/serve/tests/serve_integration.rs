//! In-process integration tests for the serving plane: wire-level
//! determinism, backpressure isolation, cancellation, graceful-restart
//! resume, HTTP robustness, front-door overload hardening (slowloris,
//! connection cap, queue high water), and the process-isolated backend.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vpsim_harness::Isolate;
use vpsim_serve::client;
use vpsim_serve::{ServeConfig, Server};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpsim-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start(state: &std::path::Path, runners: usize, jobs: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.to_path_buf(),
        runners,
        jobs,
        ..ServeConfig::default()
    })
    .expect("daemon starts")
}

fn spec_json(name: &str, trials: usize) -> String {
    format!(
        r#"{{"name":"{name}","trials":{trials},"seed":77,
            "cells":[{{"category":"train_test","channel":"timing_window","predictor":"lvp"}},
                     {{"category":"test_hit","channel":"persistent","predictor":"lvp"}}]}}"#
    )
}

fn submit(addr: &str, body: &str) -> u64 {
    let r = client::request(addr, "POST", "/campaigns", Some(body)).expect("submit");
    assert_eq!(r.status, 201, "submit answered: {}", r.body);
    vpsim_json::field_u64(&r.body, "id").expect("id in acknowledgement")
}

fn collect_stream(addr: &str, id: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let status = client::stream(addr, &format!("/campaigns/{id}/results"), |line| {
        lines.push(line.to_owned());
    })
    .expect("stream");
    assert_eq!(status, 200);
    lines
}

fn wait_for_state(addr: &str, id: u64, wanted: &[&str], budget: Duration) -> String {
    let started = Instant::now();
    loop {
        let r = client::request(addr, "GET", &format!("/campaigns/{id}"), None).expect("query");
        let state = vpsim_json::field_str(&r.body, "state")
            .expect("state")
            .to_owned();
        if wanted.contains(&state.as_str()) {
            return state;
        }
        assert!(
            started.elapsed() < budget,
            "campaign {id} stuck in state {state:?} (wanted one of {wanted:?})"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn identical_specs_under_different_ids_stream_identical_payloads() {
    let state = temp_dir("identical");
    let server = start(&state, 2, 2);
    let addr = server.addr().to_string();

    // Same spec twice -> two server-assigned ids, run concurrently by
    // two runners with different worker schedules.
    let body = spec_json("twins", 6);
    let id_a = submit(&addr, &body);
    let id_b = submit(&addr, &body);
    assert_ne!(id_a, id_b);

    let (lines_a, lines_b) = (collect_stream(&addr, id_a), collect_stream(&addr, id_b));
    assert!(
        lines_a.len() > 12,
        "expected result + cell + status lines, got {lines_a:?}"
    );
    assert_eq!(
        lines_a, lines_b,
        "the result stream must be a pure function of the spec"
    );
    assert!(lines_a.last().unwrap().contains("\"state\":\"done\""));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn slow_consumer_stalls_only_its_own_stream() {
    let state = temp_dir("backpressure");
    let server = start(&state, 1, 2);
    let addr = server.addr().to_string();

    let id = submit(&addr, &spec_json("bp", 8));

    // A deliberately stalled consumer: opens the stream, reads the
    // response head, then never drains the socket again.
    let stalled = std::net::TcpStream::connect(&addr).expect("connect");
    {
        use std::io::Write;
        let mut s = &stalled;
        write!(s, "GET /campaigns/{id}/results HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        s.flush().unwrap();
    }

    // Meanwhile a healthy consumer must still receive the whole stream
    // and the campaign must complete.
    let lines = collect_stream(&addr, id);
    assert!(lines.last().unwrap().contains("\"type\":\"status\""));
    let state_now = wait_for_state(&addr, id, &["done"], Duration::from_secs(30));
    assert_eq!(state_now, "done");
    drop(stalled);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn cancel_mid_flight_terminates_the_stream() {
    let state = temp_dir("cancel");
    let server = start(&state, 1, 1);
    let addr = server.addr().to_string();

    // Large enough to still be running when the cancel lands.
    let id = submit(&addr, &spec_json("doomed", 20_000));
    wait_for_state(&addr, id, &["running"], Duration::from_secs(30));

    let r =
        client::request(&addr, "POST", &format!("/campaigns/{id}/cancel"), None).expect("cancel");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"state\":\"cancelled\""), "{}", r.body);
    assert!(
        state.join(id.to_string()).join("cancelled").exists(),
        "cancellation must be persisted for restarts"
    );

    let lines = collect_stream(&addr, id);
    let last = lines.last().expect("stream terminates");
    assert!(
        last.contains("\"state\":\"cancelled\""),
        "stream must end with a cancelled status, got {last:?}"
    );
    wait_for_state(&addr, id, &["cancelled"], Duration::from_secs(30));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn graceful_restart_resumes_and_streams_identical_payloads() {
    let state = temp_dir("restart");

    // Reference: the same spec run to completion without interruption
    // in a separate daemon with its own state directory.
    let ref_state = temp_dir("restart-ref");
    let (ref_id, reference) = {
        let server = start(&ref_state, 1, 2);
        let addr = server.addr().to_string();
        let id = submit(&addr, &spec_json("phoenix", 40));
        let lines = collect_stream(&addr, id);
        server.shutdown();
        server.join();
        (id, lines)
    };

    // Interrupted run: shut the daemon down while the campaign is
    // mid-flight, then restart on the same state directory.
    let server = start(&state, 1, 2);
    let addr = server.addr().to_string();
    let id = submit(&addr, &spec_json("phoenix", 40));
    wait_for_state(&addr, id, &["running", "done"], Duration::from_secs(30));
    server.shutdown();
    server.join();

    let server = start(&state, 1, 2);
    let addr = server.addr().to_string();
    let resumed = collect_stream(&addr, id);
    assert_eq!(
        resumed, reference,
        "a resumed campaign must stream byte-identical results"
    );

    // No duplicated result coordinates either.
    let mut seen = std::collections::HashSet::new();
    for line in resumed.iter().filter(|l| l.contains("\"type\":\"result\"")) {
        let cell = vpsim_json::field_u64(line, "cell").unwrap();
        let trial = vpsim_json::field_u64(line, "trial").unwrap();
        assert!(seen.insert((cell, trial)), "duplicate result {line:?}");
    }
    assert_eq!(seen.len(), 80, "40 trials x 2 cells, no lost cells");

    server.shutdown();
    server.join();

    // Restarting on the reference's finished state replays the whole
    // campaign from its manifest: the same stream, and no campaign
    // counted as completed by a daemon that ran none of its jobs.
    let server = start(&ref_state, 1, 2);
    let addr = server.addr().to_string();
    assert_eq!(
        collect_stream(&addr, ref_id),
        reference,
        "a replayed campaign must stream byte-identical results"
    );
    let r = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert!(
        r.body.contains("\nvpsim_campaigns_done_total 0\n"),
        "a replay is not a completed campaign: {}",
        r.body
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&ref_state);
}

/// Shutting down right after a submission must not strand a runner:
/// `join` returns within a bound even when the campaign was popped but
/// not yet running, and a restart resumes the campaign to completion.
#[test]
fn shutdown_right_after_submit_joins_promptly_and_restart_resumes() {
    let state = temp_dir("early-shutdown");
    let server = start(&state, 1, 2);
    let addr = server.addr().to_string();
    let id = submit(&addr, &spec_json("early", 150));
    server.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("join must return promptly after shutdown");

    let server = start(&state, 1, 2);
    let addr = server.addr().to_string();
    let lines = collect_stream(&addr, id);
    assert!(
        lines.last().unwrap().contains("\"state\":\"done\""),
        "the resumed campaign must finish: {:?}",
        lines.last()
    );
    let results = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"result\""))
        .count();
    assert_eq!(results, 300, "150 trials x 2 cells, each exactly once");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

/// Minimal Prometheus-exposition checker: every sample line must belong
/// to a family announced by exactly one `# TYPE` line, counter families
/// must end in `_total`, families must appear in stable (sorted) order,
/// no series may repeat, and no family may mix unlabelled and labelled
/// series (an unlabelled total next to per-campaign series would count
/// twice under `sum()`).
fn check_exposition(body: &str) -> Vec<String> {
    let mut families: Vec<(String, String)> = Vec::new();
    let mut series_seen = std::collections::HashSet::new();
    let mut label_styles = std::collections::HashMap::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("family name").to_owned();
            let kind = it.next().expect("family kind").to_owned();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown kind in {line:?}"
            );
            assert!(
                !families.iter().any(|(n, _)| *n == name),
                "duplicate # TYPE for {name}"
            );
            assert!(
                kind != "counter" || name.ends_with("_total"),
                "counter {name} must end in _total"
            );
            families.push((name, kind));
        } else if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unknown comment {line:?}");
        } else {
            let id = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("sample without value: {line:?}"))
                .0;
            assert!(series_seen.insert(id.to_owned()), "duplicate series {id}");
            let name = id.split('{').next().unwrap();
            let family = families.iter().find(|(n, kind)| {
                name == n
                    || (kind == "histogram"
                        && [
                            format!("{n}_bucket"),
                            format!("{n}_sum"),
                            format!("{n}_count"),
                        ]
                        .contains(&name.to_owned()))
            });
            let (family, _) = family.unwrap_or_else(|| panic!("sample {name} has no # TYPE line"));
            // A histogram bucket's `le` is not a series label.
            let labelled = id.split_once('{').is_some_and(|(_, labels)| {
                let labels = labels.trim_end_matches('}');
                labels.split(',').any(|l| !l.starts_with("le="))
            });
            let first = *label_styles.entry(family.clone()).or_insert(labelled);
            assert_eq!(
                first, labelled,
                "family {family} mixes unlabelled and labelled series"
            );
        }
    }
    let names: Vec<String> = families.iter().map(|(n, _)| n.clone()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "families must appear in stable sorted order");
    names
}

#[test]
fn metrics_exposition_round_trips_and_campaign_slice_is_served() {
    let state = temp_dir("metrics");
    let server = start(&state, 1, 2);
    let addr = server.addr().to_string();

    let id = submit(&addr, &spec_json("observed", 5));
    let _ = collect_stream(&addr, id); // drain to completion
    wait_for_state(&addr, id, &["done"], Duration::from_secs(30));

    // The global exposition parses cleanly and carries both the daemon
    // families and this campaign's labelled series.
    let r = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    let families = check_exposition(&r.body);
    for needle in [
        "vpsim_campaigns_active",
        "vpsim_jobs_done_total",
        "vpsim_sched_ticks_total",
        "vpsim_phase_run_seconds",
    ] {
        assert!(
            families.iter().any(|f| f == needle),
            "metrics lack family {needle}: {families:?}"
        );
    }
    assert!(
        r.body
            .contains(&format!("vpsim_jobs_done_total{{campaign=\"{id}\"}} 10")),
        "per-campaign jobs counter missing (5 trials x 2 cells): {}",
        r.body
    );
    // A second scrape keeps the family ordering (stable exposition).
    let r2 = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(check_exposition(&r2.body), families);

    // The per-campaign JSON endpoint serves only this campaign's slice.
    let r = client::request(&addr, "GET", &format!("/campaigns/{id}/metrics"), None).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = vpsim_json::parse(&r.body).expect("valid JSON");
    assert_eq!(doc.get("id").and_then(vpsim_json::Json::as_u64), Some(id));
    assert_eq!(
        doc.get("jobs_done").and_then(vpsim_json::Json::as_u64),
        Some(10)
    );
    let fams = doc
        .get("metrics")
        .and_then(|m| m.get("families"))
        .and_then(vpsim_json::Json::as_arr)
        .expect("metrics.families");
    assert!(!fams.is_empty(), "campaign slice must not be empty");
    for fam in fams {
        for series in fam
            .get("series")
            .and_then(vpsim_json::Json::as_arr)
            .unwrap()
        {
            let label = series
                .get("labels")
                .and_then(|l| l.get("campaign"))
                .and_then(vpsim_json::Json::as_str)
                .expect("campaign label");
            assert_eq!(label, id.to_string(), "foreign series leaked into slice");
        }
    }
    // Unknown id -> 404.
    let r = client::request(&addr, "GET", "/campaigns/999/metrics", None).unwrap();
    assert_eq!(r.status, 404);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn http_surface_is_robust() {
    let state = temp_dir("http");
    let server = start(&state, 1, 1);
    let addr = server.addr().to_string();

    // Liveness and metrics.
    let r = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((r.status, r.body.as_str()), (200, "ok\n"));
    let r = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    for needle in [
        "vpsim_campaigns_active",
        "vpsim_jobs_done_total",
        "vpsim_sim_cycles_per_second",
        "vpsim_io_faults_total",
        "vpsim_torn_lines_total",
    ] {
        assert!(r.body.contains(needle), "metrics lack {needle}: {}", r.body);
    }

    // Bad spec -> 400 with a one-line error.
    let r = client::request(&addr, "POST", "/campaigns", Some("{\"nope\"")).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("error"), "{}", r.body);

    // Unknown id -> 404; bad id -> 404; wrong method -> 405.
    assert_eq!(
        client::request(&addr, "GET", "/campaigns/999", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&addr, "GET", "/campaigns/bogus", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&addr, "POST", "/healthz", None)
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        client::request(&addr, "GET", "/teapot", None)
            .unwrap()
            .status,
        404
    );

    // Raw hostile bytes must yield a 400, not a hang or crash.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(b"BLARGH \x00\xff\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out:?}");
    }

    // Oversized declared body -> 413 before any bytes are read.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        write!(
            s,
            "POST /campaigns HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 413"), "{out:?}");
    }

    // An empty campaign list is a valid JSON array.
    let r = client::request(&addr, "GET", "/campaigns", None).unwrap();
    assert_eq!((r.status, r.body.as_str()), (200, "[]\n"));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

/// Send a raw request and read the server's entire raw response
/// (status line + headers + body) with a bounded client-side timeout.
fn raw_roundtrip(addr: &str, request: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

/// A slowloris peer — half a request line, then silence — must not
/// block `/healthz`, and the socket read timeout must evict it instead
/// of pinning its handler thread forever.
#[test]
fn slowloris_half_request_does_not_block_healthz_and_is_evicted() {
    use std::io::{Read, Write};
    let state = temp_dir("slowloris");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.clone(),
        runners: 1,
        jobs: 1,
        read_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();

    // The attacker: trickle half a request line, never finish it.
    let mut loris = std::net::TcpStream::connect(&addr).expect("connect");
    loris.write_all(b"GET /campai").unwrap();
    loris.flush().unwrap();

    // Parallel liveness probes must keep answering promptly.
    for _ in 0..5 {
        let started = Instant::now();
        let r = client::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, "ok\n"));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "/healthz stalled behind a slowloris peer"
        );
    }

    // The read timeout must terminate the half-open connection within
    // a bound — either silently or with an error response — instead of
    // pinning the handler thread forever. A still-open socket would
    // make this read trip our own 10 s timeout.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    match loris.read_to_string(&mut out) {
        Ok(_) => {
            assert!(
                out.is_empty() || out.starts_with("HTTP/1.1 4"),
                "a half request must not be served: {out:?}"
            );
        }
        Err(e) => {
            assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "slowloris connection was not evicted within its read timeout"
            );
        }
    }

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

/// Connections past the cap are shed immediately with a whole `503`
/// response carrying a `Retry-After` hint, and every shed is counted in
/// `/metrics`.
#[test]
fn excess_connections_are_shed_with_503_and_retry_after() {
    const PROBES: usize = 20;
    let state = temp_dir("conncap");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.clone(),
        runners: 1,
        jobs: 1,
        max_connections: 2,
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();

    // Two idle connections occupy both slots once accepted.
    let hog_a = std::net::TcpStream::connect(&addr).expect("connect");
    let hog_b = std::net::TcpStream::connect(&addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200)); // let accepts land

    for probe in 0..PROBES {
        let out = raw_roundtrip(&addr, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
        let (head, body) = out
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("probe {probe}: truncated response {out:?}"));
        let head = head.to_ascii_lowercase();
        assert!(
            head.starts_with("http/1.1 503 service unavailable\r\n"),
            "probe {probe}: {out:?}"
        );
        assert!(
            head.contains("\r\nretry-after: 1"),
            "probe {probe}: shed response must carry a Retry-After hint: {out:?}"
        );
        assert!(
            head.contains(&format!("\r\ncontent-length: {}", body.len())),
            "probe {probe}: shed body must arrive whole: {out:?}"
        );
    }
    drop(hog_a);
    drop(hog_b);

    // With the slots free again the daemon serves normally. A `/metrics`
    // attempt made while the hogs' handlers are still exiting is itself
    // shed, so the counter must equal the probes plus those attempts.
    let started = Instant::now();
    let mut shed_metrics_attempts = 0;
    loop {
        match client::request(&addr, "GET", "/metrics", None) {
            Ok(r) if r.status == 200 => {
                let expected = PROBES + shed_metrics_attempts;
                assert!(
                    r.body
                        .contains(&format!("vpsim_shed_requests_total {expected}\n")),
                    "shed counter must read {expected}: {}",
                    r.body
                );
                break;
            }
            _ => shed_metrics_attempts += 1,
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "daemon did not recover after the hogs disconnected"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

/// Submissions past the runner-queue high-water mark are shed with
/// `503` + `Retry-After` while already-accepted campaigns keep running.
#[test]
fn submissions_past_the_queue_high_water_mark_are_shed() {
    let state = temp_dir("highwater");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.clone(),
        runners: 1,
        jobs: 1,
        queue_high_water: 1,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();

    // A long campaign occupies the only runner; the next submission
    // sits in the queue at the high-water mark.
    let running = submit(&addr, &spec_json("occupier", 20_000));
    wait_for_state(&addr, running, &["running"], Duration::from_secs(30));
    let queued = submit(&addr, &spec_json("waiter", 4));

    // One more would deepen the backlog: shed with a come-back hint.
    let body = spec_json("shed-me", 4);
    let out = raw_roundtrip(
        &addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(out.starts_with("HTTP/1.1 503"), "{out:?}");
    assert!(
        out.to_ascii_lowercase().contains("retry-after: 5"),
        "queue shed must carry a Retry-After hint: {out:?}"
    );
    assert!(out.contains("high-water"), "{out:?}");

    // The backlog itself is unharmed: cancel the occupier and the
    // queued campaign runs to completion.
    let r = client::request(&addr, "POST", &format!("/campaigns/{running}/cancel"), None).unwrap();
    assert_eq!(r.status, 200);
    wait_for_state(&addr, queued, &["done"], Duration::from_secs(60));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}

/// The process-isolated backend is byte-transparent through the
/// daemon: the same spec streams an identical payload whether its jobs
/// run on worker threads or in supervised worker subprocesses.
#[test]
fn process_isolated_campaigns_stream_identical_payloads() {
    let body = spec_json("relocated", 6);

    let thread_lines = {
        let state = temp_dir("isolate-thread");
        let server = start(&state, 1, 2);
        let addr = server.addr().to_string();
        let id = submit(&addr, &body);
        let lines = collect_stream(&addr, id);
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&state);
        lines
    };

    let state = temp_dir("isolate-process");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state.clone(),
        runners: 1,
        jobs: 2,
        isolate: Isolate::Process,
        worker_cmd: Some(vec![env!("CARGO_BIN_EXE_vpsim-serve-worker").to_owned()]),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();
    let id = submit(&addr, &body);
    let process_lines = collect_stream(&addr, id);
    assert_eq!(
        process_lines, thread_lines,
        "job relocation into worker subprocesses must not change the stream"
    );

    // The supervision families are exported (zero crashes on a clean
    // run, but the series exist for scraping).
    let r = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    for needle in ["vpsim_worker_crashes_total", "vpsim_worker_respawns_total"] {
        assert!(r.body.contains(needle), "metrics lack {needle}");
    }

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&state);
}
