//! `vpsim-serve` — campaign-as-a-service: a std-only daemon that runs
//! attack-evaluation campaigns submitted over a minimal HTTP/1.1 API,
//! streams their results as JSONL, and survives being killed at any
//! instant.
//!
//! ## API
//!
//! | Endpoint | Effect |
//! |---|---|
//! | `POST /campaigns` | Submit a JSON [`CampaignSpec`](vpsim_harness::CampaignSpec); returns `201` with the server-assigned id |
//! | `GET /campaigns` | List all campaigns with progress |
//! | `GET /campaigns/<id>` | One campaign's progress (state, jobs done/total) |
//! | `GET /campaigns/<id>/results` | Stream the result log as chunked JSONL |
//! | `POST /campaigns/<id>/cancel` | Cooperatively cancel (persists across restarts) |
//! | `GET /metrics` | Plain-text counters: active/queued campaigns, jobs, sim-cycle throughput, I/O faults, torn lines, worker crashes/respawns, shed requests |
//! | `GET /healthz` | Liveness probe |
//! | `POST /shutdown` | Graceful stop; running campaigns park their manifests for resume |
//!
//! ## Front-door hardening
//!
//! Every accepted connection gets socket read/write timeouts
//! ([`ServeConfig::read_timeout`] / [`ServeConfig::write_timeout`]), so
//! a slowloris peer that trickles half a request can pin at most one
//! handler thread for a bounded time while `/healthz` and `/metrics`
//! keep answering. Concurrent connections are capped
//! ([`ServeConfig::max_connections`]); excess ones are shed immediately
//! with `503` + `Retry-After`, as are campaign submissions past the
//! runner-queue high-water mark ([`ServeConfig::queue_high_water`]).
//! Shedding is counted in `vpsim_shed_requests_total`.
//!
//! Campaigns can run on the process-isolated backend (spec field
//! `"isolate":"process"`, or daemon-wide via [`ServeConfig::isolate`]):
//! jobs execute in supervised worker subprocesses whose crashes are
//! contained, respawned, and — for deterministically crashing cells —
//! quarantined, without perturbing the result stream's bytes.
//!
//! ## Invariants
//!
//! * **Determinism to the wire** — a campaign's result stream is a
//!   pure function of its spec: same spec, same bytes, regardless of
//!   worker count, concurrent campaigns, server-assigned ids, or how
//!   many times the daemon died and resumed in between. Seeds are
//!   namespaced by *spec content* (name + declared seed), never by
//!   server state; completions are re-ordered into canonical
//!   `(cell, trial)` order before they reach the log.
//! * **Crash-safety** — specs are persisted atomically before the
//!   submission is acknowledged, results flow through the crash-safe
//!   resume manifest, and a restarted daemon re-enqueues every
//!   persisted campaign: finished jobs replay from the manifest,
//!   pending ones re-run, cancelled campaigns stay cancelled.
//! * **Isolation under backpressure** — result streaming is
//!   cursor-per-client over an append-only log with bounded batch
//!   copies; a stalled consumer blocks its own socket, never a worker
//!   or another client.
//!
//! The daemon fronts the existing `vpsim-harness` execution machinery
//! (job ledger, thread and process workers, supervised cancellation,
//! fault-tolerant sink I/O); this crate adds only the serving plane.

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod registry;
pub mod server;

pub use registry::{CampaignState, Entry, StreamLog, StreamObserver};
pub use server::{ServeConfig, Server};
