//! The JSONL result sink and resumable manifest.
//!
//! One file per campaign, `<dir>/<campaign-name>.jsonl`:
//!
//! ```text
//! {"v":1,"campaign":"table3","fingerprint":"89abcdef01234567","jobs":240}
//! {"cell":0,"trial":3,"m_obs":"4080e00000000000","m_cyc":8123,"u_obs":"4081a00000000000","u_cyc":8256,"wall_ns":91827,"attempts":1}
//! ```
//!
//! The header pins the campaign *fingerprint* (a structural hash of the
//! campaign definition) so a manifest is never resumed against a
//! different campaign. Observations are stored as the hex bit pattern
//! of the `f64`, so a resumed value round-trips exactly and parallel
//! and resumed runs stay bitwise-identical. Lines are flushed as jobs
//! complete; a truncated final line (killed campaign) is ignored on
//! resume. Everything is hand-rolled `std` — no serde in the image.
//!
//! All persistence goes through the [`SinkIo`](crate::SinkIo) plane and
//! **degrades gracefully**: a failed append falls back to a spill file
//! (`<name>.spill.jsonl`, merged back on the next open), a failed
//! rewrite leaves the manifest in append-only mode, and every observed
//! failure is counted into the run's store, which the outcome reads as
//! [`CampaignStats::io_faults`](crate::CampaignStats). A campaign never
//! aborts because its disk misbehaved mid-run — at worst some results
//! are re-run on resume.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use vpsec::experiment::{PairOutcome, TrialOutcome};
use vpsim_json::{field_hex, field_str, field_u64};
use vpsim_pipeline::SchedStats;

use crate::campaign::HarnessError;
use crate::io::SinkIo;
use crate::store::{CampaignMetrics, Count};

/// A completed job as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Cell index within the campaign.
    pub cell: usize,
    /// Trial index within the cell.
    pub trial: usize,
    /// The paired-trial outcome (both arms, bit-exact).
    pub pair: PairOutcome,
    /// Wall-clock nanoseconds of the recording attempt.
    pub wall_nanos: u64,
    /// Attempts consumed (1 for a first-try success).
    pub attempts: u32,
}

/// Append one arm's scheduler counters to a manifest line under
/// construction, keyed with the given prefix (`m` or `u`).
fn push_sched_fields(out: &mut String, prefix: &str, s: &SchedStats) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ",\"{prefix}_ticks\":{},\"{prefix}_skip\":{},\"{prefix}_comp\":{},\"{prefix}_wake\":{},\"{prefix}_verify\":{},\"{prefix}_issue\":{},\"{prefix}_disp\":{}",
        s.ticks,
        s.skipped_cycles,
        s.completion_events,
        s.wakeup_broadcasts,
        s.verify_events,
        s.issue_slots,
        s.dispatched,
    );
}

/// Parse one arm's scheduler counters. Lines written before these
/// fields existed parse as all-zero (the affected diagnostics are
/// simply absent — never a torn line).
fn parse_sched_fields(line: &str, prefix: &str) -> SchedStats {
    let f = |name: &str| field_u64(line, &format!("{prefix}_{name}")).unwrap_or(0);
    SchedStats {
        ticks: f("ticks"),
        skipped_cycles: f("skip"),
        completion_events: f("comp"),
        wakeup_broadcasts: f("wake"),
        verify_events: f("verify"),
        issue_slots: f("issue"),
        dispatched: f("disp"),
    }
}

impl JobRecord {
    /// The single-line JSON form written to the manifest.
    #[must_use]
    pub fn to_line(self) -> String {
        let mut line = format!(
            "{{\"cell\":{},\"trial\":{},\"m_obs\":\"{:016x}\",\"m_cyc\":{},\"u_obs\":\"{:016x}\",\"u_cyc\":{}",
            self.cell,
            self.trial,
            self.pair.mapped.observed.to_bits(),
            self.pair.mapped.total_cycles,
            self.pair.unmapped.observed.to_bits(),
            self.pair.unmapped.total_cycles,
        );
        push_sched_fields(&mut line, "m", &self.pair.mapped.sched);
        push_sched_fields(&mut line, "u", &self.pair.unmapped.sched);
        use std::fmt::Write as _;
        let _ = write!(
            line,
            ",\"wall_ns\":{},\"attempts\":{}}}",
            self.wall_nanos, self.attempts,
        );
        line
    }

    /// Parse one manifest line; `None` for torn or malformed lines
    /// (the caller re-runs the affected job — a parse failure is never
    /// an abort).
    #[must_use]
    pub fn parse(line: &str) -> Option<JobRecord> {
        Some(JobRecord {
            cell: field_u64(line, "cell")? as usize,
            trial: field_u64(line, "trial")? as usize,
            pair: PairOutcome {
                mapped: TrialOutcome {
                    observed: f64::from_bits(field_hex(line, "m_obs")?),
                    total_cycles: field_u64(line, "m_cyc")?,
                    sched: parse_sched_fields(line, "m"),
                },
                unmapped: TrialOutcome {
                    observed: f64::from_bits(field_hex(line, "u_obs")?),
                    total_cycles: field_u64(line, "u_cyc")?,
                    sched: parse_sched_fields(line, "u"),
                },
            },
            wall_nanos: field_u64(line, "wall_ns")?,
            attempts: field_u64(line, "attempts")? as u32,
        })
    }
}

fn escape(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
        .collect()
}

/// State of the degradable append path.
#[derive(Debug)]
struct AppendState {
    /// A failed append may have left a partial line at the primary's
    /// tail; the next primary append must open a fresh line.
    primary_needs_newline: bool,
    /// Same, for the spill file.
    spill_needs_newline: bool,
    /// Whether the spill file already carries its fingerprint header.
    spill_has_header: bool,
}

/// The append-only manifest: completed jobs loaded at open, new jobs
/// flushed line-by-line as they finish.
pub(crate) struct Manifest {
    io: Arc<dyn SinkIo>,
    path: PathBuf,
    spill_path: PathBuf,
    /// The fingerprint header line, including its trailing newline.
    header: String,
    completed: HashMap<(usize, usize), JobRecord>,
    /// Counts torn lines and I/O faults.
    metrics: CampaignMetrics,
    append: Mutex<AppendState>,
}

/// Parse one manifest file's contents into `completed`.
///
/// The first line must be a fingerprint header; a *valid but different*
/// header is a hard mismatch, while a torn/unparseable one (killed
/// during the very first write) discards the whole file — provenance
/// cannot be verified, so the affected jobs simply re-run. Torn record
/// lines are counted and skipped.
fn load_into(
    contents: &str,
    path: &Path,
    fingerprint: u64,
    jobs_total: usize,
    completed: &mut HashMap<(usize, usize), JobRecord>,
    torn_lines: &mut usize,
) -> Result<(), HarnessError> {
    let mut lines = contents.lines();
    let Some(header) = lines.next() else {
        return Ok(());
    };
    let fp = field_str(header, "fingerprint");
    match fp {
        Some(fp) => {
            let jobs = field_u64(header, "jobs").unwrap_or(0);
            if fp != format!("{fingerprint:016x}") || jobs as usize != jobs_total {
                return Err(HarnessError::ManifestMismatch {
                    path: path.display().to_string(),
                    expected: format!("{fingerprint:016x}"),
                    found: fp.to_owned(),
                });
            }
        }
        None => {
            if header.trim().is_empty() && lines.clone().all(|l| l.trim().is_empty()) {
                return Ok(());
            }
            *torn_lines += 1;
            eprintln!(
                "warning: manifest {} has an unreadable header (interrupted \
                 first write); discarding it, the jobs will re-run",
                path.display()
            );
            return Ok(());
        }
    }
    for line in lines {
        // A truncated trailing line (killed mid-write) simply fails to
        // parse and is re-run.
        if let Some(rec) = JobRecord::parse(line) {
            completed.insert((rec.cell, rec.trial), rec);
        } else if !line.trim().is_empty() {
            *torn_lines += 1;
        }
    }
    Ok(())
}

impl Manifest {
    /// Path of the manifest for `campaign` inside `dir`.
    pub fn path(dir: &Path, campaign: &str) -> PathBuf {
        let safe: String = campaign
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        dir.join(format!("{safe}.jsonl"))
    }

    /// Path of the spill fallback next to the primary manifest.
    pub fn spill_path(dir: &Path, campaign: &str) -> PathBuf {
        Manifest::path(dir, campaign).with_extension("spill.jsonl")
    }

    /// Open (or create) the manifest, validating any existing header
    /// against this campaign's fingerprint and job count, merging any
    /// spill file left by a degraded previous run, and compacting
    /// everything back into the primary through an atomic rewrite.
    /// Torn lines and I/O faults are counted into `metrics`.
    pub fn open(
        dir: &Path,
        campaign: &str,
        fingerprint: u64,
        jobs_total: usize,
        io: Arc<dyn SinkIo>,
        metrics: &CampaignMetrics,
    ) -> Result<Manifest, HarnessError> {
        io.create_dir_all(dir)
            .map_err(|e| HarnessError::Io(e.to_string()))?;
        let path = Manifest::path(dir, campaign);
        let spill_path = Manifest::spill_path(dir, campaign);
        let header = format!(
            "{{\"v\":1,\"campaign\":\"{}\",\"fingerprint\":\"{fingerprint:016x}\",\"jobs\":{jobs_total}}}\n",
            escape(campaign)
        );
        let mut completed = HashMap::new();
        let mut torn_lines = 0usize;
        for file in [&path, &spill_path] {
            if io.exists(file) {
                let contents = io.read(file).map_err(|e| HarnessError::Io(e.to_string()))?;
                load_into(
                    &contents,
                    file,
                    fingerprint,
                    jobs_total,
                    &mut completed,
                    &mut torn_lines,
                )?;
            }
        }
        metrics.add(Count::TornLines, torn_lines as u64);
        if torn_lines > 0 {
            eprintln!(
                "warning: manifest {} had {torn_lines} torn line(s) \
                 (interrupted write); the affected jobs will re-run",
                path.display()
            );
        }
        // Compact header + surviving records through an atomic replace:
        // a kill during the rewrite leaves the old manifest intact,
        // never a half-written one. The drops of any torn trailing line
        // also land atomically, so later appends start on a clean line
        // boundary. On failure (full disk, injected fault) the run
        // degrades to append-only against whatever is there.
        let mut contents = header.clone();
        let mut records: Vec<&JobRecord> = completed.values().collect();
        records.sort_by_key(|r| (r.cell, r.trial));
        for rec in records {
            contents.push_str(&rec.to_line());
            contents.push('\n');
        }
        let mut primary_needs_newline = false;
        match io.replace(&path, &contents) {
            Ok(()) => {
                // The spill's records now live in the primary; a failed
                // remove is harmless (re-merged, idempotently, next open).
                if io.remove(&spill_path).is_err() {
                    metrics.inc(Count::IoFaults);
                }
            }
            Err(e) => {
                metrics.inc(Count::IoFaults);
                eprintln!(
                    "warning: manifest {} rewrite failed ({e}); \
                     continuing in append-only mode",
                    path.display()
                );
                match io.read(&path) {
                    Ok(existing) => {
                        primary_needs_newline = !existing.is_empty() && !existing.ends_with('\n');
                    }
                    Err(_) => {
                        // Fresh directory and the rewrite failed: try to
                        // at least seed the header so appends are
                        // resumable. A failure here just costs a re-run.
                        if io.append(&path, &header).is_err() {
                            metrics.inc(Count::IoFaults);
                        }
                    }
                }
            }
        }
        let spill_has_header = io.exists(&spill_path);
        Ok(Manifest {
            io,
            path,
            spill_path,
            header,
            completed,
            metrics: metrics.clone(),
            append: Mutex::new(AppendState {
                primary_needs_newline,
                spill_needs_newline: false,
                spill_has_header,
            }),
        })
    }

    /// Jobs already recorded by a previous (interrupted) run.
    pub fn completed(&self) -> &HashMap<(usize, usize), JobRecord> {
        &self.completed
    }

    /// Append one finished job, flushing and syncing so a kill (or
    /// power loss) loses at most the line in flight. A failed primary
    /// append falls back to the spill file; a failed spill append
    /// drops the line (the job merely re-runs on resume). Every
    /// observed failure is counted.
    pub fn record(&self, rec: JobRecord) {
        let line = rec.to_line();
        let mut st = self.append.lock().expect("manifest append state poisoned");
        let mut data = String::new();
        if st.primary_needs_newline {
            data.push('\n');
        }
        data.push_str(&line);
        data.push('\n');
        if self.io.append(&self.path, &data).is_ok() {
            st.primary_needs_newline = false;
            return;
        }
        self.metrics.inc(Count::IoFaults);
        // The failed append may have persisted a partial line.
        st.primary_needs_newline = true;
        // Degrade: spill the record next to the primary. The spill
        // carries the same fingerprint header so the next open can
        // verify provenance before merging it back.
        if !st.spill_has_header {
            if self.io.append(&self.spill_path, &self.header).is_ok() {
                st.spill_has_header = true;
            } else {
                self.metrics.inc(Count::IoFaults);
            }
        }
        let mut data = String::new();
        if st.spill_needs_newline {
            data.push('\n');
        }
        data.push_str(&line);
        data.push('\n');
        if self.io.append(&self.spill_path, &data).is_ok() {
            st.spill_needs_newline = false;
        } else {
            self.metrics.inc(Count::IoFaults);
            st.spill_needs_newline = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use vpsim_obs::Registry;

    use super::*;
    use crate::io::{FaultPlan, FaultyIo, RealIo};

    fn rec(cell: usize, trial: usize, obs: f64) -> JobRecord {
        JobRecord {
            cell,
            trial,
            pair: PairOutcome {
                mapped: TrialOutcome {
                    observed: obs,
                    total_cycles: 101,
                    sched: SchedStats {
                        ticks: 90,
                        skipped_cycles: 11,
                        completion_events: 40,
                        wakeup_broadcasts: 12,
                        verify_events: 8,
                        issue_slots: 33,
                        dispatched: 50,
                    },
                },
                unmapped: TrialOutcome {
                    observed: obs + 0.5,
                    total_cycles: 202,
                    sched: SchedStats {
                        ticks: 180,
                        skipped_cycles: 22,
                        completion_events: 80,
                        wakeup_broadcasts: 24,
                        verify_events: 16,
                        issue_slots: 66,
                        dispatched: 100,
                    },
                },
            },
            wall_nanos: 42_000,
            attempts: 1,
        }
    }

    #[test]
    fn job_record_round_trips_exactly() {
        // A value with a messy bit pattern must survive the text form.
        let r = rec(3, 17, 512.000_000_000_1_f64);
        let parsed = JobRecord::parse(&r.to_line()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.pair.mapped.observed.to_bits(),
            r.pair.mapped.observed.to_bits()
        );
    }

    #[test]
    fn truncated_line_is_ignored() {
        let full = rec(0, 0, 1.0).to_line();
        assert!(JobRecord::parse(&full[..full.len() / 2]).is_none());
    }

    #[test]
    fn field_extraction_handles_last_field() {
        let line = "{\"cell\":7,\"attempts\":2}";
        assert_eq!(field_u64(line, "cell"), Some(7));
        assert_eq!(field_u64(line, "attempts"), Some(2));
        assert_eq!(field_u64(line, "missing"), None);
    }

    #[test]
    fn spilled_records_merge_back_on_reopen() {
        let dir = Path::new("campaigns");
        let fio = Arc::new(FaultyIo::new(FaultPlan {
            enospc: 0.45,
            ..FaultPlan::quiet(6)
        }));
        let store = CampaignMetrics::register(&Registry::new(), "t");
        let m = Manifest::open(dir, "t", 0xfeed, 64, fio.clone(), &store).unwrap();
        for t in 0..64 {
            m.record(rec(0, t, t as f64));
        }
        assert!(
            store.totals().io_faults > 0,
            "the hostile plan must have fired"
        );
        drop(m);
        // Reopen over the same in-memory files: every record that made
        // it to *either* the primary or the spill merges back, intact.
        let recovered = Manifest::open(dir, "t", 0xfeed, 64, fio, &store).unwrap();
        assert!(
            !recovered.completed().is_empty(),
            "some records must have survived"
        );
        for (&(c, t), r) in recovered.completed() {
            assert_eq!(c, 0);
            assert_eq!(r.pair.mapped.observed, t as f64);
        }
    }

    #[test]
    fn torn_header_discards_file_instead_of_mismatching() {
        let fio = Arc::new(FaultyIo::new(FaultPlan::quiet(7)));
        let dir = Path::new("campaigns");
        let path = Manifest::path(dir, "torn");
        fio.append(&path, "{\"v\":1,\"campai").unwrap();
        let store = CampaignMetrics::register(&Registry::new(), "torn");
        let m = Manifest::open(dir, "torn", 0xabcd, 2, fio, &store).unwrap();
        assert_eq!(store.totals().torn_lines, 1);
        assert!(m.completed().is_empty());
    }

    #[test]
    fn real_io_round_trip() {
        let dir = std::env::temp_dir().join(format!("vpsim-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io: Arc<dyn SinkIo> = Arc::new(RealIo);
        let store = CampaignMetrics::register(&Registry::new(), "rt");
        let m = Manifest::open(&dir, "rt", 0x1234, 3, io.clone(), &store).unwrap();
        m.record(rec(1, 2, 9.5));
        drop(m);
        let m = Manifest::open(&dir, "rt", 0x1234, 3, io, &store).unwrap();
        assert_eq!(m.completed().len(), 1);
        assert_eq!(store.totals().torn_lines, 0);
        assert_eq!(store.totals().io_faults, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
