//! The supervisor ↔ worker wire protocol of the process-isolated
//! execution backend.
//!
//! Frames are length-prefixed: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON (one object per frame).
//! Length prefixes make torn writes detectable — a worker SIGKILLed
//! mid-frame leaves a short read, never a silently misparsed message —
//! and keep the framing independent of the payload (no in-band
//! delimiters to escape).
//!
//! The conversation is strictly asymmetric:
//!
//! * **supervisor → worker** (stdin): the first frame is the campaign's
//!   canonical [`CampaignSpec`](crate::CampaignSpec) JSON — the full
//!   plan, sent once per spawn so every job after it is a tiny
//!   coordinate pair. Then `job` / `cancel` / `exit` control frames.
//! * **worker → supervisor** (stdout): `hb` heartbeats on a fixed
//!   cadence from a dedicated thread (so liveness is observable even
//!   while a simulation runs), and one terminal frame per job — `done`
//!   (a [`JobRecord`] line, bit-exact through the same hex encoding the
//!   manifest uses), `cancelled`, or `panic`. A `fatal` frame reports a
//!   worker that cannot serve at all (unparseable spec).
//!
//! Because job results travel as [`JobRecord`] lines, a result computed
//! in a subprocess is byte-for-byte the record an in-process worker
//! would have produced — the property the cross-backend determinism
//! tests pin down.

use std::io::{self, Read, Write};

use vpsim_json::{escaped, field_str, field_u64};

use crate::sink::JobRecord;

/// Hard cap on one frame's payload (a spec tops out well under 1 MiB;
/// anything bigger is a corrupted or hostile stream).
pub(crate) const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Write one length-prefixed frame and flush it.
pub(crate) fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean EOF *between* frames (the peer
/// closed the stream); an EOF mid-frame or an oversized length prefix
/// is an error (a torn write from a killed peer).
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 frame payload"))
}

/// A control frame the supervisor sends after the spec frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ToWorker {
    /// Run one job: the paired trial `trial` of cell `cell`, as retry
    /// attempt `attempt` (zero-based).
    Job {
        cell: usize,
        trial: usize,
        attempt: u32,
    },
    /// Cooperatively cancel the named in-flight job.
    Cancel { cell: usize, trial: usize },
    /// Drain and exit cleanly.
    Exit,
}

impl ToWorker {
    pub(crate) fn encode(&self) -> String {
        match self {
            ToWorker::Job {
                cell,
                trial,
                attempt,
            } => format!(
                "{{\"cmd\":\"job\",\"cell\":{cell},\"trial\":{trial},\"attempt\":{attempt}}}"
            ),
            ToWorker::Cancel { cell, trial } => {
                format!("{{\"cmd\":\"cancel\",\"cell\":{cell},\"trial\":{trial}}}")
            }
            ToWorker::Exit => "{\"cmd\":\"exit\"}".to_owned(),
        }
    }

    pub(crate) fn parse(line: &str) -> Option<ToWorker> {
        match field_str(line, "cmd")? {
            "job" => Some(ToWorker::Job {
                cell: field_u64(line, "cell")? as usize,
                trial: field_u64(line, "trial")? as usize,
                attempt: field_u64(line, "attempt")? as u32,
            }),
            "cancel" => Some(ToWorker::Cancel {
                cell: field_u64(line, "cell")? as usize,
                trial: field_u64(line, "trial")? as usize,
            }),
            "exit" => Some(ToWorker::Exit),
            _ => None,
        }
    }
}

/// An event frame a worker sends on its stdout.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FromWorker {
    /// Periodic liveness beacon from the worker's heartbeat thread.
    Heartbeat,
    /// One job finished; the full manifest-format record.
    Done(JobRecord),
    /// The in-flight job observed its cancel token and unwound.
    Cancelled { cell: usize, trial: usize },
    /// The in-flight job panicked (caught in-process; the worker
    /// survives and can take more jobs).
    Panicked {
        cell: usize,
        trial: usize,
        message: String,
    },
    /// The worker cannot serve at all (e.g. unparseable spec frame).
    Fatal { message: String },
}

impl FromWorker {
    pub(crate) fn encode(&self) -> String {
        match self {
            FromWorker::Heartbeat => "{\"ev\":\"hb\"}".to_owned(),
            // Splice the `ev` tag into the record's own line so the
            // payload fields stay byte-identical to the manifest form.
            FromWorker::Done(rec) => format!("{{\"ev\":\"done\",{}", &rec.to_line()[1..]),
            FromWorker::Cancelled { cell, trial } => {
                format!("{{\"ev\":\"cancelled\",\"cell\":{cell},\"trial\":{trial}}}")
            }
            FromWorker::Panicked {
                cell,
                trial,
                message,
            } => format!(
                "{{\"ev\":\"panic\",\"cell\":{cell},\"trial\":{trial},\"message\":\"{}\"}}",
                escaped(message)
            ),
            FromWorker::Fatal { message } => {
                format!("{{\"ev\":\"fatal\",\"message\":\"{}\"}}", escaped(message))
            }
        }
    }

    pub(crate) fn parse(line: &str) -> Option<FromWorker> {
        match field_str(line, "ev")? {
            "hb" => Some(FromWorker::Heartbeat),
            "done" => JobRecord::parse(line).map(FromWorker::Done),
            "cancelled" => Some(FromWorker::Cancelled {
                cell: field_u64(line, "cell")? as usize,
                trial: field_u64(line, "trial")? as usize,
            }),
            "panic" => Some(FromWorker::Panicked {
                cell: field_u64(line, "cell")? as usize,
                trial: field_u64(line, "trial")? as usize,
                message: field_str(line, "message").unwrap_or_default().to_owned(),
            }),
            "fatal" => Some(FromWorker::Fatal {
                message: field_str(line, "message").unwrap_or_default().to_owned(),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsec::experiment::{PairOutcome, TrialOutcome};
    use vpsim_pipeline::SchedStats;

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_frames_error_instead_of_misparsing() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "full message").unwrap();
        // A worker killed mid-write leaves a prefix of the stream.
        for cut in [1, 3, 5, buf.len() - 1] {
            let mut r = &buf[..cut];
            assert!(
                read_frame(&mut r).is_err(),
                "cut at {cut} must be a framing error"
            );
        }
        // An absurd length prefix is rejected before any allocation.
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            ToWorker::Job {
                cell: 3,
                trial: 41,
                attempt: 2,
            },
            ToWorker::Cancel { cell: 0, trial: 7 },
            ToWorker::Exit,
        ] {
            assert_eq!(ToWorker::parse(&msg.encode()).as_ref(), Some(&msg));
        }
        assert_eq!(ToWorker::parse("{\"cmd\":\"launch_missiles\"}"), None);
        assert_eq!(ToWorker::parse("not json"), None);
    }

    #[test]
    fn worker_events_round_trip_with_bit_exact_records() {
        let rec = JobRecord {
            cell: 2,
            trial: 9,
            pair: PairOutcome {
                mapped: TrialOutcome {
                    observed: 512.000_000_000_1_f64,
                    total_cycles: 812,
                    sched: SchedStats {
                        ticks: 100,
                        skipped_cycles: 7,
                        ..SchedStats::default()
                    },
                },
                unmapped: TrialOutcome {
                    observed: -0.0,
                    total_cycles: 900,
                    sched: SchedStats::default(),
                },
            },
            wall_nanos: 123_456,
            attempts: 1,
        };
        for msg in [
            FromWorker::Heartbeat,
            FromWorker::Done(rec),
            FromWorker::Cancelled { cell: 1, trial: 2 },
            FromWorker::Panicked {
                cell: 1,
                trial: 2,
                message: "index out of bounds".to_owned(),
            },
            FromWorker::Fatal {
                message: "bad spec".to_owned(),
            },
        ] {
            assert_eq!(FromWorker::parse(&msg.encode()).as_ref(), Some(&msg));
        }
        // The done frame embeds the record fields verbatim, so the
        // manifest parser reads the same bits back.
        let done = FromWorker::Done(rec).encode();
        let parsed = JobRecord::parse(&done).unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(
            parsed.pair.mapped.observed.to_bits(),
            rec.pair.mapped.observed.to_bits()
        );
    }
}
