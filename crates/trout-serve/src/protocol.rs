//! The serve wire protocol: line-delimited JSON in both directions.
//!
//! Each request line is one object tagged by `"event"`:
//!
//! ```text
//! {"event":"submit","job":{"id":1,"user":3,"partition":0,"submit_time":100,
//!   "eligible_time":100,"req_cpus":4,"req_mem_gb":8,"req_nodes":1,
//!   "req_gpus":0,"timelimit_min":60,"qos":"normal","priority":1200.5}}
//! {"event":"start","id":1,"time":160}
//! {"event":"end","id":1,"time":3600}
//! {"event":"predict","id":1,"time":120}
//! {"v":2,"event":"predict","id":1,"time":120,"deadline_ms":50,"lane":"urgent"}
//! {"event":"metrics"}
//! {"event":"shutdown"}
//! ```
//!
//! The **v2 predict envelope** adds an optional `"v":2` version tag, a
//! latency budget (`deadline_ms`, positive milliseconds), a priority
//! lane (`"urgent"|"normal"|"batch"`), and an opt-in `"trace":true` flag
//! that mints a request-scoped trace id (echoed as `"trace_id"` in the
//! response) and records the request's per-stage latency into the flight
//! recorder (DESIGN §14). v1 lines (no `"v"` field, or `"v":1`) stay valid
//! and default to the normal lane with the server's configured budget;
//! their responses are byte-identical to the v1 protocol. Only `"v":2`
//! requests get the lane (and trace id) echoed in the response.
//!
//! `{"event":"trace","last":N}` dumps the most recent completed traces
//! across all shards as one response line; like `metrics` it is read-only
//! and never journaled.
//!
//! Every line gets exactly one response line, in request order. Success
//! responses carry `"ok":true`; failures carry `"ok":false` and an `"error"`
//! string whose prefix is the [`TroutError`] class (an `overloaded` shed
//! additionally carries a numeric `"retry_after_ms"`). A malformed line is
//! answered (not fatal): the daemon must survive a misbehaving client.

use trout_core::{Lane, QueueEstimate, QueuePrediction, TroutError};
use trout_slurmsim::{JobRecord, JobState};
use trout_std::json::Json;
use trout_workload::Qos;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// A job entered the queue.
    Submit(Box<JobRecord>),
    /// A pending job started running.
    Start {
        /// Job id.
        id: u64,
        /// Start instant (unix seconds).
        time: i64,
    },
    /// A running job finished — or a pending job was cancelled.
    End {
        /// Job id.
        id: u64,
        /// End instant (unix seconds).
        time: i64,
    },
    /// Predict the queue time of a submitted job as of `time`.
    Predict {
        /// Job id.
        id: u64,
        /// Query instant (unix seconds).
        time: i64,
        /// Priority lane (v2 field; v1 lines default to normal).
        lane: Lane,
        /// Explicit latency budget in milliseconds, if the client named one.
        /// `None` means the lane's configured default applies. Never
        /// journaled: the budget shapes scheduling, not state.
        deadline_ms: Option<u64>,
        /// Whether the line carried `"v":2` — controls the lane echo in the
        /// response, keeping v1 responses byte-identical.
        v2: bool,
        /// Whether the line carried `"trace":true` (v2 only): mint a trace
        /// id, echo it, and record per-stage latencies into the flight
        /// recorder. Never journaled: tracing is observation, not state.
        trace: bool,
    },
    /// Dump the metrics registry in the requested exposition format.
    Metrics(MetricsFormat),
    /// Dump the last `last` completed traces from the flight recorder.
    Trace {
        /// How many recent traces to return (capped at the ring size).
        last: usize,
    },
    /// Admin line: flip this replication follower to leader. The follower
    /// drains its stream connection, lifts the read-only gate, and starts
    /// accepting lifecycle events. Never journaled — role is deployment
    /// state, not model state.
    Promote,
    /// Replication status dump: role, per-shard watermarks, follower lag.
    /// Read-only, never journaled.
    ReplicationStatus,
    /// Full canonical state dump (the merged state text of every shard,
    /// [`ShardSet::state_dump_line`](crate::ShardSet::state_dump_line))
    /// with per-shard journal watermarks — the probe the replication
    /// bit-identity oracle compares between leader and follower. Read-only,
    /// never journaled.
    StateDump,
    /// Close the session cleanly.
    Shutdown,
}

/// Exposition format of a `metrics` request (the optional `"format"` field;
/// omitted means JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The sectioned JSON registry dump.
    #[default]
    Json,
    /// Prometheus text exposition, embedded as the `"body"` string of the
    /// response line.
    Prometheus,
}

/// Default `last` for a `{"event":"trace"}` request without the field.
pub const DEFAULT_TRACE_LAST: usize = 32;

fn field_i64(j: &Json, key: &str) -> Result<i64, TroutError> {
    match j.get(key) {
        Some(Json::Int(v)) => {
            i64::try_from(*v).map_err(|_| TroutError::Parse(format!("field `{key}` out of range")))
        }
        Some(_) => Err(TroutError::Parse(format!(
            "field `{key}` must be an integer"
        ))),
        None => Err(TroutError::Parse(format!("missing field `{key}`"))),
    }
}

fn field_u64(j: &Json, key: &str) -> Result<u64, TroutError> {
    let v = field_i64(j, key)?;
    u64::try_from(v).map_err(|_| TroutError::Parse(format!("field `{key}` must be non-negative")))
}

fn field_u32(j: &Json, key: &str) -> Result<u32, TroutError> {
    let v = field_i64(j, key)?;
    u32::try_from(v).map_err(|_| TroutError::Parse(format!("field `{key}` out of u32 range")))
}

fn field_f64_or(j: &Json, key: &str, default: f64) -> Result<f64, TroutError> {
    match j.get(key) {
        Some(Json::Num(v)) => Ok(*v),
        Some(Json::Int(v)) => Ok(*v as f64),
        Some(_) => Err(TroutError::Parse(format!("field `{key}` must be a number"))),
        None => Ok(default),
    }
}

fn parse_job(j: &Json) -> Result<JobRecord, TroutError> {
    let qos = match j.get("qos") {
        None => Qos::Normal,
        Some(Json::Str(s)) => {
            Qos::parse(s).ok_or_else(|| TroutError::Parse(format!("unknown qos `{s}`")))?
        }
        Some(_) => return Err(TroutError::Parse("field `qos` must be a string".into())),
    };
    let submit_time = field_i64(j, "submit_time")?;
    Ok(JobRecord {
        id: field_u64(j, "id")?,
        user: field_u32(j, "user")?,
        partition: field_u32(j, "partition")?,
        submit_time,
        eligible_time: match j.get("eligible_time") {
            Some(_) => field_i64(j, "eligible_time")?,
            None => submit_time,
        },
        // Unknown for a live job; the engine replaces them with open-ended
        // sentinels as the lifecycle events arrive.
        start_time: 0,
        end_time: 0,
        req_cpus: field_u32(j, "req_cpus")?,
        req_mem_gb: field_u32(j, "req_mem_gb")?,
        req_nodes: field_u32(j, "req_nodes")?,
        req_gpus: match j.get("req_gpus") {
            Some(_) => field_u32(j, "req_gpus")?,
            None => 0,
        },
        timelimit_min: field_u32(j, "timelimit_min")?,
        qos,
        campaign: match j.get("campaign") {
            Some(_) => field_u64(j, "campaign")?,
            None => 0,
        },
        priority: field_f64_or(j, "priority", 0.0)?,
        state: JobState::Completed,
    })
}

/// Parses one request line.
pub fn parse_event(line: &str) -> Result<ClientEvent, TroutError> {
    let j = Json::parse(line).map_err(|e| TroutError::Parse(e.to_string()))?;
    let kind = match j.get("event") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err(TroutError::Protocol("missing `event` tag".into())),
    };
    match kind.as_str() {
        "submit" => {
            let job = j
                .get("job")
                .ok_or_else(|| TroutError::Protocol("submit: missing `job` object".into()))?;
            Ok(ClientEvent::Submit(Box::new(parse_job(job)?)))
        }
        "start" => Ok(ClientEvent::Start {
            id: field_u64(&j, "id")?,
            time: field_i64(&j, "time")?,
        }),
        "end" => Ok(ClientEvent::End {
            id: field_u64(&j, "id")?,
            time: field_i64(&j, "time")?,
        }),
        "predict" => {
            let v2 = match j.get("v") {
                None => false,
                Some(Json::Int(1)) => false,
                Some(Json::Int(2)) => true,
                Some(other) => {
                    return Err(TroutError::Protocol(format!(
                        "unsupported protocol version {other} (expected 1 or 2)"
                    )))
                }
            };
            let lane = match j.get("lane") {
                None => Lane::Normal,
                Some(Json::Str(s)) => Lane::parse(s).ok_or_else(|| {
                    TroutError::Protocol(format!(
                        "unknown lane `{s}` (expected urgent, normal, or batch)"
                    ))
                })?,
                Some(_) => {
                    return Err(TroutError::Protocol("field `lane` must be a string".into()))
                }
            };
            let deadline_ms =
                match j.get("deadline_ms") {
                    None => None,
                    Some(Json::Int(v)) if *v > 0 => Some(u64::try_from(*v).map_err(|_| {
                        TroutError::Parse("field `deadline_ms` out of range".into())
                    })?),
                    Some(_) => {
                        return Err(TroutError::Parse(
                            "field `deadline_ms` must be a positive integer".into(),
                        ))
                    }
                };
            let trace = match j.get("trace") {
                None => false,
                Some(Json::Bool(b)) => {
                    if *b && !v2 {
                        return Err(TroutError::Protocol(
                            "`trace` requires the v2 envelope (`\"v\":2`)".into(),
                        ));
                    }
                    *b
                }
                Some(_) => {
                    return Err(TroutError::Protocol(
                        "field `trace` must be a boolean".into(),
                    ))
                }
            };
            Ok(ClientEvent::Predict {
                id: field_u64(&j, "id")?,
                time: field_i64(&j, "time")?,
                lane,
                deadline_ms,
                v2,
                trace,
            })
        }
        "metrics" => Ok(ClientEvent::Metrics(match j.get("format") {
            None => MetricsFormat::Json,
            Some(Json::Str(s)) if s == "json" => MetricsFormat::Json,
            Some(Json::Str(s)) if s == "prometheus" => MetricsFormat::Prometheus,
            Some(other) => {
                return Err(TroutError::Protocol(format!(
                    "metrics: unknown format {other:?} (expected \"json\" or \"prometheus\")"
                )))
            }
        })),
        "trace" => {
            let last = match j.get("last") {
                None => DEFAULT_TRACE_LAST,
                Some(Json::Int(v)) if *v > 0 => usize::try_from(*v)
                    .map_err(|_| TroutError::Parse("field `last` out of range".into()))?,
                Some(_) => {
                    return Err(TroutError::Parse(
                        "field `last` must be a positive integer".into(),
                    ))
                }
            };
            Ok(ClientEvent::Trace { last })
        }
        "promote" => Ok(ClientEvent::Promote),
        "replication" => Ok(ClientEvent::ReplicationStatus),
        "state" => Ok(ClientEvent::StateDump),
        "shutdown" => Ok(ClientEvent::Shutdown),
        other => Err(TroutError::Protocol(format!("unknown event `{other}`"))),
    }
}

/// Serializes a job record as the protocol's submit payload (the `trout
/// events` generator and tests share it with the parser).
pub fn job_to_json(r: &JobRecord) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Int(r.id as i128)),
        ("user".into(), Json::Int(r.user as i128)),
        ("partition".into(), Json::Int(r.partition as i128)),
        ("submit_time".into(), Json::Int(r.submit_time as i128)),
        ("eligible_time".into(), Json::Int(r.eligible_time as i128)),
        ("req_cpus".into(), Json::Int(r.req_cpus as i128)),
        ("req_mem_gb".into(), Json::Int(r.req_mem_gb as i128)),
        ("req_nodes".into(), Json::Int(r.req_nodes as i128)),
        ("req_gpus".into(), Json::Int(r.req_gpus as i128)),
        ("timelimit_min".into(), Json::Int(r.timelimit_min as i128)),
        ("qos".into(), Json::Str(r.qos.as_str().into())),
        ("campaign".into(), Json::Int(r.campaign as i128)),
        ("priority".into(), Json::Num(r.priority)),
    ])
}

/// Canonical one-line serialization of a state-changing event — the
/// journal's record format. Deliberately the *request* grammar (the journal
/// is a replayable client script), so recovery feeds lines straight back
/// through [`parse_event`]. Read-only events (`metrics`, `shutdown`) carry
/// no state and return `None`.
pub fn event_to_line(ev: &ClientEvent) -> Option<String> {
    match ev {
        ClientEvent::Submit(rec) => Some(submit_line(rec)),
        ClientEvent::Start { id, time } => Some(lifecycle_line("start", *id, *time)),
        ClientEvent::End { id, time } => Some(lifecycle_line("end", *id, *time)),
        ClientEvent::Predict { id, time, lane, .. } => Some(predict_line(*id, *time, *lane)),
        ClientEvent::Metrics(_)
        | ClientEvent::Trace { .. }
        | ClientEvent::Promote
        | ClientEvent::ReplicationStatus
        | ClientEvent::StateDump
        | ClientEvent::Shutdown => None,
    }
}

/// The journal/wire line for a `submit`.
pub fn submit_line(rec: &JobRecord) -> String {
    Json::Obj(vec![
        ("event".into(), Json::Str("submit".into())),
        ("job".into(), job_to_json(rec)),
    ])
    .to_string()
}

/// The journal/wire line for a `start`/`end`/`predict`.
pub fn lifecycle_line(event: &str, id: u64, time: i64) -> String {
    format!("{{\"event\":\"{event}\",\"id\":{id},\"time\":{time}}}")
}

/// The journal/wire line for a `predict`. The lane is recorded only when it
/// is not the default, so journals written by v1 traffic stay byte-identical
/// to the v1 format (recovery bit-identity across the protocol bump). The
/// deadline is deliberately absent: it shapes scheduling, never state.
pub fn predict_line(id: u64, time: i64, lane: Lane) -> String {
    if lane == Lane::Normal {
        lifecycle_line("predict", id, time)
    } else {
        format!(
            "{{\"event\":\"predict\",\"id\":{id},\"time\":{time},\"lane\":\"{}\"}}",
            lane.as_str()
        )
    }
}

/// `{"ok":true,"event":...}` acknowledgement for a lifecycle event.
pub fn ack_response(event: &str, id: u64) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str(event.into())),
        ("id".into(), Json::Int(id as i128)),
    ])
    .to_string()
}

/// The predict response: decision, probabilities, and minutes when present.
/// `v2` requests additionally get their lane echoed (right after `id`), and
/// a traced request gets its minted trace id (hex, after the lane); omitting
/// both for v1 keeps those responses byte-identical to the v1 protocol.
pub fn prediction_response(
    id: u64,
    p: &QueuePrediction,
    v2: bool,
    trace_id: Option<u64>,
) -> String {
    let mut members = vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("predict".into())),
        ("id".into(), Json::Int(id as i128)),
    ];
    if v2 {
        members.push(("lane".into(), Json::Str(p.lane.as_str().into())));
        if let Some(tid) = trace_id {
            members.push(("trace_id".into(), Json::Str(trace_id_str(tid))));
        }
    }
    members.extend([
        (
            "quick_start".into(),
            Json::Bool(matches!(p.estimate, QueueEstimate::QuickStart)),
        ),
        ("quick_proba".into(), Json::Num(p.quick_proba as f64)),
        (
            "calibrated_proba".into(),
            Json::Num(p.calibrated_proba as f64),
        ),
        ("cutoff_min".into(), Json::Num(p.cutoff_min as f64)),
    ]);
    if let Some(m) = p.minutes {
        members.push(("minutes".into(), Json::Num(m as f64)));
    }
    members.push(("message".into(), Json::Str(p.message())));
    Json::Obj(members).to_string()
}

/// The canonical wire form of a trace id: 16 hex digits (strings survive
/// clients whose JSON numbers are f64).
pub fn trace_id_str(id: u64) -> String {
    format!("{id:016x}")
}

/// One completed trace as a JSON object — the element format of the
/// `trace` response and of flight-recorder ndjson dumps.
pub fn trace_record_json(r: &trout_obs::TraceRecord) -> Json {
    let lane = Lane::from_rank(r.lane as usize).unwrap_or(Lane::Normal);
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(trace_id_str(r.trace_id))),
        ("lane".into(), Json::Str(lane.as_str().into())),
        ("end_us".into(), Json::Int(r.end_us as i128)),
        ("total_us".into(), Json::Int(r.total_us as i128)),
        ("stages".into(), r.stages_json()),
    ])
}

/// The flight-recorder dump response: the most recent completed traces
/// (newest first), each with its per-stage breakdown, as one line.
pub fn trace_response(traces: &[trout_obs::TraceRecord]) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("trace".into())),
        ("count".into(), Json::Int(traces.len() as i128)),
        (
            "traces".into(),
            Json::Arr(traces.iter().map(trace_record_json).collect()),
        ),
    ])
    .to_string()
}

/// The metrics response, wrapping the registry dump.
pub fn metrics_response(metrics: Json) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("metrics".into())),
        ("metrics".into(), metrics),
    ])
    .to_string()
}

/// The Prometheus-format metrics response: the exposition text rides as one
/// escaped JSON string so the response stays a single line.
pub fn metrics_prometheus_response(body: String) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("metrics".into())),
        ("format".into(), Json::Str("prometheus".into())),
        ("body".into(), Json::Str(body)),
    ])
    .to_string()
}

/// The promote acknowledgement: the daemon's new role.
pub fn promote_response(was_follower: bool) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("event".into(), Json::Str("promote".into())),
        ("role".into(), Json::Str("leader".into())),
        ("was_follower".into(), Json::Bool(was_follower)),
    ])
    .to_string()
}

/// `{"ok":false,"error":...}` — the error class rides in the message prefix.
/// An admission shed additionally carries a machine-readable
/// `"retry_after_ms"` so clients can back off without parsing prose.
pub fn error_response(e: &TroutError) -> String {
    let mut members = vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(e.to_string())),
    ];
    if let TroutError::Overloaded { retry_after_ms } = e {
        members.push(("retry_after_ms".into(), Json::Int(*retry_after_ms as i128)));
    }
    Json::Obj(members).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_job_to_json() {
        let rec = JobRecord {
            id: 42,
            user: 7,
            partition: 1,
            submit_time: 1000,
            eligible_time: 1060,
            start_time: 0,
            end_time: 0,
            req_cpus: 16,
            req_mem_gb: 64,
            req_nodes: 2,
            req_gpus: 1,
            timelimit_min: 120,
            qos: Qos::High,
            campaign: 3,
            priority: 1234.5,
            state: JobState::Completed,
        };
        let line = Json::Obj(vec![
            ("event".into(), Json::Str("submit".into())),
            ("job".into(), job_to_json(&rec)),
        ])
        .to_string();
        match parse_event(&line).unwrap() {
            ClientEvent::Submit(parsed) => assert_eq!(*parsed, rec),
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn minimal_submit_uses_defaults() {
        let line = r#"{"event":"submit","job":{"id":1,"user":0,"partition":0,
            "submit_time":50,"req_cpus":1,"req_mem_gb":2,"req_nodes":1,
            "timelimit_min":30}}"#
            .replace('\n', " ");
        match parse_event(&line).unwrap() {
            ClientEvent::Submit(j) => {
                assert_eq!(j.eligible_time, 50, "defaults to submit_time");
                assert_eq!(j.qos, Qos::Normal);
                assert_eq!(j.req_gpus, 0);
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn lifecycle_and_control_events_parse() {
        assert_eq!(
            parse_event(r#"{"event":"start","id":3,"time":99}"#).unwrap(),
            ClientEvent::Start { id: 3, time: 99 }
        );
        assert_eq!(
            parse_event(r#"{"event":"end","id":3,"time":200}"#).unwrap(),
            ClientEvent::End { id: 3, time: 200 }
        );
        assert_eq!(
            parse_event(r#"{"event":"predict","id":3,"time":120}"#).unwrap(),
            ClientEvent::Predict {
                id: 3,
                time: 120,
                lane: Lane::Normal,
                deadline_ms: None,
                v2: false,
                trace: false,
            }
        );
        assert_eq!(
            parse_event(r#"{"event":"metrics"}"#).unwrap(),
            ClientEvent::Metrics(MetricsFormat::Json)
        );
        assert_eq!(
            parse_event(r#"{"event":"metrics","format":"prometheus"}"#).unwrap(),
            ClientEvent::Metrics(MetricsFormat::Prometheus)
        );
        assert!(matches!(
            parse_event(r#"{"event":"metrics","format":"xml"}"#),
            Err(TroutError::Protocol(_))
        ));
        assert_eq!(
            parse_event(r#"{"event":"shutdown"}"#).unwrap(),
            ClientEvent::Shutdown
        );
        assert_eq!(
            parse_event(r#"{"event":"promote"}"#).unwrap(),
            ClientEvent::Promote
        );
        assert_eq!(
            parse_event(r#"{"event":"replication"}"#).unwrap(),
            ClientEvent::ReplicationStatus
        );
        assert_eq!(
            parse_event(r#"{"event":"state"}"#).unwrap(),
            ClientEvent::StateDump
        );
        // None of the admin/status events ever reach the journal.
        for ev in [
            ClientEvent::Promote,
            ClientEvent::ReplicationStatus,
            ClientEvent::StateDump,
        ] {
            assert_eq!(event_to_line(&ev), None);
        }
    }

    #[test]
    fn malformed_lines_classify_as_parse_or_protocol() {
        assert!(matches!(
            parse_event("not json at all"),
            Err(TroutError::Parse(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"warp","id":1}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"id":1}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"start","id":3}"#),
            Err(TroutError::Parse(_))
        ));
    }

    #[test]
    fn journal_lines_round_trip_through_the_parser() {
        let rec = JobRecord {
            id: 9,
            user: 2,
            partition: 0,
            submit_time: 500,
            eligible_time: 510,
            start_time: 0,
            end_time: 0,
            req_cpus: 8,
            req_mem_gb: 16,
            req_nodes: 1,
            req_gpus: 0,
            timelimit_min: 45,
            qos: Qos::Normal,
            campaign: 0,
            priority: 7.25,
            state: JobState::Completed,
        };
        for ev in [
            ClientEvent::Submit(Box::new(rec)),
            ClientEvent::Start { id: 9, time: 600 },
            ClientEvent::End { id: 9, time: 700 },
            ClientEvent::Predict {
                id: 9,
                time: 550,
                lane: Lane::Normal,
                deadline_ms: None,
                v2: false,
                trace: false,
            },
            // A non-default lane survives the journal; the deadline does
            // not (scheduling, not state), so round-trip holds with None.
            ClientEvent::Predict {
                id: 9,
                time: 560,
                lane: Lane::Urgent,
                deadline_ms: None,
                v2: false,
                trace: false,
            },
        ] {
            let line = event_to_line(&ev).expect("state-changing events serialize");
            assert!(!line.contains('\n'));
            assert_eq!(parse_event(&line).unwrap(), ev, "{line}");
        }
        assert_eq!(event_to_line(&ClientEvent::Shutdown), None);
        assert_eq!(
            event_to_line(&ClientEvent::Metrics(MetricsFormat::Json)),
            None
        );
    }

    #[test]
    fn responses_are_single_line_json() {
        let p = QueuePrediction {
            estimate: QueueEstimate::Minutes(42.5),
            quick_proba: 0.2,
            calibrated_proba: 0.25,
            minutes: Some(42.5),
            cutoff_min: 10.0,
            lane: Lane::Normal,
        };
        for s in [
            ack_response("submit", 1),
            prediction_response(1, &p, false, None),
            error_response(&TroutError::Protocol("x".into())),
            metrics_response(Json::Obj(vec![])),
            metrics_prometheus_response("trout_serve_predicts_total 1\n".into()),
        ] {
            assert!(!s.contains('\n'), "{s}");
            let parsed = Json::parse(&s).unwrap();
            assert!(parsed.get("ok").is_some());
        }
        let parsed = Json::parse(&prediction_response(1, &p, false, None)).unwrap();
        assert_eq!(parsed.get("quick_start"), Some(&Json::Bool(false)));
        assert!(parsed.get("minutes").is_some());
    }

    #[test]
    fn v2_predict_envelope_parses_and_echoes_lane() {
        assert_eq!(
            parse_event(
                r#"{"v":2,"event":"predict","id":4,"time":10,"deadline_ms":50,"lane":"urgent"}"#
            )
            .unwrap(),
            ClientEvent::Predict {
                id: 4,
                time: 10,
                lane: Lane::Urgent,
                deadline_ms: Some(50),
                v2: true,
                trace: false,
            }
        );
        // v1 lines may still name a lane/deadline; only the echo is gated.
        assert_eq!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"lane":"batch"}"#).unwrap(),
            ClientEvent::Predict {
                id: 4,
                time: 10,
                lane: Lane::Batch,
                deadline_ms: None,
                v2: false,
                trace: false,
            }
        );
        assert!(matches!(
            parse_event(r#"{"v":3,"event":"predict","id":4,"time":10}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"lane":"vip"}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"deadline_ms":0}"#),
            Err(TroutError::Parse(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"deadline_ms":"soon"}"#),
            Err(TroutError::Parse(_))
        ));

        let p = QueuePrediction {
            estimate: QueueEstimate::QuickStart,
            quick_proba: 0.9,
            calibrated_proba: 0.9,
            minutes: None,
            cutoff_min: 10.0,
            lane: Lane::Urgent,
        };
        let v2 = prediction_response(7, &p, true, None);
        assert_eq!(
            Json::parse(&v2).unwrap().get("lane"),
            Some(&Json::Str("urgent".into()))
        );
        let v1 = prediction_response(7, &p, false, None);
        assert_eq!(Json::parse(&v1).unwrap().get("lane"), None);
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let s = error_response(&TroutError::Overloaded { retry_after_ms: 40 });
        let parsed = Json::parse(&s).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("retry_after_ms"), Some(&Json::Int(40)));
        match parsed.get("error") {
            Some(Json::Str(msg)) => assert!(msg.starts_with("overloaded")),
            other => panic!("bad error member {other:?}"),
        }
    }

    #[test]
    fn predict_journal_lines_omit_default_lane() {
        assert_eq!(
            predict_line(3, 120, Lane::Normal),
            r#"{"event":"predict","id":3,"time":120}"#
        );
        assert_eq!(
            predict_line(3, 120, Lane::Urgent),
            r#"{"event":"predict","id":3,"time":120,"lane":"urgent"}"#
        );
    }

    #[test]
    fn trace_flag_requires_the_v2_envelope() {
        assert_eq!(
            parse_event(r#"{"v":2,"event":"predict","id":4,"time":10,"trace":true}"#).unwrap(),
            ClientEvent::Predict {
                id: 4,
                time: 10,
                lane: Lane::Normal,
                deadline_ms: None,
                v2: true,
                trace: true,
            }
        );
        // `"trace":false` is accepted anywhere (it requests nothing).
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"trace":false}"#).unwrap(),
            ClientEvent::Predict { trace: false, .. }
        ));
        assert!(matches!(
            parse_event(r#"{"event":"predict","id":4,"time":10,"trace":true}"#),
            Err(TroutError::Protocol(_))
        ));
        assert!(matches!(
            parse_event(r#"{"v":2,"event":"predict","id":4,"time":10,"trace":"yes"}"#),
            Err(TroutError::Protocol(_))
        ));
    }

    #[test]
    fn trace_event_parses_with_default_and_explicit_last() {
        assert_eq!(
            parse_event(r#"{"event":"trace"}"#).unwrap(),
            ClientEvent::Trace {
                last: DEFAULT_TRACE_LAST
            }
        );
        assert_eq!(
            parse_event(r#"{"event":"trace","last":5}"#).unwrap(),
            ClientEvent::Trace { last: 5 }
        );
        assert!(matches!(
            parse_event(r#"{"event":"trace","last":0}"#),
            Err(TroutError::Parse(_))
        ));
        assert!(matches!(
            parse_event(r#"{"event":"trace","last":"many"}"#),
            Err(TroutError::Parse(_))
        ));
    }

    #[test]
    fn traced_v2_response_echoes_the_trace_id_as_hex() {
        let p = QueuePrediction {
            estimate: QueueEstimate::Minutes(42.0),
            quick_proba: 0.2,
            calibrated_proba: 0.2,
            minutes: Some(42.0),
            cutoff_min: 10.0,
            lane: Lane::Normal,
        };
        let traced = prediction_response(9, &p, true, Some(0xfeed));
        assert_eq!(
            Json::parse(&traced).unwrap().get("trace_id"),
            Some(&Json::Str("000000000000feed".into())),
            "16 hex digits survive f64-JSON clients"
        );
        // Untraced v2 and v1 responses carry no trace_id at all.
        let v2 = prediction_response(9, &p, true, None);
        assert_eq!(Json::parse(&v2).unwrap().get("trace_id"), None);
        let v1 = prediction_response(9, &p, false, None);
        assert!(!v1.contains("trace_id"));
        assert_eq!(trace_id_str(u64::MAX), "ffffffffffffffff");
    }

    #[test]
    fn trace_response_lists_records_newest_layout() {
        let mut r = trout_obs::TraceRecord {
            trace_id: 0xab,
            lane: 0,
            end_us: 500,
            total_us: 120,
            stages: [10, 20, 5, 50, 25, 4, 6],
        };
        let line = trace_response(std::slice::from_ref(&r));
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(j.get("event"), Some(&Json::Str("trace".into())));
        assert_eq!(j.get("count"), Some(&Json::Int(1)));
        let t = match j.get("traces") {
            Some(Json::Arr(v)) => &v[0],
            other => panic!("bad traces member {other:?}"),
        };
        assert_eq!(
            t.get("trace_id"),
            Some(&Json::Str("00000000000000ab".into()))
        );
        assert_eq!(t.get("lane"), Some(&Json::Str("urgent".into())));
        assert_eq!(t.get("total_us"), Some(&Json::Int(120)));
        let stages = t.get("stages").expect("stages object");
        assert_eq!(stages.get("parse_us"), Some(&Json::Int(10)));
        assert_eq!(stages.get("serialize_us"), Some(&Json::Int(6)));
        // The stage tiling is exact: stages sum to the total by construction.
        r.stages = [30, 30, 30, 10, 10, 5, 5];
        r.total_us = r.stages.iter().sum();
        let j = Json::parse(&trace_response(&[r])).unwrap();
        let t = match j.get("traces") {
            Some(Json::Arr(v)) => &v[0],
            other => panic!("bad traces member {other:?}"),
        };
        assert_eq!(t.get("total_us"), Some(&Json::Int(120)));
    }
}
