//! The router session: one client's request stream against a [`ShardSet`].
//!
//! Every transport (stdin and thread-per-connection TCP) drives a
//! [`RouterSession`] per client. The session queues predicts into per-shard
//! queues, remembering each query's **position** in the coalesced window; a
//! flush fans out one `predict_batch` per non-empty shard queue and re-pairs
//! the results positionally, so the client sees exactly one response line
//! per request line, in request order — the wire protocol cannot tell how
//! many shards sit behind it.
//!
//! Since PR 7 the window is scheduled, not incidental (DESIGN §12): each
//! predict is checked against the daemon-wide
//! [`AdmissionControl`](crate::scheduler::AdmissionControl) on arrival — a
//! shed becomes a pre-resolved window slot answered with a typed
//! `overloaded` + `retry_after_ms` *at flush time*, preserving strict
//! request-order responses. Admitted predicts carry their latency budget,
//! which the flush checks for SLO accounting. A window flushes at the batch
//! cap, at any non-predict line, or when the transport's reader drains —
//! never later, so no answer is held while its client waits. At flush, each
//! shard's batch executes in (priority-lane rank, arrival) order — urgent
//! first — which is byte-safe because inference is row-independent.
//!
//! Lifecycle events broadcast to every shard in shard order (see the
//! [`shard`](crate::shard) module docs for why). The response comes from
//! shard 0; the other shards' results are replicas of the same deterministic
//! application and are debug-asserted to agree.
//!
//! Pairing keeps PR 5's no-silence guarantee, generalized across shards: if
//! a shard's batch ever answers fewer queries than it was asked (a broken
//! `predict_batch` invariant), the unpaired positions get an explicit error
//! response instead of leaving the client hanging on a line that will never
//! come.

use std::io::Write;

use trout_core::{Deadline, QueuePrediction, TroutError};
use trout_obs::trace::{Stage, TraceRecord, N_STAGES, RING_CAP};
use trout_std::rng::SplitMix64;

use crate::engine::PredictQuery;
use crate::protocol::{
    ack_response, error_response, metrics_prometheus_response, metrics_response, parse_event,
    prediction_response, promote_response, trace_response, ClientEvent, MetricsFormat,
};
use crate::shard::ShardSet;

/// Seed of the per-session trace-id stream. Hermetic and deterministic: a
/// replayed session mints the same ids in the same order, and ids never
/// feed back into scheduling (DESIGN §14).
const TRACE_ID_SEED: u64 = 0x7472_6f75_745f_7472; // "trout_tr"

/// How many recent traces an error-triggered flight-recorder dump emits
/// per shard (bounded so a shed storm cannot flood stderr).
pub(crate) const FLIGHT_DUMP_LAST: usize = 8;

/// What the transport should do after a handled line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading.
    Continue,
    /// The client asked for `shutdown`; the ack is already written.
    Shutdown,
}

/// One admitted predict: its position in the current coalescing window plus
/// the query and its scheduling envelope.
#[derive(Debug, Clone, Copy)]
struct QueuedPredict {
    pos: usize,
    id: u64,
    time: i64,
    lane: trout_core::Lane,
    /// Admission instant ([`Clock::now_micros`](trout_std::clock::Clock)).
    enq_us: u64,
    /// Effective latency budget in microseconds (explicit or lane default).
    budget_us: u64,
    /// Whether the request used the v2 envelope (controls the lane echo).
    v2: bool,
    /// Whether the request opted into tracing (`"trace":true`, v2 only).
    traced: bool,
    /// The minted trace id (meaningless unless `traced`).
    trace_id: u64,
    /// Accept → enqueue duration (µs): line read, parse, admission check.
    parse_us: u64,
}

/// Per-shard stage stamps taken while the shard guard was held, shared by
/// every traced query of that shard's batch.
#[derive(Debug, Clone, Copy)]
struct ShardStamp {
    shard: usize,
    /// Instant the shard lock was acquired (flush start + admission wait).
    lock_us: u64,
    /// Instant `predict_batch` returned.
    done_us: u64,
    /// Engine-reported feature-assembly total for the batch.
    featurize_us: u64,
}

/// Everything a traced window slot needs to finish its [`TraceRecord`]
/// when the response is written.
#[derive(Debug, Clone, Copy)]
struct TraceStamp {
    trace_id: u64,
    lane_rank: u8,
    parse_us: u64,
    enq_us: u64,
    /// Batch-form hold: enqueue → flush start.
    hold_us: u64,
    /// Admission wait: flush start → shard lock acquired.
    admission_us: u64,
    featurize_us: u64,
    /// Shard-service remainder after featurize (kernel + bookkeeping).
    inference_us: u64,
    /// Instant the shard finished (backlog stage starts here).
    done_us: u64,
    shard: usize,
}

/// One window position's resolution at flush time.
enum Slot {
    /// Shed at admission; answered with `overloaded` when the window
    /// flushes so responses stay in strict request order.
    Shed { retry_after_ms: u64 },
    /// Answered by a shard's batch.
    Done {
        id: u64,
        v2: bool,
        result: Result<QueuePrediction, TroutError>,
        /// Present when the request opted into tracing.
        trace: Option<TraceStamp>,
    },
}

/// Per-client routing state: per-shard predict queues, the coalescing
/// window position counter, and pre-resolved shed slots.
pub struct RouterSession {
    per_shard: Vec<Vec<QueuedPredict>>,
    /// Window positions issued (admitted + shed) — the response count a
    /// flush owes.
    window: usize,
    /// Admitted predicts queued (drives the batch cap).
    queued: usize,
    /// Pre-resolved shed positions: `(pos, retry_after_ms)`.
    shed: Vec<(usize, u64)>,
    batch_max: usize,
    /// Hermetic per-session trace-id stream (DESIGN §14).
    rng: SplitMix64,
    /// One flight-recorder dump per session per trigger class, so a
    /// misbehaving client cannot flood stderr.
    shed_dumped: bool,
    protocol_dumped: bool,
}

impl RouterSession {
    /// A session against an `n_shards`-wide set, flushing at `batch_max`
    /// queued predicts.
    pub fn new(n_shards: usize, batch_max: usize) -> RouterSession {
        RouterSession {
            per_shard: (0..n_shards.max(1)).map(|_| Vec::new()).collect(),
            window: 0,
            queued: 0,
            shed: Vec::new(),
            batch_max: batch_max.max(1),
            rng: SplitMix64::new(TRACE_ID_SEED),
            shed_dumped: false,
            protocol_dumped: false,
        }
    }

    /// Admitted predicts currently queued (across all shards).
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Window positions awaiting a response (admitted + shed).
    pub fn pending(&self) -> usize {
        self.window
    }

    /// Handles one non-empty request line: queues a predict (flushing at the
    /// batch cap), or flushes then applies/answers anything else. Responses
    /// are written to `out` but not flushed to the OS — the transport
    /// flushes when its reader drains.
    pub fn handle_line<W: Write>(
        &mut self,
        shards: &ShardSet,
        line: &str,
        out: &mut W,
    ) -> Result<Flow, TroutError> {
        shards.metrics0().requests_total.inc();
        // Accept instant: anchors the parse stage of a traced request.
        let accept_us = shards.clock().now_micros();
        match parse_event(line) {
            Ok(ClientEvent::Predict {
                id,
                time,
                lane,
                deadline_ms,
                v2,
                trace,
            }) => {
                let cfg = shards.scheduler();
                let budget_us = cfg.budget_us(lane, deadline_ms.map(Deadline::ms));
                match shards.admission().try_admit(cfg, lane, budget_us) {
                    Err(retry_after_ms) => {
                        // Shed: resolved now, answered at flush so the
                        // one-response-per-line order holds. Sheds do not
                        // count toward the batch cap (no work queued).
                        shards.metrics0().record_shed(lane);
                        if !self.shed_dumped {
                            self.shed_dumped = true;
                            shards.flight_dump("shed", FLIGHT_DUMP_LAST);
                        }
                        self.shed.push((self.window, retry_after_ms));
                        self.window += 1;
                    }
                    Ok(()) => {
                        let now = shards.clock().now_micros();
                        let shard = shards.shard_of(id);
                        self.per_shard[shard].push(QueuedPredict {
                            pos: self.window,
                            id,
                            time,
                            lane,
                            enq_us: now,
                            budget_us,
                            v2,
                            traced: trace,
                            trace_id: if trace { self.rng.next_u64() } else { 0 },
                            parse_us: now.saturating_sub(accept_us),
                        });
                        self.window += 1;
                        self.queued += 1;
                        if self.queued >= self.batch_max {
                            self.flush(shards, out)?;
                        }
                    }
                }
            }
            Ok(ClientEvent::Shutdown) => {
                self.flush(shards, out)?;
                writeln!(out, "{}", ack_response("shutdown", 0))?;
                return Ok(Flow::Shutdown);
            }
            Ok(ClientEvent::Metrics(format)) => {
                self.flush(shards, out)?;
                let response = match format {
                    MetricsFormat::Json => metrics_response(shards.metrics_json()),
                    MetricsFormat::Prometheus => {
                        metrics_prometheus_response(shards.metrics_prometheus())
                    }
                };
                writeln!(out, "{response}")?;
            }
            Ok(ClientEvent::Trace { last }) => {
                // Drain first so just-queued traced predicts are visible.
                self.flush(shards, out)?;
                let n = last.min(RING_CAP);
                let mut traces = Vec::new();
                for shard in 0..shards.len() {
                    shards.trace_sink(shard).recent(n, &mut traces);
                }
                // One daemon-wide timeline: all shards share the session
                // clock, so completion instants order across shards.
                traces.sort_by(|a, b| b.end_us.cmp(&a.end_us));
                traces.truncate(n);
                writeln!(out, "{}", trace_response(&traces))?;
            }
            Ok(ClientEvent::Promote) => {
                self.flush(shards, out)?;
                let was_follower = shards.request_promote();
                trout_obs::log_info!(
                    "serve",
                    "promote requested (was {}); lifecycle events will be accepted once the \
                     stream drains",
                    if was_follower { "follower" } else { "leader" }
                );
                writeln!(out, "{}", promote_response(was_follower))?;
            }
            Ok(ClientEvent::ReplicationStatus) => {
                self.flush(shards, out)?;
                writeln!(out, "{}", shards.replication_status_json())?;
            }
            Ok(ClientEvent::StateDump) => {
                self.flush(shards, out)?;
                // Built under the shard locks, written after they are
                // released (the egress commit locks every shard).
                let line = shards.state_dump_line();
                writeln!(out, "{line}")?;
            }
            Ok(event) => {
                // Lifecycle events keep response order: drain queued
                // predicts first, then broadcast to every shard.
                self.flush(shards, out)?;
                if shards.is_read_only() {
                    let e = TroutError::ReadOnly(
                        "this daemon is a replication follower; send lifecycle events to the \
                         leader (or promote this follower)"
                            .into(),
                    );
                    shards.metrics0().record_error(&e);
                    writeln!(out, "{}", error_response(&e))?;
                    return Ok(Flow::Continue);
                }
                let response = broadcast_event(shards, &event);
                match response {
                    Ok(r) => writeln!(out, "{r}")?,
                    Err(e) => {
                        shards.metrics0().record_error(&e);
                        writeln!(out, "{}", error_response(&e))?;
                    }
                }
            }
            Err(e) => self.answer_error(shards, &e, out)?,
        }
        Ok(Flow::Continue)
    }

    /// Answers a request line the transport could not decode (it is not
    /// UTF-8) with `e`, in order, as [`RouterSession::handle_line`] answers
    /// a line that does not parse.
    pub fn reject_line<W: Write>(
        &mut self,
        shards: &ShardSet,
        e: &TroutError,
        out: &mut W,
    ) -> Result<(), TroutError> {
        shards.metrics0().requests_total.inc();
        self.answer_error(shards, e, out)
    }

    /// Drains the window, counts `e`, and writes its error response.
    fn answer_error<W: Write>(
        &mut self,
        shards: &ShardSet,
        e: &TroutError,
        out: &mut W,
    ) -> Result<(), TroutError> {
        self.flush(shards, out)?;
        shards.metrics0().record_error(e);
        if matches!(e, TroutError::Protocol(_)) && !self.protocol_dumped {
            self.protocol_dumped = true;
            shards.flight_dump("protocol_error", FLIGHT_DUMP_LAST);
        }
        writeln!(out, "{}", error_response(e))?;
        Ok(())
    }

    /// Fans queued predicts out to their shards and writes the responses in
    /// window-position order — one line per window position: predictions,
    /// errors, and pre-resolved sheds, unpaired tails answered explicitly.
    ///
    /// Within one shard's batch the queries execute in (priority-lane rank,
    /// arrival) order — urgent preempts normal preempts batch. Reordering
    /// never changes response bytes (inference is row-independent) but it
    /// does order journal predict lines and featurization, so the latency a
    /// lane pays inside the flush follows its priority.
    pub fn flush<W: Write>(&mut self, shards: &ShardSet, out: &mut W) -> Result<(), TroutError> {
        if self.window == 0 {
            return Ok(());
        }
        let now = shards.clock().now_micros();
        let mut slots: Vec<Option<Slot>> = (0..self.window).map(|_| None).collect();
        for (pos, retry_after_ms) in self.shed.drain(..) {
            slots[pos] = Some(Slot::Shed { retry_after_ms });
        }
        for (shard_idx, queue) in self.per_shard.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            queue.sort_by_key(|q| (q.lane.rank(), q.pos));
            let traced_any = queue.iter().any(|q| q.traced);
            let queries: Vec<PredictQuery> = queue
                .iter()
                .map(|q| PredictQuery {
                    id: q.id,
                    time: q.time,
                    lane: q.lane,
                })
                .collect();
            let mut guard = shards.lock(shard_idx);
            let lock_us = if traced_any {
                shards.clock().now_micros()
            } else {
                0
            };
            let results = guard.predict_batch(&queries);
            let stamp = traced_any.then(|| ShardStamp {
                shard: shard_idx,
                lock_us,
                done_us: shards.clock().now_micros(),
                featurize_us: guard.last_batch_featurize_us(),
            });
            pair_shard_results(&mut slots, queue, results, now, stamp);
            // Errors and scheduling outcomes are accounted where they
            // happened: the shard that owned the query.
            for q in queue.iter() {
                let wait = now.saturating_sub(q.enq_us);
                guard.metrics.queue_wait_us.record(wait);
                guard.metrics.lane_predicts_total[q.lane.rank()].inc();
                let violating = wait > q.budget_us;
                if violating {
                    guard.metrics.slo_violations_total[q.lane.rank()].inc();
                }
                // SLO burn accounting: one good/violating tick per predict
                // in the 1-second bucket of the flush instant.
                guard
                    .metrics
                    .burn
                    .record(q.lane.rank(), violating, now / 1_000_000);
                if let Some(Slot::Done { result: Err(e), .. }) = &slots[q.pos] {
                    guard.metrics.record_error(e);
                }
            }
            drop(guard);
            for q in queue.drain(..) {
                shards.admission().release(q.lane);
            }
        }
        for (pos, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Slot::Shed { retry_after_ms }) => writeln!(
                    out,
                    "{}",
                    error_response(&TroutError::Overloaded { retry_after_ms })
                )?,
                Some(Slot::Done {
                    id,
                    v2,
                    result: Ok(p),
                    trace,
                }) => match trace {
                    None => writeln!(out, "{}", prediction_response(id, &p, v2, None))?,
                    Some(t) => {
                        // Backlog ends and serialization begins now; the
                        // completed record lands in the owning shard's
                        // flight recorder.
                        let ser_start_us = shards.clock().now_micros();
                        writeln!(out, "{}", prediction_response(id, &p, v2, Some(t.trace_id)))?;
                        let end_us = shards.clock().now_micros();
                        let mut stages = [0u64; N_STAGES];
                        stages[Stage::Parse.index()] = t.parse_us;
                        stages[Stage::Hold.index()] = t.hold_us;
                        stages[Stage::Admission.index()] = t.admission_us;
                        stages[Stage::Featurize.index()] = t.featurize_us;
                        stages[Stage::Inference.index()] = t.inference_us;
                        stages[Stage::Backlog.index()] = ser_start_us.saturating_sub(t.done_us);
                        stages[Stage::Serialize.index()] = end_us.saturating_sub(ser_start_us);
                        let record = TraceRecord {
                            trace_id: t.trace_id,
                            lane: t.lane_rank,
                            end_us,
                            total_us: t.parse_us + end_us.saturating_sub(t.enq_us),
                            stages,
                        };
                        shards.trace_sink(t.shard).record(&record);
                    }
                },
                Some(Slot::Done { result: Err(e), .. }) => writeln!(out, "{}", error_response(&e))?,
                None => {
                    // Unreachable by construction (every window position is
                    // an admitted predict in exactly one shard queue or a
                    // shed), but a position must never go unanswered — a
                    // silent hole hangs the client.
                    let e = TroutError::Model(format!(
                        "internal: no shard answered window position {pos}"
                    ));
                    shards.metrics0().record_error(&e);
                    writeln!(out, "{}", error_response(&e))?;
                }
            }
        }
        self.window = 0;
        self.queued = 0;
        Ok(())
    }
}

/// Writes one shard queue's batch results into the window slots, pairing
/// positionally (k-th result ↔ k-th query, in the queue's execution order).
/// `predict_batch` guarantees one result per query; if that invariant ever
/// breaks, the unpaired trailing queries get an explicit error result
/// instead of silently never being answered (a client waiting on a response
/// that will never come is a hang, not an error). Extra results beyond the
/// queue are dropped.
fn pair_shard_results(
    slots: &mut [Option<Slot>],
    queue: &[QueuedPredict],
    results: Vec<Result<QueuePrediction, TroutError>>,
    flush_us: u64,
    stamp: Option<ShardStamp>,
) {
    let mut results = results.into_iter();
    for q in queue {
        let result = results.next().unwrap_or_else(|| {
            Err(TroutError::Model(format!(
                "internal: batch produced no answer for job {}",
                q.id
            )))
        });
        let trace = match (q.traced, stamp) {
            (true, Some(s)) => Some(TraceStamp {
                trace_id: q.trace_id,
                lane_rank: q.lane.rank() as u8,
                parse_us: q.parse_us,
                enq_us: q.enq_us,
                hold_us: flush_us.saturating_sub(q.enq_us),
                admission_us: s.lock_us.saturating_sub(flush_us),
                featurize_us: s.featurize_us,
                inference_us: s
                    .done_us
                    .saturating_sub(s.lock_us)
                    .saturating_sub(s.featurize_us),
                done_us: s.done_us,
                shard: s.shard,
            }),
            _ => None,
        };
        slots[q.pos] = Some(Slot::Done {
            id: q.id,
            v2: q.v2,
            result,
            trace,
        });
    }
}

/// Applies one lifecycle event on every shard (shard order — all sessions
/// broadcast in the same order, so two sessions' concurrent events cannot
/// deadlock and every shard applies the same event set). Returns shard 0's
/// response; replicas must agree on success/failure.
fn broadcast_event(shards: &ShardSet, event: &ClientEvent) -> Result<String, TroutError> {
    let mut first: Option<Result<String, TroutError>> = None;
    for i in 0..shards.len() {
        let mut guard = shards.lock(i);
        let result = match event {
            ClientEvent::Submit(rec) => guard
                .apply_submit((**rec).clone())
                .map(|id| ack_response("submit", id)),
            ClientEvent::Start { id, time } => guard
                .apply_start(*id, *time)
                .map(|()| ack_response("start", *id)),
            ClientEvent::End { id, time } => guard
                .apply_end(*id, *time)
                .map(|()| ack_response("end", *id)),
            _ => unreachable!("broadcast_event only receives lifecycle events"),
        };
        drop(guard);
        match &first {
            None => first = Some(result),
            Some(f) => debug_assert_eq!(
                f.is_ok(),
                result.is_ok(),
                "shard {i} disagreed with shard 0 on a broadcast event"
            ),
        }
    }
    first.expect("a shard set is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::shard::ShardSet;
    use trout_slurmsim::SimulationBuilder;

    fn small_set(n_shards: usize) -> (ShardSet, Vec<trout_slurmsim::JobRecord>) {
        let cfg = ServeConfig {
            refit_every: 0,
            seed: 5,
            ..Default::default()
        };
        let set = ShardSet::bootstrap(n_shards, 150, &cfg);
        let live = SimulationBuilder::anvil_like().jobs(40).seed(6).run();
        (set, live.records)
    }

    #[test]
    fn mixed_batch_re_pairs_in_request_order_across_shards() {
        let (set, recs) = small_set(3);
        let mut session = RouterSession::new(set.len(), 64);
        let mut out = Vec::new();
        // Submit a handful of jobs, then predict them interleaved with an
        // unknown id; responses must come back in exactly request order.
        for rec in recs.iter().take(6) {
            let line = crate::protocol::submit_line(rec);
            assert_eq!(
                session.handle_line(&set, &line, &mut out).unwrap(),
                Flow::Continue
            );
        }
        out.clear();
        let mut expect_ids: Vec<Option<u64>> = Vec::new();
        for (k, rec) in recs.iter().take(6).enumerate() {
            let (id, ok) = if k == 3 {
                (888_888, false) // unknown id -> in-place error response
            } else {
                (rec.id, true)
            };
            let line = format!(
                "{{\"event\":\"predict\",\"id\":{id},\"time\":{}}}",
                rec.submit_time
            );
            session.handle_line(&set, &line, &mut out).unwrap();
            expect_ids.push(ok.then_some(id));
        }
        session.flush(&set, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "one response per request:\n{text}");
        for (line, expect) in lines.iter().zip(&expect_ids) {
            match expect {
                Some(id) => assert!(
                    line.contains(&format!("\"id\":{id}")),
                    "response out of order: {line} (wanted id {id})"
                ),
                None => assert!(line.contains("\"ok\":false"), "expected error: {line}"),
            }
        }
    }

    #[test]
    fn broadcast_keeps_every_shard_replica_identical() {
        let (set, recs) = small_set(2);
        let mut session = RouterSession::new(set.len(), 8);
        let mut out = Vec::new();
        for rec in recs.iter().take(10) {
            let line = crate::protocol::submit_line(rec);
            session.handle_line(&set, &line, &mut out).unwrap();
        }
        let idx0 = set.lock(0).index().state_text();
        let idx1 = set.lock(1).index().state_text();
        assert_eq!(idx0, idx1, "every shard holds the same index replica");
    }

    #[test]
    fn batch_cap_triggers_a_flush_mid_stream() {
        let (set, recs) = small_set(2);
        let mut session = RouterSession::new(set.len(), 3);
        let mut out = Vec::new();
        for rec in recs.iter().take(4) {
            let line = crate::protocol::submit_line(rec);
            session.handle_line(&set, &line, &mut out).unwrap();
        }
        out.clear();
        for rec in recs.iter().take(4) {
            let line = format!(
                "{{\"event\":\"predict\",\"id\":{},\"time\":{}}}",
                rec.id, rec.submit_time
            );
            session.handle_line(&set, &line, &mut out).unwrap();
        }
        let flushed = String::from_utf8(out.clone()).unwrap();
        assert_eq!(
            flushed.lines().count(),
            3,
            "cap of 3 flushed the first three predicts; the fourth is queued"
        );
        assert_eq!(session.queued(), 1);
        session.flush(&set, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    use trout_core::QueueEstimate;
    use trout_std::proptest_lite::vec_of;
    use trout_std::{prop_assert, prop_assert_eq, proptest_lite};

    fn dummy_prediction(seed: u64) -> QueuePrediction {
        QueuePrediction {
            estimate: QueueEstimate::Minutes(seed as f32),
            quick_proba: 0.5,
            calibrated_proba: 0.5,
            minutes: Some(seed as f32),
            cutoff_min: 10.0,
            lane: trout_core::Lane::Normal,
        }
    }

    fn queued(pos: usize, id: u64) -> QueuedPredict {
        QueuedPredict {
            pos,
            id,
            time: 0,
            lane: trout_core::Lane::Normal,
            enq_us: 0,
            budget_us: 500_000,
            v2: false,
            traced: false,
            trace_id: 0,
            parse_us: 0,
        }
    }

    proptest_lite! {
        // The PR 5 flush_batch unit test, generalized: however predicts
        // interleave across lanes, pairing answers every window position
        // with the right job — and a lane whose batch came back short
        // (broken predict_batch invariant) yields explicit error responses
        // for its unpaired tail, never silence.
        #[cases(200)]
        fn arbitrary_interleavings_re_pair_positionally(
            lane_picks in vec_of(0u64..5, 0..60),
            lanes_n in 1u64..5,
            truncate in 0u64..4
        ) {
            let lanes_n = lanes_n as usize;
            let mut queues: Vec<Vec<QueuedPredict>> = vec![Vec::new(); lanes_n];
            for (pos, pick) in lane_picks.iter().enumerate() {
                let shard = (*pick as usize) % lanes_n;
                queues[shard].push(queued(pos, 1000 + pos as u64));
            }
            // Victim queue: the fullest one loses its last `truncate` results.
            let victim = (0..lanes_n).max_by_key(|&l| queues[l].len()).unwrap();
            let mut slots: Vec<Option<Slot>> =
                (0..lane_picks.len()).map(|_| None).collect();
            let mut unpaired: Vec<u64> = Vec::new();
            for (l, queue) in queues.iter().enumerate() {
                let mut results: Vec<Result<QueuePrediction, TroutError>> =
                    queue.iter().map(|q| Ok(dummy_prediction(q.id))).collect();
                if l == victim {
                    let keep = results.len().saturating_sub(truncate as usize);
                    unpaired = queue[keep..].iter().map(|q| q.id).collect();
                    results.truncate(keep);
                }
                pair_shard_results(&mut slots, queue, results, 0, None);
            }
            for (pos, slot) in slots.iter().enumerate() {
                let (id, result) = match slot.as_ref().expect("every window position answered") {
                    Slot::Done { id, result, .. } => (id, result),
                    Slot::Shed { .. } => panic!("no sheds in this window"),
                };
                prop_assert_eq!(*id, 1000 + pos as u64, "position {} answered for the wrong job", pos);
                match result {
                    Ok(p) => {
                        // The queue's k-th result went to its k-th query.
                        prop_assert_eq!(p.minutes, Some(*id as f32));
                        prop_assert!(!unpaired.contains(id));
                    }
                    Err(e) => {
                        prop_assert!(unpaired.contains(id), "unexpected error at {}: {}", pos, e);
                        prop_assert!(e.to_string().contains(&id.to_string()));
                    }
                }
            }
        }
    }

    #[test]
    fn shutdown_drains_the_queue_before_acking() {
        let (set, recs) = small_set(2);
        let mut session = RouterSession::new(set.len(), 64);
        let mut out = Vec::new();
        let rec = &recs[0];
        session
            .handle_line(&set, &crate::protocol::submit_line(rec), &mut out)
            .unwrap();
        out.clear();
        let line = format!(
            "{{\"event\":\"predict\",\"id\":{},\"time\":{}}}",
            rec.id, rec.submit_time
        );
        session.handle_line(&set, &line, &mut out).unwrap();
        assert_eq!(session.queued(), 1);
        let flow = session
            .handle_line(&set, "{\"event\":\"shutdown\"}", &mut out)
            .unwrap();
        assert_eq!(flow, Flow::Shutdown);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "predict response, then the shutdown ack");
        assert!(lines[0].contains("\"event\":\"predict\""));
        assert!(lines[1].contains("\"event\":\"shutdown\""));
    }
}
