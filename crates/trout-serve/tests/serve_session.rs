//! End-to-end session tests: a generated event script through the full
//! parse → engine → respond loop, over an in-memory pipe and over TCP.

use std::io::Cursor;
use std::sync::Arc;

use trout_core::TroutError;
use trout_features::incremental::{trace_events, ReplayEvent};
use trout_serve::protocol::job_to_json;
use trout_serve::server::LINE_MAX;
use trout_serve::{run_session, run_tcp, ServeConfig, ServeEngine, ShardSet};
use trout_slurmsim::{SimulationBuilder, Trace};
use trout_std::json::Json;

/// Flattens a trace into the ndjson script a live client would send: after
/// every `predict_every`-th submit it asks about the most recent pending
/// jobs (several back-to-back predicts — the coalescing case), ending in
/// metrics+shutdown.
fn event_script(trace: &Trace, predict_every: usize) -> String {
    let mut out = String::new();
    let mut submits = 0usize;
    let mut pending: Vec<u64> = Vec::new();
    for (t, ev) in trace_events(trace) {
        match ev {
            ReplayEvent::Submit(i) => {
                let r = &trace.records[i];
                let line = Json::Obj(vec![
                    ("event".into(), Json::Str("submit".into())),
                    ("job".into(), job_to_json(r)),
                ]);
                out.push_str(&line.to_string());
                out.push('\n');
                pending.push(r.id);
                submits += 1;
                if predict_every > 0 && submits % predict_every == 0 {
                    for id in pending.iter().rev().take(4) {
                        out.push_str(&format!(
                            "{{\"event\":\"predict\",\"id\":{id},\"time\":{}}}\n",
                            r.submit_time
                        ));
                    }
                }
            }
            ReplayEvent::Start(i) => {
                pending.retain(|&id| id != trace.records[i].id);
                out.push_str(&format!(
                    "{{\"event\":\"start\",\"id\":{},\"time\":{t}}}\n",
                    trace.records[i].id
                ));
            }
            ReplayEvent::End(i) => {
                pending.retain(|&id| id != trace.records[i].id);
                out.push_str(&format!(
                    "{{\"event\":\"end\",\"id\":{},\"time\":{t}}}\n",
                    trace.records[i].id
                ));
            }
        }
    }
    out.push_str("{\"event\":\"metrics\"}\n");
    out.push_str("{\"event\":\"shutdown\"}\n");
    out
}

fn engine() -> ServeEngine {
    ServeEngine::bootstrap(
        400,
        &ServeConfig {
            refit_every: 0,
            seed: 3,
            ..Default::default()
        },
    )
}

fn assert_session_transcript(script: &str, responses: &str) {
    let requests = script.lines().count();
    let lines: Vec<&str> = responses.lines().collect();
    assert_eq!(lines.len(), requests, "one response line per request line");
    let mut predictions = 0usize;
    for line in &lines {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad response {line}: {e}"));
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)), "{line}");
        if j.get("event") == Some(&Json::Str("predict".into())) {
            predictions += 1;
            let proba = match j.get("quick_proba") {
                Some(Json::Num(p)) => *p,
                other => panic!("quick_proba missing: {other:?}"),
            };
            assert!((0.0..=1.0).contains(&proba), "{line}");
            assert!(j.get("message").is_some());
        }
    }
    assert!(
        predictions >= 10,
        "only {predictions} predictions came back"
    );

    // The metrics dump is the second-to-last line and must carry the
    // registry sections.
    let metrics = Json::parse(lines[lines.len() - 2]).unwrap();
    assert_eq!(metrics.get("event"), Some(&Json::Str("metrics".into())));
    let m = metrics.get("metrics").expect("metrics payload");
    let predicts = m.get("counters").and_then(|c| c.get("predicts"));
    assert_eq!(predicts, Some(&Json::Int(predictions as i128)));
    assert!(m.get("predict_us").and_then(|h| h.get("p99")).is_some());
    assert!(m.get("batch_size").and_then(|h| h.get("count")).is_some());
}

#[test]
fn stdin_style_session_round_trips_a_replay_script() {
    let live = SimulationBuilder::anvil_like().jobs(150).seed(9).run();
    let script = event_script(&live, 3);
    let shards = ShardSet::single(engine());
    let mut responses: Vec<u8> = Vec::new();
    let handled = run_session(&shards, Cursor::new(script.clone()), &mut responses, 32).unwrap();
    assert_eq!(handled as usize, script.lines().count());
    assert_session_transcript(&script, &String::from_utf8(responses).unwrap());

    // The whole script was buffered in one Cursor, so predicts coalesce
    // into true multi-row batches.
    let m = shards.lock(0);
    assert!(m.metrics.batch_size.count() < m.metrics.predicts_total.get());
}

/// Replays a scripted trace and holds the drift monitor to the offline
/// reference: the rolling MAE in the metrics dump must equal
/// `trout_core::eval::rolling_mae` over the same prediction/outcome pairs
/// **bit-for-bit** (the JSON f64 round trip is exact).
#[test]
fn drift_metrics_match_the_offline_evaluation_bit_for_bit() {
    let live = SimulationBuilder::anvil_like().jobs(150).seed(21).run();
    let script = trout_serve::replay_script(&live, 3);
    // Ask for a Prometheus dump too, right before shutdown.
    let script = script.replace(
        "{\"event\":\"metrics\"}\n",
        "{\"event\":\"metrics\"}\n{\"event\":\"metrics\",\"format\":\"prometheus\"}\n",
    );
    let shards = ShardSet::single(engine());
    let mut out: Vec<u8> = Vec::new();
    run_session(&shards, Cursor::new(script.clone()), &mut out, 32).unwrap();
    let responses = String::from_utf8(out).unwrap();
    let resp: Vec<&str> = responses.lines().collect();
    assert_eq!(resp.len(), script.lines().count());

    // Reconstruct served predictions from the transcript: request line i got
    // response line i, so pair predicts with their answers.
    let mut served: std::collections::HashMap<u64, f32> = std::collections::HashMap::new();
    for (req, rsp) in script.lines().zip(&resp) {
        let req = Json::parse(req).unwrap();
        if req.get("event") != Some(&Json::Str("predict".into())) {
            continue;
        }
        let id = match req.get("id") {
            Some(Json::Int(v)) => *v as u64,
            other => panic!("bad predict id {other:?}"),
        };
        let j = Json::parse(rsp).unwrap();
        assert_eq!(j.get("ok"), Some(&Json::Bool(true)), "{rsp}");
        let cutoff = match j.get("cutoff_min") {
            Some(Json::Num(c)) => *c,
            other => panic!("cutoff_min missing: {other:?}"),
        };
        let pred_min = match (j.get("quick_start"), j.get("minutes")) {
            (Some(Json::Bool(true)), _) => (cutoff / 2.0) as f32,
            (_, Some(Json::Num(m))) => *m as f32,
            other => panic!("unreadable prediction {other:?}"),
        };
        served.insert(id, pred_min);
    }
    assert!(served.len() >= 10, "only {} predictions", served.len());

    // Joins happen in start-event order; replay the trace the same way.
    let mut preds = Vec::new();
    let mut actuals = Vec::new();
    for (_, ev) in trace_events(&live) {
        if let ReplayEvent::Start(i) = ev {
            let r = &live.records[i];
            if let Some(&p) = served.get(&r.id) {
                preds.push(p);
                actuals.push(r.queue_time_min() as f32);
            }
        }
    }

    // The JSON metrics dump is third-from-last (then prometheus, shutdown).
    let metrics = Json::parse(resp[resp.len() - 3]).unwrap();
    let drift = metrics
        .get("metrics")
        .and_then(|m| m.get("drift"))
        .expect("drift section");
    assert_eq!(drift.get("joined"), Some(&Json::Int(preds.len() as i128)));
    assert_eq!(
        drift.get("mae_min"),
        Some(&Json::Num(trout_core::eval::rolling_mae(&preds, &actuals))),
        "rolling MAE must match the offline reference bit-for-bit"
    );
    assert_eq!(
        drift.get("within_2x"),
        Some(&Json::Num(trout_core::eval::within_2x_fraction(
            &preds, &actuals
        )))
    );
    let confusion_sum: i128 = ["quick_quick", "quick_long", "long_quick", "long_long"]
        .iter()
        .map(|c| match drift.get("confusion").and_then(|m| m.get(c)) {
            Some(Json::Int(v)) => *v,
            other => panic!("confusion cell {c} missing: {other:?}"),
        })
        .sum();
    assert_eq!(confusion_sum, preds.len() as i128);
    assert!(metrics
        .get("metrics")
        .and_then(|m| m.get("spans"))
        .is_some());

    // The Prometheus dump is second-from-last and carries the same state.
    let prom = Json::parse(resp[resp.len() - 2]).unwrap();
    assert_eq!(prom.get("format"), Some(&Json::Str("prometheus".into())));
    let body = match prom.get("body") {
        Some(Json::Str(b)) => b.clone(),
        other => panic!("prometheus body missing: {other:?}"),
    };
    assert!(body.contains(&format!("trout_serve_drift_joined_total {}", preds.len())));
    assert!(body.contains("trout_serve_drift_mae_min "));
    assert!(body.contains("trout_serve_predicts_total "));
}

/// The wire protocol must not be able to tell how many shards answer it:
/// the same script through 1 and 4 shards yields byte-identical response
/// lines (metrics dumps excluded — merged latency histograms legitimately
/// differ from a single engine's).
#[test]
fn sharded_session_responses_are_byte_identical_to_single_shard() {
    let live = SimulationBuilder::anvil_like().jobs(150).seed(9).run();
    let script = event_script(&live, 3);
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 3,
        ..Default::default()
    };
    let mut transcripts = Vec::new();
    for n in [1usize, 4] {
        let shards = ShardSet::bootstrap(n, 400, &cfg);
        let mut out: Vec<u8> = Vec::new();
        run_session(&shards, Cursor::new(script.clone()), &mut out, 32).unwrap();
        transcripts.push(String::from_utf8(out).unwrap());
    }
    let (single, sharded) = (&transcripts[0], &transcripts[1]);
    assert_eq!(single.lines().count(), sharded.lines().count());
    for (a, b) in single.lines().zip(sharded.lines()) {
        let ja = Json::parse(a).unwrap();
        if ja.get("event") == Some(&Json::Str("metrics".into())) {
            continue;
        }
        assert_eq!(a, b, "response lines match across shard counts");
    }
}

/// An N-shard daemon's JSON metrics dump has the 1-shard sections,
/// replication included, so clients parse one schema at any shard count.
#[test]
fn sharded_metrics_dump_keeps_the_single_shard_sections() {
    let live = SimulationBuilder::anvil_like().jobs(60).seed(9).run();
    let script = event_script(&live, 3);
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 3,
        ..Default::default()
    };
    let keys = |j: &Json| -> Vec<String> {
        j.expect_obj("section")
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    let mut dumps = Vec::new();
    for n in [1usize, 2] {
        let shards = ShardSet::bootstrap(n, 400, &cfg);
        let mut out: Vec<u8> = Vec::new();
        run_session(&shards, Cursor::new(script.clone()), &mut out, 32).unwrap();
        let text = String::from_utf8(out).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("\"event\":\"metrics\""))
            .expect("a metrics response")
            .to_string();
        assert!(
            line.contains("\"replication\":{\"followers\":0,"),
            "{n} shards"
        );
        dumps.push(Json::parse(&line).unwrap().get("metrics").unwrap().clone());
    }
    assert_eq!(keys(&dumps[0]), keys(&dumps[1]), "same sections in order");
    let section = |d: &Json| d.get("replication").unwrap().clone();
    assert_eq!(
        section(&dumps[0]),
        section(&dumps[1]),
        "no replication traffic"
    );
}

#[test]
fn bad_lines_get_error_responses_and_do_not_kill_the_session() {
    let shards = ShardSet::single(engine());
    let script: &[u8] = b"garbage\n\
                  \xff\xfe\n\
                  {\"event\":\"predict\",\"id\":5,\"time\":0}\n\
                  {\"event\":\"metrics\"}\n";
    let mut out: Vec<u8> = Vec::new();
    run_session(&shards, Cursor::new(script), &mut out, 8).unwrap();
    let responses = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = responses.lines().collect();
    assert_eq!(lines.len(), 4);
    // Malformed JSON → parse error; a line that is not UTF-8 → parse error;
    // predict of an unsubmitted id → protocol error; metrics still succeeds
    // and counts all three failures.
    let first = Json::parse(lines[0]).unwrap();
    assert_eq!(first.get("ok"), Some(&Json::Bool(false)));
    assert!(
        lines[1].contains("parse error: request line is not valid UTF-8"),
        "{}",
        lines[1]
    );
    let third = Json::parse(lines[2]).unwrap();
    assert_eq!(third.get("ok"), Some(&Json::Bool(false)));
    let fourth = Json::parse(lines[3]).unwrap();
    assert_eq!(
        fourth
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("errors")),
        Some(&Json::Int(3))
    );
}

#[test]
fn an_overflow_that_cuts_a_multibyte_character_is_a_protocol_error() {
    let shards = ShardSet::single(engine());
    // The cap's last byte is the first of 'é''s two bytes.
    let mut script = vec![b'x'; LINE_MAX];
    script.extend_from_slice("é\n{\"event\":\"shutdown\"}\n".as_bytes());
    let mut out: Vec<u8> = Vec::new();
    let err = run_session(&shards, Cursor::new(script), &mut out, 8).unwrap_err();
    assert!(matches!(err, TroutError::Protocol(_)), "{err}");
    let responses = String::from_utf8(out).unwrap();
    assert_eq!(responses.lines().count(), 1, "{responses}");
    assert!(
        responses.contains("protocol error: request line exceeded"),
        "{responses}"
    );
}

#[test]
fn tcp_session_serves_a_connection() {
    use std::io::{BufRead, BufReader, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shared = Arc::new(ShardSet::single(engine()));
    let server = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_tcp(shared, listener, 16, Some(1)))
    };

    let live = SimulationBuilder::anvil_like().jobs(60).seed(12).run();
    let script = event_script(&live, 5);
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(script.as_bytes()).unwrap();
    conn.flush().unwrap();

    let mut responses = String::new();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    let expect = script.lines().count();
    for _ in 0..expect {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed early"
        );
        responses.push_str(&line);
    }
    drop(reader);
    drop(conn);
    server.join().unwrap().unwrap();
    assert_session_transcript(&script, &responses);
}
