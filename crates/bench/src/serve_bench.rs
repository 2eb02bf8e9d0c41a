//! Serve-path benchmark: replay a live event stream through the daemon's
//! session loop and report sustained prediction throughput.
//!
//! Unlike the microbenches this one measures the *service*, not a kernel:
//! the replay goes through `run_session` — JSON parsing, micro-batch
//! coalescing, incremental snapshot probes, the batched forward pass, and
//! response serialization — exactly what a `trout serve --stdin` client
//! pays. The report (`BENCH_serve.json`) carries the session throughput
//! plus the engine's full metrics registry, so the per-stage latency
//! histograms (featurize/inference/predict, p50/p90/p99) and the coalesced
//! batch-size distribution land next to the headline number.

use std::sync::Arc;
use std::time::Instant;

use trout_serve::protocol::job_to_json;
use trout_serve::{run_session, RouterSession, ServeConfig, ServeEngine, ShardSet};
use trout_slurmsim::{SimulationBuilder, Trace};
use trout_std::bench::{write_report, Criterion};
use trout_std::json::Json;

use trout_features::incremental::{trace_events, ReplayEvent};

/// Flattens a trace into the ndjson session script a live client would
/// produce: lifecycle events in time order, and after every
/// `predict_stride`-th submit a burst of predicts for the most recent
/// pending jobs (consecutive predict lines, so the session loop coalesces
/// them into real multi-row batches).
fn event_script(trace: &Trace, predict_stride: usize, burst: usize) -> String {
    let mut out = String::new();
    let mut pending: Vec<u64> = Vec::new();
    let mut submits = 0usize;
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
                if submits % predict_stride == 0 {
                    for &id in pending.iter().rev().take(burst) {
                        out.push_str(&format!(
                            "{{\"event\":\"predict\",\"id\":{id},\"time\":{}}}\n",
                            r.submit_time
                        ));
                    }
                }
            }
            ReplayEvent::Start(i) => {
                let id = trace.records[i].id;
                pending.retain(|&p| p != id);
                out.push_str(&format!(
                    "{{\"event\":\"start\",\"id\":{id},\"time\":{t}}}\n"
                ));
            }
            ReplayEvent::End(i) => {
                let id = trace.records[i].id;
                pending.retain(|&p| p != id);
                out.push_str(&format!("{{\"event\":\"end\",\"id\":{id},\"time\":{t}}}\n"));
            }
        }
    }
    out.push_str("{\"event\":\"shutdown\"}\n");
    out
}

/// Replays a full live session through `run_session`, writes
/// `BENCH_serve.json` (throughput + metrics histograms) unless smoking, then
/// times the steady-state `predict_batch` hot path under the criterion
/// harness.
pub fn bench_serve(c: &mut Criterion) {
    let smoke = std::env::var("TROUT_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (boot_jobs, live_jobs, stride, burst) = if smoke {
        (300, 120, 4, 4)
    } else {
        (4_000, 3_000, 1, 8)
    };
    let cfg = ServeConfig {
        refit_every: 1_024,
        seed: 7,
        ..Default::default()
    };
    let engine = ServeEngine::bootstrap(boot_jobs, &cfg);
    let live = SimulationBuilder::anvil_like()
        .jobs(live_jobs)
        .seed(cfg.seed ^ 0x5eed)
        .run();
    let script = event_script(&live, stride, burst);

    let set = ShardSet::single(engine);
    let mut responses: Vec<u8> = Vec::with_capacity(script.len());
    let t0 = Instant::now();
    let handled = run_session(&set, script.as_bytes(), &mut responses, 64)
        .expect("bench session must run clean");
    let elapsed = t0.elapsed().as_secs_f64();
    let mut engine = set.lock(0);

    let m = &engine.metrics;
    assert_eq!(
        m.errors_total.get(),
        0,
        "bench replay produced error responses"
    );
    // Sustained service rate: total time spent inside predict_batch flushes,
    // amortized over the predictions they served, inverted. This charges
    // featurize + inference + batching overhead to every prediction but not
    // the lifecycle events in between. (predict_us is per-request latency —
    // every query in a batch waits for the whole flush — so its mean would
    // overcount shared work here.)
    let preds_per_sec = if m.batch_us.sum() > 0 && m.predicts_total.get() > 0 {
        m.predicts_total.get() as f64 * 1e6 / m.batch_us.sum() as f64
    } else {
        0.0
    };
    eprintln!(
        "bench serve/replay: {handled} lines in {elapsed:.2}s — {} predictions \
         ({preds_per_sec:.0}/sec sustained, p99 {} us), {} batches, {} refits",
        m.predicts_total.get(),
        m.predict_us.quantile(0.99),
        m.batches_total.get(),
        m.refits_total.get()
    );
    // The shard sweep: the same predict-heavy offered load against 1/2/4
    // shard engines, concurrency fixed, measuring how sustained throughput
    // scales with shards.
    let sweep = shard_sweep(smoke);
    // The offered-load sweep: paced open-loop arrivals through the scheduled
    // v2 window, reporting latency-vs-load curves and the max goodput the
    // daemon sustains while the urgent lane still meets its SLO.
    let offered = offered_load_sweep(smoke);
    // The backlog sweep: predict-path throughput vs queue depth.
    let backlog = backlog_sweep(smoke);

    if !smoke {
        let report = Json::Obj(vec![
            ("group".into(), Json::Str("serve".into())),
            (
                "session".into(),
                Json::Obj(vec![
                    ("lines".into(), Json::Int(handled as i128)),
                    ("elapsed_s".into(), Json::Num(elapsed)),
                    (
                        "lines_per_sec".into(),
                        Json::Num(handled as f64 / elapsed.max(1e-9)),
                    ),
                    (
                        "predictions".into(),
                        Json::Int(m.predicts_total.get() as i128),
                    ),
                    ("predictions_per_sec".into(), Json::Num(preds_per_sec)),
                ]),
            ),
            ("shard_sweep".into(), sweep),
            ("offered_load".into(), offered),
            ("backlog_sweep".into(), backlog),
            ("metrics".into(), engine.metrics.to_json()),
        ]);
        write_report("serve", &report);
    }

    // Steady-state predict latency: fresh pending jobs on the post-replay
    // engine, first batch warms the feature cache, calibrated iterations
    // measure the hot path at three coalescing levels.
    let last = live.records.last().expect("non-empty trace");
    let t_now = last.end_time + 1_000;
    let mut ids = Vec::new();
    for k in 0..32u64 {
        let mut rec = last.clone();
        rec.id = 10_000_000 + k;
        rec.submit_time = t_now;
        rec.eligible_time = t_now;
        engine.apply_submit(rec).expect("fresh submit");
        ids.push(10_000_000 + k);
    }
    let mut group = c.benchmark_group("serve_predict");
    group.sample_size(20);
    for &n in &[1usize, 8, 32] {
        let queries: Vec<trout_serve::engine::PredictQuery> = ids
            .iter()
            .take(n)
            .map(|&id| trout_serve::engine::PredictQuery::new(id, t_now + 1))
            .collect();
        group.bench_function(&format!("predict_batch/{n}")[..], |b| {
            b.iter(|| engine.predict_batch(&queries))
        });
    }
    group.finish();
}

/// Sweeps `--shards 1/2/4` under a fixed concurrent predict load: four
/// client sessions with disjoint id slices hammer the same `ShardSet`, and
/// the sweep reports sustained predictions/sec plus per-shard rates and p99
/// predict latency. `TROUT_THREADS` is pinned to 1 for the duration so the
/// shard count is the only parallelism lever being measured — the headline
/// question is whether N engines behind the router actually scale, not
/// whether one engine's kernels do.
///
/// Rates use the same basis as the replay headline above: time spent
/// *inside* `predict_batch` (`batch_us`), amortized over the predictions it
/// served. Per shard that is the shard's own busy time; the aggregate is
/// the sum of per-shard sustained rates — the set's service capacity. Wall
/// clock is reported alongside, but on a core-restricted box (CI pins this
/// workspace to one CPU) wall clock conflates the in-process load
/// generator with the server and cannot show scaling; busy-time rates can,
/// and they also surface the real cost of sharding (splitting a window
/// across lanes shrinks per-shard batches, so per-shard efficiency drops —
/// the sweep shows how much).
fn shard_sweep(smoke: bool) -> Json {
    const CLIENTS: usize = 4;
    let (boot_jobs, pool, rounds) = if smoke {
        (300, 64usize, 8usize)
    } else {
        (2_000, 256, 320)
    };
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 7,
        ..Default::default()
    };
    let t_submit: i64 = 50_000_000;
    let t_query: i64 = t_submit + 600;

    // The pending pool, submitted (broadcast) before the clock starts.
    let mut submit_script = String::new();
    for k in 0..pool as u64 {
        submit_script.push_str(&format!(
            "{{\"event\":\"submit\",\"job\":{{\"id\":{},\"user\":{},\"partition\":0,\
             \"submit_time\":{t_submit},\"req_cpus\":{},\"req_mem_gb\":16,\"req_nodes\":1,\
             \"timelimit_min\":{}}}}}\n",
            20_000_000 + k,
            k % 37,
            1u64 << (k % 5),
            15 + (k % 8) * 30,
        ));
    }
    // Per-client scripts: disjoint slices of the pool, `rounds` passes each,
    // built up front so the timed section serves, not formats.
    let per_client = pool / CLIENTS;
    let scripts: Vec<String> = (0..CLIENTS)
        .map(|c| {
            let mut s = String::with_capacity(per_client * rounds * 48);
            for _ in 0..rounds {
                for k in 0..per_client as u64 {
                    let id = 20_000_000 + c as u64 * per_client as u64 + k;
                    s.push_str(&format!(
                        "{{\"event\":\"predict\",\"id\":{id},\"time\":{t_query}}}\n"
                    ));
                }
            }
            s
        })
        .collect();

    std::env::set_var("TROUT_THREADS", "1");
    let mut entries = Vec::new();
    let mut baseline = 0.0f64;
    for &n in &[1usize, 2, 4] {
        let set = Arc::new(ShardSet::bootstrap(n, boot_jobs, &cfg));
        run_session(&set, submit_script.as_bytes(), &mut Vec::new(), 64)
            .expect("sweep submit phase");
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for script in &scripts {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    run_session(&set, script.as_bytes(), &mut Vec::new(), 64)
                        .expect("sweep client session");
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let mut total = 0u64;
        let mut rate = 0.0f64;
        let per_shard: Vec<Json> = (0..n)
            .map(|i| {
                let g = set.lock(i);
                let predicts = g.metrics.predicts_total.get();
                let busy_us = g.metrics.batch_us.sum();
                let shard_rate = if busy_us > 0 {
                    predicts as f64 * 1e6 / busy_us as f64
                } else {
                    0.0
                };
                total += predicts;
                rate += shard_rate;
                Json::Obj(vec![
                    ("shard".into(), Json::Int(i as i128)),
                    ("predictions".into(), Json::Int(predicts as i128)),
                    ("busy_us".into(), Json::Int(busy_us as i128)),
                    ("preds_per_sec".into(), Json::Num(shard_rate)),
                    (
                        "predict_p99_us".into(),
                        Json::Int(g.metrics.predict_us.quantile(0.99) as i128),
                    ),
                ])
            })
            .collect();
        if n == 1 {
            baseline = rate;
        }
        let speedup = rate / baseline.max(1e-9);
        eprintln!(
            "bench serve/shard_sweep: shards={n} — {total} predictions in \
             {elapsed:.2}s wall, {rate:.0}/sec sustained ({speedup:.2}x vs 1 shard)"
        );
        entries.push(Json::Obj(vec![
            ("shards".into(), Json::Int(n as i128)),
            ("clients".into(), Json::Int(CLIENTS as i128)),
            ("predictions".into(), Json::Int(total as i128)),
            ("elapsed_s".into(), Json::Num(elapsed)),
            (
                "preds_per_sec_wall".into(),
                Json::Num(total as f64 / elapsed.max(1e-9)),
            ),
            ("preds_per_sec".into(), Json::Num(rate)),
            ("speedup_vs_1_shard".into(), Json::Num(speedup)),
            ("per_shard".into(), Json::Arr(per_shard)),
        ]));
    }
    std::env::remove_var("TROUT_THREADS");
    Json::Arr(entries)
}

/// Sweeps queue depth under the full engine predict path — journal check,
/// snapshot probe, row assembly, scaling, inference, drift bookkeeping. The
/// snapshot probe answers from the O(1) incremental aggregates, so the
/// per-predict cost must stay flat as the backlog grows from 64 to 4,096
/// pending jobs; the featurize and inference p50s split where it goes.
fn backlog_sweep(smoke: bool) -> Json {
    const BATCH: usize = 64;
    let (boot_jobs, rounds, backlogs): (usize, usize, &[usize]) = if smoke {
        (300, 2, &[64, 256])
    } else {
        (1_000, 8, &[64, 1_024, 4_096])
    };
    std::env::set_var("TROUT_THREADS", "1");
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 7,
        ..Default::default()
    };
    let mut entries = Vec::new();
    for &backlog in backlogs {
        let live = SimulationBuilder::anvil_like()
            .jobs(backlog)
            .seed(0x8ac6)
            .run();
        let t_now = 1 + live
            .records
            .iter()
            .map(|r| r.submit_time.max(r.eligible_time))
            .max()
            .expect("non-empty backlog trace");
        let nq = backlog.min(256);
        let mut engine = ServeEngine::bootstrap(boot_jobs, &cfg);
        for rec in &live.records {
            engine.apply_submit(rec.clone()).expect("backlog submit");
        }
        let queries: Vec<trout_serve::engine::PredictQuery> = live.records[..nq]
            .iter()
            .map(|r| trout_serve::engine::PredictQuery::new(r.id, t_now))
            .collect();
        // Warm pass: caches raw rows and sizes every scratch buffer, so the
        // timed passes measure the steady state.
        for chunk in queries.chunks(BATCH) {
            for r in engine.predict_batch(chunk) {
                r.expect("backlog predict");
            }
        }
        let t0 = Instant::now();
        for _ in 0..rounds {
            for chunk in queries.chunks(BATCH) {
                engine.predict_batch(chunk);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let preds = (rounds * nq) as u64;
        let rate = preds as f64 / elapsed.max(1e-9);
        eprintln!("bench serve/backlog_sweep: backlog={backlog} — {rate:.0} predictions/s");
        entries.push(Json::Obj(vec![
            ("backlog".into(), Json::Int(backlog as i128)),
            ("batch".into(), Json::Int(BATCH as i128)),
            ("predictions".into(), Json::Int(preds as i128)),
            ("elapsed_s".into(), Json::Num(elapsed)),
            ("preds_per_sec".into(), Json::Num(rate)),
            (
                "featurize_p50_us".into(),
                Json::Int(engine.metrics.featurize_us.quantile(0.50) as i128),
            ),
            (
                "inference_p50_us".into(),
                Json::Int(engine.metrics.inference_us.quantile(0.50) as i128),
            ),
        ]));
    }
    std::env::remove_var("TROUT_THREADS");
    Json::Arr(entries)
}

/// Sweeps paced offered load through the scheduled v2 predict path
/// (DESIGN §12) at 1 and 2 shards: an open-loop driver emits v2 predicts —
/// 10% urgent, 10% batch, the rest normal — at a fixed target rate, and
/// flushes each window the way `run_session` does: when its reader drains,
/// i.e. once no later request has arrived yet. Requests that arrive while
/// a flush runs coalesce into the next window (up to the batch cap).
///
/// Latency is charged from each request's **scheduled** arrival instant,
/// not the moment the driver managed to send it — the standard
/// coordinated-omission correction — so when offered load exceeds service
/// capacity the backlog shows up as unbounded p99, not as a silently
/// slowed-down driver. Goodput counts only admitted predictions answered
/// within their lane budget; the per-shard-count headline is the highest
/// offered rate whose urgent p99 still met the urgent lane's SLO, and the
/// goodput it delivered there.
fn offered_load_sweep(smoke: bool) -> Json {
    let (boot_jobs, pool, n_requests, rates): (usize, usize, usize, &[u64]) = if smoke {
        (300, 64, 300, &[2_000, 8_000])
    } else {
        (
            2_000,
            256,
            4_000,
            &[1_000, 2_000, 5_000, 10_000, 20_000, 40_000],
        )
    };
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 7,
        ..Default::default()
    };
    let t_submit: i64 = 50_000_000;
    let t_query: i64 = t_submit + 600;
    let mut submit_script = String::new();
    for k in 0..pool as u64 {
        submit_script.push_str(&format!(
            "{{\"event\":\"submit\",\"job\":{{\"id\":{},\"user\":{},\"partition\":0,\
             \"submit_time\":{t_submit},\"req_cpus\":{},\"req_mem_gb\":16,\"req_nodes\":1,\
             \"timelimit_min\":{}}}}}\n",
            30_000_000 + k,
            k % 37,
            1u64 << (k % 5),
            15 + (k % 8) * 30,
        ));
    }

    std::env::set_var("TROUT_THREADS", "1");
    let mut per_shard_count = Vec::new();
    for &n_shards in &[1usize, 2] {
        let mut entries = Vec::new();
        let mut best_rate = 0u64;
        let mut best_goodput = 0.0f64;
        for &rate in rates {
            let set = ShardSet::bootstrap(n_shards, boot_jobs, &cfg);
            run_session(&set, submit_script.as_bytes(), &mut Vec::new(), 64)
                .expect("offered-load submit phase");
            let budgets_us: Vec<u64> = set
                .scheduler()
                .default_deadline_ms
                .iter()
                .map(|&ms| ms * 1_000)
                .collect();
            let mut session = RouterSession::new(set.len(), 32);
            let mut out = Vec::new();
            // (scheduled arrival µs, lane rank) per admitted in-flight
            // predict; a flush completes everything in flight at once.
            let mut inflight: Vec<(u64, usize)> = Vec::new();
            let mut lat: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            let t0 = Instant::now();
            for k in 0..n_requests {
                let sched_us = k as u64 * 1_000_000 / rate;
                while (t0.elapsed().as_micros() as u64) < sched_us {
                    std::hint::spin_loop();
                }
                let rank = match k % 10 {
                    0 => 0, // urgent
                    9 => 2, // batch
                    _ => 1, // normal
                };
                let lane = ["urgent", "normal", "batch"][rank];
                let id = 30_000_000 + (k % pool) as u64;
                let line = format!(
                    "{{\"v\":2,\"event\":\"predict\",\"id\":{id},\"time\":{t_query},\
                     \"lane\":\"{lane}\"}}"
                );
                let q0 = session.queued();
                session.handle_line(&set, &line, &mut out).expect("predict");
                // Admitted if it joined the queue, or if it was admitted and
                // immediately drained by the batch-cap flush inside
                // `handle_line` (a shed never empties the window).
                if session.queued() != q0 || session.pending() == 0 {
                    inflight.push((sched_us, rank));
                }
                let next_us = (k as u64 + 1) * 1_000_000 / rate;
                if (t0.elapsed().as_micros() as u64) < next_us {
                    session.flush(&set, &mut out).expect("flush");
                }
                if session.pending() == 0 {
                    // A flush drains the whole window: everything in flight
                    // completed now.
                    let now_us = t0.elapsed().as_micros() as u64;
                    for (s, r) in inflight.drain(..) {
                        lat[r].push(now_us.saturating_sub(s));
                    }
                }
            }
            session.flush(&set, &mut out).expect("final flush");
            let now_us = t0.elapsed().as_micros() as u64;
            for (s, r) in inflight.drain(..) {
                lat[r].push(now_us.saturating_sub(s));
            }
            let elapsed_s = t0.elapsed().as_secs_f64();

            let quant = |v: &mut Vec<u64>, q: f64| -> u64 {
                if v.is_empty() {
                    return 0;
                }
                v.sort_unstable();
                v[((v.len() - 1) as f64 * q) as usize]
            };
            let mut lanes_json = Vec::new();
            let mut good = 0u64;
            let mut urgent_p99 = 0u64;
            for (r, name) in ["urgent", "normal", "batch"].iter().enumerate() {
                let within = lat[r].iter().filter(|&&l| l <= budgets_us[r]).count() as u64;
                good += within;
                let p50 = quant(&mut lat[r], 0.50);
                let p99 = quant(&mut lat[r], 0.99);
                if r == 0 {
                    urgent_p99 = p99;
                }
                lanes_json.push((
                    (*name).to_string(),
                    Json::Obj(vec![
                        ("answered".into(), Json::Int(lat[r].len() as i128)),
                        ("within_slo".into(), Json::Int(within as i128)),
                        ("p50_us".into(), Json::Int(p50 as i128)),
                        ("p99_us".into(), Json::Int(p99 as i128)),
                    ]),
                ));
            }
            let shed_total = set
                .metrics_json()
                .get("admission")
                .and_then(|a| a.get("shed_total"))
                .and_then(|s| match s {
                    Json::Int(v) => Some(*v as u64),
                    _ => None,
                })
                .unwrap_or(0);
            let goodput = good as f64 / elapsed_s.max(1e-9);
            let slo_met = urgent_p99 <= budgets_us[0];
            if slo_met && goodput > best_goodput {
                best_goodput = goodput;
                best_rate = rate;
            }
            eprintln!(
                "bench serve/offered_load: shards={n_shards} rate={rate}/s — urgent p99 \
                 {urgent_p99} us ({}), goodput {goodput:.0}/s, {shed_total} shed",
                if slo_met { "SLO met" } else { "SLO MISSED" },
            );
            entries.push(Json::Obj(vec![
                ("offered_per_sec".into(), Json::Int(rate as i128)),
                ("requests".into(), Json::Int(n_requests as i128)),
                ("elapsed_s".into(), Json::Num(elapsed_s)),
                ("lanes".into(), Json::Obj(lanes_json)),
                ("shed_total".into(), Json::Int(shed_total as i128)),
                ("goodput_per_sec".into(), Json::Num(goodput)),
                ("urgent_slo_met".into(), Json::Bool(slo_met)),
            ]));
        }
        per_shard_count.push(Json::Obj(vec![
            ("shards".into(), Json::Int(n_shards as i128)),
            (
                "max_offered_under_slo_per_sec".into(),
                Json::Int(best_rate as i128),
            ),
            (
                "max_goodput_under_slo_per_sec".into(),
                Json::Num(best_goodput),
            ),
            ("points".into(), Json::Arr(entries)),
        ]));
    }
    std::env::remove_var("TROUT_THREADS");
    Json::Arr(per_shard_count)
}
