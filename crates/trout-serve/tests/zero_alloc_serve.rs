//! Proves the serve predict path is allocation-free at steady state.
//!
//! "Steady state" is the daemon's dominant regime: pending jobs whose raw
//! feature rows are already cached being re-predicted as the queue evolves.
//! On that path everything is pre-sized — the incremental snapshot answers
//! O(1) from its live aggregates, the feature row assembles and scales in
//! place, the batch matrix and model scratch reshape within capacity, and
//! the result slots overwrite in place — so a whole `predict_batch_into`
//! flush must touch the global allocator **exactly zero** times. Pushing
//! the window's response bytes out through the session's egress barrier
//! (the reused buffer plus the commit) is inside the guarantee too. The
//! forward pass itself is held to the same bound at the paper architecture
//! and the router's default batch cap, under one and two threads.
//!
//! Paths deliberately outside the guarantee: the first predict of a job
//! (clones its raw row into the refit cache), journaling (serializes event
//! lines; needs a state dir), error slots (format their message), and
//! refits.

use std::io::Write;

use trout_core::{
    featurize, BatchPredictionRequest, PredictionRequest, Predictor, QueueEstimate,
    QueuePrediction, TroutConfig, TroutTrainer,
};
use trout_linalg::Matrix;
use trout_obs::trace::{Stage, TraceRecord, N_STAGES};
use trout_serve::engine::PredictQuery;
use trout_serve::protocol::prediction_response;
use trout_serve::server::egress;
use trout_serve::{ServeConfig, ServeEngine, ShardSet};
use trout_slurmsim::SimulationBuilder;
use trout_std::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations in one fully-warmed predict flush over `BATCH` pending jobs.
fn steady_state_allocations() -> u64 {
    const BATCH: usize = 8;
    let cfg = ServeConfig {
        refit_every: 0,
        seed: 7,
        ..Default::default()
    };
    let shards = ShardSet::single(ServeEngine::bootstrap(300, &cfg));
    let mut engine = shards.lock(0);
    let live = SimulationBuilder::anvil_like().jobs(64).seed(8).run();
    // Submit a backlog and keep it pending; probe at the latest submit
    // instant so every query rides the snapshot fast path.
    let probe_t = live.records[BATCH - 1].submit_time;
    let mut queries = Vec::with_capacity(BATCH);
    for rec in live.records.iter().take(BATCH) {
        let id = rec.id;
        engine.apply_submit(rec.clone()).unwrap();
        queries.push(PredictQuery::new(id, probe_t));
    }

    let mut results = Vec::new();
    // Warm-up: the first flush caches raw rows and sizes every buffer; the
    // second confirms the shapes.
    engine.predict_batch_into(&queries, &mut results);
    engine.predict_batch_into(&queries, &mut results);
    assert!(results.iter().all(|r| r.is_ok()), "warm-up must succeed");

    // The tracing pipeline rides the same hot path: a flush with tracing on
    // additionally builds one TraceRecord per traced predict, records it
    // into the sink's ring + stage histograms, and ticks the burn window.
    // All of that must be allocation-free too, so it joins the counted
    // region.
    let sink = engine.metrics.trace.clone();
    let burn = engine.metrics.burn.clone();
    let record = TraceRecord {
        trace_id: 0xfeed_beef,
        lane: 1,
        end_us: 1_000,
        total_us: 420,
        stages: [60; N_STAGES],
    };
    sink.record(&record); // warm nothing — record never allocates, proven below

    // The window's response bytes (rendering allocates, so it happens
    // here) and a client with room for both pushes below; the egress
    // buffer itself is allocated once, when the session starts.
    let window: String = queries
        .iter()
        .zip(&results)
        .map(|(q, r)| prediction_response(q.id, r.as_ref().unwrap(), false, None) + "\n")
        .collect();
    let mut client: Vec<u8> = Vec::with_capacity(2 * window.len());
    let mut out = egress(&shards, &mut client);
    out.write_all(window.as_bytes()).unwrap();
    out.flush().unwrap();

    let (_, during) = CountingAllocator::count(|| {
        engine.predict_batch_into(&queries, &mut results);
        for (k, _) in queries.iter().enumerate() {
            let mut r = record;
            r.trace_id = k as u64;
            sink.record(&r);
            burn.record(1, k % 2 == 0, 1_000 + k as u64);
        }
        out.write_all(window.as_bytes()).unwrap();
        out.flush().unwrap();
    });
    drop(out);
    assert_eq!(
        client.len(),
        2 * window.len(),
        "both windows reached the client"
    );
    assert_eq!(results.len(), BATCH);
    assert!(results.iter().all(|r| r.is_ok()));
    assert!(sink.recorded() >= BATCH as u64);
    assert!(sink.stage_histogram(Stage::Parse).count() >= BATCH as u64);
    during
}

#[test]
fn steady_state_predict_is_allocation_free() {
    // The counter is process-wide: every test in this binary holds the
    // guard, so none allocates beside another's counted region.
    let _serial = alloc_count::exclusive();
    // One thread keeps the (already sub-threshold) kernels serial, so the
    // thread-count env read never happens inside the counted region.
    std::env::set_var("TROUT_THREADS", "1");
    let n = steady_state_allocations();
    std::env::remove_var("TROUT_THREADS");
    assert_eq!(n, 0, "steady-state predict flush allocated {n} times");
}

/// Every numeric field of a prediction, as bits.
fn bits(p: &QueuePrediction) -> (bool, u32, u32, Option<u32>) {
    (
        matches!(p.estimate, QueueEstimate::QuickStart),
        p.quick_proba.to_bits(),
        p.calibrated_proba.to_bits(),
        p.minutes.map(f32::to_bits),
    )
}

/// The paper architecture (`TroutConfig::default()`, untrained: the shapes
/// are what matter) at the router's default batch cap of 32, with the
/// regressor forced onto every row. Its first classifier layer is past the
/// matmul's work threshold, so only the row floor keeps this flush serial:
/// it must not allocate under one thread or two. Every batched answer, at
/// batch sizes on both sides of that floor, must equal the one-row
/// `Predictor::predict` answer bit for bit.
#[test]
fn paper_architecture_flush_is_allocation_free_and_matches_row_by_row() {
    const BATCH: usize = 32;
    let _serial = alloc_count::exclusive();
    let trace = SimulationBuilder::anvil_like().jobs(900).seed(11).run();
    let (ds, _) = featurize(&trace, 0.6, 11);
    let cfg = TroutConfig {
        classifier_epochs: 0,
        regressor_epochs: 0,
        ..TroutConfig::default()
    };
    let model = TroutTrainer::new(cfg).fit(&ds);
    let rows = |lo: usize, n: usize| -> Matrix {
        let idx: Vec<usize> = (lo..lo + n).collect();
        ds.x.select_rows(&idx)
    };
    let x = rows(0, BATCH);
    let req = BatchPredictionRequest::with_minutes(&x);
    for threads in ["1", "2"] {
        std::env::set_var("TROUT_THREADS", threads);
        let mut scratch = model.scratch(BATCH);
        let mut out = Vec::new();
        model.predict_batch_into(req, &mut scratch, &mut out);
        let (_, n) =
            CountingAllocator::count(|| model.predict_batch_into(req, &mut scratch, &mut out));
        assert_eq!(
            n, 0,
            "TROUT_THREADS={threads}: a {BATCH}-row paper-architecture flush allocated {n} times"
        );
        assert!(
            out.iter().all(|p| p.minutes.is_some()),
            "regressor ran on every row"
        );

        let mut lo = 0;
        for size in [1, 2, 7, 31, 32, 33, 64, 127, 128, 129, 200] {
            let xb = rows(lo, size);
            model.predict_batch_into(
                BatchPredictionRequest::with_minutes(&xb),
                &mut scratch,
                &mut out,
            );
            for (r, got) in out.iter().enumerate() {
                let want = model.predict(PredictionRequest::with_minutes(xb.row(r)));
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "TROUT_THREADS={threads}: batch of {size}, row {r} differs from row-by-row"
                );
            }
            lo += size;
        }
    }
    std::env::remove_var("TROUT_THREADS");
}
