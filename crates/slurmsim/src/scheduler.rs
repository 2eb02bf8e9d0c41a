//! The discrete-event scheduling loop.
//!
//! Events are job *eligibility* and job *end*; every event batch triggers a
//! scheduling pass. A pass orders the pending queue exactly the way the paper
//! quotes from the SLURM documentation — partition `PriorityTier` first, then
//! job priority, then submit time, then job id — and applies EASY backfill
//! per node pool: the highest-priority blocked job gets a reservation at its
//! shadow time and lower-priority jobs may start out of order only if they
//! fit immediately and their *walltime limit* guarantees completion before
//! that shadow time. The scheduler never peeks at a job's true runtime; like
//! the real system it learns a job ended early only when the end event fires,
//! which is what makes queue times noisy and worth predicting.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use trout_workload::{ClusterSpec, JobRequest, Qos, UserPopulation};

use crate::fairshare::FairShareTracker;
use crate::nodes::{Demand, Node, NodePool};
use crate::priority::{PriorityEngine, PriorityWeights};
use crate::record::{JobRecord, JobState, Trace};

/// Scheduler tunables.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Multifactor priority weights.
    pub weights: PriorityWeights,
    /// Fair-share usage half-life in seconds (SLURM `PriorityDecayHalfLife`).
    pub fairshare_half_life_secs: f64,
    /// Maximum lower-priority jobs tested for backfill per pool per pass
    /// (SLURM `bf_max_job_test`).
    pub backfill_depth: usize,
    /// Allow Normal/High-QOS jobs to preempt running Standby jobs (SLURM
    /// `PreemptType=preempt/qos` with a requeue policy). The paper quotes
    /// the scheduler evaluation order beginning with "Jobs that can
    /// preempt"; this is that mechanism.
    pub enable_preemption: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            weights: PriorityWeights::default(),
            fairshare_half_life_secs: 7.0 * 86_400.0,
            backfill_depth: 100,
            enable_preemption: true,
        }
    }
}

#[derive(Debug)]
struct PendingJob {
    job: JobRequest,
    demand: Demand,
    tier: u32,
    pool: usize,
    priority_at_eligible: f64,
    priority_now: f64,
}

#[derive(Debug)]
struct RunningJob {
    request: JobRequest,
    demand: Demand,
    nodes: Vec<u32>,
    pool: usize,
    tier: u32,
    priority_at_eligible: f64,
    start_time: i64,
    end_by_limit: i64,
    incarnation: u32,
    user: u32,
    cpus: u32,
}

/// Every running job, one slot per job id, beside an index of each pool's
/// running ids. Backfill reservations and preemption walk one pool's jobs
/// per blocked head, so the walk costs O(that pool's running jobs). It
/// visits them in ascending id order: the stable sorts downstream break
/// ties by that order, and the trace depends on it.
#[derive(Debug)]
struct RunningSet {
    slots: Vec<Option<RunningJob>>,
    by_pool: Vec<BTreeSet<u64>>,
}

impl RunningSet {
    fn new(jobs: usize, pools: usize) -> Self {
        RunningSet {
            slots: (0..jobs).map(|_| None).collect(),
            by_pool: vec![BTreeSet::new(); pools],
        }
    }

    fn get(&self, id: u64) -> Option<&RunningJob> {
        self.slots[id as usize].as_ref()
    }

    fn insert(&mut self, id: u64, rj: RunningJob) {
        self.by_pool[rj.pool].insert(id);
        self.slots[id as usize] = Some(rj);
    }

    fn take(&mut self, id: u64) -> Option<RunningJob> {
        let rj = self.slots[id as usize].take()?;
        self.by_pool[rj.pool].remove(&id);
        Some(rj)
    }

    /// `pool`'s running jobs in ascending job-id order.
    fn in_pool(&self, pool: usize) -> impl Iterator<Item = &RunningJob> {
        self.by_pool[pool]
            .iter()
            .map(|&id| self.slots[id as usize].as_ref().expect("indexed job runs"))
    }
}

/// End events carry the job's incarnation in the id's high bits so an end
/// scheduled before a preemption is recognized as stale afterwards.
const INCARNATION_SHIFT: u32 = 40;

fn pack_end_id(id: u64, incarnation: u32) -> u64 {
    debug_assert!(id < (1 << INCARNATION_SHIFT));
    id | ((incarnation as u64) << INCARNATION_SHIFT)
}

fn unpack_end_id(packed: u64) -> (u64, u32) {
    (
        packed & ((1 << INCARNATION_SHIFT) - 1),
        (packed >> INCARNATION_SHIFT) as u32,
    )
}

/// Simulates scheduling `jobs` (sorted by submit time) on `cluster`.
///
/// Returns one [`JobRecord`] per input job, in job-id order.
///
/// # Panics
///
/// Panics if a job demands more than its partition can ever supply (the
/// workload generator never produces such jobs).
pub fn simulate(
    cluster: &ClusterSpec,
    population: &UserPopulation,
    jobs: Vec<JobRequest>,
    config: &SchedulerConfig,
) -> Trace {
    let n = jobs.len();
    let engine = PriorityEngine::new(cluster, config.weights.clone());
    let shares: Vec<f64> = population.iter().map(|(_, u)| u.share).collect();
    let mut fairshare = FairShareTracker::new(
        if shares.is_empty() { vec![1.0] } else { shares },
        config.fairshare_half_life_secs,
    );

    // Build pools: elementwise-max node shape over the partitions sharing it.
    let pool_ids = cluster.pools();
    let pool_index = |id: usize| pool_ids.iter().position(|&(p, _)| p == id).expect("pool");
    let mut pools: Vec<NodePool> = pool_ids
        .iter()
        .map(|&(id, count)| {
            let (mut c, mut m, mut g) = (0, 0, 0);
            for p in cluster.partitions.iter().filter(|p| p.node_pool == id) {
                c = p.cpus_per_node.max(c);
                m = p.mem_per_node_gb.max(m);
                g = p.gpus_per_node.max(g);
            }
            NodePool::new(count, c, m, g)
        })
        .collect();
    let partition_pool: Vec<usize> = cluster
        .partitions
        .iter()
        .map(|p| pool_index(p.node_pool))
        .collect();

    // Event kinds: ends (0) drain before eligibilities (1) at equal times so
    // freed resources are visible to the pass that considers the new job;
    // cancellations (2) apply last so a job starting at its cancel instant
    // keeps the start.
    const EV_END: u8 = 0;
    const EV_ELIGIBLE: u8 = 1;
    const EV_CANCEL: u8 = 2;
    let mut events: BinaryHeap<Reverse<(i64, u8, u64)>> = BinaryHeap::with_capacity(2 * n + 8);
    for job in &jobs {
        // Hidden delays (association limits, license waits) postpone when the
        // scheduler first *considers* a job; the recorded eligible_time — and
        // therefore the queue-time target and all features — still uses the
        // accounting-visible instant, exactly as a real sacct trace would.
        let considered_at = job.eligible_time + job.hidden_delay_min as i64 * 60;
        events.push(Reverse((considered_at, EV_ELIGIBLE, job.id)));
        if job.cancel_after_min > 0 {
            let cancel_at = considered_at + job.cancel_after_min as i64 * 60;
            events.push(Reverse((cancel_at, EV_CANCEL, job.id)));
        }
    }

    let mut job_by_id: Vec<Option<JobRequest>> = vec![None; n];
    for job in jobs {
        let idx = job.id as usize;
        assert!(
            idx < n && job_by_id[idx].is_none(),
            "job ids must be dense and unique"
        );
        job_by_id[idx] = Some(job);
    }

    let mut pending: Vec<PendingJob> = Vec::new();
    let mut running = RunningSet::new(n, pools.len());
    let mut records: Vec<Option<JobRecord>> = vec![None; n];
    let mut incarnations: Vec<u32> = vec![0; n];

    while let Some(&Reverse((t, _, _))) = events.peek() {
        // Drain every event at instant t before scheduling.
        while let Some(&Reverse((et, kind, id))) = events.peek() {
            if et != t {
                break;
            }
            events.pop();
            match kind {
                EV_END => {
                    let (jid, incarnation) = unpack_end_id(id);
                    // A preempted job's original end event is stale: the job
                    // was requeued (or restarted) under a newer incarnation.
                    let is_current = running
                        .get(jid)
                        .is_some_and(|rj| rj.incarnation == incarnation);
                    if !is_current {
                        continue;
                    }
                    let rj = running.take(jid).expect("current incarnation");
                    pools[rj.pool].free(&rj.nodes, &rj.demand);
                    let cpu_secs = rj.cpus as f64 * (t - rj.start_time) as f64;
                    fairshare.add_usage(rj.user, cpu_secs, t);
                }
                EV_CANCEL => {
                    // Only pending jobs can be cancelled; running or finished
                    // jobs ignore the event (as does a job whose eligibility
                    // the hidden delay pushed past this instant — cancel_at
                    // is always after considered_at, so it is in pending or
                    // already started).
                    if let Some(pos) = pending.iter().position(|p| p.job.id == id) {
                        let p = pending.swap_remove(pos);
                        records[id as usize] = Some(JobRecord::from_request(
                            &p.job,
                            t,
                            t,
                            p.priority_at_eligible,
                            JobState::Cancelled,
                        ));
                    }
                }
                _ => {
                    let job = job_by_id[id as usize].take().expect("eligible unknown job");
                    let part = &cluster.partitions[job.partition as usize];
                    let demand = Demand::from_job(&job, part);
                    assert!(
                        NodePool::fits_in(
                            &vec![
                                pools[partition_pool[job.partition as usize]].capacity;
                                part.total_nodes as usize
                            ],
                            &pools[partition_pool[job.partition as usize]].capacity,
                            &demand
                        ),
                        "job {} can never fit in partition {}",
                        job.id,
                        part.name
                    );
                    let priority_at_eligible = engine.compute(&job, t, &mut fairshare);
                    pending.push(PendingJob {
                        tier: part.priority_tier,
                        pool: partition_pool[job.partition as usize],
                        demand,
                        priority_at_eligible,
                        priority_now: priority_at_eligible,
                        job,
                    });
                }
            }
        }

        schedule_pass(
            t,
            &mut pending,
            &mut pools,
            &mut running,
            &mut records,
            &mut events,
            &engine,
            &mut fairshare,
            config,
            &mut incarnations,
            cluster,
        );
    }

    assert!(pending.is_empty(), "{} jobs never started", pending.len());
    let records: Vec<JobRecord> = records
        .into_iter()
        .map(|r| r.expect("every job recorded"))
        .collect();
    Trace {
        cluster: cluster.clone(),
        records,
    }
}

#[derive(Debug, Clone, Copy)]
enum PoolGate {
    Open,
    /// Head job blocked: reservation at `shadow`; `tested` backfill probes so far.
    Blocked {
        shadow: i64,
        tested: usize,
    },
}

#[allow(clippy::too_many_arguments)]
fn schedule_pass(
    t: i64,
    pending: &mut Vec<PendingJob>,
    pools: &mut [NodePool],
    running: &mut RunningSet,
    records: &mut [Option<JobRecord>],
    events: &mut BinaryHeap<Reverse<(i64, u8, u64)>>,
    engine: &PriorityEngine,
    fairshare: &mut FairShareTracker,
    config: &SchedulerConfig,
    incarnations: &mut [u32],
    cluster: &ClusterSpec,
) {
    if pending.is_empty() {
        return;
    }
    let _span = trout_obs::span!("sim.schedule_pass");
    for p in pending.iter_mut() {
        p.priority_now = engine.compute(&p.job, t, fairshare);
    }
    // SLURM evaluation order: PriorityTier desc, priority desc, submit, id.
    pending.sort_by(|a, b| {
        b.tier
            .cmp(&a.tier)
            .then(b.priority_now.total_cmp(&a.priority_now))
            .then(a.job.submit_time.cmp(&b.job.submit_time))
            .then(a.job.id.cmp(&b.job.id))
    });

    // Preemption pre-pass ("jobs that can preempt" come first in the SLURM
    // evaluation order): the highest-priority pending job of each pool may
    // evict running Standby jobs if that makes room right now.
    let mut requeued: Vec<PendingJob> = Vec::new();
    let mut started: Vec<usize> = Vec::new();
    if config.enable_preemption {
        let mut pool_head_seen = vec![false; pools.len()];
        for (idx, p) in pending.iter().enumerate() {
            if pool_head_seen[p.pool] {
                continue;
            }
            pool_head_seen[p.pool] = true;
            if p.job.qos == Qos::Standby || pools[p.pool].fits(&p.demand) {
                continue; // no right to preempt / no need to
            }
            let Some(victims) =
                select_preemption_victims(&pools[p.pool], &p.demand, running, p.pool)
            else {
                continue;
            };
            for vid in victims {
                let rj = running.take(vid).expect("victim running");
                trout_obs::counter!("sim.preemptions_total").inc();
                pools[rj.pool].free(&rj.nodes, &rj.demand);
                // Charge the partial run to fair-share, as SLURM accounting does.
                fairshare.add_usage(rj.user, rj.cpus as f64 * (t - rj.start_time) as f64, t);
                let part = &cluster.partitions[rj.request.partition as usize];
                let demand = Demand::from_job(&rj.request, part);
                requeued.push(PendingJob {
                    tier: rj.tier,
                    pool: rj.pool,
                    demand,
                    priority_at_eligible: rj.priority_at_eligible,
                    priority_now: rj.priority_at_eligible,
                    job: rj.request,
                });
            }
            let nodes = pools[p.pool]
                .try_alloc(&p.demand)
                .expect("preemption made room");
            start_job(t, p, nodes, running, records, events, incarnations);
            started.push(idx);
        }
    }

    let mut gates: Vec<PoolGate> = vec![PoolGate::Open; pools.len()];
    for (idx, p) in pending.iter().enumerate() {
        if started.contains(&idx) {
            continue;
        }
        let pool = &mut pools[p.pool];
        match gates[p.pool] {
            PoolGate::Open => {
                if let Some(nodes) = pool.try_alloc(&p.demand) {
                    start_job(t, p, nodes, running, records, events, incarnations);
                    started.push(idx);
                } else {
                    let shadow = shadow_time(t, pool, &p.demand, running, p.pool);
                    gates[p.pool] = PoolGate::Blocked { shadow, tested: 0 };
                }
            }
            PoolGate::Blocked { shadow, tested } => {
                if tested >= config.backfill_depth {
                    continue;
                }
                gates[p.pool] = PoolGate::Blocked {
                    shadow,
                    tested: tested + 1,
                };
                let finishes_by = t + p.job.timelimit_min as i64 * 60;
                if finishes_by <= shadow && pool.fits(&p.demand) {
                    let nodes = pool.try_alloc(&p.demand).expect("fits implies alloc");
                    start_job(t, p, nodes, running, records, events, incarnations);
                    started.push(idx);
                    trout_obs::counter!("sim.backfill_starts_total").inc();
                }
            }
        }
    }

    // Remove started jobs from the queue (descending order keeps indices
    // valid), then enqueue preemption victims for the next pass.
    started.sort_unstable();
    for &idx in started.iter().rev() {
        pending.swap_remove(idx);
    }
    pending.append(&mut requeued);
}

/// Chooses the youngest-first set of running Standby jobs in `pool_idx`
/// whose eviction lets `demand` fit immediately; `None` if even evicting
/// every Standby job would not help.
fn select_preemption_victims(
    pool: &NodePool,
    demand: &Demand,
    running: &RunningSet,
    pool_idx: usize,
) -> Option<Vec<u64>> {
    let mut candidates: Vec<&RunningJob> = running
        .in_pool(pool_idx)
        .filter(|rj| rj.request.qos == Qos::Standby)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    // Youngest first: least sunk work lost.
    candidates.sort_by_key(|rj| std::cmp::Reverse(rj.start_time));
    let mut states = pool.nodes().to_vec();
    let mut victims = Vec::new();
    for rj in candidates {
        for &nidx in &rj.nodes {
            let node = &mut states[nidx as usize];
            if rj.demand.whole_node {
                *node = pool.capacity;
            } else {
                node.free_cpus = (node.free_cpus + rj.demand.cpus_pn).min(pool.capacity.free_cpus);
                node.free_mem_gb =
                    (node.free_mem_gb + rj.demand.mem_pn).min(pool.capacity.free_mem_gb);
                node.free_gpus = (node.free_gpus + rj.demand.gpus_pn).min(pool.capacity.free_gpus);
            }
        }
        victims.push(rj.request.id);
        if NodePool::fits_in(&states, &pool.capacity, demand) {
            return Some(victims);
        }
    }
    None
}

fn start_job(
    t: i64,
    p: &PendingJob,
    nodes: Vec<u32>,
    running: &mut RunningSet,
    records: &mut [Option<JobRecord>],
    events: &mut BinaryHeap<Reverse<(i64, u8, u64)>>,
    incarnations: &mut [u32],
) {
    let job = &p.job;
    let end = t + job.true_runtime_min as i64 * 60;
    let state = if job.true_runtime_min >= job.timelimit_min {
        JobState::Timeout
    } else {
        JobState::Completed
    };
    // A restart after preemption overwrites the earlier record — like sacct,
    // the trace reports the run that actually completed.
    records[job.id as usize] = Some(JobRecord::from_request(
        job,
        t,
        end,
        p.priority_at_eligible,
        state,
    ));
    let idx = job.id as usize;
    incarnations[idx] += 1;
    running.insert(
        job.id,
        RunningJob {
            request: job.clone(),
            demand: p.demand,
            nodes,
            pool: p.pool,
            tier: p.tier,
            priority_at_eligible: p.priority_at_eligible,
            start_time: t,
            end_by_limit: t + job.timelimit_min as i64 * 60,
            incarnation: incarnations[idx],
            user: job.user,
            cpus: job.req_cpus,
        },
    );
    events.push(Reverse((end, 0, pack_end_id(job.id, incarnations[idx]))));
}

/// Earliest instant the blocked demand is guaranteed to fit, assuming every
/// running job holds its resources until its walltime limit. This is the EASY
/// reservation ("shadow") time.
fn shadow_time(
    t: i64,
    pool: &NodePool,
    demand: &Demand,
    running: &RunningSet,
    pool_idx: usize,
) -> i64 {
    let mut states: Vec<Node> = pool.nodes().to_vec();
    let mut releases: Vec<(&RunningJob, i64)> = running
        .in_pool(pool_idx)
        .map(|r| (r, r.end_by_limit.max(t)))
        .collect();
    releases.sort_by_key(|&(_, e)| e);
    for (rj, end) in releases {
        for &nidx in &rj.nodes {
            let node = &mut states[nidx as usize];
            if rj.demand.whole_node {
                *node = pool.capacity;
            } else {
                node.free_cpus = (node.free_cpus + rj.demand.cpus_pn).min(pool.capacity.free_cpus);
                node.free_mem_gb =
                    (node.free_mem_gb + rj.demand.mem_pn).min(pool.capacity.free_mem_gb);
                node.free_gpus = (node.free_gpus + rj.demand.gpus_pn).min(pool.capacity.free_gpus);
            }
        }
        if NodePool::fits_in(&states, &pool.capacity, demand) {
            return end;
        }
    }
    i64::MAX
}

#[cfg(test)]
mod tests {
    use super::*;
    use trout_linalg::SplitMix64;
    use trout_workload::{PartitionSpec, Qos, WorkloadConfig, WorkloadGenerator};

    /// A 1-pool, 2-node toy cluster for hand-crafted scenarios.
    fn toy_cluster() -> ClusterSpec {
        ClusterSpec {
            name: "toy".into(),
            partitions: vec![PartitionSpec {
                name: "only".into(),
                node_pool: 0,
                total_nodes: 2,
                cpus_per_node: 4,
                mem_per_node_gb: 16,
                gpus_per_node: 0,
                priority_tier: 1,
                max_timelimit_min: 1_000,
                whole_node: false,
            }],
        }
    }

    fn toy_pop(n: usize) -> UserPopulation {
        let mut rng = SplitMix64::new(1);
        UserPopulation::generate(n.max(1), &[1.0], &mut rng)
    }

    fn job(id: u64, t: i64, cpus: u32, limit_min: u32, run_min: u32) -> JobRequest {
        JobRequest {
            id,
            user: 0,
            partition: 0,
            submit_time: t,
            eligible_time: t,
            req_cpus: cpus,
            req_mem_gb: 1,
            req_nodes: 1,
            req_gpus: 0,
            timelimit_min: limit_min,
            true_runtime_min: run_min,
            hidden_delay_min: 0,
            cancel_after_min: 0,
            qos: Qos::Normal,
            campaign: 0,
        }
    }

    fn run(jobs: Vec<JobRequest>) -> Trace {
        simulate(
            &toy_cluster(),
            &toy_pop(4),
            jobs,
            &SchedulerConfig::default(),
        )
    }

    #[test]
    fn uncontended_jobs_start_immediately() {
        let trace = run(vec![job(0, 0, 4, 60, 10), job(1, 5, 4, 60, 10)]);
        assert_eq!(trace.records[0].start_time, 0);
        assert_eq!(trace.records[1].start_time, 5);
    }

    #[test]
    fn contended_job_waits_for_actual_end_not_limit() {
        // Job 0 occupies everything, limit 100 min but really ends at 10 min.
        let trace = run(vec![job(0, 0, 8, 100, 10), job(1, 1, 8, 60, 5)]);
        assert_eq!(trace.records[0].start_time, 0);
        // Job 1 starts when job 0 *actually* ends (600 s), not at the limit.
        assert_eq!(trace.records[1].start_time, 600);
        assert!((trace.records[1].queue_time_min() - (600.0 - 1.0) / 60.0).abs() < 1e-9);
    }

    #[test]
    fn backfill_lets_short_jobs_jump_without_delaying_head() {
        // t=0: job 0 takes 1 whole node (4 cpus) for up to 100 min.
        // t=1: job 1 wants 8 cpus (both nodes) -> blocked, shadow = 6000 s.
        // t=2: job 2 wants 4 cpus for <= 99 min -> fits on free node and its
        //       limit ends before the shadow: backfills immediately.
        // t=3: job 3 wants 4 cpus for 200 min -> would overrun shadow: waits.
        let trace = run(vec![
            job(0, 0, 4, 100, 100),
            job(1, 1, 8, 10, 5),
            job(2, 2, 4, 99, 20),
            job(3, 3, 4, 200, 10),
        ]);
        assert_eq!(trace.records[0].start_time, 0);
        assert_eq!(trace.records[2].start_time, 2, "short job backfills");
        // Head job starts once node frees at t=6000 (job 0 real end).
        assert_eq!(trace.records[1].start_time, 6_000);
        assert!(
            trace.records[3].start_time >= trace.records[1].start_time,
            "long backfill candidate must not pass the reservation"
        );
    }

    #[test]
    fn queue_orders_by_priority_when_tiers_equal() {
        // Fill the machine, then queue a standby and a high-QOS job; the
        // high-QOS one must start first even though it arrived later.
        let mut blocker = job(0, 0, 8, 50, 50);
        blocker.req_mem_gb = 32;
        let mut standby = job(1, 1, 8, 50, 5);
        standby.qos = Qos::Standby;
        standby.req_mem_gb = 32;
        let mut high = job(2, 2, 8, 50, 5);
        high.qos = Qos::High;
        high.req_mem_gb = 32;
        let trace = run(vec![blocker, standby, high]);
        assert!(trace.records[2].start_time < trace.records[1].start_time);
    }

    #[test]
    fn all_jobs_scheduled_and_causal_on_generated_trace() {
        let cluster = ClusterSpec::anvil_like();
        let mut cfg = WorkloadConfig::anvil_like(2_000);
        cfg.seed = 77;
        let (pop, jobs) = WorkloadGenerator::new(cfg, cluster.clone()).generate();
        let trace = simulate(&cluster, &pop, jobs, &SchedulerConfig::default());
        assert_eq!(trace.records.len(), 2_000);
        for r in &trace.records {
            assert!(r.eligible_time >= r.submit_time);
            assert!(
                r.start_time >= r.eligible_time,
                "job {} started before eligible",
                r.id
            );
            assert!(r.end_time > r.start_time);
            assert!(r.priority > 0.0);
        }
    }

    #[test]
    fn no_pool_oversubscription_on_generated_trace() {
        let cluster = ClusterSpec::anvil_like();
        let mut cfg = WorkloadConfig::anvil_like(1_500);
        cfg.seed = 13;
        let (pop, jobs) = WorkloadGenerator::new(cfg, cluster.clone()).generate();
        let trace = simulate(&cluster, &pop, jobs, &SchedulerConfig::default());
        // Sweep-line over start/end events per pool, checking total CPUs.
        for (pool_id, count) in cluster.pools() {
            let cap = cluster
                .partitions
                .iter()
                .filter(|p| p.node_pool == pool_id)
                .map(|p| p.cpus_per_node)
                .max()
                .unwrap() as i64
                * count as i64;
            let mut deltas: Vec<(i64, i64)> = Vec::new();
            for r in &trace.records {
                if cluster.partitions[r.partition as usize].node_pool == pool_id {
                    // Whole-node jobs consume full nodes worth of CPUs.
                    let spec = &cluster.partitions[r.partition as usize];
                    let cpus = if spec.whole_node {
                        (r.req_nodes * spec.cpus_per_node) as i64
                    } else {
                        r.req_cpus as i64
                    };
                    deltas.push((r.start_time, cpus));
                    deltas.push((r.end_time, -cpus));
                }
            }
            deltas.sort();
            let mut used = 0i64;
            for (_, d) in deltas {
                used += d;
                assert!(used <= cap, "pool {pool_id} oversubscribed: {used} > {cap}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let cluster = ClusterSpec::anvil_like();
        let mk = || {
            let mut cfg = WorkloadConfig::anvil_like(800);
            cfg.seed = 5;
            let (pop, jobs) = WorkloadGenerator::new(cfg, cluster.clone()).generate();
            simulate(&cluster, &pop, jobs, &SchedulerConfig::default())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn debug_tier_jumps_the_queue() {
        // Two partitions on one pool, debug at a higher tier.
        let mut cluster = toy_cluster();
        cluster.partitions.push(PartitionSpec {
            name: "debug".into(),
            node_pool: 0,
            total_nodes: 2,
            cpus_per_node: 4,
            mem_per_node_gb: 16,
            gpus_per_node: 0,
            priority_tier: 9,
            max_timelimit_min: 30,
            whole_node: false,
        });
        let blocker = job(0, 0, 8, 50, 50);
        let mut normal = job(1, 1, 8, 50, 5);
        normal.req_mem_gb = 32;
        let mut debug = job(2, 2, 8, 20, 5);
        debug.partition = 1;
        debug.req_mem_gb = 32;
        let trace = simulate(
            &cluster,
            &toy_pop(4),
            vec![blocker, normal, debug],
            &SchedulerConfig::default(),
        );
        assert!(
            trace.records[2].start_time < trace.records[1].start_time,
            "debug tier should preempt queue order"
        );
    }
}

#[cfg(test)]
mod preemption_tests {
    use super::*;
    use trout_linalg::SplitMix64;
    use trout_workload::{PartitionSpec, WorkloadConfig, WorkloadGenerator};

    fn toy_cluster() -> ClusterSpec {
        ClusterSpec {
            name: "toy".into(),
            partitions: vec![PartitionSpec {
                name: "only".into(),
                node_pool: 0,
                total_nodes: 2,
                cpus_per_node: 4,
                mem_per_node_gb: 16,
                gpus_per_node: 0,
                priority_tier: 1,
                max_timelimit_min: 1_000,
                whole_node: false,
            }],
        }
    }

    fn toy_pop() -> UserPopulation {
        let mut rng = SplitMix64::new(1);
        UserPopulation::generate(4, &[1.0], &mut rng)
    }

    fn job(id: u64, t: i64, cpus: u32, limit_min: u32, run_min: u32, qos: Qos) -> JobRequest {
        JobRequest {
            id,
            user: id as u32 % 4,
            partition: 0,
            submit_time: t,
            eligible_time: t,
            req_cpus: cpus,
            req_mem_gb: 1,
            req_nodes: 1,
            req_gpus: 0,
            timelimit_min: limit_min,
            true_runtime_min: run_min,
            hidden_delay_min: 0,
            cancel_after_min: 0,
            qos,
            campaign: 0,
        }
    }

    #[test]
    fn normal_job_preempts_standby_and_standby_requeues() {
        // t=0: standby fills the machine for a long run.
        // t=60: a normal job needing everything arrives: should preempt and
        //       start immediately; the standby job restarts afterwards.
        let jobs = vec![
            job(0, 0, 8, 500, 400, Qos::Standby),
            job(1, 60, 8, 100, 30, Qos::Normal),
        ];
        let trace = simulate(
            &toy_cluster(),
            &toy_pop(),
            jobs,
            &SchedulerConfig::default(),
        );
        assert_eq!(
            trace.records[1].start_time, 60,
            "preemptor starts immediately"
        );
        // Standby restarted after the normal job finished (60 + 30min).
        assert_eq!(trace.records[0].start_time, 60 + 30 * 60);
        // Its final record runs its full runtime from the restart.
        assert_eq!(
            trace.records[0].end_time - trace.records[0].start_time,
            400 * 60
        );
    }

    #[test]
    fn normal_cannot_preempt_normal() {
        let jobs = vec![
            job(0, 0, 8, 500, 400, Qos::Normal),
            job(1, 60, 8, 100, 30, Qos::High),
        ];
        let trace = simulate(
            &toy_cluster(),
            &toy_pop(),
            jobs,
            &SchedulerConfig::default(),
        );
        // High QOS outranks Normal in the queue but cannot evict it.
        assert_eq!(
            trace.records[1].start_time,
            400 * 60,
            "waits for the running job"
        );
    }

    #[test]
    fn standby_cannot_preempt_anything() {
        let jobs = vec![
            job(0, 0, 8, 500, 100, Qos::Standby),
            job(1, 60, 8, 100, 30, Qos::Standby),
        ];
        let trace = simulate(
            &toy_cluster(),
            &toy_pop(),
            jobs,
            &SchedulerConfig::default(),
        );
        assert_eq!(trace.records[1].start_time, 100 * 60);
    }

    #[test]
    fn preemption_evicts_only_as_many_victims_as_needed() {
        // Two standby jobs on separate nodes; a normal job needing one node
        // should evict exactly one (the younger), leaving the other running.
        let jobs = vec![
            job(0, 0, 4, 500, 400, Qos::Standby),
            job(1, 10, 4, 500, 400, Qos::Standby),
            job(2, 60, 4, 100, 30, Qos::Normal),
        ];
        let trace = simulate(
            &toy_cluster(),
            &toy_pop(),
            jobs,
            &SchedulerConfig::default(),
        );
        assert_eq!(trace.records[2].start_time, 60);
        // The older standby (id 0) keeps running from t=0.
        assert_eq!(trace.records[0].start_time, 0);
        // The younger standby (id 1) was evicted and restarted later.
        assert!(trace.records[1].start_time > 60);
    }

    #[test]
    fn disabling_preemption_restores_fifo_waiting() {
        let jobs = vec![
            job(0, 0, 8, 500, 400, Qos::Standby),
            job(1, 60, 8, 100, 30, Qos::Normal),
        ];
        let cfg = SchedulerConfig {
            enable_preemption: false,
            ..Default::default()
        };
        let trace = simulate(&toy_cluster(), &toy_pop(), jobs, &cfg);
        assert_eq!(trace.records[1].start_time, 400 * 60);
        assert_eq!(trace.records[0].start_time, 0);
    }

    #[test]
    fn preemption_keeps_generated_traces_consistent() {
        let cluster = ClusterSpec::anvil_like();
        let mut cfg = WorkloadConfig::anvil_like(2_000);
        cfg.seed = 99;
        let (pop, reqs) = WorkloadGenerator::new(cfg, cluster.clone()).generate();
        let trace = simulate(&cluster, &pop, reqs, &SchedulerConfig::default());
        assert_eq!(trace.records.len(), 2_000);
        for r in &trace.records {
            assert!(r.start_time >= r.eligible_time);
            assert!(r.end_time > r.start_time);
        }
        // Sweep-line conservation still holds with preemption enabled.
        for (pool_id, count) in cluster.pools() {
            let cap = cluster
                .partitions
                .iter()
                .filter(|p| p.node_pool == pool_id)
                .map(|p| p.cpus_per_node)
                .max()
                .unwrap() as i64
                * count as i64;
            let mut deltas: Vec<(i64, i64)> = Vec::new();
            for r in &trace.records {
                let spec = &cluster.partitions[r.partition as usize];
                if spec.node_pool != pool_id {
                    continue;
                }
                let cpus = if spec.whole_node {
                    (r.req_nodes * spec.cpus_per_node) as i64
                } else {
                    r.req_cpus as i64
                };
                deltas.push((r.start_time, cpus));
                deltas.push((r.end_time, -cpus));
            }
            deltas.sort();
            let mut used = 0i64;
            for (_, d) in deltas {
                used += d;
                assert!(used <= cap, "pool {pool_id} oversubscribed");
            }
        }
    }
}

#[cfg(test)]
mod cancellation_tests {
    use super::*;
    use trout_linalg::SplitMix64;
    use trout_workload::{PartitionSpec, WorkloadConfig, WorkloadGenerator};

    fn toy_cluster() -> ClusterSpec {
        ClusterSpec {
            name: "toy".into(),
            partitions: vec![PartitionSpec {
                name: "only".into(),
                node_pool: 0,
                total_nodes: 1,
                cpus_per_node: 4,
                mem_per_node_gb: 16,
                gpus_per_node: 0,
                priority_tier: 1,
                max_timelimit_min: 1_000,
                whole_node: false,
            }],
        }
    }

    fn toy_pop() -> UserPopulation {
        let mut rng = SplitMix64::new(1);
        UserPopulation::generate(4, &[1.0], &mut rng)
    }

    fn job(id: u64, t: i64, cpus: u32, run_min: u32, cancel_after_min: u32) -> JobRequest {
        JobRequest {
            id,
            user: id as u32 % 4,
            partition: 0,
            submit_time: t,
            eligible_time: t,
            req_cpus: cpus,
            req_mem_gb: 1,
            req_nodes: 1,
            req_gpus: 0,
            timelimit_min: 500,
            true_runtime_min: run_min,
            hidden_delay_min: 0,
            cancel_after_min,
            qos: Qos::Normal,
            campaign: 0,
        }
    }

    #[test]
    fn pending_job_is_cancelled_at_its_deadline() {
        // Job 0 hogs the machine for 100 min; job 1 would wait but cancels
        // after 30 min of queueing.
        let trace = simulate(
            &toy_cluster(),
            &toy_pop(),
            vec![job(0, 0, 4, 100, 0), job(1, 10, 4, 50, 30)],
            &SchedulerConfig::default(),
        );
        let r = &trace.records[1];
        assert_eq!(r.state, JobState::Cancelled);
        assert_eq!(r.start_time, 10 + 30 * 60, "cancelled at its deadline");
        assert_eq!(r.start_time, r.end_time, "never ran");
        // The machine frees at 100 min; nothing else runs.
        assert_eq!(trace.records[0].state, JobState::Completed);
    }

    #[test]
    fn started_job_ignores_its_cancel_deadline() {
        // Uncontended: the job starts immediately, so the 30-min cancel
        // deadline (which it outlives) must not kill it.
        let trace = simulate(
            &toy_cluster(),
            &toy_pop(),
            vec![job(0, 0, 4, 100, 30)],
            &SchedulerConfig::default(),
        );
        let r = &trace.records[0];
        assert_eq!(r.state, JobState::Completed);
        assert_eq!(r.runtime_min(), 100.0);
    }

    #[test]
    fn cancelled_jobs_free_their_queue_slot() {
        // Jobs 1 and 2 queue behind job 0. Job 1 cancels; job 2 then starts
        // as soon as job 0 ends.
        let trace = simulate(
            &toy_cluster(),
            &toy_pop(),
            vec![
                job(0, 0, 4, 60, 0),
                job(1, 10, 4, 300, 20),
                job(2, 20, 4, 30, 0),
            ],
            &SchedulerConfig::default(),
        );
        assert_eq!(trace.records[1].state, JobState::Cancelled);
        assert_eq!(trace.records[2].state, JobState::Completed);
        assert_eq!(trace.records[2].start_time, 60 * 60);
    }

    #[test]
    fn generated_traces_with_cancellations_stay_consistent() {
        let cluster = ClusterSpec::anvil_like();
        let mut cfg = WorkloadConfig::anvil_like(3_000);
        cfg.seed = 5;
        cfg.cancel_fraction = 0.10;
        let (pop, reqs) = WorkloadGenerator::new(cfg, cluster.clone()).generate();
        let trace = simulate(&cluster, &pop, reqs, &SchedulerConfig::default());
        assert_eq!(trace.records.len(), 3_000);
        let cancelled = trace
            .records
            .iter()
            .filter(|r| r.state == JobState::Cancelled)
            .count();
        assert!(cancelled > 0, "10% cancel fraction should cancel someone");
        assert!(
            cancelled < 300,
            "only pending jobs can cancel; got {cancelled}"
        );
        for r in &trace.records {
            match r.state {
                JobState::Cancelled => {
                    assert_eq!(r.start_time, r.end_time);
                    assert!(r.start_time > r.eligible_time);
                }
                _ => assert!(r.end_time > r.start_time),
            }
        }
    }
}
