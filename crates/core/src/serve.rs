//! Sharded micro-batching DVFS decision service.
//!
//! The paper's premise is a microsecond decision budget per cluster; a
//! fleet of GPUs multiplies that into a stream of concurrent decision
//! requests, and waking a server once per request wastes most of the
//! decision budget on queue overhead. This module turns the
//! per-cluster [`SsmdvfsGovernor`](crate::SsmdvfsGovernor) hot path into a
//! service:
//!
//! * Clients submit [`DecisionRequest`]s into **bounded per-shard queues**
//!   (a GPU always maps to the same shard). Submission blocks while the
//!   shard is full — backpressure, not loss.
//! * One batcher thread per shard drains up to `max_batch` requests and
//!   answers each in turn through the shard's compiled [`DecisionPlan`] —
//!   the same fused single-allocation path the governor runs, including
//!   the per-`(gpu, cluster)` phase-locality memo. Draining in batches
//!   amortizes the queue wakeup over many sub-200 ns decisions.
//! * A request carries an optional **deadline**; one that expires in the
//!   queue is answered with the table's safe fallback operating point (the
//!   default, highest-frequency point — never slow down an epoch on stale
//!   information) and skips inference and calibration entirely.
//!
//! Batching never changes a decision. The plan is byte-identical to the
//! governor path (proptest-enforced in `tests/plan_equivalence.rs`), and
//! the self-calibration state is keyed per `(gpu, cluster)` with each
//! key's requests applied in submission order, so the decision stream for
//! any GPU is byte-identical to driving a private
//! [`SsmdvfsGovernor`](crate::SsmdvfsGovernor) sequentially — at any shard
//! count, batch size or client parallelism.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_power::VfTable;
use gpu_sim::{DecisionSource, EpochCounters};
use serde::Serialize;

use crate::controller::SsmdvfsConfig;
use crate::model::CombinedModel;
use crate::plan::{ClusterSlot, DecisionPlan};

/// Tunables of a [`DecisionService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of independent queue + batcher shards. A GPU always maps to
    /// shard `gpu % shards`, so per-GPU calibration state never crosses a
    /// shard boundary.
    pub shards: usize,
    /// Most requests one batcher wakeup drains and answers.
    pub max_batch: usize,
    /// Bound of each shard's queue; submission blocks at the bound.
    pub queue_depth: usize,
    /// Per-request deadline measured from submission; `None` disables
    /// expiry. Expired requests get the fallback operating point.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { shards: 1, max_batch: 32, queue_depth: 256, deadline: None }
    }
}

/// One DVFS decision request: which cluster of which GPU just finished an
/// epoch with these counters.
#[derive(Debug, Clone)]
pub struct DecisionRequest {
    /// Fleet-wide GPU index (selects the shard and the calibration key).
    pub gpu: usize,
    /// Cluster index within the GPU (calibration key).
    pub cluster: usize,
    /// The finished epoch's performance counters.
    pub counters: EpochCounters,
}

/// The service's answer to one [`DecisionRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Chosen operating-point index.
    pub op_index: usize,
    /// `true` when the deadline expired and `op_index` is the safe
    /// fallback point rather than an inference result.
    pub fallback: bool,
    /// Queue + inference time, submission to answer.
    pub latency: Duration,
}

/// Aggregate counters from a shut-down service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ServeStats {
    /// Requests answered (inference and fallback alike).
    pub decisions: u64,
    /// Batches drained (batcher wakeups that answered at least one
    /// request by inference).
    pub batches: u64,
    /// Requests answered by inference (sum of batch sizes).
    pub batched: u64,
    /// Requests that expired in the queue and got the fallback point.
    pub deadline_misses: u64,
}

impl ServeStats {
    /// Mean requests answered by inference per batch (0 when no batch
    /// ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched as f64 / self.batches as f64
        }
    }

    fn merge(&mut self, other: ServeStats) {
        self.decisions += other.decisions;
        self.batches += other.batches;
        self.batched += other.batched;
        self.deadline_misses += other.deadline_misses;
    }
}

struct Pending {
    gpu: usize,
    cluster: usize,
    counters: EpochCounters,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Sender<Decision>,
}

struct ShardQueue {
    items: VecDeque<Pending>,
    closed: bool,
}

struct Shard {
    queue: Mutex<ShardQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

impl Shard {
    fn new(depth: usize) -> Shard {
        Shard {
            queue: Mutex::new(ShardQueue { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth,
        }
    }

    /// Blocks while the shard is at its bound — the service's
    /// backpressure. Panics if the service was shut down.
    fn push(&self, p: Pending) {
        let mut q = self.queue.lock().expect("serve shard poisoned");
        while q.items.len() >= self.depth && !q.closed {
            q = self.not_full.wait(q).expect("serve shard poisoned");
        }
        assert!(!q.closed, "DecisionRequest submitted to a shut-down DecisionService");
        q.items.push_back(p);
        obs::gauge!("serve.queue_depth").set(q.items.len() as f64);
        drop(q);
        self.not_empty.notify_one();
    }

    /// Blocks until requests are available, then moves up to `max_batch`
    /// of them into `buf`. Returns `false` once the shard is closed and
    /// drained — the batcher's exit condition.
    fn drain(&self, max_batch: usize, buf: &mut Vec<Pending>) -> bool {
        let mut q = self.queue.lock().expect("serve shard poisoned");
        while q.items.is_empty() && !q.closed {
            q = self.not_empty.wait(q).expect("serve shard poisoned");
        }
        if q.items.is_empty() {
            return false;
        }
        let n = q.items.len().min(max_batch.max(1));
        buf.extend(q.items.drain(..n));
        obs::gauge!("serve.queue_depth").set(q.items.len() as f64);
        drop(q);
        self.not_full.notify_all();
        true
    }

    fn close(&self) {
        self.queue.lock().expect("serve shard poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// One shard's batcher: owns the shard's compiled [`DecisionPlan`] and the
/// decision slot (calibration state + memo) of every GPU mapped to the
/// shard.
struct ShardWorker {
    table_len: usize,
    fallback_op: usize,
    plan: DecisionPlan,
    slots: HashMap<(usize, usize), ClusterSlot>,
    live: Vec<Pending>,
    stats: ServeStats,
}

impl ShardWorker {
    fn new(
        model: Arc<CombinedModel>,
        config: SsmdvfsConfig,
        table: VfTable,
        fallback_op: usize,
    ) -> ShardWorker {
        ShardWorker {
            table_len: table.len(),
            fallback_op,
            plan: DecisionPlan::compile(&model, &config),
            slots: HashMap::new(),
            live: Vec::new(),
            stats: ServeStats::default(),
        }
    }

    fn respond(&mut self, p: Pending, op_index: usize, fallback: bool) {
        let latency = p.submitted.elapsed();
        obs::histogram!("serve.decision_latency_us").record(latency.as_secs_f64() * 1e6);
        self.stats.decisions += 1;
        // A vanished client (it gave up on the request) is not an error.
        let _ = p.reply.send(Decision { op_index, fallback, latency });
    }

    /// Answers one drained batch: expired requests get the fallback point;
    /// the rest run in submission order through the shard's compiled
    /// [`DecisionPlan`] against their `(gpu, cluster)` slot. The plan is
    /// byte-identical to `SsmdvfsGovernor::decide` (memo included), so
    /// serving is byte-identical to sequential governing.
    fn process(&mut self, batch: &mut Vec<Pending>) {
        let now = Instant::now();
        for p in batch.drain(..) {
            if p.deadline.is_some_and(|d| now > d) {
                self.stats.deadline_misses += 1;
                obs::counter!("serve.deadline_misses").inc(1);
                let op = self.fallback_op;
                self.respond(p, op, true);
            } else {
                self.live.push(p);
            }
        }
        let n = self.live.len();
        if n == 0 {
            return;
        }
        obs::histogram!("serve.batch_size").record(n as f64);
        self.stats.batches += 1;
        self.stats.batched += n as u64;
        let answered: Vec<Pending> = self.live.drain(..).collect();
        for p in answered {
            let slot = self.slots.entry((p.gpu, p.cluster)).or_insert_with(|| self.plan.new_slot());
            let d = self.plan.decide_slot(slot, &p.counters, self.table_len);
            self.respond(p, d.op, false);
        }
    }
}

/// A running decision service: per-shard bounded queues and batcher
/// threads around one shared model. Create with [`DecisionService::start`],
/// talk to it through [`DecisionService::client`] handles, stop it with
/// [`DecisionService::shutdown`].
pub struct DecisionService {
    shards: Arc<Vec<Shard>>,
    workers: Vec<JoinHandle<ServeStats>>,
    max_batch: usize,
    deadline: Option<Duration>,
}

impl DecisionService {
    /// Spawns the shard batcher threads and returns the running service.
    ///
    /// # Panics
    ///
    /// Panics if `table` is empty (there would be no decodable decision
    /// and no fallback point).
    pub fn start(
        model: Arc<CombinedModel>,
        config: SsmdvfsConfig,
        table: VfTable,
        serve: ServeConfig,
    ) -> DecisionService {
        assert!(!table.is_empty(), "DecisionService needs a non-empty VfTable");
        let shard_count = serve.shards.max(1);
        let shards: Arc<Vec<Shard>> =
            Arc::new((0..shard_count).map(|_| Shard::new(serve.queue_depth.max(1))).collect());
        // Pre-register the miss counter: a snapshot after a clean run must
        // still show `serve.deadline_misses = 0`, not a missing key.
        obs::counter!("serve.deadline_misses").inc(0);
        let fallback_op = table.default_index();
        let max_batch = serve.max_batch.max(1);
        let workers = (0..shard_count)
            .map(|idx| {
                let shards = Arc::clone(&shards);
                let mut worker = ShardWorker::new(
                    Arc::clone(&model),
                    config.clone(),
                    table.clone(),
                    fallback_op,
                );
                std::thread::Builder::new()
                    .name(format!("serve-shard-{idx}"))
                    .spawn(move || {
                        let mut batch = Vec::new();
                        while shards[idx].drain(max_batch, &mut batch) {
                            worker.process(&mut batch);
                        }
                        worker.stats
                    })
                    .expect("failed to spawn serve shard thread")
            })
            .collect();
        DecisionService { shards, workers, max_batch, deadline: serve.deadline }
    }

    /// A cheap, cloneable submission handle.
    pub fn client(&self) -> DecisionClient {
        DecisionClient { shards: Arc::clone(&self.shards), deadline: self.deadline }
    }

    /// The batch bound the service was started with.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Closes the queues, waits for every shard to drain, and returns the
    /// aggregate statistics.
    ///
    /// # Panics
    ///
    /// Panics if a shard batcher thread itself panicked.
    pub fn shutdown(mut self) -> ServeStats {
        for shard in self.shards.iter() {
            shard.close();
        }
        let mut stats = ServeStats::default();
        for handle in self.workers.drain(..) {
            stats.merge(handle.join().expect("serve shard thread panicked"));
        }
        stats
    }
}

impl Drop for DecisionService {
    fn drop(&mut self) {
        // A dropped-without-shutdown service must not leave batcher
        // threads parked forever; closing is idempotent.
        for shard in self.shards.iter() {
            shard.close();
        }
    }
}

/// A client handle to a [`DecisionService`]. Cloning is cheap; every
/// clone talks to the same shards.
#[derive(Clone)]
pub struct DecisionClient {
    shards: Arc<Vec<Shard>>,
    deadline: Option<Duration>,
}

impl DecisionClient {
    /// Enqueues a request and returns immediately; blocks only while the
    /// shard queue is full (backpressure). The answer is collected from
    /// the returned handle, which lets a caller pipeline a window of
    /// requests before waiting.
    pub fn submit(&self, request: DecisionRequest) -> PendingDecision {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let shard = &self.shards[request.gpu % self.shards.len()];
        shard.push(Pending {
            gpu: request.gpu,
            cluster: request.cluster,
            counters: request.counters,
            submitted: now,
            deadline: self.deadline.map(|d| now + d),
            reply: tx,
        });
        PendingDecision { rx }
    }

    /// Submit-and-wait round trip for one decision.
    pub fn decide(&self, gpu: usize, cluster: usize, counters: &EpochCounters) -> Decision {
        self.submit(DecisionRequest { gpu, cluster, counters: counters.clone() }).wait()
    }
}

/// The in-flight side of [`DecisionClient::submit`].
pub struct PendingDecision {
    rx: Receiver<Decision>,
}

impl PendingDecision {
    /// Blocks until the service answers.
    ///
    /// # Panics
    ///
    /// Panics if the service shut down with the request still in flight.
    pub fn wait(self) -> Decision {
        self.rx.recv().expect("DecisionService shut down with a request in flight")
    }
}

impl DecisionSource for DecisionClient {
    fn decide(
        &self,
        gpu: usize,
        cluster: usize,
        counters: &EpochCounters,
        _table: &VfTable,
    ) -> usize {
        DecisionClient::decide(self, gpu, cluster, counters).op_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::CounterId;

    fn setup(serve: ServeConfig) -> (DecisionService, VfTable) {
        let table = gpu_sim::GpuConfig::small_test().vf_table;
        let model = Arc::new(CombinedModel::synthetic(table.len(), 9));
        let service = DecisionService::start(model, SsmdvfsConfig::new(0.1), table.clone(), serve);
        (service, table)
    }

    fn counters_for(i: u64) -> EpochCounters {
        let mut c = EpochCounters::zeroed();
        c[CounterId::TotalInstrs] = 500.0 + 37.0 * i as f64;
        c[CounterId::TotalCycles] = 1_000.0;
        c[CounterId::IntAluInstrs] = 200.0 + 11.0 * i as f64;
        c[CounterId::LoadGlobalInstrs] = 60.0 + 3.0 * (i % 7) as f64;
        c[CounterId::StallMemLoad] = 120.0 + 17.0 * (i % 5) as f64;
        c[CounterId::L1ReadAccess] = 90.0;
        c[CounterId::L1ReadMiss] = 20.0 + (i % 9) as f64;
        c.recompute_derived();
        c
    }

    #[test]
    fn serve_decisions_match_batch_size_one() {
        let run = |max_batch: usize| -> Vec<usize> {
            let (service, _) =
                setup(ServeConfig { shards: 1, max_batch, ..ServeConfig::default() });
            let client = service.client();
            // Pipeline windows so the batcher actually sees batches.
            let mut ops = Vec::new();
            for window in 0..8 {
                let pending: Vec<PendingDecision> = (0..16)
                    .map(|k| {
                        client.submit(DecisionRequest {
                            gpu: k % 4,
                            cluster: 0,
                            counters: counters_for(window * 16 + k as u64),
                        })
                    })
                    .collect();
                ops.extend(pending.into_iter().map(|p| p.wait().op_index));
            }
            let stats = service.shutdown();
            assert_eq!(stats.decisions, 128);
            assert_eq!(stats.deadline_misses, 0);
            ops
        };
        assert_eq!(run(1), run(32), "batching must not change any decision");
    }

    #[test]
    fn expired_requests_get_the_fallback_point() {
        let (service, table) = setup(ServeConfig {
            shards: 1,
            max_batch: 8,
            deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        });
        let client = service.client();
        // A zero deadline has expired by the time the batcher drains it.
        let d = client.decide(0, 0, &counters_for(0));
        assert!(d.fallback);
        assert_eq!(d.op_index, table.default_index());
        let stats = service.shutdown();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.batched, 0);
    }

    #[test]
    fn shards_isolate_gpus_but_not_results() {
        let gather = |shards: usize| -> Vec<usize> {
            let (service, _) =
                setup(ServeConfig { shards, max_batch: 4, ..ServeConfig::default() });
            let client = service.client();
            let ops = (0..24)
                .map(|i| client.decide(i % 6, i / 6, &counters_for(i as u64)).op_index)
                .collect();
            service.shutdown();
            ops
        };
        assert_eq!(gather(1), gather(3), "shard count must not change decisions");
    }
}
