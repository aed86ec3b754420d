//! `serve`: the fleet decision path, submit → queue → plan → reply.
//!
//! One generator thread drives a `DecisionService` (one shard, so two
//! threads in all) with open-loop, epoch-synchronous load: every tick,
//! each (gpu, cluster) of `GPUS` simulated GPUs submits the counters it
//! recorded for that epoch, all due at the tick's first instant, so
//! requests pile up and the shard drains them in batches. The counters
//! are recorded in set-up from
//! evaluation programs chosen by the seed, so phase locality and memo hits
//! are real. The model is `CombinedModel::synthetic`, so training cannot
//! move this workload, and neither `gpu-sim` nor `tinynn` runs in the
//! timed body. Each request is timed from when it was due.
//!
//! A body has two phases, each on a fresh service so that its batch
//! statistics are its own: a nominal phase at a fixed rate well below one
//! shard's capacity, whose shard CPU time is the workload's `run_s`, and
//! a short overload phase above capacity, which drives the deadline
//! fallback. The generator and the shard are pinned to CPUs of their own
//! (see [`Placement`]).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_power::VfTable;
use gpu_sim::{EpochCounters, GpuConfig, Simulation, StaticGovernor, Time};
use ssmdvfs::plan::DecisionPlan;
use ssmdvfs::{
    CombinedModel, Decision, DecisionRequest, DecisionService, PendingDecision, ServeConfig,
    ServeStats, SsmdvfsConfig,
};

use crate::stats::{
    allowed_cpus, digest, median, peak_rss_mb, pin_thread, print_bodies, quantile,
    thread_cpu_seconds, thread_id, timed,
};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

/// Simulated GPUs in the fleet; each has the 24 clusters of `titan_x`.
const GPUS: usize = 4;
/// Nominal request rate, well below one shard's capacity.
const NOMINAL_RPS: f64 = 50_000.0;
/// Overload rate, far above one shard's capacity.
const OVERLOAD_RPS: f64 = 2_000_000.0;
/// Ticks of the overload phase.
const OVERLOAD_TICKS: usize = 1_000;
/// Share of `--seconds` spent in the nominal phase.
const NOMINAL_SHARE: f64 = 0.9;
/// Per-request deadline from submission in the nominal phase: so long
/// that only a hung service misses it. On a shared host the shard thread
/// is sometimes descheduled for tens of milliseconds, and a shorter
/// deadline turned those stalls into a varying count of fallbacks (0 to
/// 0.2 % of requests per run at 10 ms). The stalls still show, per layer,
/// in `serve.late_share` and `serve.p99_us`.
const NOMINAL_DEADLINE: Duration = Duration::from_secs(1);
/// Per-request deadline from submission in the overload phase, where the
/// queue backs up far past it and the fallback path fires.
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(10);
/// A nominal request answered this long after it was due counts as late
/// in `serve.late_share`; it is the deadline the overload phase enforces.
const LATE: Duration = OVERLOAD_DEADLINE;
/// Shard queue bound; deep enough that overload expires requests in the
/// queue instead of only blocking the generator.
const QUEUE_DEPTH: usize = 16_384;
const MAX_BATCH: usize = 32;
/// The service's only batcher thread, found by name in `/proc`.
const SHARD_THREAD: &str = "serve-shard-0";
/// Requests left unanswered before the generator collects the oldest
/// reply in the nominal phase (their answers are long in by
/// then, so this only bounds memory). The overload phase collects nothing
/// until it ends, so the shard queue really fills.
const IN_FLIGHT: usize = 4 * GPUS * 24;
/// Evaluation programs are recorded at this scale.
const TRACE_SCALE: f64 = 0.1;
/// Request spans kept per phase for the Chrome trace.
const REQUEST_SPANS: usize = 5_000;
const SETUPS: usize = 7;
const MODEL_SEED: u64 = 7;
const PRESET: f64 = 0.10;

struct Setup {
    /// Per GPU: the program name, its per-epoch per-cluster counters, and
    /// the epoch the GPU starts its replay at.
    traces: Vec<(String, Vec<Vec<EpochCounters>>, usize)>,
    model: Arc<CombinedModel>,
    table: VfTable,
}

/// Records the counter traces of every evaluation program (so set-up
/// costs the same at every seed), then picks `GPUS` of them and their
/// start offsets by the seed.
fn setup(opts: &Opts) -> Setup {
    let gpu = GpuConfig::titan_x().with_seed(opts.seed);
    let mut recorded: Vec<(String, Vec<Vec<EpochCounters>>)> = gpu_workloads::evaluation_set()
        .iter()
        .map(|program| {
            let mut sim = Simulation::new(gpu.clone(), program.scaled(TRACE_SCALE).into_workload());
            let mut governor = StaticGovernor::default_point(&gpu.vf_table);
            sim.run(&mut governor, Time::from_micros(3_000.0));
            let epochs = sim
                .records()
                .iter()
                .map(|r| r.clusters.iter().map(|c| c.counters.clone()).collect())
                .collect();
            (program.name().to_string(), epochs)
        })
        .collect();
    let mut rng = opts.seed;
    let mut next = || {
        rng = tinynn::splitmix64(rng);
        rng
    };
    let traces = (0..GPUS)
        .map(|_| {
            let (name, epochs) = recorded.remove((next() % recorded.len() as u64) as usize);
            let start = (next() % epochs.len() as u64) as usize;
            (name, epochs, start)
        })
        .collect();
    Setup {
        traces,
        model: Arc::new(CombinedModel::synthetic(gpu.vf_table.len(), MODEL_SEED)),
        table: gpu.vf_table.clone(),
    }
}

impl Setup {
    fn clusters(&self) -> usize {
        self.traces[0].1[0].len()
    }

    /// The counters (gpu, cluster) reports at `tick`.
    fn counters(&self, gpu: usize, cluster: usize, tick: usize) -> &EpochCounters {
        let (_, epochs, start) = &self.traces[gpu];
        &epochs[(start + tick) % epochs.len()][cluster]
    }
}

/// The phases of a body, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Nominal,
    Overload,
}

impl Phase {
    const ALL: [Phase; 2] = [Phase::Nominal, Phase::Overload];

    fn name(self) -> &'static str {
        match self {
            Phase::Nominal => "nominal",
            Phase::Overload => "overload",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Phase::Nominal => "serve.nominal",
            Phase::Overload => "serve.overload",
        }
    }

    fn deadline(self) -> Duration {
        match self {
            Phase::Nominal => NOMINAL_DEADLINE,
            Phase::Overload => OVERLOAD_DEADLINE,
        }
    }
}

/// Ticks and tick period of each phase, in [`Phase::ALL`] order.
fn schedule(s: &Setup, seconds: f64) -> [(usize, Duration); 2] {
    let per_tick = (GPUS * s.clusters()) as f64;
    let period = per_tick / NOMINAL_RPS;
    [
        (((seconds * NOMINAL_SHARE) / period).max(1.0) as usize, Duration::from_secs_f64(period)),
        (OVERLOAD_TICKS, Duration::from_secs_f64(per_tick / OVERLOAD_RPS)),
    ]
}

/// One request of the schedule and what happened to it.
struct Request {
    gpu: usize,
    cluster: usize,
    tick: usize,
    phase: Phase,
    due: Instant,
    submitted: Instant,
    submit_ns: f64,
    decision: Option<Decision>,
}

impl Request {
    /// Due time to answer, with the answer placed at submission plus the
    /// service-measured latency.
    fn latency_us(&self) -> f64 {
        let d = self.decision.expect("every request is answered");
        ((self.submitted - self.due) + d.latency).as_secs_f64() * 1e6
    }
}

/// What the service did in one phase.
struct PhaseRun {
    wall_s: f64,
    /// CPU seconds the shard thread ran, or `None` where `/proc` could not
    /// tell.
    shard_cpu_s: Option<f64>,
    stats: ServeStats,
}

struct Body {
    requests: Vec<Request>,
    /// How late the generator began each nominal tick, in µs.
    lateness_us: Vec<f64>,
    /// In [`Phase::ALL`] order.
    phases: Vec<PhaseRun>,
}

/// Busy-waits until `t`: a sleeping generator wakes up to milliseconds
/// late on a loaded host, which would charge harness lateness to the
/// requests behind it.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

fn collect(
    requests: &mut [Request],
    in_flight: &mut VecDeque<(usize, PendingDecision)>,
    keep: usize,
) {
    while in_flight.len() > keep {
        let (idx, pending) = in_flight.pop_front().expect("non-empty");
        requests[idx].decision = Some(pending.wait());
    }
}

/// The CPUs the generator and the shard are pinned to: the first two this
/// process may use. Left to the scheduler, the shard thread sometimes
/// shares the generator's CPU, preempts the generator at every wake-up
/// and drains one request at a time, and sometimes sleeps on the other
/// CPU while a tick's requests pile up, then drains them in batches; a
/// run keeps whichever placement it got. With fewer than two CPUs nothing
/// is pinned.
#[derive(Debug, Clone, Copy)]
struct Placement {
    generator: usize,
    shard: usize,
}

impl Placement {
    fn choose(cpus: &[usize]) -> Option<Placement> {
        match *cpus {
            [generator, shard, ..] => Some(Placement { generator, shard }),
            _ => None,
        }
    }
}

/// The task id of a just-started service's shard thread, pinned to its
/// CPU. The thread takes its name only once it runs, so this waits up to
/// a second for it to appear in `/proc`.
fn shard_thread(placement: Option<Placement>) -> Option<i32> {
    let give_up = Instant::now() + Duration::from_secs(1);
    let tid = loop {
        match thread_id(SHARD_THREAD) {
            Some(tid) => break tid,
            None if Instant::now() > give_up => return None,
            None => std::thread::yield_now(),
        }
    };
    if let Some(p) = placement {
        pin_thread(tid, &[p.shard]);
    }
    Some(tid)
}

/// Runs one phase on a fresh service: `ticks` ticks of `period` from
/// epoch `first_tick` on, appending its requests to `b`.
fn run_phase(
    s: &Setup,
    phase: Phase,
    first_tick: usize,
    (ticks, period): (usize, Duration),
    placement: Option<Placement>,
    tracer: &mut Tracer,
    b: &mut Body,
) {
    let span = tracer.begin(phase.span());
    let service = tracer.scope("serve.start", || {
        DecisionService::start(
            Arc::clone(&s.model),
            SsmdvfsConfig::new(PRESET),
            s.table.clone(),
            ServeConfig {
                shards: 1,
                max_batch: MAX_BATCH,
                queue_depth: QUEUE_DEPTH,
                deadline: Some(phase.deadline()),
            },
        )
    });
    let client = service.client();
    let clusters = s.clusters();
    let first = b.requests.len();
    let mut in_flight = VecDeque::new();
    let shard = shard_thread(placement);
    let shard_cpu0 = shard.and_then(thread_cpu_seconds);
    let start = Instant::now() + Duration::from_millis(1);
    for t in 0..ticks {
        let due = start + period.mul_f64(t as f64);
        wait_until(due);
        for gpu in 0..GPUS {
            for cluster in 0..clusters {
                let counters = s.counters(gpu, cluster, first_tick + t).clone();
                let submitted = Instant::now();
                let pending = client.submit(DecisionRequest { gpu, cluster, counters });
                let submit_ns = submitted.elapsed().as_nanos() as f64;
                if phase == Phase::Nominal && gpu == 0 && cluster == 0 {
                    b.lateness_us.push((submitted - due).as_secs_f64() * 1e6);
                }
                in_flight.push_back((b.requests.len(), pending));
                b.requests.push(Request {
                    gpu,
                    cluster,
                    tick: first_tick + t,
                    phase,
                    due,
                    submitted,
                    submit_ns,
                    decision: None,
                });
            }
        }
        if phase != Phase::Overload {
            collect(&mut b.requests, &mut in_flight, IN_FLIGHT);
        }
    }
    collect(&mut b.requests, &mut in_flight, 0);
    let wall_s = start.elapsed().as_secs_f64();
    let shard_cpu_s = shard_cpu0.zip(shard.and_then(thread_cpu_seconds)).map(|(a, b)| b - a);
    let stats = tracer.scope("serve.shutdown", || service.shutdown());
    if tracer.enabled() {
        for (id, r) in b.requests.iter().enumerate().skip(first).take(REQUEST_SPANS) {
            let answered = r.submitted + r.decision.expect("collected").latency;
            tracer.request("serve.request", id as u64, r.due, answered);
        }
    }
    tracer.end(span);
    b.phases.push(PhaseRun { wall_s, shard_cpu_s, stats });
}

fn body(s: &Setup, seconds: f64, tracer: &mut Tracer) -> Body {
    let cpus = allowed_cpus();
    let placement = Placement::choose(&cpus);
    if let Some(p) = placement {
        pin_thread(0, &[p.generator]);
    }
    let sched = schedule(s, seconds);
    let total: usize = sched.iter().map(|(ticks, _)| ticks * GPUS * s.clusters()).sum();
    let mut b = Body {
        requests: Vec::with_capacity(total),
        lateness_us: Vec::with_capacity(sched[0].0),
        phases: Vec::new(),
    };
    let mut first_tick = 0;
    for (phase, ticks) in Phase::ALL.into_iter().zip(sched) {
        run_phase(s, phase, first_tick, ticks, placement, tracer, &mut b);
        first_tick += ticks.0;
    }
    if placement.is_some() {
        pin_thread(0, &cpus);
    }
    b
}

/// Replays every (phase, gpu, cluster) stream sequentially through a
/// fresh [`DecisionPlan`] (each phase runs on a fresh service): each
/// inferred answer must equal the replay, each fallback must be the
/// table's default point (fallbacks skip the plan, so the replay skips
/// them too). Returns the number of mismatches.
fn verify(s: &Setup, requests: &[Request]) -> usize {
    let mut plan = DecisionPlan::compile(&s.model, &SsmdvfsConfig::new(PRESET));
    let mut slots = BTreeMap::new();
    let mut bad = 0;
    for r in requests {
        let d = r.decision.expect("every request is answered");
        if d.fallback {
            bad += usize::from(d.op_index != s.table.default_index());
            continue;
        }
        let key = (r.phase.name(), r.gpu, r.cluster);
        let slot = slots.entry(key).or_insert_with(|| plan.new_slot());
        let want = plan.decide_slot(slot, s.counters(r.gpu, r.cluster, r.tick), s.table.len());
        bad += usize::from(want.op != d.op_index);
    }
    bad
}

/// Digest of the replayed input; it depends only on the seed.
fn input_digest(s: &Setup) -> String {
    let mut inputs = String::new();
    for (name, epochs, start) in &s.traces {
        inputs.push_str(&format!("{name}:{start}:{};", epochs.len()));
        for epoch in epochs {
            for c in epoch {
                inputs.push_str(&format!("{:?}", c.as_slice()));
            }
        }
    }
    digest(inputs.as_bytes())
}

struct Summary {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
    /// Requests answered more than [`LATE`] after they were due.
    late: usize,
    sent: usize,
    fallback: usize,
    mean_batch: f64,
    batches: u64,
    /// Shard CPU µs per request (0 where `/proc` could not tell).
    cpu_us_per_request: f64,
}

impl Summary {
    fn fallback_share(&self) -> f64 {
        self.fallback as f64 / self.sent.max(1) as f64
    }

    fn late_share(&self) -> f64 {
        self.late as f64 / self.sent.max(1) as f64
    }
}

fn summarize(b: &Body, phase: Phase) -> Summary {
    let run = &b.phases[phase as usize];
    let reqs: Vec<&Request> = b.requests.iter().filter(|r| r.phase == phase).collect();
    let lat: Vec<f64> = reqs.iter().map(|r| r.latency_us()).collect();
    Summary {
        p50_us: median(&lat),
        p90_us: quantile(&lat, 0.9),
        p99_us: quantile(&lat, 0.99),
        max_us: quantile(&lat, 1.0),
        late: lat.iter().filter(|&&l| l > LATE.as_secs_f64() * 1e6).count(),
        sent: reqs.len(),
        fallback: reqs.iter().filter(|r| r.decision.is_some_and(|d| d.fallback)).count(),
        mean_batch: run.stats.mean_batch(),
        batches: run.stats.batches,
        cpu_us_per_request: run.shard_cpu_s.unwrap_or(0.0) * 1e6 / reqs.len().max(1) as f64,
    }
}

/// The shard's CPU seconds over the nominal phase, which is the body's
/// cost: the generator busy-waits between ticks and burns a CPU for the
/// whole schedule whatever the service costs. A reading that is missing
/// or not positive fails the run.
fn nominal_cpu(b: &Body, out: &mut Outcome) -> f64 {
    let cpu = b.phases[Phase::Nominal as usize].shard_cpu_s;
    out.check(cpu.is_some_and(|c| c > 0.0), || {
        format!("no CPU time for thread {SHARD_THREAD} in /proc/self/task: {cpu:?}")
    });
    cpu.unwrap_or(f64::NAN)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let (made, t) = timed(|| setup(opts));
        s = Some(made);
        setup_times.push(t.cpu);
    }
    let s = s.expect("at least one set-up");
    let sched = schedule(&s, opts.seconds);
    println!(
        "input {{\"gpus\":{GPUS},\"clusters\":{},\"programs\":{:?},\"nominal_rps\":{NOMINAL_RPS},\
         \"tick_us\":{},\"nominal_ticks\":{},\"overload_rps\":{OVERLOAD_RPS},\
         \"overload_ticks\":{},\"nominal_deadline_us\":{},\"overload_deadline_us\":{},\
         \"late_us\":{},\"shards\":1,\"max_batch\":{MAX_BATCH},\
         \"queue_depth\":{QUEUE_DEPTH},\"pinned\":\"{}\"}}",
        s.clusters(),
        s.traces.iter().map(|(n, e, st)| format!("{n}[{}@{st}]", e.len())).collect::<Vec<_>>(),
        sched[0].1.as_secs_f64() * 1e6,
        sched[0].0,
        sched[1].0,
        NOMINAL_DEADLINE.as_micros(),
        OVERLOAD_DEADLINE.as_micros(),
        LATE.as_micros(),
        Placement::choose(&allowed_cpus()).map_or("no (fewer than 2 CPUs)".to_string(), |p| {
            format!("generator on cpu {}, shard on cpu {}", p.generator, p.shard)
        }),
    );
    println!("digest inputs={}", input_digest(&s));

    let (b, timing) = timed(|| body(&s, opts.seconds, &mut Tracer::new(false)));
    print_bodies(&[timing]);
    let run_s = nominal_cpu(&b, &mut out);
    let summaries = Phase::ALL.map(|p| summarize(&b, p));
    for (phase, p) in Phase::ALL.iter().zip(&summaries) {
        println!(
            "phase {{\"phase\":\"{}\",\"sent\":{},\"answered\":{},\"fallback\":{},\"p50_us\":{},\
             \"p90_us\":{},\"p99_us\":{},\"max_us\":{},\"late\":{},\"mean_batch\":{},\
             \"batches\":{},\"cpu_us_per_request\":{}}}",
            phase.name(),
            p.sent,
            p.sent,
            p.fallback,
            p.p50_us,
            p.p90_us,
            p.p99_us,
            p.max_us,
            p.late,
            p.mean_batch,
            p.batches,
            p.cpu_us_per_request,
        );
    }
    println!(
        "lateness {{\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        median(&b.lateness_us),
        quantile(&b.lateness_us, 0.99),
        quantile(&b.lateness_us, 1.0)
    );
    let mismatches = verify(&s, &b.requests);
    out.check(mismatches == 0, || {
        format!("{mismatches} served decisions differ from the sequential replay")
    });
    let nominal = &summaries[0];
    out.attempted = nominal.sent as u64;
    out.failed = nominal.fallback as u64;
    out.end_to_end.insert("setup_s", median(&setup_times));
    out.end_to_end.insert("run_s", run_s);
    out.end_to_end.insert("sparse_flops", s.model.sparse_flops() as f64);
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb());

    if opts.trace {
        let memo = |name: &str| obs::metrics::global().counter(name).get() as f64;
        let (hits0, misses0) = (memo("decide.memo_hits"), memo("decide.memo_misses"));
        let mut tracer = Tracer::new(true);
        obs::set_enabled(true);
        let (traced, traced_t) = timed(|| {
            let root = tracer.begin("serve");
            let traced = body(&s, opts.seconds, &mut tracer);
            tracer.end(root);
            traced
        });
        obs::set_enabled(false);
        let (hits, misses) =
            (memo("decide.memo_hits") - hits0, memo("decide.memo_misses") - misses0);
        let mismatches = verify(&s, &traced.requests);
        out.check(mismatches == 0, || {
            format!("{mismatches} traced decisions differ from the replay")
        });
        let traced_run_s = nominal_cpu(&traced, &mut out);
        let [tn, to] = Phase::ALL.map(|p| summarize(&traced, p));
        let nominal_reqs: Vec<&Request> =
            traced.requests.iter().filter(|r| r.phase == Phase::Nominal).collect();
        let submit: Vec<f64> = nominal_reqs.iter().map(|r| r.submit_ns).collect();
        let service: Vec<f64> = nominal_reqs
            .iter()
            .map(|r| r.decision.expect("answered").latency.as_secs_f64() * 1e6)
            .collect();
        let nominal_wall = traced.phases[Phase::Nominal as usize].wall_s;
        out.layer("serve.submit_ns_p50", median(&submit));
        out.layer("serve.submit_ns_p99", quantile(&submit, 0.99));
        out.layer("serve.service_us_p50", median(&service));
        out.layer("serve.service_us_p99", quantile(&service, 0.99));
        out.layer("serve.p50_us", tn.p50_us);
        out.layer("serve.p99_us", tn.p99_us);
        out.layer("serve.mean_batch", tn.mean_batch);
        out.layer("serve.batches", tn.batches as f64);
        out.layer("serve.achieved_rps", tn.sent as f64 / nominal_wall);
        out.layer("serve.fallback_share", tn.fallback_share());
        out.layer("serve.late_share", tn.late_share());
        out.layer("serve.lateness_us_p99", quantile(&traced.lateness_us, 0.99));
        out.layer("serve.overload_mean_batch", to.mean_batch);
        out.layer("serve.overload_fallback_share", to.fallback_share());
        out.layer("serve.overload_p50_us", to.p50_us);
        out.layer("serve.unattributed_s", tracer.self_times().get("serve").map_or(0.0, |t| t.wall));
        out.layer("run.wall_s", traced_t.wall);
        out.layer("plan.memo_hit_ratio", hits / (hits + misses).max(1.0));
        out.layer("trace.overhead_pct", (traced_run_s / run_s - 1.0) * 100.0);
        println!(
            "trace {{\"traced_run_s\":{traced_run_s},\"untraced_run_s\":{run_s},\"traced_wall_s\":{},\
             \"traced_p50_us\":{},\"untraced_p50_us\":{},\"spans\":{}}}",
            traced_t.wall,
            tn.p50_us,
            nominal.p50_us,
            tracer.len()
        );
        let path = crate::out_dir().join(format!("trace-serve-{}.json", opts.seed));
        if let Err(e) = tracer.write_chrome(&path) {
            out.failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}
