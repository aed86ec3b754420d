//! The streaming-multiprocessor core: warp scheduling and the cycle loop.
//!
//! Each cluster contains one SM (matching the paper's 24-cluster Titan X
//! setup, where DVFS is applied per cluster). The SM keeps a pool of
//! resident warps fed from a queue of pending CTAs, and each core cycle a
//! greedy-then-oldest scheduler issues up to `issue_width` instructions
//! from ready warps. Cycles in which nothing can issue are attributed to a
//! stall cause — the raw material of the paper's execution-stall counters.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::counters::{CounterId, EpochCounters};
use crate::isa::{InstrClass, LatencyTable};
use crate::kernel::KernelSpec;
use crate::memory::{ClusterMemory, MemLevel};
use crate::time::Time;
use crate::warp::{WaitCause, Warp, WarpState};

/// How the cycle loop advances through stretches where no warp can issue.
///
/// Both engines produce bit-identical counters, epoch records and results —
/// `CycleSkip` merely batches the accounting for cycles whose outcome is
/// already known (every live warp waiting on an event with a known wake
/// time). `NaiveTick` is kept as the reference implementation the
/// equivalence proptests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EngineMode {
    /// Reference engine: tick every core cycle individually.
    NaiveTick,
    /// Fast engine: when nothing can issue, jump straight to the earliest
    /// wake-up (or the end of the epoch when the SM is empty).
    #[default]
    CycleSkip,
}

/// Result of running one epoch on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// Warp-instructions retired during the epoch.
    pub instructions: u64,
    /// Absolute time at which the SM ran out of work, if it did.
    pub finished_at: Option<Time>,
    /// Stall cycles accounted for in bulk instead of being ticked
    /// individually (always zero under [`EngineMode::NaiveTick`]).
    pub skipped_cycles: u64,
}

/// One SM's execution state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmCore {
    kernel: Option<Arc<KernelSpec>>,
    kernel_seed: u64,
    warps: Vec<Warp>,
    pending_ctas: VecDeque<u64>,
    max_warps: usize,
    issue_width: usize,
    next_age: u64,
    last_issued_age: u64,
    finish_time: Option<Time>,
}

impl SmCore {
    /// Creates an idle SM with capacity for `max_warps` resident warps that
    /// issues up to `issue_width` instructions per cycle.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(max_warps: usize, issue_width: usize) -> SmCore {
        assert!(max_warps > 0, "an SM needs at least one warp slot");
        assert!(issue_width > 0, "issue width must be positive");
        SmCore {
            kernel: None,
            kernel_seed: 0,
            warps: Vec::with_capacity(max_warps),
            pending_ctas: VecDeque::new(),
            max_warps,
            issue_width,
            next_age: 0,
            last_issued_age: 0,
            finish_time: None,
        }
    }

    /// Assigns a kernel and the CTA ids this SM is responsible for.
    ///
    /// # Panics
    ///
    /// Panics if the SM still has resident warps, or if a single CTA needs
    /// more warp slots than the SM has.
    pub fn assign_kernel(
        &mut self,
        kernel: impl Into<Arc<KernelSpec>>,
        cta_ids: Vec<u64>,
        seed: u64,
    ) {
        let kernel: Arc<KernelSpec> = kernel.into();
        assert!(self.warps.is_empty(), "cannot assign a kernel to a busy SM");
        assert!(
            kernel.warps_per_cta() <= self.max_warps,
            "kernel '{}' needs {} warps per CTA but the SM holds only {}",
            kernel.name(),
            kernel.warps_per_cta(),
            self.max_warps
        );
        self.kernel = Some(kernel);
        self.kernel_seed = seed;
        self.pending_ctas = cta_ids.into();
        self.finish_time = None;
    }

    /// Returns `true` when the SM has no resident warps and no pending CTAs.
    pub fn is_idle(&self) -> bool {
        self.warps.is_empty() && self.pending_ctas.is_empty()
    }

    /// The absolute time the SM most recently ran out of work.
    pub fn finish_time(&self) -> Option<Time> {
        self.finish_time
    }

    fn launch_ctas(&mut self) {
        let Some(kernel) = &self.kernel else { return };
        let wpc = kernel.warps_per_cta();
        while !self.pending_ctas.is_empty() && self.warps.len() + wpc <= self.max_warps {
            let cta_id = self.pending_ctas.pop_front().expect("checked non-empty");
            for i in 0..wpc {
                let global_id = cta_id * wpc as u64 + i as u64;
                self.warps.push(Warp::new(cta_id, global_id, self.kernel_seed, self.next_age));
                self.next_age += 1;
            }
        }
    }

    /// Releases every warp of `cta_id` parked at a barrier if no live warp
    /// of that CTA is still on its way there.
    fn maybe_release_barrier(&mut self, cta_id: u64) {
        let blocking = self
            .warps
            .iter()
            .any(|w| w.cta_id == cta_id && w.is_live() && w.state != WarpState::AtBarrier);
        if !blocking {
            for w in &mut self.warps {
                if w.cta_id == cta_id && w.state == WarpState::AtBarrier {
                    w.state = WarpState::Ready;
                }
            }
        }
    }

    /// Removes the warps of `cta_id` if every one of them has finished.
    fn maybe_retire_cta(&mut self, cta_id: u64) {
        let all_done = self.warps.iter().filter(|w| w.cta_id == cta_id).all(|w| !w.is_live());
        if all_done {
            self.warps.retain(|w| w.cta_id != cta_id);
        }
    }

    /// Runs the SM for `cycles` core cycles of period `period_ps`,
    /// starting at absolute time `epoch_start`, updating `counters`.
    /// Uses the default [`EngineMode::CycleSkip`] engine.
    pub fn run_epoch(
        &mut self,
        epoch_start: Time,
        cycles: u64,
        period_ps: u64,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
    ) -> EpochOutcome {
        self.run_epoch_mode(
            EngineMode::CycleSkip,
            epoch_start,
            cycles,
            period_ps,
            mem,
            lat,
            counters,
        )
    }

    /// Runs the SM for `cycles` core cycles under an explicit engine mode.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    pub fn run_epoch_mode(
        &mut self,
        mode: EngineMode,
        epoch_start: Time,
        cycles: u64,
        period_ps: u64,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
    ) -> EpochOutcome {
        use CounterId::*;
        let start_instrs = counters[TotalInstrs];
        let mut mem_lat_sum_ns = 0.0;
        let mut mem_lat_count = 0u64;
        let mut occupancy_sum = 0u128;
        let mut skipped = 0u64;
        let mut c = 0u64;

        while c < cycles {
            let now = epoch_start + Time::from_ps(c * period_ps);
            self.launch_ctas();

            // Single scan: wake sleeping warps, classify blockers, and find
            // issue candidates (greedy: the last-issued warp first, then
            // oldest ready).
            let mut n_live = 0u32;
            let mut n_load = 0u32;
            let mut n_store = 0u32;
            let mut n_ctrl = 0u32;
            let mut n_exec = 0u32;
            let mut next_wake: Option<Time> = None;
            // (age, index) of up to `issue_width` best candidates; the
            // last-issued warp is ranked first by treating its age as 0.
            let mut picks: Vec<(u64, usize)> = Vec::with_capacity(self.issue_width + 1);
            for (i, w) in self.warps.iter_mut().enumerate() {
                if !w.is_live() {
                    continue;
                }
                n_live += 1;
                if let WarpState::Waiting { until, cause } = w.state {
                    if until <= now {
                        w.state = WarpState::Ready;
                    } else {
                        next_wake = Some(next_wake.map_or(until, |t: Time| t.min(until)));
                        match cause {
                            WaitCause::MemLoad => n_load += 1,
                            WaitCause::MemStore => n_store += 1,
                            WaitCause::Control => n_ctrl += 1,
                            WaitCause::Exec => n_exec += 1,
                        }
                        continue;
                    }
                }
                if w.state == WarpState::Ready {
                    let rank = if w.age == self.last_issued_age { 0 } else { w.age + 1 };
                    picks.push((rank, i));
                }
            }
            picks.sort_unstable();
            picks.truncate(self.issue_width);

            occupancy_sum += n_live as u128;
            if n_live > 0 {
                counters[ActiveCycles] += 1.0;
            }

            if picks.is_empty() {
                // Stall cycle(s): attribute and — under `CycleSkip` —
                // fast-forward to the next wake-up (or the end of the epoch
                // when nothing is pending). No warp, memory or scheduler
                // state can change before the earliest wake time, so the
                // per-cycle accounting below is exact for the whole jump.
                let delta = match mode {
                    EngineMode::NaiveTick => 1,
                    EngineMode::CycleSkip => match next_wake {
                        Some(t) => {
                            // The warp wakes on the first cycle whose start
                            // time reaches `t`: ceil(gap / period) ticks.
                            let gap_ps = t.saturating_sub(now).as_ps();
                            gap_ps.div_ceil(period_ps).max(1).min(cycles - c)
                        }
                        None => cycles - c,
                    },
                };
                let cause = if n_live == 0 {
                    StallEmpty
                } else if n_load > 0 {
                    StallMemLoad
                } else if n_store > 0 {
                    StallMemOther
                } else if n_ctrl > 0 {
                    StallControl
                } else if n_exec > 0 {
                    StallDataDep
                } else {
                    // Every live warp is at a barrier; release is immediate
                    // on parking, so this indicates a logic error.
                    debug_assert!(false, "all warps at barrier without release");
                    StallBarrier
                };
                counters[cause] += delta as f64;
                if n_live > 0 {
                    counters[ActiveCycles] += (delta - 1) as f64;
                }
                occupancy_sum += n_live as u128 * (delta - 1) as u128;
                skipped += delta - 1;
                c += delta;
                if n_live == 0
                    && self.pending_ctas.is_empty()
                    && self.finish_time.is_none()
                    && self.kernel.is_some()
                {
                    self.finish_time = Some(now);
                }
                continue;
            }

            counters[IssuedCycles] += 1.0;
            // Issuing may finish warps; CTA retirement (which removes warps
            // and would invalidate the remaining pick indices) is deferred
            // until every pick of this cycle has issued.
            let mut retire: Vec<u64> = Vec::new();
            for &(_, idx) in &picks {
                if let Some(cta) = self.issue(
                    idx,
                    now,
                    period_ps,
                    mem,
                    lat,
                    counters,
                    &mut mem_lat_sum_ns,
                    &mut mem_lat_count,
                ) {
                    retire.push(cta);
                }
            }
            for cta in retire {
                self.maybe_retire_cta(cta);
            }
            if self.warps.iter().all(|w| !w.is_live())
                && self.pending_ctas.is_empty()
                && self.kernel.is_some()
                && self.finish_time.is_none()
            {
                self.finish_time = Some(now + Time::from_ps(period_ps));
            }
            c += 1;
        }

        counters[TotalCycles] += cycles as f64;
        if cycles > 0 {
            counters[Occupancy] = occupancy_sum as f64 / (cycles as f64 * self.max_warps as f64);
        }
        if mem_lat_count > 0 {
            counters[AvgMemLatencyNs] = mem_lat_sum_ns / mem_lat_count as f64;
        }
        counters.recompute_derived();

        EpochOutcome {
            instructions: (counters[TotalInstrs] - start_instrs) as u64,
            finished_at: self.finish_time,
            skipped_cycles: skipped,
        }
    }

    /// Issues the next instruction of warp `idx` at time `now`. Returns the
    /// warp's CTA id if the warp just finished its program (the caller must
    /// then retire the CTA once the cycle's issues are complete).
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        idx: usize,
        now: Time,
        period_ps: u64,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
        mem_lat_sum_ns: &mut f64,
        mem_lat_count: &mut u64,
    ) -> Option<u64> {
        use CounterId::*;
        let kernel = self.kernel.as_ref().expect("issue requires an assigned kernel");
        let warp = &mut self.warps[idx];
        let block = &kernel.blocks()[warp.cursor.block];
        let class = block.instrs[warp.cursor.instr].class;
        let div_prob = block.divergence_prob;
        let mem_behavior = kernel.mem();
        self.last_issued_age = warp.age;

        counters[TotalInstrs] += 1.0;
        let class_counter = match class {
            InstrClass::IntAlu => IntAluInstrs,
            InstrClass::FpAlu => FpAluInstrs,
            InstrClass::Sfu => SfuInstrs,
            InstrClass::LoadGlobal => LoadGlobalInstrs,
            InstrClass::LoadShared => LoadSharedInstrs,
            InstrClass::StoreGlobal => StoreGlobalInstrs,
            InstrClass::StoreShared => StoreSharedInstrs,
            InstrClass::Branch => BranchInstrs,
            InstrClass::Barrier => BarrierInstrs,
        };
        counters[class_counter] += 1.0;

        // Determine the wait the instruction imposes; `None` means the warp
        // parks at a barrier instead.
        let cycles_at = |n: u32| Time::from_ps(n as u64 * period_ps);
        let wait: Option<(Time, WaitCause)> = match class {
            InstrClass::IntAlu | InstrClass::FpAlu | InstrClass::Sfu => {
                Some((now + cycles_at(lat.fixed_latency(class)), WaitCause::Exec))
            }
            InstrClass::LoadShared => {
                counters[SharedAccesses] += 1.0;
                Some((now + cycles_at(lat.load_shared), WaitCause::MemLoad))
            }
            InstrClass::StoreShared => {
                counters[SharedAccesses] += 1.0;
                Some((now + cycles_at(lat.store_shared), WaitCause::MemStore))
            }
            InstrClass::LoadGlobal => {
                let addr = warp.next_address(&mem_behavior);
                let r = mem.load(addr, now, period_ps);
                counters[L1ReadAccess] += 1.0;
                counters[MemTransactions] += 1.0;
                match r.level {
                    MemLevel::L1 => {}
                    MemLevel::L2 => {
                        counters[L1ReadMiss] += 1.0;
                        counters[L2Access] += 1.0;
                    }
                    MemLevel::Dram => {
                        counters[L1ReadMiss] += 1.0;
                        counters[L2Access] += 1.0;
                        counters[L2Miss] += 1.0;
                        counters[DramReads] += 1.0;
                        counters[DramQueueNs] += r.queue_ns;
                    }
                }
                *mem_lat_sum_ns += r.latency.as_nanos();
                *mem_lat_count += 1;
                Some((now + r.latency, WaitCause::MemLoad))
            }
            InstrClass::StoreGlobal => {
                let addr = warp.next_address(&mem_behavior);
                let level = mem.store(addr, now);
                counters[L1WriteAccess] += 1.0;
                counters[MemTransactions] += 1.0;
                counters[L2Access] += 1.0;
                match level {
                    MemLevel::L1 => {}
                    MemLevel::L2 => counters[L1WriteMiss] += 1.0,
                    MemLevel::Dram => {
                        counters[L1WriteMiss] += 1.0;
                        counters[L2Miss] += 1.0;
                        counters[DramWrites] += 1.0;
                    }
                }
                Some((now + cycles_at(lat.store_global), WaitCause::MemStore))
            }
            InstrClass::Branch => {
                let diverged = warp.draw_divergence(div_prob);
                let penalty = if diverged {
                    counters[DivergentBranches] += 1.0;
                    lat.branch + lat.divergence_penalty
                } else {
                    lat.branch
                };
                Some((now + cycles_at(penalty), WaitCause::Control))
            }
            InstrClass::Barrier => None,
        };

        let live = warp.advance_cursor(kernel);
        let cta_id = warp.cta_id;
        if live {
            match wait {
                Some((until, cause)) => warp.wait(until, cause),
                None => {
                    warp.state = WarpState::AtBarrier;
                    self.maybe_release_barrier(cta_id);
                }
            }
            None
        } else {
            // The warp finished; a trailing barrier is a no-op for it but may
            // unblock its siblings. Retirement of the CTA is deferred to the
            // caller, which must call `maybe_retire_cta` once the cycle's
            // issues are done.
            if wait.is_none() {
                self.maybe_release_barrier(cta_id);
            }
            Some(cta_id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BasicBlock, MemoryBehavior};
    use crate::memory::MemoryConfig;

    const PERIOD: u64 = 858;
    const EPOCH_CYCLES: u64 = 50_000;

    fn compute_kernel(iterations: u32) -> KernelSpec {
        KernelSpec::new(
            "compute",
            vec![BasicBlock::new(vec![InstrClass::IntAlu, InstrClass::FpAlu], iterations, 0.0)],
            2,
            4,
            MemoryBehavior::streaming(1 << 16),
        )
    }

    fn memory_kernel(iterations: u32) -> KernelSpec {
        KernelSpec::new(
            "memory",
            vec![BasicBlock::new(
                vec![InstrClass::LoadGlobal, InstrClass::IntAlu],
                iterations,
                0.0,
            )],
            2,
            4,
            MemoryBehavior::streaming(64 << 20),
        )
    }

    fn run_to_idle(sm: &mut SmCore, mem: &mut ClusterMemory) -> (EpochCounters, Time) {
        let lat = LatencyTable::titan_x();
        let mut counters = EpochCounters::zeroed();
        let mut start = Time::ZERO;
        for _ in 0..100 {
            sm.run_epoch(start, EPOCH_CYCLES, PERIOD, mem, &lat, &mut counters);
            start += Time::from_ps(EPOCH_CYCLES * PERIOD);
            if sm.is_idle() {
                return (counters, sm.finish_time().expect("idle SM records a finish time"));
            }
        }
        panic!("kernel did not finish in 100 epochs");
    }

    #[test]
    fn kernel_retires_exactly_its_instructions() {
        let k = compute_kernel(50);
        let total = k.total_instructions();
        let mut sm = SmCore::new(16, 2);
        sm.assign_kernel(k, (0..4).collect(), 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let (counters, _) = run_to_idle(&mut sm, &mut mem);
        assert_eq!(counters[CounterId::TotalInstrs] as u64, total);
        assert_eq!(
            counters[CounterId::IntAluInstrs] as u64 + counters[CounterId::FpAluInstrs] as u64,
            total
        );
    }

    #[test]
    fn compute_kernel_scales_with_frequency() {
        // The same kernel at half the clock should take roughly twice as long.
        let run_at = |period: u64| {
            let mut sm = SmCore::new(16, 2);
            sm.assign_kernel(compute_kernel(200), (0..4).collect(), 1);
            let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
            let lat = LatencyTable::titan_x();
            let mut counters = EpochCounters::zeroed();
            let mut start = Time::ZERO;
            for _ in 0..200 {
                sm.run_epoch(start, 20_000, period, &mut mem, &lat, &mut counters);
                start += Time::from_ps(20_000 * period);
                if sm.is_idle() {
                    return sm.finish_time().unwrap().as_nanos();
                }
            }
            panic!("did not finish");
        };
        let fast = run_at(858);
        let slow = run_at(1716);
        let ratio = slow / fast;
        assert!(
            (1.8..2.2).contains(&ratio),
            "compute-bound slowdown should track frequency, got {ratio:.3}"
        );
    }

    #[test]
    fn memory_kernel_is_frequency_insensitive() {
        let run_at = |period: u64| {
            let mut sm = SmCore::new(16, 2);
            sm.assign_kernel(memory_kernel(100), (0..4).collect(), 1);
            let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
            let lat = LatencyTable::titan_x();
            let mut counters = EpochCounters::zeroed();
            let mut start = Time::ZERO;
            for _ in 0..400 {
                sm.run_epoch(start, 20_000, period, &mut mem, &lat, &mut counters);
                start += Time::from_ps(20_000 * period);
                if sm.is_idle() {
                    return sm.finish_time().unwrap().as_nanos();
                }
            }
            panic!("did not finish");
        };
        let fast = run_at(858);
        let slow = run_at(1716);
        let ratio = slow / fast;
        assert!(
            ratio < 1.5,
            "memory-bound kernel should barely slow down at half clock, got {ratio:.3}"
        );
    }

    #[test]
    fn stalls_reflect_boundedness() {
        let lat = LatencyTable::titan_x();
        // Memory-bound kernel accumulates load stalls.
        let mut sm = SmCore::new(8, 2);
        sm.assign_kernel(memory_kernel(100), (0..4).collect(), 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let mut counters = EpochCounters::zeroed();
        sm.run_epoch(Time::ZERO, EPOCH_CYCLES, PERIOD, &mut mem, &lat, &mut counters);
        assert!(
            counters[CounterId::StallMemLoad] > counters[CounterId::StallDataDep],
            "memory kernel must be dominated by memory-hazard stalls"
        );
        assert!(counters[CounterId::L1ReadAccess] > 0.0);
        assert!(counters[CounterId::DramReads] > 0.0);
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let k = KernelSpec::new(
            "bar",
            vec![
                BasicBlock::new(vec![InstrClass::IntAlu, InstrClass::Barrier], 3, 0.0),
                BasicBlock::new(vec![InstrClass::FpAlu], 2, 0.0),
            ],
            4,
            2,
            MemoryBehavior::streaming(1 << 16),
        );
        let total = k.total_instructions();
        let mut sm = SmCore::new(16, 2);
        sm.assign_kernel(k, vec![0, 1], 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let (counters, _) = run_to_idle(&mut sm, &mut mem);
        assert_eq!(counters[CounterId::TotalInstrs] as u64, total);
        assert_eq!(counters[CounterId::BarrierInstrs] as u64, 3 * 4 * 2);
    }

    #[test]
    fn cta_capacity_limits_residency_but_all_work_completes() {
        let k = compute_kernel(20); // 4 CTAs x 2 warps, SM holds only 1 CTA at a time
        let total = k.total_instructions();
        let mut sm = SmCore::new(2, 2);
        sm.assign_kernel(k, (0..4).collect(), 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let (counters, _) = run_to_idle(&mut sm, &mut mem);
        assert_eq!(counters[CounterId::TotalInstrs] as u64, total);
    }

    #[test]
    fn idle_sm_accumulates_empty_stalls() {
        let mut sm = SmCore::new(4, 2);
        let lat = LatencyTable::titan_x();
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let mut counters = EpochCounters::zeroed();
        sm.run_epoch(Time::ZERO, 1_000, PERIOD, &mut mem, &lat, &mut counters);
        assert_eq!(counters[CounterId::StallEmpty], 1_000.0);
        assert_eq!(counters[CounterId::TotalInstrs], 0.0);
    }

    #[test]
    fn replay_determinism_across_frequencies() {
        // The instruction totals of a finished kernel are identical no
        // matter the frequency schedule it ran under.
        let totals_at = |period: u64| {
            let mut sm = SmCore::new(8, 2);
            sm.assign_kernel(memory_kernel(30), (0..2).collect(), 7);
            let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
            let (counters, _) = {
                let lat = LatencyTable::titan_x();
                let mut counters = EpochCounters::zeroed();
                let mut start = Time::ZERO;
                loop {
                    sm.run_epoch(start, 20_000, period, &mut mem, &lat, &mut counters);
                    start += Time::from_ps(20_000 * period);
                    if sm.is_idle() {
                        break (counters, ());
                    }
                }
            };
            (counters[CounterId::TotalInstrs] as u64, counters[CounterId::LoadGlobalInstrs] as u64)
        };
        assert_eq!(totals_at(858), totals_at(1464));
    }

    #[test]
    #[should_panic(expected = "warps per CTA")]
    fn oversized_cta_rejected() {
        let mut sm = SmCore::new(2, 1);
        let k = KernelSpec::new(
            "big",
            vec![BasicBlock::new(vec![InstrClass::IntAlu], 1, 0.0)],
            8,
            1,
            MemoryBehavior::streaming(1024),
        );
        sm.assign_kernel(k, vec![0], 1);
    }
}
