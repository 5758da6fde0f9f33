//! # dare-oracle — naive-scan reference schedulers, the **differential oracle**
//!
//! These are the pre-index implementations of FIFO, Fair, and Capacity,
//! preserved verbatim: task selection scans the job's pending vector and
//! [`classify`]s every task against the live location lookup; Fair's
//! deficit order is a full sort per offer. They are O(tasks × replicas)
//! per slot offer and exist for one reason: to *prove* the indexed
//! schedulers in `dare_sched` bit-identical. `tests/differential_oracle.rs`
//! replays the same seeded offer streams against both and asserts the
//! assignment sequences match exactly; the repository's
//! `tests/engine_differential.rs` injects them into whole simulations
//! through `dare_mapred::Engine::with_scheduler`; the scheduler
//! microbenchmark uses them as the "before" side of the speedup
//! measurement.
//!
//! Only tests and benches depend on this crate (`publish = false`); the
//! simulator itself has exactly one scheduler path.
//!
//! Selection semantics being checked (both paths must implement them):
//! the pick is the *first pending position* within the best locality
//! class — the scan keeps a candidate and replaces it only on a strict
//! improvement, breaking early on node-local.

#![warn(missing_docs)]

use dare_sched::fair::FairConfig;
use dare_sched::locality::{classify, Locality};
use dare_sched::{Assignment, JobId, JobQueue, LocationLookup, Scheduler, SkipDecision};
use dare_net::{NodeId, Topology};
use dare_simcore::SimTime;

/// Scan a job's pending tasks for the best-locality pick (naive path).
fn scan_best(
    queue: &JobQueue,
    job_id: JobId,
    node: NodeId,
    lookup: &dyn LocationLookup,
    topo: &Topology,
) -> (usize, Locality) {
    let job = queue.job(job_id).expect("job exists");
    let mut best: Option<(usize, Locality)> = None;
    for (idx, t) in job.pending().iter().enumerate() {
        let loc = classify(t.block, node, lookup, topo);
        match best {
            Some((_, b)) if b <= loc => {}
            _ => best = Some((idx, loc)),
        }
        if loc == Locality::NodeLocal {
            break; // can't do better
        }
    }
    best.expect("pending non-empty")
}

/// Scan-based FIFO: arrival order, full pending scan per offer.
#[derive(Debug, Default)]
pub struct NaiveFifoScheduler;

impl NaiveFifoScheduler {
    /// Construct.
    pub fn new() -> Self {
        NaiveFifoScheduler
    }
}

impl Scheduler for NaiveFifoScheduler {
    fn pick_map(
        &mut self,
        queue: &mut JobQueue,
        node: NodeId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
        _now: SimTime,
    ) -> Option<Assignment> {
        let job_id = queue.jobs().iter().find(|j| !j.pending().is_empty())?.id;
        let (idx, locality) = scan_best(queue, job_id, node, lookup, topo);
        let t = queue.take_task(job_id, idx);
        Some(Assignment {
            job: job_id,
            task: t.task,
            block: t.block,
            locality,
        })
    }

    fn name(&self) -> &'static str {
        "fifo-naive"
    }
}

/// Scan-based Fair with delay scheduling: full deficit sort + full pending
/// scan per offer.
#[derive(Debug, Default)]
pub struct NaiveFairScheduler {
    cfg: FairConfig,
    trace: bool,
    skip_log: Vec<SkipDecision>,
}

impl NaiveFairScheduler {
    /// Scheduler with default skip thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scheduler with explicit thresholds.
    pub fn with_config(cfg: FairConfig) -> Self {
        assert!(cfg.d1 <= cfg.d2, "rack threshold must not exceed any");
        NaiveFairScheduler {
            cfg,
            trace: false,
            skip_log: Vec::new(),
        }
    }
}

impl Scheduler for NaiveFairScheduler {
    fn pick_map(
        &mut self,
        queue: &mut JobQueue,
        node: NodeId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
        _now: SimTime,
    ) -> Option<Assignment> {
        // Deficit order recomputed from scratch: fewest running maps,
        // then arrival, then id (unique key — order is total).
        let mut order: Vec<JobId> = queue
            .jobs()
            .iter()
            .filter(|j| !j.pending().is_empty())
            .map(|j| j.id)
            .collect();
        order.sort_by_key(|&id| {
            let j = queue.job(id).expect("listed job exists");
            (j.running_maps(), j.arrival, j.id)
        });

        for job_id in order {
            let (idx, loc) = scan_best(queue, job_id, node, lookup, topo);
            let skip_count = queue.job(job_id).expect("job exists").skip_count;
            let allowed = match loc {
                Locality::NodeLocal => true,
                Locality::RackLocal => skip_count >= self.cfg.d1,
                Locality::Remote => skip_count >= self.cfg.d2,
            };
            if allowed {
                queue.job_mut(job_id).expect("job exists").skip_count = 0;
                let t = queue.take_task(job_id, idx);
                return Some(Assignment {
                    job: job_id,
                    task: t.task,
                    block: t.block,
                    locality: loc,
                });
            }
            if self.trace {
                self.skip_log.push(SkipDecision {
                    job: job_id,
                    node,
                    offered: loc,
                    skips: skip_count,
                });
            }
            queue.job_mut(job_id).expect("job exists").skip_count += 1;
        }
        None
    }

    fn name(&self) -> &'static str {
        "fair-naive"
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace = enabled;
        if !enabled {
            self.skip_log.clear();
        }
    }

    fn drain_skips(&mut self, out: &mut Vec<SkipDecision>) {
        out.append(&mut self.skip_log);
    }
}

/// Scan-based Capacity: per-offer usage tally + full pending scan.
#[derive(Debug)]
pub struct NaiveCapacityScheduler {
    queues: u32,
}

impl NaiveCapacityScheduler {
    /// Scheduler with `queues` equal-capacity queues (≥ 1).
    pub fn new(queues: u32) -> Self {
        assert!(queues >= 1, "need at least one queue");
        NaiveCapacityScheduler { queues }
    }
}

impl Scheduler for NaiveCapacityScheduler {
    fn pick_map(
        &mut self,
        queue: &mut JobQueue,
        node: NodeId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
        _now: SimTime,
    ) -> Option<Assignment> {
        let mut running = vec![0u32; self.queues as usize];
        let mut has_pending = vec![false; self.queues as usize];
        for j in queue.jobs() {
            let q = (j.id.0 % self.queues) as usize;
            running[q] += j.running_maps();
            has_pending[q] |= !j.pending().is_empty();
        }
        let q = (0..self.queues)
            .filter(|&q| has_pending[q as usize])
            .min_by_key(|&q| (running[q as usize], q))?;
        let job_id = queue
            .jobs()
            .iter()
            .find(|j| j.id.0 % self.queues == q && !j.pending().is_empty())
            .map(|j| j.id)
            .expect("chosen queue has pending work");
        let (idx, loc) = scan_best(queue, job_id, node, lookup, topo);
        let t = queue.take_task(job_id, idx);
        Some(Assignment {
            job: job_id,
            task: t.task,
            block: t.block,
            locality: loc,
        })
    }

    fn name(&self) -> &'static str {
        "capacity-naive"
    }
}
