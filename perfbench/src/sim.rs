//! One closed-loop simulation, driven through the public engine API
//! (`Engine::new` → `step()` until `Quiescent` → `run()`), timed from
//! outside, with its output checks and behaviour digest.

use crate::workloads::SimSpec;
use dare_repro::mapred::{Engine, SimConfig, SimResult, StepOutcome};
use dare_repro::metrics::JobStatus;
use dare_repro::workload::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Host-time split and outcome of one simulation.
pub struct SimRun {
    /// Seconds in `Engine::new`.
    pub setup_s: f64,
    /// Seconds from the first `step()` to `Quiescent`.
    pub loop_s: f64,
    /// Seconds in the final `run()`.
    pub finish_s: f64,
    /// `Progressed` steps.
    pub steps: u64,
    /// Highest `pending_events()` seen between steps (only when sampled).
    pub pending_peak: usize,
    /// Jobs the workload submits.
    pub jobs: u64,
    /// The result, or why the simulation failed (error or panic).
    pub result: Result<SimResult, String>,
}

impl SimRun {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.loop_s + self.finish_s
    }

    /// Jobs counted as failed: the simulated failures, or every job of a
    /// simulation that errored or panicked.
    pub fn failed_jobs(&self) -> u64 {
        match &self.result {
            Ok(r) => r
                .outcomes
                .iter()
                .filter(|o| o.status == JobStatus::Failed)
                .count() as u64,
            Err(_) => self.jobs,
        }
    }

    /// Output checks: `Err` names the first one that fails.
    ///
    /// * the run finished without error or panic;
    /// * every `Progressed` step is one logical event, so rates count
    ///   dispatched events and never batched credits;
    /// * every submitted job reached exactly one terminal outcome.
    ///
    /// Invariant violations (with `check_invariants` on) surface as engine
    /// errors, so they fail the first check.
    pub fn check(&self) -> Result<(), String> {
        let r = self.result.as_ref().map_err(Clone::clone)?;
        if self.steps != r.logical_events {
            return Err(format!(
                "{} Progressed steps but {} logical events",
                self.steps, r.logical_events
            ));
        }
        let done = r
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, JobStatus::Completed | JobStatus::Failed))
            .count() as u64;
        if done != self.jobs || (r.run.jobs + r.run.failed_jobs) as u64 != self.jobs {
            return Err(format!("{done} terminal outcomes for {} jobs", self.jobs));
        }
        Ok(())
    }
}

/// Run `spec` over `workload` with `cfg` (the spec's configuration,
/// possibly with observation features switched on). Errors and panics are
/// caught and returned as the run's result.
pub fn run(spec: &SimSpec, cfg: SimConfig, workload: &Workload, sample_pending: bool) -> SimRun {
    let jobs = workload.jobs.len() as u64;
    let mut out = SimRun {
        setup_s: 0.0,
        loop_s: 0.0,
        finish_s: 0.0,
        steps: 0,
        pending_peak: 0,
        jobs,
        result: Err(String::new()),
    };
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<SimResult, String> {
        let t0 = Instant::now();
        let mut engine = Engine::new(cfg, workload);
        let t1 = Instant::now();
        out.setup_s = (t1 - t0).as_secs_f64();
        loop {
            match engine.step() {
                Ok(StepOutcome::Progressed) => out.steps += 1,
                Ok(StepOutcome::Quiescent) => break,
                Err(e) => {
                    out.loop_s = t1.elapsed().as_secs_f64();
                    return Err(format!("{}: {e}", spec.label));
                }
            }
            if sample_pending {
                out.pending_peak = out.pending_peak.max(engine.pending_events());
            }
        }
        let t2 = Instant::now();
        out.loop_s = (t2 - t1).as_secs_f64();
        let result = engine.run();
        out.finish_s = t2.elapsed().as_secs_f64();
        Ok(result)
    }));
    out.result = match caught {
        Ok(r) => r,
        Err(panic) => Err(format!("{}: panic: {}", spec.label, panic_message(&panic))),
    };
    out
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into())
}

/// FNV-1a over the simulated behaviour of one run: every job outcome, the
/// makespan, the event count, DARE's replica counters, remote bytes, the
/// fault counters and the final replica map fingerprint. Equal digests
/// mean the same simulated behaviour; host timings are not included.
pub fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv::default();
    for o in &r.outcomes {
        h.add(o.id as u64);
        h.add((o.status == JobStatus::Completed) as u64);
        h.add(o.arrival.as_micros());
        h.add(o.completed.as_micros());
        h.add(((o.node_local as u64) << 32) | o.rack_local as u64);
        h.add(o.remote as u64);
    }
    let f = &r.faults;
    for v in [
        r.run.makespan_secs.to_bits(),
        r.logical_events,
        r.replicas_created,
        r.evictions,
        r.remote_bytes_fetched,
        r.dfs_fingerprint,
        f.nodes_declared_dead,
        f.blocks_re_replicated,
        f.recovery_bytes,
        f.blocks_lost,
        f.tasks_retried,
        f.replicas_quarantined,
    ] {
        h.add(v);
    }
    h.0
}

/// 64-bit FNV-1a, fed whole `u64` words.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
