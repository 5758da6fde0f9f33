//! The end-to-end run: repeat a workload's round closed-loop until the
//! run's time is used up, check every simulation's output, and reduce
//! the rounds to the end-to-end metrics.

use crate::calibrate;
use crate::sim::{self, Fnv};
use crate::stats;
use crate::workloads::Plan;
use crate::Report;
use std::time::Instant;

/// Rounds every run makes at least, so the behaviour digest is always
/// compared against a repeat.
const MIN_ROUNDS: usize = 2;

/// Host times, simulated aggregates and checks of one pass over a plan's
/// simulations.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub setup_s: f64,
    pub loop_s: f64,
    pub finish_s: f64,
    /// `Progressed` steps over all simulations.
    pub steps: u64,
    /// Simulated makespan seconds over all simulations.
    pub sim_secs: f64,
    /// Host seconds of each simulation.
    pub sim_wall_s: Vec<f64>,
    pub pending_peak: usize,
    /// Digest of every simulation's behaviour, in plan order.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub errors: Vec<String>,
    /// Mean per-simulation job locality and GMTT (simulated).
    pub job_locality: f64,
    pub gmtt_s: f64,
    pub maps: u64,
    pub replicas_created: u64,
    pub evictions: u64,
    pub remote_bytes: u64,
    pub declared_dead: u64,
    pub re_replicated: u64,
    pub recovery_bytes: u64,
}

/// Run every simulation of `plan` once, with `tweak` applied to each
/// configuration (the traced run switches observation features on).
pub fn round(
    plan: &Plan,
    sample_pending: bool,
    tweak: impl Fn(&mut dare_repro::mapred::SimConfig),
) -> Round {
    let start = Instant::now();
    let mut r = Round::default();
    let mut digest = Fnv::default();
    let mut ok = 0usize;
    for spec in &plan.sims {
        let mut cfg = spec.cfg.clone();
        tweak(&mut cfg);
        let run = sim::run(spec, cfg, &plan.workloads[spec.workload], sample_pending);
        r.setup_s += run.setup_s;
        r.loop_s += run.loop_s;
        r.finish_s += run.finish_s;
        r.steps += run.steps;
        r.sim_wall_s.push(run.wall_s());
        r.pending_peak = r.pending_peak.max(run.pending_peak);
        r.attempted += run.jobs;
        r.failed += run.failed_jobs();
        if let Err(e) = run.check() {
            r.errors.push(e);
        }
        match &run.result {
            Ok(res) => {
                ok += 1;
                digest.add(sim::digest(res));
                r.sim_secs += res.run.makespan_secs;
                r.job_locality += res.run.job_locality;
                r.gmtt_s += res.run.gmtt_secs;
                r.maps += res.run.maps;
                r.replicas_created += res.replicas_created;
                r.evictions += res.evictions;
                r.remote_bytes += res.remote_bytes_fetched;
                r.declared_dead += res.faults.nodes_declared_dead;
                r.re_replicated += res.faults.blocks_re_replicated;
                r.recovery_bytes += res.faults.recovery_bytes;
            }
            Err(_) => digest.add(u64::MAX),
        }
    }
    r.job_locality /= ok.max(1) as f64;
    r.gmtt_s /= ok.max(1) as f64;
    r.digest = digest.0;
    if let Err(e) = exercised(plan.name, &r) {
        r.errors.push(e);
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Each workload must keep exercising the mechanism it was chosen for, so
/// the benchmark cannot drift to inputs on which that layer idles.
fn exercised(workload: &str, r: &Round) -> Result<(), String> {
    let (what, holds) = match workload {
        "scale-dare" => (
            "DARE replicates and maps fetch remotely",
            r.replicas_created > 0 && r.remote_bytes > 0,
        ),
        "chaos-dare" => (
            "faults declare nodes dead and blocks are re-replicated",
            r.declared_dead > 0 && r.re_replicated > 0,
        ),
        _ => ("DARE policies create replicas", r.replicas_created > 0),
    };
    if holds {
        Ok(())
    } else {
        Err(format!("{workload}: expected that {what}"))
    }
}

/// Compare every round's digest with the first; `Err` on a mismatch.
pub fn same_behaviour(rounds: &[Round]) -> Result<u64, String> {
    let first = rounds[0].digest;
    match rounds.iter().position(|r| r.digest != first) {
        None => Ok(first),
        Some(i) => Err(format!(
            "behaviour changed between repeats: round 0 digest {first:016x}, round {i} digest {:016x}",
            rounds[i].digest
        )),
    }
}

/// The end-to-end run of `plan` for about `seconds`.
pub fn run(plan: &Plan, seconds: f64, report: &mut Report) {
    let start = Instant::now();
    let mut references = vec![calibrate::reference_s()];
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(plan, false, |_| {}));
        references.push(calibrate::reference_s());
    }
    for r in &rounds {
        report.attempted += r.attempted;
        report.failed += r.failed;
        report.errors.extend(r.errors.iter().cloned());
    }
    match same_behaviour(&rounds) {
        Ok(d) => report.note(format!("digest {d:016x} in all {} rounds", rounds.len())),
        Err(e) => report.errors.push(e),
    }
    let first = &rounds[0];
    report.note(format!(
        "behaviour: sims={} steps={} jobs={} failed={} makespan_sum_s={:.3} maps={} replicas={} evictions={} \
         remote_bytes={} declared_dead={} re_replicated={}",
        first.sim_wall_s.len(),
        first.steps,
        first.attempted,
        first.failed,
        first.sim_secs,
        first.maps,
        first.replicas_created,
        first.evictions,
        first.remote_bytes,
        first.declared_dead,
        first.re_replicated,
    ));

    // Per round: host seconds are multiplied by `speed`, rates divided.
    let speed: Vec<f64> = references
        .windows(2)
        .map(|w| calibrate::speed(w[0], w[1]))
        .collect();
    report.note_spread("raw reference_s", &stats::spread(&references));
    // (metric, is a time rather than a rate, value of a round)
    type Timed = (&'static str, bool, fn(&Round) -> f64);
    let timed: [Timed; 5] = [
        ("wall_s", true, |r| r.wall_s),
        ("setup_s", true, |r| r.setup_s),
        ("loop_s", true, |r| r.loop_s),
        ("dispatched_eps", false, |r| r.steps as f64 / r.loop_s),
        ("sim_speed", false, |r| r.sim_secs / r.loop_s),
    ];
    for (name, is_time, value) in timed {
        let raw: Vec<f64> = rounds.iter().map(value).collect();
        let scaled: Vec<f64> = raw
            .iter()
            .zip(&speed)
            .map(|(v, k)| if is_time { v * k } else { v / k })
            .collect();
        report.note_spread(&format!("raw {name}"), &stats::spread(&raw));
        let s = stats::spread(&scaled);
        report.note_spread(name, &s);
        report.metric(name, s.median);
    }
    let sim_ms = |k: &dyn Fn(usize) -> f64| -> Vec<f64> {
        rounds
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.sim_wall_s.iter().map(move |s| s * 1e3 * k(i)))
            .collect()
    };
    let (raw_ms, scaled_ms) = (sim_ms(&|_| 1.0), sim_ms(&|i| speed[i]));
    report.note_spread("raw sim_p50_ms", &stats::spread(&raw_ms));
    let s = stats::spread(&scaled_ms);
    report.note_spread("sim_p50_ms", &s);
    report.metric("sim_p50_ms", s.median);
    // The p95 is reported only where at least ten simulations lie beyond it.
    if scaled_ms.len() / 20 >= 10 {
        report.note(format!(
            "sim_p95_ms {} over {} simulations",
            stats::percentile(&scaled_ms, 0.95),
            scaled_ms.len()
        ));
    }
    report.metric("peak_rss_mb", crate::peak_rss_mb());
    report.metric("job_locality", first.job_locality);
    report.metric("gmtt_s", first.gmtt_s);
}
