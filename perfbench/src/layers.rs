//! The traced run: per-layer metrics, measured from outside by timing
//! public calls around each layer, or read from the engine's existing
//! self-profile report and result counters. Its legs:
//!
//! * base: the end-to-end round as configured, sampling the event-queue
//!   depth between steps;
//! * replay: topology, capacity sampling and dataset ingest rebuilt from
//!   the same seed substreams `Engine::new` uses, timed per layer;
//! * profile: each simulation through `Engine::run()` with
//!   `self_profile`, for the per-arm dispatch shares (the `step()` path
//!   does not time the queue pop; `run()` does);
//! * observation overheads: rounds with `record_trace`, `telemetry` or
//!   `self_profile` switched on, over the loop time of plain rounds;
//! * invariants (only where they are armed): plain rounds minus rounds
//!   with checks off.
//!
//! The comparisons share the run's `--seconds` and run in pairs at the
//! reference speed (see `paired`); the other legs run once.

use crate::measure::{self, Round};
use crate::workloads::Plan;
use crate::Report;
use crate::{calibrate, stats};
use dare_repro::dfs::{DefaultPlacement, Dfs};
use dare_repro::mapred::{Engine, SimConfig, TelemetryConfig};
use dare_repro::simcore::{DetRng, SimTime};
use dare_repro::telemetry::profile::Subsystem;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const GB: f64 = 1e9;

pub fn run(plan: &Plan, seconds: f64, report: &mut Report) {
    let base = measure::round(plan, true, |_| {});
    report.attempted += base.attempted;
    report.failed += base.failed;
    report.errors.extend(base.errors.iter().cloned());
    report.note(format!("base round digest {:016x}", base.digest));

    let (topology_s, ingest_s, setup_s, blocks) = replay_setup(plan);
    let arms = profile_arms(plan, report);
    let total_ns = arms.iter().map(|a| a.1).sum::<u64>().max(1) as f64;
    let arm = |s: Subsystem| {
        arms[ARMS
            .iter()
            .position(|a| *a == s)
            .expect("every arm is listed")]
    };
    let share = |s: Subsystem| arm(s).1 as f64 / total_ns;
    let events = |s: Subsystem| arm(s).0;

    // Each comparison alternates (base, changed) round pairs until its
    // share of the run's time is used, and reports the median over pairs,
    // so a slow spell of the host hits both sides of a pair alike.
    let checked = plan.sims.iter().any(|s| s.cfg.check_invariants);
    let comparisons = if checked { 4.0 } else { 3.0 };
    let budget = seconds / comparisons;
    let (invariant_s, invariant_share) = if checked {
        let pairs = paired(plan, report, &base, budget, &|c| c.check_invariants = false);
        let saved: Vec<f64> = pairs.iter().map(|(b, off)| b - off).collect();
        let share: Vec<f64> = pairs.iter().map(|(b, off)| (b - off) / b).collect();
        (stats::spread(&saved).median, stats::spread(&share).median)
    } else {
        (0.0, 0.0)
    };
    let mut overhead = |tweak: &dyn Fn(&mut SimConfig)| {
        let ratios: Vec<f64> = paired(plan, report, &base, budget, tweak)
            .iter()
            .map(|(b, on)| on / b)
            .collect();
        stats::spread(&ratios).median
    };
    let trace = overhead(&|c| c.record_trace = true);
    let telemetry = overhead(&|c| c.telemetry = Some(TelemetryConfig::default()));
    let profile = overhead(&|c| c.self_profile = true);
    report.note(format!("peak_rss_mb {}", crate::peak_rss_mb()));

    for (name, value) in [
        ("workload.synth_s", plan.synth_s),
        ("net.topology_s", topology_s),
        ("dfs.ingest_s", ingest_s),
        (
            "dfs.ingest_us_per_block",
            ingest_s * 1e6 / blocks.max(1) as f64,
        ),
        ("dfs.ingest_share_of_setup", ingest_s / setup_s),
        ("mapred.finish_s", base.finish_s),
        ("sched.share", share(Subsystem::Sched)),
        ("sched.events", events(Subsystem::Sched) as f64),
        (
            "sched.events_per_map",
            events(Subsystem::Sched) as f64 / base.maps.max(1) as f64,
        ),
        ("net.share", share(Subsystem::Net)),
        ("net.events", events(Subsystem::Net) as f64),
        ("net.remote_gb", base.remote_bytes as f64 / GB),
        ("simcore.queue_share", share(Subsystem::Queue)),
        ("simcore.pending_peak", base.pending_peak as f64),
        ("dfs.share", share(Subsystem::Dfs)),
        ("mapred.fault_share", share(Subsystem::Fault)),
        ("mapred.invariant_s", invariant_s),
        ("mapred.invariant_share", invariant_share),
        ("mapred.faults.declared_dead", base.declared_dead as f64),
        (
            "mapred.faults.blocks_re_replicated",
            base.re_replicated as f64,
        ),
        ("mapred.faults.recovery_gb", base.recovery_bytes as f64 / GB),
        ("core.replicas_created", base.replicas_created as f64),
        ("core.evictions", base.evictions as f64),
        (
            "core.evict_per_replica",
            base.evictions as f64 / base.replicas_created.max(1) as f64,
        ),
        ("trace.overhead", trace),
        ("telemetry.overhead", telemetry),
        ("profile.overhead", profile),
    ] {
        report.metric(name, value);
    }
}

/// The self-profiler's dispatch arms.
const ARMS: [Subsystem; 5] = [
    Subsystem::Sched,
    Subsystem::Dfs,
    Subsystem::Net,
    Subsystem::Fault,
    Subsystem::Queue,
];

/// Loop seconds of (base, changed) round pairs, alternating, until
/// `budget` seconds have passed (at least one pair), each rescaled to the
/// reference speed measured around it (see `calibrate`). The change may
/// only observe or check: every changed round's digest must equal the
/// base's.
fn paired(
    plan: &Plan,
    report: &mut Report,
    base: &Round,
    budget: f64,
    tweak: &dyn Fn(&mut SimConfig),
) -> Vec<(f64, f64)> {
    let start = Instant::now();
    let mut pairs = Vec::new();
    while pairs.is_empty() || start.elapsed().as_secs_f64() < budget {
        let r0 = calibrate::reference_s();
        let b = measure::round(plan, false, |_| {});
        let r1 = calibrate::reference_s();
        let changed = measure::round(plan, false, tweak);
        let r2 = calibrate::reference_s();
        for r in [&b, &changed] {
            report.errors.extend(r.errors.iter().cloned());
            if r.digest != base.digest {
                report.errors.push(format!(
                    "behaviour changed under observation: digest {:016x} vs base {:016x}",
                    r.digest, base.digest
                ));
            }
        }
        pairs.push((
            b.loop_s * calibrate::speed(r0, r1),
            changed.loop_s * calibrate::speed(r1, r2),
        ));
    }
    pairs
}

/// Rebuild each simulation's topology, capacities and ingested dataset
/// exactly as `Engine::new` does (same seed substreams, same placement
/// policy), timing topology + capacity sampling and ingest apart, then
/// time a whole `Engine::new` right after, so the ingest share of setup
/// compares two times taken moments apart. Returns (topology seconds,
/// ingest seconds, setup seconds, blocks ingested).
fn replay_setup(plan: &Plan) -> (f64, f64, f64, u64) {
    let (mut topology_s, mut ingest_s, mut setup_s, mut blocks) = (0.0, 0.0, 0.0, 0u64);
    for spec in &plan.sims {
        let cfg = &spec.cfg;
        let root = DetRng::new(cfg.seed);
        let t0 = Instant::now();
        let topo = cfg.profile.build_topology(&mut root.substream("topology"));
        let mut caps = root.substream("capacities");
        black_box(cfg.profile.sample_disk_capacities(&mut caps));
        black_box(cfg.profile.sample_nic_capacities(&mut caps));
        let t1 = Instant::now();
        let mut dfs = Dfs::new(cfg.dfs.clone(), topo);
        let mut rng = root.substream("ingest");
        for f in &plan.workloads[spec.workload].files {
            dfs.create_file(
                SimTime::ZERO,
                f.name.clone(),
                f.size_bytes,
                None,
                &DefaultPlacement,
                &mut rng,
                false,
            );
        }
        blocks += dfs.namenode().num_blocks() as u64;
        black_box(&dfs);
        ingest_s += t1.elapsed().as_secs_f64();
        topology_s += (t1 - t0).as_secs_f64();
        drop(dfs);
        let t2 = Instant::now();
        let engine = black_box(Engine::new(cfg.clone(), &plan.workloads[spec.workload]));
        setup_s += t2.elapsed().as_secs_f64();
        drop(engine);
    }
    (topology_s, ingest_s, setup_s, blocks)
}

/// Per-arm (events, wall nanoseconds) in `ARMS` order, summed over the
/// plan's simulations run through `Engine::run()` with the self-profiler on.
fn profile_arms(plan: &Plan, report: &mut Report) -> [(u64, u64); 5] {
    let mut out = [(0u64, 0u64); 5];
    for spec in &plan.sims {
        let mut cfg = spec.cfg.clone();
        cfg.self_profile = true;
        let wl = &plan.workloads[spec.workload];
        let caught = catch_unwind(AssertUnwindSafe(|| Engine::new(cfg, wl).try_run()));
        match caught {
            Ok(Ok(res)) => {
                let p = res.profile.expect("self_profile yields a profile report");
                for (sum, arm) in out.iter_mut().zip(ARMS) {
                    let (events, wall_ns) = p.of(arm);
                    sum.0 += events;
                    sum.1 += wall_ns;
                }
            }
            Ok(Err(e)) => report
                .errors
                .push(format!("{}: profiled run: {e}", spec.label)),
            Err(_) => report
                .errors
                .push(format!("{}: profiled run panicked", spec.label)),
        }
    }
    out
}
