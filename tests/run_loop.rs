//! The engine has one run loop and one definition of "run finished":
//! `Engine::try_run` is a loop over `Engine::step`, and both stop at
//! `Engine::is_quiescent`. These tests pin that on the durability setup
//! (EC2, background block scanner), where the scrub chain never runs dry
//! and so must not count as pending work.

use dare_core::PolicyKind;
use dare_mapred::{
    Engine, FaultPlan, FaultSpec, ScannerConfig, SchedulerKind, SimConfig, SimResult, StepOutcome,
    TelemetryConfig,
};
use dare_simcore::{DetRng, SimDuration};
use dare_telemetry::Subsystem;
use dare_workload::swim::{synthesize, SwimParams};
use dare_workload::Workload;

const SEED: u64 = 20110926;

/// Far more steps than a 30-job run dispatches, far fewer than a run held
/// open by the scrub chain would take to hit it.
const STEP_CAP: u64 = 100_000;

fn workload() -> Workload {
    synthesize(
        "wl1-run-loop",
        &SwimParams {
            jobs: 30,
            ..SwimParams::wl1()
        },
        SEED,
    )
}

/// The durability experiment's configuration: EC2, Fair, scanner at a
/// 15 s period / 32 MB/s budget, invariants armed, and a fault plan from
/// `spec` over the workload's block namespace.
fn durability_cfg(wl: &Workload, spec: FaultSpec) -> SimConfig {
    let base = SimConfig::ec2(PolicyKind::GreedyLru, SchedulerKind::fair_default(), SEED);
    let racks = base
        .profile
        .build_topology(&mut DetRng::new(SEED).substream("topology"))
        .racks();
    let bs = base.dfs.block_size;
    let blocks: u64 = wl.files.iter().map(|f| f.size_bytes.div_ceil(bs)).sum();
    let plan = FaultPlan::generate_with_blocks(&spec, base.profile.nodes, racks, blocks, SEED);
    base.with_scanner(ScannerConfig {
        period: SimDuration::from_secs(15),
        bytes_per_sec: 32 << 20,
    })
    .with_invariant_checks()
    .with_faults(plan)
}

fn rot_only(wl: &Workload) -> FaultSpec {
    let span = wl
        .jobs
        .last()
        .map(|j| j.arrival.as_secs_f64())
        .unwrap_or(0.0) as u64;
    FaultSpec {
        horizon_secs: span.max(30) * 3 / 4,
        kills: 0,
        crashes: 0,
        mean_down_secs: 0,
        rack_outages: 0,
        stragglers: 0,
        straggler_factor: 1.0,
        corruption_rate_per_node_hour: 120.0,
    }
}

/// Step until `Quiescent`, returning the number of `Progressed` steps.
fn step_to_quiescence(eng: &mut Engine) -> u64 {
    let mut steps = 0;
    loop {
        match eng.step().expect("step") {
            StepOutcome::Progressed => steps += 1,
            StepOutcome::Quiescent => return steps,
        }
        assert!(
            steps < STEP_CAP,
            "not quiescent after {steps} steps at t={:.0}s",
            eng.sim_now().as_secs_f64()
        );
    }
}

/// Undetected corrupt replicas on live nodes.
fn live_rot(eng: &Engine) -> usize {
    (0..eng.num_nodes() as u32)
        .filter(|&n| eng.node_alive(n))
        .map(|n| {
            (0..eng.num_blocks() as u64)
                .filter(|&b| eng.block_corrupt_at(n, b))
                .count()
        })
        .sum()
}

#[test]
fn scanner_run_with_corruption_reaches_quiescence() {
    let wl = workload();
    let mut eng = Engine::new(durability_cfg(&wl, rot_only(&wl)), &wl);
    step_to_quiescence(&mut eng);
    assert!(
        eng.fault_stats().replicas_corrupted > 0,
        "the plan must rot replicas"
    );
    assert_eq!(eng.recovery_backlog(), 0);
    assert_eq!(
        live_rot(&eng),
        0,
        "the scanner found every live corrupt replica"
    );
    let r = eng.run();
    assert_eq!(r.run.jobs + r.run.failed_jobs, 30);
}

#[test]
fn rot_on_a_live_node_holds_quiescence_until_the_scanner_finds_it() {
    let wl = workload();
    let mut eng = Engine::new(durability_cfg(&wl, rot_only(&wl)), &wl);
    step_to_quiescence(&mut eng);
    let detections = eng.fault_stats().scrub_detections;
    let (node, block) = (0..eng.num_nodes() as u32)
        .filter(|&n| eng.node_alive(n))
        .find_map(|n| {
            (0..eng.num_blocks() as u64)
                .find(|&b| eng.block_present(n, b))
                .map(|b| (n, b))
        })
        .expect("some live node holds a replica");
    eng.inject_corrupt(node, block);
    assert!(
        step_to_quiescence(&mut eng) > 0,
        "rot after the last job is pending work"
    );
    assert!(
        !eng.block_corrupt_at(node, block),
        "the replica was quarantined"
    );
    assert_eq!(eng.fault_stats().scrub_detections, detections + 1);
    assert_eq!(eng.recovery_backlog(), 0, "and its repair drained");
}

fn assert_same_run(a: &SimResult, b: &SimResult) {
    assert_eq!(a.outcomes, b.outcomes, "job outcomes");
    assert_eq!(a.faults, b.faults, "fault stats");
    assert_eq!(a.dfs_fingerprint, b.dfs_fingerprint, "final replica map");
    assert_eq!(a.logical_events, b.logical_events, "event count");
    let export = |r: &SimResult| r.telemetry.as_ref().expect("telemetry").to_jsonl();
    assert_eq!(export(a), export(b), "telemetry export");
}

#[test]
fn run_equals_stepping_to_quiescence_then_run() {
    let wl = workload();
    let spec = FaultSpec {
        kills: 1,
        crashes: 3,
        mean_down_secs: 45,
        ..rot_only(&wl)
    };
    let cfg = durability_cfg(&wl, spec).with_telemetry(TelemetryConfig::default());
    let ran = Engine::new(cfg.clone(), &wl).run();
    let mut eng = Engine::new(cfg, &wl);
    let steps = step_to_quiescence(&mut eng);
    let stepped = eng.run();
    assert!(
        ran.faults.nodes_declared_dead > 0,
        "the plan must crash nodes"
    );
    assert_eq!(steps, stepped.logical_events);
    assert_same_run(&ran, &stepped);
}

#[test]
fn stepped_profile_charges_one_queue_pop_per_step() {
    let wl = workload();
    let cfg = SimConfig::ec2(PolicyKind::GreedyLru, SchedulerKind::fair_default(), SEED)
        .with_self_profile();
    let mut eng = Engine::new(cfg, &wl);
    let steps = step_to_quiescence(&mut eng);
    let profile = eng.run().profile.expect("profile");
    assert_eq!(profile.of(Subsystem::Queue).0, steps);
}
