//! The benchmark's workloads: which simulations one round runs, built
//! from the workload seed through the simulator's public API only.
//!
//! Every configuration uses the engine's default paths (calendar queue,
//! per-node heartbeats, indexed schedulers). None of them sets
//! `batched_heartbeats`, `with_heap_queue` or `naive_scan`: those are
//! alternative engine paths slated for removal, and the benchmark must
//! keep measuring the one path users run.

use dare_repro::core::PolicyKind;
use dare_repro::mapred::{FaultPlan, FaultSpec, SchedulerKind, SimConfig};
use dare_repro::net::ClusterProfile;
use dare_repro::simcore::DetRng;
use dare_repro::workload::swim::{self, SwimParams};
use dare_repro::workload::Workload;

/// Workload names, as `--workload` takes them and `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper-sweep", "scale-dare", "chaos-dare"];

/// How big a workload is built: the benchmark's size, or a toy size that
/// exercises the same code in well under a second (the package's tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

/// One simulation of a round: its configuration and which synthesized
/// workload it replays.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub label: String,
    pub cfg: SimConfig,
    pub workload: usize,
}

/// Everything one round needs. Inputs depend only on (name, seed, size).
pub struct Plan {
    pub name: &'static str,
    pub workloads: Vec<Workload>,
    pub sims: Vec<SimSpec>,
    /// Wall seconds spent in `swim::synthesize` (reported, never part of
    /// the end-to-end times).
    pub synth_s: f64,
}

/// Build workload `name`'s round from `seed`. `None` for an unknown name.
pub fn plan(name: &str, seed: u64, size: Size) -> Option<Plan> {
    let (name, start) = (
        NAMES.iter().copied().find(|n| *n == name)?,
        std::time::Instant::now(),
    );
    let (workloads, sims) = match name {
        "paper-sweep" => paper_sweep(seed, size),
        "scale-dare" => scale_dare(seed, size),
        _ => chaos_dare(seed, size),
    };
    Some(Plan {
        name,
        workloads,
        sims,
        synth_s: start.elapsed().as_secs_f64(),
    })
}

/// Per-replicate seed derived from the workload seed, so replicates are
/// independent but fixed by `--seed`.
fn derived(seed: u64, stream: &str, i: u64) -> u64 {
    DetRng::new(seed).substream_idx(stream, i).next_u64()
}

/// Figs. 7–10: wl1 on the 20-node CCT profile and wl2 on the 100-node EC2
/// profile, each under {vanilla, DARE-LRU, ElephantTrap} × {FIFO, Fair},
/// over several seeds. Paper-scale runs where setup is negligible and
/// heartbeat scheduling plus the event queue dominate.
fn paper_sweep(seed: u64, size: Size) -> (Vec<Workload>, Vec<SimSpec>) {
    let (replicates, jobs) = match size {
        Size::Full => (10, None),
        Size::Toy => (1, Some(40)),
    };
    let policies = [
        PolicyKind::Vanilla,
        PolicyKind::GreedyLru,
        PolicyKind::elephant_default(),
    ];
    let schedulers = [SchedulerKind::Fifo, SchedulerKind::fair_default()];
    let mut workloads = Vec::new();
    let mut sims = Vec::new();
    for k in 0..replicates {
        let s = derived(seed, "paper-sweep", k);
        for (wl, mut params, base) in [
            (
                "wl1",
                SwimParams::wl1(),
                SimConfig::cct as fn(_, _, _) -> SimConfig,
            ),
            ("wl2", SwimParams::wl2(), SimConfig::ec2),
        ] {
            if let Some(j) = jobs {
                params.jobs = j;
            }
            workloads.push(swim::synthesize(wl, &params, s));
            for sched in schedulers {
                for policy in policies {
                    sims.push(SimSpec {
                        label: format!("{wl}/{}/{}/{k}", sched.label(), policy.label()),
                        cfg: base(policy, sched, s),
                        workload: workloads.len() - 1,
                    });
                }
            }
        }
    }
    (workloads, sims)
}

/// A 10,000-node scale profile under DARE-LRU with Fair delay scheduling,
/// over a SWIM-wl2-shaped input (Zipf popularity, whales): the regime
/// where DARE creates and evicts replicas at cluster scale, and where
/// ingest placement (setup), FlowSim (net) and heartbeats (sched) all
/// carry real load.
///
/// Every small file has 30 blocks, task times and outputs vary little, and
/// re-access comes from the Zipf law alone, without focal-file phases. The
/// seed then moves which files are hot and when jobs arrive, but not how
/// much work a round holds: with lognormal sizes and phases, a handful of
/// focal files decided each seed's load, and loop time, locality and peak
/// memory swung by 10-20% between seeds.
fn scale_dare(seed: u64, size: Size) -> (Vec<Workload>, Vec<SimSpec>) {
    let (sims, nodes, files, jobs) = match size {
        Size::Full => (2, 10_000, 1_000, 600),
        Size::Toy => (1, 400, 60, 60),
    };
    let params = SwimParams {
        jobs,
        files,
        mean_interarrival_secs: 0.3,
        small_blocks_median: 30.0,
        small_blocks_sigma: 0.0,
        small_blocks_max: 240,
        output_ratio_median: 0.05,
        map_compute_sigma: 0.2,
        focal_prob: 0.0,
        ..SwimParams::wl2()
    };
    let mut workloads = Vec::new();
    let mut specs = Vec::new();
    for k in 0..sims {
        let s = derived(seed, "scale-dare", k);
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), s);
        cfg.profile = ClusterProfile::scale(nodes);
        specs.push(SimSpec {
            label: format!("scale{nodes}/fair/lru/{k}"),
            cfg,
            workload: workloads.len(),
        });
        workloads.push(swim::synthesize("scale-dare", &params, s));
    }
    (workloads, specs)
}

/// A 200-node scale profile under DARE-LRU + Fair with every invariant
/// armed and a dense fault plan (kills, crashes, a rack outage,
/// stragglers, silent corruption) over the jobs' horizon. It loads the
/// write side of dfs and net (re-replication, quarantine, recovery flows)
/// and the invariant catalog, which the read-heavy workloads never touch.
/// Eight small simulations per round, with uniform 8-block files and no
/// focal-file phases, average out which jobs a seed's faults hit.
fn chaos_dare(seed: u64, size: Size) -> (Vec<Workload>, Vec<SimSpec>) {
    let (fault_seeds, nodes, files, jobs) = match size {
        Size::Full => (8, 200, 100, 40),
        Size::Toy => (1, 60, 40, 30),
    };
    let params = SwimParams {
        jobs,
        files,
        small_blocks_median: 8.0,
        small_blocks_max: 64,
        small_blocks_sigma: 0.0,
        focal_prob: 0.0,
        ..SwimParams::wl2()
    };
    let mut workloads = Vec::new();
    let mut sims = Vec::new();
    for k in 0..fault_seeds {
        let s = derived(seed, "chaos-dare", k);
        let wl = swim::synthesize("chaos-dare", &params, s);
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), s);
        cfg.profile = ClusterProfile::scale(nodes);
        cfg.check_invariants = true;
        let horizon = wl
            .jobs
            .last()
            .map_or(60, |j| j.arrival.as_secs_f64() as u64);
        cfg.faults = fault_plan(&cfg, &wl, horizon, s);
        sims.push(SimSpec {
            label: format!("chaos{nodes}/fair/lru/{k}"),
            cfg,
            workload: workloads.len(),
        });
        workloads.push(wl);
    }
    (workloads, sims)
}

/// A dense fault plan over `[1, horizon]` from
/// `FaultPlan::generate_with_blocks`. The generator may draw overlapping
/// outages on one node, which the plan validator rejects; such a draw is
/// discarded and the next derived plan seed tried, so every plan the
/// benchmark runs is one the engine's contract accepts. Tasks get eight
/// attempts instead of Hadoop's four: with four, half the seeds of a probe
/// lost one job to a task whose retries all landed in outages, and the
/// workload exists to measure recovery work, not job loss.
fn fault_plan(cfg: &SimConfig, wl: &Workload, horizon: u64, seed: u64) -> FaultPlan {
    let nodes = cfg.profile.nodes;
    let spec = FaultSpec {
        horizon_secs: horizon.max(60),
        kills: (nodes / 100).max(1),
        crashes: (nodes / 20).max(2),
        mean_down_secs: 45,
        rack_outages: 1,
        stragglers: (nodes / 25).max(1),
        straggler_factor: 4.0,
        corruption_rate_per_node_hour: 2.0,
    };
    let blocks: u64 = wl
        .files
        .iter()
        .map(|f| f.size_bytes.div_ceil(cfg.dfs.block_size))
        .sum();
    let topo = cfg
        .profile
        .build_topology(&mut DetRng::new(cfg.seed).substream("topology"));
    (0..1000)
        .map(|i| {
            FaultPlan::generate_with_blocks(
                &spec,
                nodes,
                topo.racks(),
                blocks,
                derived(seed, "faults", i),
            )
        })
        .find(|p| p.validate(nodes).is_ok() && p.validate_topology(&topo).is_ok())
        .map(|p| FaultPlan {
            max_task_attempts: 8,
            ..p
        })
        .expect("some derived seed yields a valid fault plan")
}
