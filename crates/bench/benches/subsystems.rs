//! Micro-benchmarks of the simulator substrates: scheduler slot-offer hot
//! path, name-node location lookups and report processing, block ingest
//! at scale, and flow-level network churn.

use dare_bench::microbench::{black_box, Runner};
use dare_dfs::{BlockId, DefaultPlacement, Dfs, DfsConfig};
use dare_mapred::DfsLookup;
use dare_net::flow::FlowSim;
use dare_net::{ClusterProfile, NodeId, Topology, MB};
use dare_sched::{
    FairScheduler, FifoScheduler, JobId, JobQueue, PendingTask, Scheduler, TaskId,
};
use dare_simcore::{DetRng, SimTime};

fn build_dfs(nodes: u32, files: u32, blocks: u64) -> Dfs {
    let mut rng = DetRng::new(1);
    let mut dfs = Dfs::new(DfsConfig::default(), Topology::single_rack(nodes));
    for i in 0..files {
        dfs.create_file(
            SimTime::ZERO,
            format!("f{i}"),
            blocks * 128 * MB,
            None,
            &DefaultPlacement,
            &mut rng,
            false,
        );
    }
    dfs
}

fn fill_queue(dfs: &Dfs, jobs: u32, tasks_per_job: usize) -> JobQueue {
    let mut q = JobQueue::new();
    let nblocks = dfs.namenode().num_blocks() as u64;
    for j in 0..jobs {
        let tasks: Vec<PendingTask> = (0..tasks_per_job)
            .map(|t| PendingTask {
                task: TaskId(t as u32),
                block: BlockId((j as u64 * 31 + t as u64 * 7) % nblocks),
            })
            .collect();
        q.add_job(
            JobId(j),
            SimTime::from_secs(j as u64),
            tasks,
            &DfsLookup(dfs),
            dfs.topology(),
        );
    }
    q
}

fn scheduler_pick(r: &mut Runner) {
    let dfs = build_dfs(19, 64, 4);
    type MkSched = fn() -> Box<dyn Scheduler>;
    let variants: [(&str, MkSched); 2] = [
        ("fifo", || Box::new(FifoScheduler::new())),
        ("fair", || Box::new(FairScheduler::new())),
    ];
    for (name, mk) in variants {
        for &jobs in &[4u32, 32] {
            r.bench_batched(
                &format!("scheduler_pick_map/{name}/{jobs}"),
                || (mk(), fill_queue(&dfs, jobs, 8)),
                |(mut sched, mut q)| {
                    let lookup = DfsLookup(&dfs);
                    let mut node = 0u32;
                    while let Some(a) = sched.pick_map(
                        &mut q,
                        NodeId(node % 19),
                        &lookup,
                        dfs.topology(),
                        SimTime::ZERO,
                    ) {
                        black_box(a);
                        node += 1;
                    }
                },
            );
        }
    }
}

fn namenode_ops(r: &mut Runner) {
    let dfs = build_dfs(19, 128, 4);
    let nblocks = dfs.namenode().num_blocks() as u64;
    let mut i = 0u64;
    r.bench("namenode/locations_lookup", move || {
        i = (i.wrapping_mul(2862933555777941757).wrapping_add(3037000493)) % nblocks;
        black_box(dfs.visible_locations(BlockId(i)).len())
    });
    r.bench_batched(
        "namenode/dynamic_report_cycle",
        || build_dfs(19, 16, 4),
        |mut dfs| {
            let n = dfs.namenode().num_blocks() as u64;
            for i in 0..n {
                let b = BlockId(i);
                let node = (0..19)
                    .map(NodeId)
                    .find(|&nd| !dfs.is_physically_present(nd, b));
                if let Some(node) = node {
                    dfs.insert_dynamic(SimTime::ZERO, node, b);
                }
            }
            dfs.process_reports(SimTime::from_secs(10));
            black_box(dfs.total_dynamic_bytes())
        },
    );
}

/// Ingest of one 1,000-block file into an empty file system on the
/// 10,000-node multi-rack scale topology (250 racks). Default placement
/// costs O(rack) per block, so an O(nodes) regression multiplies this
/// number by the rack count.
fn dfs_ingest(r: &mut Runner) {
    let topo = ClusterProfile::scale(10_000).build_topology(&mut DetRng::new(1));
    let mut rng = DetRng::new(2);
    r.bench_batched(
        "dfs/ingest/10k-nodes/1000-blocks",
        || Dfs::new(DfsConfig::default(), topo.clone()),
        |mut dfs| {
            dfs.create_file(
                SimTime::ZERO,
                "ingest".into(),
                1_000 * 128 * MB,
                None,
                &DefaultPlacement,
                &mut rng,
                false,
            );
            black_box(dfs.namenode().num_blocks())
        },
    );
}

fn flow_churn(r: &mut Runner) {
    for &nodes in &[20usize, 100] {
        r.bench_batched(
            &format!("flowsim/churn/{nodes}"),
            || FlowSim::new(vec![100.0; nodes], 1.5),
            move |mut sim| {
                let n = nodes;
                let mut t = SimTime::ZERO;
                let mut rng = DetRng::new(3);
                for i in 0..200u64 {
                    let src = NodeId(rng.index(n) as u32);
                    let mut dst = NodeId(rng.index(n) as u32);
                    if dst == src {
                        dst = NodeId(((src.0 as usize + 1) % n) as u32);
                    }
                    sim.start(t, src, dst, 16 * MB, i % 3 == 0, i);
                    if let Some((tc, _)) = sim.next_completion() {
                        if i % 4 == 0 {
                            t = tc;
                            for id in sim.collect_completed(t) {
                                black_box(sim.take(id));
                            }
                        }
                    }
                }
                while let Some((tc, _)) = sim.next_completion() {
                    t = tc;
                    for id in sim.collect_completed(t) {
                        black_box(sim.take(id));
                    }
                }
                black_box(sim.total_started())
            },
        );
    }
    // The scale-dare shape: about 500 flows in flight at once on 10k
    // NICs. Every finished flow is replaced by a new one until 2,500 have
    // started, so the active count holds near 500, then the rest drain.
    let nodes = 10_000usize;
    r.bench_batched(
        &format!("flowsim/churn/{nodes}"),
        || FlowSim::new(vec![100.0; nodes], 1.5),
        move |mut sim| {
            let mut rng = DetRng::new(5);
            let mut start = |sim: &mut FlowSim<u64>, t: SimTime, i: u64| {
                let src = rng.index(nodes);
                let dst = (src + 1 + rng.index(nodes - 1)) % nodes;
                let bytes = (8 + rng.index(56) as u64) * MB;
                let (src, dst) = (NodeId(src as u32), NodeId(dst as u32));
                sim.start(t, src, dst, bytes, i.is_multiple_of(3), i);
            };
            for i in 0..500 {
                start(&mut sim, SimTime::ZERO, i);
            }
            let mut started = 500;
            while let Some((t, _)) = sim.next_completion() {
                for id in sim.collect_completed(t) {
                    black_box(sim.take(id));
                    if started < 2_500 {
                        start(&mut sim, t, started);
                        started += 1;
                    }
                }
            }
            black_box(sim.total_started())
        },
    );
}

fn main() {
    let mut r = Runner::from_env();
    scheduler_pick(&mut r);
    namenode_ops(&mut r);
    dfs_ingest(&mut r);
    flow_churn(&mut r);
    r.finish("subsystems");
}
