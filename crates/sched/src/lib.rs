//! # dare-sched — MapReduce job schedulers
//!
//! The two schedulers the paper evaluates DARE under (Section V-A):
//!
//! * [`fifo::FifoScheduler`] — Hadoop's default: jobs served in arrival
//!   order; within the head-of-line job the scheduler prefers a node-local
//!   task for the heartbeating node, then rack-local, then any. It never
//!   skips the head job for locality — the head-of-line problem that makes
//!   vanilla FIFO locality so poor on small jobs (and gives DARE its 7×
//!   headroom in Fig. 7a).
//! * [`fair::FairScheduler`] — fair sharing with **delay scheduling**
//!   (Zaharia et al., EuroSys 2010): jobs are ordered by fewest running
//!   tasks; a job that cannot launch a node-local task on the offered slot
//!   is skipped, and only after `d1` skipped opportunities may it launch
//!   rack-local (after `d2`, anywhere). This trades a small launch delay
//!   for locality, which is why the Fair baseline already sits at ~83 % on
//!   wl2 — and why DARE on top pushes it toward 100 %.
//!
//! A simplified [`capacity::CapacityScheduler`] (multi-queue, Hadoop's
//! third classic scheduler) is included beyond the paper's pair to stress
//! the scheduler-agnostic claim.
//!
//! DARE itself is scheduler-agnostic; the schedulers see dynamic replicas
//! simply as extra locations returned by the name-node lookup the engine
//! passes in.

#![warn(missing_docs)]

pub mod capacity;
pub mod fair;
pub mod fifo;
pub mod locality;
pub mod queue;

pub use capacity::CapacityScheduler;
pub use fair::FairScheduler;
pub use fifo::FifoScheduler;
pub use locality::Locality;
pub use queue::{Assignment, JobEntry, JobId, JobQueue, PendingTask, QueueDepth, TaskId};

use dare_net::{NodeId, Topology};
use dare_simcore::SimTime;

/// Block-location oracle the engine passes to a scheduler: the name node's
/// *visible* replica locations for a block.
///
/// The lookup returns a **borrowed** slice so the scheduling hot path never
/// allocates: the name node keeps a merged per-block location list up to
/// date incrementally, and `classify` / the schedulers read it in place.
/// Implementors are concrete types (the engine's name-node adapter, the
/// [`TableLookup`] used by tests and benches) — a closure cannot return a
/// borrow of its own captures, which is exactly the allocation this API
/// exists to avoid.
pub trait LocationLookup {
    /// Nodes holding a scheduler-visible replica of the block. Empty when
    /// the block is unknown.
    fn locations(&self, block: dare_dfs::BlockId) -> &[NodeId];
}

/// A static block → locations table implementing [`LocationLookup`] by
/// borrow. Unit tests, benches, and the differential oracle tests use it
/// in place of a live name node; `add_location` / `remove_location` model
/// replication churn (the caller mirrors those into
/// [`JobQueue::note_replica_added`] / [`JobQueue::note_replica_removed`],
/// exactly as the engine mirrors name-node promotions and evictions).
#[derive(Debug, Clone, Default)]
pub struct TableLookup {
    map: dare_simcore::FxHashMap<u64, Vec<NodeId>>,
    default_locs: Vec<NodeId>,
}

impl TableLookup {
    /// Empty table: every block resolves to no locations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Table from `(block, nodes)` pairs; unlisted blocks have no replicas.
    pub fn from_pairs(pairs: &[(u64, Vec<u32>)]) -> Self {
        let mut t = Self::new();
        for (b, nodes) in pairs {
            t.map
                .insert(*b, nodes.iter().map(|&n| NodeId(n)).collect());
        }
        t
    }

    /// Table where every block (listed or not) resolves to nodes `0..n`.
    pub fn everywhere(n: u32) -> Self {
        TableLookup {
            map: dare_simcore::FxHashMap::default(),
            default_locs: (0..n).map(NodeId).collect(),
        }
    }

    /// Set the full location list of one block.
    pub fn set(&mut self, block: u64, nodes: &[u32]) {
        self.map
            .insert(block, nodes.iter().map(|&n| NodeId(n)).collect());
    }

    /// Add one replica location; returns false if it was already present.
    pub fn add_location(&mut self, block: dare_dfs::BlockId, node: NodeId) -> bool {
        let locs = self.map.entry(block.0).or_default();
        if locs.contains(&node) {
            return false;
        }
        locs.push(node);
        true
    }

    /// Remove one replica location; returns false if it was not present.
    pub fn remove_location(&mut self, block: dare_dfs::BlockId, node: NodeId) -> bool {
        let Some(locs) = self.map.get_mut(&block.0) else {
            return false;
        };
        let before = locs.len();
        locs.retain(|&l| l != node);
        locs.len() != before
    }
}

impl LocationLookup for TableLookup {
    fn locations(&self, block: dare_dfs::BlockId) -> &[NodeId] {
        self.map
            .get(&block.0)
            .map(|v| v.as_slice())
            .unwrap_or(&self.default_locs)
    }
}

/// One delay-scheduling decline, recorded for tracing: the scheduler
/// passed over `job` on `node`'s free slot because the best task it could
/// launch there was only `offered`-local and the job had not yet burned
/// enough skips to accept that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipDecision {
    /// The job that was skipped.
    pub job: JobId,
    /// The node whose slot was declined.
    pub node: NodeId,
    /// Best locality the node could have offered the job.
    pub offered: Locality,
    /// The job's consecutive skip count *before* this decline.
    pub skips: u32,
}

/// A map-task scheduler: picks the next map task to run on a freed slot.
pub trait Scheduler {
    /// Offer one free map slot on `node` at `now`. On a hit, the task is
    /// removed from `queue`'s pending set, the job's running count is
    /// incremented, and the assignment (with its achieved locality) is
    /// returned.
    fn pick_map(
        &mut self,
        queue: &mut JobQueue,
        node: NodeId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
        now: SimTime,
    ) -> Option<Assignment>;

    /// Scheduler name for reports ("fifo", "fair").
    fn name(&self) -> &'static str;

    /// Enable or disable skip recording. Off by default; schedulers that
    /// have no delay logic (FIFO, capacity) ignore it.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Move the skip decisions recorded since the last drain into `out`
    /// (appending, in decision order). No-op unless tracing is enabled on
    /// a delay-scheduling implementation.
    fn drain_skips(&mut self, _out: &mut Vec<SkipDecision>) {}
}
