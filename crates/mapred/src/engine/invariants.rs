//! Structural invariants of the engine. Each is one predicate over a
//! node, a block or the recovery pipeline; the per-event check runs them
//! over what the event changed and the full sweep over everything, in
//! the same order, so a violation reads the same either way.

use super::{Engine, RecoveryXfer};
use crate::SimError;
use dare_dfs::BlockId;
use dare_net::NodeId;
use dare_simcore::check::{InvariantId as Inv, Invariants};

/// Scratch buffers and pacing of the incremental check. Checking only:
/// nothing here feeds the simulation or a fingerprint.
#[derive(Debug, Default)]
pub(super) struct InvariantScope {
    blocks: Vec<u32>,
    nodes: Vec<u32>,
    /// Blocks counted lost since the last check.
    pub(super) lost: Vec<u32>,
    since_sweep: usize,
}

impl Engine {
    /// The structural invariants of the shared
    /// [`dare_simcore::check::InvariantId`] catalog, checked after every
    /// dispatched event when `SimConfig::check_invariants` is set. The
    /// check covers the nodes whose slots, running work or dynamic bytes
    /// the event changed and the blocks whose locations or replicas it
    /// changed or that it counted lost. A liveness transition or a
    /// whole-node DFS operation widens it to a full sweep, as does every
    /// `blocks + nodes`-th check (amortised O(1) per event). Builds with
    /// `debug_assertions` follow every check with the full sweep and
    /// panic if the two disagree.
    pub(super) fn check_invariants(&mut self) -> Result<(), SimError> {
        let mut sc = std::mem::take(&mut self.inv_scope);
        sc.blocks.clear();
        sc.nodes.clear();
        let mut sweep = self.dfs.drain_dirty(&mut sc.blocks, &mut sc.nodes);
        sweep |= self.nodes.drain_dirty(&mut sc.nodes);
        sc.blocks.append(&mut sc.lost);
        sc.since_sweep += 1;
        sweep |= sc.since_sweep >= self.num_blocks() + self.nodes.len();
        for ids in [&mut sc.blocks, &mut sc.nodes] {
            ids.sort_unstable();
            ids.dedup();
        }
        self.inv_scope = sc;
        let result = if sweep {
            self.sweep_invariants()
        } else {
            let sc = &self.inv_scope;
            if let Some(p) = self.profiler.as_mut() {
                p.note_invariant_work(sc.blocks.len() as u64, sc.nodes.len() as u64);
            }
            self.check_scope(
                sc.nodes.iter().map(|&i| i as usize),
                sc.blocks.iter().map(|&b| BlockId(b as u64)),
            )
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            result,
            self.check_invariants_full(),
            "incremental check != full sweep"
        );
        result
    }

    /// The full sweep as a scheduled check (on a trigger, periodically
    /// and at quiescence): counted in the profile.
    pub(super) fn sweep_invariants(&mut self) -> Result<(), SimError> {
        self.inv_scope.since_sweep = 0;
        let (blocks, nodes) = (self.num_blocks() as u64, self.nodes.len() as u64);
        if let Some(p) = self.profiler.as_mut() {
            p.note_invariant_work(blocks, nodes);
        }
        self.check_invariants_full()
    }

    /// Every structural invariant over every node and block.
    pub(super) fn check_invariants_full(&self) -> Result<(), SimError> {
        self.check_scope(
            0..self.nodes.len(),
            (0..self.num_blocks() as u64).map(BlockId),
        )
    }

    fn check_scope(
        &self,
        nodes: impl Iterator<Item = usize>,
        blocks: impl Iterator<Item = BlockId>,
    ) -> Result<(), SimError> {
        let mut inv = Invariants::new();
        for i in nodes {
            self.check_node(&mut inv, i);
        }
        self.check_recovery(&mut inv);
        for b in blocks {
            self.check_block(&mut inv, b);
        }
        inv.into_result().map_err(SimError::InvariantViolation)
    }

    /// Node `i`: slots, liveness, the reduce index, and the budget.
    fn check_node(&self, inv: &mut Invariants, i: usize) {
        self.nodes.check(inv, i);
        let held = self.dfs.datanode(NodeId(i as u32)).dynamic_bytes();
        let budget = self.budget_bytes;
        inv.check_id(Inv::DynamicWithinBudget, held <= budget, || {
            format!("node {i} holds {held} dynamic bytes over its budget of {budget}")
        });
    }

    /// The recovery pipeline: stream cap and need-driven repair (every
    /// in-flight transfer started while its block was under RF; sorted
    /// for a deterministic report).
    fn check_recovery(&self, inv: &mut Invariants) {
        let mut xfers: Vec<RecoveryXfer> =
            self.flows.iter().filter_map(|(_, t)| t.recovery()).collect();
        let n = xfers.len();
        let cap = self.cfg.faults.max_recovery_streams;
        inv.check_id(Inv::RecoveryStreamCap, n <= cap, || {
            format!("{n} recovery streams exceed the cap of {cap}")
        });
        let rf = self.cfg.dfs.replication_factor;
        xfers.sort_unstable_by_key(|r| (r.block, r.dst));
        for rx in xfers {
            inv.check_id(
                Inv::RereplicationConvergence,
                rx.visible_at_start < rf,
                || {
                    let (b, dst, seen) = (rx.block.0, rx.dst, rx.visible_at_start);
                    format!(
                        "repair of block {b} to node {dst} started at {seen} visible replicas \
                         (RF {rf})"
                    )
                },
            );
        }
    }

    /// Block `b`: loss, master/disk coherence, the RF bound, and
    /// dynamic/primary disjointness.
    fn check_block(&self, inv: &mut Invariants, b: BlockId) {
        let (nn, id) = (self.dfs.namenode(), b.0);
        if self.lost_blocks.contains(&id) {
            let n = self.nodes.len() as u32;
            let copy = (0..n).any(|i| self.dfs.is_physically_present(NodeId(i), b));
            inv.check_id(Inv::LostBlocksUnrecoverable, !copy, || {
                format!("block {id} marked lost while a physical copy survives")
            });
        }
        // Master/disk coherence on live nodes: a quarantined or evicted
        // replica must vanish from both sides, so no read is routed to a
        // node that cannot serve it. Crashed-but-undetected nodes are
        // exempt: the master's view legitimately lags a silent failure.
        for &loc in self.dfs.visible_locations(b) {
            let ok = !self.nodes.up(loc.idx()) || self.dfs.is_physically_present(loc, b);
            inv.check_id(Inv::QuarantineNoReads, ok, || {
                format!(
                    "block {id} visible on live node {} with no physical replica",
                    loc.0
                )
            });
        }
        // A rejoining node re-registers the primaries it still holds, and
        // this model (unlike HDFS) never deletes the excess: the bound is
        // RF plus one per rejoin.
        let (rf, rejoins) = (self.cfg.dfs.replication_factor, self.stats.nodes_rejoined);
        let primaries = nn.primary_locations(b);
        inv.check_id(
            Inv::PrimaryWithinRf,
            primaries.len() as u64 <= rf as u64 + rejoins,
            || {
                let n = primaries.len();
                format!("block {id} holds {n} primary locations (RF {rf}, {rejoins} rejoin(s))")
            },
        );
        for d in nn.dynamic_locations(b) {
            inv.check_id(Inv::DynamicDisjointPrimary, !primaries.contains(d), || {
                format!("block {id} lists node {} as both primary and dynamic", d.0)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    //! Mutation tests: break one invariant family mid-run through a real
    //! mutator and require the incremental check to flag it on the very
    //! next check, with the full sweep's exact message.

    use super::super::tests::{stepped_engine, tiny_workload};
    use super::*;
    use crate::{SchedulerKind, SimConfig, StepOutcome};
    use dare_core::PolicyKind;

    /// A DARE-LRU run with invariants armed, stepped until some block has
    /// a scheduler-visible dynamic replica, with the dirty logs drained.
    fn midrun_engine() -> Engine {
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 7);
        cfg.budget_frac = 1.0;
        cfg.check_invariants = true;
        let mut eng = Engine::new(cfg, &tiny_workload(4, 3, 40));
        while (0..eng.num_blocks() as u64)
            .all(|b| eng.dfs.namenode().dynamic_locations(BlockId(b)).is_empty())
        {
            assert_eq!(
                eng.step(),
                Ok(StepOutcome::Progressed),
                "no dynamic replica appeared"
            );
        }
        settle(&mut eng);
        eng
    }

    /// Drain the dirty logs with a clean check, so the next check's scope
    /// is exactly what the test breaks.
    fn settle(eng: &mut Engine) {
        eng.check_invariants().expect("clean before the mutation");
        eng.inv_scope.since_sweep = 0;
    }

    /// The next check flags `id`, and says exactly what the sweep says.
    fn assert_flagged(eng: &mut Engine, id: Inv) {
        let incremental = eng.check_invariants();
        let full = eng.check_invariants_full();
        assert_eq!(incremental, full, "incremental and full checks disagree");
        let Err(SimError::InvariantViolation(msg)) = incremental else {
            panic!("{} not flagged: {incremental:?}", id.name());
        };
        assert!(msg.contains(&format!("[{}]", id.name())), "{msg}");
    }

    fn live_node_with_free_slots(eng: &Engine) -> usize {
        (0..eng.nodes.len())
            .find(|&i| {
                eng.nodes.up(i)
                    && eng.nodes.free_map_slots(i) > 0
                    && eng.nodes.free_reduce_slots(i) > 0
            })
            .expect("an idle live node")
    }

    #[test]
    fn wiping_a_live_node_breaks_quarantine_no_reads() {
        let mut eng = midrun_engine();
        let holder = eng.dfs.visible_locations(BlockId(0))[0];
        eng.dfs.wipe_node(holder);
        assert_flagged(&mut eng, Inv::QuarantineNoReads);
    }

    #[test]
    fn extra_replicas_break_primary_within_rf() {
        let mut eng = midrun_engine();
        let b = BlockId(0);
        let spare = (0..eng.nodes.len() as u32)
            .map(NodeId)
            .find(|&n| !eng.dfs.is_physically_present(n, b))
            .expect("a node without the block");
        eng.dfs.add_replica(b, spare);
        assert_flagged(&mut eng, Inv::PrimaryWithinRf);
    }

    #[test]
    fn a_slot_returned_without_a_task_breaks_slot_conservation() {
        let mut eng = midrun_engine();
        let i = (0..eng.nodes.len())
            .find(|&i| eng.nodes.up(i) && eng.nodes.running_reduces(i) == 0)
            .expect("a live node running no reduce");
        eng.nodes.finish_reduce(i);
        assert_flagged(&mut eng, Inv::SlotConservation);
    }

    #[test]
    fn a_desynced_reduce_index_breaks_scheduler_index_sync() {
        let mut eng = midrun_engine();
        let i = live_node_with_free_slots(&eng);
        eng.nodes.desync_reduce_index(i);
        assert_flagged(&mut eng, Inv::SchedulerIndexSync);
    }

    #[test]
    fn declaring_a_running_node_dead_breaks_declared_implies_crashed() {
        let mut eng = midrun_engine();
        let i = live_node_with_free_slots(&eng);
        eng.nodes.declare_dead(i);
        assert_flagged(&mut eng, Inv::DeclaredImpliesCrashed);
    }

    #[test]
    fn a_copy_of_a_lost_block_breaks_lost_blocks_unrecoverable() {
        let mut eng = midrun_engine();
        let b = BlockId(0);
        let n = eng.nodes.len() as u32;
        let holders: Vec<NodeId> = (0..n)
            .map(NodeId)
            .filter(|&h| eng.dfs.is_physically_present(h, b))
            .collect();
        for &h in &holders {
            eng.dfs.wipe_node(h);
            eng.dfs.mark_node_dead(h);
        }
        eng.note_block_under_replicated(b);
        assert_eq!(eng.lost_block_count(), 1);
        settle(&mut eng);
        let outsider = (0..n).map(NodeId).find(|h| !holders.contains(h)).unwrap();
        eng.dfs.add_replica(b, outsider);
        assert_flagged(&mut eng, Inv::LostBlocksUnrecoverable);
    }

    #[test]
    fn a_primary_over_a_dynamic_location_breaks_dynamic_disjoint_primary() {
        let mut eng = midrun_engine();
        let (b, holder) = (0..eng.num_blocks() as u64)
            .map(BlockId)
            .find_map(|b| {
                eng.dfs
                    .namenode()
                    .dynamic_locations(b)
                    .first()
                    .map(|&n| (b, n))
            })
            .expect("a visible dynamic replica");
        // The disk loses the dynamic copy while the master still lists
        // it; a repair then lands a primary on the same node.
        eng.dfs.wipe_node(holder);
        eng.dfs.add_replica(b, holder);
        assert_flagged(&mut eng, Inv::DynamicDisjointPrimary);
    }

    #[test]
    fn dynamic_inserts_past_the_budget_break_dynamic_within_budget() {
        let mut eng = midrun_engine();
        let node = NodeId(live_node_with_free_slots(&eng) as u32);
        let now = eng.now;
        for b in (0..eng.num_blocks() as u64).map(BlockId) {
            if eng.dfs.datanode(node).dynamic_bytes() > eng.budget_bytes {
                break;
            }
            eng.dfs.insert_dynamic(now, node, b);
        }
        assert_flagged(&mut eng, Inv::DynamicWithinBudget);
    }

    /// The profile reports the check's work per dispatched event, and on a
    /// fault-free run it is a small fraction of a full sweep.
    #[test]
    fn profile_counts_invariant_work_per_event() {
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 7);
        cfg.budget_frac = 1.0;
        cfg.check_invariants = true;
        cfg.self_profile = true;
        let eng = Engine::new(cfg, &tiny_workload(8, 8, 40));
        let (blocks, nodes) = (eng.num_blocks() as f64, eng.nodes.len() as f64);
        let [b, n] = eng
            .run()
            .profile
            .expect("profiled")
            .invariant_work_per_event();
        assert!(b > 0.0 && n > 0.0, "{b} blocks, {n} nodes per event");
        assert!(
            b < blocks / 8.0 && n < nodes / 4.0,
            "{b} of {blocks} blocks, {n} of {nodes} nodes"
        );
    }

    /// An LRU eviction victim whose fetch is still in flight must not land
    /// when the fetch completes: the policy no longer tracks it, so the
    /// node would hold it past its budget for good. (Invariants are off
    /// here; the budget is checked directly after every event.)
    #[test]
    fn an_evicted_replica_still_in_flight_never_lands() {
        use dare_workload::swim::{synthesize, SwimParams};
        let seed = 20110926;
        let jobs = SwimParams {
            jobs: 30,
            ..SwimParams::wl1()
        };
        let wl = synthesize("wl1", &jobs, seed);
        let cfg = SimConfig::ec2(PolicyKind::GreedyLru, SchedulerKind::fair_default(), seed);
        let mut eng = Engine::new(cfg, &wl);
        while eng.step() == Ok(StepOutcome::Progressed) {
            for i in 0..eng.nodes.len() as u32 {
                let held = eng.dfs.datanode(NodeId(i)).dynamic_bytes();
                assert!(
                    held <= eng.budget_bytes,
                    "node {i} holds {held} dynamic bytes at {:?}",
                    eng.now
                );
            }
        }
    }

    /// The recovery family through the seeded heal bug: a repair of a
    /// block the rejoin already healed is flagged by the step that
    /// starts it, with the sweep's message.
    #[test]
    fn the_seeded_heal_bug_breaks_rereplication_convergence() {
        let mut eng = stepped_engine(3, 4, 0xACE5);
        eng.cfg.seeded_bug_skip_heal_recheck = true;
        let heavy = (0..3u32)
            .max_by_key(|&n| (0..4).filter(|&b| eng.block_present(n, b)).count())
            .unwrap();
        eng.inject_crash(heavy, 31);
        let err = loop {
            match eng.step() {
                Ok(StepOutcome::Progressed) => {}
                Ok(StepOutcome::Quiescent) => panic!("the seeded bug went unnoticed"),
                Err(e) => break e,
            }
        };
        assert_eq!(Err(err.clone()), eng.check_invariants_full());
        assert!(
            err.to_string().contains("[rereplication-convergence]"),
            "{err}"
        );
    }
}
