//! Per-node slot and liveness state. The fields are private: every
//! mutation goes through a method that marks the node dirty for the
//! incremental invariant check, so a new mutation path cannot skip it.
//! Liveness transitions (crash, declare-dead, rejoin) change which
//! replicas count as readable, so they ask for a full sweep instead.

use dare_simcore::check::{DirtySet, InvariantId as Inv, Invariants};
use std::collections::BTreeSet;

#[derive(Debug)]
pub(crate) struct Nodes {
    map_slots: u32,
    reduce_slots: u32,
    free_map_slots: Vec<u32>,
    free_reduce_slots: Vec<u32>,
    /// Nodes with a free reduce slot, sorted so `take_reduce_slot` finds
    /// the lowest index in O(log n) (a scan dominated 10k-node runs).
    /// Tracks `free_reduce_slots[i] > 0` only; liveness is re-checked at
    /// pick time.
    reduce_free_nodes: BTreeSet<u32>,
    /// Reduce tasks running per node (slot restore on rejoin).
    running_reduces: Vec<u32>,
    /// Map tasks running (or fetching) per node, as `(job, task)`.
    running_on: Vec<Vec<(u32, u32)>>,
    /// Silently down: no heartbeats, its in-flight work is zombie state,
    /// and the master does not know yet.
    crashed: Vec<bool>,
    /// Declared dead by the master after the missed-heartbeat timeout.
    declared: Vec<bool>,
    dirty: DirtySet,
}

impl Nodes {
    pub(crate) fn new(n: usize, map_slots: u32, reduce_slots: u32) -> Self {
        Nodes {
            map_slots,
            reduce_slots,
            free_map_slots: vec![map_slots; n],
            free_reduce_slots: vec![reduce_slots; n],
            reduce_free_nodes: (0..n as u32).filter(|_| reduce_slots > 0).collect(),
            running_reduces: vec![0; n],
            running_on: vec![Vec::new(); n],
            crashed: vec![false; n],
            declared: vec![false; n],
            dirty: DirtySet::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.crashed.len()
    }

    /// Neither silently crashed nor declared dead: the node can take work
    /// and serve reads.
    pub(crate) fn up(&self, i: usize) -> bool {
        !self.crashed[i] && !self.declared[i]
    }

    pub(crate) fn crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    pub(crate) fn declared(&self, i: usize) -> bool {
        self.declared[i]
    }

    pub(crate) fn free_map_slots(&self, i: usize) -> u32 {
        self.free_map_slots[i]
    }

    pub(crate) fn free_reduce_slots(&self, i: usize) -> u32 {
        self.free_reduce_slots[i]
    }

    pub(crate) fn running_reduces(&self, i: usize) -> u32 {
        self.running_reduces[i]
    }

    pub(crate) fn running_on(&self, i: usize) -> &[(u32, u32)] {
        &self.running_on[i]
    }

    /// A map attempt of `(job, task)` takes a slot on the node.
    pub(crate) fn start_map(&mut self, i: usize, job: u32, task: u32) {
        self.running_on[i].push((job, task));
        self.free_map_slots[i] -= 1;
        self.dirty.mark(i);
    }

    /// Drop every registration of `(job, task)` on the node; a live node
    /// gets their slots back. Returns how many there were.
    pub(crate) fn release_map(&mut self, i: usize, job: u32, task: u32) -> u32 {
        let before = self.running_on[i].len();
        self.running_on[i].retain(|&(j, t)| !(j == job && t == task));
        let removed = (before - self.running_on[i].len()) as u32;
        if removed > 0 {
            if self.up(i) {
                self.free_map_slots[i] += removed;
            }
            self.dirty.mark(i);
        }
        removed
    }

    /// Swap-remove the first registration of `(job, task)` on the node; a
    /// live node gets its slot back. Returns whether there was one.
    pub(crate) fn release_first_map(&mut self, i: usize, job: u32, task: u32) -> bool {
        let Some(p) = self.running_on[i]
            .iter()
            .position(|&(j, t)| j == job && t == task)
        else {
            return false;
        };
        self.running_on[i].swap_remove(p);
        if self.up(i) {
            self.free_map_slots[i] += 1;
        }
        self.dirty.mark(i);
        true
    }

    /// Take a reduce slot on the lowest-index live node with one free.
    pub(crate) fn take_reduce_slot(&mut self) -> Option<usize> {
        let i = self
            .reduce_free_nodes
            .iter()
            .map(|&i| i as usize)
            .find(|&i| self.up(i))?;
        self.free_reduce_slots[i] -= 1;
        if self.free_reduce_slots[i] == 0 {
            self.reduce_free_nodes.remove(&(i as u32));
        }
        self.running_reduces[i] += 1;
        self.dirty.mark(i);
        Some(i)
    }

    /// A reduce task on the node finished; a live node gets its slot back.
    pub(crate) fn finish_reduce(&mut self, i: usize) {
        self.running_reduces[i] = self.running_reduces[i].saturating_sub(1);
        if self.up(i) {
            self.free_reduce_slots[i] += 1;
            self.reduce_free_nodes.insert(i as u32);
        }
        self.dirty.mark(i);
    }

    /// The node goes silent. Returns false, changing nothing, when it is
    /// already down.
    pub(crate) fn crash(&mut self, i: usize) -> bool {
        if !self.up(i) {
            return false;
        }
        self.crashed[i] = true;
        self.dirty.mark_all();
        true
    }

    /// The master declares the node dead: it advertises no slots, and its
    /// map registrations are handed to the caller.
    pub(crate) fn declare_dead(&mut self, i: usize) -> Vec<(u32, u32)> {
        self.declared[i] = true;
        self.free_map_slots[i] = 0;
        self.free_reduce_slots[i] = 0;
        self.reduce_free_nodes.remove(&(i as u32));
        self.dirty.mark_all();
        std::mem::take(&mut self.running_on[i])
    }

    /// The node is back up; its zombie map registrations are handed to the
    /// caller. Its slots stay as they are until [`Nodes::restore_slots`].
    pub(crate) fn rejoin(&mut self, i: usize) -> Vec<(u32, u32)> {
        self.crashed[i] = false;
        self.declared[i] = false;
        self.dirty.mark_all();
        std::mem::take(&mut self.running_on[i])
    }

    /// Full map slots, and every reduce slot no running reduce holds.
    pub(crate) fn restore_slots(&mut self, i: usize) {
        self.free_map_slots[i] = self.map_slots;
        self.free_reduce_slots[i] = self.reduce_slots.saturating_sub(self.running_reduces[i]);
        if self.free_reduce_slots[i] > 0 {
            self.reduce_free_nodes.insert(i as u32);
        } else {
            self.reduce_free_nodes.remove(&(i as u32));
        }
        self.dirty.mark(i);
    }

    /// Move the nodes changed since the last call to `out`. Returns true
    /// when a liveness transition asks for a full sweep instead.
    pub(crate) fn drain_dirty(&mut self, out: &mut Vec<u32>) -> bool {
        self.dirty.drain_into(out)
    }

    /// The slot, liveness and index invariants of node `i`.
    pub(crate) fn check(&self, inv: &mut Invariants, i: usize) {
        let (slots, rslots) = (self.map_slots, self.reduce_slots);
        let (free, running) = (self.free_map_slots[i], self.running_on[i].len() as u32);
        let (rfree, rrunning) = (self.free_reduce_slots[i], self.running_reduces[i]);
        if self.up(i) {
            inv.check_id(Inv::SlotConservation, free + running == slots, || {
                format!("node {i}: map slots drifted ({free} free + {running} running != {slots})")
            });
            inv.check_id(Inv::SlotConservation, rfree + rrunning == rslots, || {
                format!(
                    "node {i}: reduce slots drifted ({rfree} free + {rrunning} running != {rslots})"
                )
            });
        } else if self.declared[i] {
            inv.check_id(Inv::DeclaredImpliesCrashed, self.crashed[i], || {
                format!("node {i} declared dead while running")
            });
            inv.check_id(Inv::DeclaredImpliesCrashed, free == 0 && rfree == 0, || {
                format!("declared node {i} still advertises slots")
            });
        }
        let indexed = self.reduce_free_nodes.contains(&(i as u32));
        inv.check_id(Inv::SchedulerIndexSync, (rfree > 0) == indexed, || {
            format!(
                "node {i}: reduce free-node index out of sync ({rfree} free, indexed: {indexed})"
            )
        });
    }

    /// Fault injection for the invariant tests: drop the node from the
    /// reduce free-node index without touching its slots.
    #[cfg(test)]
    pub(crate) fn desync_reduce_index(&mut self, i: usize) {
        self.reduce_free_nodes.remove(&(i as u32));
        self.dirty.mark(i);
    }
}
