//! The fetch/net slice of the engine: what each in-flight flow is for,
//! and the one path each for starting, cancelling and finishing a flow.
//!
//! [`FlowSim<Transfer>`](dare_net::flow::FlowSim) is the only table of
//! in-flight transfers: every flow carries its [`Transfer`], so remote map
//! fetches, re-replication and proactive pushes share the network and
//! the bookkeeping. A completion handler that tears down a sibling
//! stopped in the same batch needs no side list: the sibling's `take`
//! simply returns `None`.

use super::{Engine, Ev, RecoveryXfer};
use crate::scarlett::ProactiveTransfer;
use dare_dfs::BlockId;
use dare_net::flow::FlowId;
use dare_net::NodeId;
use dare_simcore::SimDuration;
use dare_trace::{FlowCtx, FlowKind, TraceEvent};

/// A remote input fetch in flight.
#[derive(Debug, Clone, Copy)]
pub(super) struct Fetch {
    pub(super) block: BlockId,
    pub(super) node: u32,
    pub(super) src: u32,
    pub(super) job: u32,
    pub(super) task: u32,
    pub(super) attempt: u32,
    /// The node's policy asked to keep the bytes as a dynamic replica.
    pub(super) replicate: bool,
    /// Path latency to add before compute starts.
    pub(super) latency: SimDuration,
}

/// What an in-flight flow is for: the payload of the engine's flow table.
#[derive(Debug, Clone, Copy)]
pub(super) enum Transfer {
    /// A map task reading a non-local block.
    Fetch(Fetch),
    /// Re-replication of an under-replicated block.
    Recovery(RecoveryXfer),
    /// A push by the proactive (Scarlett) replicator.
    Proactive(ProactiveTransfer),
}

impl Transfer {
    pub(super) fn fetch(&self) -> Option<Fetch> {
        match *self {
            Transfer::Fetch(f) => Some(f),
            _ => None,
        }
    }

    pub(super) fn recovery(&self) -> Option<RecoveryXfer> {
        match *self {
            Transfer::Recovery(r) => Some(r),
            _ => None,
        }
    }

    pub(super) fn proactive(&self) -> Option<ProactiveTransfer> {
        match *self {
            Transfer::Proactive(p) => Some(p),
            _ => None,
        }
    }

    fn kind(&self) -> FlowKind {
        match self {
            Transfer::Fetch(_) => FlowKind::Fetch,
            Transfer::Recovery(_) => FlowKind::Recovery,
            Transfer::Proactive(_) => FlowKind::Proactive,
        }
    }

    /// The block whose bytes the flow carries.
    fn block(&self) -> BlockId {
        match self {
            Transfer::Fetch(f) => f.block,
            Transfer::Recovery(r) => r.block,
            Transfer::Proactive(p) => p.block,
        }
    }

    /// `(src, dst)` node indices.
    fn endpoints(&self) -> (u32, u32) {
        match self {
            Transfer::Fetch(f) => (f.src, f.node),
            Transfer::Recovery(r) => (r.src, r.dst),
            Transfer::Proactive(p) => (p.src, p.dst),
        }
    }

    fn ctx(&self) -> FlowCtx {
        match self {
            Transfer::Fetch(f) => FlowCtx::Fetch {
                job: f.job,
                task: f.task,
                attempt: f.attempt,
            },
            _ => FlowCtx::Block {
                block: self.block().0,
            },
        }
    }
}

impl Engine {
    /// Start a flow moving `t`'s block from its source to its target.
    /// The caller re-polls the flow simulator (`schedule_netcheck`) once
    /// it has started everything it meant to.
    pub(super) fn start_flow(&mut self, t: Transfer) {
        let (src, dst) = t.endpoints();
        let bytes = self.dfs.namenode().block_size(t.block());
        let cross = self.dfs.topology().crosses_racks(NodeId(src), NodeId(dst));
        let fid = self
            .flows
            .start(self.now, NodeId(src), NodeId(dst), bytes, cross, t);
        self.emit(TraceEvent::FlowStarted {
            flow: fid.0,
            kind: t.kind(),
            src,
            dst,
            bytes,
            cross_rack: cross,
            ctx: t.ctx(),
        });
    }

    /// Tear down a flow still in the table, returning what it was for;
    /// `None` if it already left (finished or cancelled earlier).
    pub(super) fn cancel_flow(&mut self, fid: FlowId) -> Option<Transfer> {
        let t = self.flows.cancel(self.now, fid)?;
        self.emit(TraceEvent::FlowCancelled {
            flow: fid.0,
            kind: t.kind(),
        });
        Some(t)
    }

    /// Every flow in the table that `pick` selects, with what it picked,
    /// in ascending flow-id order (the deterministic order teardowns and
    /// digests act in).
    pub(super) fn select_flows<P>(
        &self,
        pick: impl Fn(&Transfer) -> Option<P>,
    ) -> Vec<(FlowId, P)> {
        let mut out: Vec<(FlowId, P)> = self
            .flows
            .iter()
            .filter_map(|(fid, t)| Some((fid, pick(t)?)))
            .collect();
        out.sort_unstable_by_key(|&(fid, _)| fid);
        out
    }

    /// Re-replication transfers in flight (the streams
    /// `FaultPlan::max_recovery_streams` caps).
    pub(super) fn recovery_streams(&self) -> usize {
        self.flows
            .iter()
            .filter(|(_, t)| matches!(t, Transfer::Recovery(_)))
            .count()
    }

    pub(super) fn schedule_netcheck(&mut self) {
        if let Some((t, _)) = self.flows.next_completion() {
            let t = t.max(self.now);
            if self.next_netcheck.is_none_or(|cur| t < cur) {
                self.events.push(t, Ev::NetCheck);
                self.next_netcheck = Some(t);
            }
        }
    }

    /// Stop every finished flow, then hand each to its completion
    /// handler in ascending id order. A flow an earlier handler of the
    /// same batch cancelled is gone from the table and is skipped.
    pub(super) fn on_net_check(&mut self) {
        self.next_netcheck = None;
        let done = self.flows.collect_completed(self.now);
        if done.is_empty() {
            if let Some(p) = self.profiler.as_mut() {
                p.note_empty_netcheck();
            }
        }
        for fid in done {
            let Some((started, t)) = self.flows.take(fid) else {
                continue;
            };
            if self.tracer.is_some() {
                let (src, dst) = t.endpoints();
                self.emit(TraceEvent::FlowFinished {
                    flow: fid.0,
                    kind: t.kind(),
                    src,
                    dst,
                    bytes: self.dfs.namenode().block_size(t.block()),
                    dur_us: self.now.saturating_since(started).as_micros(),
                    ctx: t.ctx(),
                });
            }
            match t {
                Transfer::Fetch(f) => self.on_fetch_done(f),
                Transfer::Recovery(r) => self.on_recovery_done(r),
                Transfer::Proactive(p) => self.on_proactive_done(p),
            }
        }
        self.schedule_netcheck();
    }

    /// A remote fetch delivered its block: verify it, keep it as a
    /// dynamic replica if the policy asked, and start the compute phase.
    fn on_fetch_done(&mut self, f: Fetch) {
        let block = f.block;
        // Read-path verification of the fetched bytes: a corrupt
        // source replica fails the reader-side checksum when the
        // stream completes. The source is quarantined and the attempt
        // retries — its next launch picks a different source because
        // quarantine removed this one from the visible set.
        if self.dfs.is_replica_corrupt(NodeId(f.src), block) {
            self.stats.checksum_failures += 1;
            self.emit(TraceEvent::ChecksumFailed {
                node: f.src,
                block: block.0,
                job: f.job,
                task: f.task,
                attempt: f.attempt,
            });
            self.quarantine_and_repair(f.src, block);
            if f.replicate {
                // The garbage bytes are never kept as a dynamic
                // replica; roll back the policy's bookkeeping.
                self.policies[f.node as usize].forget(block);
            }
            let ji = f.job as usize;
            let current = self.jobs[ji].attempts[f.task as usize] == f.attempt;
            if current && !self.jobs[ji].done[f.task as usize] && !self.jobs[ji].failed {
                self.abort_attempt(f.job, f.task, false);
            } else {
                // Superseded (a backup or the original already
                // committed, or the attempt was aborted): release
                // this reader's registration if it still exists.
                let ri = f.node as usize;
                if self.nodes.release_first_map(ri, f.job, f.task) {
                    self.emit(TraceEvent::TaskAborted {
                        job: f.job,
                        task: f.task,
                        attempt: f.attempt,
                        node: f.node,
                    });
                    let live = &mut self.jobs[ji].live_attempts[f.task as usize];
                    *live = live.saturating_sub(1);
                }
            }
            return;
        }
        if f.replicate {
            // The bytes are here; keep them (DNA_DYNREPL). On failure
            // (e.g. the block arrived by another path meanwhile) roll
            // back the policy's bookkeeping.
            if self.dfs.insert_dynamic(self.now, NodeId(f.node), block) {
                self.emit(TraceEvent::ReplicaCommitted {
                    node: f.node,
                    block: block.0,
                });
            } else {
                self.policies[f.node as usize].forget(block);
            }
        }
        if self.jobs[f.job as usize].attempts[f.task as usize] != f.attempt {
            return; // attempt aborted by a failure while fetching
        }
        self.emit(TraceEvent::TaskReadDone {
            job: f.job,
            task: f.task,
            attempt: f.attempt,
            node: f.node,
        });
        let compute = self.task_compute(f.job, f.node);
        self.events.push(
            self.now + f.latency + compute,
            Ev::ComputeDone {
                node: f.node,
                job: f.job,
                task: f.task,
                attempt: f.attempt,
            },
        );
    }
}
