//! Flow-level network simulation with per-endpoint fair sharing.
//!
//! Remote block fetches (the thing DARE piggybacks on) contend for NIC
//! bandwidth: when five map tasks on one node all read remote data, each
//! fetch gets a fraction of the NIC. Packet-level simulation would be
//! overkill; we use the classic *flow-level* model:
//!
//! * each active flow has a rate = `min(tx_share at src, rx_share at dst)`,
//!   where a node's tx (rx) share is its NIC capacity divided by the number
//!   of flows transmitting (receiving) there — full-duplex NICs, so tx and
//!   rx pools are independent;
//! * cross-rack flows are additionally divided by the fabric
//!   **oversubscription factor** (Section V-B notes fabrics are frequently
//!   oversubscribed across racks);
//! * rates are piecewise-constant between flow arrivals/departures and
//!   NIC derating changes. The model is not work-conserving: a flow held
//!   back by one endpoint leaves its share at the other endpoint unused.
//!
//! The simulator does work proportional to what a change touches, not to
//! the number of flows in flight:
//!
//! * **Anchored residuals.** Each flow stores `(anchor, bytes at anchor,
//!   rate, finish)`. It re-anchors — measures its residual at `now` and
//!   restarts the clock — only when its rate changes bitwise, so float
//!   integration happens once per rate change. Its finish is
//!   `anchor + ceil(bytes / rate)` in whole microseconds.
//! * **Integer done-rule.** A flow is done exactly when `now >= finish`.
//!   No residual-byte epsilon, no completion slack: a flow re-rated at or
//!   after its finish keeps residual 0 and its finish.
//! * **Pool-local re-rating.** Per-node tx and rx member lists hold the
//!   active flows at each endpoint. A flow's rate depends only on its
//!   src-tx pool and dst-rx pool, so a start, finish, cancel or
//!   [`FlowSim::set_node_factor`] re-rates only the flows in the pools it
//!   changed.
//! * **Completion heap.** A min-heap keyed `(finish, id)` holds one
//!   current entry per active flow; an entry whose flow has since moved
//!   its finish (a per-flow version) or left is stale and skipped. The
//!   top is kept current after every call, so
//!   [`FlowSim::next_completion`] is a peek, and
//!   [`FlowSim::collect_completed`] pops only the flows that finished. The
//!   heap is compacted when stale entries outnumber active flows about
//!   two to one.
//!
//! [`FlowSim<T>`] is the one table of in-flight transfers: every flow
//! carries a caller payload `T` (what the transfer is *for*), so the
//! MapReduce engine keeps no flow map of its own. A flow lives in one of
//! two states. *Active* flows share bandwidth. [`FlowSim::collect_completed`]
//! moves finished flows to *stopped*: they no longer share bandwidth, and
//! each stays in the table until [`FlowSim::take`] hands its payload to the
//! completion handler or [`FlowSim::cancel`] tears it down. Every payload
//! leaves the table exactly once, so a handler that cancels a sibling
//! stopped in the same batch makes the later `take` of that sibling return
//! `None` — no side list of cancellations needed.
//!
//! The engine drives this by scheduling a "network check" event at
//! [`FlowSim::next_completion`] and re-checking whenever flows start.

use crate::topology::NodeId;
use dare_simcore::{FxHashMap, SimDuration, SimTime, Slab, SlabKey};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone)]
struct Flow<T> {
    id: u64,
    src: NodeId,
    dst: NodeId,
    cross_rack: bool,
    started: SimTime,
    /// When `bytes_at_anchor` was measured: the flow's last rate change.
    anchor: SimTime,
    /// Residual bytes at `anchor`.
    bytes_at_anchor: f64,
    /// Rate since `anchor`, bytes/s (`0.0` until the flow is first rated).
    rate: f64,
    /// `anchor + ceil(bytes_at_anchor / rate)` µs; done at `now >= finish`.
    finish: SimTime,
    /// Bumped whenever `finish` moves: heap entries of older versions are
    /// stale.
    version: u32,
    payload: T,
}

impl<T> Flow<T> {
    /// Residual bytes at `now` (zero from the finish on).
    fn residual(&self, now: SimTime) -> f64 {
        if now >= self.finish {
            return 0.0;
        }
        let dt = now.saturating_since(self.anchor).as_secs_f64();
        (self.bytes_at_anchor - self.rate * dt).max(0.0)
    }

    /// Switch to `rate` at `now`. Re-anchors only on a bitwise rate
    /// change; returns whether the finish moved.
    fn rerate(&mut self, now: SimTime, rate: f64) -> bool {
        if rate.to_bits() == self.rate.to_bits() {
            return false;
        }
        self.bytes_at_anchor = self.residual(now);
        self.anchor = now;
        self.rate = rate;
        if now >= self.finish {
            return false;
        }
        let us = (self.bytes_at_anchor / rate * 1e6).ceil() as u64;
        let finish = now + SimDuration::from_micros(us);
        if finish == self.finish {
            return false;
        }
        self.finish = finish;
        self.version = self.version.wrapping_add(1);
        true
    }
}

/// A completion-heap entry, min-first by `(finish, id)`; the slot key and
/// version tell whether it still describes the flow.
type Entry = Reverse<(SimTime, u64, SlabKey, u32)>;

/// The flow-level simulator over payloads `T`. All bandwidth in MB/s,
/// sizes in bytes.
///
/// ```
/// use dare_net::flow::FlowSim;
/// use dare_net::{NodeId, MB};
/// use dare_simcore::SimTime;
///
/// let mut sim = FlowSim::new(vec![100.0; 3], 1.0);
/// // Two 100 MB fetches into the same receiver share its NIC:
/// let a = sim.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, "a");
/// sim.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false, "b");
/// let (t, _) = sim.next_completion().unwrap();
/// assert_eq!(t, SimTime::from_secs(2)); // 50 MB/s each
/// // Both finish together; each payload comes back once.
/// assert_eq!(sim.collect_completed(t).len(), 2);
/// assert_eq!(sim.take(a), Some((SimTime::ZERO, "a")));
/// assert_eq!(sim.take(a), None);
/// ```
#[derive(Debug)]
pub struct FlowSim<T> {
    /// Per-node NIC capacity, bytes/s (converted from MB/s at construction).
    nic_bytes_per_sec: Vec<f64>,
    /// Cross-rack flows see `capacity / oversub`.
    oversub: f64,
    /// Per-node NIC derating factor (gray-failure injection): the node's
    /// effective capacity is `nic / factor`. `1.0` = healthy.
    node_factor: Vec<f64>,
    /// Dense arena of active flows.
    flows: Slab<Flow<T>>,
    /// External id → slab slot. Ids stay sequential `u64`s because they
    /// appear in traces and must survive slot recycling.
    by_id: FxHashMap<u64, SlabKey>,
    /// Active flows transmitting from / receiving at each node; a pool's
    /// length is the divisor of that endpoint's fair share.
    tx_pool: Vec<Vec<SlabKey>>,
    rx_pool: Vec<Vec<SlabKey>>,
    /// Completion heap; its top is always current (or the heap empty).
    heap: BinaryHeap<Entry>,
    /// Stopped flows not yet taken or cancelled: `(id, start, payload)`.
    /// Short-lived (drained by the completion handler of the same batch).
    stopped: Vec<(u64, SimTime, T)>,
    next_id: u64,
    /// Work counters: changes (starts, finishes, cancels, factor
    /// changes) and flows re-rated because of them.
    changes: u64,
    rerates: u64,
}

impl<T> FlowSim<T> {
    /// Build over per-node NIC capacities (MB/s) and a cross-rack
    /// oversubscription factor (`>= 1`).
    pub fn new(nic_capacity_mbps: Vec<f64>, oversub: f64) -> Self {
        assert!(!nic_capacity_mbps.is_empty());
        assert!(
            oversub >= 1.0 && oversub.is_finite(),
            "oversubscription factor must be finite and >= 1"
        );
        assert!(nic_capacity_mbps.iter().all(|&c| c > 0.0 && c.is_finite()));
        let n = nic_capacity_mbps.len();
        FlowSim {
            nic_bytes_per_sec: nic_capacity_mbps
                .iter()
                .map(|c| c * crate::MB as f64)
                .collect(),
            oversub,
            node_factor: vec![1.0; n],
            flows: Slab::new(),
            by_id: FxHashMap::default(),
            tx_pool: vec![Vec::new(); n],
            rx_pool: vec![Vec::new(); n],
            heap: BinaryHeap::new(),
            stopped: Vec::new(),
            next_id: 0,
            changes: 0,
            rerates: 0,
        }
    }

    /// Set a node's NIC derating factor (gray-failure injection): its
    /// effective capacity becomes `nic / factor` for both tx and rx
    /// until the factor is reset to `1.0`. The flows sending from or
    /// receiving at the node are re-rated at `now`, so the change is
    /// piecewise-constant like any arrival or departure.
    pub fn set_node_factor(&mut self, now: SimTime, node: NodeId, factor: f64) {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "NIC derating factor must be finite and >= 1, got {factor}"
        );
        assert!(node.idx() < self.node_factor.len());
        self.node_factor[node.idx()] = factor;
        self.changes += 1;
        self.rerate_pools(now, node, node);
    }

    /// Peak number of simultaneously active flows (slab high-water mark).
    pub fn peak_active(&self) -> usize {
        self.flows.peak()
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Flows ever started.
    pub fn total_started(&self) -> u64 {
        self.next_id
    }

    /// Changes so far (starts, finishes, cancels of active flows and
    /// factor changes) and the flows re-rated because of them.
    pub fn work(&self) -> (u64, u64) {
        (self.changes, self.rerates)
    }

    /// Start a flow of `bytes` from `src` to `dst` at time `now`, carrying
    /// `payload`. `cross_rack` flags whether the path pays the
    /// oversubscription tax.
    pub fn start(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cross_rack: bool,
        payload: T,
    ) -> FlowId {
        assert!(src.idx() < self.nic_bytes_per_sec.len());
        assert!(dst.idx() < self.nic_bytes_per_sec.len());
        let id = self.next_id;
        self.next_id += 1;
        let key = self.flows.insert(Flow {
            id,
            src,
            dst,
            cross_rack,
            started: now,
            anchor: now,
            bytes_at_anchor: bytes as f64,
            rate: 0.0,
            finish: SimTime::MAX,
            version: 0,
            payload,
        });
        self.by_id.insert(id, key);
        self.tx_pool[src.idx()].push(key);
        self.rx_pool[dst.idx()].push(key);
        self.changes += 1;
        self.rerate_pools(now, src, dst);
        FlowId(id)
    }

    /// Earliest predicted completion across active flows, assuming rates
    /// stay as they are, with the lowest id among flows finishing in the
    /// same microsecond. `None` when no flow is active. The prediction is
    /// exact: [`FlowSim::collect_completed`] at that instant stops the flow.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        self.heap
            .peek()
            .map(|&Reverse((finish, id, _, _))| (finish, FlowId(id)))
    }

    /// Stop every flow whose finish is at or before `now`: they leave the
    /// bandwidth pools and wait for [`FlowSim::take`]; the flows they
    /// shared pools with are re-rated at `now`. Returns the stopped ids in
    /// ascending order.
    pub fn collect_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        let mut done: Vec<(u64, SlabKey)> = Vec::new();
        while let Some(&Reverse((finish, id, key, _))) = self.heap.peek() {
            if finish > now {
                break;
            }
            self.heap.pop();
            self.prune_top();
            done.push((id, key));
        }
        done.sort_unstable_by_key(|&(id, _)| id);
        let mut ends = Vec::with_capacity(done.len());
        for &(id, key) in &done {
            let f = self.remove_active(id, key);
            ends.push((f.src, f.dst));
            self.stopped.push((id, f.started, f.payload));
        }
        // Re-rate only after every finished flow has left its pools, so
        // each survivor re-anchors at most once, at its final rate.
        self.changes += ends.len() as u64;
        for (src, dst) in ends {
            self.rerate_pools(now, src, dst);
        }
        done.into_iter().map(|(id, _)| FlowId(id)).collect()
    }

    /// Remove a stopped flow, returning its start time and payload.
    /// `None` if the flow is still active, was cancelled, or was already
    /// taken.
    pub fn take(&mut self, id: FlowId) -> Option<(SimTime, T)> {
        let i = self.stopped.iter().position(|s| s.0 == id.0)?;
        let (_, started, payload) = self.stopped.remove(i);
        Some((started, payload))
    }

    /// Abort a flow (task killed / node failed), returning its payload:
    /// an active flow leaves the bandwidth pools; a stopped flow not yet
    /// taken is dropped before its completion is handled. `None` if the
    /// flow already left the table.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<T> {
        if let Some(&key) = self.by_id.get(&id.0) {
            let f = self.remove_active(id.0, key);
            self.changes += 1;
            self.rerate_pools(now, f.src, f.dst);
            return Some(f.payload);
        }
        self.take(id).map(|(_, payload)| payload)
    }

    /// True while `id` is in the table (active, or stopped and not yet
    /// taken).
    pub fn contains(&self, id: FlowId) -> bool {
        self.by_id.contains_key(&id.0) || self.stopped.iter().any(|s| s.0 == id.0)
    }

    /// Every flow still in the table — active, then stopped — with its
    /// payload. Slot order, not id order: callers that act on the result
    /// sort it.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        let active = self.flows.iter().map(|(_, f)| (FlowId(f.id), &f.payload));
        active.chain(self.stopped.iter().map(|s| (FlowId(s.0), &s.2)))
    }

    /// Mutable payloads of every flow still in the table.
    pub fn payloads_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let active = self.flows.iter_mut().map(|(_, f)| &mut f.payload);
        active.chain(self.stopped.iter_mut().map(|s| &mut s.2))
    }

    /// Current rate of a flow in bytes/s (None if finished/unknown).
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.lookup(id).map(|f| f.rate)
    }

    /// An active flow's anchored progress: `(anchor, residual bytes at
    /// the anchor, rate since the anchor)`. Together they fix the flow's
    /// future exactly (until the next rate change).
    pub fn anchor_of(&self, id: FlowId) -> Option<(SimTime, f64, f64)> {
        self.lookup(id)
            .map(|f| (f.anchor, f.bytes_at_anchor, f.rate))
    }

    #[inline]
    fn lookup(&self, id: FlowId) -> Option<&Flow<T>> {
        self.by_id.get(&id.0).and_then(|&k| self.flows.get(k))
    }

    /// Per-node NIC utilization across the active flows, written into
    /// `out` as `(tx, rx)` fractions of *effective* capacity in `[0, 1]`
    /// (cross-rack flows run below their fair share, so sums stay within
    /// the NIC; a derated node reports against its degraded capacity, so
    /// saturating a gray NIC still reads as 1.0).
    ///
    /// Flows are accumulated in ascending-id order so the floating-point
    /// sums — and therefore a telemetry export built from them — are
    /// identical across runs despite the `HashMap` storage.
    pub fn nic_utilization_into(&self, out: &mut Vec<(f64, f64)>) {
        out.clear();
        out.resize(self.nic_bytes_per_sec.len(), (0.0, 0.0));
        let mut entries: Vec<(u64, usize, usize, f64)> = self
            .flows
            .iter()
            .map(|(_, f)| (f.id, f.src.idx(), f.dst.idx(), f.rate))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        for (_, src, dst, rate) in entries {
            out[src].0 += rate;
            out[dst].1 += rate;
        }
        for (i, (u, &cap)) in out.iter_mut().zip(&self.nic_bytes_per_sec).enumerate() {
            let eff = cap / self.node_factor[i];
            u.0 /= eff;
            u.1 /= eff;
        }
    }

    /// Take an active flow out of the slab, the id index and its pools.
    /// Its heap entry goes stale.
    fn remove_active(&mut self, id: u64, key: SlabKey) -> Flow<T> {
        self.by_id.remove(&id);
        let f = self.flows.remove(key).expect("indexed flow is active");
        for pool in [
            &mut self.tx_pool[f.src.idx()],
            &mut self.rx_pool[f.dst.idx()],
        ] {
            let i = pool
                .iter()
                .position(|&k| k == key)
                .expect("flow in its pools");
            pool.swap_remove(i);
            if pool.is_empty() {
                // Only pools with members hold memory: over a long run
                // most of a large cluster's NICs carry a flow at some
                // point, and idle ones should not keep a buffer each.
                *pool = Vec::new();
            }
        }
        f
    }

    /// Re-rate every flow in `src`'s tx pool and `dst`'s rx pool at
    /// `now` (a flow in both, once), then restore the heap invariants.
    fn rerate_pools(&mut self, now: SimTime, src: NodeId, dst: NodeId) {
        for i in 0..self.tx_pool[src.idx()].len() {
            self.rerate(now, self.tx_pool[src.idx()][i]);
        }
        for i in 0..self.rx_pool[dst.idx()].len() {
            let key = self.rx_pool[dst.idx()][i];
            if self.flows[key].src != src {
                self.rerate(now, key);
            }
        }
        self.prune_top();
        let stale = self.heap.len().saturating_sub(self.flows.len());
        if stale > 2 * self.flows.len() + 64 {
            let flows = &self.flows;
            self.heap.retain(|e| is_current(flows, e));
        }
    }

    /// Give the flow at `key` the rate its pools imply now, pushing a
    /// heap entry if its finish moved.
    fn rerate(&mut self, now: SimTime, key: SlabKey) {
        self.rerates += 1;
        let f = &self.flows[key];
        let (s, d) = (f.src.idx(), f.dst.idx());
        let tx_share =
            self.nic_bytes_per_sec[s] / self.node_factor[s] / self.tx_pool[s].len() as f64;
        let rx_share =
            self.nic_bytes_per_sec[d] / self.node_factor[d] / self.rx_pool[d].len() as f64;
        let mut rate = tx_share.min(rx_share);
        if f.cross_rack {
            rate /= self.oversub;
        }
        let f = &mut self.flows[key];
        if f.rerate(now, rate) {
            self.heap.push(Reverse((f.finish, f.id, key, f.version)));
        }
    }

    /// Pop stale entries until the top is current (or the heap empty).
    fn prune_top(&mut self) {
        while let Some(top) = self.heap.peek() {
            if is_current(&self.flows, top) {
                return;
            }
            self.heap.pop();
        }
    }
}

/// Whether a heap entry still describes an active flow's finish.
fn is_current<T>(flows: &Slab<Flow<T>>, &Reverse((_, _, key, version)): &Entry) -> bool {
    flows.get(key).is_some_and(|f| f.version == version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MB;

    fn sim(nodes: usize, mbps: f64) -> FlowSim<()> {
        FlowSim::new(vec![mbps; nodes], 1.0)
    }

    #[test]
    fn lone_flow_runs_at_full_capacity() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false, ());
        let (t, fid) = s.next_completion().expect("one active flow");
        assert_eq!(fid, id);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-5, "100MB @100MB/s = 1s");
        let done = s.collect_completed(t);
        assert_eq!(done, vec![id]);
        assert_eq!(s.active(), 0);
    }

    #[test]
    fn two_flows_into_one_destination_halve() {
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false, ());
        let (t, _) = s.next_completion().expect("flows active");
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-5, "rx shared => 2s");
    }

    #[test]
    fn two_flows_out_of_one_source_halve() {
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false, ());
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        let (t, _) = s.next_completion().expect("flows active");
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-5, "tx shared => 2s");
    }

    #[test]
    fn full_duplex_tx_and_rx_do_not_interfere() {
        let mut s = sim(2, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false, ());
        s.start(SimTime::ZERO, NodeId(1), NodeId(0), 100 * MB, false, ());
        let (t, _) = s.next_completion().expect("flows active");
        assert!(
            (t.as_secs_f64() - 1.0).abs() < 1e-5,
            "opposite directions share nothing"
        );
    }

    #[test]
    fn cross_rack_pays_oversubscription() {
        let mut s = FlowSim::new(vec![100.0; 2], 2.5);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, true, ());
        let (t, _) = s.next_completion().expect("flow active");
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-5);
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        // After 0.5 s flow a has moved 50 MB. Then b joins at the same dst.
        let t1 = SimTime::from_secs_f64(0.5);
        let _b = s.start(t1, NodeId(1), NodeId(2), 100 * MB, false, ());
        // a now has 50 MB left at 50 MB/s => finishes at t = 1.5.
        let (t, fid) = s.next_completion().expect("flows active");
        assert_eq!(fid, a);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-5, "got {t}");
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 50 * MB, false, ());
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false, ());
        // Both at 50 MB/s. a finishes at t=1 with b holding 50 MB.
        let (t_a, fid) = s.next_completion().expect("flows active");
        assert_eq!(fid, a);
        assert!((t_a.as_secs_f64() - 1.0).abs() < 1e-5);
        s.collect_completed(t_a);
        // b now alone at 100 MB/s: 50 MB left => finishes at t=1.5.
        let (t_b, fid) = s.next_completion().expect("b still active");
        assert_eq!(fid, b);
        assert!((t_b.as_secs_f64() - 1.5).abs() < 1e-5, "got {t_b}");
    }

    #[test]
    fn heterogeneous_capacity_bottleneck_is_min_endpoint() {
        let mut s = FlowSim::new(vec![100.0, 20.0], 1.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false, ());
        let (t, _) = s.next_completion().expect("flow active");
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-5, "rx NIC of 20 MB/s");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 0, false, ());
        let (t, fid) = s.next_completion().expect("flow active");
        assert_eq!((t, fid), (SimTime::ZERO, id));
        assert_eq!(s.collect_completed(SimTime::ZERO), vec![id]);
    }

    #[test]
    fn cancel_removes_and_rebalances() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false, ());
        s.cancel(SimTime::from_secs_f64(0.5), a);
        assert_eq!(s.active(), 1);
        // b moved 25 MB in the shared phase; 75 MB left at full rate.
        let (t, fid) = s.next_completion().expect("b active");
        assert_eq!(fid, b);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-5, "got {t}");
        // cancelling an unknown flow is a no-op
        s.cancel(SimTime::from_secs_f64(0.6), a);
        assert_eq!(s.active(), 1);
    }

    #[test]
    fn stale_completion_check_is_safe() {
        // The engine may pop a completion event scheduled before a new flow
        // slowed everything down; collect_completed must return empty then.
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        let (t_pred, _) = s.next_completion().expect("flow active");
        s.start(
            SimTime::from_secs_f64(0.5),
            NodeId(1),
            NodeId(2),
            100 * MB,
            false,
            (),
        );
        let done = s.collect_completed(t_pred);
        assert!(done.is_empty(), "prediction went stale; nothing finished");
        let (t_new, _) = s.next_completion().expect("flows active");
        assert!(t_new > t_pred);
        assert_eq!(s.total_started(), 2);
    }

    #[test]
    fn many_flows_conserve_reasonable_aggregate() {
        // 10 senders into one receiver: aggregate completion = sum of bytes
        // over rx capacity.
        let mut s = sim(11, 100.0);
        for i in 0..10u32 {
            s.start(SimTime::ZERO, NodeId(i), NodeId(10), 10 * MB, false, ());
        }
        let mut last = SimTime::ZERO;
        let mut completed = 0;
        while let Some((t, _)) = s.next_completion() {
            last = t;
            completed += s.collect_completed(t).len();
        }
        assert_eq!(completed, 10);
        assert!((last.as_secs_f64() - 1.0).abs() < 1e-3, "100MB @ 100MB/s");
    }

    #[test]
    fn nic_utilization_reflects_fair_shares() {
        let mut s = sim(3, 100.0);
        let mut util = Vec::new();
        s.nic_utilization_into(&mut util);
        assert_eq!(util, vec![(0.0, 0.0); 3], "idle fabric");
        // Two senders into node 2: each runs at half the rx NIC, so each
        // tx side sits at 0.5 and the rx side is saturated.
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false, ());
        s.nic_utilization_into(&mut util);
        assert!((util[0].0 - 0.5).abs() < 1e-9);
        assert!((util[1].0 - 0.5).abs() < 1e-9);
        assert!((util[2].1 - 1.0).abs() < 1e-9);
        assert_eq!(util[2].0, 0.0, "no tx at the receiver");
    }

    #[test]
    fn node_factor_derates_and_restores_mid_flow() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false, ());
        // 0.5 s at full rate moves 50 MB; then the receiver goes gray 4x.
        s.set_node_factor(SimTime::from_micros(500_000), NodeId(1), 4.0);
        assert_eq!(s.rate_of(id), Some(25.0 * MB as f64));
        let (t, _) = s.next_completion().expect("flow active");
        assert_eq!(t, SimTime::from_micros(2_500_000), "50 MB @ 25 MB/s");
        // Recovery at t=1.5 (25 MB moved gray, 25 MB left at full rate).
        s.set_node_factor(SimTime::from_micros(1_500_000), NodeId(1), 1.0);
        let (t, _) = s.next_completion().expect("flow active");
        assert_eq!(t, SimTime::from_micros(1_750_000));
        assert_eq!(s.collect_completed(t), vec![id]);
    }

    #[test]
    fn gray_source_bottlenecks_and_utilization_reads_effective() {
        let mut s = sim(3, 100.0);
        s.set_node_factor(SimTime::ZERO, NodeId(0), 2.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false, ());
        // rx fair share is 50 each; the gray tx side only offers 50, so
        // both flows sit at 50 MB/s and the receiver stays saturated.
        assert!((s.rate_of(a).unwrap() - 50.0 * MB as f64).abs() < 1.0);
        assert!((s.rate_of(b).unwrap() - 50.0 * MB as f64).abs() < 1.0);
        let mut util = Vec::new();
        s.nic_utilization_into(&mut util);
        assert!(
            (util[0].0 - 1.0).abs() < 1e-9,
            "gray tx saturated vs effective cap"
        );
        assert!((util[1].0 - 0.5).abs() < 1e-9);
        assert!((util[2].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn take_returns_each_stopped_payload_once() {
        let mut s: FlowSim<&str> = FlowSim::new(vec![100.0; 4], 1.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(3), 10 * MB, false, "a");
        let t1 = SimTime::from_secs_f64(0.05);
        let b = s.start(t1, NodeId(1), NodeId(3), 10 * MB, false, "b");
        let c = s.start(t1, NodeId(2), NodeId(1), 100 * MB, false, "c");
        assert_eq!(s.take(a), None, "an active flow is not taken");
        // Stop a and b; c keeps running at the full NIC rate.
        let done = s.collect_completed(SimTime::from_secs(1));
        assert_eq!(done, vec![a, b]);
        assert_eq!(s.active(), 1);
        assert!(s.contains(a) && s.contains(b) && s.contains(c));
        let mut held: Vec<_> = s.iter().map(|(id, &p)| (id, p)).collect();
        held.sort_unstable();
        assert_eq!(held, vec![(a, "a"), (b, "b"), (c, "c")]);
        // A handler cancels the stopped sibling before its turn.
        assert_eq!(s.cancel(SimTime::from_secs(1), b), Some("b"));
        assert_eq!(s.take(a), Some((SimTime::ZERO, "a")));
        assert_eq!(s.take(b), None, "cancelled before it was taken");
        assert_eq!(s.take(a), None, "taken once");
        assert!(!s.contains(a) && !s.contains(b));
        assert!((s.rate_of(c).unwrap() - 100.0 * MB as f64).abs() < 1.0);
    }

    // Closed forms. Capacities and sizes are picked so every fair share
    // and every phase is an exact binary fraction; each finish must then
    // be the fluid model's completion time, in whole microseconds.

    /// `ceil(num / den)` seconds, in microseconds.
    fn ceil_us(num: u64, den: u64) -> SimTime {
        let us = (num as u128 * 1_000_000).div_ceil(den as u128);
        SimTime::from_micros(us as u64)
    }

    /// Run every flow to completion: `(finish, id)` in completion order.
    fn drain(s: &mut FlowSim<()>) -> Vec<(SimTime, FlowId)> {
        let mut out = Vec::new();
        while let Some((t, _)) = s.next_completion() {
            out.extend(s.collect_completed(t).into_iter().map(|id| (t, id)));
        }
        out
    }

    /// MB/s; divisible by every `k` below.
    const CAP: u64 = 120;

    #[test]
    fn k_flows_out_of_one_nic_finish_at_k_b_over_cap() {
        for k in 1..=6u64 {
            let b = 60 * MB;
            let mut s = sim(k as usize + 1, CAP as f64);
            for i in 1..=k {
                s.start(SimTime::ZERO, NodeId(0), NodeId(i as u32), b, false, ());
            }
            let want = ceil_us(k * b, CAP * MB);
            let done = drain(&mut s);
            assert_eq!(done.len(), k as usize);
            assert!(
                done.iter().all(|&(t, _)| t == want),
                "k={k}: {done:?}, want {want}"
            );
        }
    }

    #[test]
    fn k_flows_into_one_nic_finish_at_k_b_over_cap() {
        for k in 1..=6u64 {
            let b = 60 * MB;
            let mut s = sim(k as usize + 1, CAP as f64);
            for i in 1..=k {
                s.start(SimTime::ZERO, NodeId(i as u32), NodeId(0), b, false, ());
            }
            let want = ceil_us(k * b, CAP * MB);
            let done = drain(&mut s);
            assert_eq!(done.len(), k as usize);
            assert!(
                done.iter().all(|&(t, _)| t == want),
                "k={k}: {done:?}, want {want}"
            );
        }
    }

    #[test]
    fn cross_rack_flows_finish_at_k_b_over_cap_per_oversub() {
        // k·B / (cap / oversub) with oversub = 2.5: exact for k in 1..=4
        // and 6 (120 / k / 2.5 MB/s is an exact multiple of 1 MiB/s).
        for k in [1u64, 2, 3, 4, 6] {
            let b = 60 * MB;
            let mut s = FlowSim::new(vec![CAP as f64; k as usize + 1], 2.5);
            for i in 1..=k {
                s.start(SimTime::ZERO, NodeId(0), NodeId(i as u32), b, true, ());
            }
            let want = ceil_us(k * b * 5, CAP * MB * 2);
            let done = drain(&mut s);
            assert_eq!(done.len(), k as usize);
            assert!(
                done.iter().all(|&(t, _)| t == want),
                "k={k}: {done:?}, want {want}"
            );
        }
    }

    #[test]
    fn staggered_starts_are_piecewise_exact() {
        // Three 120 MB flows into node 3 at 120 MB/s, starting at 0, 0.25
        // and 0.5 s. Phases: a alone (30 MB); a, b at 60 (15 MB each);
        // a, b, c at 40 until a's last 75 MB are done (t = 2.375); b, c
        // at 60 until b's last 30 MB are done (t = 2.875); c alone for
        // its last 15 MB (t = 3.0).
        let mut s = sim(4, CAP as f64);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(3), 120 * MB, false, ());
        let b = s.start(
            SimTime::from_micros(250_000),
            NodeId(1),
            NodeId(3),
            120 * MB,
            false,
            (),
        );
        let c = s.start(
            SimTime::from_micros(500_000),
            NodeId(2),
            NodeId(3),
            120 * MB,
            false,
            (),
        );
        let us = SimTime::from_micros;
        assert_eq!(
            drain(&mut s),
            vec![(us(2_375_000), a), (us(2_875_000), b), (us(3_000_000), c)]
        );
    }

    #[test]
    fn an_unchanged_rate_keeps_the_anchor() {
        // b's start on another pair leaves a's rate bitwise equal, so a
        // is not re-anchored; a cancel on a's receiver re-anchors it.
        let mut s = sim(5, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false, ());
        s.start(
            SimTime::from_micros(100_000),
            NodeId(2),
            NodeId(3),
            100 * MB,
            false,
            (),
        );
        assert_eq!(
            s.anchor_of(a),
            Some((SimTime::ZERO, (100 * MB) as f64, (100 * MB) as f64))
        );
        let c = s.start(
            SimTime::from_micros(200_000),
            NodeId(4),
            NodeId(1),
            100 * MB,
            false,
            (),
        );
        let half = (50 * MB) as f64;
        assert_eq!(
            s.anchor_of(a),
            Some((SimTime::from_micros(200_000), (80 * MB) as f64, half))
        );
        s.cancel(SimTime::from_micros(400_000), c);
        assert_eq!(
            s.anchor_of(a),
            Some((
                SimTime::from_micros(400_000),
                (70 * MB) as f64,
                (100 * MB) as f64
            ))
        );
        assert_eq!(
            s.next_completion(),
            Some((SimTime::from_micros(1_100_000), a))
        );
        assert_eq!(
            s.work(),
            (4, 5),
            "3 starts + 1 cancel; 1 + 1 + 2 + 1 re-rates"
        );
    }

    #[test]
    fn a_flow_re_rated_after_its_finish_keeps_residual_zero() {
        // a is due at 1 s but not collected yet when b joins its receiver
        // at 1 s: a stays done, with residual 0 and its finish.
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false, ());
        let t = SimTime::from_secs(1);
        s.start(t, NodeId(1), NodeId(2), 100 * MB, false, ());
        assert_eq!(s.anchor_of(a), Some((t, 0.0, (50 * MB) as f64)));
        assert_eq!(s.next_completion(), Some((t, a)));
        assert_eq!(s.collect_completed(t), vec![a]);
    }
}
