//! Property-based flow-simulator tests: byte conservation, monotone
//! completion times, rate sanity, payload conservation under arbitrary
//! start/cancel/drain schedules, and a bit-for-bit differential against
//! a naive oracle of the same semantics.
//!
//! Case counts honour `DARE_PROP_CASES` (the nightly extended run).

use dare_net::flow::{FlowId, FlowSim};
use dare_net::{NodeId, MB};
use dare_simcore::check::{env_cases, run_cases, Gen};
use dare_simcore::{SimDuration, SimTime};

#[derive(Debug, Clone)]
struct FlowSpec {
    src: u32,
    dst: u32,
    mb: u64,
    gap_ms: u64,
    cross: bool,
}

fn flows(g: &mut Gen, nodes: u32) -> Vec<FlowSpec> {
    g.vec(1..40, |g| FlowSpec {
        src: g.u32_in(0..nodes),
        dst: g.u32_in(0..nodes),
        mb: g.u64_in(1..64),
        gap_ms: g.u64_in(0..2000),
        cross: g.bool(0.5),
    })
}

#[test]
fn all_flows_complete_in_monotone_order() {
    run_cases(env_cases(64), 0xF10E_0001, |g| {
        let specs = flows(g, 6);
        let oversub = g.f64_in(1.0..3.0);
        let mut sim = FlowSim::new(vec![100.0; 6], oversub);
        let mut now = SimTime::ZERO;
        let mut started = 0u64;
        let mut completed = 0u64;
        for s in &specs {
            now += SimDuration::from_millis(s.gap_ms);
            let dst = if s.src == s.dst {
                (s.dst + 1) % 6
            } else {
                s.dst
            };
            sim.start(now, NodeId(s.src), NodeId(dst), s.mb * MB, s.cross, ());
            started += 1;
            // Opportunistically drain anything already done.
            completed += sim.collect_completed(now).len() as u64;
        }
        // Drain to the end; completion times must never go backwards.
        let mut last = now;
        let mut guard = 0;
        while let Some((t, _)) = sim.next_completion() {
            assert!(t >= last, "completion time went backwards");
            last = t;
            completed += sim.collect_completed(t).len() as u64;
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        assert_eq!(completed, started, "byte conservation: every flow finishes");
        assert_eq!(sim.active(), 0);
        assert_eq!(sim.total_started(), started);
    });
}

#[test]
fn rates_never_exceed_nic_capacity() {
    run_cases(env_cases(64), 0xF10E_0002, |g| {
        let specs = flows(g, 4);
        let cap = 100.0 * MB as f64;
        let mut sim = FlowSim::new(vec![100.0; 4], 1.0);
        let mut now = SimTime::ZERO;
        let mut ids = Vec::new();
        for s in &specs {
            now += SimDuration::from_millis(s.gap_ms);
            let dst = if s.src == s.dst {
                (s.dst + 1) % 4
            } else {
                s.dst
            };
            ids.push(sim.start(now, NodeId(s.src), NodeId(dst), s.mb * MB, false, ()));
            for &id in &ids {
                if let Some(r) = sim.rate_of(id) {
                    assert!(r <= cap * (1.0 + 1e-9), "rate {r} exceeds NIC");
                    assert!(r > 0.0, "active flow starved");
                }
            }
        }
    });
}

#[test]
fn lone_flow_duration_is_exact() {
    run_cases(env_cases(64), 0xF10E_0003, |g| {
        let mb = g.u64_in(1..512);
        let cap = g.f64_in(10.0..200.0);
        let mut sim = FlowSim::new(vec![cap; 2], 1.0);
        sim.start(SimTime::ZERO, NodeId(0), NodeId(1), mb * MB, false, ());
        let (t, _) = sim.next_completion().expect("one flow");
        let want = mb as f64 / cap;
        assert!(
            (t.as_secs_f64() - want).abs() < 1e-4,
            "duration {} vs {}",
            t.as_secs_f64(),
            want
        );
    });
}

#[test]
fn cancel_is_always_safe() {
    run_cases(env_cases(64), 0xF10E_0004, |g| {
        let specs = flows(g, 5);
        let cancel_mask: Vec<bool> = g.vec(1..40, |g| g.bool(0.5));
        let mut sim = FlowSim::new(vec![100.0; 5], 1.5);
        let mut now = SimTime::ZERO;
        let mut live = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            now += SimDuration::from_millis(s.gap_ms);
            let dst = if s.src == s.dst {
                (s.dst + 1) % 5
            } else {
                s.dst
            };
            let id = sim.start(now, NodeId(s.src), NodeId(dst), s.mb * MB, s.cross, ());
            live.push(id);
            if *cancel_mask.get(i).unwrap_or(&false) {
                if let Some(&victim) = live.first() {
                    sim.cancel(now, victim);
                    live.remove(0);
                }
            }
        }
        // Whatever was cancelled, the rest still drains.
        let mut guard = 0;
        while let Some((t, _)) = sim.next_completion() {
            sim.collect_completed(t);
            guard += 1;
            assert!(guard < 10_000);
        }
        assert_eq!(sim.active(), 0);
    });
}

#[test]
fn every_payload_leaves_the_table_exactly_once() {
    run_cases(env_cases(128), 0xF10E_0005, |g| {
        let nodes = 5u32;
        let mut sim = FlowSim::new(vec![100.0; nodes as usize], 1.5);
        let mut now = SimTime::ZERO;
        // Payload `i` rides on `ids[i]`; `returned[i]` counts its exits.
        let mut ids: Vec<FlowId> = Vec::new();
        let mut returned: Vec<u32> = Vec::new();
        // Stopped by `collect_completed`, not yet taken or cancelled.
        let mut stopped: Vec<FlowId> = Vec::new();
        let back = |returned: &mut Vec<u32>, ids: &[FlowId], id: FlowId, p: usize| {
            assert_eq!(ids[p], id, "payload {p} came back on the wrong flow");
            returned[p] += 1;
        };
        let ops = g.vec(1..120, |g| g.u32_in(0..10));
        for op in ops {
            match op {
                0..=3 => {
                    let src = g.u32_in(0..nodes);
                    let dst = (src + g.u32_in(1..nodes)) % nodes;
                    let mb = g.u64_in(0..32);
                    let p = ids.len();
                    ids.push(sim.start(now, NodeId(src), NodeId(dst), mb * MB, g.bool(0.3), p));
                    returned.push(0);
                }
                4 | 5 if !ids.is_empty() => {
                    // Any flow ever started: active, stopped, or gone.
                    let id = *g.pick(&ids);
                    if let Some(p) = sim.cancel(now, id) {
                        back(&mut returned, &ids, id, p);
                        stopped.retain(|&s| s != id);
                    }
                    assert_eq!(sim.take(id), None, "take after cancel");
                    assert!(!sim.contains(id));
                }
                6 | 7 => {
                    now += SimDuration::from_millis(g.u64_in(0..400));
                    let done = sim.collect_completed(now);
                    assert!(done.windows(2).all(|w| w[0] < w[1]), "ascending ids");
                    stopped.extend(done);
                }
                8 | 9 if !stopped.is_empty() => {
                    let i = g.usize_in(0..stopped.len());
                    let id = stopped.swap_remove(i);
                    let (started, p) = sim.take(id).expect("a stopped flow is taken once");
                    assert!(started <= now);
                    back(&mut returned, &ids, id, p);
                    assert_eq!(sim.take(id), None, "taken twice");
                }
                _ => {}
            }
            assert_eq!(sim.iter().count(), sim.active() + stopped.len());
        }
        // Drain: finish every active flow, then take everything stopped.
        let mut guard = 0;
        while let Some((t, _)) = sim.next_completion() {
            stopped.extend(sim.collect_completed(t));
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        for id in stopped {
            let (_, p) = sim.take(id).expect("stopped flow still in the table");
            back(&mut returned, &ids, id, p);
        }
        assert_eq!(sim.iter().count(), 0, "table empty after the drain");
        assert!(
            returned.iter().all(|&n| n == 1),
            "each payload exactly once: {returned:?}"
        );
    });
}

/// The naive form of `FlowSim`'s semantics: every change re-rates every
/// active flow from endpoint counts taken afresh, a flow re-anchors only
/// on a bitwise rate change, and the next completion is a scan over all
/// flows. The incremental table must agree with it bit for bit.
mod naive {
    use dare_net::MB;
    use dare_simcore::{SimDuration, SimTime};

    struct Flow<T> {
        id: u64,
        src: usize,
        dst: usize,
        cross: bool,
        started: SimTime,
        anchor: SimTime,
        bytes: f64,
        rate: f64,
        finish: SimTime,
        payload: T,
    }

    pub struct NaiveFlowSim<T> {
        caps: Vec<f64>,
        factor: Vec<f64>,
        oversub: f64,
        /// Ascending id.
        active: Vec<Flow<T>>,
        stopped: Vec<(u64, SimTime, T)>,
        next_id: u64,
    }

    impl<T> NaiveFlowSim<T> {
        pub fn new(mbps: &[f64], oversub: f64) -> Self {
            NaiveFlowSim {
                caps: mbps.iter().map(|c| c * MB as f64).collect(),
                factor: vec![1.0; mbps.len()],
                oversub,
                active: Vec::new(),
                stopped: Vec::new(),
                next_id: 0,
            }
        }

        pub fn active(&self) -> usize {
            self.active.len()
        }

        pub fn start(
            &mut self,
            now: SimTime,
            src: u32,
            dst: u32,
            bytes: u64,
            cross: bool,
            payload: T,
        ) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.active.push(Flow {
                id,
                src: src as usize,
                dst: dst as usize,
                cross,
                started: now,
                anchor: now,
                bytes: bytes as f64,
                rate: 0.0,
                finish: SimTime::MAX,
                payload,
            });
            self.rerate_all(now);
            id
        }

        pub fn set_node_factor(&mut self, now: SimTime, node: u32, factor: f64) {
            self.factor[node as usize] = factor;
            self.rerate_all(now);
        }

        pub fn next_completion(&self) -> Option<(SimTime, u64)> {
            self.active
                .iter()
                .map(|f| (f.finish, f.id))
                .filter(|&(t, _)| t < SimTime::MAX)
                .min()
        }

        pub fn collect_completed(&mut self, now: SimTime) -> Vec<u64> {
            let (done, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.active)
                .into_iter()
                .partition(|f| f.finish <= now);
            self.active = keep;
            let ids: Vec<u64> = done.iter().map(|f| f.id).collect();
            self.stopped
                .extend(done.into_iter().map(|f| (f.id, f.started, f.payload)));
            if !ids.is_empty() {
                self.rerate_all(now);
            }
            ids
        }

        pub fn take(&mut self, id: u64) -> Option<(SimTime, T)> {
            let i = self.stopped.iter().position(|s| s.0 == id)?;
            let (_, started, payload) = self.stopped.remove(i);
            Some((started, payload))
        }

        pub fn cancel(&mut self, now: SimTime, id: u64) -> Option<T> {
            if let Some(i) = self.active.iter().position(|f| f.id == id) {
                let f = self.active.remove(i);
                self.rerate_all(now);
                return Some(f.payload);
            }
            self.take(id).map(|(_, p)| p)
        }

        pub fn rate_of(&self, id: u64) -> Option<f64> {
            self.active.iter().find(|f| f.id == id).map(|f| f.rate)
        }

        pub fn anchor_of(&self, id: u64) -> Option<(SimTime, f64, f64)> {
            self.active
                .iter()
                .find(|f| f.id == id)
                .map(|f| (f.anchor, f.bytes, f.rate))
        }

        fn rerate_all(&mut self, now: SimTime) {
            let mut tx = vec![0u32; self.caps.len()];
            let mut rx = vec![0u32; self.caps.len()];
            for f in &self.active {
                tx[f.src] += 1;
                rx[f.dst] += 1;
            }
            for f in &mut self.active {
                let tx_share = self.caps[f.src] / self.factor[f.src] / tx[f.src] as f64;
                let rx_share = self.caps[f.dst] / self.factor[f.dst] / rx[f.dst] as f64;
                let mut rate = tx_share.min(rx_share);
                if f.cross {
                    rate /= self.oversub;
                }
                if rate.to_bits() == f.rate.to_bits() {
                    continue;
                }
                let reached = now >= f.finish;
                f.bytes = if reached {
                    0.0
                } else {
                    (f.bytes - f.rate * now.saturating_since(f.anchor).as_secs_f64()).max(0.0)
                };
                f.anchor = now;
                f.rate = rate;
                if !reached {
                    f.finish = now + SimDuration::from_micros((f.bytes / rate * 1e6).ceil() as u64);
                }
            }
        }
    }
}

#[test]
fn incremental_matches_the_naive_anchored_oracle() {
    run_cases(env_cases(256), 0xF10E_0006, |g| {
        let nodes = g.u32_in(2..7);
        let caps: Vec<f64> = (0..nodes)
            .map(|_| {
                if g.bool(0.5) {
                    *g.pick(&[50.0, 100.0, 120.0])
                } else {
                    g.f64_in(10.0..200.0)
                }
            })
            .collect();
        let oversub = if g.bool(0.5) { 1.0 } else { g.f64_in(1.0..3.0) };
        let mut inc: FlowSim<usize> = FlowSim::new(caps.clone(), oversub);
        let mut naive: naive::NaiveFlowSim<usize> = naive::NaiveFlowSim::new(&caps, oversub);
        let mut now = SimTime::ZERO;
        let mut ids: Vec<u64> = Vec::new();
        // Stopped by `collect_completed`, not yet taken or cancelled.
        let mut stopped: Vec<u64> = Vec::new();
        let start = |g: &mut Gen,
                     now: SimTime,
                     inc: &mut FlowSim<usize>,
                     naive: &mut naive::NaiveFlowSim<usize>,
                     ids: &mut Vec<u64>| {
            let src = g.u32_in(0..nodes);
            let dst = (src + g.u32_in(1..nodes)) % nodes;
            let bytes = if g.bool(0.15) {
                0
            } else {
                g.u64_in(1..48 * MB)
            };
            let cross = g.bool(0.3);
            let p = ids.len();
            let a = inc.start(now, NodeId(src), NodeId(dst), bytes, cross, p);
            let b = naive.start(now, src, dst, bytes, cross, p);
            assert_eq!(a.0, b, "ids are sequential in both");
            ids.push(b);
        };
        let ops = g.vec(1..200, |g| g.u32_in(0..13));
        for op in ops {
            match op {
                0..=3 => start(g, now, &mut inc, &mut naive, &mut ids),
                4 if !ids.is_empty() => {
                    // Any flow ever started: active, stopped, or gone.
                    let id = *g.pick(&ids);
                    assert_eq!(
                        inc.cancel(now, FlowId(id)),
                        naive.cancel(now, id),
                        "cancel {id}"
                    );
                    stopped.retain(|&s| s != id);
                }
                5 => now += SimDuration::from_micros(g.u64_in(0..400_000)),
                6 | 7 => {
                    let done = inc.collect_completed(now);
                    let want = naive.collect_completed(now);
                    assert_eq!(
                        done.iter().map(|f| f.0).collect::<Vec<_>>(),
                        want,
                        "collect at {now}"
                    );
                    stopped.extend(want);
                }
                8 if !stopped.is_empty() => {
                    let id = stopped.swap_remove(g.usize_in(0..stopped.len()));
                    assert_eq!(inc.take(FlowId(id)), naive.take(id), "take {id}");
                }
                9 => {
                    let node = g.u32_in(0..nodes);
                    let factor = if g.bool(0.4) {
                        1.0
                    } else {
                        *g.pick(&[2.0, 4.0, 1.5, 3.3])
                    };
                    inc.set_node_factor(now, NodeId(node), factor);
                    naive.set_node_factor(now, node, factor);
                }
                10 | 11 => {
                    // Jump to the next finish; half the time start a flow
                    // in that same microsecond, before the finish is
                    // collected.
                    if let Some((t, _)) = naive.next_completion() {
                        now = now.max(t);
                        if op == 10 {
                            start(g, now, &mut inc, &mut naive, &mut ids);
                        }
                    }
                }
                _ => {}
            }
            assert_eq!(
                inc.next_completion().map(|(t, id)| (t, id.0)),
                naive.next_completion()
            );
            assert_eq!(inc.active(), naive.active());
            for &id in &ids {
                let bits = |a: Option<(SimTime, f64, f64)>| {
                    a.map(|(t, b, r)| (t, b.to_bits(), r.to_bits()))
                };
                assert_eq!(
                    bits(inc.anchor_of(FlowId(id))),
                    bits(naive.anchor_of(id)),
                    "anchor of {id}"
                );
                assert_eq!(
                    inc.rate_of(FlowId(id)).map(f64::to_bits),
                    naive.rate_of(id).map(f64::to_bits),
                    "rate of {id}"
                );
            }
        }
        // Drain both to the end, then every payload leaves once.
        let mut guard = 0;
        while let Some((t, _)) = naive.next_completion() {
            now = now.max(t);
            let done = inc.collect_completed(now);
            let want = naive.collect_completed(now);
            assert_eq!(done.iter().map(|f| f.0).collect::<Vec<_>>(), want);
            assert_eq!(
                inc.next_completion().map(|(t, id)| (t, id.0)),
                naive.next_completion()
            );
            stopped.extend(want);
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        assert!(inc.next_completion().is_none());
        for id in stopped {
            let got = inc.take(FlowId(id));
            assert!(got.is_some());
            assert_eq!(got, naive.take(id));
        }
        assert_eq!(inc.iter().count(), 0);
    });
}
