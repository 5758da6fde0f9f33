//! Wall-clock self-profiling of the simulator's event-dispatch arms.
//!
//! The engine wraps each dispatched event in a timing scope tagged with
//! the subsystem that owns the event (scheduling, DFS, network, fault
//! handling). The accumulated per-subsystem wall time lands in
//! `results/BENCH_profile.json` via the `telemetry-smoke` bench
//! experiment, so a hot-path regression in one subsystem is visible
//! across PRs even when end-to-end wall time hides it.
//!
//! Wall-clock times are *not* deterministic and never feed back into the
//! simulation: the profiler observes `std::time::Instant` only, so a
//! profiled run stays bit-identical to an unprofiled one.

/// The event-dispatch arms the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// Job arrivals, heartbeats/slot filling, map-compute and reduce
    /// completions.
    Sched,
    /// Local disk reads, proactive-replication epochs.
    Dfs,
    /// Flow-simulator polls (remote-fetch and transfer progress).
    Net,
    /// Crash/rejoin/declare-dead/retry/degrade handling.
    Fault,
    /// Event-queue operations (the pop feeding each dispatch). Separating
    /// queue time from handler time is what lets the report attribute
    /// wall clock to kernel overhead vs. scheduler decisions.
    Queue,
}

impl Subsystem {
    const ALL: [Subsystem; 5] = [
        Subsystem::Sched,
        Subsystem::Dfs,
        Subsystem::Net,
        Subsystem::Fault,
        Subsystem::Queue,
    ];

    fn idx(self) -> usize {
        match self {
            Subsystem::Sched => 0,
            Subsystem::Dfs => 1,
            Subsystem::Net => 2,
            Subsystem::Fault => 3,
            Subsystem::Queue => 4,
        }
    }

    /// Stable name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Sched => "sched",
            Subsystem::Dfs => "dfs",
            Subsystem::Net => "net",
            Subsystem::Fault => "fault",
            Subsystem::Queue => "queue",
        }
    }
}

/// Accumulates per-subsystem wall time while a run is in flight.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    wall_ns: [u64; 5],
    events: [u64; 5],
    peak_active_flows: u64,
    peak_queue: u64,
    invariant_checked: [u64; 2],
    flow_changes: u64,
    flow_rerates: u64,
    netchecks_empty: u64,
}

impl Profiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `elapsed` wall time for one event of `sub`.
    pub fn record(&mut self, sub: Subsystem, elapsed: std::time::Duration) {
        let i = sub.idx();
        self.wall_ns[i] += elapsed.as_nanos() as u64;
        self.events[i] += 1;
    }

    /// Raise the peak-active-flows gauge (flows sharing bandwidth at
    /// once, at their high-water mark).
    pub fn note_peak_active_flows(&mut self, flows: u64) {
        self.peak_active_flows = self.peak_active_flows.max(flows);
    }

    /// Record the flow simulator's work: rate-changing events (starts,
    /// finishes, cancels, NIC factor changes) and flows re-rated by them.
    pub fn note_flow_work(&mut self, changes: u64, rerates: u64) {
        self.flow_changes += changes;
        self.flow_rerates += rerates;
    }

    /// Count one network check that stopped no flow (a stale wake-up).
    pub fn note_empty_netcheck(&mut self) {
        self.netchecks_empty += 1;
    }

    /// Raise the peak-event-queue-length gauge.
    pub fn note_queue_peak(&mut self, len: u64) {
        self.peak_queue = self.peak_queue.max(len);
    }

    /// Count the blocks and nodes one invariant check examined.
    pub fn note_invariant_work(&mut self, blocks: u64, nodes: u64) {
        self.invariant_checked[0] += blocks;
        self.invariant_checked[1] += nodes;
    }

    /// Seal into a report.
    pub fn finish(self) -> ProfileReport {
        ProfileReport {
            wall_ns: self.wall_ns,
            events: self.events,
            peak_active_flows: self.peak_active_flows,
            peak_queue_len: self.peak_queue,
            invariant_checked: self.invariant_checked,
            flow_changes: self.flow_changes,
            flow_rerates: self.flow_rerates,
            netchecks_empty: self.netchecks_empty,
        }
    }
}

/// Per-subsystem dispatch timings of one finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileReport {
    /// Total wall nanoseconds per subsystem (Sched, Dfs, Net, Fault, Queue).
    pub wall_ns: [u64; 5],
    /// Events dispatched (or, for Queue, pops timed) per subsystem.
    pub events: [u64; 5],
    /// High-water mark of simultaneously active flows.
    pub peak_active_flows: u64,
    /// High-water mark of the pending event-queue length.
    pub peak_queue_len: u64,
    /// Blocks and nodes examined by structural invariant checks.
    pub invariant_checked: [u64; 2],
    /// Flow-simulator changes: starts, finishes, cancels, NIC factor
    /// changes.
    pub flow_changes: u64,
    /// Flows re-rated because of those changes.
    pub flow_rerates: u64,
    /// Network checks (the Net arm's events) that stopped no flow.
    pub netchecks_empty: u64,
}

impl ProfileReport {
    /// Total events dispatched (the Queue arm times the pops feeding the
    /// same events, so it is excluded to avoid double counting).
    pub fn total_events(&self) -> u64 {
        self.events
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != Subsystem::Queue.idx())
            .map(|(_, &e)| e)
            .sum()
    }

    /// Dispatched events per second of total dispatch+queue wall time.
    pub fn events_per_sec(&self) -> u64 {
        let wall = self.total_wall_ns();
        if wall == 0 {
            return 0;
        }
        (self.total_events() as f64 / (wall as f64 / 1e9)) as u64
    }

    /// Flows re-rated per flow-simulator change.
    pub fn rerates_per_change(&self) -> f64 {
        self.flow_rerates as f64 / self.flow_changes.max(1) as f64
    }

    /// Blocks and nodes examined by invariant checks per dispatched event.
    pub fn invariant_work_per_event(&self) -> [f64; 2] {
        let events = self.total_events().max(1) as f64;
        self.invariant_checked.map(|n| n as f64 / events)
    }

    /// Total wall nanoseconds across subsystems.
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns.iter().sum()
    }

    /// Events and wall time of one subsystem.
    pub fn of(&self, sub: Subsystem) -> (u64, u64) {
        (self.events[sub.idx()], self.wall_ns[sub.idx()])
    }

    /// Render the `BENCH_profile.json` report: one object with a schema
    /// tag, the scenario label, end-to-end totals, the invariant-check
    /// work per dispatched event, the flow simulator's work counters, and
    /// one entry per subsystem (integer nanoseconds only).
    pub fn to_json(&self, scenario: &str) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"dare-profile-v2\",\n");
        s.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
        s.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        s.push_str(&format!("  \"total_wall_ns\": {},\n", self.total_wall_ns()));
        s.push_str(&format!("  \"events_per_sec\": {},\n", self.events_per_sec()));
        s.push_str(&format!("  \"peak_active_flows\": {},\n", self.peak_active_flows));
        s.push_str(&format!("  \"peak_queue_len\": {},\n", self.peak_queue_len));
        let [blocks, nodes] = self.invariant_work_per_event();
        s.push_str(&format!("  \"invariant_blocks_per_event\": {blocks:.3},\n"));
        s.push_str(&format!("  \"invariant_nodes_per_event\": {nodes:.3},\n"));
        s.push_str(&format!("  \"flow_changes\": {},\n", self.flow_changes));
        s.push_str(&format!("  \"flow_rerates\": {},\n", self.flow_rerates));
        s.push_str(&format!(
            "  \"flow_rerates_per_change\": {:.3},\n",
            self.rerates_per_change()
        ));
        let (netchecks, _) = self.of(Subsystem::Net);
        s.push_str(&format!("  \"netchecks\": {netchecks},\n"));
        s.push_str(&format!("  \"netchecks_empty\": {},\n", self.netchecks_empty));
        s.push_str("  \"subsystems\": [\n");
        for (i, sub) in Subsystem::ALL.iter().enumerate() {
            let (events, wall) = self.of(*sub);
            let mean = wall.checked_div(events).unwrap_or(0);
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"events\": {events}, \"wall_ns\": {wall}, \"mean_ns\": {mean}}}{}\n",
                sub.name(),
                if i + 1 < Subsystem::ALL.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        let total = self.total_wall_ns().max(1) as f64;
        let mut parts = Vec::new();
        for sub in Subsystem::ALL {
            let (events, wall) = self.of(sub);
            parts.push(format!(
                "{}={:.0}% ({} ev)",
                sub.name(),
                wall as f64 / total * 100.0,
                events
            ));
        }
        let [blocks, nodes] = self.invariant_work_per_event();
        format!(
            "dispatch {:.1}ms: {} | invariants/event: {blocks:.2} blocks {nodes:.2} nodes \
             | flows: {} changes, {:.2} re-rated/change, {}/{} netchecks empty",
            self.total_wall_ns() as f64 / 1e6,
            parts.join(" "),
            self.flow_changes,
            self.rerates_per_change(),
            self.netchecks_empty,
            self.of(Subsystem::Net).0,
        )
    }
}

/// Validate a `BENCH_profile.json` document: schema tag, scenario, totals,
/// invariant-check work per event, flow-simulator work counters, and
/// every subsystem entry with integer `events`/`wall_ns`/`mean_ns`
/// fields. This is what the CI `telemetry-smoke` gate runs against the
/// written file.
pub fn validate_profile_json(s: &str) -> Result<(), String> {
    if !s.contains("\"schema\": \"dare-profile-v2\"") {
        return Err("missing or wrong schema tag".into());
    }
    if !s.contains("\"scenario\": \"") {
        return Err("missing scenario".into());
    }
    for key in [
        "total_events",
        "total_wall_ns",
        "events_per_sec",
        "peak_active_flows",
        "peak_queue_len",
        "invariant_blocks_per_event",
        "invariant_nodes_per_event",
        "flow_changes",
        "flow_rerates",
        "flow_rerates_per_change",
        "netchecks",
        "netchecks_empty",
    ] {
        let pat = format!("\"{key}\": ");
        let at = s.find(&pat).ok_or_else(|| format!("missing {key:?}"))?;
        let rest = &s[at + pat.len()..];
        let num: String = rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        let ok = if key.contains("_per_") {
            num.parse::<f64>().is_ok()
        } else {
            num.parse::<u64>().is_ok()
        };
        if !ok {
            return Err(format!("non-numeric {key:?}"));
        }
    }
    for sub in Subsystem::ALL {
        let pat = format!("{{\"name\": \"{}\", \"events\": ", sub.name());
        let at = s
            .find(&pat)
            .ok_or_else(|| format!("missing subsystem entry {:?}", sub.name()))?;
        let rest = &s[at + pat.len()..];
        for field in ["", "\"wall_ns\": ", "\"mean_ns\": "] {
            let start = if field.is_empty() {
                0
            } else {
                rest.find(field)
                    .ok_or_else(|| format!("missing {field:?} for {:?}", sub.name()))?
                    + field.len()
            };
            let digits: String = rest[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if digits.is_empty() {
                return Err(format!("non-integer field for {:?}", sub.name()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_accumulates_and_renders() {
        let mut p = Profiler::new();
        p.record(Subsystem::Sched, Duration::from_nanos(100));
        p.record(Subsystem::Sched, Duration::from_nanos(50));
        p.record(Subsystem::Net, Duration::from_nanos(25));
        p.note_invariant_work(6, 3);
        p.note_flow_work(4, 10);
        p.note_empty_netcheck();
        p.note_peak_active_flows(3);
        p.note_peak_active_flows(2);
        let r = p.finish();
        assert_eq!(r.peak_active_flows, 3);
        assert_eq!(r.rerates_per_change(), 2.5);
        assert_eq!(r.total_events(), 3);
        assert_eq!(r.invariant_work_per_event(), [2.0, 1.0]);
        assert_eq!(r.total_wall_ns(), 175);
        assert_eq!(r.of(Subsystem::Sched), (2, 150));
        assert_eq!(r.of(Subsystem::Fault), (0, 0));
        let json = r.to_json("unit-test");
        validate_profile_json(&json).expect("well-formed report");
        assert!(json.contains("\"scenario\": \"unit-test\""));
        assert!(json.contains("\"name\": \"fault\", \"events\": 0"));
        assert!(json.contains("\"invariant_blocks_per_event\": 2.000"));
        assert!(json.contains("\"invariant_nodes_per_event\": 1.000"));
        assert!(json.contains("\"flow_rerates_per_change\": 2.500"));
        assert!(json.contains("\"netchecks\": 1,\n  \"netchecks_empty\": 1,"));
        assert!(r.summary().contains("sched"));
        assert!(r.summary().contains("2.00 blocks 1.00 nodes"), "{}", r.summary());
    }

    #[test]
    fn validator_rejects_malformed_reports() {
        assert!(validate_profile_json("{}").is_err());
        let r = Profiler::new().finish();
        let good = r.to_json("x");
        validate_profile_json(&good).expect("valid");
        assert!(validate_profile_json(&good.replace("dare-profile-v2", "v0")).is_err());
        assert!(validate_profile_json(&good.replace("\"name\": \"net\"", "\"name\": \"nyet\"")).is_err());
        assert!(
            validate_profile_json(&good.replace("\"total_events\": 0", "\"total_events\": x"))
                .is_err()
        );
        let dropped = good.replace("invariant_nodes_per_event", "nodes");
        assert!(validate_profile_json(&dropped).is_err());
        let garbled = good.replace("_per_event\": 0.000", "_per_event\": -");
        assert!(validate_profile_json(&garbled).is_err());
        assert!(validate_profile_json(&good.replace("netchecks_empty", "empty")).is_err());
    }
}
