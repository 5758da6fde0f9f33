//! The repository's benchmark: end-to-end and per-layer metrics of the
//! DARE simulator on three workloads. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|scale-dare|chaos-dare> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Single process, single thread, closed loop: each simulation starts
//! after the previous one ends. Lines starting with `#` describe the run
//! (environment, behaviour digest, per-metric spread over repeats); the
//! last line is one JSON object with the metrics.

mod calibrate;
mod layers;
mod measure;
mod sim;
mod stats;
mod workloads;

use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): name and unit, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("loop_s", "s"),
    ("dispatched_eps", "1/s"),
    ("sim_speed", "sim_s/s"),
    ("sim_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("job_locality", "frac"),
    ("gmtt_s", "sim_s"),
];

/// Per-layer metrics (`--trace 1`): name and unit, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("workload.synth_s", "s"),
    ("net.topology_s", "s"),
    ("dfs.ingest_s", "s"),
    ("dfs.ingest_us_per_block", "us"),
    ("dfs.ingest_share_of_setup", "frac"),
    ("mapred.finish_s", "s"),
    ("sched.share", "frac"),
    ("sched.events", "count"),
    ("sched.events_per_map", "events/map"),
    ("net.share", "frac"),
    ("net.events", "count"),
    ("net.remote_gb", "GB"),
    ("simcore.queue_share", "frac"),
    ("simcore.pending_peak", "count"),
    ("dfs.share", "frac"),
    ("mapred.fault_share", "frac"),
    ("mapred.invariant_s", "s"),
    ("mapred.invariant_share", "frac"),
    ("mapred.faults.declared_dead", "count"),
    ("mapred.faults.blocks_re_replicated", "count"),
    ("mapred.faults.recovery_gb", "GB"),
    ("core.replicas_created", "count"),
    ("core.evictions", "count"),
    ("core.evict_per_replica", "ratio"),
    ("trace.overhead", "ratio"),
    ("telemetry.overhead", "ratio"),
    ("profile.overhead", "ratio"),
];

/// What one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub errors: Vec<String>,
    /// `#` lines printed before the result.
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn note_spread(&mut self, name: &str, s: &stats::Spread) {
        self.note(format!(
            "spread {name} median={} q1={} q3={} min={} max={} n={}",
            s.median, s.q1, s.q3, s.min, s.max, s.n
        ));
    }

    /// Record metric `name`, which must be one of the declared metrics.
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .copied()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        if !value.is_finite() {
            self.errors
                .push(format!("metric {name} is not finite: {value}"));
        }
        self.metrics.push((name, unit, value));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-sweep|scale-dare|chaos-dare> \
--seed <u64> --seconds <s> --trace <0|1>";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds >= 0"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// Run the benchmark as `args` asks; returns the report to print.
pub fn execute(args: &Args, size: workloads::Size) -> Report {
    let plan =
        workloads::plan(&args.workload, args.seed, size).expect("workload name was validated");
    let mut report = Report::default();
    report.note(format!(
        "env workload={} seed={} trace={} commit={} rustc={} nproc={} threads=1 sims_per_round={}",
        args.workload,
        args.seed,
        args.trace as u8,
        commit(),
        env!("PERFBENCH_RUSTC"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plan.sims.len(),
    ));
    if args.trace {
        layers::run(&plan, args.seconds, &mut report);
    } else {
        measure::run(&plan, args.seconds, &mut report);
    }
    report
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = execute(&args, workloads::Size::Full);
    for line in &report.notes {
        println!("# {line}");
    }
    for e in &report.errors {
        println!("# error: {e}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
