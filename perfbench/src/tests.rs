//! The benchmark's own tests: every workload at toy size, the metric
//! names against `BENCHMARK.json`, and digest repeatability.

use super::*;
use workloads::Size;

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed,
        seconds: 0.0,
        trace,
    }
}

fn names(metrics: &[(&str, &str, f64)]) -> Vec<String> {
    metrics.iter().map(|m| m.0.to_string()).collect()
}

fn declared(table: &[(&str, &str)]) -> Vec<String> {
    table.iter().map(|m| m.0.to_string()).collect()
}

#[test]
fn every_workload_passes_its_checks_at_toy_size() {
    for w in workloads::NAMES {
        let r = execute(&args(w, 7, false), Size::Toy);
        assert!(r.correct(), "{w}: {:?}", r.errors);
        assert_eq!(r.failed, 0, "{w}");
        assert!(r.attempted > 0, "{w}");
        assert_eq!(names(&r.metrics), declared(&END_TO_END), "{w}");
        assert!(r.metrics.iter().all(|m| m.2 > 0.0), "{w}: {:?}", r.metrics);
        let json = r.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    for w in workloads::NAMES {
        let r = execute(&args(w, 7, true), Size::Toy);
        assert!(r.correct(), "{w}: {:?}", r.errors);
        assert_eq!(names(&r.metrics), declared(&PER_LAYER), "{w}");
        let share: f64 = r
            .metrics
            .iter()
            .filter(|m| {
                matches!(
                    m.0,
                    "sched.share"
                        | "net.share"
                        | "dfs.share"
                        | "mapred.fault_share"
                        | "simcore.queue_share"
                )
            })
            .map(|m| m.2)
            .sum();
        assert!((share - 1.0).abs() < 1e-9, "{w}: arm shares sum to {share}");
    }
}

#[test]
fn digests_repeat_for_a_fixed_seed_and_follow_the_seed() {
    for w in workloads::NAMES {
        let digest = |seed| {
            let plan = workloads::plan(w, seed, Size::Toy).expect("known workload");
            measure::round(&plan, false, |_| {}).digest
        };
        assert_eq!(digest(3), digest(3), "{w}");
        assert_ne!(digest(3), digest(4), "{w}");
    }
}

#[test]
fn arguments_are_validated() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&argv(
        "--workload scale-dare --seed 9 --seconds 2.5 --trace 1",
    ))
    .expect("valid");
    assert_eq!(
        ok,
        Args {
            workload: "scale-dare".into(),
            seed: 9,
            seconds: 2.5,
            trace: true
        }
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload scale-dare --seed -1 --seconds 1 --trace 0",
        "--workload scale-dare --seed 1 --seconds -1 --trace 0",
        "--workload scale-dare --seed 1 --seconds 1 --trace 2",
        "--workload scale-dare --seed 1 --seconds 1 --trace",
        "--workload scale-dare --bogus 1",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}

/// The `[...]` array that follows `"key"` in `json` (the manifest's arrays
/// hold flat objects, so the first `]` closes it).
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let open = at + json[at..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    &json[open + 1..close]
}

/// String value of `field` in each object of a flat array.
fn field_values(array: &str, field: &str) -> Vec<String> {
    array
        .split('{')
        .skip(1)
        .map(|obj| {
            let at = obj
                .find(&format!("\"{field}\""))
                .unwrap_or_else(|| panic!("{field} missing in {obj}"));
            let rest = obj[at + field.len() + 2..]
                .trim_start()
                .strip_prefix(':')
                .expect("colon");
            let rest = rest.trim_start().strip_prefix('"').expect("string value");
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn metric_names_and_units_match_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let w: Vec<String> = field_values(array(&json, "workloads"), "name");
    assert_eq!(w, workloads::NAMES.map(String::from).to_vec());
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let a = array(&json, key);
        assert_eq!(field_values(a, "name"), declared(table), "{key} names");
        let units: Vec<String> = table.iter().map(|m| m.1.to_string()).collect();
        assert_eq!(field_values(a, "unit"), units, "{key} units");
    }
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(name_ok(n), "metric name {n}");
        assert!(unit_ok(u), "unit {u} of {n}");
    }
    for n in workloads::NAMES {
        assert!(name_ok(n), "workload name {n}");
    }
}
