//! Runs the harness in `--quick` mode (op counts ÷ 20, same code paths)
//! and holds its output to `BENCHMARK.json`: exactly the workloads and
//! metrics listed there, every name well formed, every value with a
//! unit — and count metrics that repeat exactly between two runs of one
//! seed.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::Command;

const SEED: &str = "7";

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench"))
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Runs `bench <mode> --quick` and returns (stdout, the ledger it wrote).
fn quick(mode: &str) -> (String, Json) {
    let out = bench()
        .args([mode, "--quick", "--seed", SEED])
        .output()
        .expect("bench starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "bench {mode} --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# ledger: "))
        .expect("the run names its ledger");
    let ledger = Json::parse(&std::fs::read_to_string(path).expect("ledger written"))
        .expect("ledger parses");
    (stdout, ledger)
}

#[test]
fn benchmark_json_is_what_the_harness_measures() {
    let out = bench().arg("contract").output().expect("bench starts");
    assert!(out.status.success());
    let contract = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        contract,
        benchmark_json(),
        "regenerate BENCHMARK.json with `bench contract`"
    );
}

#[test]
fn quick_run_carries_exactly_the_listed_names() {
    let listed = benchmark_json();
    let workloads = names(listed.get("workloads").unwrap());
    let mut end_to_end = names(listed.get("end_to_end").unwrap());
    // The ledger's seventh row; see the README on why BENCHMARK.json
    // carries it as `failed` / `attempted` instead.
    end_to_end.push("failed_ops_share".into());
    let per_layer = names(listed.get("per_layer").unwrap());

    let (run_out, first) = quick("run");
    let (_, second) = quick("run");
    let (trace_out, ledger) = quick("trace");

    let measured = ledger.get("workloads").expect("workloads in the ledger");
    let measured_names: Vec<&str> = measured.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(measured_names, workloads);
    for (workload, entry) in measured.entries() {
        for (section, listed, stdout) in [
            ("end_to_end", &end_to_end, &run_out),
            ("per_layer", &per_layer, &trace_out),
        ] {
            let metrics = entry
                .get(section)
                .unwrap_or_else(|| panic!("{workload}.{section}"));
            let got: Vec<&str> = metrics.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(&got, listed, "{workload}.{section}");
            for (name, metric) in metrics.entries() {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                assert!(!unit.is_empty(), "{workload}.{name} has no unit");
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}.{name} = {value:?}"
                );
                assert!(stdout.contains(name.as_str()), "{name} not printed");
            }
        }
        assert_eq!(
            entry
                .get("end_to_end")
                .and_then(|m| m.get("failed_ops_share"))
                .and_then(|m| m.get("value")),
            Some(&Json::Num(0.0)),
            "{workload} failed ops"
        );
        let shared = entry
            .get("per_layer")
            .and_then(|m| m.get("runtime.multicast_shared_share"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("a share");
        assert!(
            if workload == "fanout_publish" {
                shared > 0.0 && shared <= 1.0
            } else {
                shared == 0.0
            },
            "{workload} shared {shared} of its messages"
        );
        assert!(
            std::path::Path::new(
                entry
                    .get("per_layer_detail")
                    .and_then(|d| d.get("span_file"))
                    .and_then(Json::as_str)
                    .expect("span file named")
            )
            .exists(),
            "{workload} span file"
        );
    }

    // Same seed, same op counts: the counts must not move at all.
    for workload in &workloads {
        for (section, metric) in [
            ("end_to_end", "wire_bytes_per_doc_byte"),
            ("end_to_end_detail", "rows_loaded"),
            ("end_to_end_detail", "ops"),
        ] {
            let at = |ledger: &Json| {
                ledger
                    .get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get(section))
                    .and_then(|s| s.get(metric))
                    .and_then(|m| m.get("value").unwrap_or(m).as_f64())
            };
            let (a, b) = (at(&first), at(&second));
            let (a, b) = (a.expect("in the first ledger"), b.expect("in the second"));
            // The wire ratio may move in the last digits: a chunk header
            // carries its session id in decimal and two clients race for
            // ids (see `ID_RACE_SLACK` in ledger.rs). The rest is exact.
            assert!(
                (a - b).abs() <= 1e-6 * a.abs(),
                "{workload}.{metric} differs between two runs: {a} vs {b}"
            );
        }
    }
}
