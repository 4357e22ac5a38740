//! The ledger: `run` and `trace` start one child per workload and file
//! what it printed under `out/result-<commit>.json` (`--quick`:
//! `result-<commit>-quick.json`); `compare` reads
//! two such files and judges every row against its bound.
//!
//! ```text
//! {"meta": {"commit", "rustc", "nproc", "workers", "seed", "quick"},
//!  "workloads": {"<name>": {"end_to_end": {"<metric>": {"value", "unit"}},
//!                           "end_to_end_detail": {…},
//!                           "per_layer": {…}, "per_layer_detail": {…}}}}
//! ```

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, FAILED_OPS_SHARE, PER_LAYER};
use crate::workloads::{WORKERS, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Divisor of the op counts under `--quick`; same code paths.
const QUICK_DIVISOR: f64 = 20.0;

/// Relative slack of the one end-to-end count, `wire_bytes_per_doc_byte`.
/// A chunk header carries its session id in decimal, so a session whose
/// id gains a digit ships one more byte per chunk; with two clients
/// racing for ids, whether that session is a 2-chunk or a 24-chunk one
/// varies. Seen: 3 bytes in 109 MB. Per-layer counts come from the
/// single-threaded replay and get no slack.
const ID_RACE_SLACK: f64 = 1e-6;

/// Seconds one full run measures on the 2-core box the op counts were
/// sized on; `--seconds S` scales the counts by `S / RUN_SECONDS`.
pub const RUN_SECONDS: f64 = 10.0;

/// `contract`: the content of the root `BENCHMARK.json`, from the same
/// tables the measurements use. The smoke test holds the file to it.
pub fn contract() -> Json {
    let metric = |def: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(def.name)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.name())),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(def.bound)));
        }
        Json::obj(pairs)
    };
    let command = "cargo run --release --quiet --manifest-path bench/Cargo.toml --";
    Json::obj([
        (
            "command",
            Json::Arr(command.split(' ').map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("bench")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn meta(seed: u64, quick: bool) -> Json {
    Json::obj([
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workers", Json::Num(WORKERS as f64)),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
    ])
}

/// Runs one workload in a child process and returns its result object
/// and detail object.
fn run_child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{name} child printed nothing (status {})", out.status))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{name} result line: {e}")))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .map_or(Ok(Json::Obj(Vec::new())), Json::parse)
        .map_err(|e| format!("{name} detail line: {e}"))?;
    Ok((result, detail))
}

/// `run` (untraced) or `trace`: every workload, each in its own child;
/// prints every metric by name with its unit and files them in the
/// ledger. Fails when any op failed or left the oracle.
pub fn run_all(traced: bool, seed: u64, quick: bool, out_dir: &Path) -> Result<ExitCode, String> {
    let meta = meta(seed, quick);
    let commit = meta
        .get("commit")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    // A quick run has a file of its own, so that it never replaces a
    // full ledger of the same commit.
    let path = out_dir.join(format!(
        "result-{commit}{}.json",
        if quick { "-quick" } else { "" }
    ));
    // The two runs of one commit share a ledger: keep the other run's
    // section when it was measured under the same seed and counts.
    let mut ledger = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .filter(|old| old.get("meta") == Some(&meta))
        .unwrap_or_else(|| Json::obj([("meta", meta.clone())]));
    let (section, detail_section) = if traced {
        ("per_layer", "per_layer_detail")
    } else {
        ("end_to_end", "end_to_end_detail")
    };

    println!(
        "# {} seed {seed}{}",
        if traced { "trace" } else { "run" },
        if quick { " (quick)" } else { "" }
    );
    println!("# {meta}");
    let mut failed = 0u64;
    let seconds = if quick {
        RUN_SECONDS / QUICK_DIVISOR
    } else {
        RUN_SECONDS
    };
    for spec in &WORKLOADS {
        let (result, detail) = run_child(spec.name, seed, seconds, traced)?;
        let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(1.0);
        failed += count("failed") as u64;
        let mut metrics = result
            .get("metrics")
            .cloned()
            .unwrap_or(Json::Obj(Vec::new()));
        if !traced {
            // The ledger's seventh row rides the result line as two counts.
            metrics.set(
                FAILED_OPS_SHARE.name,
                Json::obj([
                    ("value", Json::Num(count("failed") / count("attempted"))),
                    ("unit", Json::str(FAILED_OPS_SHARE.unit)),
                ]),
            );
        }
        println!("\n## {} — {}", spec.name, spec.why);
        for (metric, entry) in metrics.entries() {
            println!(
                "{:<44} {:>16} {}",
                metric,
                entry.get("value").map_or("?".into(), Json::to_string),
                entry.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
        for (key, value) in detail.entries() {
            println!("  ({key}: {value})");
        }

        let entry = ledger.child_mut("workloads").child_mut(spec.name);
        entry.set(section, metrics);
        entry.set(detail_section, detail);
    }

    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, ledger.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\n# ledger: {}", path.display());
    if failed > 0 {
        eprintln!("bench: {failed} failed ops; see the FAILED lines above");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn value_in(ledger: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    ledger
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `new` is than `base`, as a share of `base`; negative
/// when it is better.
fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    let change = if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - base) / base.abs()
    };
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The per-layer metric of `workload` whose value moved most between
/// the two ledgers, by ratio: the layer to look at first.
fn moved_most(a: &Json, b: &Json, workload: &str) -> Option<(&'static str, f64, f64)> {
    PER_LAYER
        .iter()
        .filter_map(|def| {
            let va = value_in(a, workload, "per_layer", def.name)?;
            let vb = value_in(b, workload, "per_layer", def.name)?;
            // A value at or near zero has no meaningful ratio, and the
            // `bench.*` rows judge the harness, not a layer.
            (va > 0.0 && vb > 0.0 && !def.name.ends_with("_pct") && !def.name.starts_with("bench."))
                .then_some((def.name, va, vb))
        })
        .max_by(|x, y| {
            let moved = |(_, va, vb): &(&str, f64, f64)| (vb / va).ln().abs();
            moved(x).total_cmp(&moved(y))
        })
}

/// `compare a.json b.json`: per workload and end-to-end metric, both
/// values and the ratio with its base; rows beyond their bound are
/// marked and the per-layer metric that moved most is named under
/// them. Count metrics must agree exactly when both ledgers ran the
/// same seed and op counts.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let read = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let same_inputs = ["seed", "quick"]
        .iter()
        .all(|k| a.get("meta").and_then(|m| m.get(k)) == b.get("meta").and_then(|m| m.get(k)));
    println!(
        "# base a = {} {}",
        a_path.display(),
        a.get("meta").map_or(String::new(), Json::to_string)
    );
    println!(
        "#      b = {} {}",
        b_path.display(),
        b.get("meta").map_or(String::new(), Json::to_string)
    );
    if !same_inputs {
        println!("# seeds or op counts differ: count metrics are not compared exactly");
    }

    let mut marked = 0;
    for spec in &WORKLOADS {
        println!("\n## {}", spec.name);
        println!(
            "{:<28} {:>14} {:>14} {:>9}  bound",
            "metric", "a", "b", "b/a"
        );
        for def in END_TO_END.iter().chain([&FAILED_OPS_SHARE]) {
            let (Some(va), Some(vb)) = (
                value_in(&a, spec.name, "end_to_end", def.name),
                value_in(&b, spec.name, "end_to_end", def.name),
            ) else {
                println!("{:<28} missing from a ledger", def.name);
                continue;
            };
            let worse = worsening(def, va, vb);
            let verdict = if def.exact && same_inputs && (va - vb).abs() > ID_RACE_SLACK * va.abs()
            {
                Some("COUNT DIFFERS".to_string())
            } else if worse > def.bound {
                Some(format!("WORSE by {:.1}%", worse * 100.0))
            } else {
                None
            };
            println!(
                "{:<28} {:>14.4} {:>14.4} {:>9.4}  {:>4.1}% {}",
                def.name,
                va,
                vb,
                if va != 0.0 { vb / va } else { f64::NAN },
                def.bound * 100.0,
                verdict.as_deref().unwrap_or("")
            );
            if verdict.is_some() {
                marked += 1;
                match moved_most(&a, &b, spec.name) {
                    Some((layer, la, lb)) => println!(
                        "    layer that moved most: {layer} {la:.4} -> {lb:.4} (b/a = {:.4})",
                        lb / la
                    ),
                    None => println!(
                        "    no per-layer section in both ledgers: run `bench trace` on each"
                    ),
                }
            }
        }
        if same_inputs {
            let rows_loaded = |ledger: &Json| {
                ledger
                    .get("workloads")?
                    .get(spec.name)?
                    .get("end_to_end_detail")?
                    .get("rows_loaded")?
                    .as_f64()
            };
            if let (Some(va), Some(vb)) = (rows_loaded(&a), rows_loaded(&b)) {
                if va != vb {
                    marked += 1;
                    println!("{:<44} {va} -> {vb}  COUNT DIFFERS", "rows_loaded");
                }
            }
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                if let (Some(va), Some(vb)) = (
                    value_in(&a, spec.name, "per_layer", def.name),
                    value_in(&b, spec.name, "per_layer", def.name),
                ) {
                    if va != vb {
                        marked += 1;
                        println!("{:<44} {va} -> {vb}  COUNT DIFFERS", def.name);
                    }
                }
            }
        }
    }
    println!("\n# {marked} rows marked");
    Ok(if marked == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(mb_per_s: f64, wire: f64, combine: f64) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        Json::obj([
            (
                "meta",
                Json::obj([("seed", Json::Num(1.0)), ("quick", Json::Bool(false))]),
            ),
            (
                "workloads",
                Json::obj([(
                    "bulk_combine",
                    Json::obj([
                        (
                            "end_to_end",
                            Json::obj([
                                ("exchange_mb_per_s", metric(mb_per_s, "MB/s")),
                                ("wire_bytes_per_doc_byte", metric(wire, "ratio")),
                            ]),
                        ),
                        (
                            "per_layer",
                            Json::obj([
                                ("core.combine_ns_per_row", metric(combine, "ns/row")),
                                ("core.scan_ns_per_row", metric(50.0, "ns/row")),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn worsening_follows_the_direction() {
        let throughput = &END_TO_END[1];
        let latency = &END_TO_END[2];
        assert!((worsening(throughput, 100.0, 85.0) - 0.15).abs() < 1e-12);
        assert!(worsening(throughput, 100.0, 120.0) < 0.0);
        assert!((worsening(latency, 10.0, 11.5) - 0.15).abs() < 1e-12);
        assert_eq!(worsening(&FAILED_OPS_SHARE, 0.0, 0.0), 0.0);
        assert!(worsening(&FAILED_OPS_SHARE, 0.0, 0.01) > 1.0);
    }

    #[test]
    fn names_the_layer_that_moved() {
        let (a, b) = (ledger(20.0, 0.4, 100.0), ledger(15.0, 0.4, 180.0));
        let (layer, la, lb) = moved_most(&a, &b, "bulk_combine").unwrap();
        assert_eq!((layer, la, lb), ("core.combine_ns_per_row", 100.0, 180.0));
        assert_eq!(
            value_in(&a, "bulk_combine", "end_to_end", "exchange_mb_per_s"),
            Some(20.0)
        );
        assert_eq!(
            value_in(&a, "nope", "end_to_end", "exchange_mb_per_s"),
            None
        );
    }
}
