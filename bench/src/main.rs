//! `bench` — the perf ledger of the xdx workspace.
//!
//! ```text
//! bench run     [--seed N] [--quick]    every workload, untraced, one child each
//! bench trace   [--seed N] [--quick]    the traced run: per-layer numbers and span files
//! bench compare <a.json> <b.json>       two ledgers, row by row against the bounds
//! bench contract                        what BENCHMARK.json must say
//! bench --workload W --seed N --seconds S --trace 0|1
//!                                       one workload in this process (what the children
//!                                       and the benchmark driver run)
//! ```
//!
//! See `bench/README.md` for the workloads, the metrics and the rules.

mod child;
mod json;
mod ledger;
mod metrics;
mod replay;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bench run|trace [--seed N] [--quick]
       bench compare <a.json> <b.json>
       bench contract
       bench --workload NAME --seed N --seconds S --trace 0|1";

/// Where span files and ledgers go: `bench/out/`, git-ignored.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
            .transpose()
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// One workload in this process; prints the detail line, then the
/// result object as the last line of standard output.
fn run_child(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let spec = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(ledger::RUN_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    let ops = spec.ops_for(seconds);
    let outcome = match args.value("--trace").unwrap_or("0") {
        "0" => child::measure(spec, seed, ops)?,
        "1" => child::trace(spec, seed, ops, &out_dir())?,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    for failure in &outcome.failures {
        eprintln!("{name}: FAILED {failure}");
    }
    for (def, value) in &outcome.values {
        println!("{name} {} = {value} {}", def.name, def.unit);
    }
    println!("detail {}", outcome.detail_line());
    println!("{}", outcome.result_line());
    Ok(if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("run" | "trace" | "compare" | "contract") => argv.remove(0),
        _ if argv.iter().any(|a| a == "--workload") => "child".to_string(),
        _ => return Err(USAGE.into()),
    };
    let args = Args(argv);
    match command.as_str() {
        "child" => run_child(&args),
        "contract" => {
            print!("{}", ledger::contract().pretty());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => match args.0.as_slice() {
            [a, b] => ledger::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        traced => ledger::run_all(
            traced == "trace",
            args.parsed("--seed")?.unwrap_or(1),
            args.flag("--quick"),
            &out_dir(),
        ),
    }
}

fn main() -> ExitCode {
    dispatch().unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}
