//! Integration tests for the `xdx` command-line driver, run against the
//! actual compiled binary.

use std::process::Command;

fn xdx(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xdx"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = xdx(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("exchange"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = xdx(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn generate_to_stdout_is_wellformed() {
    let (ok, stdout, _) = xdx(&["generate", "--bytes", "20000"]);
    assert!(ok);
    assert!(xdx::xml::Document::parse(&stdout).is_ok());
    assert!(stdout.contains("<site>"));
}

#[test]
fn generate_to_file_and_exchange() {
    let dir = std::env::temp_dir().join(format!("xdx-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("doc.xml");
    let doc_str = doc.to_str().unwrap();

    let (ok, _, stderr) = xdx(&["generate", "--bytes", "50000", "--out", doc_str]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote"));

    let (ok, stdout, stderr) = xdx(&[
        "exchange", "--doc", doc_str, "--source", "MF", "--target", "LF",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("DE MF->LF"));
    assert!(stdout.contains("target tables:"));
    assert!(stdout.contains("ITEM_"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_shows_program_and_cost() {
    let (ok, stdout, stderr) = xdx(&["plan", "--source", "LF", "--target", "MF"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Split"));
    assert!(stdout.contains("estimated cost"));
    assert!(stdout.contains("cross-edges"));
}

#[test]
fn plan_with_dumb_client_keeps_combines_at_source() {
    let (ok, stdout, _) = xdx(&[
        "plan",
        "--source",
        "MF",
        "--target",
        "LF",
        "--dumb-client",
        "--target-speed",
        "10",
    ]);
    assert!(ok);
    // Every combine line must carry the [S] location marker.
    for line in stdout.lines().filter(|l| l.contains("Combine(")) {
        assert!(line.contains("[S]"), "combine not at source: {line}");
    }
}

#[test]
fn compare_reports_savings() {
    let (ok, stdout, stderr) = xdx(&[
        "compare",
        "--source",
        "MF",
        "--target",
        "LF",
        "--network",
        "lan",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("DE MF->LF"));
    assert!(stdout.contains("PM MF->LF"));
    assert!(stdout.contains("saves"));
}

#[test]
fn wsdl_emits_definitions_and_fragmentation() {
    let (ok, stdout, _) = xdx(&["wsdl", "--fragmentation", "LF"]);
    assert!(ok);
    assert!(stdout.contains("<definitions"));
    assert!(stdout.contains("fragmentation name=\"LF\""));
    assert!(stdout.contains("attribute name=\"PARENT\""));
}

#[test]
fn exchange_with_selection_subsets() {
    let (ok, stdout, stderr) = xdx(&[
        "exchange",
        "--source",
        "MF",
        "--target",
        "LF",
        "--select",
        "item:location=Ghana",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("ITEM_"));
    // Extract the item row count and make sure it is well below the full
    // document's (~1176 items at the default 500 KB size).
    let items: usize = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("ITEM_"))
        .and_then(|l| l.rsplit_once(':'))
        .and_then(|(_, n)| n.trim().trim_end_matches(" rows").parse().ok())
        .expect("item row count");
    assert!(
        items > 0 && items < 600,
        "selection not applied: {items} rows"
    );
}

#[test]
fn advise_recommends_a_fragmentation() {
    let (ok, stdout, stderr) = xdx(&["advise", "--side", "source", "--peer", "LF"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("advised fragmentation"));
    assert!(stdout.contains("planned cost"));
}

#[test]
fn shred_then_exchange_from_persisted_source() {
    let dir = std::env::temp_dir().join(format!("xdx-cli-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("doc.xml");
    let db = dir.join("db");
    let (ok, _, _) = xdx(&[
        "generate",
        "--bytes",
        "60000",
        "--out",
        doc.to_str().unwrap(),
    ]);
    assert!(ok);
    let (ok, _, stderr) = xdx(&[
        "shred",
        "--doc",
        doc.to_str().unwrap(),
        "--fragmentation",
        "MF",
        "--out",
        db.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("24 table(s)"));
    let (ok, stdout, stderr) = xdx(&[
        "exchange",
        "--source",
        "MF",
        "--target",
        "LF",
        "--source-dir",
        db.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    // ~140 items in a 60 KB document — far below the 500 KB default's
    // ~1176, proving the persisted source was actually used.
    let items: usize = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("ITEM_"))
        .and_then(|l| l.rsplit_once(':'))
        .and_then(|(_, n)| n.trim().trim_end_matches(" rows").parse().ok())
        .expect("item row count");
    assert!(items < 400, "persisted source ignored: {items} rows");
    // Mismatched fragmentation is caught.
    let (ok, _, stderr) = xdx(&[
        "exchange",
        "--source",
        "LF",
        "--target",
        "MF",
        "--source-dir",
        db.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("missing"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_required_option_is_reported() {
    let (ok, _, stderr) = xdx(&["exchange", "--source", "MF"]);
    assert!(!ok);
    assert!(stderr.contains("--target"));
}

#[test]
fn options_a_command_does_not_read_are_refused() {
    // A misspelt option must not fall back to a default silently.
    let (ok, _, stderr) = xdx(&[
        "plan",
        "--source",
        "LF",
        "--target",
        "MF",
        "--optimzer",
        "optimal",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --optimzer for plan"),
        "{stderr}"
    );
    // `exchange` has one executor; a thread count is not an option of it.
    let (ok, _, stderr) = xdx(&[
        "exchange",
        "--source",
        "MF",
        "--target",
        "MF",
        "--parallel",
        "8",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --parallel for exchange"),
        "{stderr}"
    );
    // An option given no value is refused too, not read as a flag.
    let (ok, _, stderr) = xdx(&["plan", "--source", "LF", "--target", "MF", "--optimizer"]);
    assert!(!ok);
    assert!(stderr.contains("--optimizer needs a value"), "{stderr}");
}
