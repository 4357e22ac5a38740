//! Failure-injection tests: a damaged wide-area link must surface as an
//! explicit error at the receiving side — never as silently corrupt target
//! data.
//!
//! The reference executor ships each message once over the link's seeded
//! [`FaultProfile`], the same fault model the runtime's retrying shipper
//! draws from. Set `XDX_CHAOS_SEED=<u64>` to extend the seed list of the
//! profile sweep (the CI chaos job feeds its matrix through this).

use xdx::core::agency::DataExchange;
use xdx::core::{Fragmentation, WireFormat};
use xdx::net::{BurstLoss, FaultProfile, Link, NetworkProfile};
use xdx::relational::Database;

fn workload() -> (xdx::xml::SchemaTree, Fragmentation, Fragmentation, Database) {
    let schema = xdx::xmark::schema();
    let mf = xdx::xmark::mf(&schema);
    let lf = xdx::xmark::lf(&schema);
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(40_000));
    let source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
    (schema, mf, lf, source)
}

fn faulty_link(profile: FaultProfile) -> Link {
    Link::new(NetworkProfile::lan()).with_fault_profile(profile)
}

#[test]
fn corrupted_message_fails_loudly() {
    let (schema, mf, lf, mut source) = workload();
    let mut target = Database::new("t");
    let mut link = faulty_link(FaultProfile {
        corrupt_probability: 1.0,
        ..FaultProfile::healthy()
    });
    let err = DataExchange::new(&schema, mf, lf)
        .run(&mut source, &mut target, &mut link)
        .unwrap_err();
    // The HTTP parse or the feed's checksum catches the damage.
    let msg = err.to_string();
    assert!(
        ["http error", "corrupted", "decode"]
            .iter()
            .any(|cause| msg.contains(cause)),
        "unexpected error: {msg}"
    );
    // Nothing half-loaded: every shipment precedes the first Write.
    assert_eq!(target.total_rows(), 0);
}

#[test]
fn dropped_message_fails_loudly() {
    let (schema, mf, lf, mut source) = workload();
    let mut target = Database::new("t");
    let mut link = faulty_link(FaultProfile::drops(1.0, 1));
    let err = DataExchange::new(&schema, mf, lf)
        .run(&mut source, &mut target, &mut link)
        .unwrap_err();
    // Nothing arrives, so the HTTP layer fails before the feed decoder
    // even runs: there is no header terminator to find.
    let msg = err.to_string();
    assert!(msg.contains("terminator"), "{msg}");
    assert_eq!(link.message_count(), 1, "the first loss ends the run");
}

#[test]
fn intermittent_fault_fails_only_when_hit() {
    let (schema, mf, lf, source) = workload();
    let exchange = DataExchange::new(&schema, mf, lf);
    for seed in 0..8 {
        let profile = FaultProfile::drops(0.05, seed);
        let mut target = Database::new("t");
        let mut link = faulty_link(profile);
        let ran = exchange.run(&mut source.clone(), &mut target, &mut link);
        // A drop-only profile draws once per message, so a fresh link on
        // the same seed replays which of the sent messages were lost.
        let mut replay = faulty_link(profile);
        let lost = (0..link.message_count())
            .filter(|_| !replay.transmit_faulty("m", b"x").1.is_ok())
            .count();
        match ran {
            Ok(_) => assert_eq!(lost, 0, "seed {seed}: a run survived a loss"),
            Err(e) => assert_eq!(lost, 1, "seed {seed}: {e}"),
        }
    }
}

#[test]
fn healthy_link_is_unaffected_by_fault_plumbing() {
    let (schema, mf, lf, mut source) = workload();
    let mut target = Database::new("t");
    let mut link = Link::new(NetworkProfile::lan()); // healthy profile by default
    let (report, _) = DataExchange::new(&schema, mf, lf)
        .run(&mut source, &mut target, &mut link)
        .unwrap();
    assert!(report.rows_loaded > 0);
}

/// Built-in seeds, extended by `XDX_CHAOS_SEED` when set.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![0x1CDE_2004, 0xBAD_5EED, 42];
    if let Ok(extra) = std::env::var("XDX_CHAOS_SEED") {
        seeds.push(extra.trim().parse().expect("XDX_CHAOS_SEED must be a u64"));
    }
    seeds
}

/// One profile per failure mode of the link, each severe enough that a
/// run of a few dozen messages is sometimes hit and sometimes not.
fn profiles(seed: u64) -> Vec<(&'static str, FaultProfile)> {
    let healthy = FaultProfile::healthy().with_seed(seed);
    vec![
        ("drop", FaultProfile::drops(0.04, seed)),
        (
            "timeout",
            FaultProfile {
                timeout_probability: 0.04,
                ..healthy
            },
        ),
        (
            "corrupt",
            FaultProfile {
                corrupt_probability: 0.04,
                corrupt_burst: 16,
                ..healthy
            },
        ),
        (
            "duplicate",
            FaultProfile {
                duplicate_probability: 0.25,
                ..healthy
            },
        ),
        (
            "reorder",
            FaultProfile {
                reorder_probability: 0.04,
                ..healthy
            },
        ),
        (
            "gilbert-elliott",
            FaultProfile {
                burst_loss: Some(BurstLoss {
                    enter: 0.03,
                    exit: 0.4,
                    loss: 0.9,
                }),
                ..healthy
            },
        ),
    ]
}

/// Every table's wire form (schema, rows and sum), in name order.
fn wire_state(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    for name in db.table_names() {
        out.extend_from_slice(name.as_bytes());
        out.push(0);
        out.extend_from_slice(db.table(name).unwrap().data.to_wire().as_bytes());
    }
    out
}

#[test]
fn reference_executor_lands_whole_or_nothing_under_seeded_faults() {
    let (schema, mf, lf, source) = workload();
    let (mut landed, mut failed) = (0, 0);
    for format in [WireFormat::Xml, WireFormat::Columnar] {
        let exchange = DataExchange::new(&schema, mf.clone(), lf.clone()).with_wire_format(format);
        let mut healthy = Database::new("t");
        exchange
            .run(
                &mut source.clone(),
                &mut healthy,
                &mut Link::new(NetworkProfile::lan()),
            )
            .unwrap();
        let want = wire_state(&healthy);
        for seed in chaos_seeds() {
            for (name, profile) in profiles(seed) {
                let mut target = Database::new("t");
                let mut link = faulty_link(profile);
                match exchange.run(&mut source.clone(), &mut target, &mut link) {
                    Ok(_) => {
                        assert!(
                            wire_state(&target) == want,
                            "{name}/{seed:x}/{format}: landed other tables than a healthy run"
                        );
                        landed += 1;
                    }
                    Err(e) => {
                        assert_eq!(target.total_rows(), 0, "{name}/{seed:x}/{format}: {e}");
                        failed += 1;
                    }
                }
            }
        }
    }
    println!("{landed} runs landed, {failed} failed");
    assert!(landed > 0, "no run survived its fault profile");
    assert!(failed > 0, "no fault profile ever hit a run");
}
