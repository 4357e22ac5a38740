//! Figure 9: "Times for end-to-end transfer" — the stacked breakdown
//! (processing at source, communication, shredding, loading, indexing) of
//! DE vs PM for every scenario at 25 MB. DE's planning (probe + plan) and
//! its codec (feed encode + decode) are columns of their own and count in
//! both totals.
//!
//! Paper finding: "the optimized data exchange architecture provides
//! saving between 23% and 43% in the overall execution depending on the
//! case", and for LF→LF "if we ignore loading and indexing ... the
//! reduction in total execution is about 53%".

use xdx_bench::{header, row, scale_from_args, secs, Workload, SCENARIOS};
use xdx_net::NetworkProfile;

fn breakdown(w: &Workload, profile: NetworkProfile, label: &str) {
    println!("## {label}\n");
    header(&[
        "Run",
        "planning",
        "src-proc",
        "tagging",
        "codec",
        "comm",
        "tgt-proc",
        "shred",
        "load",
        "index",
        "TOTAL",
        "total-excl-load/idx",
    ]);
    let mut savings = Vec::new();
    for (src, tgt) in SCENARIOS {
        let de = w.run_de(src, tgt, profile);
        let pm = w.run_pm(src, tgt, profile);
        for r in [&de, &pm] {
            row(&[
                format!("{} {}->{}", r.strategy, src, tgt),
                secs(r.times.planning),
                secs(r.times.source_queries),
                secs(r.times.tagging),
                secs(r.times.codec),
                secs(r.times.communication),
                secs(r.times.target_queries),
                secs(r.times.shredding),
                secs(r.times.loading),
                secs(r.times.indexing),
                secs(r.times.total()),
                secs(r.times.total_excluding_load_index()),
            ]);
        }
        let save = 1.0 - de.times.total().as_secs_f64() / pm.times.total().as_secs_f64();
        let save_core = 1.0
            - de.times.total_excluding_load_index().as_secs_f64()
                / pm.times.total_excluding_load_index().as_secs_f64();
        savings.push((src, tgt, save, save_core));
    }
    println!();
    for (src, tgt, save, save_core) in savings {
        println!(
            "{src}->{tgt}: DE saves {:.0}% end-to-end ({:.0}% excluding load+index). Paper: 23–43% (53% excl.)",
            save * 100.0,
            save_core * 100.0
        );
    }
    println!();
}

fn main() {
    let scale = scale_from_args();
    let bytes = (25.0 * scale * 1024.0 * 1024.0) as usize;
    println!("# Figure 9 — end-to-end breakdown at 25 MB (scale {scale})\n");
    let w = Workload::new(bytes);
    // The paper's regime: 2004 hardware made processing, shredding and
    // loading comparable to the wide-area shipping time. Our in-memory
    // engine compresses the processing share, so the same experiment is
    // shown in both regimes: the simulated 2004 Internet (communication-
    // dominated here) and a LAN (processing-dominated, where the operation
    // savings of the optimized exchange stand out).
    breakdown(
        &w,
        NetworkProfile::internet_2004(),
        "wide-area link (2004 Internet model)",
    );
    breakdown(
        &w,
        NetworkProfile::lan(),
        "LAN link (processing-dominated regime)",
    );
}
