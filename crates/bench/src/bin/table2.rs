//! Table 2: "Times (secs) for Publish (first value/Step 1) & Map (second
//! value/Step 4)" — publishing the document at the source plus parsing and
//! shredding it at the target, for all four scenarios.
//!
//! Paper values at 25 MB: `MF 87.32+{85.83,81.44}`, `LF 31.36+{85.83,
//! 81.44}` — publishing cost depends on the source fragmentation (MF needs
//! every combine), shredding on the target's.
//!
//! The paper "explored various ways to do publishing, as described in \[6\],
//! and picked the set of queries that minimize the overall ... times", so
//! both endpoints of that spectrum are reported: `single-query` (combine
//! everything relationally — the paper's join-dominated regime, where
//! publish(MF) ≫ publish(LF)) and `outer-union` (per-fragment feeds merged
//! by the tagger — the strongest baseline our engine supports, used as the
//! publish&map default everywhere else).

use std::time::Instant;
use xdx_bench::{header, row, scale_from_args, secs, sizes, Workload, SCENARIOS};
use xdx_core::publish::{publish_with_plan, PublishPlan};
use xdx_core::shred::shred;

fn main() {
    let scale = scale_from_args();
    let sizes = sizes(scale);
    println!("# Table 2 — publish&map: Publish (Step 1) + Map/shred (Step 4), scale {scale}\n");
    let mut cells = vec!["Scenario / plan".to_string()];
    cells.extend(sizes.iter().map(|(l, _)| l.clone()));
    header(&cells.iter().map(String::as_str).collect::<Vec<_>>());
    let paper = [
        ("MF->MF", ["7.16+7.85", "39.76+42.52", "87.32+85.83"]),
        ("MF->LF", ["7.16+4.66", "39.76+41.65", "87.32+81.44"]),
        ("LF->MF", ["3.13+7.85", "6.80+42.52", "31.36+85.83"]),
        ("LF->LF", ["3.13+4.66", "6.80+41.65", "31.36+81.44"]),
    ];
    // One workload per size (docs are large; keep a single copy alive).
    let mut results: Vec<Vec<String>> = vec![Vec::new(); SCENARIOS.len() * 2];
    for (_, bytes) in &sizes {
        let w = Workload::new(*bytes);
        for (i, (src, tgt)) in SCENARIOS.iter().enumerate() {
            for (k, plan) in [PublishPlan::SingleQuery, PublishPlan::OuterUnion]
                .into_iter()
                .enumerate()
            {
                let mut db = w.source(src);
                let published =
                    publish_with_plan(&w.schema, w.frag(src), &mut db, plan).expect("publishes");
                drop(db);
                let start = Instant::now();
                shred(&published.xml, &w.schema, w.frag(tgt)).expect("shreds");
                let shred_time = start.elapsed();
                results[i * 2 + k].push(format!(
                    "{}+{}",
                    secs(published.query_time + published.tagging_time),
                    secs(shred_time)
                ));
            }
        }
    }
    for (i, (src, tgt)) in SCENARIOS.iter().enumerate() {
        let mut single = vec![format!("{src}->{tgt} single-query")];
        single.extend(results[i * 2].clone());
        row(&single);
        let mut outer = vec![format!("{src}->{tgt} outer-union")];
        outer.extend(results[i * 2 + 1].clone());
        row(&outer);
        let p = paper[i].1;
        println!("|   (paper) | {} | {} | {} |", p[0], p[1], p[2]);
    }
}
