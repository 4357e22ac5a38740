//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Combine ordering**: greedy cost-first vs canonical pre-order vs
//!    the worst ordering in the search space (estimated cost).
//! 2. **Join strategy**: merge vs hash `Combine` (measured on item feeds).
//! 3. **Wire format**: prefix-compressed Dewey ids vs a naive expansion,
//!    and the columnar frame's bytes per Dewey cell (shipped bytes).
//! 4. **Dumb client**: planned cost with and without target-side combines.

use std::time::Instant;
use xdx_core::cost::{CostModel, SchemaStats, SystemProfile};
use xdx_core::gen::Generator;
use xdx_core::{greedy, optimal};
use xdx_relational::ops::{hash_combine, merge_combine, ChainHint};
use xdx_relational::Counters;

fn main() {
    let schema = xdx_xmark::schema();
    let doc = xdx_xmark::generate(xdx_xmark::GenConfig::sized(2_000_000));
    let mf = xdx_xmark::mf(&schema);
    let lf = xdx_xmark::lf(&schema);

    // ------------------------------------------------------------------
    // On MF→LF itself the ordering space is symmetric (every piece is a
    // single element of equal weight), so orderings tie; random
    // fragmentations over a skewed document expose the gap.
    println!("## 1. Combine ordering (random fragmentations, estimated cost)\n");
    let source_db = xdx_xmark::load_source(&doc, &schema, &mf).expect("loads");
    let stats = SchemaStats::probe(&schema, &source_db, &mf).expect("probes");
    let model = CostModel::fast_network(stats.clone());
    {
        use xdx_xml::SchemaTree;
        let sim_schema = SchemaTree::balanced(2, 4, true);
        let sim_model = CostModel::fast_network(SchemaStats::multiplicative(&sim_schema, 5, 16));
        let mut worse_sum = 0.0;
        for seed in 0..5u64 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let s = xdx_sim::random_fragmentation(&sim_schema, 6, "s", &mut rng);
            let t = xdx_sim::random_fragmentation(&sim_schema, 6, "t", &mut rng);
            let g = Generator::new(&sim_schema, &s, &t);
            let (_, greedy_cost) = greedy::greedy(&g, &sim_model).expect("greedy");
            let canonical = g.canonical().expect("canonical");
            let (_, canonical_cost) =
                greedy::greedy_placement(&sim_schema, &sim_model, &canonical).expect("placement");
            let worst = optimal::worst_program(&g, &sim_model, 20_000).expect("worst");
            println!(
                "seed {seed}: greedy {greedy_cost:>9.0} | canonical {canonical_cost:>9.0} | worst {:.0}",
                worst.cost
            );
            worse_sum += canonical_cost / greedy_cost;
        }
        println!(
            "canonical ordering averages {:.2}× the greedy ordering's cost\n",
            worse_sum / 5.0
        );
    }

    // ------------------------------------------------------------------
    println!("## 2. Join strategy (merge vs hash Combine on item feeds)\n");
    let item = source_db.table("ITEM").expect("item").data.clone();
    let iname = source_db.table("INAME").expect("iname").data.clone();
    type CombineFn = fn(
        &xdx_relational::Feed,
        &xdx_relational::Feed,
        &str,
        &mut Counters,
    ) -> xdx_relational::Result<xdx_relational::Feed>;
    for (name, f) in [
        (
            "merge",
            (|p, c, a, k| merge_combine(p.clone(), c.clone(), a, ChainHint::default(), k))
                as CombineFn,
        ),
        ("hash", hash_combine as CombineFn),
    ] {
        let start = Instant::now();
        let mut c = Counters::new();
        let out = f(&item, &iname, "item", &mut c).expect("combines");
        println!(
            "{name:5}: {:>8.2} ms for {} rows ({})",
            start.elapsed().as_secs_f64() * 1000.0,
            out.len(),
            c
        );
    }
    println!();

    // ------------------------------------------------------------------
    println!("## 3. Wire format (prefix-compressed vs naive Dewey ids)\n");
    // `item` holds ids alone; naive: full-length cells, 2 framing bytes each.
    let cells = item.len() * item.schema.arity();
    let (compressed, naive) = (item.to_wire().len(), item.wire_size() as usize + cells);
    let columnar = xdx_codec::encode_feed(&item).len();
    println!("compressed wire: {compressed} bytes\nnaive estimate : {naive} bytes");
    let per_cell = columnar as f64 / cells as f64;
    println!("columnar frame : {columnar} bytes, {per_cell:.2} per Dewey cell");
    println!(
        "compression saves ~{:.0}% of id-bearing payload\n",
        (1.0 - compressed as f64 / naive as f64) * 100.0
    );

    // ------------------------------------------------------------------
    // With equal systems the combines sit at the source anyway; the dumb
    // client's handicap shows when the target is the fast machine.
    println!("## 4. Dumb client vs fast target (MF→LF planned cost, target 10×)\n");
    let gen = Generator::new(&schema, &mf, &lf);
    let mut fast_model = model.clone();
    fast_model.target = SystemProfile::with_speed(10.0);
    let (_, fast_cost) = greedy::greedy(&gen, &fast_model).expect("plans");
    let mut dumb_model = fast_model.clone();
    dumb_model.target.can_combine = false;
    let (_, dumb_cost) = greedy::greedy(&gen, &dumb_model).expect("plans");
    println!("fast target, full capability : {fast_cost:.0}");
    println!("fast target, cannot combine  : {dumb_cost:.0}");
    println!(
        "losing target-side combines costs {:.1}% (all combines forced to the slow source)",
        (dumb_cost / fast_cost - 1.0) * 100.0
    );
}
