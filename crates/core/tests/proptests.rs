//! Property tests for the exchange middleware over *randomized* schemas,
//! documents and fragmentations — broader than the XMark-only workspace
//! tests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use xdx_core::cost::{CostModel, SchemaStats, SystemProfile};
use xdx_core::gen::Generator;
use xdx_core::mapping::Mapping;
use xdx_core::program::Op;
use xdx_core::publish::{publish, publish_with_plan, tag, tag_feeds, PublishPlan};
use xdx_core::shred::shred;
use xdx_core::{greedy, optimal, Fragmentation};
use xdx_relational::Database;
use xdx_sim::{random_document, random_schema};
use xdx_xml::{NodeId, SchemaTree};

/// Random fragmentation by random cut points.
fn random_frag(schema: &SchemaTree, seed: u64, cuts: usize) -> Fragmentation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut roots = BTreeSet::from([schema.root()]);
    let ids: Vec<NodeId> = schema.ids().skip(1).collect();
    for _ in 0..cuts.min(ids.len()) {
        roots.insert(ids[rng.gen_range(0..ids.len())]);
    }
    Fragmentation::from_roots("rand", schema, &roots).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The mapping's pieces always partition the schema, and each target's
    /// pieces partition that target fragment.
    #[test]
    fn pieces_partition_schema(seed in 0u64..1000, n in 4usize..20,
                               s_cuts in 0usize..6, t_cuts in 0usize..6) {
        let schema = random_schema(seed, n);
        let s = random_frag(&schema, seed ^ 1, s_cuts);
        let t = random_frag(&schema, seed ^ 2, t_cuts);
        let m = Mapping::derive(&schema, &s, &t);
        let total: usize = m.pieces.iter().map(|p| p.elements.len()).sum();
        prop_assert_eq!(total, schema.len());
        for (ti, tf) in t.fragments.iter().enumerate() {
            let union: BTreeSet<NodeId> = m.by_target[ti]
                .iter()
                .flat_map(|&p| m.pieces[p].elements.iter().copied())
                .collect();
            prop_assert_eq!(&union, &tf.elements);
        }
        // Every piece is a connected region: its non-root members' parents
        // stay inside.
        for p in &m.pieces {
            for &e in &p.elements {
                if e != p.root {
                    let parent = schema.node(e).parent.unwrap();
                    prop_assert!(p.elements.contains(&parent));
                }
            }
        }
    }

    /// Generated programs validate structurally for arbitrary pairs, and
    /// both planners produce legal placements with consistent costs.
    #[test]
    fn planners_agree_with_cost_model(seed in 0u64..1000, n in 4usize..14,
                                      s_cuts in 0usize..5, t_cuts in 0usize..5) {
        let schema = random_schema(seed, n);
        let s = random_frag(&schema, seed ^ 3, s_cuts);
        let t = random_frag(&schema, seed ^ 4, t_cuts);
        let mut model = CostModel::fast_network(SchemaStats::multiplicative(&schema, 3, 8));
        model.target = SystemProfile::with_speed(if seed % 2 == 0 { 2.0 } else { 0.5 });
        let gen = Generator::new(&schema, &s, &t);
        gen.canonical().unwrap().validate().unwrap();

        let (gp, gc) = greedy::greedy(&gen, &model).unwrap();
        gp.validate_placement().unwrap();
        // The planner's reported cost must equal the model's evaluation of
        // the returned program.
        let recomputed = model.program_cost(&schema, &gp);
        prop_assert!((gc - recomputed).abs() <= 1e-6 * recomputed.max(1.0),
            "greedy reported {gc}, model says {recomputed}");

        let best = optimal::optimal_program(&gen, &model, 2_000).unwrap();
        let best_recomputed = model.program_cost(&schema, &best.program);
        prop_assert!((best.cost - best_recomputed).abs() <= 1e-6 * best_recomputed.max(1.0),
            "optimal reported {}, model says {best_recomputed}", best.cost);
        prop_assert!(gc >= best.cost - 1e-6);
    }

    /// Shred → load → publish reproduces random documents over random
    /// schemas and fragmentations exactly.
    #[test]
    fn publish_inverts_shred_on_random_schemas(seed in 0u64..1000, n in 3usize..16,
                                               cuts in 0usize..5) {
        let schema = random_schema(seed, n);
        let doc = random_document(&schema, seed ^ 7);
        let frag = random_frag(&schema, seed ^ 8, cuts);
        let shredded = shred(&doc, &schema, &frag).unwrap();
        let mut db = Database::new("s");
        for (f, feed) in frag.fragments.iter().zip(shredded.feeds) {
            db.load(&f.name, feed).unwrap();
        }
        let published = publish(&schema, &frag, &mut db).unwrap();
        let body = published.xml.split_once("?>").unwrap().1;
        prop_assert_eq!(body, doc.as_str());
    }

    /// Tagging a single-fragment (whole-document) feed is idempotent
    /// through the shredder.
    #[test]
    fn tag_shred_fixpoint(seed in 0u64..500, n in 3usize..12) {
        let schema = random_schema(seed, n);
        let doc = random_document(&schema, seed ^ 9);
        let whole = Fragmentation::whole_document("w", &schema);
        let first = shred(&doc, &schema, &whole).unwrap();
        let once = tag(&schema, &first.feeds[0]).unwrap();
        let body = once.split_once("?>").unwrap().1;
        let second = shred(body, &schema, &whole).unwrap();
        let twice = tag(&schema, &second.feeds[0]).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// The tagger's two input shapes agree: one combined feed
    /// (`SingleQuery`) and the raw fragment feeds (`OuterUnion`) publish
    /// the same bytes, and the raw feeds tag alike in reverse order.
    #[test]
    fn tagging_is_independent_of_plan_and_feed_order(seed in 0u64..1000, n in 3usize..16,
                                                     cuts in 0usize..5) {
        let schema = random_schema(seed, n);
        let doc = random_document(&schema, seed ^ 11);
        let frag = random_frag(&schema, seed ^ 12, cuts);
        let mut feeds = shred(&doc, &schema, &frag).unwrap().feeds;
        let mut db = Database::new("s");
        for (f, feed) in frag.fragments.iter().zip(feeds.iter().cloned()) {
            db.load(&f.name, feed).unwrap();
        }
        let single = publish_with_plan(&schema, &frag, &mut db, PublishPlan::SingleQuery).unwrap();
        let union = publish_with_plan(&schema, &frag, &mut db, PublishPlan::OuterUnion).unwrap();
        prop_assert_eq!(&single.xml, &union.xml);
        feeds.reverse();
        prop_assert_eq!(tag_feeds(&schema, &feeds).unwrap(), union.xml);
    }

    /// Program op counts follow the mapping arithmetic: combines =
    /// Σ(target pieces − 1), splits = #sources with >1 piece.
    #[test]
    fn op_counts_follow_mapping(seed in 0u64..1000, n in 4usize..18,
                                s_cuts in 0usize..6, t_cuts in 0usize..6) {
        let schema = random_schema(seed, n);
        let s = random_frag(&schema, seed ^ 5, s_cuts);
        let t = random_frag(&schema, seed ^ 6, t_cuts);
        let gen = Generator::new(&schema, &s, &t);
        let p = gen.canonical().unwrap();
        let (scans, combines, splits, writes) = p.op_counts();
        prop_assert_eq!(scans, s.len());
        prop_assert_eq!(writes, t.len());
        let expected_combines: usize =
            (0..t.len()).map(|ti| gen.mapping.by_target[ti].len() - 1).sum();
        prop_assert_eq!(combines, expected_combines);
        let expected_splits =
            (0..s.len()).filter(|&si| gen.mapping.by_source[si].len() > 1).count();
        prop_assert_eq!(splits, expected_splits);
        // Split outputs must be consumed by something.
        for node in &p.nodes {
            if matches!(node.op, Op::Split) {
                prop_assert!(node.outputs.len() >= 2);
            }
        }
    }
}
