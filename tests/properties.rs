//! Workspace-level property tests: for *arbitrary* valid fragmentation
//! pairs, planning must succeed, placements must be legal, the optimized
//! exchange must land exactly the rows publish&map lands, and the greedy
//! planner must never beat the exhaustive one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xdx::core::cost::{CostModel, SchemaStats, SystemProfile};
use xdx::core::gen::Generator;
use xdx::core::pm::publish_and_map;
use xdx::core::{greedy, ksite_greedy, ksite_optimal, optimal, DataExchange};
use xdx::net::{Link, NetworkProfile};
use xdx::relational::Database;
use xdx::sim::random_fragmentation;
use xdx::xml::SchemaTree;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Greedy never beats optimal; both produce valid placements.
    #[test]
    fn greedy_bounded_by_optimal(seed in 0u64..500, s_frags in 2usize..8, t_frags in 2usize..8,
                                 speed in prop::sample::select(vec![0.2f64, 1.0, 5.0])) {
        let schema = SchemaTree::balanced(2, 3, true); // 13 nodes
        let mut rng = StdRng::seed_from_u64(seed);
        let source = random_fragmentation(&schema, s_frags, "s", &mut rng);
        let target = random_fragmentation(&schema, t_frags, "t", &mut rng);
        let mut model = CostModel::fast_network(SchemaStats::multiplicative(&schema, 3, 10));
        model.target = SystemProfile::with_speed(speed);
        let gen = Generator::new(&schema, &source, &target);
        let best = optimal::optimal_program(&gen, &model, 20_000).unwrap();
        let (greedy_program, greedy_cost) = greedy::greedy(&gen, &model).unwrap();
        best.program.validate_placement().unwrap();
        greedy_program.validate_placement().unwrap();
        prop_assert!(greedy_cost >= best.cost - 1e-6,
            "greedy {greedy_cost} beat optimal {}", best.cost);
        let worst = optimal::worst_program(&gen, &model, 20_000).unwrap();
        prop_assert!(worst.cost >= best.cost - 1e-6);
        prop_assert!(greedy_cost <= worst.cost + 1e-6);
    }

    /// DE and PM land semantically identical data for random
    /// fragmentation pairs over a real document: re-publishing the
    /// document from either target yields the same XML. (Row counts may
    /// differ legitimately — outer-union feeds admit several encodings of
    /// the same instances depending on combine order.)
    #[test]
    fn de_equals_pm_on_random_fragmentations(seed in 0u64..200) {
        let schema = xdx::xmark::schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let source = random_fragmentation(&schema, 5, "src", &mut rng);
        let target = random_fragmentation(&schema, 4, "tgt", &mut rng);
        let doc = xdx::xmark::generate(xdx::xmark::GenConfig { target_bytes: 15_000, seed });

        let mut de_source = xdx::xmark::load_source(&doc, &schema, &source).unwrap();
        let mut de_target = Database::new("de");
        let mut de_link = Link::new(NetworkProfile::lan());
        let (de, _) = DataExchange::new(&schema, source.clone(), target.clone())
            .run(&mut de_source, &mut de_target, &mut de_link)
            .unwrap();

        let mut pm_source = xdx::xmark::load_source(&doc, &schema, &source).unwrap();
        let mut pm_target = Database::new("pm");
        let mut pm_link = Link::new(NetworkProfile::lan());
        let pm = publish_and_map(
            &schema, &source, &target, &mut pm_source, &mut pm_target, &mut pm_link,
        )
        .unwrap();

        prop_assert!(de.rows_loaded > 0 && pm.rows_loaded > 0);
        let de_doc = xdx::core::publish::publish(&schema, &target, &mut de_target).unwrap();
        let pm_doc = xdx::core::publish::publish(&schema, &target, &mut pm_target).unwrap();
        prop_assert_eq!(de_doc.xml, pm_doc.xml);
    }

    /// K-site placement on arbitrary fragmentation pairs: greedy never
    /// beats the exhaustive placement at any fanout, both placements are
    /// legal, and the k-site cost of any placed program is monotone in
    /// fanout (more subscribers never cost less).
    #[test]
    fn ksite_greedy_bounded_by_exhaustive(seed in 0u64..300, s_frags in 2usize..7,
                                          t_frags in 2usize..7, fanout in 2usize..6,
                                          speed in prop::sample::select(vec![0.2f64, 1.0, 5.0])) {
        let schema = SchemaTree::balanced(2, 3, true);
        let mut rng = StdRng::seed_from_u64(seed);
        let source = random_fragmentation(&schema, s_frags, "s", &mut rng);
        let target = random_fragmentation(&schema, t_frags, "t", &mut rng);
        let mut model = CostModel::fast_network(SchemaStats::multiplicative(&schema, 3, 10));
        model.target = SystemProfile::with_speed(speed);
        let gen = Generator::new(&schema, &source, &target);
        // Exhaustive: best k-site placement over every ordering.
        let orderings = gen.enumerate_orderings(20_000).unwrap();
        prop_assert!(!orderings.is_empty());
        let mut best = f64::INFINITY;
        for program in &orderings {
            let (placed, cost) = ksite_optimal(&schema, &model, program, fanout).unwrap();
            placed.validate_placement().unwrap();
            // Monotone in fanout: replicating to more subscribers never
            // gets cheaper.
            let wider = CostModel { fanout: fanout + 1, ..model.clone() }
                .program_cost(&schema, &placed);
            prop_assert!(wider >= cost - 1e-6,
                "fanout {} cost {wider} undercut fanout {fanout} cost {cost}", fanout + 1);
            if cost < best { best = cost; }
        }
        let ordering = greedy::greedy_program(&gen, &model).unwrap();
        let (placed, greedy_cost) = ksite_greedy(&schema, &model, &ordering, fanout).unwrap();
        placed.validate_placement().unwrap();
        prop_assert!(greedy_cost >= best - 1e-6,
            "k-site greedy {greedy_cost} beat exhaustive {best} at fanout {fanout}");
    }

    /// The exchange is lossless: exchanging then publishing from the
    /// target reproduces the original document.
    #[test]
    fn exchange_preserves_the_document(seed in 0u64..200) {
        let schema = xdx::xmark::schema();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let source = random_fragmentation(&schema, 6, "src", &mut rng);
        let target = random_fragmentation(&schema, 3, "tgt", &mut rng);
        let doc = xdx::xmark::generate(xdx::xmark::GenConfig { target_bytes: 12_000, seed });

        let mut src_db = xdx::xmark::load_source(&doc, &schema, &source).unwrap();
        let mut tgt_db = Database::new("t");
        let mut link = Link::new(NetworkProfile::lan());
        DataExchange::new(&schema, source.clone(), target.clone())
            .run(&mut src_db, &mut tgt_db, &mut link)
            .unwrap();

        // Re-publish from the *target* and compare to the original.
        let republished =
            xdx::core::publish::publish(&schema, &target, &mut tgt_db).unwrap();
        let body = republished.xml.split_once("?>").unwrap().1;
        prop_assert_eq!(body, doc.as_str());
    }
}
