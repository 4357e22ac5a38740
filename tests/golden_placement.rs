//! Golden placements: what the planner chose for the XMark exchanges
//! when fanout was still a second set of algorithms (`core::ksite`'s own
//! DFS and greedy loop, the runtime's own group planner), recorded at
//! that commit. The one planner must reproduce every row bit for bit.
//!
//! XMark MF→LF has more combine orderings than the budget. Over budget
//! the old group planner placed the greedy ordering, where the two-site
//! planner — now the only one — runs coordinate descent; on these rows
//! both arrive at the same placement and cost, so no row is excepted.

use xdx::core::{CostModel, DataExchange, Location, Optimizer};

const OPTIMAL: Optimizer = Optimizer::Optimal { ordering_cap: 256 };

/// `(source is MF, optimizer, fanout, cost bits, placement by node)`.
#[rustfmt::skip]
const GOLDEN: [(bool, Optimizer, usize, u64, &str); 16] = [
    (true, Optimizer::Greedy, 1, 0x40d031c5a079c8b8, "SSSSSSSSSSSSSSSSSSSSSSSSSTTTTTTTTTTTTSTTSTTTTTTT"),
    (true, Optimizer::Greedy, 2, 0x40d1354cfca2be7a, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSTSSTSSSSSSST"),
    (true, Optimizer::Greedy, 4, 0x40d33c5bb4f4a9ff, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSTSSTSSSSSSST"),
    (true, Optimizer::Greedy, 8, 0x40d74a7925988109, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSTSSTSSSSSSST"),
    (true, OPTIMAL, 1, 0x40d031c5a079c8b8, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSTSSTSSSSSSST"),
    (true, OPTIMAL, 2, 0x40d1354cfca2be7a, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSTSSTSSSSSSST"),
    (true, OPTIMAL, 4, 0x40d33c5bb4f4aa00, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSTSSTSSSSSSST"),
    (true, OPTIMAL, 8, 0x40d74a792598810a, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSTSSTSSSSSSST"),
    (false, Optimizer::Greedy, 1, 0x40a5d0199999999a, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
    (false, Optimizer::Greedy, 2, 0x40adec547ae147ae, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
    (false, Optimizer::Greedy, 4, 0x40b712651eb851ec, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
    (false, Optimizer::Greedy, 8, 0x40c3a56d70a3d70a, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
    (false, OPTIMAL, 1, 0x40a5d01999999998, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
    (false, OPTIMAL, 2, 0x40adec547ae147ac, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
    (false, OPTIMAL, 4, 0x40b712651eb851eb, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
    (false, OPTIMAL, 8, 0x40c3a56d70a3d70a, "SSSSSSTTTTTTTTTTTTTTTTTTTTTTTT"),
];

#[test]
fn one_planner_reproduces_the_recorded_placements() {
    let schema = xdx::xmark::schema();
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(20_000));
    let (mf, lf) = (xdx::xmark::mf(&schema), xdx::xmark::lf(&schema));
    for (from_mf, optimizer, fanout, cost_bits, placement) in GOLDEN {
        let (s, t) = if from_mf { (&mf, &lf) } else { (&lf, &mf) };
        let source = xdx::xmark::load_source(&doc, &schema, s).unwrap();
        let exchange = DataExchange::new(&schema, s.clone(), t.clone()).with_optimizer(optimizer);
        let model = CostModel {
            fanout,
            ..exchange.probe(&source).unwrap()
        };
        let (program, cost) = exchange.plan(&model).unwrap();
        let placed: String = program
            .nodes
            .iter()
            .map(|n| match n.location {
                Location::Source => 'S',
                Location::Target => 'T',
                Location::Unassigned => '?',
            })
            .collect();
        let row = format!("{}→{} {optimizer:?} fanout {fanout}", s.name, t.name);
        assert_eq!(placed, placement, "{row}: placement moved");
        assert_eq!(
            cost.to_bits(),
            cost_bits,
            "{row}: cost {cost} ≠ recorded {}",
            f64::from_bits(cost_bits)
        );
    }
}
