//! The greedy program generator and distributed-processing heuristic
//! (paper Section 4.3).
//!
//! * **Ordering**: "we add combines one by one using the least expensive
//!   one first. For estimating its cost, this heuristic assumes the
//!   operation is executed at S."
//! * **Placement**: "The operation OP with the largest absolute difference
//!   of the two estimates is the one that will be most affected by a wrong
//!   placement. Thus, our heuristic is to fix OP to its location of
//!   preference" — then propagate upstream (S) or downstream (T). On a
//!   cost tie, "we make the edge between two unassigned operations a cross
//!   edge, in particular the one with the minimum communication cost".
//!
//! The whole pipeline is a few passes over the DAG — the paper reports
//! milliseconds against `Cost_Based_Optim`'s 80.9 s average.

use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::gen::{Generator, PieceEdge};
use crate::program::{Location, Op, Program, Region};
use std::collections::HashMap;
use xdx_xml::SchemaTree;

/// Greedy combine ordering: contract the globally cheapest combine first
/// (cost estimated as if executed at the source). Returns the complete
/// unplaced program.
pub fn greedy_program(gen: &Generator<'_>, model: &CostModel) -> Result<Program> {
    let mut orders: Vec<Vec<PieceEdge>> = vec![Vec::new(); gen.target.len()];
    // Per target: union-find over pieces plus each group's current region.
    struct TargetState {
        group: HashMap<usize, usize>,
        region: HashMap<usize, Region>,
        remaining: Vec<PieceEdge>,
    }
    let mut states: Vec<TargetState> = (0..gen.target.len())
        .map(|t| {
            let mut group = HashMap::new();
            let mut region = HashMap::new();
            for &p in &gen.mapping.by_target[t] {
                group.insert(p, p);
                let piece = &gen.mapping.pieces[p];
                region.insert(
                    p,
                    Region {
                        root: piece.root,
                        elements: piece.elements.clone(),
                    },
                );
            }
            TargetState {
                group,
                region,
                remaining: gen.edges_of_target(t),
            }
        })
        .collect();

    fn find(group: &HashMap<usize, usize>, mut x: usize) -> usize {
        while group[&x] != x {
            x = group[&x];
        }
        x
    }

    // Source-side cost of combining two regions (the greedy estimate),
    // cell-based like the full model.
    let combine_cost = |parent: &Region, child: &Region| -> f64 {
        let c1 = model.stats.region_cells(parent) as f64;
        let c2 = model.stats.region_cells(child) as f64;
        let mut union = parent.clone();
        union.elements.extend(child.elements.iter().copied());
        let co = model.stats.region_cells(&union) as f64;
        4.0 * (c1 + c2 + co) / model.source.speed
    };

    loop {
        // Cheapest candidate across every target.
        let mut best: Option<(usize, usize, f64)> = None; // (target, edge idx, cost)
        for (t, st) in states.iter().enumerate() {
            for (ei, &(child, parent)) in st.remaining.iter().enumerate() {
                let c = find(&st.group, child);
                let p = find(&st.group, parent);
                let cost = combine_cost(&st.region[&p], &st.region[&c]);
                if best.map(|(_, _, b)| cost < b).unwrap_or(true) {
                    best = Some((t, ei, cost));
                }
            }
        }
        let Some((t, ei, _)) = best else { break };
        let (child, parent) = states[t].remaining.remove(ei);
        let st = &mut states[t];
        let c = find(&st.group, child);
        let p = find(&st.group, parent);
        let child_region = st.region[&c].clone();
        let parent_region = st.region.get_mut(&p).expect("group has region");
        parent_region
            .elements
            .extend(child_region.elements.iter().copied());
        st.group.insert(c, p);
        orders[t].push((child, parent));
    }
    gen.build_with_orders(&orders)
}

/// Greedy placement of a program. Returns the placed program and its cost.
pub fn greedy_placement(
    schema: &SchemaTree,
    model: &CostModel,
    program: &Program,
) -> Result<(Program, f64)> {
    let mut p = program.clone();
    for n in &mut p.nodes {
        n.location = match n.op {
            Op::Scan { .. } => Location::Source,
            Op::Write { .. } => Location::Target,
            _ => Location::Unassigned,
        };
    }
    let consumers = p.consumers();

    // Propagation closures (paper: fix upstream to S / downstream to T).
    fn assign_upstream(p: &mut Program, node: usize) {
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            if p.nodes[i].location == Location::Source {
                continue;
            }
            p.nodes[i].location = Location::Source;
            for inp in p.nodes[i].inputs.clone() {
                stack.push(inp.node);
            }
        }
    }
    fn assign_downstream(p: &mut Program, node: usize, consumers: &[Vec<usize>]) {
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            if p.nodes[i].location == Location::Target {
                continue;
            }
            p.nodes[i].location = Location::Target;
            for &c in &consumers[i] {
                stack.push(c);
            }
        }
    }

    loop {
        let unassigned: Vec<usize> = (0..p.len())
            .filter(|&i| p.nodes[i].location == Location::Unassigned)
            .collect();
        if unassigned.is_empty() {
            break;
        }
        // Probe both systems for every unassigned op: one execution at
        // the source against one per subscriber at the target.
        let mut max_diff: Option<(usize, Location, f64)> = None;
        for &i in &unassigned {
            let cs = model.group_comp_cost(&p, i, Location::Source);
            let ct = model.group_comp_cost(&p, i, Location::Target);
            let (preferred, diff) = match (cs.is_finite(), ct.is_finite()) {
                (true, false) => (Location::Source, f64::INFINITY),
                (false, true) => (Location::Target, f64::INFINITY),
                (false, false) => {
                    return Err(Error::Unplaceable {
                        detail: format!("node {i} infeasible on both systems"),
                    })
                }
                (true, true) => {
                    if cs <= ct {
                        (Location::Source, ct - cs)
                    } else {
                        (Location::Target, cs - ct)
                    }
                }
            };
            if max_diff.map(|(_, _, d)| diff > d).unwrap_or(true) {
                max_diff = Some((i, preferred, diff));
            }
        }
        let (node, preferred, diff) = max_diff.expect("unassigned nonempty");
        const EPS: f64 = 1e-9;
        if diff > EPS {
            match preferred {
                Location::Source => assign_upstream(&mut p, node),
                Location::Target => assign_downstream(&mut p, node, &consumers),
                Location::Unassigned => unreachable!(),
            }
            continue;
        }
        // Tie: cut the unassigned-to-unassigned edge shipping the least
        // (every edge rides the same lanes, so fanout scales them alike
        // and the least stays the least).
        let mut best_edge: Option<(usize, usize, u64)> = None;
        for &i in &unassigned {
            for inp in &p.nodes[i].inputs {
                if p.nodes[inp.node].location == Location::Unassigned {
                    let bytes = model
                        .stats
                        .region_bytes(schema, p.port_region(*inp).expect("valid"));
                    if best_edge.map(|(_, _, b)| bytes < b).unwrap_or(true) {
                        best_edge = Some((inp.node, i, bytes));
                    }
                }
            }
        }
        match best_edge {
            Some((producer, consumer, _)) => {
                assign_upstream(&mut p, producer);
                assign_downstream(&mut p, consumer, &consumers);
            }
            None => {
                // Isolated tie (all neighbors assigned): keep it at the
                // source, the cheaper-or-equal side.
                assign_upstream(&mut p, node);
            }
        }
    }
    p.validate_placement()?;
    let cost = model.program_cost(schema, &p);
    Ok((p, cost))
}

/// Full greedy pipeline: greedy ordering then greedy placement.
pub fn greedy(gen: &Generator<'_>, model: &CostModel) -> Result<(Program, f64)> {
    let program = greedy_program(gen, model)?;
    greedy_placement(gen.schema, model, &program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{SchemaStats, SystemProfile};
    use crate::fragment::testutil::{customer_schema, t_fragmentation};
    use crate::fragment::Fragmentation;
    use crate::optimal;

    fn model(schema: &SchemaTree) -> CostModel {
        CostModel::fast_network(SchemaStats::multiplicative(schema, 4, 8))
    }

    #[test]
    fn greedy_builds_valid_programs() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let (p, cost) = greedy(&gen, &model(&schema)).unwrap();
        p.validate().unwrap();
        p.validate_placement().unwrap();
        assert!(cost.is_finite());
        assert_eq!(p.op_counts().1, schema.len() - 4);
    }

    #[test]
    fn greedy_close_to_optimal() {
        // The paper's Table 5 finds greedy within ~1% of optimal; on this
        // small schema it should be well within 20%.
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        for speed in [0.2, 0.5, 1.0, 2.0, 5.0] {
            let mut m = model(&schema);
            m.target = SystemProfile::with_speed(speed);
            let (_, greedy_cost) = greedy(&gen, &m).unwrap();
            let best = optimal::optimal_program(&gen, &m, 10_000).unwrap();
            assert!(
                greedy_cost <= best.cost * 1.2 + 1e-6,
                "speed {speed}: greedy {greedy_cost} vs optimal {}",
                best.cost
            );
            assert!(
                greedy_cost >= best.cost - 1e-6,
                "greedy cannot beat optimal"
            );
        }
    }

    #[test]
    fn greedy_respects_dumb_client() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut m = model(&schema);
        m.target = SystemProfile::dumb_client();
        let (p, cost) = greedy(&gen, &m).unwrap();
        assert!(cost.is_finite());
        for n in &p.nodes {
            if matches!(n.op, Op::Combine { .. }) {
                assert_eq!(n.location, Location::Source);
            }
        }
    }

    #[test]
    fn greedy_sends_combines_to_fast_target() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut m = model(&schema);
        m.target = SystemProfile::with_speed(10.0);
        let (p, _) = greedy(&gen, &m).unwrap();
        let combines_at_target = p
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Combine { .. }) && n.location == Location::Target)
            .count();
        assert_eq!(combines_at_target, p.op_counts().1);
    }

    #[test]
    fn greedy_handles_identity() {
        let schema = customer_schema();
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &t, &t);
        let (p, cost) = greedy(&gen, &model(&schema)).unwrap();
        assert_eq!(p.op_counts(), (4, 0, 0, 4));
        assert!(cost.is_finite());
    }

    #[test]
    fn greedy_handles_splits() {
        let schema = customer_schema();
        let lf = Fragmentation::least_fragmented("LF", &schema);
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let gen = Generator::new(&schema, &lf, &mf);
        let (p, cost) = greedy(&gen, &model(&schema)).unwrap();
        assert!(cost.is_finite());
        assert_eq!(p.op_counts().2, 4); // each LF fragment splits
        p.validate_placement().unwrap();
    }
}
