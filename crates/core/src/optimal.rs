//! Exhaustive cost-based optimization (paper Section 4.2, Algorithm 1).
//!
//! Two nested searches:
//!
//! 1. **Placement** (`Cost_Based_Optim`): given a program DAG, decide for
//!    every operation whether it runs at the source or the target. The
//!    paper's algorithm enumerates assignments by repeatedly picking an
//!    unassigned operation, pinning it to S, and propagating (upstream → S,
//!    downstream → T); its footnote concedes the enumeration visits
//!    duplicates. We enumerate the same space without duplicates by walking
//!    nodes in topological order: `Scan`s are pinned to S, `Write`s to T,
//!    any node with a target-placed predecessor is forced to T (one-way
//!    shipping forbids T→S edges), and every remaining node branches on
//!    {S, T} — with branch-and-bound pruning against the best complete
//!    placement seen.
//! 2. **Ordering × placement** (`optimal_program`): every combine ordering
//!    from [`Generator::enumerate_orderings`] is placed optimally and the
//!    cheapest overall program wins. When the ordering space exceeds the
//!    budget we fall back to coordinate descent over targets (each target's
//!    orderings enumerated while the others hold), which keeps the search
//!    polynomial while remaining cost-driven; the paper simply notes that
//!    the exhaustive search "takes too long for XML Schemas with more than
//!    40 nodes".
//!
//! `worst_program` explores the same space for the *most expensive* finite
//! program — the paper's Table 5 uses it to size the optimization window.

use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::gen::{permutations, Generator, PieceEdge};
use crate::program::{Location, Op, Program};
use xdx_xml::SchemaTree;

/// Outcome of an exhaustive search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The chosen fully-placed program.
    pub program: Program,
    /// Its cost under the model (formula 1).
    pub cost: f64,
    /// Combine orderings examined.
    pub orderings: usize,
    /// Complete placements costed across all orderings.
    pub placements: usize,
}

/// Whether a search looks for the cheapest or the costliest program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Objective {
    Min,
    Max,
}

/// `Cost_Based_Optim` (Algorithm 1): optimal placement of one program.
/// Returns the placed program and its cost.
pub fn cost_based_optim(
    schema: &SchemaTree,
    model: &CostModel,
    program: &Program,
) -> Result<(Program, f64)> {
    let (placed, cost, _) = search_placements(schema, model, program, Objective::Min)?;
    Ok((placed, cost))
}

fn search_placements(
    schema: &SchemaTree,
    model: &CostModel,
    program: &Program,
    objective: Objective,
) -> Result<(Program, f64, usize)> {
    let mut work = program.clone();
    for n in &mut work.nodes {
        n.location = Location::Unassigned;
    }
    let mut best: Option<(Vec<Location>, f64)> = None;
    let mut visited = 0usize;
    let n = work.nodes.len();

    // Depth-first assignment in topological (= index) order. `running` is
    // the cost of everything already decided: comp of assigned nodes plus
    // comm of edges whose two endpoints are assigned.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        schema: &SchemaTree,
        model: &CostModel,
        work: &mut Program,
        i: usize,
        n: usize,
        running: f64,
        best: &mut Option<(Vec<Location>, f64)>,
        visited: &mut usize,
        objective: Objective,
    ) {
        if !running.is_finite() {
            return; // infeasible prefix (capability violation)
        }
        if objective == Objective::Min {
            if let Some((_, b)) = best {
                if running >= *b {
                    return; // bound: costs only grow
                }
            }
        }
        if i == n {
            *visited += 1;
            let better = match (&best, objective) {
                (None, _) => true,
                (Some((_, b)), Objective::Min) => running < *b,
                (Some((_, b)), Objective::Max) => running > *b,
            };
            if better {
                *best = Some((work.nodes.iter().map(|x| x.location).collect(), running));
            }
            return;
        }
        let forced = match work.nodes[i].op {
            Op::Scan { .. } => Some(Location::Source),
            Op::Write { .. } => Some(Location::Target),
            _ => {
                // One-way shipping: a target-placed predecessor forces T.
                let any_target = work.nodes[i]
                    .inputs
                    .iter()
                    .any(|p| work.nodes[p.node].location == Location::Target);
                any_target.then_some(Location::Target)
            }
        };
        let choices: &[Location] = match forced {
            Some(Location::Source) => &[Location::Source],
            Some(Location::Target) => &[Location::Target],
            _ => &[Location::Source, Location::Target],
        };
        for &loc in choices {
            work.nodes[i].location = loc;
            // comp weighted by w_comp; comm (all input edges resolve once
            // the consumer is placed) weighted by w_comm — both billed to
            // the whole group, so a 1→N publish searches the same space
            // with replicated target work and amortized shipping.
            let mut delta = model.w_comp * model.group_comp_cost(work, i, loc);
            for p in &work.nodes[i].inputs.clone() {
                delta += model.w_comm * model.group_comm_cost(schema, work, *p, i);
            }
            dfs(
                schema,
                model,
                work,
                i + 1,
                n,
                running + delta,
                best,
                visited,
                objective,
            );
            work.nodes[i].location = Location::Unassigned;
        }
    }

    dfs(
        schema,
        model,
        &mut work,
        0,
        n,
        0.0,
        &mut best,
        &mut visited,
        objective,
    );
    let (locations, cost) = best.ok_or_else(|| Error::Unplaceable {
        detail: "no finite placement".into(),
    })?;
    for (node, loc) in work.nodes.iter_mut().zip(locations) {
        node.location = loc;
    }
    work.validate_placement()?;
    Ok((work, cost, visited))
}

/// Fully optimal program: exhaustive over orderings (within `ordering_cap`)
/// × optimal placement. Falls back to per-target coordinate descent when
/// the ordering space is too large.
pub fn optimal_program(
    gen: &Generator<'_>,
    model: &CostModel,
    ordering_cap: usize,
) -> Result<SearchResult> {
    search_programs(gen, model, ordering_cap, Objective::Min)
}

/// Most expensive program in the same search space (Table 5's baseline:
/// "the worst program that we see in the search space of algorithm
/// Cost_Based_Optim").
pub fn worst_program(
    gen: &Generator<'_>,
    model: &CostModel,
    ordering_cap: usize,
) -> Result<SearchResult> {
    search_programs(gen, model, ordering_cap, Objective::Max)
}

fn search_programs(
    gen: &Generator<'_>,
    model: &CostModel,
    ordering_cap: usize,
    objective: Objective,
) -> Result<SearchResult> {
    match gen.enumerate_orderings(ordering_cap) {
        Ok(programs) => {
            let mut best: Option<(Program, f64)> = None;
            let mut placements = 0usize;
            let orderings = programs.len();
            for program in programs {
                let (placed, cost, visited) =
                    search_placements(gen.schema, model, &program, objective)?;
                placements += visited;
                let better = match (&best, objective) {
                    (None, _) => true,
                    (Some((_, b)), Objective::Min) => cost < *b,
                    (Some((_, b)), Objective::Max) => cost > *b,
                };
                if better {
                    best = Some((placed, cost));
                }
            }
            let (program, cost) = best.ok_or_else(|| Error::Unplaceable {
                detail: "empty search space".into(),
            })?;
            Ok(SearchResult {
                program,
                cost,
                orderings,
                placements,
            })
        }
        Err(Error::SearchBudgetExceeded { .. }) => {
            coordinate_descent(gen, model, ordering_cap, objective)
        }
        Err(e) => Err(e),
    }
}

/// Per-target coordinate descent on combine orderings: optimize each
/// target's edge order in turn while the rest hold, costing each candidate
/// with a full optimal placement. One pass over targets.
fn coordinate_descent(
    gen: &Generator<'_>,
    model: &CostModel,
    ordering_cap: usize,
    objective: Objective,
) -> Result<SearchResult> {
    let mut orders: Vec<Vec<PieceEdge>> = (0..gen.target.len())
        .map(|t| gen.edges_of_target(t))
        .collect();
    let mut orderings = 0usize;
    let mut placements = 0usize;
    let mut best: Option<(Program, f64)> = None;
    for t in 0..orders.len() {
        let candidates = if factorial_at_most(orders[t].len(), ordering_cap) {
            permutations(&orders[t])
        } else {
            vec![orders[t].clone()] // too many: keep canonical for this target
        };
        let mut best_for_t: Option<(Vec<PieceEdge>, Program, f64)> = None;
        for cand in candidates {
            orderings += 1;
            let mut trial_orders = orders.clone();
            trial_orders[t] = cand.clone();
            let program = gen.build_with_orders(&trial_orders)?;
            let (placed, cost, visited) =
                search_placements(gen.schema, model, &program, objective)?;
            placements += visited;
            let better = match (&best_for_t, objective) {
                (None, _) => true,
                (Some((_, _, b)), Objective::Min) => cost < *b,
                (Some((_, _, b)), Objective::Max) => cost > *b,
            };
            if better {
                best_for_t = Some((cand, placed, cost));
            }
        }
        if let Some((cand, placed, cost)) = best_for_t {
            orders[t] = cand;
            best = Some((placed, cost));
        }
    }
    let (program, cost) = best.ok_or_else(|| Error::Unplaceable {
        detail: "no orderings".into(),
    })?;
    Ok(SearchResult {
        program,
        cost,
        orderings,
        placements,
    })
}

fn factorial_at_most(n: usize, cap: usize) -> bool {
    let mut f: u128 = 1;
    for i in 1..=n as u128 {
        f = f.saturating_mul(i);
        if f > cap as u128 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{SchemaStats, SystemProfile};
    use crate::fragment::testutil::{customer_schema, t_fragmentation};
    use crate::fragment::Fragmentation;
    use crate::program::Location;

    fn model(schema: &SchemaTree) -> CostModel {
        CostModel::fast_network(SchemaStats::multiplicative(schema, 4, 8))
    }

    #[test]
    fn equal_systems_keep_work_at_source_or_tie() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let result = optimal_program(&gen, &model(&schema), 10_000).unwrap();
        assert!(result.cost.is_finite());
        result.program.validate_placement().unwrap();
        assert!(result.orderings >= 12);
    }

    #[test]
    fn fast_target_attracts_combines() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut m = model(&schema);
        m.target = SystemProfile::with_speed(10.0);
        let result = optimal_program(&gen, &m, 10_000).unwrap();
        let combines_at_target = result
            .program
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Combine { .. }) && n.location == Location::Target)
            .count();
        let total_combines = result.program.op_counts().1;
        assert_eq!(
            combines_at_target, total_combines,
            "10× target should host all combines"
        );
    }

    #[test]
    fn slow_target_repels_combines() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut m = model(&schema);
        m.target = SystemProfile::with_speed(0.1);
        let result = optimal_program(&gen, &m, 10_000).unwrap();
        let combines_at_source = result
            .program
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Combine { .. }) && n.location == Location::Source)
            .count();
        assert_eq!(combines_at_source, result.program.op_counts().1);
    }

    #[test]
    fn dumb_client_forces_source_combines() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let mut m = model(&schema);
        m.target = SystemProfile::dumb_client();
        let result = optimal_program(&gen, &m, 10_000).unwrap();
        for n in &result.program.nodes {
            if matches!(n.op, Op::Combine { .. }) {
                assert_eq!(n.location, Location::Source);
            }
        }
    }

    #[test]
    fn worst_is_no_cheaper_than_optimal() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        let m = model(&schema);
        let best = optimal_program(&gen, &m, 10_000).unwrap();
        let worst = worst_program(&gen, &m, 10_000).unwrap();
        assert!(worst.cost >= best.cost);
        assert!(worst.cost.is_finite());
    }

    #[test]
    fn identity_program_places_trivially() {
        let schema = customer_schema();
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &t, &t);
        let result = optimal_program(&gen, &model(&schema), 100).unwrap();
        assert_eq!(result.orderings, 1);
        // Scan→Write only: every edge is a cross-edge.
        assert_eq!(result.program.cross_edges().len(), 4);
    }

    #[test]
    fn coordinate_descent_kicks_in_on_budget() {
        let schema = customer_schema();
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &mf, &t);
        // Cap below the 12-ordering space: falls back, still succeeds.
        let result = optimal_program(&gen, &model(&schema), 4).unwrap();
        assert!(result.cost.is_finite());
        result.program.validate_placement().unwrap();
    }

    #[test]
    fn placement_counts_reported() {
        let schema = customer_schema();
        let t = t_fragmentation(&schema);
        let gen = Generator::new(&schema, &t, &t);
        let result = optimal_program(&gen, &model(&schema), 100).unwrap();
        assert!(result.placements >= 1);
    }
}
