//! k-site placement: the multi-site generalization of `Cost_Based_Optim`.
//!
//! The paper's architecture places every operator at one of two sites —
//! the source or the target — and Section 6 leaves the multi-site
//! network as future work. A *symmetric 1→k publish group* — one source
//! feeding `fanout` subscribers that registered the same target
//! fragmentation over the same negotiated wire format — needs no second
//! algorithm: the placement domain per operator stays binary (run it
//! once at the source, or replicate it at every subscriber), and only
//! the *costing* is k-way. So fanout is an input of the one
//! [`CostModel`], whose group estimates bill:
//!
//! * an operator placed at the target `fanout` times (once per
//!   subscriber);
//! * a cross edge over `fanout` lanes whose frames are encoded once and
//!   shared (the runtime refcounts them), so each extra leg costs only
//!   the [`MULTICAST_LEG_FACTOR`] share of the first leg's bytes —
//!   [`multicast_bytes`] is the amortized wire term.
//!
//! [`cost_based_optim`] and [`greedy_placement`] read those estimates, so
//! a group of one *is* the two-site exchange. Asymmetric k-site layouts
//! (N→1 consolidation) decompose into independent two-site placements
//! — the cost model carries no shared-capacity term — and are handled
//! by the runtime as per-source sessions.

use crate::cost::CostModel;
use crate::error::Result;
use crate::greedy::greedy_placement;
use crate::optimal::cost_based_optim;
use crate::program::Program;
use xdx_xml::SchemaTree;

/// Marginal wire cost of each subscriber leg beyond the first, as a
/// fraction of the first leg's bytes. The frames themselves are encoded
/// once and shared across lanes; what each extra leg pays is its own
/// chunking, acknowledgement and retry exposure — a fixed share of the
/// payload, independent of tree depth or format.
pub const MULTICAST_LEG_FACTOR: f64 = 0.3;

/// Amortized wire bytes of shipping `bytes` to `fanout` subscribers
/// over shared-encode lanes: the first leg pays full freight, each
/// additional leg pays [`MULTICAST_LEG_FACTOR`] of it. `fanout <= 1`
/// is exactly `bytes`.
pub fn multicast_bytes(bytes: f64, fanout: usize) -> f64 {
    if fanout <= 1 {
        bytes
    } else {
        bytes * (1.0 + (fanout - 1) as f64 * MULTICAST_LEG_FACTOR)
    }
}

/// `model` billing a 1→`fanout` group.
fn group_model(model: &CostModel, fanout: usize) -> CostModel {
    CostModel {
        fanout,
        ..model.clone()
    }
}

/// [`cost_based_optim`] for a 1→`fanout` publish group.
pub fn ksite_optimal(
    schema: &SchemaTree,
    model: &CostModel,
    program: &Program,
    fanout: usize,
) -> Result<(Program, f64)> {
    cost_based_optim(schema, &group_model(model, fanout), program)
}

/// [`greedy_placement`] for a 1→`fanout` publish group.
pub fn ksite_greedy(
    schema: &SchemaTree,
    model: &CostModel,
    program: &Program,
    fanout: usize,
) -> Result<(Program, f64)> {
    greedy_placement(schema, &group_model(model, fanout), program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{SchemaStats, SystemProfile};
    use crate::fragment::testutil::{customer_schema, t_fragmentation};
    use crate::fragment::Fragmentation;
    use crate::gen::Generator;
    use crate::greedy::greedy_program;
    use crate::program::{Location, Op};

    fn model(schema: &SchemaTree) -> CostModel {
        CostModel::fast_network(SchemaStats::multiplicative(schema, 4, 8))
    }

    fn program(schema: &SchemaTree, m: &CostModel) -> Program {
        let mf = Fragmentation::most_fragmented("MF", schema);
        let t = t_fragmentation(schema);
        let gen = Generator::new(schema, &mf, &t);
        greedy_program(&gen, m).unwrap()
    }

    #[test]
    fn high_fanout_pushes_work_to_the_source() {
        // A fast target attracts combines at fanout 1; replicating the
        // same work at 16 subscribers must not.
        let schema = customer_schema();
        let mut m = model(&schema);
        m.target = SystemProfile::with_speed(10.0);
        let prog = program(&schema, &m);
        let (one, _) = ksite_optimal(&schema, &m, &prog, 1).unwrap();
        let combines_at_target = |p: &Program| {
            p.nodes
                .iter()
                .filter(|n| matches!(n.op, Op::Combine { .. }) && n.location == Location::Target)
                .count()
        };
        assert!(combines_at_target(&one) > 0, "10x target attracts work");
        let (sixteen, _) = ksite_optimal(&schema, &m, &prog, 16).unwrap();
        assert_eq!(
            combines_at_target(&sixteen),
            0,
            "16-way replication repels combines from the subscribers"
        );
    }

    #[test]
    fn greedy_tracks_exhaustive_across_fanouts() {
        let schema = customer_schema();
        let m = model(&schema);
        let prog = program(&schema, &m);
        for fanout in [1, 2, 4, 8] {
            let (_, greedy_cost) = ksite_greedy(&schema, &m, &prog, fanout).unwrap();
            let (_, best) = ksite_optimal(&schema, &m, &prog, fanout).unwrap();
            assert!(
                greedy_cost >= best - 1e-6,
                "fanout {fanout}: greedy cannot beat exhaustive"
            );
            assert!(
                greedy_cost <= best * 1.2 + 1e-6,
                "fanout {fanout}: greedy {greedy_cost} vs optimal {best}"
            );
        }
    }

    #[test]
    fn multicast_bytes_amortizes() {
        assert_eq!(multicast_bytes(100.0, 1), 100.0);
        let eight = multicast_bytes(100.0, 8);
        assert!(eight > 100.0, "extra legs are not free");
        assert!(eight < 800.0, "extra legs are amortized below full freight");
    }
}
