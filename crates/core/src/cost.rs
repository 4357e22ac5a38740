//! The cost model (paper Section 4.1).
//!
//! `cost(G) = w_comp · Σ comp_cost(OP) + w_comm · Σ comm_cost(e)` —
//! formula (1). Computation costs are estimated from per-element
//! statistics ([`SchemaStats`], obtained by probing the source system),
//! scaled by each system's processing speed ([`SystemProfile`]); a system
//! that cannot run an operation (the "dumb client") reports an infinite
//! cost. Communication cost of a cross-edge is the estimated wire size of
//! the region it ships, exactly the paper's `comm_cost(e) = size(OP1.out)`.

use crate::ksite::multicast_bytes;
use crate::program::{Location, Op, Program, Region};
use xdx_codec::WireFormat;
use xdx_relational::feed::{ReadRows, Row};
use xdx_relational::{ColRole, Database};
use xdx_xml::{NodeId, SchemaTree};

use crate::error::{Error, Result};
use crate::fragment::Fragmentation;

/// Per-element statistics of the document(s) being exchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaStats {
    /// The schema the statistics describe (owned copy; estimates need the
    /// tree structure to follow repetition chains).
    pub schema: SchemaTree,
    /// Instance count per element (indexed by `NodeId::index`).
    pub counts: Vec<u64>,
    /// Total text bytes per element.
    pub text_bytes: Vec<u64>,
}

impl SchemaStats {
    /// Uniform synthetic statistics: every element has `count` instances
    /// and `avg_text` bytes of text per instance. Used by the simulator.
    pub fn uniform(schema: &SchemaTree, count: u64, avg_text: u64) -> SchemaStats {
        SchemaStats {
            schema: schema.clone(),
            counts: vec![count; schema.len()],
            text_bytes: vec![count * avg_text; schema.len()],
        }
    }

    /// Statistics where each element's count is the product of the
    /// repetition factors along its path: root = 1, each repeated element
    /// multiplies by `fanout`. Closer to real documents than `uniform`.
    pub fn multiplicative(schema: &SchemaTree, fanout: u64, avg_text: u64) -> SchemaStats {
        let mut counts = vec![0u64; schema.len()];
        for id in schema.ids() {
            let parent_count = schema
                .node(id)
                .parent
                .map(|p| counts[p.index()])
                .unwrap_or(1);
            let factor = if schema.node(id).occurs.is_repeated() {
                fanout
            } else {
                1
            };
            counts[id.index()] = parent_count.max(1) * factor;
        }
        let text_bytes = counts.iter().map(|c| c * avg_text).collect();
        SchemaStats {
            schema: schema.clone(),
            counts,
            text_bytes,
        }
    }

    /// Probes a live source database: element counts are distinct ids in
    /// the stored fragment tables; text bytes are summed value lengths.
    /// This is the middleware's Step-3 probe against real data.
    pub fn probe(
        schema: &SchemaTree,
        db: &Database,
        fragmentation: &Fragmentation,
    ) -> Result<SchemaStats> {
        let mut counts = vec![0u64; schema.len()];
        let mut text_bytes = vec![0u64; schema.len()];
        for frag in &fragmentation.fragments {
            let table = db
                .table(&frag.name)
                .map_err(|e| Error::Engine(e.to_string()))?;
            let feed = &table.data;
            for (ci, col) in feed.schema.columns.iter().enumerate() {
                let Some(elem) = schema.by_name(&col.element) else {
                    continue;
                };
                let probed = match col.role {
                    ColRole::NodeId => &mut counts,
                    ColRole::Value => &mut text_bytes,
                    ColRole::ParentRef => continue,
                };
                let n = feed.rows.slice(..).read(Probe(ci, col.role));
                probed[elem.index()] = probed[elem.index()].max(n);
            }
        }
        Ok(SchemaStats {
            schema: schema.clone(),
            counts,
            text_bytes,
        })
    }

    /// Instance count of one element.
    pub fn count(&self, e: NodeId) -> u64 {
        self.counts[e.index()]
    }

    /// Estimated rows of a region's feed, matching the executor's
    /// materialized-feed semantics: a single repeated chain multiplies
    /// (inlining), while independent repeated sibling branches *add*
    /// (outer-union alignment). Recursively, the rows contributed per
    /// instance of an element are `max(1, Σ over expanding branches)`.
    pub fn region_rows(&self, region: &Region) -> u64 {
        let rows = self.counts[region.root.index()].max(1) as f64
            * self.per_instance_rows(region, region.root);
        rows.round().max(1.0) as u64
    }

    fn per_instance_rows(&self, region: &Region, e: NodeId) -> f64 {
        let parent_count = self.counts[e.index()].max(1) as f64;
        let mut expanding = 0.0;
        for &c in &self.schema.node(e).children {
            if !region.elements.contains(&c) {
                continue;
            }
            let k = self.counts[c.index()] as f64 / parent_count;
            let branch = k * self.per_instance_rows(region, c);
            if branch > 1.0 {
                expanding += branch;
            }
        }
        expanding.max(1.0)
    }

    /// Estimated cells of a region's feed: rows × element count. The
    /// engine touches every cell of every row it scans, merges, projects
    /// or stores, so computation costs scale with cells, not rows.
    pub fn region_cells(&self, region: &Region) -> u64 {
        self.region_rows(region) * region.elements.len() as u64
    }

    /// Estimated wire size of a region's feed in the XML text format:
    /// rows × per-row width, where each element contributes its id (≈ 2
    /// bytes per tree level) plus its average text. Inlining repetition
    /// inflates this exactly like the paper's "repeated elements due to
    /// inlining".
    pub fn region_bytes(&self, schema: &SchemaTree, region: &Region) -> u64 {
        self.region_bytes_for(schema, region, WireFormat::Xml)
    }

    /// [`region_bytes`](SchemaStats::region_bytes), parameterized by wire
    /// format. Columnar ids are depth-independent (the delta varint of a
    /// sorted column plus its share of the tag bits) and columnar text
    /// pays an index byte plus a dictionary-discounted share of the
    /// value, so placement decisions made for a columnar link see the
    /// cheaper wire it actually ships over.
    pub fn region_bytes_for(
        &self,
        schema: &SchemaTree,
        region: &Region,
        format: WireFormat,
    ) -> u64 {
        let rows = self.region_rows(region);
        let width: u64 = region
            .elements
            .iter()
            .map(|&e| {
                let avg_text = if self.counts[e.index()] > 0 {
                    self.text_bytes[e.index()] / self.counts[e.index()]
                } else {
                    0
                };
                match format {
                    WireFormat::Xml => 2 * (schema.depth(e) as u64) + 2 + avg_text,
                    WireFormat::Columnar => COLUMNAR_ID_BYTES + 1 + avg_text / 2,
                }
            })
            .sum();
        rows * width
    }
}

/// Estimated id bytes per cell of a columnar frame: the prefix-length
/// and suffix-count varints plus a one-byte delta, amortizing the
/// two-bit tag — independent of tree depth, unlike dotted Dewey text.
/// It now overstates: a derived id costs one byte or none (DESIGN §12),
/// and ROADMAP item 20 reprices it.
const COLUMNAR_ID_BYTES: u64 = 3;

/// Capabilities and speed of one participating system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemProfile {
    /// Relative processing speed (2.0 = twice the baseline). The paper's
    /// Section 5.4.1 varies this from 1/5 to 5×.
    pub speed: f64,
    /// Whether the system can execute `Combine`. "In a publishing
    /// scenario, the target system might not have the capability to
    /// implement a Combine (a dumb client)."
    pub can_combine: bool,
    /// Whether the system can execute `Split`. "We expect the service
    /// endpoints to be able to split fragments in order to store them."
    pub can_split: bool,
}

impl Default for SystemProfile {
    fn default() -> Self {
        SystemProfile {
            speed: 1.0,
            can_combine: true,
            can_split: true,
        }
    }
}

impl SystemProfile {
    /// A full-capability system at the given relative speed.
    pub fn with_speed(speed: f64) -> SystemProfile {
        SystemProfile {
            speed,
            ..Default::default()
        }
    }

    /// A consumer that can split (to store) but not combine.
    pub fn dumb_client() -> SystemProfile {
        SystemProfile {
            speed: 1.0,
            can_combine: false,
            can_split: true,
        }
    }
}

/// The weighted cost model of formula (1).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Weight of computation cost (`w_comp`).
    pub w_comp: f64,
    /// Weight of communication cost per byte (`w_comm`).
    pub w_comm: f64,
    /// Source system profile.
    pub source: SystemProfile,
    /// Target system profile.
    pub target: SystemProfile,
    /// Document statistics driving the estimates.
    pub stats: SchemaStats,
    /// Wire format the link ships feeds in; communication estimates use
    /// the matching per-row byte model.
    pub wire_format: WireFormat,
    /// Targets the one source feeds: 1 (or less) for a two-site
    /// exchange, the lane count of a 1→N publish group. Derived from the
    /// request's subscriber list, never configured; the group estimates
    /// below bill target work and shipped bytes by it.
    pub fanout: usize,
}

/// Relative expense of a `Write` next to a `Scan` (loads cost more than
/// reads — Table 4 vs Table 1 in the paper).
const WRITE_FACTOR: f64 = 2.0;
/// Sort factor applied per input row of a merge combine: the price of an
/// input that arrives unsorted on its join key. `merge_combine` checks
/// first and sorts only on failure, and feeds in Dewey order pass the
/// check, so this term is an upper bound on what execution pays.
const SORT_FACTOR: f64 = 0.15;
/// Per-cell multiplier of a `Combine` relative to a `Scan`. Joins are "the
/// most expensive operations when building XML documents from relational
/// data" (paper §1.1 citing [5, 6]): a merge join compares and
/// materializes every cell it touches, where a scan only takes a handle.
const COMBINE_FACTOR: f64 = 4.0;
/// Target-side work units per patch step: locating a step's prefix range
/// and splicing its payload rows during a transactional patch apply.
/// Steps are cheap next to re-loading a table, but not free — a patch
/// with very many steps over tiny subtrees can lose to a full re-ship.
pub const PATCH_STEP_FACTOR: f64 = 8.0;

/// The delta-vs-full decision, priced in one place: a patch of
/// `patch_wire_bytes` (the encoded frame, so exact, unlike a planning
/// estimate) and `steps` apply steps, each [`PATCH_STEP_FACTOR`] units
/// on a target of `target_speed`, against a full re-ship of the plan's
/// `comm_bytes` predicted cross-edge bytes, both at `w_comm` per byte.
/// (Both paths pay the plan's computation: the source runs the program
/// either way, to ship it or to diff against it.) Returns the two bills,
/// patch then full, when the full ship wins; `None` ships the patch — as
/// does a plan that predicts no cross-edge bytes, which gives a full
/// ship no bill to win by.
pub fn full_ship_wins(
    w_comm: f64,
    target_speed: f64,
    patch_wire_bytes: usize,
    steps: u64,
    comm_bytes: u64,
) -> Option<(f64, f64)> {
    let patch = w_comm * patch_wire_bytes as f64 + PATCH_STEP_FACTOR * steps as f64 / target_speed;
    let full = w_comm * comm_bytes as f64;
    (comm_bytes > 0 && patch >= full).then_some((patch, full))
}

impl CostModel {
    /// A model with a fast interconnect (computation dominates), the
    /// setting of the paper's simulator experiments (Section 5.4.2).
    pub fn fast_network(stats: SchemaStats) -> CostModel {
        CostModel {
            w_comp: 1.0,
            w_comm: 0.05,
            source: SystemProfile::default(),
            target: SystemProfile::default(),
            stats,
            wire_format: WireFormat::Xml,
            fanout: 1,
        }
    }

    /// A model matching the paper's real wide-area experiments: shipping a
    /// byte costs considerably more than handling a row.
    pub fn internet(stats: SchemaStats) -> CostModel {
        CostModel {
            w_comm: 20.0,
            ..CostModel::fast_network(stats)
        }
    }

    /// `comp_cost(OP, location)`: estimated computation cost of executing
    /// `node` of `program` at `location`. Infinite when the location lacks
    /// the capability.
    pub fn comp_cost(&self, program: &Program, node: usize, location: Location) -> f64 {
        let profile = match location {
            Location::Source => &self.source,
            Location::Target => &self.target,
            Location::Unassigned => return f64::INFINITY,
        };
        let n = &program.nodes[node];
        let region_of =
            |p: &crate::program::PortRef| program.port_region(*p).expect("validated program");
        let cells_of = |p: &crate::program::PortRef| self.stats.region_cells(region_of(p)) as f64;
        let rows_of = |p: &crate::program::PortRef| self.stats.region_rows(region_of(p)) as f64;
        let raw = match &n.op {
            Op::Scan { .. } => self.stats.region_cells(&n.outputs[0]) as f64,
            Op::Combine { .. } => {
                if !profile.can_combine {
                    return f64::INFINITY;
                }
                let c1 = cells_of(&n.inputs[0]);
                let c2 = cells_of(&n.inputs[1]);
                let co = self.stats.region_cells(&n.outputs[0]) as f64;
                let r1 = rows_of(&n.inputs[0]);
                let r2 = rows_of(&n.inputs[1]);
                let sort = SORT_FACTOR * (r1 * log2(r1) + r2 * log2(r2));
                COMBINE_FACTOR * (c1 + c2 + co) + sort
            }
            Op::Split => {
                if !profile.can_split {
                    return f64::INFINITY;
                }
                let cin = cells_of(&n.inputs[0]);
                let cout: f64 = n
                    .outputs
                    .iter()
                    .map(|r| self.stats.region_cells(r) as f64)
                    .sum();
                cin + cout
            }
            Op::Write { .. } => WRITE_FACTOR * cells_of(&n.inputs[0]),
        };
        raw / profile.speed
    }

    /// `comm_cost(e)` for the edge feeding `consumer` from `port`: the
    /// wire size of the shipped region if it is a cross-edge, else 0.
    pub fn comm_cost(
        &self,
        schema: &SchemaTree,
        program: &Program,
        port: crate::program::PortRef,
        consumer: usize,
    ) -> f64 {
        let producer_loc = program.nodes[port.node].location;
        let consumer_loc = program.nodes[consumer].location;
        if producer_loc == Location::Source && consumer_loc == Location::Target {
            let region = program.port_region(port).expect("validated program");
            self.stats
                .region_bytes_for(schema, region, self.wire_format) as f64
        } else {
            0.0
        }
    }

    /// [`comp_cost`](CostModel::comp_cost) billed to the whole group: an
    /// operator placed at the target runs once per subscriber, one at
    /// the source runs once.
    pub fn group_comp_cost(&self, program: &Program, node: usize, location: Location) -> f64 {
        let raw = self.comp_cost(program, node, location);
        match location {
            Location::Target if self.fanout > 1 => raw * self.fanout as f64,
            _ => raw,
        }
    }

    /// [`comm_cost`](CostModel::comm_cost) billed to the whole group: a
    /// cross edge rides every lane, but its frames are encoded once and
    /// shared, so the extra legs pay the amortized [`multicast_bytes`].
    pub fn group_comm_cost(
        &self,
        schema: &SchemaTree,
        program: &Program,
        port: crate::program::PortRef,
        consumer: usize,
    ) -> f64 {
        multicast_bytes(self.comm_cost(schema, program, port, consumer), self.fanout)
    }

    /// Total cost of a fully placed program (formula 1), billed to the
    /// whole group.
    pub fn program_cost(&self, schema: &SchemaTree, program: &Program) -> f64 {
        let mut comp = 0.0;
        let mut comm = 0.0;
        for (i, n) in program.nodes.iter().enumerate() {
            comp += self.group_comp_cost(program, i, n.location);
            for p in &n.inputs {
                comm += self.group_comm_cost(schema, program, *p, i);
            }
        }
        self.w_comp * comp + self.w_comm * comm
    }
}

fn log2(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x.log2()
    }
}

/// [`SchemaStats::probe`]'s pass over column `.0` of a table: the
/// wire bytes of a value column; the ids of an id column, counted once
/// per run of one id (ids repeat when siblings are inlined, and sorted
/// feeds cluster the repeats), `Null` not at all.
struct Probe(usize, ColRole);

impl<'a> ReadRows<'a> for Probe {
    type Out = u64;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> u64 {
        let cells = (0..len).map(|r| row(r).cell(self.0));
        if self.1 == ColRole::Value {
            return cells.map(|v| v.wire_len() as u64).sum();
        }
        let mut last = None;
        cells
            .filter(|v| !v.is_null() && last.replace(*v) != Some(*v))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::testutil::customer_schema;
    use crate::program::PortRef;
    use std::collections::BTreeSet;

    fn region(schema: &SchemaTree, names: &[&str]) -> Region {
        let elements: BTreeSet<NodeId> = names.iter().map(|n| schema.by_name(n).unwrap()).collect();
        Region {
            root: schema.by_name(names[0]).unwrap(),
            elements,
        }
    }

    #[test]
    fn uniform_and_multiplicative_stats() {
        let schema = customer_schema();
        let u = SchemaStats::uniform(&schema, 10, 5);
        assert_eq!(u.count(schema.root()), 10);
        let m = SchemaStats::multiplicative(&schema, 3, 5);
        assert_eq!(m.count(schema.root()), 1);
        let order = schema.by_name("Order").unwrap();
        assert_eq!(m.count(order), 3);
        let line = schema.by_name("Line").unwrap();
        assert_eq!(m.count(line), 9); // order* × line*
        let feature = schema.by_name("Feature").unwrap();
        assert_eq!(m.count(feature), 27);
    }

    #[test]
    fn region_rows_take_max() {
        let schema = customer_schema();
        let m = SchemaStats::multiplicative(&schema, 3, 5);
        let r = region(&schema, &["Order", "Service", "ServiceName"]);
        assert_eq!(m.region_rows(&r), 3);
        let deep = region(
            &schema,
            &[
                "Line",
                "TelNo",
                "Switch",
                "SwitchID",
                "Feature",
                "FeatureID",
            ],
        );
        assert_eq!(m.region_rows(&deep), 27);
    }

    #[test]
    fn region_bytes_grow_with_inlining() {
        let schema = customer_schema();
        let m = SchemaStats::multiplicative(&schema, 3, 5);
        let narrow = region(&schema, &["Line", "TelNo"]);
        let wide = region(
            &schema,
            &[
                "Line",
                "TelNo",
                "Switch",
                "SwitchID",
                "Feature",
                "FeatureID",
            ],
        );
        // The wide region inlines Feature (27 instances) with Line (9):
        // its rows triple AND its width grows.
        assert!(m.region_bytes(&schema, &wide) > 3 * m.region_bytes(&schema, &narrow));
    }

    fn tiny_program(schema: &SchemaTree) -> Program {
        let mut p = Program::new();
        let a = p.add_scan(0, region(schema, &["Order"]));
        let b = p.add_scan(1, region(schema, &["Service", "ServiceName"]));
        let c = p
            .add_combine(
                schema,
                PortRef { node: a, port: 0 },
                PortRef { node: b, port: 0 },
            )
            .unwrap();
        p.add_write(0, PortRef { node: c, port: 0 }).unwrap();
        p
    }

    #[test]
    fn dumb_client_makes_target_combine_infinite() {
        let schema = customer_schema();
        let p = tiny_program(&schema);
        let mut model = CostModel::fast_network(SchemaStats::uniform(&schema, 100, 10));
        model.target = SystemProfile::dumb_client();
        assert!(model.comp_cost(&p, 2, Location::Target).is_infinite());
        assert!(model.comp_cost(&p, 2, Location::Source).is_finite());
    }

    #[test]
    fn faster_system_is_cheaper() {
        let schema = customer_schema();
        let p = tiny_program(&schema);
        let mut model = CostModel::fast_network(SchemaStats::uniform(&schema, 100, 10));
        model.target = SystemProfile::with_speed(10.0);
        let at_source = model.comp_cost(&p, 2, Location::Source);
        let at_target = model.comp_cost(&p, 2, Location::Target);
        assert!((at_source / at_target - 10.0).abs() < 1e-9);
    }

    #[test]
    fn program_cost_counts_cross_edges() {
        let schema = customer_schema();
        let mut p = tiny_program(&schema);
        // With equal speeds and uniform stats the placements tie exactly
        // (same rows, same shipped bytes either side of the combine); a
        // faster target must break the tie in favor of combining there.
        let mut model = CostModel::fast_network(SchemaStats::uniform(&schema, 100, 10));
        model.target = SystemProfile::with_speed(4.0);
        for n in &mut p.nodes {
            n.location = match n.op {
                Op::Write { .. } => Location::Target,
                _ => Location::Source,
            };
        }
        let all_source = model.program_cost(&schema, &p);
        // Move the combine to the target: two cross-edges instead of one,
        // shipping the two smaller inputs.
        p.nodes[2].location = Location::Target;
        let combine_at_target = model.program_cost(&schema, &p);
        assert!(combine_at_target < all_source);
        assert!(all_source.is_finite() && combine_at_target.is_finite());
    }

    #[test]
    fn patch_term_decides_delta_vs_full() {
        let stats = SchemaStats::uniform(&customer_schema(), 100, 10);
        let patch_wins = |model: &CostModel, bytes, steps, comm| {
            full_ship_wins(model.w_comm, model.target.speed, bytes, steps, comm).is_none()
        };
        // Wide-area link: bytes dominate, a small patch wins big.
        let internet = CostModel::internet(stats.clone());
        assert!(patch_wins(&internet, 5_000, 40, 100_000));
        // A patch nearly the size of the full ship loses (its steps cost
        // extra on top of comparable bytes), and hands back both bills.
        assert!(!patch_wins(&internet, 99_000, 5_000, 100_000));
        let bills = full_ship_wins(internet.w_comm, 1.0, 99_000, 5_000, 100_000);
        let patch = 20.0 * 99_000.0 + PATCH_STEP_FACTOR * 5_000.0;
        assert_eq!(bills, Some((patch, 20.0 * 100_000.0)));
        // On a fast network with a slow target, apply work matters: many
        // steps over a modest byte saving tip the decision to full ship.
        let mut lan = CostModel::fast_network(stats);
        lan.target = SystemProfile::with_speed(0.2);
        assert!(!patch_wins(&lan, 4_000, 10_000, 100_000));
        assert!(patch_wins(&lan, 4_000, 10, 100_000));
        // A plan predicting no cross-edge bytes leaves a full ship no
        // bill to win by: the patch ships, however large.
        assert!(patch_wins(&internet, 1_000_000, 5_000, 0));
        assert!(patch_wins(&lan, 0, 0, 0));
    }

    #[test]
    fn unassigned_costs_infinite() {
        let schema = customer_schema();
        let p = tiny_program(&schema);
        let model = CostModel::fast_network(SchemaStats::uniform(&schema, 10, 1));
        assert!(model.comp_cost(&p, 0, Location::Unassigned).is_infinite());
    }
}
