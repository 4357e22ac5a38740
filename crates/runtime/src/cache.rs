//! The plan cache: a memo of the optimizer. Concurrent sessions
//! exchanging the same *shape* of data reuse one optimized program
//! instead of re-running the optimizer.
//!
//! The cache key is the optimizer's inputs and nothing else, in two
//! halves. The **shape** half ([`PlanShape`]) hashes everything
//! structural: both fragmentations (roots and element sets, not names —
//! renaming a fragment does not change the plan), the optimizer, the
//! cost-model weights, wire format and fanout, and both system profiles.
//! It needs no probe. The **stats** half hashes the probed document
//! statistics. Entries are stored per shape and remember the stats they
//! were planned under.
//!
//! The one invalidation rule is a key mismatch: a lookup whose stats
//! hash moved (the source data changed enough to re-probe differently)
//! evicts the stale plan, and the re-plan replaces the shape's entry.
//! Equal keys mean equal inputs, and the optimizer is deterministic, so
//! nothing else — elapsed time, observed cost — can make a cached
//! program wrong.
//!
//! The stats half is itself memoised: a [`ProbeMemo`] answers a probe of
//! tables it has probed before, row set for row set, without reading a
//! row, so a warm route plans without touching its source's data.
//!
//! A delta round does not consult the cache at all. `RoutePlans`
//! remembers the plan each route's head was committed with, and a round
//! diffing against that head replays it when its shape is unchanged —
//! no probe, no optimizer (DESIGN §23). The round runs its program in
//! place at the source, so placement does not change what it lands; the
//! stale statistics only price the patch-vs-full bill. For a route that
//! asks for deltas it also keeps the source that head was computed from:
//! the next round diffs its own source against it and computes only the
//! instances that changed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xdx_core::{
    CostModel, Fragmentation, Optimizer, Program, SchemaStats, SystemProfile, WireFormat,
};
use xdx_relational::sum::{mix_word, SUM_BASIS};
use xdx_relational::{Database, Feed, FeedSchema, RowsId};
use xdx_sync::lock;
use xdx_xml::SchemaTree;

/// The two-part cache key of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`PlanShape::key`]: both fragmentation shapes, the optimizer,
    /// cost weights, wire format, fanout and profiles.
    pub shape: u64,
    /// Hash of the probed document statistics.
    pub stats: u64,
}

/// A cached optimizer answer.
#[derive(Debug)]
pub struct CachedPlan {
    /// The shape half of the key it was planned under: a route replays
    /// it only for a round of the same shape.
    pub shape: u64,
    /// The placed data-transfer program.
    pub program: Program,
    /// Its estimated cost under the keying model.
    pub cost: f64,
    /// Predicted computation cost of each program node under the keying
    /// model, in the model's work units (indexed like
    /// `program.nodes`). Calibration compares these against observed
    /// per-operator wall time. Empty when the plan predates telemetry.
    pub op_costs: Vec<f64>,
    /// Predicted cross-edge wire bytes for the whole program (the
    /// model's unweighted communication estimate).
    pub comm_bytes: u64,
}

impl CachedPlan {
    /// Wraps a freshly planned program with what `model` predicts for
    /// it — per-node computation cost and total cross-edge bytes — so
    /// execution can be compared against the prediction by calibration.
    /// Priced for *one* lane whatever the model's fanout: calibration
    /// compares against per-lane observations. `shape` is the shape half
    /// of the key it is planned under.
    pub fn priced(
        schema: &xdx_xml::SchemaTree,
        model: &CostModel,
        shape: u64,
        program: Program,
        cost: f64,
    ) -> CachedPlan {
        let op_costs = (0..program.nodes.len())
            .map(|i| model.comp_cost(&program, i, program.nodes[i].location))
            .collect();
        let mut comm_bytes = 0.0;
        for (i, node) in program.nodes.iter().enumerate() {
            for port in &node.inputs {
                comm_bytes += model.comm_cost(schema, &program, *port, i);
            }
        }
        CachedPlan {
            shape,
            program,
            cost,
            op_costs,
            comm_bytes: comm_bytes as u64,
        }
    }
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    stats: u64,
}

/// Thread-shared memo from plan shape to optimized program: one entry
/// per shape, replaced only when the stats half of the key moves, with
/// hit/miss/eviction counters.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: Mutex<HashMap<u64, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stats_evicted: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Looks the key up, counting a hit or a miss. A shape entry whose
    /// stats hash no longer matches the probe is evicted and counts as
    /// a miss. On a miss the caller
    /// plans outside any lock and [`insert`](PlanCache::insert)s; two
    /// sessions racing the same key may both plan — the duplicate work
    /// is bounded by the worker count and both arrive at the same
    /// program.
    pub fn lookup(&self, key: PlanKey) -> Option<Arc<CachedPlan>> {
        let mut map = lock(&self.map);
        if let Some(entry) = map.get(&key.shape) {
            if entry.stats != key.stats {
                map.remove(&key.shape);
                self.stats_evicted.fetch_add(1, Ordering::Relaxed);
            } else {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(&entry.plan));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a freshly planned program and returns the shared copy
    /// (the already-present one if a racing session with the same stats
    /// inserted first; a resident planned under other stats is replaced).
    pub fn insert(&self, key: PlanKey, plan: CachedPlan) -> Arc<CachedPlan> {
        let mut map = lock(&self.map);
        match map.get(&key.shape) {
            Some(entry) if entry.stats == key.stats => Arc::clone(&entry.plan),
            _ => {
                let plan = Arc::new(plan);
                map.insert(
                    key.shape,
                    Entry {
                        plan: Arc::clone(&plan),
                        stats: key.stats,
                    },
                );
                plan
            }
        }
    }

    /// Lookups satisfied from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted because the probed statistics moved.
    pub fn stats_evicted(&self) -> u64 {
        self.stats_evicted.load(Ordering::Relaxed)
    }

    /// Distinct plans cached.
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The plan each route's head was committed with, for the route's next
/// delta round to replay instead of probing and planning, and — for a
/// head a round that declared a base version committed — the source that
/// head was computed from, for the next round to diff its own against
/// (DESIGN §23). One entry per route (the route's feed-log key): the head
/// version it committed, the plan and that source. A commit whose bill
/// chose a full ship over the patch forgets its route's entry, so the
/// next round prices the full side from a fresh probe and computes its
/// head whole.
#[derive(Debug, Default)]
pub(crate) struct RoutePlans {
    map: Mutex<HashMap<String, RouteHead>>,
}

/// What [`RoutePlans`] remembers of one route's head.
#[derive(Debug)]
pub(crate) struct RouteHead {
    version: u64,
    plan: Arc<CachedPlan>,
    source: Option<Arc<Database>>,
}

impl RoutePlans {
    /// Records that `route`'s head `version` was committed with `plan`,
    /// or with no plan a round may replay, and computed from `source`
    /// when one is kept. Returns the entry it replaced, for the caller to
    /// free outside the lock: its source is a whole document.
    pub(crate) fn commit(
        &self,
        route: &str,
        version: u64,
        plan: Option<Arc<CachedPlan>>,
        source: Option<Arc<Database>>,
    ) -> Option<RouteHead> {
        let mut map = lock(&self.map);
        match plan {
            Some(plan) => {
                let head = RouteHead {
                    version,
                    plan,
                    source,
                };
                match map.get_mut(route) {
                    Some(entry) => Some(std::mem::replace(entry, head)),
                    None => map.insert(route.to_owned(), head),
                }
            }
            None => map.remove(route),
        }
    }

    /// The plan `route`'s `head` was committed with, if it was planned
    /// for `shape`: a route's memory is never another route's, so the
    /// plan was priced for a document of this route.
    pub(crate) fn replay(&self, route: &str, head: u64, shape: u64) -> Option<Arc<CachedPlan>> {
        match lock(&self.map).get(route) {
            Some(entry) if entry.version == head && entry.plan.shape == shape => {
                Some(Arc::clone(&entry.plan))
            }
            _ => None,
        }
    }

    /// The source `route`'s `head` was computed from, if it was kept.
    pub(crate) fn source(&self, route: &str, head: u64) -> Option<Arc<Database>> {
        let map = lock(&self.map);
        let entry = map.get(route).filter(|entry| entry.version == head)?;
        entry.source.clone()
    }
}

/// Statistics probes ([`SchemaStats::probe`]) memoised on the identity
/// of the tables they read. The key is the schema, the fragment → table
/// list, and each table's feed schema and row set, the row set held as
/// a `Weak` handle: it pins the set's address, so no other set can take
/// it for a false hit, but not its rows. An edit moves a row set to a
/// new address — `Arc::make_mut` copies a shared set and moves a sole one
/// that weak handles watch ([`xdx_relational::Rows::downgrade`]) — so an
/// edited table never hits, while a clone of an unedited database shares
/// its row sets and always does. A few recent probes are kept; one whose
/// rows have all gone is dropped.
#[derive(Debug, Default)]
pub struct ProbeMemo {
    entries: Mutex<VecDeque<ProbedTables>>,
    hits: AtomicU64,
}

/// One memoised probe: per fragment, in fragmentation order, the table
/// read and what it held then; and the statistics it gave.
#[derive(Debug)]
struct ProbedTables {
    tables: Vec<(String, FeedSchema, RowsId)>,
    stats: SchemaStats,
}

impl ProbedTables {
    fn is_probe_of(&self, schema: &SchemaTree, tables: &[(&str, &Feed)]) -> bool {
        self.tables.len() == tables.len()
            && self
                .tables
                .iter()
                .zip(tables)
                .all(|((name, columns, rows), (table, feed))| {
                    name == table && feed.rows.is(rows) && *columns == feed.schema
                })
            && self.stats.schema == *schema
    }
}

/// Memoised probes kept: the distinct sources a runtime's warm routes
/// read at once.
const PROBE_MEMO_CAP: usize = 8;

impl ProbeMemo {
    /// An empty memo.
    pub fn new() -> ProbeMemo {
        ProbeMemo::default()
    }

    /// [`SchemaStats::probe`] of `db`'s tables for `frag`, answered from
    /// the memo when every table is the one an earlier probe read.
    pub fn probe(
        &self,
        schema: &SchemaTree,
        db: &Database,
        frag: &Fragmentation,
    ) -> xdx_core::Result<SchemaStats> {
        let tables: Option<Vec<(&str, &Feed)>> = frag
            .fragments
            .iter()
            .map(|f| db.table(&f.name).ok().map(|t| (f.name.as_str(), &t.data)))
            .collect();
        let Some(tables) = tables else {
            return SchemaStats::probe(schema, db, frag); // reports the missing table
        };
        let memoised = |entries: &mut VecDeque<ProbedTables>| {
            entries.retain(|e| e.tables.iter().all(|(_, _, rows)| rows.is_held()));
            entries
                .iter()
                .find(|e| e.is_probe_of(schema, &tables))
                .map(|e| e.stats.clone())
        };
        if let Some(stats) = memoised(&mut lock(&self.entries)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(stats);
        }
        let stats = SchemaStats::probe(schema, db, frag)?;
        let mut entries = lock(&self.entries);
        // A session racing this one on the same source may have filed it.
        if memoised(&mut entries).is_none() {
            if entries.len() == PROBE_MEMO_CAP {
                entries.pop_front();
            }
            entries.push_back(ProbedTables {
                tables: tables
                    .iter()
                    .map(|(name, feed)| {
                        (name.to_string(), feed.schema.clone(), feed.rows.downgrade())
                    })
                    .collect(),
                stats: stats.clone(),
            });
        }
        Ok(stats)
    }

    /// Probes answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Every optimizer input but the document statistics: what the shape
/// half of a [`PlanKey`] hashes, known before any probe. The optimizer
/// is part of the shape: sessions planned greedily and sessions planned
/// with the exhaustive ordering search must not share one cached
/// program. So is the fanout: the subscriber count moves the placement
/// trade-off, so groups of different sizes must not share a program. A
/// fanout of one contributes no bytes — a publish group of one *is* a
/// two-site session, and the two share cache entries.
#[derive(Debug, Clone, Copy)]
pub struct PlanShape<'a> {
    /// Source fragmentation.
    pub source: &'a Fragmentation,
    /// Target fragmentation.
    pub target: &'a Fragmentation,
    /// The optimizer that places the program.
    pub optimizer: Optimizer,
    /// Computation weight ([`CostModel::w_comp`]).
    pub w_comp: f64,
    /// Communication weight ([`CostModel::w_comm`]).
    pub w_comm: f64,
    /// Source and target system profiles.
    pub profiles: [SystemProfile; 2],
    /// The negotiated wire format: it changes communication estimates,
    /// so formats must not share a cached program.
    pub wire_format: WireFormat,
    /// Targets the one source feeds ([`CostModel::fanout`]).
    pub fanout: usize,
}

impl PlanShape<'_> {
    /// The shape `model` is planned under, between `source` and `target`
    /// by `optimizer`.
    pub fn of<'a>(
        source: &'a Fragmentation,
        target: &'a Fragmentation,
        model: &CostModel,
        optimizer: Optimizer,
    ) -> PlanShape<'a> {
        PlanShape {
            source,
            target,
            optimizer,
            w_comp: model.w_comp,
            w_comm: model.w_comm,
            profiles: [model.source, model.target],
            wire_format: model.wire_format,
            fanout: model.fanout,
        }
    }

    /// The cost model of this shape under probed `stats`.
    pub fn model(&self, stats: SchemaStats) -> CostModel {
        let [source, target] = self.profiles;
        CostModel {
            w_comp: self.w_comp,
            w_comm: self.w_comm,
            source,
            target,
            stats,
            wire_format: self.wire_format,
            fanout: self.fanout,
        }
    }

    /// The shape half of a [`PlanKey`]: the word sum of its inputs as
    /// words, folded in place. It allocates nothing: a delta round
    /// computes it right after the previous round's source was freed,
    /// and a growing byte buffer here was the allocator's first large
    /// request after those frees, about 190 µs of a 500 KB round.
    pub fn key(&self) -> u64 {
        let mut h = SUM_BASIS;
        let mut push = |v: u64| h = mix_word(h, v);
        if self.fanout > 1 {
            push(0x4D);
            push(self.fanout as u64);
        }
        match self.optimizer {
            Optimizer::Greedy => push(0x47),
            Optimizer::Optimal { ordering_cap } => {
                push(0x4F);
                push(ordering_cap as u64);
            }
        }
        for (tag, frag) in [(0x5C, self.source), (0x7A, self.target)] {
            push(tag);
            push(frag.fragments.len() as u64);
            for f in &frag.fragments {
                push(f.root.index() as u64);
                push(f.elements.len() as u64);
                for &e in &f.elements {
                    push(e.index() as u64);
                }
            }
        }
        push(self.w_comp.to_bits());
        push(self.w_comm.to_bits());
        push(match self.wire_format {
            WireFormat::Xml => 0x58,
            WireFormat::Columnar => 0x43,
        });
        for profile in &self.profiles {
            push(profile.speed.to_bits());
            push(profile.can_combine as u64);
            push(profile.can_split as u64);
        }
        h
    }
}

/// The stats half of a [`PlanKey`]: the word sum of the probed
/// statistics as words.
pub fn stats_key(stats: &SchemaStats) -> u64 {
    let words = stats.counts.iter().chain(&stats.text_bytes);
    let count = stats.counts.len() as u64;
    words.fold(mix_word(SUM_BASIS, count), |h, &w| mix_word(h, w))
}

/// The stable two-part cache key of planning `model` between `source`
/// and `target` with `optimizer`: its [`PlanShape`] and its statistics.
pub fn plan_key(
    source: &Fragmentation,
    target: &Fragmentation,
    model: &CostModel,
    optimizer: Optimizer,
) -> PlanKey {
    PlanKey {
        shape: PlanShape::of(source, target, model, optimizer).key(),
        stats: stats_key(&model.stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_core::SchemaStats;
    use xdx_xml::SchemaTree;

    fn schema() -> SchemaTree {
        SchemaTree::balanced(3, 2, true)
    }

    fn model(schema: &SchemaTree, w_comm: f64) -> CostModel {
        let mut m = CostModel::fast_network(SchemaStats::multiplicative(schema, 3, 10));
        m.w_comm = w_comm;
        m
    }

    fn plan_for(s: &SchemaTree, m: &CostModel) -> CachedPlan {
        use xdx_core::gen::Generator;
        let mf = Fragmentation::most_fragmented("MF", s);
        let lf = Fragmentation::least_fragmented("LF", s);
        let gen = Generator::new(s, &mf, &lf);
        let (program, cost) = xdx_core::greedy::greedy(&gen, m).unwrap();
        CachedPlan {
            shape: 0,
            program,
            cost,
            op_costs: Vec::new(),
            comm_bytes: 0,
        }
    }

    #[test]
    fn same_shape_same_key_regardless_of_names() {
        let s = schema();
        let mf_a = Fragmentation::most_fragmented("MF", &s);
        let mf_b = Fragmentation::most_fragmented("renamed", &s);
        let lf = Fragmentation::least_fragmented("LF", &s);
        let m = model(&s, 0.05);
        assert_eq!(
            plan_key(&mf_a, &lf, &m, Optimizer::Greedy),
            plan_key(&mf_b, &lf, &m, Optimizer::Greedy)
        );
    }

    #[test]
    fn direction_weights_and_stats_all_discriminate() {
        let s = schema();
        let mf = Fragmentation::most_fragmented("MF", &s);
        let lf = Fragmentation::whole_document("WD", &s);
        let m = model(&s, 0.05);
        let base = plan_key(&mf, &lf, &m, Optimizer::Greedy);
        // Reversed direction is a different plan shape.
        assert_ne!(base.shape, plan_key(&lf, &mf, &m, Optimizer::Greedy).shape);
        // A different communication weight is a different plan shape.
        assert_ne!(
            base.shape,
            plan_key(&mf, &lf, &model(&s, 5.0), Optimizer::Greedy).shape
        );
        // Different statistics keep the shape but move the stats hash.
        let mut fatter = m.clone();
        fatter.stats.counts[2] += 100;
        let drifted = plan_key(&mf, &lf, &fatter, Optimizer::Greedy);
        assert_eq!(base.shape, drifted.shape);
        assert_ne!(base.stats, drifted.stats);
        // A dumb-client target is a different plan shape.
        let mut dumb = m.clone();
        dumb.target.can_combine = false;
        assert_ne!(
            base.shape,
            plan_key(&mf, &lf, &dumb, Optimizer::Greedy).shape
        );
        // A columnar link is a different plan shape: its cheaper wire
        // moves the placement trade-off.
        let mut columnar = m.clone();
        columnar.wire_format = WireFormat::Columnar;
        assert_ne!(
            base.shape,
            plan_key(&mf, &lf, &columnar, Optimizer::Greedy).shape
        );
        // A different optimizer is a different plan shape too: greedy
        // and exhaustive sessions must not share a cached program.
        assert_ne!(
            base.shape,
            plan_key(&mf, &lf, &m, Optimizer::Optimal { ordering_cap: 6 }).shape
        );
        assert_ne!(
            plan_key(&mf, &lf, &m, Optimizer::Optimal { ordering_cap: 6 }).shape,
            plan_key(&mf, &lf, &m, Optimizer::Optimal { ordering_cap: 8 }).shape
        );
        // The rest of the cost model moves the key as well: equal keys
        // mean equal planner inputs.
        let edited = |edit: fn(&mut CostModel)| {
            let mut e = m.clone();
            edit(&mut e);
            plan_key(&mf, &lf, &e, Optimizer::Greedy)
        };
        assert_ne!(base.shape, edited(|e| e.w_comp = 2.0).shape, "w_comp");
        assert_ne!(
            base.shape,
            edited(|e| e.source.speed = 5.0).shape,
            "source speed"
        );
        assert_ne!(
            base.shape,
            edited(|e| e.target.speed = 0.2).shape,
            "target speed"
        );
        assert_ne!(
            base.shape,
            edited(|e| e.target.can_split = false).shape,
            "can_split"
        );
        assert_ne!(
            base.stats,
            edited(|e| e.stats.text_bytes[2] += 100).stats,
            "text bytes"
        );
    }

    #[test]
    fn fanout_discriminates_but_one_is_degenerate() {
        let s = schema();
        let mf = Fragmentation::most_fragmented("MF", &s);
        let lf = Fragmentation::least_fragmented("LF", &s);
        let m = model(&s, 0.05);
        let of = |fanout| {
            let group = CostModel {
                fanout,
                ..m.clone()
            };
            plan_key(&mf, &lf, &group, Optimizer::Greedy)
        };
        assert_eq!(of(0), of(1), "no subscriber count below one");
        assert_ne!(of(1).shape, of(8).shape, "fanout is shape");
        assert_ne!(
            of(8).shape,
            of(4).shape,
            "different group sizes do not share a plan"
        );
        assert_eq!(of(1).stats, of(8).stats, "stats untouched");
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let s = schema();
        let mf = Fragmentation::most_fragmented("MF", &s);
        let lf = Fragmentation::least_fragmented("LF", &s);
        let m = model(&s, 0.05);
        let key = plan_key(&mf, &lf, &m, Optimizer::Greedy);

        let cache = PlanCache::new();
        assert!(cache.lookup(key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let shared = cache.insert(key, plan_for(&s, &m));
        assert_eq!(cache.len(), 1);

        let again = cache.lookup(key).expect("second lookup hits");
        assert!(Arc::ptr_eq(&shared, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn a_shape_models_the_model_it_was_read_from() {
        let s = schema();
        let mf = Fragmentation::most_fragmented("MF", &s);
        let lf = Fragmentation::least_fragmented("LF", &s);
        let mut m = model(&s, 0.05);
        m.fanout = 3;
        m.target.can_split = false;
        let shape = PlanShape::of(&mf, &lf, &m, Optimizer::Greedy);
        assert_eq!(shape.model(m.stats.clone()), m);
    }

    #[test]
    fn a_route_replays_only_its_heads_plan_of_the_same_shape() {
        let s = schema();
        let m = model(&s, 0.05);
        let plan = |shape| {
            Arc::new(CachedPlan {
                shape,
                ..plan_for(&s, &m)
            })
        };
        let routes = RoutePlans::default();
        routes.commit("a", 3, Some(plan(7)), None);
        let replayed = routes.replay("a", 3, 7).expect("the head's plan");
        assert_eq!(replayed.shape, 7);
        assert!(routes.replay("a", 3, 8).is_none(), "another shape");
        assert!(routes.replay("a", 4, 7).is_none(), "another head");
        assert!(routes.replay("b", 3, 7).is_none(), "another route");
        routes.commit("a", 4, Some(plan(7)), None);
        assert!(routes.replay("a", 3, 7).is_none(), "the head moved on");
        assert!(routes.replay("a", 4, 7).is_some());
        routes.commit("a", 5, None, None);
        assert!(routes.replay("a", 5, 7).is_none(), "forgotten");
        assert!(routes.replay("a", 4, 7).is_none());
    }

    #[test]
    fn a_route_keeps_the_source_of_its_head_and_hands_back_the_last() {
        let s = schema();
        let m = model(&s, 0.05);
        let plan = || Arc::new(plan_for(&s, &m));
        let source = |name: &str| Some(Arc::new(Database::new(name)));
        let routes = RoutePlans::default();
        assert!(routes.commit("a", 1, Some(plan()), None).is_none());
        assert!(routes.source("a", 1).is_none(), "a round without a base");
        let replaced = routes.commit("a", 2, Some(plan()), source("v2"));
        assert_eq!(replaced.map(|head| head.version), Some(1));
        assert_eq!(routes.source("a", 2).unwrap().name, "v2");
        assert!(routes.source("a", 1).is_none(), "another head");
        assert!(routes.source("b", 2).is_none(), "another route");
        let replaced = routes.commit("a", 3, Some(plan()), source("v3")).unwrap();
        assert_eq!(replaced.source.unwrap().name, "v2", "freed by the caller");
        let forgotten = routes.commit("a", 4, None, source("v4")).unwrap();
        assert_eq!(forgotten.source.unwrap().name, "v3");
        assert!(routes.source("a", 4).is_none(), "a full ship keeps nothing");
    }

    /// A small XMark source under MF, and its fragmentation.
    fn xmark_source() -> (SchemaTree, Fragmentation, xdx_relational::Database) {
        let schema = xdx_xmark::schema();
        let mf = xdx_xmark::mf(&schema);
        let doc = xdx_xmark::generate(xdx_xmark::GenConfig::sized(20_000));
        let db = xdx_xmark::load_source(&doc, &schema, &mf).unwrap();
        (schema, mf, db)
    }

    #[test]
    fn a_clone_of_an_unedited_source_hits_the_probe_memo() {
        let (schema, mf, db) = xmark_source();
        let memo = ProbeMemo::new();
        let probed = memo.probe(&schema, &db, &mf).unwrap();
        assert_eq!(probed, SchemaStats::probe(&schema, &db, &mf).unwrap());
        assert_eq!(memo.hits(), 0);
        let clone = db.clone();
        assert_eq!(memo.probe(&schema, &clone, &mf).unwrap(), probed);
        assert_eq!(memo.probe(&schema, &db, &mf).unwrap(), probed);
        assert_eq!(memo.hits(), 2);
        // The same tables read for another schema are another probe.
        let other = SchemaTree::balanced(3, 2, true);
        let under_other = SchemaStats::probe(&other, &db, &mf).unwrap();
        assert_eq!(memo.probe(&other, &db, &mf).unwrap(), under_other);
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn a_table_edited_after_its_probe_misses_the_probe_memo() {
        let (schema, mf, mut db) = xmark_source();
        let memo = ProbeMemo::new();
        let before = memo.probe(&schema, &db, &mf).unwrap();
        let name = &mf.fragments[mf.fragments.len() - 1].name;
        // A clone's table edited while the original still shares its
        // rows: the edit copies them, and only the identity tells.
        let grow = |db: &mut Database| {
            let rows = &mut db.table_mut(name).unwrap().0.data.rows;
            let first = rows.slice(..1).to_rows();
            rows.absorb(first);
        };
        let mut edited = db.clone();
        grow(&mut edited);
        let after = memo.probe(&schema, &edited, &mf).unwrap();
        assert_eq!(memo.hits(), 0, "an edited clone is probed again");
        assert_eq!(after, SchemaStats::probe(&schema, &edited, &mf).unwrap());
        assert_ne!(after, before);
        assert_eq!(memo.probe(&schema, &db, &mf).unwrap(), before);
        assert_eq!(memo.hits(), 1, "the original still hits");
        // The same edit through the table's sole handle: the memo holds
        // no row, so it goes in place but for the one move `make_mut`
        // makes.
        drop(edited);
        grow(&mut db);
        assert_eq!(memo.probe(&schema, &db, &mf).unwrap(), after);
        assert_eq!(memo.hits(), 1, "an edited table is probed again");
        // The edited source is memoised in turn.
        assert_eq!(memo.probe(&schema, &db, &mf).unwrap(), after);
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn drifted_stats_evict_the_stale_plan() {
        let s = schema();
        let mf = Fragmentation::most_fragmented("MF", &s);
        let lf = Fragmentation::least_fragmented("LF", &s);
        let m = model(&s, 0.05);
        let key = plan_key(&mf, &lf, &m, Optimizer::Greedy);
        let cache = PlanCache::new();
        cache.lookup(key);
        cache.insert(key, plan_for(&s, &m));

        // The source grew: a re-probe hashes differently.
        let mut grown = m.clone();
        grown.stats.counts[1] *= 7;
        let drifted = plan_key(&mf, &lf, &grown, Optimizer::Greedy);
        assert!(cache.lookup(drifted).is_none(), "stale plan not served");
        assert_eq!(cache.stats_evicted(), 1);
        assert!(cache.is_empty(), "the drifted entry is gone");
        // Re-planning under the new stats repopulates the shape slot.
        cache.insert(drifted, plan_for(&s, &grown));
        assert!(cache.lookup(drifted).is_some());
        assert_eq!(cache.len(), 1);
    }
}
