//! The plan cache: a memo of the optimizer. Concurrent sessions
//! exchanging the same *shape* of data reuse one optimized program
//! instead of re-running the optimizer.
//!
//! The cache key is the optimizer's inputs and nothing else, in two
//! halves. The **shape** half hashes everything structural: both
//! fragmentations (roots and element sets, not names — renaming a
//! fragment does not change the plan), the optimizer, the cost-model
//! weights, wire format and fanout, and both system profiles. The
//! **stats** half hashes the probed document statistics. Entries are
//! stored per shape and remember the stats they were planned under.
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use xdx_core::{CostModel, Fragmentation, Optimizer, Program, SchemaStats, WireFormat};
use xdx_relational::{word_sum, Database, Feed, FeedSchema, RowsId};
use xdx_xml::SchemaTree;

/// The two-part cache key of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Hash of both fragmentation shapes, cost weights and profiles.
    pub shape: u64,
    /// Hash of the probed document statistics.
    pub stats: u64,
}

/// A cached optimizer answer.
#[derive(Debug)]
pub struct CachedPlan {
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
    /// compares against per-lane observations.
    pub fn priced(
        schema: &xdx_xml::SchemaTree,
        model: &CostModel,
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
        let mut map = self.map.lock().unwrap();
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
        let mut map = self.map.lock().unwrap();
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
        self.map.lock().unwrap().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        if let Some(stats) = memoised(&mut self.entries()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(stats);
        }
        let stats = SchemaStats::probe(schema, db, frag)?;
        let mut entries = self.entries();
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

    /// The entries, also after a panic elsewhere while they were locked:
    /// each edit (retain, push, pop) leaves them valid.
    fn entries(&self) -> MutexGuard<'_, VecDeque<ProbedTables>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probes answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Computes the stable two-part cache key of an exchange. The optimizer
/// is part of the shape: sessions planned greedily and sessions planned
/// with the exhaustive ordering search must not share one cached program.
/// So is the model's fanout: the subscriber count moves the placement
/// trade-off, so groups of different sizes must not share a program. A
/// fanout of one contributes no bytes — a publish group of one *is* a
/// two-site session, and the two share cache entries.
///
/// A delta round keys like a full ship of the same document: the
/// optimizer never sees a feed version, [`CachedPlan`] holds none, and
/// the patch is diffed against its base after planning. So a route's
/// delta rounds and full ships share its one entry.
pub fn plan_key(
    source: &Fragmentation,
    target: &Fragmentation,
    model: &CostModel,
    optimizer: Optimizer,
) -> PlanKey {
    let mut shape = Vec::with_capacity(256);
    let push = |bytes: &mut Vec<u8>, v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    if model.fanout > 1 {
        push(&mut shape, 0x4D);
        push(&mut shape, model.fanout as u64);
    }
    match optimizer {
        Optimizer::Greedy => push(&mut shape, 0x47),
        Optimizer::Optimal { ordering_cap } => {
            push(&mut shape, 0x4F);
            push(&mut shape, ordering_cap as u64);
        }
    }
    for (tag, frag) in [(0x5Cu64, source), (0x7Au64, target)] {
        push(&mut shape, tag);
        push(&mut shape, frag.fragments.len() as u64);
        for f in &frag.fragments {
            push(&mut shape, f.root.index() as u64);
            push(&mut shape, f.elements.len() as u64);
            for &e in &f.elements {
                push(&mut shape, e.index() as u64);
            }
        }
    }
    push(&mut shape, model.w_comp.to_bits());
    push(&mut shape, model.w_comm.to_bits());
    // The negotiated wire format changes communication estimates, so
    // formats must not share a cached program.
    push(
        &mut shape,
        match model.wire_format {
            WireFormat::Xml => 0x58,
            WireFormat::Columnar => 0x43,
        },
    );
    for profile in [&model.source, &model.target] {
        push(&mut shape, profile.speed.to_bits());
        push(&mut shape, profile.can_combine as u64);
        push(&mut shape, profile.can_split as u64);
    }
    let mut stats = Vec::with_capacity(2 + 16 * model.stats.counts.len());
    push(&mut stats, model.stats.counts.len() as u64);
    for &c in &model.stats.counts {
        push(&mut stats, c);
    }
    for &t in &model.stats.text_bytes {
        push(&mut stats, t);
    }
    PlanKey {
        shape: word_sum(&shape),
        stats: word_sum(&stats),
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
            let first = rows[0].clone();
            rows.push(first);
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
