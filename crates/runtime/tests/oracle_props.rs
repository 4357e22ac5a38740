//! The landing oracle over random inputs. `Runtime` sessions on XMark,
//! balanced, random and wide schemas, each between a random pair of
//! fragmentations (the paper's Section 5.4 runs its simulator on such
//! pairs), in both wire formats and at three batch sizes, must land what
//! publish&map lands: shipped whole, published 1→k, patched along a
//! `with_base_version` chain, or resumed after a seeded link failure.
//! Shipped whole or published, a session may also run over paced links,
//! where every batch parks on its wire time and the exchange resumes at
//! the deadline.

mod common;

use common::oracle::lands_like_pm;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use xdx_core::Fragmentation;
use xdx_net::FaultProfile;
use xdx_relational::Database;
use xdx_runtime::{
    ExchangeRequest, PublishRequest, Runtime, RuntimeConfig, SessionResult, SessionState,
    ShippingPolicy, WireFormat, DEFAULT_SOURCE_ENDPOINT, DEFAULT_TARGET_ENDPOINT,
};
use xdx_sim::{random_document, random_fragmentation, random_schema};
use xdx_xmark::{generate, load_source, GenConfig};
use xdx_xml::{NodeId, SchemaTree, Writer};

#[derive(Debug, Clone, Copy)]
enum Family {
    Xmark,
    Balanced,
    Random,
    /// `SchemaTree::balanced(4, 4, true)`: 341 elements, every one but
    /// the root repeated, so a fragment holds whole outer-union regions.
    /// Its Combines see parent groups of several rows and emit skeleton
    /// rows, which XMark's fragmentations never produce.
    Wide,
}

const FAMILIES: [Family; 3] = [Family::Xmark, Family::Balanced, Family::Random];

/// Cases per property on [`Family::Wide`].
const WIDE_CASES: u32 = 8;

/// One drawn input: a schema, a document of it, a fragmentation pair and
/// the runtime configuration that ships between them.
struct Case {
    family: Family,
    schema: SchemaTree,
    doc: String,
    from: Fragmentation,
    to: Fragmentation,
    config: RuntimeConfig,
}

fn case(family: Family, seed: u64, format: WireFormat, batch_rows: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = match family {
        Family::Xmark => xdx_xmark::schema(),
        Family::Balanced => SchemaTree::balanced(rng.gen_range(1..4), rng.gen_range(2..4), true),
        Family::Random => random_schema(seed, rng.gen_range(4..16)),
        Family::Wide => SchemaTree::balanced(4, 4, true),
    };
    let doc = match family {
        Family::Xmark => generate(GenConfig {
            target_bytes: 3_000,
            seed,
        }),
        Family::Balanced | Family::Random => random_document(&schema, seed),
        Family::Wide => wide_document(&schema, seed),
    };
    let most = schema.len().min(7);
    let from = random_fragmentation(&schema, rng.gen_range(1..=most), "src", &mut rng);
    let to = random_fragmentation(&schema, rng.gen_range(1..=most), "tgt", &mut rng);
    let config = RuntimeConfig::default()
        .with_workers(2)
        .with_wire_format(format)
        .with_batch_rows(batch_rows);
    Case {
        family,
        schema,
        doc,
        from,
        to,
        config,
    }
}

impl Case {
    fn start(&self, config: RuntimeConfig) -> Runtime {
        Runtime::start(self.schema.clone(), config)
    }

    /// The case's configuration, with links paced in real time when
    /// `paced`.
    fn config(&self, paced: bool) -> RuntimeConfig {
        if paced {
            self.config.with_link_pacing(1.0)
        } else {
            self.config
        }
    }

    fn request(&self, doc: &str) -> ExchangeRequest {
        let source = load_source(doc, &self.schema, &self.from).unwrap();
        ExchangeRequest::new("oracle", source, self.from.clone(), self.to.clone())
    }

    fn assert_lands(&self, result: SessionResult, doc: &str) {
        lands_like_pm(&self.schema, &self.to, &done(result), doc);
    }
}

/// A random document of a wide schema, each repeated element present 0
/// to 2 times (`random_document` draws 0 to 3): a median of about 280
/// elements and 4 KB, where `random_document` writes about 1 500 and
/// 35 KB, which took this file from 1.2 to 28 s in a debug build.
fn wide_document(schema: &SchemaTree, seed: u64) -> String {
    fn emit(schema: &SchemaTree, rng: &mut StdRng, w: &mut Writer, e: NodeId) {
        let node = schema.node(e);
        w.start(&node.name);
        if node.has_text && node.children.is_empty() {
            w.text(&format!("v{}", rng.gen_range(0..1000)));
        }
        for &c in &node.children {
            for _ in 0..rng.gen_range(0..3) {
                emit(schema, rng, w, c);
            }
        }
        w.end();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Writer::new();
    emit(schema, &mut rng, &mut w, schema.root());
    w.finish()
}

fn done(result: SessionResult) -> Database {
    assert_eq!(result.state, SessionState::Done, "{:?}", result.diagnostic);
    result.target.expect("a done session carries its target")
}

/// Rewrites about `pct` % of `doc`'s text runs, deterministic in `seed`:
/// the next version of a document of any schema.
fn churn(doc: &str, pct: u32, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(doc.len() + 64);
    let mut rest = doc;
    while let Some(tag_end) = rest.find('>') {
        out.push_str(&rest[..=tag_end]);
        rest = &rest[tag_end + 1..];
        let text = rest.find('<').unwrap_or(rest.len());
        if text > 0 && rng.gen_range(0..100u32) < pct {
            out.push_str(&format!("c{}", rng.gen_range(0..1_000_000u32)));
        } else {
            out.push_str(&rest[..text]);
        }
        rest = &rest[text..];
    }
    out + rest
}

fn formats() -> impl Strategy<Value = WireFormat> {
    prop::sample::select(vec![WireFormat::Xml, WireFormat::Columnar])
}

fn batch_rows() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![3, 64, usize::MAX])
}

fn families() -> impl Strategy<Value = Family> {
    prop::sample::select(FAMILIES.to_vec())
}

/// A full ship lands what publish&map lands, paced or not.
fn full_ship_lands(c: Case, paced: bool) {
    let runtime = c.start(c.config(paced));
    c.assert_lands(runtime.submit(c.request(&c.doc)).unwrap().wait(), &c.doc);
    runtime.shutdown();
}

/// Every lane of a 1→k publish lands what publish&map lands, paced or
/// not.
fn every_lane_lands(c: Case, fanout: usize, paced: bool) -> Result<(), TestCaseError> {
    let runtime = c.start(c.config(paced));
    let source = load_source(&c.doc, &c.schema, &c.from).unwrap();
    let subscribers = (0..fanout).map(|i| format!("sub-{i}")).collect();
    let request = PublishRequest::new("oracle", source, c.from.clone(), c.to.clone(), subscribers);
    let results = runtime.publish(request).unwrap().wait();
    prop_assert_eq!(results.len(), fanout);
    for result in results {
        c.assert_lands(result, &c.doc);
    }
    runtime.shutdown();
    Ok(())
}

/// Each round of a `with_base_version` chain, at 0, 5, 20 and 50 %
/// churn after a full ship, lands what publish&map lands for that
/// round's document. The unchanged round ships once, a patch or whole
/// as `full_ship_wins` prices them; on XMark and wide documents a
/// patch of no steps is always the cheaper ship.
fn every_round_lands(c: Case, seed: u64) -> Result<(), TestCaseError> {
    let runtime = c.start(c.config);
    c.assert_lands(runtime.submit(c.request(&c.doc)).unwrap().wait(), &c.doc);
    for (round, pct) in [0, 5, 20, 50].into_iter().enumerate() {
        let doc = churn(&c.doc, pct, seed + round as u64);
        let (from, to) = (DEFAULT_SOURCE_ENDPOINT, DEFAULT_TARGET_ENDPOINT);
        let base = runtime.feed_version(from, to, &c.from.name, &c.to.name);
        let request = c.request(&doc).with_base_version(base);
        let result = runtime.submit(request).unwrap().wait();
        if pct == 0 {
            let m = &result.metrics;
            match c.family {
                Family::Xmark | Family::Wide => prop_assert_eq!(m.delta_patches_applied, 1),
                Family::Balanced | Family::Random => {
                    prop_assert_eq!(m.delta_patches_applied + m.delta_full_chosen, 1)
                }
            }
        }
        c.assert_lands(result, &doc);
    }
    runtime.shutdown();
    Ok(())
}

/// A session that fails on a seeded lossy link rolls its target back,
/// and its resume over the repaired link lands what publish&map lands.
fn resumed_session_lands(c: Case, seed: u64) -> Result<(), TestCaseError> {
    let shipping = ShippingPolicy {
        chunk_bytes: 64,
        max_attempts_per_chunk: 2,
        retry_budget: 4,
        backoff_base: Duration::from_micros(50),
        ..ShippingPolicy::default()
    };
    let lossy = FaultProfile::drops(0.5, seed);
    let runtime = c.start(c.config.with_shipping(shipping).with_fault_profile(lossy));
    let handle = runtime.submit(c.request(&c.doc)).unwrap();
    let id = handle.id();
    let first = handle.wait();
    let result = if first.state == SessionState::Failed {
        prop_assert_eq!(first.target.map(|t| t.total_rows()), Some(0));
        runtime.set_fault_profile(FaultProfile::healthy());
        runtime.resume(id).unwrap().wait()
    } else {
        first
    };
    c.assert_lands(result, &c.doc);
    runtime.shutdown();
    Ok(())
}

/// A balanced draw whose document is `<e0/>`: a patch of its unchanged
/// round costs no less than the document, so the round ships whole, and
/// lands like publish&map.
#[test]
fn a_tiny_documents_unchanged_round_ships_whole_and_lands_like_pm() {
    let c = case(Family::Balanced, 34639169, WireFormat::Xml, 3);
    assert_eq!(c.doc, "<e0/>");
    let runtime = c.start(c.config);
    c.assert_lands(runtime.submit(c.request(&c.doc)).unwrap().wait(), &c.doc);
    let (from, to) = (DEFAULT_SOURCE_ENDPOINT, DEFAULT_TARGET_ENDPOINT);
    let base = runtime.feed_version(from, to, &c.from.name, &c.to.name);
    let result = runtime
        .submit(c.request(&c.doc).with_base_version(base))
        .unwrap()
        .wait();
    let m = &result.metrics;
    assert_eq!((m.delta_full_chosen, m.delta_patches_applied), (1, 0));
    c.assert_lands(result, &c.doc);
    runtime.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_full_ship_lands_like_pm(family in families(), seed in 0u64..1 << 32,
                                 format in formats(), rows in batch_rows(),
                                 paced in any::<bool>()) {
        full_ship_lands(case(family, seed, format, rows), paced);
    }

    #[test]
    fn every_publish_lane_lands_like_pm(family in families(), seed in 0u64..1 << 32,
                                        format in formats(), rows in batch_rows(),
                                        fanout in 2usize..4, paced in any::<bool>()) {
        every_lane_lands(case(family, seed, format, rows), fanout, paced)?;
    }

    #[test]
    fn every_round_of_a_delta_chain_lands_like_pm(family in families(), seed in 0u64..1 << 32,
                                                  format in formats(), rows in batch_rows()) {
        every_round_lands(case(family, seed, format, rows), seed)?;
    }

    #[test]
    fn a_resumed_session_lands_like_pm(family in families(), seed in 0u64..1 << 32,
                                       format in formats(), rows in batch_rows()) {
        resumed_session_lands(case(family, seed, format, rows), seed)?;
    }
}

// The same four properties on the wide family, drawn apart so that the
// other families' cases stay the ones above, and fewer of them: a wide
// session ships rows of up to a few hundred cells.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(WIDE_CASES))]

    #[test]
    fn a_wide_full_ship_lands_like_pm(seed in 0u64..1 << 32, format in formats(),
                                      rows in batch_rows(), paced in any::<bool>()) {
        full_ship_lands(case(Family::Wide, seed, format, rows), paced);
    }

    #[test]
    fn every_wide_publish_lane_lands_like_pm(seed in 0u64..1 << 32, format in formats(),
                                             rows in batch_rows(), fanout in 2usize..4,
                                             paced in any::<bool>()) {
        every_lane_lands(case(Family::Wide, seed, format, rows), fanout, paced)?;
    }

    #[test]
    fn every_round_of_a_wide_delta_chain_lands_like_pm(seed in 0u64..1 << 32,
                                                       format in formats(),
                                                       rows in batch_rows()) {
        every_round_lands(case(Family::Wide, seed, format, rows), seed)?;
    }

    #[test]
    fn a_wide_resumed_session_lands_like_pm(seed in 0u64..1 << 32, format in formats(),
                                            rows in batch_rows()) {
        resumed_session_lands(case(Family::Wide, seed, format, rows), seed)?;
    }
}
