//! Property tests for the streamed batch pipeline: splitting a
//! Dewey-sorted feed into operator batches, encoding each batch as its
//! own frame, and reassembling whatever arrives must be observationally
//! identical to the classic materialize-then-encode path — for both
//! wire formats, for empty feeds, and for the single-batch degenerate
//! case (where the frames must be *byte*-identical). Batches then pack
//! into messages under a row budget: the packing must partition the
//! batches in order, respect the budget, and be a function of the row
//! counts alone — packing a prefix of the feeds gives a prefix of the
//! messages. On top of the codec-level properties, the whole runtime is
//! compared against a one-piece loopback execution, wire-byte for
//! wire-byte — and so is the head a delta round computes in place,
//! table for table and row for row, and the patch a round computes over
//! the changed instances alone, byte for byte with the whole head's.

mod common;

use common::oracle::wire_state;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use xdx_codec::{
    decode_any, decode_parts, encode_in_format_into, encode_parts_into, encode_patch, FeedPart,
    WireFormat,
};
use xdx_core::exec::{
    batch_ranges, execute_in_place, execute_with_transport, feed_batches, LoopbackTransport,
    PrefixMap,
};
use xdx_core::{DataExchange, Fragmentation, Optimizer, Program, SystemProfile};
use xdx_delta::{db_tables, diff_ranges, diff_snapshots};
use xdx_relational::{ColRole, Database, Dewey, Feed, FeedColumn, FeedSchema, Value};
use xdx_runtime::{ExchangeRequest, Runtime, RuntimeConfig, SlotPacker};
use xdx_sim::{random_document, random_fragmentation, random_schema};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};
use xdx_xml::schema::Occurs;
use xdx_xml::{NodeId, SchemaTree};

/// Cell vocabulary biased toward the dictionary codec's sweet spot,
/// plus the awkward cases.
const VOCAB: &[&str] = &[
    "",
    " ",
    "shipping included in price",
    "credit card",
    " leading and trailing ",
    "tab\there newline\nthere",
    "carriage\rreturn\r",
    "ünïcode tökens",
];

const MAX_ARITY: usize = 5;

fn cell_strategy() -> impl Strategy<Value = Value> {
    (
        0u8..8,
        any::<i64>(),
        proptest::collection::vec(0u32..500, 0..5),
        0usize..VOCAB.len(),
    )
        .prop_map(|(kind, n, path, word)| match kind {
            0 => Value::Null,
            1 | 2 => Value::Int(n),
            3 | 4 => Value::Dewey(Dewey::from(path)),
            _ => Value::Str(VOCAB[word].into()),
        })
}

fn feed_strategy() -> impl Strategy<Value = Feed> {
    (
        proptest::collection::vec(0u8..3, MAX_ARITY..=MAX_ARITY),
        proptest::collection::vec(
            proptest::collection::vec(cell_strategy(), MAX_ARITY..=MAX_ARITY),
            0..40,
        ),
    )
        .prop_map(|(roles, rows)| {
            let columns = roles
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let role = match r {
                        0 => ColRole::NodeId,
                        1 => ColRole::ParentRef,
                        _ => ColRole::Value,
                    };
                    FeedColumn::new(format!("c{i}"), role)
                })
                .collect();
            let mut feed = Feed::new(FeedSchema::new("site", columns));
            feed.rows = rows.into();
            feed
        })
}

fn formats() -> [WireFormat; 2] {
    [WireFormat::Xml, WireFormat::Columnar]
}

/// Encode → decode one feed in `format`, asserting the round trip.
fn round_trip(feed: &Feed, format: WireFormat) -> Feed {
    let mut buf = Vec::new();
    encode_in_format_into(&mut buf, feed, format);
    decode_any(&buf).expect("own encoding decodes")
}

/// A batch as the packer sees it: a row range of the feed at an index.
type Batch = (usize, Range<usize>);

/// Packs the batches of feeds of `lens` rows, as the source half does:
/// the sealed slots, and the open tail as `finish` seals it.
fn pack(lens: &[usize], batch_rows: usize) -> (Vec<Vec<Batch>>, Option<Vec<Batch>>) {
    let mut packer = SlotPacker::new(batch_rows);
    let mut sealed = Vec::new();
    for (feed, &len) in lens.iter().enumerate() {
        for rows in batch_ranges(len, batch_rows) {
            sealed.extend(packer.push(rows.len(), (feed, rows)));
        }
    }
    (sealed, packer.finish())
}

fn slot_rows(slot: &[Batch]) -> usize {
    slot.iter().map(|(_, rows)| rows.len()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed slots partition the batches in order; a slot holds
    /// more than the budget only if it is a single batch (and a batch
    /// never does); a slot is sealed only by a batch that did not fit
    /// it; and packing is timing-free: after any prefix of the feeds,
    /// the sealed slots are a prefix of the final slots and the open
    /// tail is the beginning of the next one — a slot on the wire never
    /// changes because of what the source produced later.
    #[test]
    fn packed_slots_partition_the_batches_under_the_budget(
        lens in proptest::collection::vec(0usize..40, 0..12),
        batch_rows in 1usize..17,
    ) {
        let (mut slots, tail) = pack(&lens, batch_rows);
        slots.extend(tail);
        let batches: Vec<Batch> = lens
            .iter()
            .enumerate()
            .flat_map(|(feed, &len)| batch_ranges(len, batch_rows).map(move |r| (feed, r)))
            .collect();
        prop_assert_eq!(&slots.concat(), &batches);
        prop_assert_eq!(slots.is_empty(), lens.is_empty());
        for (i, slot) in slots.iter().enumerate() {
            prop_assert!(!slot.is_empty());
            prop_assert!(slot_rows(slot) <= batch_rows || slot.len() == 1);
            if let Some(next) = slots.get(i + 1) {
                prop_assert!(slot_rows(slot) + next[0].1.len() > batch_rows);
            }
        }
        for fed in 0..lens.len() {
            let (sealed, open) = pack(&lens[..fed], batch_rows);
            prop_assert_eq!(&sealed[..], &slots[..sealed.len()]);
            if let Some(open) = open {
                prop_assert!(slots[sealed.len()].starts_with(&open));
            }
        }
    }

    /// Batching splits rows without loss, reorder, or duplication: the
    /// concatenation of the batches is the original feed, every batch
    /// shares the schema, and no batch except possibly the last is
    /// undersized. An empty feed still produces exactly one (empty)
    /// batch, so every cross edge ships at least one frame.
    #[test]
    fn batches_partition_the_feed(feed in feed_strategy(), batch_rows in 1usize..17) {
        let batches = feed_batches(&feed, batch_rows);
        prop_assert!(!batches.is_empty());
        if feed.rows.is_empty() {
            prop_assert_eq!(batches.len(), 1);
            prop_assert!(batches[0].rows.is_empty());
        }
        let mut rebuilt = Feed::new(feed.schema.clone());
        for (i, batch) in batches.iter().enumerate() {
            prop_assert_eq!(&batch.schema, &feed.schema);
            if i + 1 < batches.len() {
                prop_assert_eq!(batch.rows.len(), batch_rows);
            }
            rebuilt.rows.extend(batch.rows.clone());
        }
        prop_assert_eq!(&rebuilt, &feed);
    }

    /// The streamed pipeline — pack the batches of every feed into
    /// messages, encode each message (a bare frame for one part, a
    /// container for several), decode what arrives, append each part to
    /// its feed in order — reconstructs exactly the feeds the
    /// materialize-then-encode path would have delivered, in both wire
    /// formats.
    #[test]
    fn streamed_frames_reassemble_to_the_materialized_feed(
        feeds in proptest::collection::vec(feed_strategy(), 1..5),
        batch_rows in 1usize..17,
    ) {
        let lens: Vec<usize> = feeds.iter().map(Feed::len).collect();
        let (mut slots, tail) = pack(&lens, batch_rows);
        slots.extend(tail);
        for format in formats() {
            let mut streamed: Vec<Option<Feed>> = vec![None; feeds.len()];
            let mut buf = Vec::new();
            for slot in &slots {
                let labels: Vec<String> = slot.iter().map(|(f, _)| format!("feed-{f}")).collect();
                let parts: Vec<FeedPart<'_>> = slot
                    .iter()
                    .zip(&labels)
                    .map(|((f, rows), label)| FeedPart {
                        label,
                        schema: &feeds[*f].schema,
                        rows: feeds[*f].rows.slice(rows.clone()),
                    })
                    .collect();
                encode_parts_into(&mut buf, &parts, format);
                let arrived = decode_parts(&buf).expect("own encoding decodes");
                prop_assert_eq!(arrived.len(), slot.len());
                for ((label, part), (f, _)) in arrived.into_iter().zip(slot) {
                    // A bare frame carries no label; a container names
                    // every part.
                    prop_assert_eq!(label.is_some(), slot.len() > 1);
                    let sent = format!("feed-{f}");
                    prop_assert!(label.is_none_or(|l| l == sent));
                    match &mut streamed[*f] {
                        None => streamed[*f] = Some(part),
                        Some(acc) => acc.rows.extend(part.rows),
                    }
                }
            }
            for (feed, streamed) in feeds.iter().zip(streamed) {
                let streamed = streamed.expect("every feed ships at least one batch");
                prop_assert_eq!(&streamed, &round_trip(feed, format), "format {:?}", format);
            }
        }
    }

    /// When the whole feed fits in one batch (including the empty
    /// feed), the batch frame must be the *identical bytes* a
    /// whole-feed encode produces: same frame, bit for bit, in both
    /// formats.
    #[test]
    fn single_batch_frames_are_byte_identical(feed in feed_strategy()) {
        let batch_rows = feed.rows.len().max(1);
        for format in formats() {
            let mut whole = Vec::new();
            encode_in_format_into(&mut whole, &feed, format);
            let batches = feed_batches(&feed, batch_rows);
            prop_assert_eq!(batches.len(), 1);
            let mut framed = Vec::new();
            encode_in_format_into(&mut framed, &batches[0], format);
            prop_assert_eq!(&framed, &whole, "format {:?}", format);
        }
    }
}

fn run_exchange(doc: &str, config: RuntimeConfig) -> Database {
    let schema = schema();
    let mf = mf(&schema);
    let lf = lf(&schema);
    let runtime = Runtime::start(schema.clone(), config);
    let source = load_source(doc, &schema, &mf).unwrap();
    let handle = runtime
        .submit(ExchangeRequest::new("ab", source, mf, lf))
        .unwrap();
    let result = handle.wait();
    assert!(
        result.state == xdx_runtime::SessionState::Done,
        "exchange failed: {:?}",
        result.diagnostic
    );
    let target = result.target.expect("done session carries its target");
    runtime.shutdown();
    target
}

/// The reference that stays: the same program executed in one piece
/// over the in-process loopback transport — no runtime, no batching.
fn loopback_reference(doc: &str, format: WireFormat) -> Database {
    let schema = schema();
    let (mf, lf) = (mf(&schema), lf(&schema));
    let mut source = load_source(doc, &schema, &mf).unwrap();
    let exchange =
        xdx_core::DataExchange::new(&schema, mf.clone(), lf.clone()).with_wire_format(format);
    let model = exchange.probe(&source).unwrap();
    let (program, _) = exchange.plan(&model).unwrap();
    let mut target = Database::new("reference");
    execute_with_transport(
        &schema,
        &mf,
        &lf,
        &program,
        &mut source,
        &mut target,
        &mut LoopbackTransport::new(format),
        None,
    )
    .unwrap();
    target
}

/// End to end: the runtime (small batches, so multiple frames stream
/// per cross edge) delivers a target wire-identical to the one-piece
/// loopback execution of the same exchange, in both wire formats.
#[test]
fn pipelined_targets_are_wire_identical_to_the_loopback_reference() {
    let doc = generate(GenConfig::sized(6_000));
    for format in formats() {
        let reference = loopback_reference(&doc, format);
        for batch_rows in [1usize, 7, 1024] {
            let pipelined = run_exchange(
                &doc,
                RuntimeConfig::default()
                    .with_workers(2)
                    .with_wire_format(format)
                    .with_batch_rows(batch_rows)
                    .with_pipeline_depth(3),
            );
            assert_eq!(
                wire_state(&pipelined),
                wire_state(&reference),
                "divergence at format {format:?}, batch_rows {batch_rows}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The head a delta round computes in place is the table set the
    /// reference executor lands: `execute_with_transport` over a
    /// loopback — every cross feed through the codec and the envelope,
    /// a scratch target staged, committed and indexed — leaves tables
    /// equal to `execute_in_place`'s, name for name and row for row in
    /// the same order, whichever way the exchange runs, whoever placed
    /// it, wherever the Combines landed (the target's speed moves them)
    /// and whichever format the oracle shipped in. The operator work is
    /// the same work: in place the source is billed what the oracle
    /// bills its source and its target together, less the commit and
    /// index nobody ran.
    #[test]
    fn in_place_head_is_the_loopback_target(
        seed in any::<u64>(),
        bytes in 2_000usize..40_000,
        lf_to_mf in any::<bool>(),
        optimal in any::<bool>(),
        target_speed in 0usize..3,
    ) {
        let schema = schema();
        let (from, to) = if lf_to_mf {
            (lf(&schema), mf(&schema))
        } else {
            (mf(&schema), lf(&schema))
        };
        let doc = generate(GenConfig { target_bytes: bytes, seed });
        let loaded = load_source(&doc, &schema, &from).unwrap();
        let optimizer = if optimal {
            Optimizer::Optimal { ordering_cap: 64 }
        } else {
            Optimizer::Greedy
        };
        let target_profile = SystemProfile::with_speed([0.2, 1.0, 5.0][target_speed]);
        for format in formats() {
            let exchange = DataExchange::new(&schema, from.clone(), to.clone())
                .with_optimizer(optimizer)
                .with_profiles(SystemProfile::default(), target_profile)
                .with_wire_format(format);
            let (program, _) = exchange.plan(&exchange.probe(&loaded).unwrap()).unwrap();

            let mut oracle_source = loaded.clone();
            let mut oracle_target = Database::new("oracle");
            let shipped = execute_with_transport(
                &schema,
                &from,
                &to,
                &program,
                &mut oracle_source,
                &mut oracle_target,
                &mut LoopbackTransport::new(format),
                None,
            )
            .unwrap();

            let mut source = loaded.clone();
            let (head, ran) = execute_in_place(&schema, &from, &to, &program, &mut source).unwrap();
            prop_assert_eq!(&head, &db_tables(&oracle_target), "format {:?}", format);
            prop_assert_eq!(ran.rows_loaded, shipped.rows_loaded);
            prop_assert_eq!((ran.messages, ran.bytes_shipped, ran.bytes_encoded), (0, 0, 0));

            // What the oracle's target paid beyond its operators.
            let mut epilogue = Database::new("epilogue");
            for (name, feed) in &head {
                epilogue.load_staged(name, feed.clone()).unwrap();
            }
            epilogue.commit_staged();
            epilogue.build_all_key_indexes().unwrap();
            let mut billed = source.counters;
            billed.merge(&epilogue.counters);
            let mut oracle = oracle_source.counters;
            oracle.merge(&oracle_target.counters);
            prop_assert_eq!(billed, oracle, "format {:?}", format);
        }
    }
}

/// The schema families a ranged round is drawn over.
#[derive(Debug, Clone, Copy)]
enum Family {
    Xmark,
    Balanced,
    Random,
}

/// How a round's document differs from the last one.
#[derive(Debug, Clone, Copy)]
enum Churn {
    /// About 20 % of the text runs rewritten: no identifier moves.
    Text,
    /// One instance of a repeated element copied in after itself.
    Insert,
    /// One instance of a repeated `*` element dropped.
    Drop,
}

/// A schema of `family`, a document of it and a fragmentation pair
/// between which to exchange it (XMark's MF and LF, random ones else),
/// the other way round when `swap`.
fn ranged_case(
    family: Family,
    seed: u64,
    swap: bool,
) -> (SchemaTree, String, Fragmentation, Fragmentation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = match family {
        Family::Xmark => schema(),
        Family::Balanced => SchemaTree::balanced(rng.gen_range(1..4), rng.gen_range(2..4), true),
        Family::Random => random_schema(seed, rng.gen_range(4..16)),
    };
    let (doc, a, b) = match family {
        Family::Xmark => {
            let doc = generate(GenConfig {
                target_bytes: rng.gen_range(2_000..12_000),
                seed,
            });
            (doc, mf(&schema), lf(&schema))
        }
        Family::Balanced | Family::Random => {
            let most = schema.len().min(7);
            let a = random_fragmentation(&schema, rng.gen_range(1..=most), "a", &mut rng);
            let b = random_fragmentation(&schema, rng.gen_range(1..=most), "b", &mut rng);
            (random_document(&schema, seed), a, b)
        }
    };
    let (from, to) = if swap { (b, a) } else { (a, b) };
    (schema, doc, from, to)
}

/// Rewrites about `pct` % of `doc`'s text runs, deterministic in `seed`
/// (the generic churn of `oracle_props`).
fn text_churn(doc: &str, pct: u32, seed: u64) -> String {
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

/// `doc` with one instance of a repeated element copied in after itself
/// (`drop` false) or, of a `*` element, dropped; `None` when the document
/// holds no such instance. Names are unique in a schema tree, so an
/// element's first closing tag after its opening one is its own.
fn structural_churn(schema: &SchemaTree, doc: &str, drop: bool, seed: u64) -> Option<String> {
    let mut instances = Vec::new();
    for id in schema.ids().skip(1) {
        let node = schema.node(id);
        let eligible = match drop {
            true => node.occurs.is_optional() && node.occurs.is_repeated(),
            false => node.occurs.is_repeated(),
        };
        if !eligible {
            continue;
        }
        let (open, empty, close) = (
            format!("<{}>", node.name),
            format!("<{}/>", node.name),
            format!("</{}>", node.name),
        );
        for (at, _) in doc.match_indices(&empty) {
            instances.push(at..at + empty.len());
        }
        for (at, _) in doc.match_indices(&open) {
            let end = at + doc[at..].find(&close)? + close.len();
            instances.push(at..end);
        }
    }
    if instances.is_empty() {
        return None;
    }
    let at = instances[StdRng::seed_from_u64(seed).gen_range(0..instances.len())].clone();
    let mut out = doc[..at.end].to_string();
    if drop {
        out.truncate(at.start);
    } else {
        out.push_str(&doc[at.clone()]);
    }
    Some(out + &doc[at.end..])
}

/// The patch frame of the round from `previous` to `source` computed as
/// a delta round computes it over the changed instances alone: the
/// source diff, the prefix map, the program in place over the ranged
/// source and the ranged diff against `base`. `None` when an identifier
/// moved, which a round meets by computing its head whole.
fn ranged_frame(
    schema: &SchemaTree,
    (from, to, program): (&Fragmentation, &Fragmentation, &Program),
    previous: &Database,
    source: &Database,
    base: &[(String, Feed)],
    format: WireFormat,
) -> Option<Vec<u8>> {
    let prefixes = PrefixMap::new(schema, from, to);
    let change = prefixes.changed(source, previous)?;
    assert!(change.prefixes.len() <= change.rows);
    let mut ranged = source.clone();
    let run = |ranged: &mut Database| execute_in_place(schema, from, to, program, ranged);
    let (head, held) = prefixes.run_ranged(&mut ranged, &change, run).unwrap();
    assert!(held <= source.total_rows());
    assert!(
        ranged.total_rows() == source.total_rows(),
        "the rows are back"
    );
    let patch = diff_ranges(base, &head.unwrap().0, &change.prefixes, 1, 2).unwrap();
    Some(encode_patch(&patch, format))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A delta round that computes only what changed ships the patch the
    /// whole head gives, byte for byte: over XMark, balanced and random
    /// schemas, either way between their fragmentations, greedy or
    /// `Optimal` placement, either wire format. A text churn moves no
    /// identifier, so its round is always ranged; an instance inserted or
    /// dropped moves some, and its round takes the whole head.
    #[test]
    fn a_ranged_round_patches_like_the_whole_head(
        family in prop::sample::select(vec![Family::Xmark, Family::Balanced, Family::Random]),
        seed in any::<u64>(),
        swap in any::<bool>(),
        optimal in any::<bool>(),
        columnar in any::<bool>(),
        churn in prop::sample::select(vec![Churn::Text, Churn::Insert, Churn::Drop]),
    ) {
        let (schema, doc, from, to) = ranged_case(family, seed, swap);
        let structural = match churn {
            Churn::Text => None,
            Churn::Insert => structural_churn(&schema, &doc, false, seed ^ 2),
            Churn::Drop => structural_churn(&schema, &doc, true, seed ^ 3),
        };
        // A document with no instance to insert or drop is churned as text.
        let moved = structural.is_some();
        let next = structural.unwrap_or_else(|| text_churn(&doc, 20, seed ^ 1));
        let format = if columnar { WireFormat::Columnar } else { WireFormat::Xml };
        let optimizer = if optimal {
            Optimizer::Optimal { ordering_cap: 64 }
        } else {
            Optimizer::Greedy
        };
        let mut previous = load_source(&doc, &schema, &from).unwrap();
        let exchange = DataExchange::new(&schema, from.clone(), to.clone())
            .with_optimizer(optimizer)
            .with_wire_format(format);
        let (program, _) = exchange.plan(&exchange.probe(&previous).unwrap()).unwrap();
        let (base, _) = execute_in_place(&schema, &from, &to, &program, &mut previous).unwrap();

        let mut source = load_source(&next, &schema, &from).unwrap();
        let (head, _) = execute_in_place(&schema, &from, &to, &program, &mut source).unwrap();
        let whole = encode_patch(&diff_snapshots(&base, &head, 1, 2).unwrap(), format);
        let plan = (&from, &to, &program);
        match ranged_frame(&schema, plan, &previous, &source, &base, format) {
            Some(ranged) => {
                prop_assert!(!moved, "{:?} moved no identifier", churn);
                prop_assert!(ranged == whole, "{:?}: ranged patch differs", churn);
            }
            None => prop_assert!(moved, "a text churn moved an identifier"),
        }
    }
}

/// A target fragment rooted inside a source fragment: the source's
/// `A_B` rows inline every `b`, and the target's `B_C` takes each `b`
/// with its `c`. A changed `c` cuts its instance at its `b`, whose row
/// sits in a source table rooted above it: the ranged source keeps the
/// rows of the `a` instance above the prefix, or the `b` the Combine
/// joins `c` to would be missing and the round would delete the instance
/// it changed.
#[test]
fn a_ranged_round_reads_the_rows_of_the_instance_above() {
    let mut schema = SchemaTree::new("a");
    let b = schema.add_child(schema.root(), "b", Occurs::Many).unwrap();
    let c = schema.add_child(b, "c", Occurs::One).unwrap();
    schema.set_text(c);
    let roots = |r: [NodeId; 2]| r.into_iter().collect();
    let from = Fragmentation::from_roots("S", &schema, &roots([schema.root(), c])).unwrap();
    let to = Fragmentation::from_roots("T", &schema, &roots([schema.root(), b])).unwrap();
    let doc = "<a><b><c>v1</c></b><b><c>v2</c></b><b><c>v3</c></b></a>";
    let next = doc.replace("v2", "changed");
    let mut previous = load_source(doc, &schema, &from).unwrap();
    let exchange = DataExchange::new(&schema, from.clone(), to.clone());
    let (program, _) = exchange.plan(&exchange.probe(&previous).unwrap()).unwrap();
    let (base, _) = execute_in_place(&schema, &from, &to, &program, &mut previous).unwrap();
    let mut source = load_source(&next, &schema, &from).unwrap();
    let (head, _) = execute_in_place(&schema, &from, &to, &program, &mut source).unwrap();

    let prefixes = PrefixMap::new(&schema, &from, &to);
    let change = prefixes.changed(&source, &previous).unwrap();
    assert_eq!(change.prefixes, vec![Dewey::from([2])], "the second b");
    let (_, held) = prefixes
        .run_ranged(&mut source.clone(), &change, |_| ())
        .unwrap();
    assert_eq!(held, 4, "the one changed c and the three a rows above it");
    for format in formats() {
        let whole = encode_patch(&diff_snapshots(&base, &head, 1, 2).unwrap(), format);
        let plan = (&from, &to, &program);
        let ranged = ranged_frame(&schema, plan, &previous, &source, &base, format);
        assert!(ranged == Some(whole), "{format:?}");
    }
}
