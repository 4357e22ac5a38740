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
//! table for table and row for row.

mod common;

use common::oracle::wire_state;
use proptest::prelude::*;
use std::ops::Range;
use xdx_codec::{
    decode_any, decode_parts, encode_in_format_into, encode_parts_into, FeedPart, WireFormat,
};
use xdx_core::exec::{
    batch_ranges, execute_in_place, execute_with_transport, feed_batches, LoopbackTransport,
};
use xdx_core::{DataExchange, Optimizer, SystemProfile};
use xdx_delta::db_tables;
use xdx_relational::{ColRole, Database, Dewey, Feed, FeedColumn, FeedSchema, Value};
use xdx_runtime::{ExchangeRequest, Runtime, RuntimeConfig, SlotPacker};
use xdx_xmark::{generate, lf, load_source, mf, schema, GenConfig};

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
            rebuilt.rows.extend(batch.rows.iter().cloned());
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
