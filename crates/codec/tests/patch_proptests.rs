//! Property tests for the `XDXPATF1` Patch wire frame: arbitrary
//! patches — empty step lists, empty payloads, empty table sets, any
//! version pair — must round-trip byte-exactly in both link formats;
//! any damage the chaos link's corruption model can inflict, plus
//! single-bit flips and truncations, must be rejected by the frame
//! checksum *before* anything could be applied; and patch frames must
//! never cross-decode as feeds (nor feeds as patches).

use proptest::prelude::*;
use xdx_codec::{
    decode_any, decode_patch, encode_feed, encode_patch, is_columnar, is_patch, WireFormat,
};
use xdx_net::{Delivery, FaultProfile, Link, NetworkProfile};
use xdx_relational::{
    ColRole, DeltaPatch, Dewey, Feed, FeedColumn, FeedSchema, PatchStep, StepKind, TablePatch,
    Value,
};

/// Table-name vocabulary (decode does not require uniqueness).
const TABLES: &[&str] = &["ITEM", "CATEGORY", "SITE_REGIONS", "T"];

/// Payload cell vocabulary: dictionary-friendly repeats plus the
/// awkward cases.
const VOCAB: &[&str] = &[
    "",
    "replaced description text",
    "replaced description words",
    " leading and trailing ",
    "tab\there newline\nthere",
    "ünïcode tökens",
];

/// Widest payload arity generated; rows are truncated to each table's
/// actual column count. Arity stays ≥ 1: the XML text body cannot
/// represent zero-arity rows, and real fragment schemas always carry
/// at least the root ParentRef.
const MAX_ARITY: usize = 4;

fn cell_strategy() -> impl Strategy<Value = Value> {
    (
        0u8..6,
        any::<i64>(),
        proptest::collection::vec(0u32..300, 0..4),
        0usize..VOCAB.len(),
    )
        .prop_map(|(kind, n, path, word)| match kind {
            0 => Value::Null,
            1 | 2 => Value::Int(n),
            3 => Value::Dewey(Dewey::from(path)),
            _ => Value::Str(VOCAB[word].into()),
        })
}

fn step_strategy() -> impl Strategy<Value = PatchStep> {
    (0u8..3, proptest::collection::vec(0u32..300, 0..5), 0u32..50).prop_map(|(kind, path, rows)| {
        PatchStep {
            kind: match kind {
                0 => StepKind::InsertSubtree,
                1 => StepKind::DeleteSubtree,
                _ => StepKind::ReplaceSubtree,
            },
            key: Dewey::from(path),
            rows,
        }
    })
}

fn table_strategy() -> impl Strategy<Value = TablePatch> {
    (
        0usize..TABLES.len(),
        proptest::collection::vec(step_strategy(), 0..6),
        1usize..=MAX_ARITY,
        proptest::collection::vec(0u8..3, MAX_ARITY..=MAX_ARITY),
        proptest::collection::vec(
            proptest::collection::vec(cell_strategy(), MAX_ARITY..=MAX_ARITY),
            0..10,
        ),
    )
        .prop_map(|(name, steps, ncols, roles, rows)| {
            let columns = (0..ncols)
                .map(|i| {
                    let role = match roles[i] {
                        0 => ColRole::NodeId,
                        1 => ColRole::ParentRef,
                        _ => ColRole::Value,
                    };
                    FeedColumn::new(format!("c{i}"), role)
                })
                .collect();
            let mut payload = Feed::new(FeedSchema::new("site", columns));
            for mut row in rows {
                row.truncate(ncols);
                payload.rows.push(row);
            }
            TablePatch {
                table: TABLES[name].to_string(),
                steps,
                payload,
            }
        })
}

fn patch_strategy() -> impl Strategy<Value = DeltaPatch> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(table_strategy(), 0..4),
    )
        .prop_map(|(base_version, head_version, tables)| DeltaPatch {
            base_version,
            head_version,
            tables,
        })
}

fn formats() -> [WireFormat; 2] {
    [WireFormat::Xml, WireFormat::Columnar]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_patches_roundtrip_byte_exactly(patch in patch_strategy()) {
        for format in formats() {
            let frame = encode_patch(&patch, format);
            prop_assert!(is_patch(&frame));
            prop_assert!(!is_columnar(&frame));
            let back = decode_patch(&frame).expect("intact patch frame decodes");
            prop_assert_eq!(&back, &patch);
            // Canonical: re-encoding the decoded patch reproduces the
            // frame byte for byte.
            prop_assert_eq!(encode_patch(&back, format), frame.clone());
            // A patch frame is not a feed: the sniffing feed decoder
            // must refuse it rather than misroute it.
            prop_assert!(decode_any(&frame).is_err());
        }
    }

    #[test]
    fn chaos_link_corruption_is_rejected_before_apply(
        patch in patch_strategy(),
        seed in any::<u64>(),
        burst in 1usize..32,
    ) {
        // The chaos harness's corruption model verbatim: a link with
        // corrupt_probability 1.0 XORs a seeded burst of nonzero masks
        // somewhere in the frame. Wherever it lands — magic, versions,
        // step list, embedded payload, checksum — decode_patch must
        // reject the frame, so a corrupted patch can never reach the
        // transactional apply.
        let frame = encode_patch(&patch, WireFormat::Columnar);
        let mut link = Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
            corrupt_probability: 1.0,
            corrupt_burst: burst,
            ..FaultProfile::healthy()
        }.with_seed(seed));
        let (_, delivery) = link.transmit_faulty("patch-proptest", &frame);
        match delivery {
            Delivery::Corrupted(damaged) => {
                prop_assert_ne!(&damaged, &frame);
                prop_assert!(decode_patch(&damaged).is_err());
            }
            other => prop_assert!(false, "corrupt_probability 1.0 yielded {:?}", other),
        }
    }

    #[test]
    fn single_bit_flips_are_always_detected(
        patch in patch_strategy(),
        pos in 0usize..1_000_000,
    ) {
        for format in formats() {
            let frame = encode_patch(&patch, format);
            let bit = pos % (frame.len() * 8);
            let mut damaged = frame.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode_patch(&damaged).is_err());
        }
    }

    #[test]
    fn truncated_patch_frames_are_rejected(
        patch in patch_strategy(),
        cut in 1usize..600,
    ) {
        let frame = encode_patch(&patch, WireFormat::Columnar);
        let cut = cut.min(frame.len());
        prop_assert!(decode_patch(&frame[..frame.len() - cut]).is_err());
    }

    #[test]
    fn patch_decoder_never_panics_and_rejects_feed_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = decode_patch(&bytes);
        // A columnar *feed* frame is not a patch, whatever its content.
        let feed = Feed::new(FeedSchema::new(
            "site",
            vec![FeedColumn::new("c0", ColRole::ParentRef)],
        ));
        prop_assert!(decode_patch(&encode_feed(&feed)).is_err());
    }
}

#[test]
fn empty_patches_roundtrip() {
    // The degenerate shapes the ISSUE calls out explicitly: an empty
    // table set, and tables whose step lists and payloads are empty.
    for format in formats() {
        let empty = DeltaPatch {
            base_version: 3,
            head_version: 4,
            tables: Vec::new(),
        };
        let frame = encode_patch(&empty, format);
        assert_eq!(decode_patch(&frame).unwrap(), empty);

        let hollow = DeltaPatch {
            base_version: 0,
            head_version: 1,
            tables: vec![TablePatch {
                table: "ITEM".into(),
                steps: Vec::new(),
                payload: Feed::new(FeedSchema::new(
                    "site",
                    vec![FeedColumn::new("c0", ColRole::ParentRef)],
                )),
            }],
        };
        let frame = encode_patch(&hollow, format);
        assert_eq!(decode_patch(&frame).unwrap(), hollow);
        assert_eq!(encode_patch(&decode_patch(&frame).unwrap(), format), frame);
    }
}
