//! Property tests for the columnar wire codec: arbitrary feeds — nulls,
//! repeated branches, heterogeneous columns, empty feeds — must round-trip
//! byte-exactly; any damage the chaos link's corruption model can inflict
//! (seeded bursts of nonzero XOR masks), plus single-bit flips and
//! truncations, must be rejected by the frame checksum, never silently
//! decoded into a different feed. The same holds one level up, for the
//! container that carries several frames in one message: it round-trips
//! its parts, a single part is the bare frame, and truncation, bit
//! flips, lying lengths and trailing bytes are decode errors — never
//! different parts. And the one-pass encoder writes exactly the bytes of
//! the two-pass reference it replaced (also for strings over the
//! tokenizer's awkward alphabet), and a view of a feed's rows the bytes
//! of its copy.

use proptest::prelude::*;
use std::collections::HashMap;
use xdx_codec::{
    decode_any, decode_feed, decode_parts, encode_feed, encode_in_format_into, encode_parts_into,
    encode_rows_in_format_into, is_columnar, is_container, FeedPart, WireFormat, CONTAINER_MAGIC,
};
use xdx_net::{Delivery, FaultProfile, Link, NetworkProfile};
use xdx_relational::ops::{merge_combine, ChainHint};
use xdx_relational::word_sum;
use xdx_relational::{ColRole, Counters, Dewey, Feed, FeedColumn, FeedSchema, Rows, Value};

/// Cell vocabulary biased toward the dictionary's sweet spot: repeated
/// phrases sharing tokens, plus the awkward cases — empty strings,
/// leading/trailing/double spaces, tab/newline, non-ASCII.
const VOCAB: &[&str] = &[
    "",
    " ",
    "  ",
    "shipping included in price",
    "shipping extra charge",
    "credit card",
    "credit card or cash",
    " leading and trailing ",
    "tab\there newline\nthere",
    "carriage\rreturn\r",
    "ünïcode tökens",
    "one",
];

/// The widest arity any generated feed uses; rows are generated at this
/// width and truncated to the feed's actual column count.
const MAX_ARITY: usize = 6;

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

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(
        proptest::collection::vec(cell_strategy(), MAX_ARITY..=MAX_ARITY),
        0..25,
    )
}

fn roles_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, MAX_ARITY..=MAX_ARITY)
}

/// Assembles a feed of arity `ncols` (possibly zero) from pre-generated
/// wide rows and role draws.
fn build_feed(ncols: usize, roles: &[u8], rows: Vec<Vec<Value>>) -> Feed {
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
    let mut feed = Feed::new(FeedSchema::new("site", columns));
    for mut row in rows {
        row.truncate(ncols);
        feed.rows.push(row);
    }
    feed
}

/// Two to four feeds for one container.
fn feeds_strategy() -> impl Strategy<Value = Vec<Feed>> {
    proptest::collection::vec((0..=MAX_ARITY, roles_strategy(), rows_strategy()), 2..5).prop_map(
        |feeds| {
            feeds
                .into_iter()
                .map(|(ncols, roles, rows)| build_feed(ncols, &roles, rows))
                .collect()
        },
    )
}

/// Encodes `feeds` as one message body under labels `part-0`, `part-1`…;
/// returns the body and the length of its container header.
fn container_of(feeds: &[Feed], format: WireFormat) -> (Vec<u8>, usize) {
    let labels: Vec<String> = (0..feeds.len()).map(|i| format!("part-{i}")).collect();
    let parts: Vec<FeedPart<'_>> = feeds
        .iter()
        .zip(&labels)
        .map(|(feed, label)| FeedPart {
            label,
            schema: &feed.schema,
            rows: feed.rows.slice(..),
        })
        .collect();
    let mut buf = Vec::new();
    let frames = encode_parts_into(&mut buf, &parts, format);
    let header = buf.len() - frames;
    (buf, header)
}

/// Combine views over `feed`'s rows: the rows as parents keyed 1, 2, 3
/// or `Null` in turn, so a key repeats (a skeleton row per child of it),
/// one has no children (`Null`-padded rows) and one joins nothing; the
/// same rows as children of keys 1, 2 and `Null`; the parents combined
/// with the children, that view combined with them again, and a view
/// of the first (every other row, columns reversed).
fn combine_views(feed: &Feed) -> Vec<Feed> {
    let id = |k: usize| match k {
        0 => Value::Null,
        k => Value::Dewey(Dewey::from([k as u32])),
    };
    let keyed = |root: &str, lead: Vec<ColRole>, key: &dyn Fn(usize) -> Vec<Value>| {
        let mut columns: Vec<FeedColumn> = lead
            .into_iter()
            .map(|role| FeedColumn::new(root, role))
            .collect();
        columns.extend(feed.schema.columns.iter().cloned());
        let rows = feed.rows.clone().into_iter().enumerate().map(|(i, row)| {
            let mut keyed = key(i);
            keyed.extend(row);
            keyed
        });
        Feed {
            schema: FeedSchema::new(root, columns),
            rows: rows.collect(),
        }
    };
    let parent = keyed("p", vec![ColRole::ParentRef, ColRole::NodeId], &|i| {
        vec![id(1), id(i % 4)]
    });
    let child = keyed("c", vec![ColRole::ParentRef], &|i| vec![id(i % 3)]);
    let combine = |parent: &Feed| {
        let mut counters = Counters::new();
        merge_combine(
            parent.clone(),
            child.clone(),
            "p",
            ChainHint::default(),
            &mut counters,
        )
        .expect("the parent has p's id")
    };
    let once = combine(&parent);
    let twice = combine(&once);
    let arity = once.schema.arity();
    let back: Vec<usize> = (0..arity).rev().collect();
    let picked = Feed {
        schema: FeedSchema::new(
            "p",
            back.iter()
                .map(|&c| once.schema.columns[c].clone())
                .collect(),
        ),
        rows: once.rows.pick((0..once.len()).step_by(2).collect(), back),
    };
    vec![once, twice, picked]
}

fn format_of(xml: bool) -> WireFormat {
    if xml {
        WireFormat::Xml
    } else {
        WireFormat::Columnar
    }
}

/// Strings that stress a byte-level tokenizer: a multi-byte character on
/// either side of a space, all-space strings, a single trailing space,
/// and (index 0, built by [`stress_string`]) a 5 000-token string.
const STRESS: &[&str] = &[
    "",
    "é ü",
    "naïve café ",
    "日本 語",
    "   ",
    "trailing ",
    " ",
    "ü",
];

fn stress_string(i: usize) -> String {
    match i {
        0 => (0..5_000)
            .map(|k| VOCAB[k % VOCAB.len()])
            .collect::<Vec<_>>()
            .join(" "),
        i => STRESS[i].to_string(),
    }
}

/// Cells as [`cell_strategy`] draws them, with strings from both `VOCAB`
/// and `STRESS`.
fn stress_cell_strategy() -> impl Strategy<Value = Value> {
    (cell_strategy(), 0u8..4, 0usize..VOCAB.len() + STRESS.len()).prop_map(|(cell, kind, word)| {
        match (kind, word.checked_sub(VOCAB.len())) {
            (0, Some(stress)) => Value::Str(stress_string(stress).into()),
            (0, None) => Value::Str(VOCAB[word].into()),
            _ => cell,
        }
    })
}

/// Strings over the alphabet of the codec's golden tokenizer feed:
/// spaces (alone, in runs, leading and trailing), ASCII, and 'é', '€' and
/// '𝄞' at any offset of an 8-byte word, up to 40 characters (160 bytes).
fn tokenizer_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..5, 0..=40).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| [' ', 'a', 'é', '€', '𝄞'][i])
            .collect()
    })
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// An explicit Dewey cell `d` after the column's previous explicit cell
/// `prev`: the common prefix's length, the suffix's length, a zig-zag
/// delta on the diverging component and the rest raw.
fn put_explicit(buf: &mut Vec<u8>, prev: &[u32], d: &[u32]) {
    let lcp = prev.iter().zip(d).take_while(|(a, b)| a == b).count();
    put_varint(buf, lcp as u64);
    put_varint(buf, (d.len() - lcp) as u64);
    if lcp < d.len() {
        let base = prev.get(lcp).copied().unwrap_or(0);
        put_varint(buf, zigzag(d[lcp] as i64 - base as i64));
        for &c in &d[lcp + 1..] {
            put_varint(buf, u64::from(c));
        }
    }
}

/// How a Dewey column of a reference frame derives from another column
/// of its row: `(basis column, true for a parent)`.
type Derivation = Option<(usize, bool)>;

/// Whether `d` derives from the non-root `base`: one component deeper
/// (a child) or one shallower (a parent).
fn derives(base: &[u32], d: &[u32], parent: bool) -> bool {
    let (short, long) = if parent { (d, base) } else { (base, d) };
    !base.is_empty() && long.len() == short.len() + 1 && long.starts_with(short)
}

/// The derivation of column `col`, read off the first row in which it is
/// non-null: a `PARENT` column is its element's `NodeId` column minus one
/// component, a `NodeId` column the first earlier `NodeId` column plus one
/// — each only if that first cell says so.
fn reference_derivation(schema: &FeedSchema, rows: &[Vec<Value>], col: usize) -> Derivation {
    let column = &schema.columns[col];
    let row = rows.iter().find(|row| row[col] != Value::Null)?;
    let Value::Dewey(d) = &row[col] else {
        return None;
    };
    let candidates: Vec<(usize, bool)> = match column.role {
        ColRole::Value => Vec::new(),
        ColRole::ParentRef => schema
            .columns
            .iter()
            .position(|c| c.element == column.element && c.role == ColRole::NodeId)
            .map(|b| (b, true))
            .into_iter()
            .collect(),
        ColRole::NodeId => (0..col)
            .filter(|&b| schema.columns[b].role == ColRole::NodeId)
            .map(|b| (b, false))
            .collect(),
    };
    candidates.into_iter().find(|&(b, parent)| match &row[b] {
        Value::Dewey(base) => derives(base.as_slice(), d.as_slice(), parent),
        _ => false,
    })
}

/// The specification of a columnar frame, written the obvious way: a
/// row-major pass numbers distinct strings and their `split(' ')` tokens
/// in first-occurrence order; each Dewey column's derivation is read off
/// its first non-null row; then the columns that are no parent of their
/// basis and after them those that are, one pass per column for its
/// tags, one for its exception rows and one for its payloads.
fn reference_encode(feed: &Feed) -> Vec<u8> {
    let rows: Vec<Vec<Value>> = feed.rows.clone().into_iter().collect();
    let (schema, rows) = (&feed.schema, &rows[..]);
    let derivations: Vec<Derivation> = (0..schema.arity())
        .map(|col| reference_derivation(schema, rows, col))
        .collect();
    let mut buf = b"XDXCOLF3".to_vec();
    put_str(&mut buf, &schema.root_element);
    put_varint(&mut buf, schema.columns.len() as u64);
    for (c, derivation) in schema.columns.iter().zip(&derivations) {
        put_str(&mut buf, &c.element);
        buf.push(match c.role {
            ColRole::NodeId => 0,
            ColRole::ParentRef => 1,
            ColRole::Value => 2,
        });
        if c.role != ColRole::Value {
            put_varint(
                &mut buf,
                match derivation {
                    None => 0,
                    Some((b, parent)) => 2 * *b as u64 + 1 + u64::from(*parent),
                },
            );
        }
    }
    let digest = word_sum(&buf[8..]);
    buf.extend_from_slice(&digest.to_le_bytes());
    put_varint(&mut buf, rows.len() as u64);

    let mut string_ids: HashMap<&str, u64> = HashMap::new();
    let mut strings: Vec<&str> = Vec::new();
    let mut token_ids: HashMap<&str, u64> = HashMap::new();
    let mut tokens: Vec<&str> = Vec::new();
    for v in rows.iter().flatten() {
        if let Value::Str(s) = v {
            let s = s.as_str();
            if !string_ids.contains_key(s) {
                string_ids.insert(s, strings.len() as u64);
                strings.push(s);
                for tok in s.split(' ') {
                    if !token_ids.contains_key(tok) {
                        token_ids.insert(tok, tokens.len() as u64);
                        tokens.push(tok);
                    }
                }
            }
        }
    }
    put_varint(&mut buf, tokens.len() as u64);
    for t in &tokens {
        put_str(&mut buf, t);
    }
    put_varint(&mut buf, strings.len() as u64);
    for s in &strings {
        put_varint(&mut buf, s.split(' ').count() as u64);
        for tok in s.split(' ') {
            put_varint(&mut buf, token_ids[tok]);
        }
    }

    // A cell derived from its row: `Some(component)` for a child,
    // `Some(None)` for a parent, `None` for an explicit cell.
    let derived = |row: &[Value], col: usize| -> Option<Option<u32>> {
        let (b, parent) = derivations[col]?;
        match (&row[b], &row[col]) {
            (Value::Dewey(base), Value::Dewey(d))
                if derives(base.as_slice(), d.as_slice(), parent) =>
            {
                Some((!parent).then(|| *d.as_slice().last().unwrap()))
            }
            _ => None,
        }
    };
    let parents = (0..schema.arity()).filter(|&c| matches!(derivations[c], Some((_, true))));
    let children = (0..schema.arity()).filter(|&c| !matches!(derivations[c], Some((_, true))));
    for col in children.chain(parents) {
        let mut tags = vec![0u8; rows.len().div_ceil(4)];
        for (i, row) in rows.iter().enumerate() {
            let tag = match &row[col] {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Dewey(_) => 2,
                Value::Str(_) => 3,
            };
            tags[i / 4] |= tag << ((i % 4) * 2);
        }
        buf.extend_from_slice(&tags);
        if derivations[col].is_some() {
            let mut marks = Vec::new();
            let mut next = 0;
            for (i, row) in rows.iter().enumerate() {
                if matches!(row[col], Value::Dewey(_)) && derived(row, col).is_none() {
                    put_varint(&mut marks, (i - next) as u64);
                    next = i + 1;
                }
            }
            put_varint(&mut buf, marks.len() as u64);
            buf.extend_from_slice(&marks);
        }
        let mut prev_int = 0i64;
        let mut prev_dewey: &[u32] = &[];
        for row in rows {
            match &row[col] {
                Value::Null => {}
                Value::Int(i) => {
                    put_varint(&mut buf, zigzag(i.wrapping_sub(prev_int)));
                    prev_int = *i;
                }
                Value::Dewey(d) => match derived(row, col) {
                    Some(Some(k)) => put_varint(&mut buf, u64::from(k)),
                    Some(None) => {}
                    None => {
                        put_explicit(&mut buf, prev_dewey, d.as_slice());
                        prev_dewey = d.as_slice();
                    }
                },
                Value::Str(s) => put_varint(&mut buf, string_ids[s.as_str()]),
            }
        }
    }
    let sum = word_sum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// One row of an outer-union-shaped feed: its instance's id (0–7
/// components: the root, and ids that spill past the five a cell holds in
/// place), per id column a draw of how its cell relates to the row, and
/// the components a child adds.
type DerivedRow = (Vec<u32>, Vec<u8>, Vec<u32>);

fn derived_rows_strategy() -> impl Strategy<Value = Vec<DerivedRow>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u32..4, 0..8),
            proptest::collection::vec(0u8..8, 5..=5),
            proptest::collection::vec(0u32..300, 3..=3),
        ),
        0..40,
    )
}

/// A feed shaped like a fragment's outer union (`a` holds `b`, `b` holds
/// `c`), whose Dewey cells mix every relation to their row: most derive
/// (`a.PARENT` is `a.ID` less a component, `b.ID` is `a.ID` plus one,
/// `c.ID` is `b.ID` plus one), and the rest are `Null`, cells over a
/// `Null`, root or `Int` basis, and ids that derive from nothing.
fn derived_feed(rows: Vec<DerivedRow>) -> Feed {
    let schema = xdx_relational::feed::fragment_feed_schema(
        "a",
        &[
            ("a".to_string(), false),
            ("b".to_string(), true),
            ("c".to_string(), false),
        ],
    );
    let mut feed = Feed::new(schema);
    for (id, kinds, ks) in rows {
        let a = match kinds[1] {
            0 => Value::Null,
            1 => Value::Dewey(Dewey::root()),
            2 => Value::Int(id.len() as i64),
            _ => Value::Dewey(Dewey::from(id.clone())),
        };
        let child = |of: &Value, kind: u8, k: u32| match (kind, of) {
            (0, _) => Value::Null,
            (1, _) => Value::Dewey(Dewey::from([k, k])),
            (2, _) => Value::Str(VOCAB[k as usize % VOCAB.len()].into()),
            (_, Value::Dewey(d)) => Value::Dewey(d.child(k)),
            _ => Value::Dewey(Dewey::from(id.clone()).child(k)),
        };
        let parent = match (kinds[0], &a) {
            (0, _) => Value::Null,
            (1, _) => Value::Dewey(Dewey::from([ks[0]])),
            (_, Value::Dewey(d)) => Value::Dewey(d.parent().unwrap_or_else(Dewey::root)),
            _ => Value::Dewey(Dewey::root()),
        };
        let b = child(&a, kinds[2], ks[1]);
        let c = child(&b, kinds[4], ks[2]);
        let text = match kinds[3] {
            0 => Value::Null,
            k => Value::Str(VOCAB[k as usize].into()),
        };
        feed.rows.push(vec![parent, a, b, text, c]);
    }
    feed
}

/// How [`crafted_frame`] breaks its frame.
#[derive(Clone, Copy, Debug)]
enum Craft {
    Valid,
    NullBasis,
    IntBasis,
    RootBasis,
    BasisOutOfRange,
    ValueColumnBasis,
    SelfBasis,
    Cycle,
    CutChild,
    CutMark,
    MarkOnNull,
    MarkPastEnd,
}

const CRAFTS: [Craft; 12] = [
    Craft::Valid,
    Craft::NullBasis,
    Craft::IntBasis,
    Craft::RootBasis,
    Craft::BasisOutOfRange,
    Craft::ValueColumnBasis,
    Craft::SelfBasis,
    Craft::Cycle,
    Craft::CutChild,
    Craft::CutMark,
    Craft::MarkOnNull,
    Craft::MarkPastEnd,
];

/// Packs two-bit cell tags four to a byte.
fn pack_tags(tags: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0u8; tags.len().div_ceil(4)];
    for (i, tag) in tags.iter().enumerate() {
        bytes[i / 4] |= tag << ((i % 4) * 2);
    }
    bytes
}

/// A frame laid by hand, under a valid checksum: `n` rows of `A`, a
/// `NodeId` column of explicit ids `[1, i]`, and `B`, a `NodeId` column
/// whose every cell derives from `A` (`A` plus `k`, or with `parent` its
/// parent), broken as `craft` says at row `j` or in its schema section
/// (`far` picks an out-of-range column). A cut derived component is a
/// child's.
fn crafted_frame(craft: Craft, n: usize, j: usize, k: u32, parent: bool, far: u64) -> Vec<u8> {
    let j = j % n;
    let relation = |b: u64| 2 * b + 1 + u64::from(parent);
    let (mut a_role, mut a_basis, mut b_basis) = (0u8, 0u64, relation(0));
    let mut a: Vec<Value> = (1..=n as u32)
        .map(|i| Value::Dewey(Dewey::from([1, i])))
        .collect();
    let mut b_tags = vec![2u8; n];
    let mut b_mark = Vec::new();
    match craft {
        Craft::NullBasis => a[j] = Value::Null,
        Craft::IntBasis => a[j] = Value::Int(7),
        Craft::RootBasis => a[j] = Value::Dewey(Dewey::root()),
        Craft::BasisOutOfRange => b_basis = relation(2 + far % (1 << 40)),
        Craft::ValueColumnBasis => {
            a_role = 2;
            a = vec![Value::Null; n];
        }
        Craft::SelfBasis => b_basis = relation(1),
        Craft::Cycle => a_basis = relation(1),
        Craft::MarkOnNull => {
            b_tags[j] = 0;
            put_varint(&mut b_mark, j as u64);
        }
        Craft::MarkPastEnd => put_varint(&mut b_mark, n as u64),
        Craft::Valid | Craft::CutChild | Craft::CutMark => {}
    }

    let mut frame = b"XDXCOLF3".to_vec();
    put_str(&mut frame, "a");
    put_varint(&mut frame, 2);
    for (name, role, basis) in [("a", a_role, a_basis), ("b", 0, b_basis)] {
        put_str(&mut frame, name);
        frame.push(role);
        if role != 2 {
            put_varint(&mut frame, basis);
        }
    }
    let digest = word_sum(&frame[8..]);
    frame.extend_from_slice(&digest.to_le_bytes());
    put_varint(&mut frame, n as u64);
    frame.extend_from_slice(&[0, 0]); // no tokens, no strings

    let tags: Vec<u8> = a
        .iter()
        .map(|v| match v {
            Value::Null => 0,
            Value::Int(_) => 1,
            _ => 2,
        })
        .collect();
    frame.extend_from_slice(&pack_tags(&tags));
    if a_basis != 0 {
        frame.push(0);
    }
    let mut prev: &[u32] = &[];
    for v in &a {
        match v {
            Value::Int(i) => put_varint(&mut frame, zigzag(*i)),
            Value::Dewey(d) => {
                put_explicit(&mut frame, prev, d.as_slice());
                prev = d.as_slice();
            }
            _ => {}
        }
    }
    frame.extend_from_slice(&pack_tags(&b_tags));
    if let Craft::CutMark = craft {
        put_varint(&mut frame, 1 << 20);
    } else {
        put_varint(&mut frame, b_mark.len() as u64);
        frame.extend_from_slice(&b_mark);
    }
    let derived = b_tags.iter().filter(|&&t| t == 2).count();
    if !parent {
        let keep = derived - usize::from(matches!(craft, Craft::CutChild));
        for _ in 0..keep {
            put_varint(&mut frame, u64::from(k));
        }
    }
    let sum = word_sum(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// The feed an unbroken [`crafted_frame`] holds.
fn crafted_feed(n: usize, k: u32, parent: bool) -> Feed {
    let columns = vec![
        FeedColumn::new("a", ColRole::NodeId),
        FeedColumn::new("b", ColRole::NodeId),
    ];
    let mut feed = Feed::new(FeedSchema::new("a", columns));
    for i in 1..=n as u32 {
        let a = Dewey::from([1, i]);
        let b = if parent { Dewey::from([1]) } else { a.child(k) };
        feed.rows.push(vec![Value::Dewey(a), Value::Dewey(b)]);
    }
    feed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dewey columns that mix derived cells, `Null`, root and `Int`
    /// bases, cells that derive from nothing and spilled ids round-trip,
    /// encode to the reference bytes and re-encode to the same frame.
    #[test]
    fn derived_dewey_cells_roundtrip(rows in derived_rows_strategy()) {
        let feed = derived_feed(rows);
        let frame = encode_feed(&feed);
        prop_assert_eq!(&frame, &reference_encode(&feed));
        let back = decode_feed(&frame).expect("intact frame decodes");
        prop_assert_eq!(&back, &feed);
        prop_assert_eq!(encode_feed(&back), frame);
    }

    /// A derived cell over a `Null`, `Int` or root basis cell, a basis out
    /// of range, of a value column, of the column itself or in a cycle, a
    /// derived component or an exception mark cut short, and a mark on a
    /// `Null` cell or past the last row: each is a decode error under a
    /// valid checksum, never a panic; the same frame unbroken decodes.
    #[test]
    fn crafted_derived_cells_are_decode_errors(
        craft in 0usize..CRAFTS.len(),
        n in 1usize..10,
        j in any::<usize>(),
        k in any::<u32>(),
        parent in any::<bool>(),
        far in any::<u64>(),
    ) {
        let craft = CRAFTS[craft];
        let parent = parent && !matches!(craft, Craft::CutChild);
        let valid = crafted_frame(Craft::Valid, n, j, k, parent, far);
        prop_assert_eq!(decode_feed(&valid).expect("valid frame"), crafted_feed(n, k, parent));
        if !matches!(craft, Craft::Valid) {
            let frame = crafted_frame(craft, n, j, k, parent, far);
            prop_assert!(decode_feed(&frame).is_err(), "{:?} decoded", craft);
            prop_assert!(decode_any(&frame).is_err(), "{:?} decoded", craft);
        }
    }

    #[test]
    fn containers_roundtrip_their_parts(
        columnar in feeds_strategy(),
        text in feeds_strategy(),
    ) {
        // Empty feeds and zero-arity feeds are parts like any other;
        // each part's frame sits in the container exactly as the
        // single-feed encoder writes it.
        for (feeds, format) in [(&columnar, WireFormat::Columnar), (&text, WireFormat::Xml)] {
            let (body, header) = container_of(feeds, format);
            prop_assert!(is_container(&body));
            let mut at = header;
            let mut frame = Vec::new();
            for feed in feeds {
                encode_in_format_into(&mut frame, feed, format);
                prop_assert_eq!(&body[at..at + frame.len()], &frame[..]);
                at += frame.len();
            }
            prop_assert_eq!(at, body.len());
            let parts = decode_parts(&body).expect("intact container decodes");
            prop_assert_eq!(parts.len(), feeds.len());
            for (i, ((label, back), feed)) in parts.iter().zip(feeds).enumerate() {
                prop_assert_eq!(label.as_deref(), Some(format!("part-{i}").as_str()));
                prop_assert_eq!(back, feed);
            }
            // A container is not a feed.
            prop_assert!(decode_any(&body).is_err());
        }
    }

    #[test]
    fn a_single_part_is_the_bare_frame(
        ncols in 1usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
        xml in any::<bool>(),
    ) {
        // A message of one part is byte for byte what the single-feed
        // encoder writes, and the sniffing decoder hands it back as one
        // unlabelled part.
        let feed = build_feed(ncols, &roles, rows);
        let format = format_of(xml);
        let part = FeedPart { label: "only", schema: &feed.schema, rows: feed.rows.slice(..) };
        let mut body = Vec::new();
        let frames = encode_parts_into(&mut body, &[part], format);
        let mut frame = Vec::new();
        encode_in_format_into(&mut frame, &feed, format);
        prop_assert_eq!(&body, &frame);
        prop_assert_eq!(frames, frame.len());
        prop_assert!(!is_container(&body));
        let parts = decode_parts(&body).expect("bare frame decodes");
        prop_assert_eq!(parts, vec![(None, feed)]);
    }

    #[test]
    fn damaged_containers_are_always_rejected(
        columnar in feeds_strategy(),
        text in feeds_strategy(),
        pos in 0usize..1_000_000,
        cut in 1usize..600,
        extra in proptest::collection::vec(any::<u8>(), 1..9),
    ) {
        for (feeds, format) in [(&columnar, WireFormat::Columnar), (&text, WireFormat::Xml)] {
            let (body, header) = container_of(feeds, format);
            // Any single bit, anywhere: header bits fail the header's
            // checksum, frame bits fail the frame's own — a text frame's
            // `#sum` line has one spelling, so a flip there fails too.
            let bit = pos % (body.len() * 8);
            let mut damaged = body.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode_parts(&damaged).is_err(), "{} bit {} went undetected", format, bit);
            // Truncated anywhere, or followed by anything.
            let cut = cut.min(body.len());
            prop_assert!(decode_parts(&body[..body.len() - cut]).is_err());
            let mut padded = body.clone();
            padded.extend_from_slice(&extra);
            prop_assert!(decode_parts(&padded).is_err());
            // Lying lengths under a valid checksum: the header of a
            // container whose first part lost its last row, over these
            // frames. (A zero-arity row takes no bytes: same header.)
            let mut shorter = feeds.clone();
            let keep = shorter[0].len().saturating_sub(1);
            shorter[0].rows = shorter[0].rows.slice(..keep).to_rows();
            let (other, other_header) = container_of(&shorter, format);
            if other[..other_header] != body[..header] {
                let mut lying = other[..other_header].to_vec();
                lying.extend_from_slice(&body[header..]);
                prop_assert!(decode_parts(&lying).is_err());
            }
        }
    }

    #[test]
    fn the_parts_decoder_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = decode_parts(&bytes);
        // Past the sniff: arbitrary bytes behind the container magic.
        let mut behind_magic = CONTAINER_MAGIC.to_vec();
        behind_magic.extend_from_slice(&bytes);
        let _ = decode_parts(&behind_magic);
    }

    #[test]
    fn arbitrary_feeds_roundtrip_byte_exactly(
        ncols in 0usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
    ) {
        let feed = build_feed(ncols, &roles, rows);
        let frame = encode_feed(&feed);
        prop_assert!(is_columnar(&frame));
        let back = decode_feed(&frame).expect("intact frame decodes");
        prop_assert_eq!(&back, &feed);
        // The encoding is canonical: re-encoding the decoded feed
        // reproduces the frame byte for byte.
        prop_assert_eq!(encode_feed(&back), frame.clone());
        // The sniffing decoder takes the columnar path on the magic.
        prop_assert_eq!(decode_any(&frame).expect("sniffed decode"), feed);
    }

    #[test]
    fn both_formats_decode_to_the_same_feed(
        ncols in 0usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
    ) {
        // The negotiation fallback ships XML text on the same link that
        // carries columnar frames; `decode_any` must recover the
        // identical feed from either body.
        let feed = build_feed(ncols, &roles, rows);
        let mut xml = Vec::new();
        let mut col = Vec::new();
        encode_in_format_into(&mut xml, &feed, WireFormat::Xml);
        encode_in_format_into(&mut col, &feed, WireFormat::Columnar);
        prop_assert!(!is_columnar(&xml));
        prop_assert!(is_columnar(&col));
        prop_assert_eq!(decode_any(&xml).expect("xml body"), feed.clone());
        prop_assert_eq!(decode_any(&col).expect("columnar body"), feed);
    }

    #[test]
    fn chaos_link_corruption_is_always_detected(
        ncols in 0usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
        seed in any::<u64>(),
        burst in 1usize..32,
    ) {
        // Reuse the chaos harness's corruption model verbatim: a link
        // with corrupt_probability 1.0 XORs a seeded burst of nonzero
        // masks somewhere in the frame. Wherever it lands — magic,
        // schema, dictionary, payload, checksum — the decoder must
        // reject the frame.
        let feed = build_feed(ncols, &roles, rows);
        let frame = encode_feed(&feed);
        let mut link = Link::new(NetworkProfile::lan()).with_fault_profile(FaultProfile {
            corrupt_probability: 1.0,
            corrupt_burst: burst,
            ..FaultProfile::healthy()
        }.with_seed(seed));
        let (_, delivery) = link.transmit_faulty("proptest", &frame);
        match delivery {
            Delivery::Corrupted(damaged) => {
                prop_assert_ne!(&damaged, &frame);
                prop_assert!(decode_feed(&damaged).is_err());
                prop_assert!(decode_any(&damaged).is_err());
            }
            other => prop_assert!(false, "corrupt_probability 1.0 yielded {:?}", other),
        }
    }

    #[test]
    fn single_bit_flips_are_always_detected(
        ncols in 0usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
        pos in 0usize..1_000_000,
    ) {
        let feed = build_feed(ncols, &roles, rows);
        let frame = encode_feed(&feed);
        let bit = pos % (frame.len() * 8);
        let mut damaged = frame.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_feed(&damaged).is_err());
        prop_assert!(decode_any(&damaged).is_err());
    }

    #[test]
    fn truncated_frames_are_rejected(
        ncols in 0usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
        cut in 1usize..600,
    ) {
        let feed = build_feed(ncols, &roles, rows);
        let frame = encode_feed(&feed);
        let cut = cut.min(frame.len());
        prop_assert!(decode_feed(&frame[..frame.len() - cut]).is_err());
    }

    #[test]
    fn truncated_text_frames_are_rejected(
        ncols in 0usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
        cut in 1usize..600,
    ) {
        // A text frame cut short must not read as the shorter feed its
        // first rows spell: the received frame carries its `#sum` line.
        let feed = build_feed(ncols, &roles, rows);
        let mut frame = Vec::new();
        encode_in_format_into(&mut frame, &feed, WireFormat::Xml);
        let cut = cut.min(frame.len());
        prop_assert!(decode_any(&frame[..frame.len() - cut]).is_err());
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = decode_feed(&bytes);
        let _ = decode_any(&bytes);
    }

    #[test]
    fn the_one_pass_encoder_writes_the_reference_bytes(
        ncols in 0usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in proptest::collection::vec(
            proptest::collection::vec(stress_cell_strategy(), MAX_ARITY..=MAX_ARITY),
            0..25,
        ),
    ) {
        let feed = build_feed(ncols, &roles, rows);
        let mut frame = Vec::new();
        encode_in_format_into(&mut frame, &feed, WireFormat::Columnar);
        prop_assert_eq!(&frame, &reference_encode(&feed));
        prop_assert_eq!(decode_any(&frame).expect("intact frame decodes"), feed);
    }

    /// Strings over the tokenizer's alphabet, each repeated in any order,
    /// encode to the reference bytes and round-trip.
    #[test]
    fn strings_over_the_tokenizer_alphabet_roundtrip(
        strings in proptest::collection::vec(tokenizer_string(), 1..40),
        picks in proptest::collection::vec(any::<usize>(), 0..80),
    ) {
        let schema = FeedSchema::new(
            "s",
            vec![FeedColumn::new("s", ColRole::NodeId), FeedColumn::new("v", ColRole::Value)],
        );
        let mut feed = Feed::new(schema);
        feed.rows = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let s = strings[p % strings.len()].as_str();
                vec![Value::Dewey(Dewey::from([1, i as u32])), Value::Str(s.into())]
            })
            .collect();
        let mut frame = Vec::new();
        encode_in_format_into(&mut frame, &feed, WireFormat::Columnar);
        prop_assert_eq!(&frame, &reference_encode(&feed));
        prop_assert_eq!(decode_any(&frame).expect("intact frame decodes"), feed);
    }

    /// A view (rows picked in any order, repeats allowed, each projected
    /// to columns in any order) encodes, whole and by runs, to the bytes
    /// its materialised copy encodes to, in both formats; a view of the
    /// view too, and Combine views with `Null`-padded and skeleton rows
    /// ([`combine_views`]).
    #[test]
    fn a_view_encodes_to_its_copys_bytes(
        ncols in 1usize..=MAX_ARITY,
        roles in roles_strategy(),
        rows in rows_strategy(),
        picks in proptest::collection::vec(any::<usize>(), 0..30),
        cols in proptest::collection::vec(any::<usize>(), 0..8),
        cut in any::<usize>(),
    ) {
        let feed = build_feed(ncols, &roles, rows);
        let picks: Vec<usize> = if feed.is_empty() {
            Vec::new()
        } else {
            picks.into_iter().map(|p| p % feed.len()).collect()
        };
        let cols: Vec<usize> = cols.into_iter().map(|c| c % ncols).collect();
        let schema = FeedSchema::new(
            "site",
            cols.iter().map(|&c| feed.schema.columns[c].clone()).collect(),
        );
        let view = Feed { schema: schema.clone(), rows: feed.rows.pick(picks.clone(), cols.clone()) };
        // Again over the view: every other row, the columns reversed.
        let again: Vec<usize> = (0..view.len()).step_by(2).collect();
        let back: Vec<usize> = (0..cols.len()).rev().collect();
        let nested = Feed {
            schema: FeedSchema::new("site", back.iter().map(|&c| schema.columns[c].clone()).collect()),
            rows: view.rows.pick(again, back),
        };
        let combined = combine_views(&feed);
        for view in [view, nested].into_iter().chain(combined) {
            let mut copy = view.clone();
            copy.rows.materialize();
            prop_assert!(!Rows::ptr_eq(&copy.rows, &view.rows));
            let cut = if view.is_empty() { 0 } else { cut % view.len() };
            for xml in [true, false] {
                let format = format_of(xml);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                encode_in_format_into(&mut a, &view, format);
                encode_in_format_into(&mut b, &copy, format);
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&decode_any(&a).expect("intact frame decodes"), &copy);
                for range in [0..cut, cut..view.len()] {
                    let schema = &view.schema;
                    encode_rows_in_format_into(&mut a, schema, view.rows.slice(range.clone()), format);
                    encode_rows_in_format_into(&mut b, schema, copy.rows.slice(range), format);
                    prop_assert_eq!(&a, &b);
                }
            }
            prop_assert_eq!(&view, &copy);
        }
    }
}
