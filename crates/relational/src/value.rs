//! Values and Dewey identifiers.
//!
//! Element-instance identifiers are *Dewey paths* — the same identifier
//! scheme the paper's LDAP data model uses for distinguished names ("DN ...
//! corresponds to the Dewey identifier of a node in the tree instance").
//! Dewey order is document order, which keeps every feed sorted without
//! tracking a separate sequence number.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Components a [`Dewey`] holds in place. A constant, not a knob: it is
/// what fits in a 24-byte id — the size of the [`Text`] a [`Value`]
/// also carries, so a cell stays 32 bytes — and XMark ids are at most
/// four deep.
const INLINE: usize = 5;

/// Where the components live. `Spilled` holds paths longer than
/// [`INLINE`] and only those, so one path has one spelling.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u32; INLINE] },
    Spilled(Box<[u32]>),
}

/// A Dewey path: the position of a node in a tree instance.
///
/// The root is `[]`; its third child is `[3]`; that child's first child is
/// `[3, 1]`. Ordering is lexicographic component-wise, i.e. document order
/// (pre-order), with a parent sorting before its descendants.
///
/// A path of up to five components is stored in place — building,
/// cloning or dropping one touches no heap — and a deeper one spills to
/// one exact-size block. Equality, order and hash are those of the
/// component slice.
#[derive(Clone)]
pub struct Dewey(Repr);

impl Dewey {
    /// The root path.
    pub fn root() -> Dewey {
        Dewey(Repr::Inline {
            len: 0,
            buf: [0; INLINE],
        })
    }

    /// The components, root first.
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Spilled(path) => path,
        }
    }

    /// Appends one component.
    pub fn push(&mut self, n: u32) {
        match &mut self.0 {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf[usize::from(*len)] = n;
                *len += 1;
            }
            _ => self.0 = Repr::Spilled(self.as_slice().iter().copied().chain([n]).collect()),
        }
    }

    /// Child path at 1-based ordinal `n`.
    pub fn child(&self, n: u32) -> Dewey {
        let mut child = self.clone();
        child.push(n);
        child
    }

    /// Parent path; `None` for the root.
    pub fn parent(&self) -> Option<Dewey> {
        let (_, ancestors) = self.as_slice().split_last()?;
        Some(Dewey::from(ancestors))
    }

    /// Depth (number of components).
    pub fn depth(&self) -> usize {
        self.as_slice().len()
    }

    /// True when `self` is an ancestor of `other` (or equal).
    pub fn is_prefix_of(&self, other: &Dewey) -> bool {
        other.as_slice().starts_with(self.as_slice())
    }

    /// Parses dotted text (`"1.3.2"`; empty string = root).
    pub fn parse(s: &str) -> Option<Dewey> {
        let mut path = Vec::new();
        let end = parse_dotted_into(s.as_bytes(), &mut path)?;
        (end == s.len()).then(|| Dewey::from(&path[..]))
    }

    /// Approximate serialized size in bytes (for communication costing).
    pub fn wire_len(&self) -> usize {
        let path = self.as_slice();
        if path.is_empty() {
            0
        } else {
            path.iter().map(|c| digits(u64::from(*c))).sum::<usize>() + path.len() - 1
        }
    }
}

/// Appends the components of the dotted id at the start of `bytes` to
/// `path`, digit by digit, and returns where the id ends: at the first
/// tab or newline, or at the end of `bytes`. An empty id appends nothing. `None`
/// when the id is not dotted decimal — each component is `u32` text as
/// `str::parse` reads it: an optional `+`, then one or more digits.
/// Linear in the text however deep the id goes: `path` grows in place.
pub(crate) fn parse_dotted_into(bytes: &[u8], path: &mut Vec<u32>) -> Option<usize> {
    if matches!(bytes.first(), None | Some(b'\t' | b'\n')) {
        return Some(0);
    }
    let mut at = 0;
    loop {
        at += usize::from(bytes.get(at) == Some(&b'+'));
        let digits = at;
        let mut n: u32 = 0;
        while let Some(d) = bytes
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            n = n.checked_mul(10)?.checked_add(u32::from(d))?;
            at += 1;
        }
        if at == digits {
            return None;
        }
        path.push(n);
        match bytes.get(at) {
            None | Some(b'\t' | b'\n') => return Some(at),
            Some(b'.') => at += 1,
            Some(_) => return None,
        }
    }
}

impl Default for Dewey {
    fn default() -> Self {
        Dewey::root()
    }
}

impl From<&[u32]> for Dewey {
    fn from(path: &[u32]) -> Dewey {
        if path.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..path.len()].copy_from_slice(path);
            Dewey(Repr::Inline {
                len: path.len() as u8,
                buf,
            })
        } else {
            Dewey(Repr::Spilled(path.into()))
        }
    }
}

impl<const N: usize> From<[u32; N]> for Dewey {
    fn from(path: [u32; N]) -> Dewey {
        Dewey::from(&path[..])
    }
}

impl From<Vec<u32>> for Dewey {
    fn from(path: Vec<u32>) -> Dewey {
        Dewey::from(&path[..])
    }
}

impl fmt::Debug for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Dewey").field(&self.as_slice()).finish()
    }
}

impl PartialEq for Dewey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Dewey {}

impl Hash for Dewey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

fn digits(mut n: u64) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

impl PartialOrd for Dewey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dewey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Display for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Bytes a [`Text`] holds in place. A constant, not a knob: it is what
/// fits beside a length byte and the variant tag in the 24 bytes a
/// [`Dewey`] takes, so a cell stays 32 bytes.
const INLINE_TEXT: usize = 22;

/// Where the bytes live. `Heap` holds text longer than [`INLINE_TEXT`]
/// and only such text, so one string has one spelling.
#[derive(Clone)]
enum TextRepr {
    Inline { len: u8, buf: [u8; INLINE_TEXT] },
    Heap(Box<str>),
}

/// The text of a string cell: UTF-8, immutable once built.
///
/// Up to 22 bytes are stored in place — building, cloning or dropping a
/// short string touches no heap — and a longer one is one exact-size
/// block. Equality, order and hash are those of the bytes, which are the
/// `str`'s: the hash feeds `write(bytes)` then `write_u8(0xff)` exactly
/// as `str` does. Reading the bytes ([`Text::as_bytes`]) is free; reading
/// a short text as a `str` ([`Text::as_str`]) checks its UTF-8, so the
/// hot paths — compare, hash, both encoders — read bytes.
#[derive(Clone)]
pub struct Text(TextRepr);

impl Text {
    /// The bytes, always UTF-8.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            TextRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            TextRepr::Heap(s) => s.as_bytes(),
        }
    }

    /// The text as a `str`. In place, this checks the (at most 22) bytes
    /// are UTF-8, which they always are.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            TextRepr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("a Text holds UTF-8")
            }
            TextRepr::Heap(s) => s,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        if s.len() <= INLINE_TEXT {
            let mut buf = [0; INLINE_TEXT];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Text(TextRepr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            Text(TextRepr::Heap(s.into()))
        }
    }
}

impl From<String> for Text {
    /// Moves a long string's block in (shrunk to fit); copies a short one
    /// in place.
    fn from(s: String) -> Text {
        if s.len() <= INLINE_TEXT {
            Text::from(s.as_str())
        } else {
            Text(TextRepr::Heap(s.into_boxed_str()))
        }
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

/// A column value.
///
/// Ordering ranks variants `Null < Int < Dewey < Str` so heterogeneous
/// sorts are total; within a variant the natural order applies. NULLs first
/// matches the outer-join padding semantics of sorted feeds.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// Absent (outer-join padding, optional elements).
    #[default]
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Node identifier.
    Dewey(Dewey),
    /// Text.
    Str(Text),
}

impl Value {
    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow as Dewey if that's what this is.
    pub fn as_dewey(&self) -> Option<&Dewey> {
        match self {
            Value::Dewey(d) => Some(d),
            _ => None,
        }
    }

    /// Borrow as str if that's what this is (a UTF-8 check on a short
    /// string: see [`Text::as_str`]).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes, used for communication cost
    /// (paper: `comm_cost(e) = size(OP1.out)`).
    pub fn wire_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(i) => {
                let neg = usize::from(*i < 0);
                digits(i.unsigned_abs()) + neg
            }
            Value::Dewey(d) => d.wire_len(),
            Value::Str(s) => s.len(),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Dewey(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Dewey(a), Value::Dewey(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("∅"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Dewey(d) => write!(f, "{d}"),
            Value::Str(s) => f.write_str(s.as_str()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Dewey> for Value {
    fn from(v: Dewey) -> Self {
        Value::Dewey(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dewey_navigation() {
        let d = Dewey::root().child(1).child(3);
        assert_eq!(d.to_string(), "1.3");
        assert_eq!(d.depth(), 2);
        assert_eq!(d.parent().unwrap().to_string(), "1");
        assert_eq!(Dewey::root().parent(), None);
    }

    #[test]
    fn a_cell_is_no_wider_than_a_string_cell() {
        assert_eq!(std::mem::size_of::<Dewey>(), 24);
        assert_eq!(std::mem::size_of::<Text>(), 24);
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    /// Characters of one to four UTF-8 bytes, so that a run of them
    /// straddles byte 22 at every offset.
    const CHARS: [char; 8] = ['a', ' ', 'z', '\t', 'é', 'ß', '€', '𝄞'];

    /// A string of 0–40 bytes drawn from [`CHARS`].
    fn text_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..CHARS.len(), 0..=40).prop_map(|picks| {
            let mut s = String::new();
            for c in picks.into_iter().map(|i| CHARS[i]) {
                if s.len() + c.len_utf8() > 40 {
                    break;
                }
                s.push(c);
            }
            s
        })
    }

    fn std_hash(v: &(impl Hash + ?Sized)) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A `Text` is its `str`: built from a `&str` or a `String`, it
        /// reads back the same, compares and orders as `str` does, hashes
        /// to `str`'s hash, and is on the heap exactly past 22 bytes.
        #[test]
        fn text_is_its_str(a in text_strategy(), b in text_strategy()) {
            let (ta, tb) = (Text::from(a.as_str()), Text::from(b.clone()));
            prop_assert_eq!(ta.as_str(), a.as_str());
            prop_assert_eq!(ta.as_bytes(), a.as_bytes());
            prop_assert_eq!(tb.as_str(), b.as_str());
            prop_assert_eq!(ta.len(), a.len());
            prop_assert_eq!(ta == tb, a == b);
            prop_assert_eq!(ta.cmp(&tb), a.as_str().cmp(b.as_str()));
            prop_assert_eq!(std_hash(&ta), std_hash(a.as_str()));
            prop_assert_eq!(std_hash(&tb), std_hash(b.as_str()));
            prop_assert_eq!(matches!(ta.0, TextRepr::Heap(_)), a.len() > INLINE_TEXT);
            prop_assert_eq!(matches!(tb.0, TextRepr::Heap(_)), b.len() > INLINE_TEXT);
            prop_assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        }
    }

    #[test]
    fn text_spills_exactly_past_22_bytes() {
        for n in 0..=40 {
            let s = "x".repeat(n);
            for t in [Text::from(s.as_str()), Text::from(s.clone())] {
                assert_eq!(matches!(t.0, TextRepr::Heap(_)), n > 22, "{n}");
                assert_eq!(t.as_str(), s);
            }
        }
        // A two-byte character ending at byte 22 stays in place; one
        // ending at byte 23 does not.
        let fits = format!("{}é", "x".repeat(20));
        let spills = format!("{}é", "x".repeat(21));
        assert!(matches!(
            Text::from(fits.as_str()).0,
            TextRepr::Inline { .. }
        ));
        assert!(matches!(Text::from(spills.as_str()).0, TextRepr::Heap(_)));
    }

    #[test]
    fn dewey_spills_past_its_inline_depth_and_comes_back() {
        let mut d = Dewey::root();
        let mut model = Vec::new();
        for n in 1..=12 {
            d = d.child(n);
            model.push(n);
            assert_eq!(d.as_slice(), &model[..]);
            assert_eq!(matches!(d.0, Repr::Spilled(_)), model.len() > INLINE);
        }
        assert_eq!(d.to_string(), "1.2.3.4.5.6.7.8.9.10.11.12");
        while let Some(up) = d.parent() {
            model.pop();
            assert_eq!(up, Dewey::from(model.clone()));
            assert_eq!(matches!(up.0, Repr::Spilled(_)), model.len() > INLINE);
            assert!(up < d && up.is_prefix_of(&d));
            d = up;
        }
        assert_eq!(d, Dewey::root());
    }

    #[test]
    fn dewey_document_order() {
        let parent = Dewey::from([1]);
        let first = Dewey::from([1, 1]);
        let second = Dewey::from([1, 2]);
        let tenth = Dewey::from([1, 10]);
        assert!(parent < first); // parent precedes descendants
        assert!(first < second);
        assert!(second < tenth); // numeric, not lexicographic-by-string
        assert!(parent.is_prefix_of(&tenth));
        assert!(!first.is_prefix_of(&second));
    }

    #[test]
    fn dewey_parse_roundtrip() {
        for s in ["", "1", "1.2.3", "10.20.300"] {
            assert_eq!(Dewey::parse(s).unwrap().to_string(), s);
        }
        assert!(Dewey::parse("1..2").is_none());
        assert!(Dewey::parse("a.b").is_none());
    }

    #[test]
    fn value_ordering_is_total() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Null,
            Value::Int(5),
            Value::Dewey(Dewey::from([2])),
            Value::Int(-1),
            Value::Str("a".into()),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(vals[5], Value::Str("b".into()));
    }

    #[test]
    fn wire_len_reasonable() {
        assert_eq!(Value::Int(1234).wire_len(), 4);
        assert_eq!(Value::Int(-7).wire_len(), 2);
        assert_eq!(Value::Str("hello".into()).wire_len(), 5);
        assert_eq!(Value::Dewey(Dewey::from([1, 23])).wire_len(), 4); // "1.23"
        assert_eq!(Value::Null.wire_len(), 1);
    }

    #[test]
    fn wire_len_counts_every_digit_of_wide_ints() {
        for i in [i64::MIN, i64::MAX, u32::MAX as i64 + 1, 12345678901234] {
            assert_eq!(Value::Int(i).wire_len(), i.to_string().len(), "{i}");
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert!(Value::from(Dewey::root()).as_dewey().is_some());
    }
}
