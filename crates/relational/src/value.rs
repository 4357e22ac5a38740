//! Values and Dewey identifiers.
//!
//! Element-instance identifiers are *Dewey paths* — the same identifier
//! scheme the paper's LDAP data model uses for distinguished names ("DN ...
//! corresponds to the Dewey identifier of a node in the tree instance").
//! Dewey order is document order, which keeps every feed sorted without
//! tracking a separate sequence number.

use std::cmp::Ordering;
use std::fmt;

/// A Dewey path: the position of a node in a tree instance.
///
/// The root is `[]`; its third child is `[3]`; that child's first child is
/// `[3, 1]`. Ordering is lexicographic component-wise, i.e. document order
/// (pre-order), with a parent sorting before its descendants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Dewey(pub Vec<u32>);

impl Dewey {
    /// The root path.
    pub fn root() -> Dewey {
        Dewey(Vec::new())
    }

    /// Child path at 1-based ordinal `n`.
    pub fn child(&self, n: u32) -> Dewey {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(n);
        Dewey(v)
    }

    /// Parent path; `None` for the root.
    pub fn parent(&self) -> Option<Dewey> {
        if self.0.is_empty() {
            None
        } else {
            Some(Dewey(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Depth (number of components).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// True when `self` is an ancestor of `other` (or equal).
    pub fn is_prefix_of(&self, other: &Dewey) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Parses dotted text (`"1.3.2"`; empty string = root).
    pub fn parse(s: &str) -> Option<Dewey> {
        if s.is_empty() {
            return Some(Dewey::root());
        }
        s.split('.')
            .map(|p| p.parse::<u32>().ok())
            .collect::<Option<Vec<_>>>()
            .map(Dewey)
    }

    /// Approximate serialized size in bytes (for communication costing).
    pub fn wire_len(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0.iter().map(|c| digits(u64::from(*c))).sum::<usize>() + self.0.len() - 1
        }
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
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
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
    Str(String),
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

    /// Borrow as str if that's what this is.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
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
            Value::Str(s) => f.write_str(s),
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
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
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

    #[test]
    fn dewey_navigation() {
        let d = Dewey::root().child(1).child(3);
        assert_eq!(d.to_string(), "1.3");
        assert_eq!(d.depth(), 2);
        assert_eq!(d.parent().unwrap().to_string(), "1");
        assert_eq!(Dewey::root().parent(), None);
    }

    #[test]
    fn dewey_document_order() {
        let parent = Dewey(vec![1]);
        let first = Dewey(vec![1, 1]);
        let second = Dewey(vec![1, 2]);
        let tenth = Dewey(vec![1, 10]);
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
            Value::Dewey(Dewey(vec![2])),
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
        assert_eq!(Value::Dewey(Dewey(vec![1, 23])).wire_len(), 4); // "1.23"
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
