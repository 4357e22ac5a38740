//! # xdx-directory — an LDAP-like directory store
//!
//! The motivating example of the paper (Section 1.1) exchanges data from a
//! relational sales system into a *provisioning system backed by an LDAP
//! directory* whose schema `T` declares object classes such as
//! `CUSTOMER_T` and `ORDER_SERVICE_T`. This crate implements that consumer:
//!
//! * the LDAP data model of [Howes, Smith & Good]: a tree instance where
//!   every entry has a `DN` ("the Dewey identifier of a node in the tree
//!   instance") and an `objectclass`,
//! * object classes with `MUST CONTAIN` attribute lists,
//! * bulk loading of fragment feeds — one object class per fragment, one
//!   entry per fragment instance — which is what `Write` means on a
//!   directory-backed target.
//!
//! The exchange middleware never sees any of this: it talks feeds, and the
//! directory decides how to store them ("the way each fragment is actually
//! produced or consumed by a system is hidden by the WSDL interface").

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use xdx_relational::feed::{ReadRows, Row};
use xdx_relational::{ColRole, Counters, Dewey, Feed, FeedSchema, Value};

/// Errors raised by the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Object class not declared in the schema.
    UnknownClass { name: String },
    /// An entry is missing a MUST CONTAIN attribute.
    MissingAttribute { class: String, attribute: String },
    /// Two entries with the same DN.
    DuplicateDn { dn: String },
    /// Feed layout incompatible with the class.
    BadFeed { detail: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownClass { name } => write!(f, "unknown object class {name:?}"),
            Error::MissingAttribute { class, attribute } => {
                write!(
                    f,
                    "entry of class {class:?} missing MUST CONTAIN attribute {attribute:?}"
                )
            }
            Error::DuplicateDn { dn } => write!(f, "duplicate DN {dn}"),
            Error::BadFeed { detail } => write!(f, "feed incompatible with class: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Declared attribute types (the paper's schema `T` uses STRING only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttrType {
    /// A string attribute.
    #[default]
    String,
    /// A distinguished-name-valued attribute.
    Dn,
}

/// An object class declaration: `OBJECT-CLASS MUST CONTAIN DN, ...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectClass {
    /// Class name (`CUSTOMER_T`).
    pub name: String,
    /// Required attributes besides `DN`/`objectclass` (which are implied).
    pub must_contain: Vec<(String, AttrType)>,
}

impl ObjectClass {
    /// Declares a class whose required attributes are all strings.
    pub fn strings(name: &str, attrs: &[&str]) -> ObjectClass {
        ObjectClass {
            name: name.to_string(),
            must_contain: attrs
                .iter()
                .map(|a| (a.to_string(), AttrType::String))
                .collect(),
        }
    }
}

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Distinguished name: the Dewey identifier of this node.
    pub dn: Dewey,
    /// DN of the logical parent entry (an ancestor node in the document
    /// tree, possibly stored under a different class).
    pub parent: Option<Dewey>,
    /// Object class of this entry.
    pub object_class: String,
    /// Attribute values.
    pub attributes: Vec<(String, String)>,
}

impl Entry {
    /// Value of attribute `name`, if set.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An LDAP-style attribute filter (the common subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchFilter {
    /// `(attr=*)` — the attribute is present.
    Present(String),
    /// `(attr=value)` — exact match.
    Equals(String, String),
    /// `(attr=*value*)` — substring match.
    Contains(String, String),
    /// `(objectclass=value)` — class match.
    Class(String),
    /// `(&(f1)(f2)...)` — conjunction.
    And(Vec<SearchFilter>),
    /// `(|(f1)(f2)...)` — disjunction.
    Or(Vec<SearchFilter>),
}

impl SearchFilter {
    /// Evaluates the filter against one entry.
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            SearchFilter::Present(a) => entry.attr(a).is_some(),
            SearchFilter::Equals(a, v) => entry.attr(a) == Some(v.as_str()),
            SearchFilter::Contains(a, v) => entry.attr(a).is_some_and(|x| x.contains(v.as_str())),
            SearchFilter::Class(c) => &entry.object_class == c,
            SearchFilter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            SearchFilter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
        }
    }
}

/// The directory: schema + tree of entries.
#[derive(Debug, Default)]
pub struct Directory {
    /// System name.
    pub name: String,
    classes: BTreeMap<String, ObjectClass>,
    entries: BTreeMap<Dewey, Entry>,
    /// Work counters (same probe interface as the relational engine).
    pub counters: Counters,
}

impl Directory {
    /// An empty directory.
    pub fn new(name: impl Into<String>) -> Directory {
        Directory {
            name: name.into(),
            classes: BTreeMap::new(),
            entries: BTreeMap::new(),
            counters: Counters::new(),
        }
    }

    /// Declares an object class.
    pub fn declare_class(&mut self, class: ObjectClass) {
        self.classes.insert(class.name.clone(), class);
    }

    /// Declared class names.
    pub fn class_names(&self) -> Vec<&str> {
        self.classes.keys().map(String::as_str).collect()
    }

    /// Adds one entry, validating its class's MUST CONTAIN list.
    pub fn add_entry(&mut self, entry: Entry) -> Result<()> {
        let class = self
            .classes
            .get(&entry.object_class)
            .ok_or_else(|| Error::UnknownClass {
                name: entry.object_class.clone(),
            })?;
        for (attr, _) in &class.must_contain {
            if entry.attr(attr).is_none() {
                return Err(Error::MissingAttribute {
                    class: class.name.clone(),
                    attribute: attr.clone(),
                });
            }
        }
        if self.entries.contains_key(&entry.dn) {
            return Err(Error::DuplicateDn {
                dn: entry.dn.to_string(),
            });
        }
        self.counters.rows_written += 1;
        self.entries.insert(entry.dn.clone(), entry);
        Ok(())
    }

    /// Bulk-loads a fragment feed as entries of `class`.
    ///
    /// The feed's root `NodeId` becomes the DN, its `ParentRef` the parent
    /// DN, and each `Value` column an attribute named after its element.
    /// This is `Write` on a directory target.
    pub fn load_feed(&mut self, class_name: &str, feed: &Feed) -> Result<usize> {
        if !self.classes.contains_key(class_name) {
            return Err(Error::UnknownClass {
                name: class_name.to_string(),
            });
        }
        let load = Load(self, class_name, &feed.schema);
        feed.rows.slice(..).read(load)
    }

    /// Entry at `dn`.
    pub fn entry(&self, dn: &Dewey) -> Option<&Entry> {
        self.entries.get(dn)
    }

    /// All entries of a class, in DN (document) order.
    pub fn entries_of_class<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a Entry> {
        self.entries
            .values()
            .filter(move |e| e.object_class == class)
    }

    /// Entries whose DN lies under `base` (inclusive), in DN order — an
    /// LDAP subtree search.
    pub fn search_subtree<'a>(&'a self, base: &'a Dewey) -> impl Iterator<Item = &'a Entry> {
        self.entries
            .values()
            .filter(move |e| base.is_prefix_of(&e.dn))
    }

    /// An LDAP-style search filter over entry attributes.
    ///
    /// Supports the common subset: presence (`attr=*`), equality
    /// (`attr=value`) and substring (`attr=*value*`) — evaluated against
    /// a subtree base like `ldapsearch -b <base> <filter>`.
    pub fn search<'a>(
        &'a self,
        base: &'a Dewey,
        filter: &'a SearchFilter,
    ) -> impl Iterator<Item = &'a Entry> {
        self.search_subtree(base).filter(move |e| filter.matches(e))
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// [`Directory::load_feed`]'s pass over the rows of a feed of schema
/// `.2`: an entry of class `.1` per instance of its root, the first row
/// of each winning.
struct Load<'d>(&'d mut Directory, &'d str, &'d FeedSchema);

impl<'a> ReadRows<'a> for Load<'_> {
    type Out = Result<usize>;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> Result<usize> {
        let Load(directory, class_name, schema) = self;
        let id_col = schema.root_id_col().ok_or_else(|| Error::BadFeed {
            detail: format!("feed {} has no root ID column", schema.root_element),
        })?;
        let parent_col = schema.parent_ref_col();
        let value_cols: Vec<(usize, &str)> = (schema.columns.iter().enumerate())
            .filter(|(_, c)| c.role == ColRole::Value)
            .map(|(i, c)| (i, c.element.as_str()))
            .collect();
        let mut loaded = 0usize;
        for row in (0..len).map(row) {
            let Value::Dewey(dn) = row.cell(id_col) else {
                continue; // padded/absent instance
            };
            if directory.entries.contains_key(dn) {
                continue; // instance repeated by inlining: first one wins
            }
            let parent = parent_col.and_then(|c| row.cell(c).as_dewey().cloned());
            let attributes: Vec<(String, String)> = value_cols
                .iter()
                .filter(|&&(i, _)| !row.cell(i).is_null())
                .map(|&(i, name)| (name.to_string(), row.cell(i).to_string()))
                .collect();
            directory.add_entry(Entry {
                dn: dn.clone(),
                parent,
                object_class: class_name.to_string(),
                attributes,
            })?;
            loaded += 1;
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdx_relational::{FeedColumn, FeedSchema};

    fn dewey(path: &[u32]) -> Dewey {
        Dewey::from(path)
    }

    fn schema_t() -> Directory {
        // The paper's schema T.
        let mut dir = Directory::new("provisioning");
        dir.declare_class(ObjectClass::strings("CUSTOMER_T", &["C_NAME"]));
        dir.declare_class(ObjectClass::strings("ORDER_SERVICE_T", &["S_NAME"]));
        dir.declare_class(ObjectClass::strings(
            "LINE_SWITCH_T",
            &["L_TELNO", "S_SWITCHID"],
        ));
        dir.declare_class(ObjectClass::strings("FEATURE_T", &["F_FEATUREID"]));
        dir
    }

    #[test]
    fn declare_and_add() {
        let mut dir = schema_t();
        dir.add_entry(Entry {
            dn: dewey(&[1]),
            parent: None,
            object_class: "CUSTOMER_T".into(),
            attributes: vec![("C_NAME".into(), "alice".into())],
        })
        .unwrap();
        assert_eq!(dir.len(), 1);
        assert_eq!(
            dir.entry(&dewey(&[1])).unwrap().attr("C_NAME"),
            Some("alice")
        );
    }

    #[test]
    fn must_contain_enforced() {
        let mut dir = schema_t();
        let err = dir.add_entry(Entry {
            dn: dewey(&[1]),
            parent: None,
            object_class: "CUSTOMER_T".into(),
            attributes: vec![],
        });
        assert!(matches!(err, Err(Error::MissingAttribute { .. })));
    }

    #[test]
    fn unknown_class_and_duplicate_dn() {
        let mut dir = schema_t();
        let e = Entry {
            dn: dewey(&[1]),
            parent: None,
            object_class: "NOPE".into(),
            attributes: vec![],
        };
        assert!(matches!(dir.add_entry(e), Err(Error::UnknownClass { .. })));
        let ok = Entry {
            dn: dewey(&[1]),
            parent: None,
            object_class: "CUSTOMER_T".into(),
            attributes: vec![("C_NAME".into(), "a".into())],
        };
        dir.add_entry(ok.clone()).unwrap();
        assert!(matches!(dir.add_entry(ok), Err(Error::DuplicateDn { .. })));
    }

    fn customer_feed() -> Feed {
        let schema = FeedSchema::new(
            "Customer",
            vec![
                FeedColumn::new("Customer", ColRole::ParentRef),
                FeedColumn::new("Customer", ColRole::NodeId),
                FeedColumn::new("C_NAME", ColRole::Value),
            ],
        );
        let mut f = Feed::new(schema);
        for i in 1..=3u32 {
            f.push_row(vec![
                Value::Dewey(dewey(&[])),
                Value::Dewey(dewey(&[i])),
                Value::Str(format!("cust{i}").into()),
            ])
            .unwrap();
        }
        f
    }

    #[test]
    fn load_feed_creates_entries() {
        let mut dir = schema_t();
        let n = dir.load_feed("CUSTOMER_T", &customer_feed()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(dir.entries_of_class("CUSTOMER_T").count(), 3);
        assert_eq!(dir.counters.rows_written, 3);
        let e = dir.entry(&dewey(&[2])).unwrap();
        assert_eq!(e.attr("C_NAME"), Some("cust2"));
        assert_eq!(e.parent, Some(dewey(&[])));
    }

    #[test]
    fn load_feed_skips_duplicates_and_nulls() {
        let mut dir = schema_t();
        let mut feed = customer_feed();
        let dup = feed.rows.slice(..1).to_rows();
        feed.rows.absorb(dup);
        feed.rows
            .push(vec![Value::Dewey(dewey(&[])), Value::Null, Value::Null]);
        assert_eq!(dir.load_feed("CUSTOMER_T", &feed).unwrap(), 3);
    }

    #[test]
    fn subtree_search_uses_dewey_order() {
        let mut dir = schema_t();
        for (dn, name) in [(&[1u32][..], "a"), (&[1, 2][..], "b"), (&[2][..], "c")] {
            dir.add_entry(Entry {
                dn: dewey(dn),
                parent: None,
                object_class: "CUSTOMER_T".into(),
                attributes: vec![("C_NAME".into(), name.into())],
            })
            .unwrap();
        }
        let base = dewey(&[1]);
        let under_1: Vec<_> = dir
            .search_subtree(&base)
            .map(|e| e.attr("C_NAME").unwrap())
            .collect();
        assert_eq!(under_1, vec!["a", "b"]);
    }

    #[test]
    fn search_filters_combine() {
        let mut dir = schema_t();
        for (i, name) in ["alice", "bob", "alicia"].iter().enumerate() {
            dir.add_entry(Entry {
                dn: dewey(&[i as u32 + 1]),
                parent: None,
                object_class: "CUSTOMER_T".into(),
                attributes: vec![("C_NAME".into(), name.to_string())],
            })
            .unwrap();
        }
        let base = Dewey::root();
        let eq = SearchFilter::Equals("C_NAME".into(), "bob".into());
        assert_eq!(dir.search(&base, &eq).count(), 1);
        let like = SearchFilter::Contains("C_NAME".into(), "ali".into());
        assert_eq!(dir.search(&base, &like).count(), 2);
        let both = SearchFilter::And(vec![
            SearchFilter::Class("CUSTOMER_T".into()),
            SearchFilter::Present("C_NAME".into()),
        ]);
        assert_eq!(dir.search(&base, &both).count(), 3);
        let either = SearchFilter::Or(vec![eq, like]);
        assert_eq!(dir.search(&base, &either).count(), 3);
        let none = SearchFilter::Present("MISSING".into());
        assert_eq!(dir.search(&base, &none).count(), 0);
    }

    #[test]
    fn search_respects_base() {
        let mut dir = schema_t();
        for dn in [&[1u32][..], &[1, 2][..], &[2][..]] {
            dir.add_entry(Entry {
                dn: dewey(dn),
                parent: None,
                object_class: "CUSTOMER_T".into(),
                attributes: vec![("C_NAME".into(), "x".into())],
            })
            .unwrap();
        }
        let under_1 = dewey(&[1]);
        let all = SearchFilter::Present("C_NAME".into());
        assert_eq!(dir.search(&under_1, &all).count(), 2);
    }

    #[test]
    fn load_feed_requires_known_class_and_id() {
        let mut dir = schema_t();
        assert!(dir.load_feed("NOPE", &customer_feed()).is_err());
        let bad = Feed::new(FeedSchema::new(
            "x",
            vec![FeedColumn::new("x", ColRole::Value)],
        ));
        assert!(dir.load_feed("CUSTOMER_T", &bad).is_err());
    }
}
