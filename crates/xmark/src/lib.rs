//! # xdx-xmark — the paper's experimental workload
//!
//! The experiments of Section 5 use "the XMark XML data generator and a
//! subset of the XMark DTD, shown in Figure 7". This crate regenerates
//! that workload:
//!
//! * [`DTD_TEXT`]/[`dtd`]/[`schema`] — the Figure-7 DTD subset and its element
//!   tree,
//! * [`generate`] — a deterministic, byte-sized document generator
//!   replacing the original XMark generator (which is unavailable and ran
//!   on a website that no longer exists),
//! * [`mf`]/[`lf`] — the paper's two fragmentations: MF ("a separate
//!   fragment for each element in the DTD") and LF ("inlines fragments
//!   that have an one-to-one relation with their parent"), which for this
//!   DTD yields exactly the three fragments the paper lists,
//! * [`load_source`] — shreds a document into a fragmentation and loads it
//!   as a source database (experiment setup; not part of measured steps).
//!
//! ## Substitution note (documented in DESIGN.md)
//!
//! Figure 7 places `item*` under all six region elements. The fragment
//! model views the schema as a tree in which every element has one parent,
//! so we place all items under `africa` and keep the other five regions as
//! empty structural elements. Fragment boundaries, operation counts, and
//! data volumes are unchanged: both in the paper and here, `ITEM_…` is a
//! single fragment holding every item, and fragment 1 contains `site`,
//! `regions`, all six region elements and the other one-to-one children of
//! `site`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdx_core::shred::shred;
use xdx_core::{Fragmentation, Result};
use xdx_relational::Database;
use xdx_xml::dtd::Dtd;
use xdx_xml::{SchemaTree, Writer};

/// The Figure-7 DTD subset (with the single-parent `item` substitution).
pub const DTD_TEXT: &str = r#"
<!-- DTD for subset of auction database (Figure 7, ICDE 2004) -->
<!ELEMENT site (regions, categories, catgraph, people, openauctions, closedauctions)>
<!ELEMENT categories (category+)>
<!ELEMENT category (cname, cdescription)>
<!ATTLIST category id ID #REQUIRED>
<!ELEMENT cname (#PCDATA)>
<!ELEMENT cdescription (id ID)>
<!ELEMENT catgraph (id ID)>
<!ELEMENT regions (africa, asia, australia, europe, namerica, samerica)>
<!ELEMENT africa (item*)>
<!ELEMENT asia EMPTY>
<!ELEMENT australia EMPTY>
<!ELEMENT europe EMPTY>
<!ELEMENT namerica EMPTY>
<!ELEMENT samerica EMPTY>
<!ELEMENT item (location, quantity, iname, payment, idescription, shipping, mailbox)>
<!ATTLIST item id ID #REQUIRED featured CDATA #IMPLIED>
<!ELEMENT location (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT iname (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT idescription (id ID)>
<!ELEMENT shipping (#PCDATA)>
<!ELEMENT mailbox (id ID)>
<!ELEMENT people (id ID)>
<!ELEMENT openauctions (id ID)>
<!ELEMENT closedauctions (id ID)>
"#;

/// Returns the Figure-7 DTD, parsed.
pub fn dtd() -> Dtd {
    Dtd::parse(DTD_TEXT).expect("embedded DTD is well-formed")
}

/// The element tree of the Figure-7 DTD.
pub fn schema() -> SchemaTree {
    dtd()
        .to_schema_tree("site")
        .expect("embedded DTD builds a tree")
}

/// MF: one fragment per element (paper Section 5).
pub fn mf(schema: &SchemaTree) -> Fragmentation {
    Fragmentation::most_fragmented("MF", schema)
}

/// LF: fragments cut at repeated elements. For this DTD that is exactly
/// the paper's three fragments: `SITE_…`, `ITEM_…`, `CATEGORY_…`.
pub fn lf(schema: &SchemaTree) -> Fragmentation {
    Fragmentation::least_fragmented("LF", schema)
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Approximate serialized size of the document in bytes.
    pub target_bytes: usize,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
}

impl GenConfig {
    /// A document of roughly `target_bytes` with the default seed.
    pub fn sized(target_bytes: usize) -> GenConfig {
        GenConfig {
            target_bytes,
            seed: 0x1CDE_2004,
        }
    }
}

const WORDS: &[&str] = &[
    "auction",
    "vintage",
    "gilded",
    "brass",
    "walnut",
    "prototype",
    "carved",
    "signed",
    "limited",
    "edition",
    "rare",
    "restored",
    "antique",
    "mint",
    "boxed",
    "original",
    "handmade",
    "imported",
    "classic",
    "deluxe",
];

fn words(rng: &mut StdRng, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    out
}

/// Measured serialized size of one average item at the given seed; used
/// to size the document.
const APPROX_ITEM_BYTES: usize = 425;
/// Categories per item, as a ratio (the paper's XMark keeps categories a
/// small fraction of items).
const ITEMS_PER_CATEGORY: usize = 10;

/// Generates a document of approximately `config.target_bytes` bytes
/// conforming to the Figure-7 DTD.
pub fn generate(config: GenConfig) -> String {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let items = (config.target_bytes / APPROX_ITEM_BYTES).max(1);
    let categories = (items / ITEMS_PER_CATEGORY).max(1);

    let mut w = Writer::with_capacity(config.target_bytes + 1024);
    w.start("site");
    w.start("regions");
    w.start("africa");
    for i in 0..items {
        w.start("item");
        w.text_element(
            "location",
            ["United States", "Ghana", "Kenya", "Egypt"][i % 4],
        );
        w.text_element("quantity", &format!("{}", rng.gen_range(1..5)));
        w.text_element("iname", &format!("item #{i}: {}", words(&mut rng, 3)));
        w.text_element(
            "payment",
            ["Money order", "Creditcard", "Personal Check", "Cash"][i % 4],
        );
        w.text_element("idescription", &words(&mut rng, 18));
        w.text_element(
            "shipping",
            "Will ship internationally, buyer pays fixed shipping",
        );
        w.text_element("mailbox", &format!("mail-{}", rng.gen_range(0..10_000)));
        w.end();
    }
    w.end(); // africa
    for region in ["asia", "australia", "europe", "namerica", "samerica"] {
        w.empty_element(region);
    }
    w.end(); // regions
    w.start("categories");
    for c in 0..categories {
        w.start("category");
        w.text_element("cname", &format!("category {c}: {}", words(&mut rng, 2)));
        w.text_element("cdescription", &words(&mut rng, 10));
        w.end();
    }
    w.end(); // categories
    w.text_element(
        "catgraph",
        &format!("edges={}", categories.saturating_sub(1)),
    );
    w.text_element("people", &format!("population-{}", items * 2));
    w.text_element("openauctions", &format!("open-{}", items / 2));
    w.text_element("closedauctions", &format!("closed-{}", items / 3));
    w.end(); // site
    w.finish()
}

/// Rewrites approximately `pct` percent of the document's
/// `<idescription>` texts with fresh word salad, leaving every element
/// in place — structure (and therefore Dewey labels) is preserved, so
/// a delta diff against the original sees pure replace-subtree churn.
/// This is the controlled-mutation knob resync benchmarks turn between
/// sessions. Deterministic in `(doc, pct, seed)`.
pub fn churn(doc: &str, pct: u32, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let open = "<idescription>";
    let close = "</idescription>";
    let mut out = String::with_capacity(doc.len() + 64);
    let mut rest = doc;
    while let Some(start) = rest.find(open) {
        let body_start = start + open.len();
        let Some(body_len) = rest[body_start..].find(close) else {
            break;
        };
        out.push_str(&rest[..body_start]);
        if rng.gen_range(0..100u32) < pct {
            out.push_str(&words(&mut rng, 18));
        } else {
            out.push_str(&rest[body_start..body_start + body_len]);
        }
        rest = &rest[body_start + body_len..];
    }
    out.push_str(rest);
    out
}

/// Shreds `xml` into `frag` and loads the feeds as the tables of a fresh
/// source database — the experiment setup phase (not a measured step).
pub fn load_source(xml: &str, schema: &SchemaTree, frag: &Fragmentation) -> Result<Database> {
    let shredded = shred(xml, schema, frag)?;
    let mut db = Database::new(format!("{}-source", frag.name));
    for (f, feed) in frag.fragments.iter().zip(shredded.feeds) {
        db.load(&f.name, feed)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_figure7() {
        let s = schema();
        assert_eq!(s.name(s.root()), "site");
        // 24 elements: site, regions, 6 region elements, item + 7
        // children, categories, category + 2 children, catgraph, people,
        // openauctions, closedauctions.
        assert_eq!(s.len(), 24);
        let item = s.by_name("item").unwrap();
        assert!(s.node(item).occurs.is_repeated());
        assert_eq!(s.name(s.node(item).parent.unwrap()), "africa");
        assert_eq!(s.node(s.by_name("category").unwrap()).children.len(), 2);
    }

    #[test]
    fn lf_matches_paper_fragments() {
        let s = schema();
        let lf = lf(&s);
        assert_eq!(lf.len(), 3);
        let names: Vec<&str> = lf.fragments.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(
            &"SITE_REGIONS_AFRICA_ASIA_AUSTRALIA_EUROPE_NAMERICA_SAMERICA_CATEGORIES_CATGRAPH_PEOPLE_OPENAUCTIONS_CLOSEDAUCTIONS"
        ));
        assert!(
            names.contains(&"ITEM_LOCATION_QUANTITY_INAME_PAYMENT_IDESCRIPTION_SHIPPING_MAILBOX")
        );
        assert!(names.contains(&"CATEGORY_CNAME_CDESCRIPTION"));
    }

    #[test]
    fn mf_has_24_fragments() {
        let s = schema();
        assert_eq!(mf(&s).len(), 24);
    }

    #[test]
    fn generator_hits_target_size() {
        for target in [50_000usize, 250_000] {
            let doc = generate(GenConfig::sized(target));
            let ratio = doc.len() as f64 / target as f64;
            assert!(
                (0.8..1.2).contains(&ratio),
                "target {target}, got {} (ratio {ratio:.2})",
                doc.len()
            );
        }
    }

    #[test]
    fn churn_rewrites_text_but_preserves_structure() {
        let doc = generate(GenConfig::sized(60_000));
        assert_eq!(churn(&doc, 0, 3), doc, "0% churn is the identity");
        let mutated = churn(&doc, 20, 3);
        assert_ne!(mutated, doc, "20% churn rewrites something");
        assert_eq!(
            churn(&doc, 20, 3),
            mutated,
            "churn is deterministic in (doc, pct, seed)"
        );
        assert_ne!(churn(&doc, 20, 4), mutated, "the seed moves the picks");
        // Element structure is untouched: same tag census, same length
        // when measured in elements, and the mutated doc still shreds.
        for tag in ["<item ", "<idescription>", "</idescription>", "<iname>"] {
            assert_eq!(
                mutated.matches(tag).count(),
                doc.matches(tag).count(),
                "{tag}"
            );
        }
        let s = schema();
        let frag = lf(&s);
        let db = load_source(&mutated, &s, &frag).expect("churned doc still loads");
        let original = load_source(&doc, &s, &frag).unwrap();
        assert_eq!(db.total_rows(), original.total_rows());
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate(GenConfig::sized(30_000));
        let b = generate(GenConfig::sized(30_000));
        assert_eq!(a, b);
        let c = generate(GenConfig {
            target_bytes: 30_000,
            seed: 7,
        });
        assert_ne!(a, c);
    }

    #[test]
    fn generated_document_parses_and_shreds() {
        let s = schema();
        let doc = generate(GenConfig::sized(40_000));
        let db = load_source(&doc, &s, &lf(&s)).unwrap();
        assert_eq!(db.table_names().len(), 3);
        let items = db
            .table("ITEM_LOCATION_QUANTITY_INAME_PAYMENT_IDESCRIPTION_SHIPPING_MAILBOX")
            .unwrap()
            .len();
        assert!(items > 50, "expected many items, got {items}");
        let db2 = load_source(&doc, &s, &mf(&s)).unwrap();
        assert_eq!(db2.table("ITEM").unwrap().len(), items);
    }
}
