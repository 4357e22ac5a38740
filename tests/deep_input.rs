//! Hostile input against every reader that parses XML: no nesting depth
//! and no mutation of a valid document may panic or overflow the stack.
//!
//! A registering peer controls the WSDL, fragmentation declarations and
//! SOAP envelopes an agency reads, so a few hundred KB of `<a>` must come
//! back as an error, not abort the process. Each deep case runs on a
//! thread with a 2 MB stack, the default for spawned threads, so a
//! recursive walk of a deep tree would overflow here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use xdx::core::pm::publish_and_map;
use xdx::core::publish::publish;
use xdx::core::Fragmentation;
use xdx::net::{Link, NetworkProfile, SoapEnvelope};
use xdx::relational::{Database, Dewey, Value};
use xdx::wsdl::{plumbing, FragmentDecl, FragmentationDecl, Plumbing, WsdlDefinition};
use xdx::xml::dtd::Dtd;
use xdx::xml::parser::parse_events;
use xdx::xml::{Document, Element, Error, Occurs, SchemaTree, MAX_DEPTH};

const SMALL_STACK: usize = 2 << 20;

/// Runs `f` on a fresh thread with a 2 MB stack and returns its result.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .expect("spawn a small-stack thread")
        .join()
        .expect("the reader panicked")
}

/// `depth` nested `<a>` elements, closed.
fn nested(depth: usize) -> String {
    "<a>".repeat(depth) + &"</a>".repeat(depth)
}

/// Every reader under test: its name, the seed kind it reads, and the
/// reader reduced to "did it accept the text", its error rendered.
type Reader = fn(&str) -> Result<(), String>;

fn readers() -> Vec<(&'static str, &'static str, Reader)> {
    fn err(e: Error) -> String {
        e.to_string()
    }
    vec![
        ("parse_events", "xmark", |s| {
            parse_events(s).map(drop).map_err(err)
        }),
        ("Document::parse", "xmark", |s| {
            Document::parse(s).map(drop).map_err(err)
        }),
        ("SchemaTree::from_xsd", "xsd", |s| {
            SchemaTree::from_xsd(s).map(drop).map_err(err)
        }),
        ("WsdlDefinition::parse", "wsdl", |s| {
            WsdlDefinition::parse(s).map(drop).map_err(err)
        }),
        ("FragmentationDecl::parse", "declaration", |s| {
            FragmentationDecl::parse(s).map(drop).map_err(err)
        }),
        ("plumbing::from_xml", "plumbing", |s| {
            plumbing::from_xml(s).map(drop).map_err(err)
        }),
        ("SoapEnvelope::parse", "soap", |s| {
            SoapEnvelope::parse(s).map(drop)
        }),
    ]
}

/// A schema that is one chain `e0 > e1 > … > e{n-1}` with a text leaf.
fn chain(n: usize) -> SchemaTree {
    let mut tree = SchemaTree::new("e0");
    let mut parent = tree.root();
    for i in 1..n {
        parent = tree
            .add_child(parent, format!("e{i}"), Occurs::One)
            .unwrap();
    }
    tree.set_text(parent);
    tree
}

fn wsdl_for(schema: SchemaTree) -> WsdlDefinition {
    WsdlDefinition::single_service("Deep", "urn:deep", schema, "DeepService", "http://deep")
}

#[test]
fn a_million_levels_is_too_deep_for_every_reader() {
    let doc: &'static str = nested(1_000_000).leak();
    let too_deep = Error::TooDeep {
        offset: 3 * MAX_DEPTH,
        depth: MAX_DEPTH + 1,
    }
    .to_string();
    for (name, _, read) in readers() {
        let got = on_small_stack(move || read(doc));
        assert_eq!(got, Err(too_deep.clone()), "{name}");
    }
}

/// A valid input for `reader` whose elements nest as deep as they can
/// without passing `levels`. A WSDL schema nests in pairs: each
/// `<element>` sits in its parent's `<sequence>`.
fn deepest_input(reader: &str, levels: usize) -> String {
    match reader {
        "SchemaTree::from_xsd" => chain(levels / 2).to_xsd(),
        // Under `definitions > types > schema`.
        "WsdlDefinition::parse" => wsdl_for(chain((levels - 2) / 2)).to_xml(),
        "FragmentationDecl::parse" => {
            let region =
                "<element name=\"a\">".repeat(levels - 2) + &"</element>".repeat(levels - 2);
            format!("<fragmentation name=\"deep\"><fragment name=\"f\">{region}</fragment></fragmentation>")
        }
        "plumbing::from_xml" => format!("<definitions>{}</definitions>", nested(levels - 1)),
        "SoapEnvelope::parse" => format!(
            "<soap:Envelope><soap:Body>{}</soap:Body></soap:Envelope>",
            nested(levels - 2)
        ),
        _ => nested(levels),
    }
}

/// Every reader builds, walks and drops its deepest accepted input on a
/// 2 MB stack, and refuses one that nests past the cap.
#[test]
fn every_reader_takes_its_deepest_input_and_refuses_a_deeper_one() {
    for (name, _, read) in readers() {
        on_small_stack(move || {
            assert_eq!(read(&deepest_input(name, MAX_DEPTH)), Ok(()), "{name}");
            let refused = read(&deepest_input(name, MAX_DEPTH + 2)).unwrap_err();
            assert!(refused.contains("past the limit"), "{name}: {refused}");
        });
    }
    on_small_stack(|| {
        let deepest = wsdl_for(chain((MAX_DEPTH - 2) / 2));
        assert_eq!(WsdlDefinition::parse(&deepest.to_xml()).unwrap(), deepest);
    });
}

/// The deepest document the parser accepts, parsed on a 2 MB stack.
fn deepest_document() -> Document {
    Document::parse(&nested(MAX_DEPTH)).unwrap()
}

#[test]
fn the_deepest_accepted_document_clones_on_a_small_stack() {
    on_small_stack(|| {
        let doc = deepest_document();
        let copy = doc.clone();
        assert_eq!(copy.root.count_elements(), MAX_DEPTH);
        assert_eq!(
            copy.root.to_xml(),
            nested(MAX_DEPTH).replace("<a></a>", "<a/>")
        );
    });
}

#[test]
fn the_deepest_accepted_document_prints_with_debug_on_a_small_stack() {
    on_small_stack(|| {
        let printed = format!("{:?}", deepest_document());
        let leaf = r#"Element { name: "a", attributes: [], children: [] }"#;
        assert_eq!(printed.matches("Element { name: \"a\"").count(), MAX_DEPTH);
        assert!(printed.starts_with("Document { doctype: None, root: Element {"));
        assert!(printed.ends_with(&format!("{leaf}{} }}", ")] }".repeat(MAX_DEPTH - 1))));
    });
}

#[test]
fn the_deepest_accepted_documents_compare_on_a_small_stack() {
    on_small_stack(|| {
        let (a, b) = (deepest_document(), deepest_document());
        assert!(a == b);
        let shallower = Document::parse(&nested(MAX_DEPTH - 1)).unwrap();
        assert!(a != shallower);
    });
}

#[test]
fn a_200k_level_declaration_renders_and_reads_back_as_too_deep() {
    const LEVELS: usize = 200_000;
    on_small_stack(|| {
        let schema = chain(LEVELS);
        let decl = FragmentationDecl {
            name: "deep".into(),
            fragments: vec![FragmentDecl {
                name: "whole".into(),
                root: "e0".into(),
                elements: (0..LEVELS).map(|i| format!("e{i}")).collect(),
            }],
        };
        let xml = decl.to_xml(&schema).unwrap();
        assert_eq!(xml.matches("<element ").count(), LEVELS);
        assert!(xml.ends_with("</fragmentation>"));
        let refused = FragmentationDecl::parse(&xml).unwrap_err();
        assert!(matches!(refused, Error::TooDeep { .. }), "{refused}");
    });
}

#[test]
fn a_2000_level_declaration_round_trips() {
    on_small_stack(|| {
        let schema = chain(2_000);
        let whole = Fragmentation::whole_document("deep", &schema);
        let xml = whole.to_decl(&schema).to_xml(&schema).unwrap();
        let decl = FragmentationDecl::parse(&xml).unwrap();
        assert_eq!(Fragmentation::from_decl(&schema, &decl).unwrap(), whole);
    });
}

#[test]
fn a_200k_level_schema_writes_as_xsd_and_as_wsdl() {
    const LEVELS: usize = 200_000;
    on_small_stack(|| {
        let schema = chain(LEVELS);
        let xsd = schema.to_xsd();
        assert!(xsd.starts_with("<schema") && xsd.ends_with("</schema>"));
        assert_eq!(xsd.matches("<element ").count(), LEVELS);
        let wsdl = wsdl_for(schema).to_xml();
        assert_eq!(wsdl.matches("<element ").count(), LEVELS);
        assert!(wsdl.ends_with("</definitions>"));
    });
}

/// Publish&map of a chain nearly as deep as the parser accepts, from
/// one fragment per element to the whole document: the shredder and the
/// tagger walk it with stacks of their own, not the thread's.
#[test]
fn publish_and_map_of_a_4000_level_chain_on_a_small_stack() {
    const LEVELS: usize = 4_000;
    on_small_stack(|| {
        let schema = chain(LEVELS);
        let open: String = (0..LEVELS).map(|i| format!("<e{i}>")).collect();
        let close: String = (0..LEVELS).rev().map(|i| format!("</e{i}>")).collect();
        let doc = format!("{open}leaf{close}");
        let mf = Fragmentation::most_fragmented("MF", &schema);
        let whole = Fragmentation::whole_document("W", &schema);
        let mut source = xdx::xmark::load_source(&doc, &schema, &mf).unwrap();
        let mut target = Database::new("target");
        let mut link = Link::new(NetworkProfile::lan());
        let report =
            publish_and_map(&schema, &mf, &whole, &mut source, &mut target, &mut link).unwrap();
        assert_eq!(report.rows_loaded, 1);
        let landed = target.scan(&whole.fragments[0].name).unwrap();
        let row = landed.rows.into_iter().next().unwrap();
        assert_eq!(row.len(), 1 + LEVELS + 1);
        assert_eq!(row[LEVELS], Value::Dewey(Dewey::from(vec![1; LEVELS - 1])));
        assert_eq!(row[LEVELS + 1], Value::Str("leaf".into()));
        let published = publish(&schema, &whole, &mut target).unwrap();
        assert_eq!(published.xml.split_once("?>").unwrap().1, doc);
    });
}

/// A SplitMix64 stream: the mutations below repeat exactly per seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A byte that is markup to one of the readers half the time.
    fn byte(&mut self) -> u8 {
        const MARKUP: &[u8] = b"<>/=\"'&;![]?-#()*+|, \n";
        if self.next() & 1 == 0 {
            MARKUP[self.below(MARKUP.len())]
        } else {
            self.next() as u8
        }
    }
}

/// One to four byte flips, inserts, deletes, truncations or duplicated
/// slices of `seed`, read back as text.
fn mutate(seed: &[u8], rng: &mut Mix) -> String {
    let mut b = seed.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(b.len() + 1);
        match rng.below(5) {
            0 if at < b.len() => b[at] = rng.byte(),
            1 => b.insert(at, rng.byte()),
            2 => {
                let end = (at + 1 + rng.below(16)).min(b.len());
                b.drain(at..end);
            }
            3 => b.truncate(at),
            _ => {
                let from = rng.below(b.len());
                let end = (from + 1 + rng.below(64)).min(b.len());
                let slice = b[from..end].to_vec();
                let to = rng.below(b.len() + 1);
                b.splice(to..to, slice);
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Valid inputs of every kind the readers take, small enough that ten
/// thousand mutations of one parse in well under a second.
fn seeds() -> Vec<(&'static str, String)> {
    let xmark = xdx::xmark::schema();
    let doc = xdx::xmark::generate(xdx::xmark::GenConfig::sized(600));
    let mut customer = SchemaTree::new("Customer");
    let name = customer
        .add_child(customer.root(), "CustName", Occurs::One)
        .unwrap();
    customer.set_text(name);
    let order = customer
        .add_child(customer.root(), "Order", Occurs::Many)
        .unwrap();
    let service = customer
        .add_child(order, "ServiceName", Occurs::One)
        .unwrap();
    customer.set_text(service);
    let lf = Fragmentation::least_fragmented("LF", &customer);
    let decl = lf.to_decl(&customer).to_xml(&customer).unwrap();
    let soap = SoapEnvelope::new(
        Element::new("getCustomer")
            .with_attr("id", "c1")
            .with_child(Element::new("CustName").with_text("Alice & Bob")),
    );
    vec![
        ("xmark", doc),
        ("dtd", xdx::xmark::DTD_TEXT.to_string()),
        ("xsd", customer.to_xsd()),
        ("wsdl", wsdl_for(customer.clone()).to_xml()),
        ("declaration", decl),
        (
            "plumbing",
            plumbing::to_xml(&Plumbing::for_service("S", "Customer", &["id"])),
        ),
        ("soap", soap.to_xml()),
        ("xmark-xsd", xmark.to_xsd()),
    ]
}

const MUTATIONS: usize = 10_000;

/// Feeds `read` ten thousand mutations of `seed` and fails on the first
/// that panics, naming it.
fn survives_mutations(name: &str, seed: &str, read: impl Fn(&str), stream: u64) {
    let mut rng = Mix(stream);
    for i in 0..MUTATIONS {
        let input = mutate(seed.as_bytes(), &mut rng);
        if catch_unwind(AssertUnwindSafe(|| read(&input))).is_err() {
            panic!("{name}: mutation {i} of stream {stream:#x} panicked on {input:?}");
        }
    }
}

#[test]
fn ten_thousand_mutations_per_reader_never_panic() {
    let seeds = seeds();
    let seed = |kind: &str| seeds.iter().find(|(k, _)| *k == kind).unwrap().1.clone();
    for (i, (name, kind, read)) in readers().into_iter().enumerate() {
        survives_mutations(name, &seed(kind), |s| drop(read(s)), 0xD15C_0000 + i as u64);
    }
    survives_mutations(
        "Dtd::parse",
        &seed("dtd"),
        |s| {
            if let Ok(dtd) = Dtd::parse(s) {
                let _ = dtd.to_schema_tree("site");
            }
        },
        0xD7D0,
    );
}

/// Every reader also takes every other kind of seed: the WSDL reader
/// must refuse a mutated SOAP envelope as calmly as a mutated WSDL.
#[test]
fn readers_survive_mutations_of_each_others_seeds() {
    let seeds = seeds();
    for (i, (name, _, read)) in readers().into_iter().enumerate() {
        for (j, (kind, seed)) in seeds.iter().enumerate() {
            let mut rng = Mix(0xC055 + (i * seeds.len() + j) as u64);
            for _ in 0..MUTATIONS / seeds.len() / 8 {
                let input = mutate(seed.as_bytes(), &mut rng);
                let outcome = catch_unwind(AssertUnwindSafe(|| drop(read(&input))));
                assert!(outcome.is_ok(), "{name} on mutated {kind}: {input:?}");
            }
        }
    }
}
