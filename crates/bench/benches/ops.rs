//! Microbenchmarks of the primitive operations (the `comp_cost` terms of
//! the paper's Section 4.1): Scan, merge vs hash Combine, Split, Write and
//! index build over item-scale feeds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xdx_core::Fragmentation;
use xdx_relational::ops::{hash_combine, merge_combine, split, ChainHint, SplitSpec};
use xdx_relational::{Counters, Database};

fn item_feeds(bytes: usize) -> (xdx_relational::Feed, xdx_relational::Feed) {
    let schema = xdx_xmark::schema();
    let mf = xdx_xmark::mf(&schema);
    let doc = xdx_xmark::generate(xdx_xmark::GenConfig::sized(bytes));
    let db = xdx_xmark::load_source(&doc, &schema, &mf).unwrap();
    let item = db.table("ITEM").unwrap().data.clone();
    let iname = db.table("INAME").unwrap().data.clone();
    (item, iname)
}

fn bench_combine(c: &mut Criterion) {
    let mut group = c.benchmark_group("combine");
    for bytes in [64 * 1024usize, 256 * 1024] {
        let (item, iname) = item_feeds(bytes);
        group.bench_with_input(BenchmarkId::new("merge", item.len()), &bytes, |b, _| {
            b.iter(|| {
                let mut counters = Counters::new();
                merge_combine(
                    item.clone(),
                    iname.clone(),
                    "item",
                    ChainHint::default(),
                    &mut counters,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("hash", item.len()), &bytes, |b, _| {
            b.iter(|| {
                let mut counters = Counters::new();
                hash_combine(&item, &iname, "item", &mut counters).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_split(c: &mut Criterion) {
    let schema = xdx_xmark::schema();
    let lf = xdx_xmark::lf(&schema);
    let doc = xdx_xmark::generate(xdx_xmark::GenConfig::sized(256 * 1024));
    let db = xdx_xmark::load_source(&doc, &schema, &lf).unwrap();
    let item_frag = &lf.fragments[Fragmentation::fragment_of(&lf, schema.by_name("item").unwrap())];
    let feed = db.table(&item_frag.name).unwrap().data.clone();
    let specs: Vec<SplitSpec> = ["item", "location", "quantity"]
        .iter()
        .map(|el| SplitSpec {
            root_element: el.to_string(),
            anchor_element: if *el == "item" {
                None
            } else {
                Some("item".to_string())
            },
            elements: vec![el.to_string()],
        })
        .collect();
    c.bench_function("split/item-into-3", |b| {
        b.iter(|| {
            let mut counters = Counters::new();
            split(&feed, &specs, &mut counters).unwrap()
        })
    });
}

fn bench_load_and_index(c: &mut Criterion) {
    let (item, _) = item_feeds(256 * 1024);
    c.bench_function("write/bulk-load+index", |b| {
        b.iter(|| {
            let mut db = Database::new("t");
            db.load("ITEM", item.clone()).unwrap();
            db.build_all_key_indexes().unwrap();
            db.total_rows()
        })
    });
}

fn bench_wire(c: &mut Criterion) {
    let (item, _) = item_feeds(256 * 1024);
    let wire = item.to_wire();
    c.bench_function("wire/encode", |b| b.iter(|| item.to_wire().len()));
    c.bench_function("wire/decode", |b| {
        b.iter(|| xdx_relational::Feed::from_wire(&wire).unwrap().len())
    });
}

criterion_group!(
    benches,
    bench_combine,
    bench_split,
    bench_load_and_index,
    bench_wire
);
criterion_main!(benches);
