//! Property tests for the relational substrate: the algebraic laws the
//! exchange optimizer relies on (Combine/Split inverses, join-strategy
//! equivalence, wire-format fidelity) must hold on arbitrary data.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use xdx_relational::ops::{hash_combine, merge_combine, split, ChainHint, SplitSpec};
use xdx_relational::{
    ColRole, Counters, Database, Dewey, Feed, FeedColumn, FeedSchema, Index, Rows, Value,
};

fn dv(path: Vec<u32>) -> Value {
    Value::Dewey(Dewey::from(path))
}

/// Builds a parent feed with `n` root instances and a child feed where
/// instance `i` has `child_counts[i]` children, plus leaf values.
fn hierarchy(child_counts: Vec<u8>) -> (Feed, Feed) {
    let pschema = FeedSchema::new(
        "P",
        vec![
            FeedColumn::new("P", ColRole::ParentRef),
            FeedColumn::new("P", ColRole::NodeId),
            FeedColumn::new("PName", ColRole::Value),
        ],
    );
    let cschema = FeedSchema::new(
        "C",
        vec![
            FeedColumn::new("C", ColRole::ParentRef),
            FeedColumn::new("C", ColRole::NodeId),
            FeedColumn::new("CName", ColRole::Value),
        ],
    );
    let mut parent = Feed::new(pschema);
    let mut child = Feed::new(cschema);
    for (i, &k) in child_counts.iter().enumerate() {
        let pid = i as u32 + 1;
        parent
            .push_row(vec![
                dv(vec![]),
                dv(vec![pid]),
                Value::Str(format!("p{pid}").into()),
            ])
            .unwrap();
        for j in 0..k {
            child
                .push_row(vec![
                    dv(vec![pid]),
                    dv(vec![pid, j as u32 + 1]),
                    Value::Str(format!("c{pid}.{j}").into()),
                ])
                .unwrap();
        }
    }
    (parent, child)
}

/// A parent/child pair in arbitrary order: parent keys repeat (the
/// outer-union case) and may be `Null`, child keys may be `Null` or
/// match no parent. The flags say whether each side is handed to the
/// Combine as its rows' sole handle or as one it shares ([`handle`]).
fn tangled() -> impl Strategy<Value = (Feed, Feed, bool, bool)> {
    let key = |top: u32| (0..top).prop_map(|k| if k == 0 { Value::Null } else { dv(vec![k]) });
    (
        proptest::collection::vec((key(6), 1usize..4), 0..8),
        proptest::collection::vec(key(8), 0..24),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(parents, children, sole_parent, sole_child)| {
            let (mut parent, mut child) = hierarchy(Vec::new());
            for (i, (key, copies)) in parents.into_iter().enumerate() {
                for copy in 0..copies {
                    let name = Value::Str(format!("p{i}.{copy}").into());
                    parent.rows.push(vec![dv(vec![]), key.clone(), name]);
                }
            }
            for (i, key) in children.into_iter().enumerate() {
                let id = dv(vec![9, i as u32]);
                child
                    .rows
                    .push(vec![key, id, Value::Str(format!("c{i}").into())]);
            }
            (parent, child, sole_parent, sole_child)
        })
}

/// `feed` as a sole handle over a fresh row set, or as a handle sharing
/// its rows with `feed`.
fn handle(feed: &Feed, sole: bool) -> Feed {
    let rows = if sole {
        feed.rows.clone().into_iter().collect()
    } else {
        feed.rows.clone()
    };
    Feed {
        schema: feed.schema.clone(),
        rows,
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Everything a `Dewey` answers, against the `Vec<u32>` it used to be.
fn check_dewey_against_model(d: &Dewey, model: &Vec<u32>) -> Result<(), TestCaseError> {
    prop_assert_eq!(d.as_slice(), &model[..]);
    prop_assert_eq!(d.depth(), model.len());
    let dotted = model
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(".");
    prop_assert_eq!(d.to_string(), dotted.clone());
    prop_assert_eq!(d.wire_len(), dotted.len());
    prop_assert_eq!(&Dewey::parse(&dotted).unwrap(), d);
    // The same path built in one go: one spelling, whichever way it was
    // reached, and the hash the component vector always had.
    let fresh = Dewey::from(model.clone());
    prop_assert_eq!(&fresh, d);
    prop_assert_eq!(hash_of(&fresh), hash_of(d));
    prop_assert_eq!(hash_of(d), hash_of(model));
    prop_assert_eq!(format!("{d:?}"), format!("Dewey({model:?})"));
    Ok(())
}

/// `Split` as it was: one key vector per input row in a hash set. The
/// oracle the in-place dedup is held to, output and bill.
fn split_with_key_vectors(feed: &Feed, spec: &SplitSpec, counters: &mut Counters) -> Feed {
    counters.rows_read += feed.len() as u64;
    let col = |el: &str, role| feed.schema.col(el, role);
    let parent_src = match &spec.anchor_element {
        Some(el) => col(el, ColRole::NodeId).unwrap(),
        None => feed.schema.parent_ref_col().unwrap(),
    };
    let mut src_cols = vec![parent_src];
    let mut columns = vec![FeedColumn::new(
        spec.root_element.clone(),
        ColRole::ParentRef,
    )];
    let mut id_cols_out = Vec::new();
    let mut root_id_out = None;
    for el in &spec.elements {
        if let Some(idc) = col(el, ColRole::NodeId) {
            if el == &spec.root_element {
                root_id_out = Some(src_cols.len());
            }
            id_cols_out.push(src_cols.len());
            src_cols.push(idc);
            columns.push(FeedColumn::new(el.clone(), ColRole::NodeId));
        }
        if let Some(vc) = col(el, ColRole::Value) {
            src_cols.push(vc);
            columns.push(FeedColumn::new(el.clone(), ColRole::Value));
        }
    }
    let root_id_out = root_id_out.unwrap();
    let mut rows = Vec::new();
    let input: Vec<Vec<Value>> = feed.rows.clone().into_iter().collect();
    let mut seen: HashSet<Vec<&Value>> = HashSet::new();
    for row in &input {
        if row[src_cols[root_id_out]].is_null() {
            continue;
        }
        let key = id_cols_out.iter().map(|&c| &row[src_cols[c]]).collect();
        counters.hash_probes += 1;
        if seen.insert(key) {
            rows.push(src_cols.iter().map(|&c| row[c].clone()).collect());
        }
    }
    counters.rows_out += rows.len() as u64;
    Feed {
        schema: FeedSchema::new(spec.root_element.clone(), columns),
        rows: rows.into(),
    }
}

/// A key drawn from a small domain of every variant, so columns repeat
/// keys and mix `Null` in.
fn small_key(pick: u8) -> Value {
    match pick % 8 {
        0 => Value::Null,
        1 | 2 => Value::Int(i64::from(pick / 8) - 1),
        3 | 4 => dv(vec![1, u32::from(pick / 8)]),
        5 => dv(vec![1, 1, 1, 1, 1, u32::from(pick / 8)]),
        _ => Value::Str(format!("k{}", pick / 8).into()),
    }
}

proptest! {
    /// `child`, `parent` and `push` walk a path up and down through the
    /// depth where it stops fitting in place; after every step the id
    /// answers what the vector answers.
    #[test]
    fn dewey_walks_agree_with_a_component_vector(
        start in proptest::collection::vec(0u32..1000, 0..=12),
        steps in proptest::collection::vec((0u8..4, any::<u32>()), 0..32),
    ) {
        let mut model = start.clone();
        let mut d = Dewey::from(start);
        check_dewey_against_model(&d, &model)?;
        for (step, n) in steps {
            match step {
                0 => { d = d.child(n); model.push(n); }
                1 => { d.push(n); model.push(n); }
                _ => {
                    let up = d.parent();
                    prop_assert_eq!(up.is_none(), model.is_empty());
                    if let Some(up) = up {
                        prop_assert!(up.is_prefix_of(&d));
                        d = up;
                        model.pop();
                    }
                }
            }
            check_dewey_against_model(&d, &model)?;
        }
    }

    /// Order, equality and the prefix test are the component slices'.
    #[test]
    fn dewey_pairs_compare_like_component_vectors(
        a in proptest::collection::vec(0u32..3, 0..=12),
        b in proptest::collection::vec(0u32..3, 0..=12),
        cut in 0usize..=12,
    ) {
        let (da, db) = (Dewey::from(a.clone()), Dewey::from(b.clone()));
        prop_assert_eq!(da.cmp(&db), a.cmp(&b));
        prop_assert_eq!(da == db, a == b);
        prop_assert_eq!(da.is_prefix_of(&db), b.starts_with(&a));
        prop_assert_eq!(dv(a.clone()).cmp(&dv(b.clone())), a.cmp(&b));
        // A true ancestor, reached from below.
        let ancestor = &a[..cut.min(a.len())];
        let mut up = da.clone();
        while up.depth() > ancestor.len() {
            up = up.parent().unwrap();
        }
        prop_assert_eq!(up.as_slice(), ancestor);
        prop_assert!(up.is_prefix_of(&da));
        prop_assert_eq!(hash_of(&up), hash_of(&Dewey::from(ancestor)));
    }

    /// The run index answers what the ordered map of position lists it
    /// replaced answers, on columns in no order with repeated and `Null`
    /// keys, on sorted ones, and on sorted ones with one descent — the
    /// largest key moved to `descent` — where the one-pass build has
    /// recorded runs before it falls back to a sort.
    #[test]
    fn index_agrees_with_an_ordered_map_of_positions(
        picks in proptest::collection::vec(any::<u8>(), 0..60),
        mode in 0u8..3,
        descent in any::<usize>(),
    ) {
        let mut keys: Vec<Value> = picks.iter().map(|&p| small_key(p)).collect();
        if mode > 0 {
            keys.sort();
        }
        if mode == 2 {
            if let Some(largest) = keys.pop() {
                keys.insert(descent % (keys.len() + 1), largest);
            }
        }
        let rows: Rows = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![Value::Int(i as i64), k.clone()])
            .collect();
        let mut model: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        for pos in 0..rows.len() {
            model.entry(rows.cell(pos, 1).clone()).or_default().push(pos as u32);
        }
        let mut counters = Counters::new();
        let index = Index::build(&rows, 1, &mut counters);
        prop_assert_eq!(counters.index_inserts, rows.len() as u64);
        prop_assert_eq!(counters, Counters { index_inserts: rows.len() as u64, ..Counters::new() });
        prop_assert_eq!(index.column, 1);
        prop_assert_eq!(index.distinct_keys(), model.len());
        prop_assert_eq!(index.entries(), rows.len());
        prop_assert_eq!(index.is_unique(), model.values().all(|v| v.len() == 1));
        for pick in 0..=255u8 {
            let key = small_key(pick);
            let want = model.get(&key).map(Vec::as_slice).unwrap_or(&[]);
            prop_assert_eq!(index.lookup(&rows, &key), want, "{:?}", key);
        }
        prop_assert_eq!(index.lookup(&rows, &Value::Str("absent".into())), &[] as &[u32]);
    }

    /// `Split` dedups in place exactly as it did with a key vector per
    /// row: same rows in the same order, same bill — on feeds whose
    /// repeated instances are scattered, not adjacent.
    #[test]
    fn split_agrees_with_the_key_vector_dedup(
        picks in proptest::collection::vec((0u32..4, 0u32..4, any::<bool>()), 0..40),
    ) {
        let schema = FeedSchema::new(
            "P",
            vec![
                FeedColumn::new("P", ColRole::ParentRef),
                FeedColumn::new("P", ColRole::NodeId),
                FeedColumn::new("PName", ColRole::Value),
                FeedColumn::new("C", ColRole::NodeId),
                FeedColumn::new("CName", ColRole::Value),
            ],
        );
        let mut feed = Feed::new(schema);
        for (p, c, childless) in picks {
            let child = if childless { Value::Null } else { dv(vec![p, c]) };
            feed.push_row(vec![
                dv(vec![]),
                dv(vec![p]),
                Value::Str(format!("p{p}").into()),
                child,
                Value::Str(format!("c{p}.{c}").into()),
            ])
            .unwrap();
        }
        let specs = [
            SplitSpec {
                root_element: "P".into(),
                anchor_element: None,
                elements: vec!["P".into(), "PName".into()],
            },
            SplitSpec {
                root_element: "C".into(),
                anchor_element: Some("P".into()),
                elements: vec!["C".into(), "CName".into()],
            },
        ];
        let mut billed = Counters::new();
        let got = split(&feed, &specs, &mut billed).unwrap();
        let mut want_billed = Counters::new();
        let want: Vec<Feed> = specs
            .iter()
            .map(|spec| split_with_key_vectors(&feed, spec, &mut want_billed))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(billed, want_billed);
    }

    /// The text codec at its edges: the widest integers, ids past the
    /// in-place depth, and `*`-relative ids whose base is one of those.
    #[test]
    fn wire_roundtrip_deep_ids_and_wide_ints(
        rows in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u32>(), 0..=12),
                proptest::collection::vec(any::<u32>(), 0..=3),
                any::<i64>(),
                0u8..4,
            ),
            0..20,
        )
    ) {
        let schema = FeedSchema::new(
            "x",
            vec![
                FeedColumn::new("x", ColRole::ParentRef),
                FeedColumn::new("x", ColRole::NodeId),
                FeedColumn::new("y", ColRole::NodeId),
                FeedColumn::new("n", ColRole::Value),
            ],
        );
        let mut f = Feed::new(schema);
        for (base, suffix, int, edge) in rows {
            let mut below = base.clone();
            below.extend(&suffix);
            let int = match edge {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => int,
            };
            // `y` extends `x` (a `*` cell) unless the suffix is empty.
            f.push_row(vec![dv(vec![]), dv(base), dv(below), Value::Int(int)]).unwrap();
        }
        let wire = f.to_wire();
        prop_assert_eq!(Feed::from_wire(&wire).unwrap(), f);
    }

    #[test]
    fn merge_and_hash_combine_agree(counts in proptest::collection::vec(0u8..5, 0..20)) {
        let (parent, child) = hierarchy(counts);
        let mut c = Counters::new();
        let (p, ch) = (parent.clone(), child.clone());
        let mut a = merge_combine(p, ch, "P", ChainHint::default(), &mut c).unwrap();
        let mut b = hash_combine(&parent, &child, "P", &mut c).unwrap();
        a.sort_by(&[1, 3]);
        b.sort_by(&[1, 3]);
        prop_assert_eq!(a, b);
    }

    /// Merge output is in key order on the parent's join column, `Null`
    /// keys included, whatever order the inputs arrived in: the fact that
    /// lets the next Combine of a chain on the same anchor trust it.
    #[test]
    fn merge_combine_output_is_in_parent_key_order(family in tangled()) {
        let (parent, child, sole_parent, sole_child) = family;
        let (p, c) = (handle(&parent, sole_parent), handle(&child, sole_child));
        let out = merge_combine(p, c, "P", ChainHint::default(), &mut Counters::new()).unwrap();
        prop_assert!((1..out.len()).all(|r| out.rows.cell(r - 1, 1) <= out.rows.cell(r, 1)));
    }

    /// A chain hint is never part of a result: every width from none to
    /// twice the output arity (5 here), and vouching for a parent that is
    /// in key order, yield the rows and the bill of the output arity.
    #[test]
    fn merge_combine_chain_hints_change_no_row_and_no_count(
        family in tangled(),
        width in 0usize..=10,
        sort_parent in any::<bool>(),
    ) {
        let (mut parent, child, sole_parent, sole_child) = family;
        if sort_parent {
            parent.sort_by(&[1]);
        }
        let arity = parent.schema.arity() + child.schema.arity() - 1;
        let run = |chain: ChainHint| {
            let (p, c) = (handle(&parent, sole_parent), handle(&child, sole_child));
            let mut billed = Counters::new();
            let out = merge_combine(p, c, "P", chain, &mut billed).unwrap();
            (out, billed)
        };
        let want = run(ChainHint { width: arity, parent_in_order: false });
        prop_assert_eq!(&run(ChainHint { width, parent_in_order: false }), &want);
        if sort_parent {
            prop_assert_eq!(&run(ChainHint { width, parent_in_order: true }), &want);
        }
    }

    #[test]
    fn combine_row_count_law(counts in proptest::collection::vec(0u8..5, 0..20)) {
        // |combine| = sum(max(k_i, 1)): matched children inline, childless
        // parents survive with padding.
        let (parent, child) = hierarchy(counts.clone());
        let mut c = Counters::new();
        let out = merge_combine(parent, child, "P", ChainHint::default(), &mut c).unwrap();
        let expected: usize = counts.iter().map(|&k| (k as usize).max(1)).sum();
        prop_assert_eq!(out.len(), expected);
    }

    #[test]
    fn split_inverts_combine(counts in proptest::collection::vec(0u8..5, 1..15)) {
        let (parent, child) = hierarchy(counts);
        let mut c = Counters::new();
        let (p, ch) = (parent.clone(), child.clone());
        let combined = merge_combine(p, ch, "P", ChainHint::default(), &mut c).unwrap();
        let outs = split(
            &combined,
            &[
                SplitSpec {
                    root_element: "P".into(),
                    anchor_element: None,
                    elements: vec!["P".into(), "PName".into()],
                },
                SplitSpec {
                    root_element: "C".into(),
                    anchor_element: Some("P".into()),
                    elements: vec!["C".into(), "CName".into()],
                },
            ],
            &mut c,
        )
        .unwrap();
        let mut got_p = outs[0].clone();
        got_p.sort_by(&[1]);
        prop_assert_eq!(got_p.rows, parent.rows);
        let mut got_c = outs[1].clone();
        got_c.sort_by(&[1]);
        prop_assert_eq!(got_c.rows, child.rows);
    }

    #[test]
    fn wire_roundtrip_arbitrary_values(
        rows in proptest::collection::vec(
            (any::<Option<i64>>(), "[ -~\r]{0,20}", proptest::collection::vec(0u32..100, 0..4)),
            0..30,
        )
    ) {
        let schema = FeedSchema::new(
            "x",
            vec![
                FeedColumn::new("x", ColRole::ParentRef),
                FeedColumn::new("x", ColRole::NodeId),
                FeedColumn::new("a", ColRole::Value),
                FeedColumn::new("b", ColRole::Value),
            ],
        );
        let mut f = Feed::new(schema);
        for (num, text, path) in rows {
            f.push_row(vec![
                dv(vec![]),
                dv(path),
                num.map(Value::Int).unwrap_or(Value::Null),
                Value::Str(text.into()),
            ])
            .unwrap();
        }
        let back = Feed::from_wire(&f.to_wire()).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn wire_size_close_to_serialized_length(counts in proptest::collection::vec(0u8..4, 0..10)) {
        let (parent, _) = hierarchy(counts);
        let serialized = parent.to_wire().len() as u64;
        let estimate = parent.wire_size();
        // Estimate excludes the two header lines but must track payload.
        prop_assert!(estimate <= serialized);
        prop_assert!(serialized <= estimate + 128);
    }

    #[test]
    fn sort_is_stable_and_ordered(counts in proptest::collection::vec(0u8..5, 1..15)) {
        let (_, mut child) = hierarchy(counts);
        child.rows = child.rows.clone().into_iter().rev().collect();
        child.sort_by(&[0, 1]);
        prop_assert!(child.is_sorted_by(&[0, 1]));
        prop_assert!(child.is_sorted_by(&[0]));
    }

    /// Copy-on-write never leaks a write. A feed, its clone, a table
    /// loaded from it, a clone of that table's database and a scan all
    /// start on one row set; a drawn sequence of writes goes through
    /// every `&mut` door of one holder or another — on a feed, one per
    /// writer `Rows` has (`push`, `extend`, `absorb`, `sort_by`,
    /// `get_mut`), and `Feed::push_row` — and after each write
    /// every holder reads exactly what a plain `Vec` model of it holds —
    /// the written one changed, everyone else bit-identical to before.
    #[test]
    fn a_write_through_one_holder_is_invisible_to_every_other(
        counts in proptest::collection::vec(1u8..4, 1..8),
        writes in proptest::collection::vec((0usize..4, 0u8..6), 1..10),
    ) {
        let (_, mut origin) = hierarchy(counts);
        // Out of order, so that `sort_by` writes.
        origin.rows = origin.rows.clone().into_iter().rev().collect();
        let mut feeds = [origin.clone(), origin.clone()];
        let mut dbs = [Database::new("a"), Database::new("b")];
        dbs[0].load("T", origin.clone()).unwrap();
        dbs[1] = dbs[0].clone();
        let scan = dbs[0].scan("T").unwrap();
        let rows_of = |db: &Database| db.table("T").unwrap().data.rows.clone();
        for held in [&feeds[0].rows, &feeds[1].rows, &rows_of(&dbs[0]), &rows_of(&dbs[1]), &scan.rows] {
            prop_assert!(Rows::ptr_eq(held, &origin.rows));
        }
        let vec_of = |rows: &Rows| rows.clone().into_iter().collect::<Vec<_>>();
        let before = vec_of(&origin.rows);
        let mut models = vec![before.clone(); 4];
        let extra = |n: u32| vec![dv(vec![9]), dv(vec![9, n]), Value::Str(format!("w{n}").into())];
        let one_row = |n: u32| Feed {
            schema: origin.schema.clone(),
            rows: vec![extra(n)].into(),
        };
        for (n, (holder, door)) in writes.into_iter().enumerate() {
            let n = n as u32;
            let model = &mut models[holder];
            if holder < 2 {
                let feed = &mut feeds[holder];
                match door {
                    0 => { feed.push_row(extra(n)).unwrap(); model.push(extra(n)); }
                    1 => { feed.rows.push(extra(n)); model.push(extra(n)); }
                    2 => { feed.rows.extend(one_row(n).rows); model.push(extra(n)); }
                    3 => { feed.rows.absorb(one_row(n).rows); model.push(extra(n)); }
                    4 => { feed.sort_by(&[1]); model.sort_by(|a, b| a[1].cmp(&b[1])); }
                    _ => {
                        let text = Value::Str(format!("w{n}").into());
                        feed.rows.get_mut(0).unwrap()[2] = text.clone();
                        model[0][2] = text;
                    }
                }
            } else {
                let db = &mut dbs[holder - 2];
                match door {
                    0 => { db.table_mut("T").unwrap().0.data.push_row(extra(n)).unwrap(); model.push(extra(n)); }
                    1 => { db.table_mut("T").unwrap().0.data.rows.extend(vec![extra(n)]); model.push(extra(n)); }
                    2 => { db.table_mut("T").unwrap().0.data.sort_by(&[1]); model.sort_by(|a, b| a[1].cmp(&b[1])); }
                    3 => { db.load("T", one_row(n)).unwrap(); model.push(extra(n)); }
                    4 => {
                        db.load_staged("T", one_row(n)).unwrap();
                        db.commit_staged();
                        model.push(extra(n));
                    }
                    _ => {
                        // Empty staging adopts the origin's row set; a
                        // staged row on top copies it; rolling back must
                        // drop the handle, not clear what it shares.
                        db.load_staged("T", origin.clone()).unwrap();
                        db.rollback_staged();
                        db.load_staged("U", origin.clone()).unwrap();
                        db.load_staged("U", one_row(n)).unwrap();
                        db.rollback_staged();
                        prop_assert!(!db.has_table("U"));
                    }
                }
            }
            prop_assert_eq!(&vec_of(&feeds[0].rows), &models[0]);
            prop_assert_eq!(&vec_of(&feeds[1].rows), &models[1]);
            prop_assert_eq!(&vec_of(&rows_of(&dbs[0])), &models[2]);
            prop_assert_eq!(&vec_of(&rows_of(&dbs[1])), &models[3]);
            prop_assert_eq!(&vec_of(&scan.rows), &before);
            prop_assert_eq!(&vec_of(&origin.rows), &before);
        }
    }

    /// Every reader a row set keeps answers a view as it answers the
    /// view's dense copy. Three sets hold one Combine's rows: the dense
    /// rows of the Combine over sole inputs; a `Rows::pick` view of a
    /// wider set holding them reversed; and the view of the Combine over
    /// shared inputs, with outer-union skeleton and `Null`-padded rows
    /// when the draw has them. Each is read by `cell`, `copy_to` (a
    /// `RowSlice::read`) of the whole and of a run, `==` and
    /// `first_difference`, `is_sorted_by`, and `into_iter` of a shared
    /// and of a sole handle.
    #[test]
    fn every_reader_reads_a_view_as_its_dense_copy(
        family in tangled(),
        run in (any::<usize>(), any::<usize>()),
        planted in any::<usize>(),
    ) {
        let (parent, child, _, _) = family;
        let combine = |sole: bool| {
            let (p, c) = (handle(&parent, sole), handle(&child, sole));
            merge_combine(p, c, "P", ChainHint::default(), &mut Counters::new()).unwrap().rows
        };
        let want: Vec<Vec<Value>> = combine(true).into_iter().collect();
        let (n, arity) = (want.len(), parent.schema.arity() + child.schema.arity() - 1);
        let dense = Rows::from(want.clone());
        let wide: Rows = want
            .iter()
            .rev()
            .map(|row| [vec![Value::Int(-1)], row.clone(), vec![Value::Null]].concat())
            .collect();
        let picked = wide.pick((0..n).rev().collect(), (1..=arity).collect());
        let gathered = combine(false);
        let (from, to) = match n {
            0 => (0, 0),
            n => {
                let (a, b) = (run.0 % n, run.1 % n);
                (a.min(b), a.max(b) + 1)
            }
        };
        let sorted = |cols: &[usize]| {
            want.windows(2).all(|w| cols.iter().map(|&c| &w[0][c]).le(cols.iter().map(|&c| &w[1][c])))
        };
        for rows in [&dense, &picked, &gathered] {
            prop_assert_eq!(rows.len(), n);
            for (r, row) in want.iter().enumerate() {
                prop_assert!((0..arity).all(|c| rows.cell(r, c) == &row[c]));
            }
            let mut copied = Vec::new();
            rows.slice(..).copy_to(&mut copied);
            prop_assert_eq!(&copied, &want);
            let mut copied = Vec::new();
            rows.slice(from..to).copy_to(&mut copied);
            prop_assert_eq!(&copied[..], &want[from..to]);
            prop_assert_eq!(rows, &dense);
            prop_assert!(rows.slice(from..to) == dense.slice(from..to));
            prop_assert_eq!(rows.slice(..).first_difference(dense.slice(..)), None);
            for cols in [&[1][..], &[1, 3], &[0, 2], &[4, 1]] {
                prop_assert_eq!(rows.is_sorted_by(cols), sorted(cols));
            }
            prop_assert_eq!(&rows.clone().into_iter().collect::<Vec<_>>(), &want);
            prop_assert_eq!(&rows.slice(..).to_rows().into_iter().collect::<Vec<_>>(), &want);
        }
        if n > 0 {
            // One cell changed in a copy: every layout finds that row.
            let at = planted % n;
            let mut other = want.clone();
            other[at][2] = Value::Str("planted".into());
            let other = Rows::from(other);
            for rows in [&dense, &picked, &gathered] {
                prop_assert_eq!(rows.slice(..).first_difference(other.slice(..)), Some(at));
                prop_assert_eq!(other.slice(..).first_difference(rows.slice(..)), Some(at));
                prop_assert!(*rows != other);
            }
        }
    }
}
