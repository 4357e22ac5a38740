//! Property tests for the relational substrate: the algebraic laws the
//! exchange optimizer relies on (Combine/Split inverses, join-strategy
//! equivalence, wire-format fidelity) must hold on arbitrary data.

use proptest::prelude::*;
use xdx_relational::ops::{hash_combine, merge_combine, split, SplitSpec};
use xdx_relational::{
    ColRole, Counters, Database, Dewey, Feed, FeedColumn, FeedSchema, Rows, Value,
};

fn dv(path: Vec<u32>) -> Value {
    Value::Dewey(Dewey(path))
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
                Value::Str(format!("p{pid}")),
            ])
            .unwrap();
        for j in 0..k {
            child
                .push_row(vec![
                    dv(vec![pid]),
                    dv(vec![pid, j as u32 + 1]),
                    Value::Str(format!("c{pid}.{j}")),
                ])
                .unwrap();
        }
    }
    (parent, child)
}

proptest! {
    #[test]
    fn merge_and_hash_combine_agree(counts in proptest::collection::vec(0u8..5, 0..20)) {
        let (parent, child) = hierarchy(counts);
        let mut c = Counters::new();
        let mut a = merge_combine(&parent, &child, "P", &mut c).unwrap();
        let mut b = hash_combine(&parent, &child, "P", &mut c).unwrap();
        a.sort_by(&[1, 3]);
        b.sort_by(&[1, 3]);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn combine_row_count_law(counts in proptest::collection::vec(0u8..5, 0..20)) {
        // |combine| = sum(max(k_i, 1)): matched children inline, childless
        // parents survive with padding.
        let (parent, child) = hierarchy(counts.clone());
        let mut c = Counters::new();
        let out = merge_combine(&parent, &child, "P", &mut c).unwrap();
        let expected: usize = counts.iter().map(|&k| (k as usize).max(1)).sum();
        prop_assert_eq!(out.len(), expected);
    }

    #[test]
    fn split_inverts_combine(counts in proptest::collection::vec(0u8..5, 1..15)) {
        let (parent, child) = hierarchy(counts);
        let mut c = Counters::new();
        let combined = merge_combine(&parent, &child, "P", &mut c).unwrap();
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
                Value::Str(text),
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
        child.rows.reverse();
        child.sort_by(&[0, 1]);
        prop_assert!(child.is_sorted_by(&[0, 1]));
        prop_assert!(child.is_sorted_by(&[0]));
    }

    /// Copy-on-write never leaks a write. A feed, its clone, a table
    /// loaded from it, a clone of that table's database and a scan all
    /// start on one row set; a drawn sequence of writes goes through
    /// every `&mut` door of one holder or another, and after each write
    /// every holder reads exactly what a plain `Vec` model of it holds —
    /// the written one changed, everyone else bit-identical to before.
    #[test]
    fn a_write_through_one_holder_is_invisible_to_every_other(
        counts in proptest::collection::vec(1u8..4, 1..8),
        writes in proptest::collection::vec((0usize..4, 0u8..6), 1..10),
    ) {
        let (_, mut origin) = hierarchy(counts);
        origin.rows.reverse(); // out of order, so that `sort_by` writes
        let mut feeds = [origin.clone(), origin.clone()];
        let mut dbs = [Database::new("a"), Database::new("b")];
        dbs[0].load("T", origin.clone()).unwrap();
        dbs[1] = dbs[0].clone();
        let scan = dbs[0].scan("T").unwrap();
        let rows_of = |db: &Database| db.table("T").unwrap().data.rows.clone();
        for held in [&feeds[0].rows, &feeds[1].rows, &rows_of(&dbs[0]), &rows_of(&dbs[1]), &scan.rows] {
            prop_assert!(Rows::ptr_eq(held, &origin.rows));
        }
        let before = origin.rows.to_vec();
        let mut models = vec![before.clone(); 4];
        let extra = |n: u32| vec![dv(vec![9]), dv(vec![9, n]), Value::Str(format!("w{n}"))];
        let one_row = |n: u32| Feed {
            schema: origin.schema.clone(),
            rows: vec![extra(n)].into(),
        };
        for (n, (holder, door)) in writes.into_iter().enumerate() {
            let n = n as u32;
            let model = &mut models[holder];
            if holder < 2 {
                let feed = &mut feeds[holder];
                match door % 3 {
                    0 => { feed.push_row(extra(n)).unwrap(); model.push(extra(n)); }
                    1 => { feed.rows.extend(one_row(n).rows); model.push(extra(n)); }
                    _ => { feed.sort_by(&[1]); model.sort_by(|a, b| a[1].cmp(&b[1])); }
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
            prop_assert_eq!(&feeds[0].rows[..], &models[0][..]);
            prop_assert_eq!(&feeds[1].rows[..], &models[1][..]);
            prop_assert_eq!(&rows_of(&dbs[0])[..], &models[2][..]);
            prop_assert_eq!(&rows_of(&dbs[1])[..], &models[3][..]);
            prop_assert_eq!(&scan.rows[..], &before[..]);
            prop_assert_eq!(&origin.rows[..], &before[..]);
        }
    }
}
