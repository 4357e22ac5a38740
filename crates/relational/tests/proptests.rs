//! Property tests for the relational substrate: the algebraic laws the
//! exchange optimizer relies on (Combine/Split inverses, join-strategy
//! equivalence, wire-format fidelity) must hold on arbitrary data.

use proptest::prelude::*;
use xdx_relational::ops::{hash_combine, merge_combine, split, SplitSpec};
use xdx_relational::{ColRole, Counters, Dewey, Feed, FeedColumn, FeedSchema, Value};

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
}
