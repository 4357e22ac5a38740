//! Subtree patches: the delta-exchange edit model over sorted feeds.
//!
//! A feed's `NodeId` columns are Dewey paths, so every row addresses a
//! subtree of the document and a *prefix range* of the feed (rows are in
//! document order, and a subtree is a contiguous run of rows whose key
//! extends the subtree root). A [`PatchStep`] edits one such range:
//! insert a new subtree's rows, delete a subtree's rows, or replace them
//! wholesale — the replace-step model of prosemirror-style transforms,
//! restated over relational feeds.
//!
//! Application is transactional by construction: [`stage_patch`] builds
//! the complete patched feed for every table and *stages* it into the
//! target database via the same staging machinery full exchanges use.
//! Nothing touches live tables until the caller commits; any error —
//! malformed steps, payload under/overrun, schema clash — leaves the
//! staged rows to be rolled back and the target exactly at its
//! precondition version.

use crate::db::Database;
use crate::error::{Error, Result};
use crate::feed::{ColRole, Feed, Rows};
use crate::value::Dewey;

/// What a step does to its prefix range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Splice new rows in at the key's document-order position; the key's
    /// subtree must not exist in the base.
    InsertSubtree,
    /// Remove every base row whose key lies in the key's subtree.
    DeleteSubtree,
    /// Delete the key's subtree, then splice the payload rows in its
    /// place.
    ReplaceSubtree,
}

impl StepKind {
    /// Stable wire byte (used by the codec's `Patch` frame).
    pub fn code(self) -> u8 {
        match self {
            StepKind::InsertSubtree => 0,
            StepKind::DeleteSubtree => 1,
            StepKind::ReplaceSubtree => 2,
        }
    }

    /// Inverse of [`StepKind::code`].
    pub fn from_code(code: u8) -> Option<StepKind> {
        match code {
            0 => Some(StepKind::InsertSubtree),
            1 => Some(StepKind::DeleteSubtree),
            2 => Some(StepKind::ReplaceSubtree),
            _ => None,
        }
    }
}

/// One edit, keyed by the Dewey id of the subtree root it touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchStep {
    /// What to do.
    pub kind: StepKind,
    /// Subtree root; the step's range is every row whose key column
    /// extends this path (inclusive of the path itself).
    pub key: Dewey,
    /// How many payload rows this step consumes (0 for deletes). Rows
    /// are taken from the table's shared payload feed in step order.
    pub rows: u32,
}

/// All edits against one table, plus the rows the inserting steps splice
/// in. Keeping the payload as one feed (not per-step row vectors) is
/// what lets the wire codec reuse the columnar column encoders and
/// dictionary across every step of the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePatch {
    /// Table (fragment) name.
    pub table: String,
    /// Edits in ascending key order.
    pub steps: Vec<PatchStep>,
    /// Rows consumed, in order, by `InsertSubtree`/`ReplaceSubtree`
    /// steps. Shares the table's feed schema.
    pub payload: Feed,
}

/// A versioned patch: the edits that take a target from `base_version`
/// to `head_version` of an exchange's table set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaPatch {
    /// Version the target must hold for the patch to apply.
    pub base_version: u64,
    /// Version the target holds after a successful apply.
    pub head_version: u64,
    /// Per-table edits; tables absent here are unchanged.
    pub tables: Vec<TablePatch>,
}

impl DeltaPatch {
    /// Total step count across all tables (the cost model's step term).
    pub fn step_count(&self) -> u64 {
        self.tables.iter().map(|t| t.steps.len() as u64).sum()
    }
}

fn patch_err(table: &str, detail: impl std::fmt::Display) -> Error {
    Error::Decode {
        detail: format!("patch for table {table:?}: {detail}"),
    }
}

/// The column a table's subtree keys live in: the fragment root's `ID`,
/// falling back to the first `NodeId` column for irregular schemas.
pub fn key_column(feed: &Feed) -> Result<usize> {
    feed.schema
        .root_id_col()
        .or_else(|| {
            feed.schema
                .columns
                .iter()
                .position(|c| c.role == ColRole::NodeId)
        })
        .ok_or_else(|| Error::SchemaMismatch {
            detail: format!(
                "feed for {:?} has no NodeId column to key subtrees by",
                feed.schema.root_element
            ),
        })
}

fn row_key<'a>(table: &str, rows: &'a Rows, r: usize, col: usize) -> Result<&'a Dewey> {
    rows.cell(r, col)
        .as_dewey()
        .ok_or_else(|| patch_err(table, "row key is not a Dewey id"))
}

/// Applies one table's steps to its base feed, producing the complete
/// patched feed in one merge pass (base rows and steps are in document
/// order). Every anomaly is an error: steps out of order or overlapping,
/// a row count the step's kind forbids, inserts over an existing subtree,
/// payload rows left over or missing, schema clashes, non-Dewey keys.
pub fn apply_table_patch(base: &Feed, patch: &TablePatch) -> Result<Feed> {
    let table = patch.table.as_str();
    if patch.payload.schema.arity() != base.schema.arity() {
        return Err(patch_err(
            table,
            format!(
                "payload arity {} does not match base arity {}",
                patch.payload.schema.arity(),
                base.schema.arity()
            ),
        ));
    }
    let col = key_column(base)?;
    let mut out = Vec::with_capacity(base.rows.len() + patch.payload.rows.len());
    let mut i = 0; // next base row
    let mut p = 0; // next payload row
    let mut prev_key: Option<&Dewey> = None;
    for step in &patch.steps {
        if prev_key.is_some_and(|k| step.key <= *k) {
            return Err(patch_err(table, "steps out of ascending key order"));
        }
        prev_key = Some(&step.key);
        // Copy the untouched prefix: rows strictly before the step key.
        let untouched = i;
        while i < base.rows.len() && *row_key(table, &base.rows, i, col)? < step.key {
            i += 1;
        }
        base.rows.slice(untouched..i).copy_to(&mut out);
        // The step's range: rows whose key extends the step key.
        let range_start = i;
        while i < base.rows.len() && step.key.is_prefix_of(row_key(table, &base.rows, i, col)?) {
            i += 1;
        }
        let take = step.rows as usize;
        let anomaly = match step.kind {
            StepKind::InsertSubtree if i > range_start => Some("the subtree already exists"),
            StepKind::DeleteSubtree | StepKind::ReplaceSubtree if i == range_start => {
                Some("it matches no base rows")
            }
            StepKind::DeleteSubtree if take > 0 => Some("a delete carries payload rows"),
            StepKind::InsertSubtree | StepKind::ReplaceSubtree if take == 0 => {
                Some("it carries no payload rows")
            }
            _ => None,
        };
        if let Some(anomaly) = anomaly {
            return Err(patch_err(
                table,
                format!("{:?} at {}: {anomaly}", step.kind, step.key),
            ));
        }
        if p + take > patch.payload.rows.len() {
            return Err(patch_err(table, "payload underrun"));
        }
        for r in p..p + take {
            if !step
                .key
                .is_prefix_of(row_key(table, &patch.payload.rows, r, col)?)
            {
                return Err(patch_err(
                    table,
                    format!("payload row outside the {} subtree", step.key),
                ));
            }
        }
        patch.payload.rows.slice(p..p + take).copy_to(&mut out);
        p += take;
    }
    if p != patch.payload.rows.len() {
        return Err(patch_err(
            table,
            format!(
                "{} payload rows left unconsumed",
                patch.payload.rows.len() - p
            ),
        ));
    }
    base.rows.slice(i..).copy_to(&mut out);
    Ok(Feed {
        schema: base.schema.clone(),
        rows: out.into(),
    })
}

/// Stages the full post-patch state of every table into `target`:
/// patched feeds for tables the patch touches, the base snapshot's own
/// row sets, shared, for tables it does not (the target database is
/// built fresh per session, mirroring the full-ship path). Returns the rows
/// staged. On error the caller rolls the staging back; nothing live has
/// changed.
pub fn stage_patch(
    snapshot: &[(String, Feed)],
    patch: &DeltaPatch,
    target: &mut Database,
) -> Result<u64> {
    let mut staged = 0u64;
    for (name, base) in snapshot {
        let feed = match patch.tables.iter().find(|t| &t.table == name) {
            Some(tp) => apply_table_patch(base, tp)?,
            None => base.clone(),
        };
        staged += feed.len() as u64;
        target.load_staged(name, feed)?;
    }
    for tp in &patch.tables {
        if snapshot.iter().any(|(name, _)| name == &tp.table) {
            continue;
        }
        // A table new at head: its "base" is empty, all steps are inserts.
        let base = Feed::new(tp.payload.schema.clone());
        let feed = apply_table_patch(&base, tp)?;
        staged += feed.len() as u64;
        target.load_staged(&tp.table, feed)?;
    }
    Ok(staged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::fragment_feed_schema;
    use crate::value::Value;

    fn item_feed(ids: &[u32]) -> Feed {
        let schema = fragment_feed_schema("item", &[("item".to_string(), true)]);
        let mut f = Feed::new(schema);
        for &i in ids {
            f.push_row(vec![
                Value::Dewey(Dewey::from([1, 1, 1])),
                Value::Dewey(Dewey::from([1, 1, 1, i])),
                Value::Str(format!("item {i}").into()),
            ])
            .unwrap();
        }
        f
    }

    fn payload_of(feed: &Feed, ids: &[u32]) -> Feed {
        let mut p = Feed::new(feed.schema.clone());
        for &i in ids {
            p.push_row(vec![
                Value::Dewey(Dewey::from([1, 1, 1])),
                Value::Dewey(Dewey::from([1, 1, 1, i])),
                Value::Str(format!("patched {i}").into()),
            ])
            .unwrap();
        }
        p
    }

    #[test]
    fn replace_delete_insert_in_one_pass() {
        let base = item_feed(&[1, 2, 3, 5]);
        let patch = TablePatch {
            table: "ITEM".into(),
            steps: vec![
                PatchStep {
                    kind: StepKind::ReplaceSubtree,
                    key: Dewey::from([1, 1, 1, 2]),
                    rows: 1,
                },
                PatchStep {
                    kind: StepKind::DeleteSubtree,
                    key: Dewey::from([1, 1, 1, 3]),
                    rows: 0,
                },
                PatchStep {
                    kind: StepKind::InsertSubtree,
                    key: Dewey::from([1, 1, 1, 4]),
                    rows: 1,
                },
            ],
            payload: payload_of(&base, &[2, 4]),
        };
        let out = apply_table_patch(&base, &patch).unwrap();
        let keys: Vec<u32> = (0..out.len())
            .map(|r| out.rows.cell(r, 1).as_dewey().unwrap().as_slice()[3])
            .collect();
        assert_eq!(keys, vec![1, 2, 4, 5]);
        assert_eq!(*out.rows.cell(1, 2), Value::Str("patched 2".into()));
        assert_eq!(*out.rows.cell(2, 2), Value::Str("patched 4".into()));
        assert_eq!(*out.rows.cell(3, 2), Value::Str("item 5".into()));
        let col = key_column(&out).unwrap();
        assert!(out.is_sorted_by(&[col]));
    }

    #[test]
    fn prefix_range_removes_whole_subtrees() {
        // Child rows keyed under item 2 vanish with their subtree root.
        let schema = fragment_feed_schema("item", &[("item".to_string(), false)]);
        let mut base = Feed::new(schema);
        for key in [
            vec![1, 1],
            vec![1, 2],
            vec![1, 2, 1],
            vec![1, 2, 2],
            vec![1, 3],
        ] {
            base.push_row(vec![
                Value::Dewey(Dewey::from([1])),
                Value::Dewey(Dewey::from(key)),
            ])
            .unwrap();
        }
        let patch = TablePatch {
            table: "ITEM".into(),
            steps: vec![PatchStep {
                kind: StepKind::DeleteSubtree,
                key: Dewey::from([1, 2]),
                rows: 0,
            }],
            payload: Feed::new(base.schema.clone()),
        };
        let out = apply_table_patch(&base, &patch).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(*out.rows.cell(1, 1), Value::Dewey(Dewey::from([1, 3])));
    }

    #[test]
    fn malformed_patches_are_rejected() {
        let base = item_feed(&[1, 2, 3]);
        let step = |kind, id: u32, rows| PatchStep {
            kind,
            key: Dewey::from([1, 1, 1, id]),
            rows,
        };
        // Steps out of order.
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![
                step(StepKind::DeleteSubtree, 2, 0),
                step(StepKind::DeleteSubtree, 1, 0),
            ],
            payload: Feed::new(base.schema.clone()),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        // Insert over an existing subtree.
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::InsertSubtree, 2, 1)],
            payload: payload_of(&base, &[2]),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        // Delete of a missing subtree.
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::DeleteSubtree, 9, 0)],
            payload: Feed::new(base.schema.clone()),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        // Payload underrun and leftover.
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::ReplaceSubtree, 2, 3)],
            payload: payload_of(&base, &[2]),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::DeleteSubtree, 2, 0)],
            payload: payload_of(&base, &[2]),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        // A delete that carries payload rows.
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::DeleteSubtree, 2, 1)],
            payload: payload_of(&base, &[2]),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        // An insert or a replace that carries none.
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::InsertSubtree, 4, 0)],
            payload: Feed::new(base.schema.clone()),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::ReplaceSubtree, 2, 0)],
            payload: Feed::new(base.schema.clone()),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        // Payload row outside the step's subtree.
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![step(StepKind::ReplaceSubtree, 2, 1)],
            payload: payload_of(&base, &[7]),
        };
        assert!(apply_table_patch(&base, &bad).is_err());
        // Arity clash.
        let skinny = Feed::new(fragment_feed_schema("item", &[("item".to_string(), false)]));
        let bad = TablePatch {
            table: "ITEM".into(),
            steps: vec![],
            payload: skinny,
        };
        assert!(apply_table_patch(&base, &bad).is_err());
    }

    #[test]
    fn stage_patch_is_transactional() {
        let base = item_feed(&[1, 2, 3]);
        let snapshot = vec![
            ("ITEM".to_string(), base.clone()),
            ("OTHER".to_string(), item_feed(&[7])),
        ];
        let patch = DeltaPatch {
            base_version: 1,
            head_version: 2,
            tables: vec![TablePatch {
                table: "ITEM".into(),
                steps: vec![PatchStep {
                    kind: StepKind::ReplaceSubtree,
                    key: Dewey::from([1, 1, 1, 2]),
                    rows: 1,
                }],
                payload: payload_of(&base, &[2]),
            }],
        };
        assert_eq!(patch.step_count(), 1);
        let mut target = Database::new("t");
        let staged = stage_patch(&snapshot, &patch, &mut target).unwrap();
        assert_eq!(staged, 4, "patched ITEM (3 rows) + untouched OTHER (1)");
        assert_eq!(target.total_rows(), 0, "nothing live before commit");
        assert_eq!(target.commit_staged(), 4);
        assert_eq!(target.table("ITEM").unwrap().len(), 3);
        assert_eq!(target.table("OTHER").unwrap().len(), 1);

        // A failing patch rolls back to nothing.
        let mut target = Database::new("t2");
        let bad = DeltaPatch {
            base_version: 1,
            head_version: 2,
            tables: vec![TablePatch {
                table: "ITEM".into(),
                steps: vec![PatchStep {
                    kind: StepKind::DeleteSubtree,
                    key: Dewey::from([9, 9]),
                    rows: 0,
                }],
                payload: Feed::new(base.schema.clone()),
            }],
        };
        assert!(stage_patch(&snapshot, &bad, &mut target).is_err());
        target.rollback_staged();
        assert_eq!(target.total_rows(), 0);
        assert!(target.table_names().is_empty(), "staged tables removed");
    }

    #[test]
    fn new_table_at_head_applies_from_empty_base() {
        let payload = payload_of(&item_feed(&[]), &[1, 2]);
        let patch = DeltaPatch {
            base_version: 0,
            head_version: 1,
            tables: vec![TablePatch {
                table: "FRESH".into(),
                steps: vec![
                    PatchStep {
                        kind: StepKind::InsertSubtree,
                        key: Dewey::from([1, 1, 1, 1]),
                        rows: 1,
                    },
                    PatchStep {
                        kind: StepKind::InsertSubtree,
                        key: Dewey::from([1, 1, 1, 2]),
                        rows: 1,
                    },
                ],
                payload,
            }],
        };
        let mut target = Database::new("t");
        assert_eq!(stage_patch(&[], &patch, &mut target).unwrap(), 2);
        target.commit_staged();
        assert_eq!(target.table("FRESH").unwrap().len(), 2);
    }
}
