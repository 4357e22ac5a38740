//! Stored tables: materialized feeds plus their indexes.
//!
//! In this system a registered fragmentation *is* the storage schema: the
//! source (target) stores one table per fragment it produces (consumes),
//! and the table layout is the fragment's feed schema. That is exactly the
//! setup of the paper's experiments, where "each schema is seen as a
//! fragmentation registered by a system".

use crate::error::{Error, Result};
use crate::feed::{Feed, FeedSchema, Rows};
use crate::index::Index;
use crate::stats::Counters;
use std::sync::Arc;

/// A stored table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table name (conventionally the fragment name).
    pub name: String,
    /// Rows + layout; the table is a materialized feed.
    pub data: Feed,
    /// Secondary indexes built so far, each shared with the table's
    /// clones like the rows it indexes.
    pub indexes: Vec<Arc<Index>>,
    /// Rows staged by [`Table::stage_rows`], invisible to scans until
    /// [`Table::commit_staged`] swaps them in.
    staged: Rows,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: FeedSchema) -> Self {
        Table {
            name: name.into(),
            data: Feed::new(schema),
            indexes: Vec::new(),
            staged: Rows::default(),
        }
    }

    /// Bulk-loads `feed` into the table (the engine half of `Write`).
    ///
    /// Indexes are *not* maintained incrementally — the paper's pipeline
    /// loads first and creates indexes afterwards (Table 4 separates the
    /// two), so existing indexes are dropped and must be rebuilt. A view
    /// is copied out first ([`Rows::materialize`](crate::Rows::materialize)):
    /// a table never holds one.
    pub fn bulk_load(&mut self, mut feed: Feed, counters: &mut Counters) -> Result<()> {
        if feed.schema.arity() != self.data.schema.arity() {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "table {} has arity {}, feed has {}",
                    self.name,
                    self.data.schema.arity(),
                    feed.schema.arity()
                ),
            });
        }
        counters.rows_written += feed.len() as u64;
        self.indexes.clear();
        feed.rows.materialize();
        self.data.rows.absorb(feed.rows);
        Ok(())
    }

    /// Stages `feed`'s rows for a later atomic [`Table::commit_staged`]
    /// (the transactional half of `Write`): staged rows are invisible to
    /// scans and indexes, cost nothing if rolled back, and only touch the
    /// live table when the whole exchange commits. Schema mismatches are
    /// rejected at staging time, before anything is at risk. Empty
    /// staging adopts `feed`'s row set whole, shared with whoever else
    /// holds it; a view is copied out first, as in [`Table::bulk_load`].
    pub fn stage_rows(&mut self, mut feed: Feed) -> Result<()> {
        if feed.schema.arity() != self.data.schema.arity() {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "table {} has arity {}, staged feed has {}",
                    self.name,
                    self.data.schema.arity(),
                    feed.schema.arity()
                ),
            });
        }
        feed.rows.materialize();
        self.staged.absorb(feed.rows);
        Ok(())
    }

    /// Atomically swaps staged rows into the live table, counting the
    /// write work now (it only happens on commit). Like
    /// [`Table::bulk_load`], existing indexes are dropped for the
    /// post-load rebuild; an empty table adopts the staged row set whole.
    /// Returns the number of rows committed.
    pub fn commit_staged(&mut self, counters: &mut Counters) -> u64 {
        if self.staged.is_empty() {
            return 0;
        }
        let committed = self.staged.len() as u64;
        counters.rows_written += committed;
        self.indexes.clear();
        self.data.rows.absorb(std::mem::take(&mut self.staged));
        committed
    }

    /// Discards staged rows; the live table is untouched, and so is
    /// anyone the staged row set was shared with.
    pub fn rollback_staged(&mut self) {
        self.staged = Rows::default();
    }

    /// Number of rows currently staged.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Builds an index on `column`.
    pub fn build_index(&mut self, column: usize, counters: &mut Counters) -> Result<()> {
        if column >= self.data.schema.arity() {
            return Err(Error::UnknownColumn {
                name: format!("#{column}"),
            });
        }
        let idx = Index::build(&self.data.rows, column, counters);
        self.indexes.retain(|i| i.column != column);
        self.indexes.push(Arc::new(idx));
        Ok(())
    }

    /// Builds the conventional key indexes: the root element's `ID`
    /// (primary key) and `PARENT` (foreign key), when those columns exist.
    pub fn build_key_indexes(&mut self, counters: &mut Counters) -> Result<()> {
        let cols: Vec<usize> = [
            self.data.schema.root_id_col(),
            self.data.schema.parent_ref_col(),
        ]
        .into_iter()
        .flatten()
        .collect();
        for c in cols {
            self.build_index(c, counters)?;
        }
        Ok(())
    }

    /// Full scan: a feed sharing the table's rows (a write through either
    /// copies first). The operator loop's `Scan` does not call this: it
    /// borrows [`Table::data`] and bills the same work.
    pub fn scan(&self, counters: &mut Counters) -> Feed {
        counters.rows_read += self.data.len() as u64;
        counters.rows_out += self.data.len() as u64;
        self.data.clone()
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{ColRole, FeedColumn};
    use crate::value::{Dewey, Value};

    fn schema() -> FeedSchema {
        FeedSchema::new(
            "item",
            vec![
                FeedColumn::new("item", ColRole::ParentRef),
                FeedColumn::new("item", ColRole::NodeId),
                FeedColumn::new("iname", ColRole::Value),
            ],
        )
    }

    fn feed(n: usize) -> Feed {
        let mut f = Feed::new(schema());
        for i in 0..n {
            f.push_row(vec![
                Value::Dewey(Dewey::from([1])),
                Value::Dewey(Dewey::from([1, i as u32 + 1])),
                Value::Str(format!("thing{i}").into()),
            ])
            .unwrap();
        }
        f
    }

    #[test]
    fn load_scan_roundtrip() {
        let mut c = Counters::new();
        let mut t = Table::new("ITEM", schema());
        t.bulk_load(feed(5), &mut c).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(c.rows_written, 5);
        let out = t.scan(&mut c);
        assert_eq!(out.len(), 5);
        assert_eq!(c.rows_read, 5);
    }

    #[test]
    fn load_appends() {
        let mut c = Counters::new();
        let mut t = Table::new("ITEM", schema());
        t.bulk_load(feed(3), &mut c).unwrap();
        t.bulk_load(feed(2), &mut c).unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn load_rejects_wrong_arity() {
        let mut c = Counters::new();
        let mut t = Table::new("ITEM", schema());
        let bad = Feed::new(FeedSchema::new(
            "x",
            vec![FeedColumn::new("x", ColRole::Value)],
        ));
        assert!(t.bulk_load(bad, &mut c).is_err());
    }

    #[test]
    fn key_indexes_cover_id_and_parent() {
        let mut c = Counters::new();
        let mut t = Table::new("ITEM", schema());
        t.bulk_load(feed(4), &mut c).unwrap();
        t.build_key_indexes(&mut c).unwrap();
        assert_eq!(t.indexes.len(), 2);
        assert_eq!(c.index_inserts, 8);
        let id_idx = t.indexes.iter().find(|i| i.column == 1).unwrap();
        assert!(id_idx.is_unique());
    }

    #[test]
    fn load_drops_indexes() {
        let mut c = Counters::new();
        let mut t = Table::new("ITEM", schema());
        t.bulk_load(feed(2), &mut c).unwrap();
        t.build_key_indexes(&mut c).unwrap();
        t.bulk_load(feed(1), &mut c).unwrap();
        assert!(t.indexes.is_empty());
    }

    #[test]
    fn staged_rows_invisible_until_commit() {
        let mut c = Counters::new();
        let mut t = Table::new("ITEM", schema());
        t.bulk_load(feed(2), &mut c).unwrap();
        t.stage_rows(feed(3)).unwrap();
        assert_eq!(t.len(), 2, "staged rows must not be scannable");
        assert_eq!(t.staged_len(), 3);
        assert_eq!(c.rows_written, 2, "write work is counted at commit");
        assert_eq!(t.commit_staged(&mut c), 3);
        assert_eq!(t.len(), 5);
        assert_eq!(t.staged_len(), 0);
        assert_eq!(c.rows_written, 5);
    }

    #[test]
    fn rollback_discards_staged_rows_only() {
        let mut c = Counters::new();
        let mut t = Table::new("ITEM", schema());
        t.bulk_load(feed(4), &mut c).unwrap();
        t.build_key_indexes(&mut c).unwrap();
        t.stage_rows(feed(2)).unwrap();
        t.rollback_staged();
        assert_eq!(t.len(), 4);
        assert_eq!(t.staged_len(), 0);
        assert_eq!(t.indexes.len(), 2, "rollback leaves indexes intact");
        assert_eq!(c.rows_written, 4);
        // An empty commit is a no-op and keeps indexes too.
        assert_eq!(t.commit_staged(&mut c), 0);
        assert_eq!(t.indexes.len(), 2);
    }

    #[test]
    fn staging_rejects_wrong_arity() {
        let mut t = Table::new("ITEM", schema());
        let bad = Feed::new(FeedSchema::new(
            "x",
            vec![FeedColumn::new("x", ColRole::Value)],
        ));
        assert!(t.stage_rows(bad).is_err());
        assert_eq!(t.staged_len(), 0);
    }
}
