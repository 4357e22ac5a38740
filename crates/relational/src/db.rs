//! A named collection of tables: one "system" participating in an
//! exchange (the sales-and-ordering MySQL instance, the provisioning
//! store, ...). Holds the per-system [`Counters`] that the middleware's
//! cost probes read.

use crate::error::{Error, Result};
use crate::feed::{Feed, FeedSchema};
use crate::stats::Counters;
use crate::table::Table;
use std::collections::{BTreeMap, BTreeSet};

/// An in-memory database. `Clone` is deliberate: load generators
/// fabricate thousands of per-session source databases by cloning one
/// preloaded template instead of re-parsing the document each time. A
/// clone shares every table's rows and built indexes with its origin
/// until one of the two writes to that table.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// System name (for diagnostics).
    pub name: String,
    tables: BTreeMap<String, Table>,
    /// Work counters accumulated by all operations on this system.
    pub counters: Counters,
    /// Tables created by [`Database::load_staged`] for rows that are not
    /// yet committed; dropped wholesale on rollback so a failed exchange
    /// leaves no empty husks behind.
    staged_created: BTreeSet<String>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            tables: BTreeMap::new(),
            counters: Counters::new(),
            staged_created: BTreeSet::new(),
        }
    }

    /// Creates a table; errors if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: FeedSchema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(Error::DuplicateTable {
                name: name.to_string(),
            });
        }
        self.tables
            .insert(name.to_string(), Table::new(name, schema));
        Ok(())
    }

    /// Creates the table if missing, then bulk-loads `feed` into it.
    pub fn load(&mut self, name: &str, feed: Feed) -> Result<()> {
        if !self.tables.contains_key(name) {
            self.create_table(name, feed.schema.clone())?;
        }
        let table = self.tables.get_mut(name).expect("just ensured");
        table.bulk_load(feed, &mut self.counters)
    }

    /// Creates the table if missing, then *stages* `feed` for a later
    /// [`Database::commit_staged`]. The transactional twin of
    /// [`Database::load`]: until commit, the rows are invisible to every
    /// scan, and [`Database::rollback_staged`] restores the database to
    /// exactly its pre-staging state — tables created only for staged
    /// rows are dropped again.
    pub fn load_staged(&mut self, name: &str, feed: Feed) -> Result<()> {
        if !self.tables.contains_key(name) {
            self.create_table(name, feed.schema.clone())?;
            self.staged_created.insert(name.to_string());
        }
        let table = self.tables.get_mut(name).expect("just ensured");
        table.stage_rows(feed)
    }

    /// Atomically swaps every staged row into its live table. Returns the
    /// total number of rows committed.
    pub fn commit_staged(&mut self) -> u64 {
        let mut counters = self.counters;
        let mut committed = 0;
        for table in self.tables.values_mut() {
            committed += table.commit_staged(&mut counters);
        }
        self.counters = counters;
        self.staged_created.clear();
        committed
    }

    /// Discards every staged row and drops tables that only existed to
    /// hold them. Committed data is untouched.
    pub fn rollback_staged(&mut self) {
        for table in self.tables.values_mut() {
            table.rollback_staged();
        }
        for name in std::mem::take(&mut self.staged_created) {
            self.tables.remove(&name);
        }
    }

    /// Total rows staged and awaiting commit across all tables.
    pub fn staged_rows(&self) -> usize {
        self.tables.values().map(Table::staged_len).sum()
    }

    /// Full scan of a table: a feed sharing the table's rows. (The
    /// operator loop's `Scan` borrows [`Table::data`] through
    /// [`Database::table`] instead.)
    pub fn scan(&mut self, name: &str) -> Result<Feed> {
        // Split borrows: table read + counters write.
        let table = self.tables.get(name).ok_or_else(|| Error::UnknownTable {
            name: name.to_string(),
        })?;
        let mut counters = self.counters;
        let feed = table.scan(&mut counters);
        self.counters = counters;
        Ok(feed)
    }

    /// Builds ID/PARENT indexes on every table (the paper's post-load
    /// "update indexes" step). Returns the number of indexes built.
    pub fn build_all_key_indexes(&mut self) -> Result<usize> {
        let mut built = 0;
        let mut counters = self.counters;
        for table in self.tables.values_mut() {
            let before = table.indexes.len();
            table.build_key_indexes(&mut counters)?;
            built += table.indexes.len() - before;
        }
        self.counters = counters;
        Ok(built)
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| Error::UnknownTable {
            name: name.to_string(),
        })
    }

    /// Mutably borrow a table together with the counters (for operations
    /// that need both).
    pub fn table_mut(&mut self, name: &str) -> Result<(&mut Table, &mut Counters)> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable {
                name: name.to_string(),
            })?;
        Ok((table, &mut self.counters))
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Total stored rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Drops all tables and resets counters (fresh target before a run —
    /// the paper reboots and starts from an empty target database).
    pub fn reset(&mut self) {
        self.tables.clear();
        self.counters = Counters::new();
        self.staged_created.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{ColRole, FeedColumn};
    use crate::value::{Dewey, Value};

    fn feed(n: usize) -> Feed {
        let schema = FeedSchema::new(
            "a",
            vec![
                FeedColumn::new("a", ColRole::ParentRef),
                FeedColumn::new("a", ColRole::NodeId),
            ],
        );
        let mut f = Feed::new(schema);
        for i in 0..n {
            f.push_row(vec![
                Value::Dewey(Dewey::root()),
                Value::Dewey(Dewey::from([i as u32 + 1])),
            ])
            .unwrap();
        }
        f
    }

    #[test]
    fn load_creates_table_implicitly() {
        let mut db = Database::new("src");
        db.load("A", feed(3)).unwrap();
        assert!(db.has_table("A"));
        assert_eq!(db.total_rows(), 3);
        assert_eq!(db.scan("A").unwrap().len(), 3);
        assert_eq!(db.counters.rows_written, 3);
        assert_eq!(db.counters.rows_read, 3);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut db = Database::new("src");
        db.create_table("A", feed(0).schema).unwrap();
        assert!(db.create_table("A", feed(0).schema).is_err());
    }

    #[test]
    fn unknown_table_errors() {
        let mut db = Database::new("src");
        assert!(db.scan("missing").is_err());
        assert!(db.table("missing").is_err());
    }

    #[test]
    fn key_indexes_all_tables() {
        let mut db = Database::new("t");
        db.load("A", feed(2)).unwrap();
        db.load("B", feed(4)).unwrap();
        let built = db.build_all_key_indexes().unwrap();
        assert_eq!(built, 4); // ID+PARENT per table
        assert!(db.counters.index_inserts >= 12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut db = Database::new("t");
        db.load("A", feed(2)).unwrap();
        db.reset();
        assert_eq!(db.total_rows(), 0);
        assert_eq!(db.counters, Counters::new());
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn staged_load_commits_atomically() {
        let mut db = Database::new("tgt");
        db.load("A", feed(2)).unwrap();
        db.load_staged("A", feed(3)).unwrap();
        db.load_staged("B", feed(4)).unwrap();
        assert_eq!(db.total_rows(), 2, "staged rows are invisible");
        assert_eq!(db.staged_rows(), 7);
        assert_eq!(db.counters.rows_written, 2);
        assert_eq!(db.commit_staged(), 7);
        assert_eq!(db.total_rows(), 9);
        assert_eq!(db.staged_rows(), 0);
        assert_eq!(db.counters.rows_written, 9);
        assert_eq!(db.scan("B").unwrap().len(), 4);
    }

    #[test]
    fn rollback_restores_pre_staging_state() {
        let mut db = Database::new("tgt");
        db.load("A", feed(2)).unwrap();
        db.load_staged("A", feed(3)).unwrap();
        db.load_staged("B", feed(4)).unwrap();
        db.rollback_staged();
        assert_eq!(db.total_rows(), 2);
        assert_eq!(db.staged_rows(), 0);
        assert!(
            !db.has_table("B"),
            "tables created only for staged rows are dropped"
        );
        assert_eq!(db.table_names(), vec!["A"]);
        assert_eq!(db.counters.rows_written, 2);
        // The database is reusable after rollback: B can be staged and
        // committed again cleanly.
        db.load_staged("B", feed(1)).unwrap();
        assert_eq!(db.commit_staged(), 1);
        assert!(db.has_table("B"));
    }

    #[test]
    fn commit_after_partial_restaging_keeps_earlier_commits() {
        let mut db = Database::new("tgt");
        db.load_staged("A", feed(2)).unwrap();
        db.commit_staged();
        db.load_staged("A", feed(1)).unwrap();
        db.rollback_staged();
        assert!(db.has_table("A"), "committed table survives rollback");
        assert_eq!(db.total_rows(), 2);
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Database::new("t");
        db.load("B", feed(1)).unwrap();
        db.load("A", feed(1)).unwrap();
        assert_eq!(db.table_names(), vec!["A", "B"]);
    }
}
