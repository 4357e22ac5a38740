//! Secondary indexes on stored tables.
//!
//! The paper measures index creation at the target (Table 4: "create
//! indices") as a separate end-to-end step. An index here is the table's
//! row positions in key order, cut into one run per distinct key — the
//! leaf level of MySQL's B-tree indexes on the key columns of each
//! shredded relation, without the tree: a lookup is a binary search over
//! the run keys. Tables arrive in Dewey order, so on their key columns
//! building one is a sortedness check, not a sort.

use crate::stats::Counters;
use crate::value::Value;

/// An ordered index over one column of a table.
#[derive(Debug, Clone, Default)]
pub struct Index {
    /// Indexed column position.
    pub column: usize,
    /// Row positions by (key, position).
    order: Vec<u32>,
    /// Where in `order` each run starts, one run per distinct key, and
    /// where the last one ends.
    starts: Vec<u32>,
    /// The key of each run, ascending.
    keys: Vec<Value>,
}

impl Index {
    /// Builds an index over `column` of `rows`, charging one
    /// `index_inserts` unit per row to `counters`.
    pub fn build(rows: &[Vec<Value>], column: usize, counters: &mut Counters) -> Index {
        counters.index_inserts += rows.len() as u64;
        let key = |pos: u32| &rows[pos as usize][column];
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        if !rows.windows(2).all(|w| w[0][column] <= w[1][column]) {
            // Stable: equal keys keep their positions ascending.
            order.sort_by_key(|&pos| key(pos));
        }
        let mut starts = Vec::new();
        let mut keys: Vec<Value> = Vec::new();
        for (at, &pos) in order.iter().enumerate() {
            if keys.last() != Some(key(pos)) {
                starts.push(at as u32);
                keys.push(key(pos).clone());
            }
        }
        starts.push(order.len() as u32);
        Index {
            column,
            order,
            starts,
            keys,
        }
    }

    /// Row positions whose indexed column equals `key`, ascending.
    pub fn lookup(&self, key: &Value) -> &[u32] {
        match self.keys.binary_search(key) {
            Ok(run) => &self.order[self.starts[run] as usize..self.starts[run + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total number of indexed entries.
    pub fn entries(&self) -> usize {
        self.order.len()
    }

    /// True when every key maps to exactly one row (a unique/primary key).
    pub fn is_unique(&self) -> bool {
        self.keys.len() == self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Dewey;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Dewey(Dewey::from([1])), Value::Str("a".into())],
            vec![Value::Dewey(Dewey::from([2])), Value::Str("b".into())],
            vec![Value::Dewey(Dewey::from([3])), Value::Str("a".into())],
        ]
    }

    #[test]
    fn build_and_lookup() {
        let mut c = Counters::new();
        let idx = Index::build(&rows(), 1, &mut c);
        assert_eq!(c.index_inserts, 3);
        assert_eq!(idx.lookup(&Value::Str("a".into())), &[0, 2]);
        assert_eq!(idx.lookup(&Value::Str("zzz".into())), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.entries(), 3);
        assert!(!idx.is_unique());
    }

    #[test]
    fn unique_on_pk() {
        let mut c = Counters::new();
        let idx = Index::build(&rows(), 0, &mut c);
        assert!(idx.is_unique());
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn empty_table() {
        let mut c = Counters::new();
        let idx = Index::build(&[], 0, &mut c);
        assert_eq!(idx.entries(), 0);
        assert!(idx.is_unique());
    }
}
