//! Secondary indexes on stored tables.
//!
//! The paper measures index creation at the target (Table 4: "create
//! indices") as a separate end-to-end step. An index here is the table's
//! row positions in key order, cut into one run per distinct key — the
//! leaf level of MySQL's B-tree indexes on the key columns of each
//! shredded relation, without the tree: a lookup is a binary search over
//! the runs, reading each run's key through the rows the index was built
//! over. It keeps positions, never keys.
//!
//! Tables arrive in Dewey order, so on their key columns building one is
//! one pass: it confirms the order and records where each key's run
//! starts with the same comparison. Only a column found out of order —
//! the first descent — pays a sort of the positions.

use crate::feed::{ReadRows, Row, Rows};
use crate::stats::Counters;
use crate::value::Value;
use std::cmp::Ordering;

/// An ordered index over one column of a table.
#[derive(Debug, Clone)]
pub struct Index {
    /// Indexed column position.
    pub column: usize,
    /// Row positions by (key, position).
    order: Vec<u32>,
    /// Where in `order` each run starts, one run per distinct key, and
    /// where the last one ends.
    starts: Vec<u32>,
}

impl Index {
    /// Builds an index over `column` of `rows`, charging one
    /// `index_inserts` unit per row to `counters`.
    pub fn build(rows: &Rows, column: usize, counters: &mut Counters) -> Index {
        counters.index_inserts += rows.len() as u64;
        rows.slice(..).read(Build(column))
    }

    /// Row positions whose indexed column equals `key`, ascending.
    /// `rows` are the rows the index was built over.
    pub fn lookup(&self, rows: &Rows, key: &Value) -> &[u32] {
        let runs = &self.starts[..self.starts.len() - 1];
        let key_at = |at: &u32| rows.cell(self.order[*at as usize] as usize, self.column);
        match runs.binary_search_by(|at| key_at(at).cmp(key)) {
            Ok(run) => &self.order[self.starts[run] as usize..self.starts[run + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of indexed entries.
    pub fn entries(&self) -> usize {
        self.order.len()
    }

    /// True when every key maps to exactly one row (a unique/primary key).
    pub fn is_unique(&self) -> bool {
        self.distinct_keys() == self.order.len()
    }
}

/// [`Index::build`]'s pass over the rows of column `.0`, where they sit.
struct Build(usize);

impl<'a> ReadRows<'a> for Build {
    type Out = Index;
    fn read<R: Row<'a>>(self, len: usize, row: impl Fn(usize) -> R) -> Index {
        let column = self.0;
        let key = |pos: u32| row(pos as usize).cell(column);
        let mut order: Vec<u32> = (0..len as u32).collect();
        let mut starts = Vec::new();
        let mut last: Option<&Value> = None;
        for at in 0..len as u32 {
            let next = key(at);
            match last.replace(next).map(|last| last.cmp(next)) {
                None | Some(Ordering::Less) => starts.push(at),
                Some(Ordering::Equal) => {}
                Some(Ordering::Greater) => {
                    // Stable: equal keys keep their positions ascending.
                    order.sort_by_key(|&pos| key(pos));
                    starts = (0..order.len())
                        .filter(|&at| at == 0 || key(order[at - 1]) != key(order[at]))
                        .map(|at| at as u32)
                        .collect();
                    break;
                }
            }
        }
        starts.push(order.len() as u32);
        Index {
            column,
            order,
            starts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Dewey;

    fn rows() -> Rows {
        Rows::from(vec![
            vec![Value::Dewey(Dewey::from([1])), Value::Str("a".into())],
            vec![Value::Dewey(Dewey::from([2])), Value::Str("b".into())],
            vec![Value::Dewey(Dewey::from([3])), Value::Str("a".into())],
        ])
    }

    #[test]
    fn build_and_lookup() {
        let mut c = Counters::new();
        let idx = Index::build(&rows(), 1, &mut c);
        assert_eq!(c.index_inserts, 3);
        assert_eq!(idx.lookup(&rows(), &Value::Str("a".into())), &[0, 2]);
        assert_eq!(
            idx.lookup(&rows(), &Value::Str("zzz".into())),
            &[] as &[u32]
        );
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
        let idx = Index::build(&Rows::default(), 0, &mut c);
        assert_eq!(idx.entries(), 0);
        assert!(idx.is_unique());
    }
}
