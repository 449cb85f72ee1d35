//! Flat row tables: variable-length rows in one allocation per column.
//!
//! Algorithm 2's result has one row per node (its ICCs, its territory
//! anchors) and one per edge (its territory anchors), and most rows hold a
//! handful of items. A `Vec` or `HashMap` per row costs an allocation and
//! a header for each; [`Rows`] keeps every row's keys in one `Vec`, the
//! values (when the table has them) in a parallel one, and one offset per
//! row, so reading a row is slicing.

use std::ops::{Index, Range};

/// Variable-length rows stored flat. Row `i`'s keys are
/// `keys[offsets[i]..offsets[i + 1]]`; a table with a value column (`V`
/// other than `()`) holds each key's value at the same position of
/// `values`.
///
/// [`Rows::get`] binary-searches a row, so the tables it serves keep each
/// row's keys ascending and unique; the rows themselves accept any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rows<K, V = ()> {
    offsets: Vec<usize>,
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K, V> Default for Rows<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Rows<K, V> {
    /// A table with no rows.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// A table with no rows and room for `rows` rows of `items` items in
    /// all.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            keys: Vec::with_capacity(items),
            values: Vec::with_capacity(items),
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The positions of row `i` in the columns.
    fn span(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Row `i`'s keys (also `rows[i]`).
    ///
    /// # Panics
    ///
    /// If there is no row `i`.
    pub fn row(&self, i: usize) -> &[K] {
        &self.keys[self.span(i)]
    }

    /// Row `i`'s values, parallel to [`Rows::row`].
    ///
    /// # Panics
    ///
    /// If there is no row `i`.
    pub fn values(&self, i: usize) -> &[V] {
        &self.values[self.span(i)]
    }

    /// Row `i`'s keys, each with its value.
    ///
    /// # Panics
    ///
    /// If there is no row `i`.
    pub fn pairs(&self, i: usize) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.row(i).iter().zip(self.values(i))
    }

    /// Every row's keys, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[K]> + '_ {
        self.offsets.windows(2).map(|w| &self.keys[w[0]..w[1]])
    }

    /// Keeps the first `rows` rows and drops the rest.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.len() {
            self.offsets.truncate(rows + 1);
            let end = self.offsets[rows];
            self.keys.truncate(end);
            self.values.truncate(end);
        }
    }
}

impl<K: Copy, V: Copy> Rows<K, V> {
    /// Appends a row of `keys` with their `values`.
    ///
    /// # Panics
    ///
    /// If the two slices differ in length.
    pub fn push_row(&mut self, keys: &[K], values: &[V]) {
        assert_eq!(keys.len(), values.len(), "a row's two columns differ");
        self.keys.extend_from_slice(keys);
        self.values.extend_from_slice(values);
        self.offsets.push(self.keys.len());
    }

    /// Replaces row `i` with `keys` and their `values`; the rows after it
    /// keep their contents.
    ///
    /// # Panics
    ///
    /// If there is no row `i` or the two slices differ in length.
    pub fn replace_row(&mut self, i: usize, keys: &[K], values: &[V]) {
        assert_eq!(keys.len(), values.len(), "a row's two columns differ");
        let span = self.span(i);
        let old = span.len();
        self.keys.splice(span.clone(), keys.iter().copied());
        self.values.splice(span, values.iter().copied());
        for offset in &mut self.offsets[i + 1..] {
            *offset = *offset - old + keys.len();
        }
    }
}

impl<K: Copy> Rows<K> {
    /// Appends a row of `keys` to a table without values.
    pub fn push(&mut self, keys: &[K]) {
        self.keys.extend_from_slice(keys);
        self.values.resize(self.keys.len(), ());
        self.offsets.push(self.keys.len());
    }

    /// Replaces row `i` of a table without values with `keys`.
    ///
    /// # Panics
    ///
    /// If there is no row `i`.
    pub fn replace(&mut self, i: usize, keys: &[K]) {
        self.replace_row(i, keys, &vec![(); keys.len()]);
    }
}

impl<K: Ord, V> Rows<K, V> {
    /// The value of `key` in row `i`, by binary search over the row's
    /// keys (which must be ascending).
    ///
    /// # Panics
    ///
    /// If there is no row `i`.
    pub fn get(&self, i: usize, key: &K) -> Option<&V> {
        let span = self.span(i);
        let at = self.keys[span.clone()].binary_search(key).ok()?;
        Some(&self.values[span.start + at])
    }
}

impl<K, V> Index<usize> for Rows<K, V> {
    type Output = [K];

    fn index(&self, i: usize) -> &[K] {
        self.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rows<u32, u64> {
        let mut rows = Rows::new();
        rows.push_row(&[1, 4], &[10, 40]);
        rows.push_row(&[], &[]);
        rows.push_row(&[2], &[20]);
        rows
    }

    #[test]
    fn rows_read_back_as_pushed() {
        let rows = sample();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(0), &[1, 4]);
        assert_eq!(rows.values(0), &[10, 40]);
        let pairs: Vec<(&u32, &u64)> = rows.pairs(0).collect();
        assert_eq!(pairs, vec![(&1, &10), (&4, &40)]);
        assert!(rows[1].is_empty());
        assert_eq!(&rows[2], &[2]);
        let all: Vec<&[u32]> = rows.iter().collect();
        assert_eq!(all, vec![&[1, 4][..], &[], &[2]]);
        assert_eq!(rows.get(0, &4), Some(&40));
        assert_eq!(rows.get(0, &2), None);
        assert_eq!(rows.get(1, &1), None);
        assert!(Rows::<u32>::new().is_empty());
    }

    #[test]
    fn replace_and_truncate_keep_the_other_rows() {
        let mut rows = sample();
        rows.replace_row(0, &[3], &[30]);
        assert_eq!(rows, {
            let mut want = Rows::new();
            want.push_row(&[3], &[30]);
            want.push_row(&[], &[]);
            want.push_row(&[2], &[20]);
            want
        });
        rows.replace_row(1, &[5, 6, 7], &[50, 60, 70]);
        assert_eq!(rows.values(1), &[50, 60, 70]);
        assert_eq!(rows.get(2, &2), Some(&20));
        rows.truncate(1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.row(0), &[3]);
        rows.truncate(5);
        assert_eq!(rows.len(), 1);

        let mut keys: Rows<u32> = Rows::new();
        keys.push(&[1, 2]);
        keys.push(&[3]);
        keys.replace(0, &[]);
        assert!(keys[0].is_empty());
        assert_eq!(&keys[1], &[3]);
    }
}
