//! Row storage shared between epochs.
//!
//! [`RowStore`] holds `cols`-wide `f64` rows — one per retained video in
//! a [`Reconstruction`](crate::Reconstruction), one per populated tag in
//! a [`TagViewTable`](crate::TagViewTable) — in immutable segments
//! behind `Arc`, and reaches each logical row through a per-row
//! locator. A cold `compute` or `aggregate` fills one dense segment in a
//! single parallel pass. The streaming-ingest engine instead seals, per
//! publish, one segment per matrix holding only the rows that batch
//! wrote, so
//! consecutive epochs share every other row by reference (DESIGN.md
//! §15).
//!
//! [`RowLog`] is the engine-side owner of a growing store. It records
//! which key (a clean position or a tag id) wrote each sealed row,
//! counts the rows later batches superseded, and applies the two
//! garbage rules after every seal:
//!
//! * **compact** — when dead rows outnumber live ones, copy the live
//!   rows into one segment in key order;
//! * **merge** — a segment is *small* if it held less than
//!   `1/SMALL_FRACTION` of the log's rows when it was sealed (a merged
//!   segment stays small). The newest run of small segments is kept
//!   as a binary counter: the longest suffix in which each segment
//!   holds fewer than twice the live rows of everything after it is
//!   merged into one segment, dropping its dead rows. A stream of
//!   1-record batches therefore keeps O(log n) segments; large
//!   segments are never merged, and there are O(log n) of them too,
//!   since each one grew the log by at least `1/SMALL_FRACTION`. Up to
//!   `SMALL_FRACTION` equal batches never merge at all.

use std::sync::Arc;

/// One sealed, immutable block of row-major rows.
type Segment = Arc<Vec<f64>>;

/// A segment is small — mergeable — if it held fewer than
/// `1/SMALL_FRACTION` of the log's physical rows when sealed.
pub(crate) const SMALL_FRACTION: usize = 16;

/// Where a logical row lives: a segment and a row within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowLoc {
    seg: u32,
    row: u32,
}

/// Locator sentinel: the key has no sealed row.
const NO_LOC: RowLoc = RowLoc {
    seg: u32::MAX,
    row: u32::MAX,
};

/// `cols`-wide `f64` rows in shared immutable segments (see the module
/// docs). Cloning copies the segment list and the locator, never a row.
#[derive(Debug, Clone)]
pub(crate) struct RowStore {
    cols: usize,
    segments: Vec<Segment>,
    /// Logical rows `0..dense` are rows `0..dense` of segment 0.
    dense: usize,
    /// Locations of logical rows `dense..`, in order.
    locs: Vec<RowLoc>,
}

impl RowStore {
    /// Wraps one row-major buffer of `rows × cols` values as a single
    /// dense segment.
    pub(crate) fn from_dense(rows: usize, cols: usize, data: Vec<f64>) -> RowStore {
        debug_assert_eq!(data.len(), rows * cols);
        RowStore {
            cols,
            segments: vec![Arc::new(data)],
            dense: rows,
            locs: Vec::new(),
        }
    }

    /// Number of logical rows.
    pub(crate) fn len(&self) -> usize {
        self.dense + self.locs.len()
    }

    /// Width of every row.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Logical row `i`, or `None` if out of range.
    pub(crate) fn get(&self, i: usize) -> Option<&[f64]> {
        (i < self.len()).then(|| self.row(i))
    }

    /// Logical row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        let (seg, row) = if i < self.dense {
            (0, i)
        } else {
            let loc = self.locs[i - self.dense];
            (loc.seg as usize, loc.row as usize)
        };
        &self.segments[seg][row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over the logical rows in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Number of segments the rows are spread over.
    #[cfg(test)]
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

impl PartialEq for RowStore {
    /// Logical equality: the same shape and the same values row by
    /// row, wherever each row is stored.
    fn eq(&self, other: &RowStore) -> bool {
        self.cols == other.cols
            && self.len() == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// The engine-side owner of a growing [`RowStore`]: sealed segments,
/// the key that wrote each of their rows, and each key's current row
/// (see the module docs for the garbage rules).
#[derive(Debug, Clone)]
pub(crate) struct RowLog {
    cols: usize,
    segments: Vec<Segment>,
    /// Per segment: the key that wrote each row, in row order.
    owners: Vec<Vec<u32>>,
    /// Per segment: rows that are still their key's current row.
    live: Vec<usize>,
    /// Per segment: whether the merge rule may touch it.
    small: Vec<bool>,
    /// Indexed by key: the key's current row, or [`NO_LOC`].
    loc: Vec<RowLoc>,
    live_rows: usize,
    dead_rows: usize,
}

impl RowLog {
    /// An empty log of `cols`-wide rows.
    pub(crate) fn new(cols: usize) -> RowLog {
        RowLog {
            cols,
            segments: Vec::new(),
            owners: Vec::new(),
            live: Vec::new(),
            small: Vec::new(),
            loc: Vec::new(),
            live_rows: 0,
            dead_rows: 0,
        }
    }

    /// The current sealed row of `key`, if it has one.
    pub(crate) fn get(&self, key: usize) -> Option<&[f64]> {
        let loc = *self.loc.get(key)?;
        self.segments
            .get(loc.seg as usize)?
            .get(loc.row as usize * self.cols..(loc.row as usize + 1) * self.cols)
    }

    /// Seals `data` — one row per entry of `owners`, in order, each key
    /// at most once — as a new segment that supersedes each owner's
    /// previous row, then compacts or merges. Returns the rows the
    /// garbage rules copied.
    pub(crate) fn seal(&mut self, data: Vec<f64>, owners: Vec<u32>) -> u64 {
        debug_assert_eq!(data.len(), owners.len() * self.cols);
        if owners.is_empty() {
            return 0;
        }
        let seg = self.segments.len() as u32;
        for (row, &key) in owners.iter().enumerate() {
            let key = key as usize;
            if key >= self.loc.len() {
                self.loc.resize(key + 1, NO_LOC);
            }
            let loc = RowLoc {
                seg,
                row: row as u32,
            };
            let previous = std::mem::replace(&mut self.loc[key], loc);
            if previous == NO_LOC {
                self.live_rows += 1;
            } else {
                self.live[previous.seg as usize] -= 1;
                self.dead_rows += 1;
            }
        }
        let physical = self.live_rows + self.dead_rows;
        self.live.push(owners.len());
        self.small.push(owners.len() * SMALL_FRACTION < physical);
        self.segments.push(Arc::new(data));
        self.owners.push(owners);
        if self.dead_rows > self.live_rows {
            self.compact()
        } else {
            self.merge_small()
        }
    }

    /// Copies every live row into one segment, in key order.
    fn compact(&mut self) -> u64 {
        let mut data = Vec::with_capacity(self.live_rows * self.cols);
        let mut owners = Vec::with_capacity(self.live_rows);
        for key in 0..self.loc.len() {
            if let Some(row) = self.get(key) {
                data.extend_from_slice(row);
                owners.push(key as u32);
            }
        }
        for (row, &key) in owners.iter().enumerate() {
            self.loc[key as usize] = RowLoc {
                seg: 0,
                row: row as u32,
            };
        }
        self.segments = vec![Arc::new(data)];
        self.live = vec![owners.len()];
        self.small = vec![false];
        self.owners = vec![owners];
        self.dead_rows = 0;
        self.live_rows as u64
    }

    /// Merges the longest suffix of small segments in which each
    /// segment holds fewer than twice the live rows of the segments
    /// after it. Returns the rows copied.
    fn merge_small(&mut self) -> u64 {
        let newest = self.segments.len() - 1;
        let (mut first, mut rows) = (newest, self.live[newest]);
        while first > 0
            && self.small[first]
            && self.small[first - 1]
            && self.live[first - 1] < 2 * rows
        {
            first -= 1;
            rows += self.live[first];
        }
        if first == newest {
            return 0;
        }
        let cols = self.cols;
        let mut data = Vec::with_capacity(rows * cols);
        let mut owners = Vec::with_capacity(rows);
        let mut physical = 0;
        for seg in first..=newest {
            physical += self.owners[seg].len();
            for (row, &key) in self.owners[seg].iter().enumerate() {
                let here = RowLoc {
                    seg: seg as u32,
                    row: row as u32,
                };
                if self.loc[key as usize] == here {
                    data.extend_from_slice(&self.segments[seg][row * cols..(row + 1) * cols]);
                    owners.push(key);
                }
            }
        }
        for (row, &key) in owners.iter().enumerate() {
            self.loc[key as usize] = RowLoc {
                seg: first as u32,
                row: row as u32,
            };
        }
        self.dead_rows -= physical - owners.len();
        self.segments.truncate(first);
        self.owners.truncate(first);
        self.live.truncate(first);
        self.small.truncate(first);
        self.segments.push(Arc::new(data));
        self.live.push(rows);
        self.small.push(true);
        self.owners.push(owners);
        rows as u64
    }

    /// The published view of `keys`' current rows, in the order given.
    ///
    /// # Panics
    ///
    /// Panics if a key is beyond every sealed key.
    pub(crate) fn store(&self, keys: impl Iterator<Item = usize>) -> RowStore {
        let locs: Vec<RowLoc> = keys.map(|key| self.loc[key]).collect();
        debug_assert!(locs.iter().all(|&loc| loc != NO_LOC));
        RowStore {
            cols: self.cols,
            segments: self.segments.clone(),
            dense: 0,
            locs,
        }
    }

    /// Number of sealed segments.
    #[cfg(test)]
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Whether the log is one large segment, as after its first seal
    /// or a compaction.
    #[cfg(test)]
    pub(crate) fn is_compacted(&self) -> bool {
        self.small == [false]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f64) -> Vec<f64> {
        vec![v, -v]
    }

    /// Seals one segment of the given `(key, value)` rows.
    fn seal(log: &mut RowLog, rows: &[(u32, f64)]) -> u64 {
        let data = rows.iter().flat_map(|&(_, v)| row(v)).collect();
        log.seal(data, rows.iter().map(|&(k, _)| k).collect())
    }

    #[test]
    fn dense_store_reads_rows_in_place() {
        let store = RowStore::from_dense(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.row(1), &[3.0, 4.0]);
        assert_eq!(store.get(2), None);
        assert_eq!(store.iter().count(), 2);
    }

    #[test]
    fn equality_is_logical() {
        let dense = RowStore::from_dense(3, 2, [row(1.0), row(2.0), row(3.0)].concat());
        let mut log = RowLog::new(2);
        seal(&mut log, &[(2, 3.0), (0, 1.0)]);
        seal(&mut log, &[(1, 2.0)]);
        let scattered = log.store(0..3);
        assert_eq!(scattered.segment_count(), 2);
        assert_eq!(scattered, dense);
        assert_ne!(log.store(0..2), dense);
    }

    #[test]
    fn sealing_supersedes_and_compaction_keeps_the_current_rows() {
        let mut log = RowLog::new(2);
        seal(&mut log, &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        // Two rows superseded: 2 dead of 3 live, no compaction yet.
        assert_eq!(seal(&mut log, &[(0, 10.0), (1, 20.0)]), 0);
        assert_eq!(log.segment_count(), 2);
        // A third dead row tips the balance: 4 dead > 3 live.
        assert_eq!(seal(&mut log, &[(0, 100.0), (2, 300.0)]), 3);
        assert_eq!(log.segment_count(), 1);
        let store = log.store(0..3);
        let values: Vec<&[f64]> = store.iter().collect();
        assert_eq!(
            values,
            vec![&row(100.0)[..], &row(20.0)[..], &row(300.0)[..]]
        );
    }

    #[test]
    fn published_stores_outlive_later_seals() {
        let mut log = RowLog::new(2);
        seal(&mut log, &[(0, 1.0), (1, 2.0)]);
        let pinned = log.store(0..2);
        let before: Vec<Vec<f64>> = pinned.iter().map(<[f64]>::to_vec).collect();
        for round in 0..5 {
            seal(&mut log, &[(0, f64::from(round)), (1, 7.0)]);
        }
        let after: Vec<Vec<f64>> = pinned.iter().map(<[f64]>::to_vec).collect();
        assert_eq!(before, after);
        assert_eq!(log.get(0), Some(&row(4.0)[..]));
    }

    #[test]
    fn one_row_seals_keep_logarithmically_many_segments() {
        let mut log = RowLog::new(2);
        let n = 4_096u32;
        for key in 0..n {
            seal(&mut log, &[(key, f64::from(key))]);
            let bits = (usize::BITS - (key as usize + 1).leading_zeros()) as usize;
            let bound = SMALL_FRACTION + bits;
            assert!(
                log.segment_count() <= bound,
                "{} segments after {} rows",
                log.segment_count(),
                key + 1
            );
        }
        let store = log.store(0..n as usize);
        for (key, values) in store.iter().enumerate() {
            assert_eq!(values, &row(key as f64)[..]);
        }
    }

    #[test]
    fn a_few_large_seals_never_merge() {
        let mut log = RowLog::new(2);
        let mut copied = 0;
        for batch in 0..16u32 {
            let rows: Vec<(u32, f64)> = (batch * 100..(batch + 1) * 100)
                .map(|k| (k, f64::from(k)))
                .collect();
            copied += seal(&mut log, &rows);
        }
        assert_eq!(copied, 0);
        assert_eq!(log.segment_count(), 16);
    }
}
