//! Generic set-associative tag array with LRU replacement and pinned
//! (locked) ways.

use crate::Line;
use fa_isa::LINE_SHIFT;

/// One way of a set.
#[derive(Clone, Debug)]
struct Way<S> {
    line: Line,
    state: S,
    /// Higher = more recently used.
    lru: u64,
}

/// A set-associative tag array mapping lines to per-line state `S`.
///
/// Victim selection skips lines for which the caller's `pinned` predicate
/// holds — the mechanism behind the paper's "a locked cacheline is never
/// selected as the victim" rule (§3.2.4).
#[derive(Clone, Debug)]
pub struct TagArray<S> {
    sets: Vec<Vec<Way<S>>>,
    ways: usize,
    tick: u64,
}

impl<S> TagArray<S> {
    /// Creates an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a nonzero power of two and `ways > 0`.
    pub fn new(sets: usize, ways: usize) -> TagArray<S> {
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        TagArray { sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(), ways, tick: 0 }
    }

    #[inline]
    fn set_of(&self, line: Line) -> usize {
        ((line >> LINE_SHIFT) as usize) & (self.sets.len() - 1)
    }

    /// The set index `line` maps to.
    pub fn set_index(&self, line: Line) -> usize {
        self.set_of(line)
    }

    /// Associativity.
    pub fn num_ways(&self) -> usize {
        self.ways
    }

    /// Looks up `line`, updating recency on hit.
    pub fn touch(&mut self, line: Line) -> Option<&mut S> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        self.sets[set].iter_mut().find(|w| w.line == line).map(|w| {
            w.lru = tick;
            &mut w.state
        })
    }

    /// Looks up `line` without updating recency.
    pub fn peek(&self, line: Line) -> Option<&S> {
        let set = self.set_of(line);
        self.sets[set].iter().find(|w| w.line == line).map(|w| &w.state)
    }

    /// Mutable lookup without updating recency.
    pub fn peek_mut(&mut self, line: Line) -> Option<&mut S> {
        let set = self.set_of(line);
        self.sets[set].iter_mut().find(|w| w.line == line).map(|w| &mut w.state)
    }

    /// True if `line` is present.
    pub fn contains(&self, line: Line) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts `line` with `state`, evicting the LRU way whose line does not
    /// satisfy `pinned` if the set is full.
    ///
    /// Returns `Ok(evicted)` — `None` when a free way existed, `Some((line,
    /// state))` of the victim otherwise — or `Err(InsertFullError)` when every
    /// way is pinned and no victim exists (the caller must retry later; for
    /// locked lines this is a deliberate deadlock candidate resolved by the
    /// core watchdog).
    ///
    /// # Panics
    ///
    /// Panics if `line` is already present (callers always check first).
    pub fn insert(
        &mut self,
        line: Line,
        state: S,
        mut pinned: impl FnMut(Line) -> bool,
    ) -> Result<Option<(Line, S)>, InsertFullError> {
        assert!(!self.contains(line), "inserting already-present line {line:#x}");
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if set.len() < self.ways {
            set.push(Way { line, state, lru: tick });
            return Ok(None);
        }
        let victim = set
            .iter()
            .enumerate()
            .filter(|(_, w)| !pinned(w.line))
            .min_by_key(|(_, w)| w.lru)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let old = std::mem::replace(&mut set[i], Way { line, state, lru: tick });
                Ok(Some((old.line, old.state)))
            }
            None => Err(InsertFullError),
        }
    }

    /// Removes `line`, returning its state.
    pub fn remove(&mut self, line: Line) -> Option<S> {
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|w| w.line == line)?;
        Some(self.sets[set].swap_remove(pos).state)
    }

    /// Iterates over (line, state) pairs in the set `line` maps to.
    pub fn set_lines(&self, line: Line) -> impl Iterator<Item = (Line, &S)> + '_ {
        self.sets[self.set_of(line)].iter().map(|w| (w.line, &w.state))
    }

    /// Total number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all resident (line, state) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Line, &S)> + '_ {
        self.sets.iter().flatten().map(|w| (w.line, &w.state))
    }
}

/// Returned by [`TagArray::insert`] when every way in the target set is
/// pinned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertFullError;

impl std::fmt::Display for InsertFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all ways in the target set are pinned")
    }
}

impl std::error::Error for InsertFullError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(set: u64, tag: u64, sets: u64) -> Line {
        (tag * sets + set) << LINE_SHIFT
    }

    #[test]
    fn hit_and_miss() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        assert!(t.touch(line(1, 0, 4)).is_none());
        t.insert(line(1, 0, 4), 7, |_| false).unwrap();
        assert_eq!(t.touch(line(1, 0, 4)), Some(&mut 7));
        assert!(t.contains(line(1, 0, 4)));
        assert!(!t.contains(line(2, 0, 4)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        let a = line(0, 1, 4);
        let b = line(0, 2, 4);
        let c = line(0, 3, 4);
        t.insert(a, 1, |_| false).unwrap();
        t.insert(b, 2, |_| false).unwrap();
        t.touch(a); // b is now LRU
        let evicted = t.insert(c, 3, |_| false).unwrap();
        assert_eq!(evicted, Some((b, 2)));
        assert!(t.contains(a) && t.contains(c));
    }

    #[test]
    fn pinned_ways_are_skipped() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        let a = line(0, 1, 4);
        let b = line(0, 2, 4);
        let c = line(0, 3, 4);
        t.insert(a, 1, |_| false).unwrap();
        t.insert(b, 2, |_| false).unwrap();
        // `a` is LRU but pinned: `b` must be the victim.
        let evicted = t.insert(c, 3, |l| l == a).unwrap();
        assert_eq!(evicted, Some((b, 2)));
    }

    #[test]
    fn all_pinned_reports_full() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        let a = line(0, 1, 4);
        let b = line(0, 2, 4);
        t.insert(a, 1, |_| false).unwrap();
        t.insert(b, 2, |_| false).unwrap();
        assert_eq!(t.insert(line(0, 3, 4), 3, |_| true), Err(InsertFullError));
        // Still resident, untouched.
        assert!(t.contains(a) && t.contains(b));
    }

    #[test]
    fn remove_and_len() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        let a = line(2, 1, 4);
        t.insert(a, 9, |_| false).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(a), Some(9));
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.remove(a), None);
    }

    #[test]
    fn set_lines_lists_resident_set_members() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        let a = line(3, 1, 4);
        let b = line(3, 2, 4);
        t.insert(a, 1, |_| false).unwrap();
        t.insert(b, 2, |_| false).unwrap();
        let mut lines: Vec<Line> = t.set_lines(a).map(|(l, _)| l).collect();
        lines.sort_unstable();
        let mut expect = vec![a, b];
        expect.sort_unstable();
        assert_eq!(lines, expect);
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        t.insert(64, 1, |_| false).unwrap();
        let _ = t.insert(64, 2, |_| false);
    }
}
