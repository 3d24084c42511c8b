//! Generic set-associative tag array with LRU replacement and pinned
//! (locked) ways.

use crate::Line;
use fa_isa::LINE_SHIFT;

/// One way of a set.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Way<S> {
    /// The way's line; in the first way of a free block, the slot of the
    /// next free block of its size ([`NONE`] ends the chain).
    line: Line,
    /// Higher = more recently used.
    lru: u64,
    /// Meaningful only in a way in use.
    state: S,
}

/// A set-associative tag array mapping lines to per-line state `S`.
///
/// Victim selection skips lines for which the caller's `pinned` predicate
/// holds — the mechanism behind the paper's "a locked cacheline is never
/// selected as the victim" rule (§3.2.4).
///
/// Host memory follows the lines a run holds, not the configured
/// geometry: the ways of every touched set live in one slab, in a block
/// per set, and one zero-initialised `SetRef` per set says which block is
/// the set's and how much of it is in use. A set's first insert gives it a
/// block of one way; an insert into a full block moves the set to a block
/// of twice the size (1, 2, 4, … capped at `ways`), copying its ways in
/// order, and the old block joins its size's free chain, linked through
/// the slab, for the next set that grows into that size. Within a block
/// the ways in use come first, in the order "insert appends, remove moves
/// the last way into the gap"; `set_lines` and `iter` (sets in index
/// order) show that order, and callers depend on it.
#[derive(Clone, Debug)]
pub struct TagArray<S> {
    sets: Vec<SetRef>,
    /// One bit per set, on once the set has its block: the sets `iter`
    /// visits.
    touched: Vec<u64>,
    slab: Vec<Way<S>>,
    /// Per block size `min(2^k, ways)`, at index `k`, the slot of the
    /// first free block of that size, or [`NONE`].
    free: [u32; CLASSES],
    ways: usize,
    len: usize,
    tick: u64,
}

/// Per set: the first slab slot of its block, and its ways in use in the
/// low half of the second word with the block's size in the high half;
/// all 0 until its first insert. A plain array, so that `vec![[0; 2];
/// sets]` is one zeroed allocation whatever the geometry.
type SetRef = [u32; 2];

/// Block sizes: `ways` fits 16 bits, so `k <= 16`.
const CLASSES: usize = 17;

/// The end of a free chain.
const NONE: u32 = u32::MAX;

/// The free-chain index of a block of `size` ways.
fn class(size: usize) -> usize {
    size.next_power_of_two().trailing_zeros() as usize
}

/// Empty storage: an array of no sets, which [`TagArray::reset`] sizes.
impl<S> Default for TagArray<S> {
    fn default() -> TagArray<S> {
        TagArray {
            sets: Vec::new(),
            touched: Vec::new(),
            slab: Vec::new(),
            free: [NONE; CLASSES],
            ways: 0,
            len: 0,
            tick: 0,
        }
    }
}

impl<S> TagArray<S> {
    /// Creates an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a nonzero power of two, `0 < ways < 2^16`
    /// and `3 * sets * ways` (every set's largest block and the free
    /// blocks it grew out of) fits 32 bits.
    pub fn new(sets: usize, ways: usize) -> TagArray<S> {
        let mut t = TagArray::default();
        t.reset(sets, ways);
        t
    }

    /// Empties the array and gives it `sets` sets of `ways` ways, as
    /// [`new`](Self::new) would, keeping the slab's storage and emptying
    /// the free chains.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn reset(&mut self, sets: usize, ways: usize) {
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        assert!(ways > 0 && ways < 1 << 16, "ways must be nonzero and fit 16 bits");
        let fits = sets.checked_mul(3 * ways).is_some_and(|slots| u32::try_from(slots).is_ok());
        assert!(fits, "3 * sets * ways must fit a SetRef");
        let TagArray { sets: refs, touched, slab, free, ways: w, len, tick } = self;
        if refs.len() == sets {
            // Only a touched set's reference is not zero.
            for (word, bits) in touched.iter_mut().enumerate() {
                while *bits != 0 {
                    refs[word * 64 + bits.trailing_zeros() as usize] = [0; 2];
                    *bits &= *bits - 1;
                }
            }
        } else {
            // Zeroed allocations: the pages of sets never touched stay
            // untouched.
            *refs = vec![[0; 2]; sets];
            *touched = vec![0; sets.div_ceil(64)];
        }
        slab.clear();
        *free = [NONE; CLASSES];
        (*w, *len, *tick) = (ways, 0, 0);
    }

    #[inline]
    fn set_of(&self, line: Line) -> usize {
        ((line >> LINE_SHIFT) as usize) & (self.sets.len() - 1)
    }

    /// The slab slots of the ways in use in set `set`.
    #[inline]
    fn slots(&self, set: usize) -> std::ops::Range<usize> {
        let [first, word] = self.sets[set];
        first as usize..first as usize + (word & 0xffff) as usize
    }

    /// The ways in use in the set `line` maps to.
    #[inline]
    fn ways_of(&self, line: Line) -> &[Way<S>] {
        &self.slab[self.slots(self.set_of(line))]
    }

    #[inline]
    fn ways_of_mut(&mut self, line: Line) -> &mut [Way<S>] {
        let slots = self.slots(self.set_of(line));
        &mut self.slab[slots]
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
        let ways = self.ways_of_mut(line);
        let w = &mut ways[ways.iter().position(|w| w.line == line)?];
        w.lru = tick;
        Some(&mut w.state)
    }

    /// Looks up `line` without updating recency.
    pub fn peek(&self, line: Line) -> Option<&S> {
        let ways = self.ways_of(line);
        Some(&ways[ways.iter().position(|w| w.line == line)?].state)
    }

    /// Mutable lookup without updating recency.
    pub fn peek_mut(&mut self, line: Line) -> Option<&mut S> {
        let ways = self.ways_of_mut(line);
        Some(&mut ways[ways.iter().position(|w| w.line == line)?].state)
    }

    /// True if `line` is present.
    pub fn contains(&self, line: Line) -> bool {
        self.ways_of(line).iter().any(|w| w.line == line)
    }

    fn lines_in(&self, slots: std::ops::Range<usize>) -> impl Iterator<Item = (Line, &S)> + '_ {
        self.slab[slots].iter().map(|w| (w.line, &w.state))
    }

    /// Iterates over (line, state) pairs in the set `line` maps to.
    pub fn set_lines(&self, line: Line) -> impl Iterator<Item = (Line, &S)> + '_ {
        self.lines_in(self.slots(self.set_of(line)))
    }

    /// Total number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all resident (line, state) pairs, sets in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Line, &S)> + '_ {
        let sets = self.touched.iter().enumerate().flat_map(|(word, &bits)| {
            let mut left = bits;
            std::iter::from_fn(move || {
                let bit = (left != 0).then(|| left.trailing_zeros() as usize)?;
                left &= left - 1;
                Some(word * 64 + bit)
            })
        });
        sets.flat_map(|set| self.lines_in(self.slots(set)))
    }
}

impl<S: Copy> TagArray<S> {
    /// Moves set `set`, whose block is full, to a block of twice the size
    /// (or its first block, of one way), reusing a free block of that size
    /// when there is one; new slab slots hold `fill`.
    fn grow(&mut self, set: usize, fill: S) {
        let [first, word] = self.sets[set];
        let (used, size) = (word & 0xffff, word >> 16);
        let grown = if size == 0 { 1 } else { (2 * size as usize).min(self.ways) };
        let to = match self.free[class(grown)] {
            NONE => {
                let at = self.slab.len();
                self.slab.resize(at + grown, Way { line: 0, lru: 0, state: fill });
                at as u32
            }
            head => {
                self.free[class(grown)] = self.slab[head as usize].line as u32;
                head
            }
        };
        for i in 0..used {
            self.slab.swap((first + i) as usize, (to + i) as usize);
        }
        if size == 0 {
            self.touched[set / 64] |= 1 << (set % 64);
        } else {
            let chain = &mut self.free[class(size as usize)];
            self.slab[first as usize].line = Line::from(*chain);
            *chain = first;
        }
        self.sets[set] = [to, used | (grown as u32) << 16];
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
        let new = Way { line, lru: self.tick, state };
        let set = self.set_of(line);
        let slots = self.slots(set);
        if slots.len() < self.ways {
            if self.sets[set][1] >> 16 == slots.len() as u32 {
                self.grow(set, state);
            }
            self.sets[set][1] += 1;
            self.len += 1;
            let slot = self.slots(set).end - 1;
            self.slab[slot] = new;
            return Ok(None);
        }
        let full = self.slab[slots.clone()].iter().enumerate();
        let unpinned = full.filter(|(_, w)| !pinned(w.line));
        let (victim, _) = unpinned.min_by_key(|(_, w)| w.lru).ok_or(InsertFullError)?;
        let old = std::mem::replace(&mut self.slab[slots.start + victim], new);
        Ok(Some((old.line, old.state)))
    }

    /// Removes `line`, returning its state.
    pub fn remove(&mut self, line: Line) -> Option<S> {
        let set = self.set_of(line);
        let slots = self.slots(set);
        let way = self.slab[slots.clone()].iter().position(|w| w.line == line)?;
        // The last way in use moves into the gap.
        let last = slots.end - 1;
        self.slab.swap(slots.start + way, last);
        self.sets[set][1] -= 1;
        self.len -= 1;
        Some(self.slab[last].state)
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
    fn a_reset_array_behaves_as_a_new_one() {
        // Refilled after a reset to the same geometry (which clears only
        // the touched sets) and to another: every insert, eviction and
        // walk as on a new array.
        let mut t: TagArray<u64> = TagArray::new(8, 2);
        for l in 0..40 {
            let _ = t.insert(l << LINE_SHIFT, l, |_| false);
        }
        for (sets, ways) in [(8, 2), (4, 3), (4, 3)] {
            t.reset(sets, ways);
            let mut fresh = TagArray::new(sets, ways);
            assert!(t.is_empty() && t.iter().next().is_none());
            for l in (0..30).rev().map(|l| l * 3) {
                let pinned = |line: Line| line.is_multiple_of(5);
                assert_eq!(t.insert(l << LINE_SHIFT, l, pinned), fresh.insert(l << LINE_SHIFT, l, pinned));
            }
            assert!(t.iter().eq(fresh.iter()), "{sets} x {ways}");
        }
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

    /// The layout this array had before the slab: one vector of
    /// `(line, state, lru)` ways per set. Kept as the reference semantics.
    type ModelSet = Vec<(Line, u32, u64)>;

    struct Model {
        sets: Vec<ModelSet>,
        ways: usize,
        tick: u64,
    }

    impl Model {
        fn set(&mut self, line: Line) -> &mut ModelSet {
            let i = ((line >> LINE_SHIFT) as usize) & (self.sets.len() - 1);
            &mut self.sets[i]
        }

        fn lookup(&mut self, line: Line, touch: bool) -> Option<&mut u32> {
            self.tick += u64::from(touch);
            let tick = self.tick;
            let w = self.set(line).iter_mut().find(|w| w.0 == line)?;
            if touch {
                w.2 = tick;
            }
            Some(&mut w.1)
        }

        fn insert(
            &mut self,
            line: Line,
            state: u32,
            pinned: impl Fn(Line) -> bool,
        ) -> Result<Option<(Line, u32)>, InsertFullError> {
            self.tick += 1;
            let (tick, ways) = (self.tick, self.ways);
            let set = self.set(line);
            if set.len() < ways {
                set.push((line, state, tick));
                return Ok(None);
            }
            let free = set.iter_mut().filter(|w| !pinned(w.0));
            let victim = free.min_by_key(|w| w.2).ok_or(InsertFullError)?;
            let old = std::mem::replace(victim, (line, state, tick));
            Ok(Some((old.0, old.1)))
        }

        fn remove(&mut self, line: Line) -> Option<u32> {
            let set = self.set(line);
            let pos = set.iter().position(|w| w.0 == line)?;
            Some(set.swap_remove(pos).1)
        }
    }

    /// The block size of the set `line` maps to.
    fn block_of<S>(t: &TagArray<S>, line: Line) -> u32 {
        t.sets[t.set_of(line)][1] >> 16
    }

    #[test]
    fn slab_matches_the_per_set_vector_model() {
        // Dense pools hold three times as many lines as slots, so sets
        // fill and evict. A sparse pool gives set `s` `2^(s % 6)` lines, so
        // sets stop at every block size, some fill and some overflow, and
        // sets growing late take the blocks others grew out of.
        let cases = [(4usize, 2usize, 1u64, false), (8, 4, 2, false), (64, 12, 3, false), (16, 16, 4, true), (64, 12, 5, true)];
        for (sets, ways, seed, sparse) in cases {
            let mut rng = crate::SplitMix64::new(seed);
            let mut t: TagArray<u32> = TagArray::new(sets, ways);
            let mut m = Model { sets: vec![Vec::new(); sets], ways, tick: 0 };
            let pool: Vec<Line> = if sparse {
                let tags = |set: u64| 0..1u64 << (set % 6);
                (0..sets as u64).flat_map(|set| tags(set).map(move |tag| line(set, tag, sets as u64))).collect()
            } else {
                (0..(sets * ways * 3) as u64).map(|l| l << LINE_SHIFT).collect()
            };
            let (mut evictions, mut refusals) = (0, 0);
            // Block sizes sets grew into, and growths that reused a block.
            let (mut sizes, mut reused) = (std::collections::BTreeSet::new(), 0);
            for step in 0..20_000u32 {
                if step == 10_000 {
                    t.reset(sets, ways);
                    m = Model { sets: vec![Vec::new(); sets], ways, tick: 0 };
                }
                let line = pool[rng.below(pool.len() as u64) as usize];
                let (block, slab) = (block_of(&t, line), t.slab.len());
                match rng.below(8) {
                    0..=2 => assert_eq!(t.touch(line), m.lookup(line, true), "touch"),
                    3 => {
                        let (a, b) = (t.peek_mut(line), m.lookup(line, false));
                        assert_eq!(a, b, "peek_mut");
                        if let (Some(a), Some(b)) = (a, b) {
                            *a += 1;
                            *b += 1;
                        }
                    }
                    4 => assert_eq!(t.remove(line), m.remove(line), "remove"),
                    _ if t.contains(line) => {
                        assert_eq!(t.peek(line), m.lookup(line, false).as_deref(), "peek");
                    }
                    _ => {
                        // Pin nothing, a random half, or every line.
                        let mask = [0, rng.next_u64(), u64::MAX][rng.below(3) as usize];
                        let pinned = |l: Line| mask >> ((l >> LINE_SHIFT) % 64) & 1 == 1;
                        let got = t.insert(line, step, pinned);
                        assert_eq!(got, m.insert(line, step, pinned), "insert");
                        evictions += u32::from(matches!(got, Ok(Some(_))));
                        refusals += u32::from(got.is_err());
                        if block_of(&t, line) != block {
                            sizes.insert(block_of(&t, line));
                            reused += u32::from(t.slab.len() == slab);
                        }
                    }
                }
                let way = |w: &(Line, u32, u64)| (w.0, w.1);
                let in_set: Vec<_> = t.set_lines(line).map(|(l, s)| (l, *s)).collect();
                assert_eq!(in_set, m.set(line).iter().map(way).collect::<Vec<_>>(), "set order");
                let all: Vec<_> = t.iter().map(|(l, s)| (l, *s)).collect();
                let model: Vec<_> = m.sets.iter().flatten().map(way).collect();
                assert_eq!(all, model, "iter order");
                assert_eq!(t.len(), all.len());
                assert_eq!(t.is_empty(), all.is_empty());
            }
            assert!(evictions.min(refusals) > 100, "{evictions} evictions, {refusals} refusals");
            if sparse {
                let every: std::collections::BTreeSet<u32> =
                    (0..).map(|k| (1 << k).min(ways as u32)).take_while(|&s| s < ways as u32).chain([ways as u32]).collect();
                assert_eq!(sizes, every, "{sets} x {ways}: block sizes grown into");
                assert!(reused > 10, "{sets} x {ways}: {reused} growths reused a free block");
            }
        }
    }

    #[test]
    fn a_touched_set_costs_the_ways_it_holds() {
        // One line in each of 500 sets of 16 ways: 500 slab ways, not
        // 500 x 16.
        let mut t: TagArray<()> = TagArray::new(1024, 16);
        for set in 0..500 {
            t.insert(line(set * 2, 7, 1024), (), |_| false).unwrap();
        }
        assert_eq!(t.slab.len(), 500);
        // A second and a third line move set 0 to a block of two, then of
        // four. Set 1 takes the block of one it left; set 3 appends one,
        // then grows into its block of two.
        for tag in [8, 9] {
            t.insert(line(0, tag, 1024), (), |_| false).unwrap();
        }
        t.insert(line(1, 7, 1024), (), |_| false).unwrap();
        t.insert(line(3, 7, 1024), (), |_| false).unwrap();
        t.insert(line(3, 8, 1024), (), |_| false).unwrap();
        assert_eq!(t.slab.len(), 500 + 2 + 4 + 1);
        assert_eq!(t.len(), 505);
    }

    #[test]
    fn a_reset_keeps_the_slab_and_refills_as_a_new_array() {
        // Distinct lines, and every fourth a removal of a line that may
        // be resident.
        let fill = |t: &mut TagArray<u64>| {
            let (mut inserted, mut removed) = (Vec::new(), Vec::new());
            for l in (0..600).map(|i| i * 389 % 1500) {
                inserted.push(t.insert(l << LINE_SHIFT, l, |line| line.is_multiple_of(3 << LINE_SHIFT)));
                if l % 4 == 0 {
                    removed.push(t.remove((l / 2) << LINE_SHIFT));
                }
            }
            (inserted, removed)
        };
        let mut t = TagArray::new(64, 8);
        fill(&mut t);
        let (slab, capacity) = (t.slab.len(), t.slab.capacity());
        assert!(slab > 64, "sets grew");
        t.reset(64, 8);
        assert_eq!((t.slab.len(), t.slab.capacity(), t.free), (0, capacity, [NONE; CLASSES]));
        let mut fresh = TagArray::new(64, 8);
        assert_eq!(fill(&mut t), fill(&mut fresh));
        assert!(t.iter().eq(fresh.iter()));
        assert_eq!((t.slab.len(), t.free), (fresh.slab.len(), fresh.free));
        assert_eq!(t.slab.capacity(), capacity, "the refill fits the kept slab");
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut t: TagArray<u32> = TagArray::new(4, 2);
        t.insert(64, 1, |_| false).unwrap();
        let _ = t.insert(64, 2, |_| false);
    }
}
