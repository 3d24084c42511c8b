//! Branch direction prediction and memory-dependence prediction.
//!
//! The paper's configuration uses L-TAGE and StoreSets (Table 1). The
//! mechanism under study only needs *realistic* squash rates, not
//! state-of-the-art accuracy, so the direction predictor here is a
//! gshare/bimodal tournament; the memory-dependence predictor is a faithful
//! small StoreSet (SSIT + LFST) after Chrysos & Emer.

/// Two-bit saturating counter.
#[derive(Clone, Copy, Debug, Default)]
struct Ctr2(u8);

impl Ctr2 {
    fn taken(self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Tournament (bimodal + gshare) conditional-branch direction predictor.
/// Its tables are built on the first [`predict`](Self::predict).
#[derive(Clone, Debug, Default)]
pub struct BranchPredictor {
    /// Empty until the first prediction.
    bimodal: Vec<Ctr2>,
    gshare: Vec<Ctr2>,
    choice: Vec<Ctr2>,
    history: u64,
    history_mask: u64,
    index_mask: usize,
    /// Predictions made.
    pub lookups: u64,
    /// Mispredictions detected at resolve time.
    pub mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `2^table_bits` entries per table and
    /// `history_bits` of global history.
    pub fn new(table_bits: u32, history_bits: u32) -> BranchPredictor {
        let mut bp = BranchPredictor::default();
        bp.reset(table_bits, history_bits);
        bp
    }

    /// Forgets everything learned, as [`new`](Self::new) with the same
    /// sizes would. The tables keep their storage and are rebuilt on the
    /// next prediction.
    pub fn reset(&mut self, table_bits: u32, history_bits: u32) {
        let BranchPredictor {
            bimodal, gshare, choice, history, history_mask, index_mask, lookups, mispredicts,
        } = self;
        bimodal.clear();
        gshare.clear();
        choice.clear();
        (*history, *lookups, *mispredicts) = (0, 0, 0);
        *history_mask = (1u64 << history_bits) - 1;
        *index_mask = (1usize << table_bits) - 1;
    }

    /// True once the tables exist.
    pub(crate) fn built(&self) -> bool {
        !self.bimodal.is_empty()
    }

    fn indices(&self, pc: u32) -> (usize, usize) {
        let b = (pc as usize) & self.index_mask;
        let g = ((pc as u64) ^ self.history) as usize & self.index_mask;
        (b, g)
    }

    /// Predicts the direction of the branch at `pc` and returns a snapshot
    /// of the history to pass back at resolve time.
    pub fn predict(&mut self, pc: u32) -> (bool, u64) {
        if !self.built() {
            let n = self.index_mask + 1;
            self.bimodal.resize(n, Ctr2(1));
            self.gshare.resize(n, Ctr2(1));
            self.choice.resize(n, Ctr2(2));
        }
        self.lookups += 1;
        let (b, g) = self.indices(pc);
        let use_gshare = self.choice[b].taken();
        let taken = if use_gshare { self.gshare[g].taken() } else { self.bimodal[b].taken() };
        let snapshot = self.history;
        // Speculatively update history with the prediction.
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        (taken, snapshot)
    }

    /// Resolves the branch at `pc`: trains the tables and, on a
    /// misprediction, repairs the global history from the snapshot.
    pub fn resolve(&mut self, pc: u32, snapshot: u64, predicted: bool, actual: bool) {
        let b = (pc as usize) & self.index_mask;
        let g = ((pc as u64) ^ snapshot) as usize & self.index_mask;
        let bim_correct = self.bimodal[b].taken() == actual;
        let gsh_correct = self.gshare[g].taken() == actual;
        if bim_correct != gsh_correct {
            self.choice[b].update(gsh_correct);
        }
        self.bimodal[b].update(actual);
        self.gshare[g].update(actual);
        if predicted != actual {
            self.mispredicts += 1;
            self.history = ((snapshot << 1) | u64::from(actual)) & self.history_mask;
        }
    }
}

/// StoreSet memory-dependence predictor (SSIT + LFST).
///
/// Loads that have violated a dependence on a store in the past are steered
/// into the store's set; while any store of that set has an unresolved
/// address in flight, the load waits. Both tables are built on the first
/// [`train_violation`](Self::train_violation); until then no pc has a set.
#[derive(Clone, Debug, Default)]
pub struct StoreSets {
    /// Store-Set Id Table: pc -> set id (empty until the first training).
    ssit: Vec<Option<u32>>,
    /// Last Fetched Store Table: set id -> sequence number of the youngest
    /// in-flight store of the set (cleared when it resolves or squashes).
    lfst: Vec<Option<u64>>,
    next_set: u32,
    mask: usize,
    /// Violations trained.
    pub trainings: u64,
}

impl StoreSets {
    /// Creates tables of `2^bits` entries.
    pub fn new(bits: u32) -> StoreSets {
        let mut ss = StoreSets::default();
        ss.reset(bits);
        ss
    }

    /// Forgets every set, as [`new`](Self::new) with the same size would.
    /// The tables keep their storage and are rebuilt on the next training.
    pub fn reset(&mut self, bits: u32) {
        let StoreSets { ssit, lfst, next_set, mask, trainings } = self;
        ssit.clear();
        lfst.clear();
        (*next_set, *trainings) = (0, 0);
        *mask = (1usize << bits) - 1;
    }

    /// True once the tables exist.
    pub(crate) fn built(&self) -> bool {
        !self.ssit.is_empty()
    }

    /// The set the pc belongs to, if any.
    fn set_of(&self, pc: u32) -> Option<u32> {
        self.ssit.get(pc as usize & self.mask).copied().flatten()
    }

    /// Trains on a violation between the load at `load_pc` and the store at
    /// `store_pc` (assigns both to one set).
    pub fn train_violation(&mut self, load_pc: u32, store_pc: u32) {
        if !self.built() {
            self.ssit.resize(self.mask + 1, None);
            self.lfst.resize(self.mask + 1, None);
        }
        self.trainings += 1;
        let set = match (self.set_of(load_pc), self.set_of(store_pc)) {
            (Some(a), _) => a,
            (None, Some(b)) => b,
            (None, None) => {
                let s = self.next_set;
                self.next_set = (self.next_set + 1) & self.mask as u32;
                s
            }
        };
        self.ssit[load_pc as usize & self.mask] = Some(set);
        self.ssit[store_pc as usize & self.mask] = Some(set);
    }

    /// A store at `pc` with sequence `seq` was dispatched: tracks it if it
    /// belongs to a set.
    pub fn store_dispatched(&mut self, pc: u32, seq: u64) {
        if let Some(set) = self.set_of(pc) {
            self.lfst[set as usize & self.mask] = Some(seq);
        }
    }

    /// The store `seq` at `pc` resolved its address (or was squashed).
    pub fn store_resolved(&mut self, pc: u32, seq: u64) {
        if let Some(set) = self.set_of(pc) {
            let slot = &mut self.lfst[set as usize & self.mask];
            if *slot == Some(seq) {
                *slot = None;
            }
        }
    }

    /// Should the load at `pc` wait? Returns the store sequence it must wait
    /// for, if any.
    pub fn load_should_wait(&self, pc: u32) -> Option<u64> {
        let set = self.set_of(pc)?;
        self.lfst[set as usize & self.mask]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_biased_branch() {
        let mut bp = BranchPredictor::new(10, 8);
        for _ in 0..32 {
            let (pred, snap) = bp.predict(7);
            bp.resolve(7, snap, pred, true);
        }
        let (pred, _) = bp.predict(7);
        assert!(pred, "a strongly taken branch must predict taken");
    }

    #[test]
    fn predictor_learns_alternating_pattern_via_gshare() {
        let mut bp = BranchPredictor::new(10, 8);
        let mut taken = false;
        let mut correct = 0;
        for i in 0..512 {
            taken = !taken;
            let (pred, snap) = bp.predict(3);
            if i > 256 && pred == taken {
                correct += 1;
            }
            bp.resolve(3, snap, pred, taken);
        }
        assert!(correct > 200, "gshare should capture an alternating pattern, got {correct}/256");
    }

    #[test]
    fn misprediction_repairs_history() {
        let mut bp = BranchPredictor::new(10, 8);
        let (pred, snap) = bp.predict(1);
        bp.resolve(1, snap, pred, !pred);
        assert_eq!(bp.mispredicts, 1);
        assert_eq!(bp.history & 1, u64::from(!pred));
    }

    #[test]
    fn storesets_steer_trained_pairs() {
        let mut ss = StoreSets::new(6);
        assert_eq!(ss.load_should_wait(10), None);
        ss.train_violation(10, 20);
        ss.store_dispatched(20, 99);
        assert_eq!(ss.load_should_wait(10), Some(99));
        ss.store_resolved(20, 99);
        assert_eq!(ss.load_should_wait(10), None);
    }

    #[test]
    fn storesets_ignore_untrained_pcs() {
        let mut ss = StoreSets::new(6);
        ss.store_dispatched(20, 99); // not in any set
        assert_eq!(ss.load_should_wait(10), None);
    }

    #[test]
    fn storesets_merge_into_existing_set() {
        let mut ss = StoreSets::new(6);
        ss.train_violation(10, 20);
        ss.train_violation(11, 20); // store already has a set; load joins it
        ss.store_dispatched(20, 5);
        assert_eq!(ss.load_should_wait(11), Some(5));
    }
}
