//! Unified forward-progress framework.
//!
//! Every retry loop in the memory system — directory allocation polling,
//! all-ways-locked fill retries, LSQ request retries — is a place where a
//! protocol bug (or injected fault) can turn into a silent hang. Each site
//! keeps a [`ProgressGuard`], which counts every failed attempt per stuck
//! resource (`note_attempt`) and clears it on success (`note_success`).
//! When a count passes the machine-wide [`ProgressConfig`] threshold the
//! run is aborted with a structured `NoProgress` error naming the site,
//! instead of burning the rest of its cycle budget on a wedged resource.
//!
//! The guards only count: the one rescue, the directory's reserved-way
//! valve, compares the `dir-alloc` count against the directory's own two
//! constants. The counters never influence protocol timing otherwise, so
//! golden runs are bit-identical at any thresholds (pinned by the
//! differential tests in `tests/progress_regressions.rs`).

use crate::FxHashMap;
use std::fmt;
use std::hash::Hash;

/// Per-site stall bookkeeping: consecutive failed attempts per stuck
/// resource (keyed by whatever identifies the resource at that site) and
/// historical maxima for stats.
#[derive(Clone, Debug, Default)]
pub struct ProgressGuard<K: Eq + Hash + Copy> {
    attempts: FxHashMap<K, u64>,
    /// Largest attempt count ever reached by one resource (historical;
    /// survives `note_success`).
    pub attempts_max: u64,
}

impl<K: Eq + Hash + Copy> ProgressGuard<K> {
    /// Forgets every count, as [`Default`] would, keeping the map's
    /// storage.
    pub fn reset(&mut self) {
        let ProgressGuard { attempts, attempts_max } = self;
        attempts.clear();
        *attempts_max = 0;
    }

    /// Records one failed attempt for `key`; returns the consecutive
    /// attempt count.
    pub fn note_attempt(&mut self, key: K) -> u64 {
        let a = self.attempts.entry(key).or_insert(0);
        *a += 1;
        self.attempts_max = self.attempts_max.max(*a);
        *a
    }

    /// Clears `key`'s counter after it made progress.
    pub fn note_success(&mut self, key: K) {
        self.attempts.remove(&key);
    }

    /// The worst consecutive attempt count currently outstanding (the
    /// escalation observable: a wedged resource's counter grows without
    /// bound, a merely contended one is cleared on success).
    pub fn worst_outstanding(&self) -> u64 {
        self.attempts.values().copied().max().unwrap_or(0)
    }

    /// Iterates the resources with outstanding failed attempts (pure
    /// read; arbitrary order — callers must not depend on it).
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.attempts.keys()
    }
}

/// Machine-wide escalation thresholds, carried in
/// [`MemConfig`](crate::MemConfig). The counters behind them are always
/// collected (they are a handful of compares on existing retry paths) and
/// a site escalates to a structured `NoProgress` error only when it passes
/// its threshold, so thresholds cannot perturb results. Defaults sit far
/// beyond anything a forward-progressing run produces — golden runs never
/// escalate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressConfig {
    /// Cycles an awake, unhalted core may go without committing before
    /// the machine driver escalates (site `core-commit`).
    pub stall_cycles: u64,
    /// Consecutive failed attempts one resource may accumulate at any
    /// retry site (`dir-alloc`, `cache-fill`, `lsq-retry`).
    pub max_attempts: u64,
    /// In-flight interconnect events allowed at any instant
    /// (`noc-backlog`).
    pub max_backlog: u64,
}

impl Default for ProgressConfig {
    fn default() -> ProgressConfig {
        ProgressConfig {
            stall_cycles: 10_000_000,
            max_attempts: 5_000_000,
            max_backlog: 10_000_000,
        }
    }
}

impl ProgressConfig {
    /// Thresholds no run can pass: escalation never fires (counters still
    /// collected).
    pub fn off() -> ProgressConfig {
        ProgressConfig { stall_cycles: u64::MAX, max_attempts: u64::MAX, max_backlog: u64::MAX }
    }
}

/// The minimal stuck-resource report an escalation produces: which site
/// tripped, what it observed, and the threshold it crossed. The machine
/// driver wraps this in a `RunFailure::NoProgress`, whose `SimError::Run`
/// carries a full machine snapshot (locked lines, busy directory entries,
/// flight tail).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressReport {
    /// Site name: `dir-alloc`, `cache-fill`, `lsq-retry`, `noc-backlog`
    /// or (machine-level) `core-commit`.
    pub site: &'static str,
    /// The counter value that tripped.
    pub observed: u64,
    /// The configured threshold it crossed.
    pub threshold: u64,
}

impl fmt::Display for ProgressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "site {}: observed {} (threshold {})",
            self.site, self.observed, self.threshold
        )
    }
}

fa_trace::counters! {
    /// Per-site progress counters surfaced through
    /// [`MemStats`](crate::MemStats). Always-on and strictly observational:
    /// identical across trace modes, audit settings and thread counts.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ProgressStats {
        /// Directory rescue reservations fired (`DirStats::alloc_rescues`).
        sum dir_rescues: u64,
        /// Worst consecutive directory-allocation poll count ever reached.
        max dir_alloc_attempts_max: u64,
        /// Worst consecutive failed fill retries on one line.
        max fill_attempts_max: u64,
        /// Worst consecutive LSQ request retries on one core.
        max lsq_attempts_max: u64,
        /// Largest in-flight interconnect event population observed.
        max noc_backlog_max: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_count_clear_and_track_maxima() {
        let mut g: ProgressGuard<u64> = ProgressGuard::default();
        assert_eq!(g.note_attempt(1), 1);
        assert_eq!(g.note_attempt(1), 2);
        assert_eq!(g.note_attempt(2), 1);
        assert_eq!(g.worst_outstanding(), 2);
        g.note_success(1);
        assert_eq!(g.worst_outstanding(), 1);
        // Historical max survives the clear, and key 1 counts afresh.
        assert_eq!(g.attempts_max, 2);
        assert_eq!(g.note_attempt(1), 1);
    }

    #[test]
    fn config_defaults_are_wedge_sized_and_report_renders() {
        let p = ProgressConfig::default();
        assert!(p.stall_cycles >= 1_000_000);
        let off = ProgressConfig::off();
        assert_eq!([off.stall_cycles, off.max_attempts, off.max_backlog], [u64::MAX; 3]);
        let r = ProgressReport { site: "dir-alloc", observed: 12, threshold: 10 };
        assert_eq!(r.to_string(), "site dir-alloc: observed 12 (threshold 10)");
    }
}
