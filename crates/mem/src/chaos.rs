//! Deterministic fault injection for the memory system.
//!
//! The paper's central risk (§3.2.5) is that locked L1 lines turn protocol
//! corner cases — parked invalidations, all-ways-locked sets, inclusion
//! evictions — into deadlock or livelock fuel. This module *manufactures*
//! those corners on demand so the watchdog and the invariant auditor are
//! exercised by adversarial interleavings rather than only by hand-written
//! shapes.
//!
//! Every perturbation is **behaviour-preserving**: it changes *when* things
//! happen, never *what* is architecturally allowed to happen. TSO outcomes
//! therefore remain legal under any chaos configuration:
//!
//! - **Message jitter** delays protocol messages and response deliveries by
//!   a bounded pseudo-random amount. Per-line directory serialization (the
//!   `Unblock` protocol) means at most one protocol-critical message is in
//!   flight per (line, core), so jitter can only reorder *independent*
//!   messages — and requests arriving "early" simply park, which the
//!   protocol already handles.
//! - **Directory response stalls** add extra latency to directory→L1
//!   messages specifically, widening the windows in which requests pile up
//!   parked behind busy lines.
//! - **MSHR clamping** shrinks the effective MSHR count, forcing
//!   [`ReqOutcome::Retry`](crate::privcache::ReqOutcome) pressure and MSHR
//!   merging far below the configured capacity.
//! - **Back-invalidation storms** periodically force inclusion evictions of
//!   idle directory entries, exactly the §3.2.5 mechanism by which a
//!   directory conflict reaches into private caches and collides with
//!   locked lines.
//!
//! Everything is driven by a seeded [`SplitMix64`] stream, so a given
//! `(seed, config)` pair reproduces the identical cycle-level schedule.
//!
//! The live [`ChaosEngine`] is owned by the interconnect ([`crate::noc`]),
//! not by `system.rs`: jitter and directory stalls perturb a message's
//! *injection* time before bandwidth arbitration, so fault injection
//! composes with contention on the contended crossbar, and the jitter
//! stream is drawn in send order — which the ideal crossbar preserves
//! exactly, keeping pre-relocation chaos runs bit-identical.


/// SplitMix64 — the deterministic pseudo-random stream behind every chaos
/// decision (and the `sim` crate's litmus fuzzer). Tiny, fast and stable
/// across platforms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Fault-injection configuration. `ChaosConfig::default()` is fully off and
/// adds zero per-event cost; [`ChaosConfig::stress`] is the aggressive
/// preset the fuzzer and the chaos tests use.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master switch. When false every other field is ignored.
    pub enabled: bool,
    /// Seed for the deterministic perturbation stream.
    pub seed: u64,
    /// Maximum extra cycles added to any scheduled memory-system event
    /// (protocol messages and core response deliveries). 0 = no jitter.
    pub msg_jitter: u64,
    /// Maximum *additional* extra cycles on directory→L1 messages (grant
    /// and invalidation stalls). 0 = none.
    pub dir_stall: u64,
    /// Clamp the per-cache MSHR count to this many entries (0 = off).
    /// Values above the configured `mshrs` have no effect.
    pub mshr_clamp: usize,
    /// Force an inclusion eviction of up to [`ChaosConfig::storm_burst`]
    /// idle directory entries every this many cycles (0 = off).
    pub storm_interval: u64,
    /// Entries back-invalidated per storm tick.
    pub storm_burst: u32,
}

impl ChaosConfig {
    /// Aggressive preset: jitter every hop, stall the directory, choke the
    /// MSHRs and trigger frequent back-invalidation storms.
    pub fn stress(seed: u64) -> ChaosConfig {
        ChaosConfig {
            enabled: true,
            seed,
            msg_jitter: 24,
            dir_stall: 40,
            mshr_clamp: 2,
            storm_interval: 150,
            storm_burst: 4,
        }
    }
}

fa_trace::counters! {
    /// Counters for the injected faults, surfaced through
    /// [`MemStats`](crate::stats::MemStats).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ChaosStats {
        /// Total extra cycles injected into event schedules.
        sum jitter_cycles: u64,
        /// Events that received a nonzero delay.
        sum delayed_events: u64,
        /// Back-invalidation storms triggered.
        sum storms: u64,
        /// Directory entries force-evicted by storms.
        sum storm_evictions: u64,
    }
}

/// Live fault-injection state owned by the memory system.
#[derive(Clone, Debug, Default)]
pub struct ChaosEngine {
    cfg: ChaosConfig,
    rng: SplitMix64,
    /// The next storm cycle, a multiple of `storm_interval` (`None` while
    /// storms are off): a scheduled event, so the clock may jump to it.
    next_storm: Option<u64>,
    pub(crate) stats: ChaosStats,
}

impl ChaosEngine {
    /// Builds the engine for `cfg` (inert when `cfg.enabled` is false).
    pub fn new(cfg: ChaosConfig) -> ChaosEngine {
        let rng = SplitMix64::new(cfg.seed ^ 0xC4A0_5C4A_05C4_A05C);
        let storms = cfg.enabled && cfg.storm_interval > 0 && cfg.storm_burst > 0;
        let next_storm = storms.then_some(cfg.storm_interval);
        ChaosEngine { cfg, rng, next_storm, stats: ChaosStats::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// True when any perturbation is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Extra delay for a generic scheduled event.
    #[inline]
    pub(crate) fn event_jitter(&mut self) -> u64 {
        if !self.cfg.enabled || self.cfg.msg_jitter == 0 {
            return 0;
        }
        let delay = self.rng.below(self.cfg.msg_jitter + 1);
        self.charge(delay)
    }

    /// Extra delay for a directory→L1 message (jitter + directory stall).
    #[inline]
    pub(crate) fn dir_response_jitter(&mut self) -> u64 {
        if !self.cfg.enabled {
            return 0;
        }
        let bound = self.cfg.msg_jitter + self.cfg.dir_stall;
        if bound == 0 {
            return 0;
        }
        let delay = self.rng.below(bound + 1);
        self.charge(delay)
    }

    /// Effective MSHR capacity under the clamp.
    pub(crate) fn effective_mshrs(&self, configured: usize) -> usize {
        if self.cfg.enabled && self.cfg.mshr_clamp > 0 {
            configured.min(self.cfg.mshr_clamp)
        } else {
            configured
        }
    }

    /// The next storm cycle (`None` while storms are off). Its burst is
    /// drawn on that tick, by [`ChaosEngine::storm_due`].
    pub(crate) fn next_storm(&self) -> Option<u64> {
        self.next_storm
    }

    /// Number of directory entries to storm-evict this cycle (usually 0).
    /// The memory system calls it on every tick, and the clock never jumps
    /// past [`ChaosEngine::next_storm`], so `now` never passes it.
    pub(crate) fn storm_due(&mut self, now: u64) -> u32 {
        let Some(at) = self.next_storm.filter(|&at| at == now) else { return 0 };
        self.next_storm = Some(at.saturating_add(self.cfg.storm_interval));
        self.stats.storms += 1;
        // Vary the burst size so storms do not resonate with workload loops.
        1 + self.rng.below(self.cfg.storm_burst as u64) as u32
    }

    fn charge(&mut self, delay: u64) -> u64 {
        if delay > 0 {
            self.stats.jitter_cycles += delay;
            self.stats.delayed_events += 1;
        }
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = SplitMix64::new(1234);
        let mut b = SplitMix64::new(1234);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        assert!((0..100).all(|_| a.below(7) < 7));
    }

    #[test]
    fn disabled_engine_injects_nothing() {
        let mut e = ChaosEngine::new(ChaosConfig::default());
        for now in 0..1000 {
            assert_eq!(e.event_jitter(), 0);
            assert_eq!(e.dir_response_jitter(), 0);
            assert_eq!(e.storm_due(now), 0);
        }
        assert_eq!(e.effective_mshrs(16), 16);
        assert_eq!(e.stats, ChaosStats::default());
    }

    #[test]
    fn stress_engine_jitters_within_bounds() {
        let cfg = ChaosConfig::stress(7);
        let mut e = ChaosEngine::new(cfg.clone());
        for _ in 0..1000 {
            assert!(e.event_jitter() <= cfg.msg_jitter);
            assert!(e.dir_response_jitter() <= cfg.msg_jitter + cfg.dir_stall);
        }
        assert!(e.stats.delayed_events > 0);
        assert!(e.stats.jitter_cycles >= e.stats.delayed_events);
        assert_eq!(e.effective_mshrs(16), cfg.mshr_clamp);
        assert_eq!(e.effective_mshrs(1), 1);
    }

    #[test]
    fn storms_fire_on_interval_only() {
        let mut e = ChaosEngine::new(ChaosConfig::stress(3));
        let interval = e.config().storm_interval;
        let burst = e.config().storm_burst;
        assert_eq!(e.storm_due(0), 0, "no storm at cycle 0");
        assert_eq!(e.storm_due(interval - 1), 0);
        let n = e.storm_due(interval);
        assert!(n >= 1 && n <= burst);
        assert_eq!(e.stats.storms, 1);
    }

    #[test]
    fn the_next_storm_is_the_next_cycle_one_fires_on() {
        // The closed form the kept cycle replaces: the next multiple of the
        // interval after `now`.
        let closed = |cfg: &ChaosConfig, now: u64| {
            (cfg.enabled && cfg.storm_interval > 0 && cfg.storm_burst > 0)
                .then(|| (now / cfg.storm_interval + 1).saturating_mul(cfg.storm_interval))
        };
        let cfg = ChaosConfig::stress(3);
        let mut e = ChaosEngine::new(cfg.clone());
        for run in 0..2 {
            assert_eq!(e.next_storm(), closed(&cfg, 0), "run {run}, before the first tick");
            let mut fires = Vec::new();
            for now in 1..10_000 {
                if e.storm_due(now) > 0 {
                    fires.push(now);
                }
                assert_eq!(e.next_storm(), closed(&cfg, now), "run {run}, after cycle {now}");
            }
            let multiples: Vec<u64> = (1..10_000).filter(|now| now % cfg.storm_interval == 0).collect();
            assert_eq!(fires, multiples);
            // A reset builds the engine afresh, as the memory system's does.
            e = ChaosEngine::new(cfg.clone());
        }
        for off in [ChaosConfig { storm_burst: 0, ..cfg.clone() }, ChaosConfig::default()] {
            let mut e = ChaosEngine::new(off.clone());
            assert_eq!(e.next_storm(), None);
            assert_eq!(e.storm_due(off.storm_interval.max(1)), 0);
            assert_eq!(e.next_storm(), closed(&off, 5));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = ChaosEngine::new(ChaosConfig::stress(99));
        let mut b = ChaosEngine::new(ChaosConfig::stress(99));
        for now in 1..500 {
            assert_eq!(a.event_jitter(), b.event_jitter());
            assert_eq!(a.dir_response_jitter(), b.dir_response_jitter());
            assert_eq!(a.storm_due(now), b.storm_due(now));
        }
        assert_eq!(a.stats, b.stats);
    }
}
