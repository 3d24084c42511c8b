//! Message types: core-facing responses/notices and internal protocol
//! messages.

use crate::{CoreId, Line};
use fa_isa::{Addr, Word};

/// Where a read was satisfied — used for latency-class statistics and the
/// paper's Figure-13 locality metric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LatClass {
    /// Hit in the L1D.
    L1,
    /// Hit in the private L2.
    L2,
    /// Served by the shared LLC.
    Llc,
    /// Served by main memory.
    Mem,
    /// Transferred from a remote private cache.
    Remote,
}

impl LatClass {
    /// Every class, in display/index order.
    pub const ALL: [LatClass; 5] =
        [LatClass::L1, LatClass::L2, LatClass::Llc, LatClass::Mem, LatClass::Remote];

    /// Dense index (position in [`LatClass::ALL`]) — used by the NoC
    /// layer's per-class latency breakdown.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            LatClass::L1 => 0,
            LatClass::L2 => 1,
            LatClass::Llc => 2,
            LatClass::Mem => 3,
            LatClass::Remote => 4,
        }
    }

    /// Stable lowercase label.
    pub const fn name(self) -> &'static str {
        match self {
            LatClass::L1 => "l1",
            LatClass::L2 => "l2",
            LatClass::Llc => "llc",
            LatClass::Mem => "mem",
            LatClass::Remote => "remote",
        }
    }
}

/// Response delivered to a core's LSU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreResp {
    /// A read (load or load_lock) performed.
    ReadResp {
        /// The request tag the core supplied.
        seq: u64,
        /// Word address read.
        addr: Addr,
        /// Value at perform time.
        value: Word,
        /// Write-id of the store that produced `value` (0 = initial
        /// memory). Only populated under `CheckMode::Tso`, for the
        /// axiomatic checker's rf edges.
        writer: u64,
        /// Where the line was found.
        class: LatClass,
        /// True if the private cache already held write permission when the
        /// request arrived (Figure-13 locality numerator, together with SQ
        /// forwarding which the core tracks itself).
        had_write_perm: bool,
        /// True if the controller locked the line on behalf of this request
        /// (lock-intent reads). If the requesting micro-op was squashed
        /// meanwhile, the core must release the lock immediately.
        locked: bool,
        /// Interconnect transfer cycles of the final fill leg (NoC
        /// injection stamp → delivery; 0 for local hits). Passive
        /// attribution metadata — never consulted by protocol logic.
        xfer: u64,
        /// Cycles the underlying directory request spent parked behind a
        /// busy entry before being granted (0 when served without
        /// parking). Passive attribution metadata.
        park: u64,
    },
    /// Write permission is held for this line; the store at the buffer head
    /// may perform.
    StoreReady {
        /// The request tag the core supplied.
        seq: u64,
        /// Line now writable.
        line: Line,
    },
}

/// Asynchronous notification to a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreNotice {
    /// The private cache lost `line` (invalidation or downgrade from a
    /// remote write, or a capacity eviction). Drives (a) the squash of
    /// speculatively performed loads — the TSO load→load repair of
    /// Gharachorloo et al. that the paper relies on — and (b) MonitorWait
    /// wakeups.
    LineLost {
        /// The departed line.
        line: Line,
        /// True when caused by a remote writer (invalidation), false for a
        /// local capacity eviction or a downgrade to shared.
        remote_write: bool,
    },
}

/// Requests travelling from a private cache controller to the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DirReqKind {
    /// Read permission (MESI GetS).
    GetS,
    /// Write permission (MESI GetX / upgrade).
    GetX,
}

/// A directory request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DirReq {
    pub from: CoreId,
    pub line: Line,
    pub kind: DirReqKind,
}

/// Messages delivered to a private cache controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum L1Msg {
    /// Directory grants shared permission. `park` is how long the request
    /// sat parked behind a busy directory entry (attribution metadata).
    GrantS { line: Line, class: LatClass, park: u64 },
    /// Directory grants exclusive permission. `park` as in `GrantS`.
    GrantX { line: Line, class: LatClass, park: u64 },
    /// Invalidate `line` (remote GetX or directory eviction); reply InvAck.
    Inv { line: Line },
    /// Downgrade `line` M/E → S (remote GetS); reply DownAck.
    Downgrade { line: Line },
}

/// Messages delivered to the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DirMsg {
    /// A coherence request from a core.
    Req(DirReq),
    /// Invalidation acknowledged by `from`.
    InvAck { from: CoreId, line: Line },
    /// Downgrade acknowledged by `from`; `had_line` is false if the copy had
    /// been silently evicted.
    DownAck { from: CoreId, line: Line, had_line: bool },
    /// The grantee finished filling `line`: the directory may start the next
    /// transaction (gem5-Ruby-style "Unblock"). Without it, an invalidation
    /// for the next requester could overtake a slow grant in flight and
    /// leave the grantee with a stale exclusive copy.
    Unblock { from: CoreId, line: Line },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latclass_is_hashable_and_comparable() {
        use std::collections::HashSet;
        let s: HashSet<LatClass> = LatClass::ALL.into_iter().collect();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn latclass_index_matches_all_order() {
        for (i, c) in LatClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn notices_carry_remote_write_flag() {
        let n = CoreNotice::LineLost { line: 64, remote_write: true };
        match n {
            CoreNotice::LineLost { line, remote_write } => {
                assert_eq!(line, 64);
                assert!(remote_write);
            }
        }
    }
}
