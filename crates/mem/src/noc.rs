//! The interconnect (NoC) layer: typed message delivery between the
//! private-cache controllers, the directory/LLC and the cores.
//!
//! The network is one crossbar, [`Xbar`]: the system hands each outbound
//! message to its **port** ([`Xbar::send`]) and drains deliveries with
//! [`Xbar::pop_due`]; the crossbar owns the event wheel, the
//! fault-injection engine, the `noc` trace ring and all latency/bandwidth
//! modeling.
//!
//! [`NocConfig::policy`] selects whether the ports have finite bandwidth:
//!
//! - [`XbarPolicy::Ideal`] — no links: every network message takes one
//!   fixed hop latency (`net_lat`) plus chaos jitter. This is the paper's
//!   baseline network assumption and the schedule the golden-stats test in
//!   `crates/bench/tests/noc_golden.rs` pins.
//! - [`XbarPolicy::Contended`] — per-link bandwidth in flits/cycle, with
//!   per-port ingress/egress serialization and occupancy accounting, in the
//!   spirit of the GARNET crossbar the paper's gem5 setup uses. Control
//!   messages are one flit; grants carry a data payload
//!   ([`NocConfig::data_flits`]).
//!
//! Both run the same `send` body: without links a port's serialization is
//! the identity on its ready time (see [`Xbar`]).
//!
//! # Arbitration determinism
//!
//! Links arbitrate by **arrival order**: each keeps a busy-until horizon
//! and serves messages in the order `send` observes them. Because `send` is
//! only ever invoked while draining the event wheel — a min-heap keyed by
//! `(cycle, insertion seq)` — that order is a pure function of the
//! simulation, which makes the arbitration a deterministic round-robin
//! keyed by `(cycle, seq)`: same configuration, same schedule,
//! bit-identical results at any host thread count.
//!
//! # Chaos relocation
//!
//! The [`ChaosEngine`](crate::chaos::ChaosEngine) lives *inside* the
//! crossbar: message jitter and directory-stall injection perturb the
//! injection time of each message before bandwidth arbitration, so fault
//! injection composes with contention (a jittered message also queues). The
//! jitter stream is drawn in send order by the one `send`, so it is the
//! same stream under either policy.

use crate::chaos::ChaosEngine;
use crate::msgs::{DirMsg, L1Msg, LatClass};
use crate::wheel::Wheel;
use crate::{CoreId, Cycle, Line, MemConfig};
use fa_isa::Addr;
use fa_trace::{
    Counter, Hist, Json, TraceBuf, TraceEvent, NOC_READ_DONE, NOC_STORE_READY, NOC_TO_DIR,
    NOC_TO_L1,
};
use std::collections::VecDeque;
use std::fmt;

/// Which crossbar model routes protocol messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum XbarPolicy {
    /// Fixed-latency, infinite-bandwidth crossbar (the paper's baseline
    /// network assumption and this repo's historical behavior).
    #[default]
    Ideal,
    /// Finite per-link bandwidth with ingress/egress serialization.
    Contended,
}

impl XbarPolicy {
    /// Stable lowercase label used in JSON and summary lines.
    pub const fn name(self) -> &'static str {
        match self {
            XbarPolicy::Ideal => "ideal",
            XbarPolicy::Contended => "contended",
        }
    }
}

/// Interconnect configuration. The default is the ideal crossbar, which is
/// bit-identical to the pre-NoC message path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Crossbar model.
    pub policy: XbarPolicy,
    /// Link bandwidth in flits/cycle (contended crossbar only; min 1).
    pub link_bw: u64,
    /// Flits in a data-bearing message (grants): a 64 B line over 16 B
    /// flits plus a head flit. Control messages are always one flit.
    pub data_flits: u64,
}

impl Default for NocConfig {
    fn default() -> NocConfig {
        NocConfig { policy: XbarPolicy::Ideal, link_bw: 2, data_flits: 5 }
    }
}

impl NocConfig {
    /// A contended crossbar with `link_bw` flits/cycle per link (at least
    /// one: the only clamp — the crossbar divides by this value as given).
    pub fn contended(link_bw: u64) -> NocConfig {
        NocConfig { policy: XbarPolicy::Contended, link_bw: link_bw.max(1), ..NocConfig::default() }
    }
}

/// Buckets of the per-link queue-occupancy histogram: depth 0..=6 plus a
/// 7-or-deeper tail.
pub const QUEUE_BUCKETS: usize = 8;

/// Per-link counters (one physical port direction of the crossbar).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages serialized through this link.
    pub messages: u64,
    /// Flits carried.
    pub flits: u64,
    /// Cycles the link was occupied transmitting.
    pub busy_cycles: u64,
    /// Queue-occupancy histogram, sampled at each message's arrival:
    /// `queue_hist[d]` counts arrivals that found `d` messages still in
    /// flight ahead of them (last bucket is `QUEUE_BUCKETS - 1` or deeper).
    pub queue_hist: [u64; QUEUE_BUCKETS],
    /// Deepest queue any arrival observed.
    pub max_queue: u64,
}

impl LinkStats {
    /// Fraction of `elapsed` cycles this link spent transmitting.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        self.busy_cycles as f64 / elapsed.max(1) as f64
    }
}

/// Network-layer statistics, surfaced through
/// [`MemStats`](crate::stats::MemStats). All counters are zero under the
/// ideal crossbar except the message/latency tallies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Crossbar model that produced these counters.
    pub policy: XbarPolicy,
    /// Configured link bandwidth (contended only; 0 for ideal).
    pub link_bw: u64,
    /// Cycle the snapshot was taken (denominator for utilizations).
    pub elapsed: Cycle,
    /// Network messages routed (requests + directory responses) — the
    /// energy model's message count.
    pub net_messages: u64,
    /// Core-local deliveries routed (read/store completion events).
    pub local_deliveries: u64,
    /// Grants delivered, by latency class (`LatClass::ALL` order).
    pub class_msgs: [u64; LatClass::ALL.len()],
    /// Total network cycles (hop + jitter + queuing + serialization) those
    /// grants spent in flight, by latency class.
    pub class_cycles: [u64; LatClass::ALL.len()],
    /// Distribution of delivered network latency across all grants (the
    /// same population `class_cycles` sums; log₂ buckets, deterministic
    /// merge).
    pub delivered_hist: Hist,
    /// Per-core request egress links (core → directory), contended only.
    pub req_links: Vec<LinkStats>,
    /// Per-core response ingress links (directory → core), contended only.
    pub resp_links: Vec<LinkStats>,
    /// The directory's shared ingress port, contended only.
    pub dir_ingress: LinkStats,
    /// The directory's shared egress port, contended only.
    pub dir_egress: LinkStats,
}

impl NocStats {
    /// Every link in a stable order: per-core request links, per-core
    /// response links, then the directory ingress/egress ports.
    pub fn links(&self) -> impl Iterator<Item = &LinkStats> {
        self.req_links
            .iter()
            .chain(self.resp_links.iter())
            .chain([&self.dir_ingress, &self.dir_egress])
    }

    /// Highest per-link utilization (0.0 under the ideal crossbar).
    pub fn max_link_utilization(&self) -> f64 {
        self.links().map(|l| l.utilization(self.elapsed)).fold(0.0, f64::max)
    }

    /// Deepest queue observed on any link.
    pub fn max_queue(&self) -> u64 {
        self.links().map(|l| l.max_queue).max().unwrap_or(0)
    }

    /// Queue-occupancy histogram summed over every link.
    pub fn queue_hist(&self) -> [u64; QUEUE_BUCKETS] {
        let mut h = [0u64; QUEUE_BUCKETS];
        for l in self.links() {
            for (acc, x) in h.iter_mut().zip(l.queue_hist.iter()) {
                *acc += x;
            }
        }
        h
    }

    /// Mean network latency of grant deliveries across all latency classes
    /// (hop + jitter + queuing + serialization; excludes directory/LLC/
    /// memory access time).
    pub fn avg_grant_latency(&self) -> f64 {
        let msgs: u64 = self.class_msgs.iter().sum();
        if msgs == 0 {
            return 0.0;
        }
        self.class_cycles.iter().sum::<u64>() as f64 / msgs as f64
    }

    /// Mean network latency of grants in one latency class.
    pub fn class_latency(&self, class: LatClass) -> f64 {
        let i = class.index();
        if self.class_msgs[i] == 0 {
            return 0.0;
        }
        self.class_cycles[i] as f64 / self.class_msgs[i] as f64
    }

    /// The stats as a JSON object (stable field order; utilizations to 4
    /// decimals, latencies to 3).
    pub fn json(&self) -> Json {
        let util = |l: &LinkStats| Json::fixed(l.utilization(self.elapsed), 4);
        Json::obj([
            ("policy", self.policy.name().into()),
            ("bw", self.link_bw.into()),
            ("net_messages", self.net_messages.into()),
            ("local_deliveries", self.local_deliveries.into()),
            ("avg_grant_lat", Json::fixed(self.avg_grant_latency(), 3)),
            ("class_lat", Json::arr(LatClass::ALL.map(|c| Json::fixed(self.class_latency(c), 3)))),
            ("max_link_util", Json::fixed(self.max_link_utilization(), 4)),
            ("req_util", Json::arr(self.req_links.iter().map(util))),
            ("resp_util", Json::arr(self.resp_links.iter().map(util))),
            ("dir_in_util", util(&self.dir_ingress)),
            ("dir_out_util", util(&self.dir_egress)),
            ("max_queue", self.max_queue().into()),
            ("queue_hist", Json::arr(self.queue_hist())),
            ("delivered_hist", self.delivered_hist.to_json()),
        ])
    }
}

impl fmt::Display for NocStats {
    /// One-line summary so sweep/figure bins can print network utilization
    /// without JSON post-processing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.policy {
            XbarPolicy::Ideal => write!(
                f,
                "noc[ideal]: {} net msgs, {} local deliveries, avg grant net lat {:.1}",
                self.net_messages,
                self.local_deliveries,
                self.avg_grant_latency()
            ),
            XbarPolicy::Contended => write!(
                f,
                "noc[contended bw={}]: {} net msgs, max link util {:.1}%, \
                 max queue {}, avg grant net lat {:.1}",
                self.link_bw,
                self.net_messages,
                self.max_link_utilization() * 100.0,
                self.max_queue(),
                self.avg_grant_latency()
            ),
        }
    }
}

/// An event routed through the interconnect: a network message (to the
/// directory or to a private cache) or a core-local completion delivery.
/// Local deliveries ride the same wheel so the global `(cycle, seq)` order
/// — and with it the chaos jitter stream — is preserved end to end.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NocEv {
    /// A protocol message to the directory.
    ToDir(DirMsg),
    /// A protocol message to a private cache controller.
    ToL1(CoreId, L1Msg),
    /// A read performed; deliver the response to the core.
    ReadDone {
        core: CoreId,
        seq: u64,
        addr: Addr,
        class: LatClass,
        had_write_perm: bool,
        locked: bool,
        /// Directory park cycles carried through from the grant
        /// (attribution metadata for the core's atomic-latency split).
        park: u64,
    },
    /// Write permission obtained; deliver StoreReady to the core.
    StoreReady { core: CoreId, seq: u64, line: Line },
}

/// The source core of a directory-bound message (its request egress port).
fn dir_msg_src(m: &DirMsg) -> CoreId {
    match *m {
        DirMsg::Req(req) => req.from,
        DirMsg::InvAck { from, .. }
        | DirMsg::DownAck { from, .. }
        | DirMsg::Unblock { from, .. } => from,
    }
}

/// The latency class of a grant, if `msg` is one (grants are the
/// data-bearing messages; invalidations and downgrades are control).
fn grant_class(msg: &L1Msg) -> Option<LatClass> {
    match *msg {
        L1Msg::GrantS { class, .. } | L1Msg::GrantX { class, .. } => Some(class),
        L1Msg::Inv { .. } | L1Msg::Downgrade { .. } => None,
    }
}

/// Synthetic node id for the directory in NoC trace events (cores use
/// their `CoreId`).
const DIR_NODE: u16 = u16::MAX;

/// The `(kind, src, dst)` of `ev` as NoC trace events name it.
fn route(ev: &NocEv) -> (u8, u16, u16) {
    match *ev {
        NocEv::ToDir(ref m) => (NOC_TO_DIR, dir_msg_src(m).0, DIR_NODE),
        NocEv::ToL1(core, _) => (NOC_TO_L1, DIR_NODE, core.0),
        NocEv::ReadDone { core, .. } => (NOC_READ_DONE, core.0, core.0),
        NocEv::StoreReady { core, .. } => (NOC_STORE_READY, core.0, core.0),
    }
}

/// One direction of one crossbar port: a busy-until horizon plus occupancy
/// accounting. Messages are served in arrival (`(cycle, seq)`) order.
#[derive(Debug, Default)]
struct Link {
    busy_until: Cycle,
    /// Completion times of messages accepted but possibly not yet clear,
    /// pruned lazily — its length at arrival is the queue-depth sample.
    inflight: VecDeque<Cycle>,
    stats: LinkStats,
}

impl Link {
    fn reset(&mut self) {
        let Link { busy_until, inflight, stats } = self;
        *busy_until = 0;
        inflight.clear();
        *stats = LinkStats::default();
    }

    /// Serializes a `flits`-flit message through the link no earlier than
    /// `ready`, at `bw` flits/cycle. Returns the cycle the last flit
    /// clears.
    fn transmit(&mut self, ready: Cycle, flits: u64, bw: u64) -> Cycle {
        while self.inflight.front().is_some_and(|&t| t <= ready) {
            self.inflight.pop_front();
        }
        let depth = self.inflight.len() as u64;
        self.stats.queue_hist[(depth as usize).min(QUEUE_BUCKETS - 1)] += 1;
        self.stats.max_queue = self.stats.max_queue.max(depth);
        let start = self.busy_until.max(ready);
        let ser = flits.div_ceil(bw).max(1);
        self.busy_until = start + ser;
        self.inflight.push_back(self.busy_until);
        self.stats.messages += 1;
        self.stats.flits += flits;
        self.stats.busy_cycles += ser;
        self.busy_until
    }
}

/// Flits in a control message (requests, acks, invalidations, downgrades).
const CTRL_FLITS: u64 = 1;

/// The finite-bandwidth ports: each core owns a request egress link toward
/// the directory and a response ingress link from it; the directory owns a
/// shared ingress port and a shared egress port, as in a GARNET-style
/// crossbar.
#[derive(Debug, Default)]
struct Links {
    bw: u64,
    data_flits: u64,
    req: Vec<Link>,
    resp: Vec<Link>,
    dir_in: Link,
    dir_out: Link,
    /// Per-core links of an earlier run on more cores.
    spare: Vec<Link>,
}

impl Links {
    fn reset(&mut self, cfg: &MemConfig, n_cores: usize) {
        let Links { bw, data_flits, req, resp, dir_in, dir_out, spare } = self;
        (*bw, *data_flits) = (cfg.noc.link_bw, cfg.noc.data_flits.max(1));
        crate::fit(req, spare, n_cores);
        crate::fit(resp, spare, n_cores);
        req.iter_mut().chain(resp.iter_mut()).chain([dir_in, dir_out]).for_each(Link::reset);
    }
}

/// The crossbar. The memory system pushes every outbound event through
/// [`send`](Xbar::send) and drains due deliveries with
/// [`pop_due`](Xbar::pop_due); the crossbar owns the event wheel, the
/// fault-injection engine (so jitter composes with contention), the
/// latency/bandwidth model and the `noc` trace ring.
///
/// A network message is injected at `now + extra + jitter`, serializes
/// through its source link, crosses the hop (`net_lat`), then serializes
/// through its destination port. The links exist exactly when the
/// configured policy is [`XbarPolicy::Contended`]; without them the two
/// serializations are the identity on their ready time, so the message
/// delivers at `now + extra + jitter + net_lat` — the fixed-latency
/// crossbar is the contended one in its uncontended limit, not a second
/// implementation.
#[derive(Debug, Default)]
pub(crate) struct Xbar {
    net_lat: Cycle,
    wheel: Wheel<(Cycle, NocEv)>,
    pub(crate) chaos: ChaosEngine,
    links: Option<Links>,
    /// The links of an earlier contended run, kept while the crossbar is
    /// ideal.
    unused_links: Option<Links>,
    /// Message and grant-latency tallies (`policy` and `link_bw` are set
    /// once here; the link vectors and `elapsed` are filled per snapshot).
    tally: NocStats,
    /// Structured trace ring for send/deliver events.
    pub(crate) trace: TraceBuf,
}

impl Xbar {
    /// Makes the crossbar `cfg` selects for `n_cores` cores, seeded with
    /// `chaos`, keeping the storage of its event heap, links and trace
    /// ring. `Default` is empty storage.
    pub(crate) fn reset(&mut self, cfg: &MemConfig, n_cores: usize, chaos: ChaosEngine) {
        let Xbar { net_lat, wheel, chaos: my_chaos, links, unused_links, tally, trace } = self;
        *net_lat = cfg.net_lat;
        wheel.reset();
        *my_chaos = chaos;
        let kept = links.take().or_else(|| unused_links.take());
        let contended = cfg.noc.policy == XbarPolicy::Contended;
        if contended {
            let l = links.insert(kept.unwrap_or_default());
            l.reset(cfg, n_cores);
        } else {
            *unused_links = kept;
        }
        *tally = NocStats {
            policy: cfg.noc.policy,
            link_bw: links.as_ref().map_or(0, |l| l.bw),
            ..NocStats::default()
        };
        trace.reset(&cfg.trace);
    }

    /// Routes `ev`. `extra` is the sender-side delay already accrued before
    /// injection: directory/LLC/memory access time for directory responses,
    /// cache pipeline latency for local completions, zero for requests.
    /// Network messages additionally pay chaos jitter, hop latency and (with
    /// links) serialization and queuing; local completions pay jitter only.
    pub(crate) fn send(&mut self, now: Cycle, extra: Cycle, ev: NocEv) {
        if self.trace.on() {
            let (kind, src, dst) = route(&ev);
            self.trace.record(now, TraceEvent::NocSend { kind, src, dst });
        }
        let inject = now + extra;
        let at = match ev {
            NocEv::ToDir(ref m) => {
                self.tally.net_messages += 1;
                let ready = inject + self.chaos.event_jitter();
                match &mut self.links {
                    Some(l) => {
                        let sent = l.req[dir_msg_src(m).index()].transmit(ready, CTRL_FLITS, l.bw);
                        l.dir_in.transmit(sent + self.net_lat, CTRL_FLITS, l.bw)
                    }
                    None => ready + self.net_lat,
                }
            }
            NocEv::ToL1(core, ref msg) => {
                self.tally.net_messages += 1;
                let ready = inject + self.chaos.dir_response_jitter();
                let class = grant_class(msg);
                let at = match &mut self.links {
                    Some(l) => {
                        let flits = if class.is_some() { l.data_flits } else { CTRL_FLITS };
                        let sent = l.dir_out.transmit(ready, flits, l.bw);
                        l.resp[core.index()].transmit(sent + self.net_lat, flits, l.bw)
                    }
                    None => ready + self.net_lat,
                };
                if let Some(class) = class {
                    self.tally.class_msgs[class.index()] += 1;
                    self.tally.class_cycles[class.index()] += at - inject;
                    self.tally.delivered_hist.record(at - inject);
                }
                at
            }
            NocEv::ReadDone { .. } | NocEv::StoreReady { .. } => {
                self.tally.local_deliveries += 1;
                inject + self.chaos.event_jitter()
            }
        };
        self.wheel.schedule(at, (inject, ev));
    }

    /// Schedules `ev` for delivery at exactly `at` — no latency, jitter or
    /// contention. Used for the directory's allocation-poll redispatch,
    /// which is a local retry rather than a network message (it is neither
    /// jittered, counted nor traced as a send).
    pub(crate) fn send_raw(&mut self, at: Cycle, ev: NocEv) {
        self.wheel.schedule(at, (at, ev));
    }

    /// Next delivery due at or before `now`, in `(cycle, seq)` order,
    /// paired with its injection cycle (send time plus sender-side `extra`)
    /// so the consumer can attribute delivered latency without re-deriving
    /// the crossbar's schedule.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, NocEv)> {
        let (sent, ev) = self.wheel.pop_due(now)?;
        if self.trace.on() {
            let (kind, _, dst) = route(&ev);
            let lat = now.saturating_sub(sent);
            self.trace.record(now, TraceEvent::NocDeliver { kind, dst, lat });
        }
        Some((sent, ev))
    }

    /// Cycle of the earliest pending delivery.
    pub(crate) fn next_at(&self) -> Option<Cycle> {
        self.wheel.next_at()
    }

    /// Deliveries still in flight.
    pub(crate) fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// The later of `core`'s two links' (request egress, response ingress)
    /// transmission horizons: before it the core's traffic is queued
    /// behind link serialization. Only a send moves it; without links it
    /// is 0 and nothing backpressures.
    pub(crate) fn backpressure_ends(&self, core: usize) -> Cycle {
        let ends = |l: &[Link]| l.get(core).map_or(0, |l| l.busy_until);
        self.links.as_ref().map_or(0, |l| ends(&l.req).max(ends(&l.resp)))
    }

    /// Statistics snapshot at cycle `now`.
    pub(crate) fn stats(&self, now: Cycle) -> NocStats {
        let mut s = NocStats { elapsed: now, ..self.tally.clone() };
        if let Some(l) = &self.links {
            s.req_links = l.req.iter().map(|l| l.stats.clone()).collect();
            s.resp_links = l.resp.iter().map(|l| l.stats.clone()).collect();
            s.dir_ingress = l.dir_in.stats.clone();
            s.dir_egress = l.dir_out.stats.clone();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::msgs::{DirReq, DirReqKind};
    use fa_trace::{TraceConfig, TraceMode};

    fn xbar(noc: NocConfig, n_cores: usize) -> Xbar {
        let cfg = MemConfig { noc, ..MemConfig::default() };
        built(&cfg, n_cores, ChaosEngine::new(ChaosConfig::default()))
    }

    fn built(cfg: &MemConfig, n_cores: usize, chaos: ChaosEngine) -> Xbar {
        let mut x = Xbar::default();
        x.reset(cfg, n_cores, chaos);
        x
    }

    fn ideal() -> Xbar {
        xbar(NocConfig::default(), 2)
    }

    fn req(from: u16) -> NocEv {
        NocEv::ToDir(DirMsg::Req(DirReq { from: CoreId(from), line: 0x100, kind: DirReqKind::GetS }))
    }

    fn grant(core: u16, class: LatClass) -> NocEv {
        NocEv::ToL1(CoreId(core), L1Msg::GrantS { line: 0x100, class, park: 0 })
    }

    fn drain_times(x: &mut Xbar, horizon: Cycle) -> Vec<Cycle> {
        let mut out = Vec::new();
        for t in 0..=horizon {
            while x.pop_due(t).is_some() {
                out.push(t);
            }
        }
        out
    }

    #[test]
    fn ideal_xbar_delivers_at_fixed_latency() {
        let mut x = ideal();
        x.send(10, 0, req(0));
        x.send(10, 5, grant(0, LatClass::Mem));
        assert_eq!(x.next_at(), Some(18));
        assert_eq!(drain_times(&mut x, 100), vec![18, 23]);
        let s = x.stats(100);
        assert_eq!(s.net_messages, 2);
        assert_eq!(s.class_msgs[LatClass::Mem.index()], 1);
        // Network latency excludes the sender-side `extra`.
        assert_eq!(s.class_cycles[LatClass::Mem.index()], 8);
        assert_eq!(s.max_link_utilization(), 0.0);
    }

    #[test]
    fn contended_xbar_serializes_on_shared_dir_port() {
        let mut x = xbar(NocConfig::contended(1), 4);
        // Four requests from different cores in the same cycle: egress
        // links are disjoint, but the directory ingress port serializes.
        for c in 0..4 {
            x.send(0, 0, req(c));
        }
        let times = drain_times(&mut x, 200);
        assert_eq!(times.len(), 4);
        assert!(times.windows(2).all(|w| w[1] > w[0]), "dir ingress must serialize: {times:?}");
        let s = x.stats(times[3]);
        assert_eq!(s.dir_ingress.messages, 4);
        assert!(s.dir_ingress.queue_hist[1..].iter().sum::<u64>() > 0, "arrivals must queue");
        assert!(s.max_queue() >= 1);
        assert!(s.max_link_utilization() > 0.0);
    }

    #[test]
    fn contended_grants_pay_data_serialization() {
        let mut x = xbar(NocConfig::contended(1), 2);
        x.send(0, 0, grant(0, LatClass::Llc));
        // One 5-flit grant at 1 flit/cycle: 5 (egress) + 8 (hop) + 5
        // (ingress) = cycle 18.
        assert_eq!(x.next_at(), Some(18));
        let s = x.stats(18);
        assert_eq!(s.class_msgs[LatClass::Llc.index()], 1);
        assert_eq!(s.class_cycles[LatClass::Llc.index()], 18);
        assert_eq!(s.dir_egress.flits, 5);
        assert!(s.avg_grant_latency() > 8.0);
    }

    #[test]
    fn wider_links_deliver_sooner() {
        let last = |bw| {
            let mut x = xbar(NocConfig::contended(bw), 2);
            x.send(0, 0, grant(0, LatClass::Mem));
            x.send(0, 0, grant(1, LatClass::Mem));
            *drain_times(&mut x, 300).last().expect("grants deliver")
        };
        assert!(last(4) < last(1), "bw=4 must finish before bw=1");
    }

    /// Twenty rounds of request + grant at staggered cycles and delays,
    /// then a local completion: every message class, every jitter call.
    fn mixed_sends(x: &mut Xbar, mut after_each: impl FnMut(&Xbar)) {
        for i in 0..20u16 {
            x.send(i as u64, (i % 3) as u64, req(i % 2));
            after_each(x);
            x.send(i as u64, 2, grant(i % 2, LatClass::Remote));
            after_each(x);
        }
        x.send(20, 4, NocEv::StoreReady { core: CoreId(1), seq: 7, line: 0x100 });
        after_each(x);
    }

    fn stressed(noc: NocConfig) -> Xbar {
        let cfg = MemConfig { noc, ..MemConfig::default() };
        built(&cfg, 2, ChaosEngine::new(ChaosConfig::stress(77)))
    }

    #[test]
    fn same_sends_same_schedule_and_stats() {
        let mk = || {
            let mut x = stressed(NocConfig::contended(2));
            mixed_sends(&mut x, |_| ());
            (drain_times(&mut x, 2000), x.stats(2000))
        };
        let (ta, sa) = mk();
        let (tb, sb) = mk();
        assert_eq!(ta, tb, "delivery schedule must be deterministic");
        assert_eq!(sa, sb, "stats must be deterministic");
        assert!(sa.net_messages == 40);
    }

    #[test]
    fn jitter_stream_is_the_same_under_either_policy() {
        // The jitter each send drew, read off the engine's running total.
        let draws = |noc| {
            let mut x = stressed(noc);
            let (mut seen, mut out) = (0, Vec::new());
            mixed_sends(&mut x, |x| {
                out.push(x.chaos.stats.jitter_cycles - seen);
                seen = x.chaos.stats.jitter_cycles;
            });
            // ... and the stream position it left the generator at.
            out.push(x.chaos.event_jitter());
            (out, x.chaos.stats.clone())
        };
        let (ideal, ideal_stats) = draws(NocConfig::default());
        assert!(ideal.iter().any(|&j| j > 0), "stress preset must jitter");
        for bw in [1, 4] {
            let (contended, stats) = draws(NocConfig::contended(bw));
            assert_eq!(contended, ideal, "bw={bw} drew a different jitter sequence");
            assert_eq!(stats, ideal_stats);
        }
    }

    #[test]
    fn every_send_and_delivery_is_traced_once() {
        for noc in [NocConfig::default(), NocConfig::contended(1)] {
            let cfg = MemConfig {
                noc,
                trace: TraceConfig::with_mode(TraceMode::Full),
                ..MemConfig::default()
            };
            let mut x = built(&cfg, 2, ChaosEngine::new(ChaosConfig::default()));
            let mut sends = Vec::new();
            mixed_sends(&mut x, |x| {
                let ring = x.trace.tail(usize::MAX);
                sends.push(ring.last().expect("send traced").ev);
                assert_eq!(ring.len(), sends.len(), "one record per send");
            });
            x.send_raw(30, req(1));
            assert_eq!(x.trace.len(), sends.len(), "redispatch is not traced as a send");
            assert_eq!(sends[0], TraceEvent::NocSend { kind: NOC_TO_DIR, src: 0, dst: DIR_NODE });
            assert_eq!(sends[1], TraceEvent::NocSend { kind: NOC_TO_L1, src: DIR_NODE, dst: 0 });
            assert_eq!(
                sends[40],
                TraceEvent::NocSend { kind: NOC_STORE_READY, src: 1, dst: 1 }
            );
            let mut delivered = 0;
            for t in 0..=2000 {
                while let Some((sent, ev)) = x.pop_due(t) {
                    delivered += 1;
                    let (kind, _, dst) = route(&ev);
                    let last = x.trace.tail(1)[0];
                    assert_eq!(last.cycle, t);
                    assert_eq!(last.ev, TraceEvent::NocDeliver { kind, dst, lat: t - sent });
                    assert_eq!(x.trace.len(), sends.len() + delivered, "one record per delivery");
                }
            }
            assert_eq!(delivered, sends.len() + 1, "every send and the redispatch deliver");
        }
    }

    #[test]
    fn redispatch_bypasses_latency_and_counters() {
        for mut x in [ideal(), xbar(NocConfig::contended(2), 1)] {
            x.send_raw(7, req(0));
            assert_eq!(x.next_at(), Some(7));
            assert_eq!(x.stats(10).net_messages, 0, "redispatch is not a network message");
        }
    }

    #[test]
    fn backpressure_probe_tracks_link_horizons() {
        let mut x = ideal();
        x.send(0, 0, req(0));
        assert_eq!(x.backpressure_ends(0), 0, "without links nothing backpressures");

        let mut x = xbar(NocConfig::contended(1), 2);
        x.send(0, 0, grant(0, LatClass::Mem));
        assert!(x.backpressure_ends(0) > 0, "resp link busy while the grant serializes");
        assert_eq!(x.backpressure_ends(1), 0, "other cores' links are idle");
        let last = *drain_times(&mut x, 300).last().expect("grant delivers");
        assert!(x.backpressure_ends(0) <= last, "horizon passed, probe clears");
    }

    #[test]
    fn stats_json_and_display_shape() {
        let mut x = xbar(NocConfig::contended(2), 2);
        x.send(0, 0, req(0));
        x.send(0, 0, grant(1, LatClass::Mem));
        let s = x.stats(50);
        let j = s.json().to_string();
        assert!(j.starts_with("{\"policy\":\"contended\",\"bw\":2,"), "got {j}");
        for key in ["\"req_util\":[", "\"resp_util\":[", "\"queue_hist\":[", "\"max_queue\":"] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(s.to_string().starts_with("noc[contended bw=2]:"));
        let s = ideal().stats(10);
        assert!(s.to_string().starts_with("noc[ideal]:"));
        assert!(s.json().to_string().starts_with("{\"policy\":\"ideal\","));
    }
}
