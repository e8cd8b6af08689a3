//! A thread-per-site replicated cluster with real concurrency.
//!
//! Where [`esr_replica::SimCluster`] runs the protocols under a
//! deterministic virtual clock, this runtime runs the control plane the
//! `esrd` daemon and the model checker run — one [`NodeCore`] per site —
//! on real OS threads connected by channels. Each site thread is an
//! in-process executor of its core, under the daemon's contract: it
//! feeds the core client submits, client decisions and peer frames, and
//! executes the returned [`Effect`]s in order. Updates propagate
//! asynchronously: `submit_update` returns once the origin has applied
//! the update and queued it for its peers, queries run against whichever
//! state the local replica has, and `quiesce` waits for the system to
//! settle — at which point all replicas are identical, the ESR
//! convergence guarantee.
//!
//! The cores never see a `Tick` or `Checkpoint` event, so no view
//! change ever starts: the view stays 0, site 0 coordinates, and the
//! `RecordView` / `Checkpoint` effects never occur (the executor
//! ignores them).
//!
//! Clusters built with [`Cluster::chaos`] additionally route every
//! update MSet through the fault-injection relays of [`crate::chaos`]
//! (seeded drops, duplicates, partition windows, durable at-least-once
//! queues), journal accepted MSets, and support [`Cluster::crash`] /
//! [`Cluster::restart`]. Control frames go straight into the target
//! site's channel (DESIGN.md §10). A restarted site recovers the way a
//! rebooted daemon does: [`NodeCore::recover`] over its journal, then a
//! `Hello` to every peer, which the coordinator answers with its view
//! snapshot.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::atomic::AtomicCell;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use esr_core::divergence::{EpsilonSpec, InconsistencyCounter};
use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_obs::{GaugeFamily, MetricsRegistry, SiteInstruments};
use esr_replica::mset::MSet;
use esr_replica::site::QueryOutcome;
use esr_replica::span::Event;
use esr_replica::wire::{encode_mset, Frame};
use esr_sim::probe;
use esr_storage::stable_queue::EntryId;

use crate::chaos::{self, ChaosStats, FaultPlan, RelayHandle, RelayMsg, TraceEvent};
use crate::ctrl::{CtrlCanary, Effect, NodeCore, NodeEvent};
use crate::recovery::ApplyJournal;
use crate::spans::{RawSpan, SpanRing, SPAN_QUERY_ALL};
use crate::state::{RtMethod, SiteAudit, SiteState};

/// Logical shared-memory location namespace for the per-site protocol
/// state, annotated via [`probe::mem_read`] / [`probe::mem_write`] so
/// checked runs prove site state stays thread-confined (each location
/// is only ever touched by its owning site thread — any cross-thread
/// access without a happens-before edge is a race finding).
const SITE_STATE_LOC: u64 = 1 << 48;

/// The coordinator of view 0, the only view the thread cluster runs.
const COORDINATOR: SiteId = SiteId(0);

/// A quiesce wait that did not settle before its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiesceTimeout {
    /// How long the wait actually lasted.
    pub waited: std::time::Duration,
    /// Pending work observed per site at the deadline: the site's inbox
    /// depth (thread runtime) or its reported apply backlog (process
    /// runtime). `None` when the site could not be reached — usually
    /// the site that is wedging the quiesce.
    pub site_queues: Vec<Option<u64>>,
    /// Which site held the coordinator role at the deadline: the
    /// elected coordinator that answered (process runtime), or site 0
    /// while it is up (thread runtime, which never changes view). A
    /// timeout with no reachable coordinator usually means the killed
    /// coordinator was never restarted and no surviving site suspected
    /// it yet.
    pub coordinator: Option<SiteId>,
}

impl std::fmt::Display for QuiesceTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster did not quiesce within {:.1}s (crashed site never restarted, \
             partition outlasting the deadline, or a protocol bug); per-site queue depths: [",
            self.waited.as_secs_f64()
        )?;
        for (i, q) in self.site_queues.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match q {
                Some(d) => write!(f, "site {i}: {d}")?,
                None => write!(f, "site {i}: unreachable")?,
            }
        }
        write!(f, "]; coordinator role held by ")?;
        match self.coordinator {
            Some(s) => write!(f, "site {}", s.raw()),
            None => write!(f, "no reachable site"),
        }
    }
}

impl std::error::Error for QuiesceTimeout {}

/// Seeded defect canaries for `esr-check`: each one disables a single
/// safety mechanism the checker's oracles must then flag. Production
/// clusters always run [`RtCanary::None`]; the other variants exist so
/// the checking pipeline can prove it *would* catch each defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtCanary {
    /// No fault injected (the only variant production code should use).
    #[default]
    None,
    /// ORDUP sites apply MSets in arrival order, bypassing the
    /// sequencer hold-back — the ORDUP global-order oracle must flag
    /// out-of-order applications.
    OrdupSequencerDisabled,
    /// Sites answer queries with an unbounded budget regardless of the
    /// declared `EpsilonSpec` — the epsilon-accounting oracle must flag
    /// admitted queries whose charge exceeds their declared bound.
    EpsilonIgnored,
    /// The coordinator certifies a VTNC advance on the *first* site ack
    /// instead of waiting for all sites (the cores run with
    /// [`CtrlCanary::StaleVtncCert`] armed) — the VTNC-safety oracle
    /// must flag advances past a site's installed prefix.
    VtncEagerCertify,
}

/// A relay's handle for acknowledging one delivered queue entry.
type RelayAck = (Sender<RelayMsg>, EntryId);

enum SiteMsg {
    /// A peer-plane frame. A relay-delivered MSet (chaos) carries its
    /// relay's ack handle: the site acks once the step's effects ran,
    /// so the relay retires only journalled and applied entries.
    Peer(Frame, Option<RelayAck>),
    /// Client plane: an update submitted at this site. `done` fires
    /// once the step ran (see [`Cluster::client_request`]).
    Submit {
        mset: MSet,
        done: Sender<()>,
    },
    /// Client plane: a COMPE commit/abort decision.
    Decide {
        et: EtId,
        commit: bool,
        done: Sender<()>,
    },
    Query {
        read_set: Vec<ObjectId>,
        epsilon: EpsilonSpec,
        reply: Sender<QueryOutcome>,
    },
    Snapshot {
        reply: Sender<BTreeMap<ObjectId, Value>>,
    },
    Settled {
        reply: Sender<bool>,
    },
    HasApplied {
        et: EtId,
        reply: Sender<bool>,
    },
    Audit {
        reply: Sender<SiteAudit>,
    },
    /// The incarnation's event ring: `(dropped, events)`.
    Spans {
        reply: Sender<(u64, Vec<RawSpan>)>,
    },
    /// End the incarnation mid-stream (chaos), as a process kill
    /// would: its core and event ring are dropped, and peer traffic
    /// sent until [`SiteMsg::Restart`] is lost; the journal survives.
    Crash,
    /// Boot the next incarnation of a crashed site.
    Restart,
    Shutdown,
}

impl SiteMsg {
    /// Client requests outlive a crash: they wait in the channel for
    /// the next incarnation, the way a retrying client would.
    fn is_client_request(&self) -> bool {
        matches!(self, SiteMsg::Submit { .. } | SiteMsg::Decide { .. })
    }
}

/// Everything a site thread needs besides its receiver.
struct SiteSpawn {
    method: RtMethod,
    audit: bool,
    canary: RtCanary,
    /// Every site's channel, indexed by site id.
    sites: Arc<Vec<Sender<SiteMsg>>>,
    /// Chaos only: the relay into each directed link, indexed
    /// `from * n + to` (`None` on the diagonal; empty otherwise).
    relays: Arc<Vec<Option<Sender<RelayMsg>>>>,
    /// Chaos only: the journal path.
    journal: Option<PathBuf>,
    /// Shared registry: each incarnation of a site re-registers the same
    /// series (same labels → same cells), so counters survive
    /// crash/restart cycles.
    metrics: MetricsRegistry,
}

/// The chaos machinery attached to a cluster built with
/// [`Cluster::chaos`].
struct ChaosRuntime {
    /// One relay per directed link between distinct sites.
    relays: Vec<RelayHandle>,
    crashes: u64,
    restarts: u64,
}

/// A running thread-per-site cluster.
///
/// ```
/// use esr_core::divergence::EpsilonSpec;
/// use esr_core::ids::{ObjectId, SiteId};
/// use esr_core::op::{ObjectOp, Operation};
/// use esr_core::value::Value;
/// use esr_runtime::{Cluster, RtMethod};
///
/// let cluster = Cluster::new(RtMethod::Commu, 3);
/// cluster.submit_update(SiteId(0), vec![ObjectOp::new(ObjectId(0), Operation::Incr(5))]);
/// cluster.quiesce();
/// assert!(cluster.converged());
/// let out = cluster.query(SiteId(2), &[ObjectId(0)], EpsilonSpec::STRICT);
/// assert_eq!(out.values, vec![Value::Int(5)]);
/// ```
pub struct Cluster {
    method: RtMethod,
    /// Every site's channel. A channel outlives its site's crashes, so
    /// client requests sent to a down site wait for its restart.
    sites: Arc<Vec<Sender<SiteMsg>>>,
    site_threads: Vec<Option<JoinHandle<()>>>,
    /// Sites crashed and not yet restarted: rendezvous with them fail
    /// fast instead of waiting for the restart.
    down: Vec<bool>,
    sequencer: AtomicCell,
    version_clock: AtomicCell,
    // Instrumented (an ET allocation is a preemption point): concurrent
    // submitters' ET numbering must be schedule-determined, not a free
    // race the explorer cannot replay.
    next_et: AtomicCell,
    n: usize,
    chaos: Option<ChaosRuntime>,
    metrics: MetricsRegistry,
    /// `esr_divergence{site}`: objects where the site's quiesced value
    /// disagrees with the cluster consensus (see
    /// [`Cluster::refresh_metrics`]).
    divergence_gauge: GaugeFamily,
    /// `esr_site_queue_depth{site}`: the site inbox depth, sampled by
    /// the quiesce polls and [`Cluster::refresh_metrics`].
    queue_depth_gauge: GaugeFamily,
}

/// Wall-clock micros for event stamps (observational only).
fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// One incarnation of a site: its core and the world the core's
/// effects act on.
struct SiteExec<'a> {
    core: NodeCore,
    cfg: &'a SiteSpawn,
    journal: Option<ApplyJournal>,
    events: SpanRing,
    /// Duplicates suppressed by this site's earlier incarnations: the
    /// audit's chaos counters span the site's lifetime, like its
    /// journal.
    redelivered_before: u64,
    /// Logical location of this site's protocol state for the race
    /// detector: only this thread may touch it.
    state_loc: u64,
}

impl<'a> SiteExec<'a> {
    /// Boots incarnation `epoch` of site `i` the way a daemon boots:
    /// replay the journal through [`NodeCore::recover`], execute its
    /// effects (re-announcing the recovered applies), and — after a
    /// crash — greet every peer so the coordinator answers with its view
    /// snapshot, or, when this site is the coordinator, the peers
    /// re-announce their evidence.
    fn boot(i: usize, epoch: u64, redelivered_before: u64, cfg: &'a SiteSpawn) -> Self {
        let site = SiteId(i as u64);
        let n = cfg.sites.len();
        let mut state = SiteState::new(cfg.method, site);
        state.attach_metrics(SiteInstruments::for_site(
            &cfg.metrics,
            cfg.method.name(),
            site.raw(),
        ));
        if cfg.audit {
            state.enable_audit();
        }
        let journal = cfg.journal.as_ref().map(|path| {
            ApplyJournal::open(path)
                .unwrap_or_else(|e| panic!("open site journal {}: {e}", path.display()))
        });
        let replay = journal
            .as_ref()
            .map(ApplyJournal::replay)
            .unwrap_or_default();
        cfg.metrics
            .counter("esr_recovery_replays_total", &[("site", &i.to_string())])
            .add(replay.len() as u64);
        let events = SpanRing::default();
        events.record(
            now_micros(),
            Event::Boot {
                epoch,
                view: 0,
                replayed: replay.len() as u64,
                snapshot: None,
            },
        );
        let canary =
            (cfg.canary == RtCanary::VtncEagerCertify).then_some(CtrlCanary::StaleVtncCert);
        let (core, effects) = NodeCore::recover(state, cfg.method, site, n, canary, 0, replay);
        let mut exec = Self {
            core,
            cfg,
            journal,
            events,
            redelivered_before,
            state_loc: SITE_STATE_LOC + i as u64,
        };
        probe::mem_write(exec.state_loc);
        exec.perform(effects);
        if epoch > 1 {
            for to in exec.peers() {
                exec.send(to, Frame::Hello { site, epoch });
            }
        }
        exec
    }

    /// Every other site, in id order.
    fn peers(&self) -> impl Iterator<Item = SiteId> {
        let me = self.core.site;
        (0..self.cfg.sites.len() as u64)
            .map(SiteId)
            .filter(move |&to| to != me)
    }

    /// Executes effects in order, as the daemon does.
    fn perform(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Journal(mset) => {
                    if let Some(j) = &mut self.journal {
                        j.record(&mset);
                    }
                }
                Effect::Send { to, frame } => self.send(to, frame),
                Effect::Event(ev) => self.events.record(now_micros(), ev),
                // Never emitted here: the cores see no Tick or
                // Checkpoint event (see the module docs).
                Effect::RecordView(_) | Effect::Checkpoint(_) => {}
            }
        }
    }

    /// An MSet rides the chaos relay of its link when there is one;
    /// every other frame goes straight into the target's channel.
    fn send(&self, to: SiteId, frame: Frame) {
        let to = to.raw() as usize;
        let link = self.core.site.raw() as usize * self.cfg.sites.len() + to;
        match (frame, self.cfg.relays.get(link)) {
            (Frame::MSet(mset), Some(Some(relay))) => {
                let _ = relay.send(RelayMsg::Send(encode_mset(&mset)));
            }
            (frame, _) => {
                let _ = self.cfg.sites[to].send(SiteMsg::Peer(frame, None));
            }
        }
    }

    fn step(&mut self, event: NodeEvent) {
        probe::mem_write(self.state_loc);
        if let Some(event) = self.bypass_sequencer(event) {
            let effects = self.core.step(event);
            self.perform(effects);
        }
    }

    /// The [`RtCanary::OrdupSequencerDisabled`] hook: ORDUP applies
    /// MSets in raw arrival order, bypassing the hold-back, so the
    /// global-order oracle must flag the gaps. The origin still fans its
    /// submission out. Returns the event when the hook does not apply.
    fn bypass_sequencer(&mut self, event: NodeEvent) -> Option<NodeEvent> {
        if self.cfg.canary != RtCanary::OrdupSequencerDisabled {
            return Some(event);
        }
        let mset = match event {
            NodeEvent::ClientSubmit(mset) => {
                for to in self.peers() {
                    self.send(to, Frame::MSet(mset.clone()));
                }
                mset
            }
            NodeEvent::PeerFrame(Frame::MSet(mset)) => mset,
            other => return Some(other),
        };
        if let SiteState::Ordup(s) = &mut self.core.state {
            s.apply_unchecked(mset);
        }
        None
    }

    /// Handles one message; `Some` carries the message that ends the
    /// incarnation ([`SiteMsg::Crash`] or [`SiteMsg::Shutdown`]).
    fn handle(&mut self, msg: SiteMsg) -> Option<SiteMsg> {
        match msg {
            SiteMsg::Peer(frame, ack) => {
                self.step(NodeEvent::PeerFrame(frame));
                if let Some((relay, entry)) = ack {
                    let _ = relay.send(RelayMsg::Ack { entry });
                }
            }
            SiteMsg::Submit { mset, done } => {
                self.step(NodeEvent::ClientSubmit(mset));
                let _ = done.send(());
            }
            SiteMsg::Decide { et, commit, done } => {
                self.step(NodeEvent::ClientDecision { et, commit });
                let _ = done.send(());
            }
            SiteMsg::Query {
                read_set,
                epsilon,
                reply,
            } => {
                probe::mem_write(self.state_loc);
                // Canary: ignore the declared budget — the
                // epsilon-accounting oracle must flag admitted queries
                // whose charge exceeds the spec the client declared.
                let spec = if self.cfg.canary == RtCanary::EpsilonIgnored {
                    EpsilonSpec::UNBOUNDED
                } else {
                    epsilon
                };
                let mut counter = InconsistencyCounter::new(spec);
                let _ = reply.send(self.core.state.query(&read_set, &mut counter));
            }
            SiteMsg::Snapshot { reply } => {
                probe::mem_read(self.state_loc);
                let _ = reply.send(self.core.state.snapshot());
            }
            SiteMsg::Settled { reply } => {
                probe::mem_read(self.state_loc);
                let _ = reply.send(self.core.state.settled());
            }
            SiteMsg::HasApplied { et, reply } => {
                probe::mem_read(self.state_loc);
                let _ = reply.send(self.core.state.has_applied(et));
            }
            SiteMsg::Audit { reply } => {
                probe::mem_read(self.state_loc);
                let mut a = self.core.state.audit();
                a.redelivered += self.redelivered_before;
                a.journaled = self.journal.as_ref().map_or(0, ApplyJournal::entries);
                let _ = reply.send(a);
            }
            SiteMsg::Spans { reply } => {
                let _ = reply.send((self.events.dropped(), self.events.query(SPAN_QUERY_ALL)));
            }
            SiteMsg::Restart => {}
            end @ (SiteMsg::Crash | SiteMsg::Shutdown) => return Some(end),
        }
        None
    }
}

/// Runs site `i` for the cluster's lifetime: one incarnation after
/// another. While crashed, the thread holds no protocol state: peer
/// traffic dies with the incarnation and client requests wait for the
/// restart.
fn spawn_site(i: usize, rx: Receiver<SiteMsg>, cfg: SiteSpawn) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("esr-site-{i}"))
        .spawn(move || {
            let mut waiting: Vec<SiteMsg> = Vec::new();
            let mut redelivered = 0;
            for epoch in 1.. {
                let mut exec = SiteExec::boot(i, epoch, redelivered, &cfg);
                let mut end = None;
                for msg in waiting.drain(..).chain(rx.iter()) {
                    end = exec.handle(msg);
                    if end.is_some() {
                        break;
                    }
                }
                redelivered += exec.core.state.redelivered();
                drop(exec);
                if !matches!(end, Some(SiteMsg::Crash)) {
                    return;
                }
                loop {
                    match rx.recv() {
                        Ok(SiteMsg::Restart) => break,
                        Ok(SiteMsg::Shutdown) | Err(_) => return,
                        Ok(msg) if msg.is_client_request() => waiting.push(msg),
                        Ok(_) => {}
                    }
                }
            }
        })
        .unwrap_or_else(|e| panic!("spawn site thread {i}: {e}"))
}

impl Cluster {
    /// Spawns `n` site threads running `method`.
    pub fn new(method: RtMethod, n: usize) -> Self {
        Self::build(method, n, false, RtCanary::None, None)
    }

    /// Spawns a cluster with per-site oracle audits enabled and an
    /// optional canary fault injected — the constructor `esr-check`
    /// drives. Pass [`RtCanary::None`] for a faithful (audited but
    /// unmutated) cluster.
    pub fn checked(method: RtMethod, n: usize, canary: RtCanary) -> Self {
        Self::build(method, n, true, canary, None)
    }

    /// Spawns a chaos cluster: every update MSet travels through a
    /// durable per-link relay that injects the seeded faults of `plan`,
    /// and sites journal accepted MSets under `dir` so
    /// [`Cluster::crash`] / [`Cluster::restart`] can lose and rebuild a
    /// site mid-run. `dir` is created if missing and must be private to
    /// this cluster (queue and journal files are keyed by site index).
    pub fn chaos(method: RtMethod, n: usize, plan: FaultPlan, dir: impl AsRef<Path>) -> Self {
        Self::build(method, n, false, RtCanary::None, Some((plan, dir.as_ref().to_path_buf())))
    }

    fn build(
        method: RtMethod,
        n: usize,
        audit: bool,
        canary: RtCanary,
        chaos: Option<(FaultPlan, PathBuf)>,
    ) -> Self {
        assert!(n > 0);
        let metrics = MetricsRegistry::new();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let sites: Arc<Vec<Sender<SiteMsg>>> = Arc::new(senders);

        // Relays: one durable queue + fate planner per directed link
        // between distinct sites (an origin applies its own submission
        // in the submit step, so there are no self-links).
        let mut links: Vec<Option<Sender<RelayMsg>>> = Vec::new();
        let chaos = chaos.map(|(plan, dir)| {
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("create chaos dir {}: {e}", dir.display()));
            links.resize(n * n, None);
            let mut relays = Vec::with_capacity(n * (n - 1));
            for from in 0..n {
                for to in (0..n).filter(|&to| to != from) {
                    let (tx, rx) = unbounded::<RelayMsg>();
                    links[from * n + to] = Some(tx.clone());
                    let ack_tx = tx.clone();
                    let site = sites[to].clone();
                    let deliver = move |mset: MSet, entry: EntryId| {
                        site.send(SiteMsg::Peer(
                            Frame::MSet(mset),
                            Some((ack_tx.clone(), entry)),
                        ))
                        .is_ok()
                    };
                    relays.push(chaos::spawn_relay(
                        SiteId(from as u64),
                        SiteId(to as u64),
                        n,
                        plan.clone(),
                        dir.join(format!("link-{from}-{to}.queue")),
                        (tx, rx),
                        deliver,
                    ));
                }
            }
            (relays, dir)
        });
        let links = Arc::new(links);

        let site_threads = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let cfg = SiteSpawn {
                    method,
                    audit,
                    canary,
                    sites: Arc::clone(&sites),
                    relays: Arc::clone(&links),
                    journal: chaos
                        .as_ref()
                        .map(|(_, dir)| dir.join(format!("site-{i}.journal"))),
                    metrics: metrics.clone(),
                };
                Some(spawn_site(i, rx, cfg))
            })
            .collect();

        Self {
            method,
            sites,
            site_threads,
            down: vec![false; n],
            sequencer: AtomicCell::new(0),
            version_clock: AtomicCell::new(0),
            next_et: AtomicCell::new(1),
            n,
            chaos: chaos.map(|(relays, _)| ChaosRuntime {
                relays,
                crashes: 0,
                restarts: 0,
            }),
            divergence_gauge: GaugeFamily::new(&metrics, "esr_divergence"),
            queue_depth_gauge: GaugeFamily::new(&metrics, "esr_site_queue_depth"),
            metrics,
        }
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.n
    }

    /// The method in force.
    pub fn method(&self) -> RtMethod {
        self.method
    }

    fn fresh_et(&self) -> EtId {
        EtId(self.next_et.fetch_add(1))
    }

    /// Submits an update ET originating at `origin` and returns its id as
    /// soon as the origin's core has applied the MSet and queued it for
    /// every peer (through the per-link durable relays on a chaos
    /// cluster); propagation stays asynchronous. A submission to a
    /// crashed site returns at once and waits for the restart.
    pub fn submit_update(&self, origin: SiteId, ops: Vec<ObjectOp>) -> EtId {
        let et = self.fresh_et();
        let mset = match self.method {
            RtMethod::Ordup => {
                let seq = SeqNo(self.sequencer.fetch_add(1));
                MSet::new(et, origin, ops).sequenced(seq)
            }
            _ => MSet::new(et, origin, ops),
        };
        self.client_request(origin, |done| SiteMsg::Submit { mset, done });
        et
    }

    /// Stamps and submits a RITU blind write.
    pub fn submit_blind_write(&self, origin: SiteId, object: ObjectId, value: Value) -> EtId {
        let t = self.version_clock.fetch_add(1) + 1;
        let ts = VersionTs::new(t, ClientId(origin.raw()));
        self.submit_update(
            origin,
            vec![ObjectOp::new(object, Operation::TimestampedWrite(ts, value))],
        )
    }

    /// COMPE: decides `et` at the coordinator, which logs the decision
    /// and queues its broadcast to every peer before this returns. While
    /// the coordinator is down the decision waits for its restart.
    pub fn commit(&self, et: EtId) {
        self.decide(et, true);
    }

    /// COMPE: decides to abort (compensate) `et`, like
    /// [`Cluster::commit`].
    pub fn abort(&self, et: EtId) {
        self.decide(et, false);
    }

    fn decide(&self, et: EtId, commit: bool) {
        self.client_request(COORDINATOR, |done| SiteMsg::Decide { et, commit, done });
    }

    /// Hands a client request to `site` and, while the site is up, waits
    /// until its step ran, so the fan-out or broadcast it implies is
    /// already queued at every peer (an `esrd` reply gives the same
    /// guarantee). A request to a crashed site waits in its channel for
    /// the restart; the caller does not.
    fn client_request(&self, site: SiteId, make: impl FnOnce(Sender<()>) -> SiteMsg) {
        let i = site.raw() as usize;
        let (done, acked) = bounded(1);
        if self.sites[i].send(make(done)).is_ok() && !self.down[i] {
            let _ = acked.recv();
        }
    }

    /// Crashes a site: its incarnation ends mid-stream and every peer
    /// message sent to it from then on is lost, as in a process kill.
    /// Durable state (the site's journal) survives, and so do client
    /// requests, which wait for [`Cluster::restart`]. Only meaningful on
    /// chaos clusters; relays keep retrying the dead site until then.
    ///
    /// The crash point is fixed by the submission order, not by relay
    /// timing: every update already handed to a link into the site
    /// reaches it before the crash.
    pub fn crash(&mut self, site: SiteId) {
        let Some(c) = &mut self.chaos else {
            panic!("crash() requires a chaos cluster");
        };
        // A relay answers a status poll only after delivering every
        // entry queued before it.
        for r in c.relays.iter().filter(|r| r.to == site) {
            let _ = r.status();
        }
        c.crashes += 1;
        let i = site.raw() as usize;
        let _ = self.sites[i].send(SiteMsg::Crash);
        self.down[i] = true;
    }

    /// Restarts a crashed site: the next incarnation replays its durable
    /// journal, greets every peer (the coordinator answers with its view
    /// snapshot), and catches up on missed updates through the relays'
    /// ack-timeout re-sends.
    pub fn restart(&mut self, site: SiteId) {
        assert!(self.chaos.is_some(), "restart() requires a chaos cluster");
        let i = site.raw() as usize;
        assert!(self.down[i], "restart() of a site that is still running");
        let _ = self.sites[i].send(SiteMsg::Restart);
        self.down[i] = false;
        if let Some(c) = &mut self.chaos {
            c.restarts += 1;
        }
    }

    /// One request/reply rendezvous with a site thread. Degrades instead
    /// of blocking or panicking when the site is down (crashed or shut
    /// down): `fallback` supplies the answer a dead site gives.
    fn rendezvous<T>(
        &self,
        site: SiteId,
        make: impl FnOnce(Sender<T>) -> SiteMsg,
        fallback: impl FnOnce() -> T,
    ) -> T {
        let i = site.raw() as usize;
        if self.down[i] {
            return fallback();
        }
        let (tx, rx) = bounded(1);
        if self.sites[i].send(make(tx)).is_err() {
            return fallback();
        }
        rx.recv().unwrap_or_else(|_| fallback())
    }

    /// Runs a query ET at one site with the given budget. Blocks only for
    /// the rendezvous with the site thread, not for consistency. A query
    /// against a down or shut-down site is rejected (never panics).
    pub fn query(&self, site: SiteId, read_set: &[ObjectId], epsilon: EpsilonSpec) -> QueryOutcome {
        let read_set = read_set.to_vec();
        self.rendezvous(
            site,
            move |reply| SiteMsg::Query {
                read_set,
                epsilon,
                reply,
            },
            QueryOutcome::rejected,
        )
    }

    /// Retries a query until its budget admits it (the synchronous
    /// fallback): useful for strict (epsilon = 0) reads, which succeed
    /// once the replica has caught up.
    pub fn query_blocking(
        &self,
        site: SiteId,
        read_set: &[ObjectId],
        epsilon: EpsilonSpec,
    ) -> QueryOutcome {
        loop {
            let out = self.query(site, read_set, epsilon);
            if out.admitted {
                return out;
            }
            std::thread::yield_now();
        }
    }

    /// A site's full snapshot (empty while it is down).
    pub fn snapshot_of(&self, site: SiteId) -> BTreeMap<ObjectId, Value> {
        self.rendezvous(site, |reply| SiteMsg::Snapshot { reply }, BTreeMap::new)
    }

    /// The oracle audit of one site. Protocol logs are meaningful only
    /// on clusters built with [`Cluster::checked`]; the chaos counters
    /// (`redelivered`, `journaled`, and the `link_*` fields aggregated
    /// over this site's inbound relays) are live on any chaos cluster.
    pub fn audit_of(&self, site: SiteId) -> SiteAudit {
        let mut a = self.rendezvous(site, |reply| SiteMsg::Audit { reply }, SiteAudit::default);
        if let Some(c) = &self.chaos {
            for r in c.relays.iter().filter(|r| r.to == site) {
                if let Some(s) = r.status() {
                    a.link_retries += s.retries;
                    a.link_resends += s.resends;
                    a.link_dropped += s.stats.dropped_attempts;
                    a.link_duplicated += s.stats.duplicated;
                }
            }
        }
        a
    }

    /// Has `site` applied `et` yet? (`false` while it is down.)
    pub fn has_applied(&self, site: SiteId, et: EtId) -> bool {
        self.rendezvous(site, |reply| SiteMsg::HasApplied { et, reply }, || false)
    }

    /// The event ring of `site`'s current incarnation — every typed
    /// event its core emitted since boot, oldest first — as
    /// `(dropped, events)`, the input of the trace certifier
    /// (`esr-check::certify`). Empty while the site is down.
    pub fn spans_of(&self, site: SiteId) -> (u64, Vec<RawSpan>) {
        self.rendezvous(site, |reply| SiteMsg::Spans { reply }, || (0, Vec::new()))
    }

    /// Aggregated fault counters across every relay, plus crash/restart
    /// counts. Zeroes on non-chaos clusters.
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut agg = ChaosStats::default();
        if let Some(c) = &self.chaos {
            for r in &c.relays {
                if let Some(s) = r.status() {
                    agg.absorb(&s);
                }
            }
            agg.crashes = c.crashes;
            agg.restarts = c.restarts;
        }
        agg
    }

    /// The deterministic fault trace: every planned link-level fate,
    /// sorted by (from, to, entry). Two runs with the same
    /// [`FaultPlan`] and submission order produce identical traces
    /// regardless of thread scheduling. Empty on non-chaos clusters.
    pub fn fault_trace(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        if let Some(c) = &self.chaos {
            for r in &c.relays {
                if let Some(s) = r.status() {
                    events.extend(s.trace);
                }
            }
        }
        events.sort_unstable();
        events
    }

    /// Blocks until every site reports settled twice in a row (no
    /// backlog, no in-flight updates) — the quiescent state at which ESR
    /// guarantees all replicas are identical. On a chaos cluster this
    /// additionally requires every relay queue to be drained (all
    /// entries acked), so call [`Cluster::restart`] for any crashed
    /// site first: a dead site can never ack and quiesce would spin.
    /// A down site itself answers "settled" (on a shut-down cluster
    /// that lets shutdown paths terminate).
    ///
    /// Panics if the cluster fails to settle within a generous default
    /// deadline (two minutes) — use [`Cluster::quiesce_within`] to
    /// handle the timeout instead.
    pub fn quiesce(&self) {
        self.quiesce_within(std::time::Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Cluster::quiesce`] with an explicit deadline: returns
    /// `Err(QuiesceTimeout)` instead of spinning forever when the
    /// cluster cannot settle (a crashed-and-never-restarted site, a
    /// partition window outlasting the deadline, a protocol bug).
    pub fn quiesce_within(&self, deadline: std::time::Duration) -> Result<(), QuiesceTimeout> {
        let start = std::time::Instant::now();
        let mut stable_rounds = 0;
        while stable_rounds < 2 {
            if start.elapsed() > deadline {
                return Err(QuiesceTimeout {
                    waited: start.elapsed(),
                    site_queues: self.sample_queue_depths(),
                    coordinator: (!self.down[COORDINATOR.raw() as usize]).then_some(COORDINATOR),
                });
            }
            self.sample_queue_depths();
            let relays_drained = match &self.chaos {
                Some(c) => c
                    .relays
                    .iter()
                    .all(|r| r.status().is_none_or(|s| s.pending == 0)),
                None => true,
            };
            let all_settled = relays_drained
                && (0..self.n).all(|i| {
                    self.rendezvous(
                        SiteId(i as u64),
                        |reply| SiteMsg::Settled { reply },
                        || true,
                    )
                });
            if all_settled {
                stable_rounds += 1;
            } else {
                stable_rounds = 0;
                // A short sleep, not a hot yield: on a chaos cluster the
                // status polls would otherwise flood the relay channels.
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
        }
        self.refresh_metrics();
        Ok(())
    }

    /// True when all replicas expose identical values (call after
    /// [`Cluster::quiesce`]).
    pub fn converged(&self) -> bool {
        let first = self.snapshot_of(SiteId(0));
        (1..self.n).all(|i| self.snapshot_of(SiteId(i as u64)) == first)
    }

    /// The cluster's metrics registry. Per-site protocol series update
    /// live; the cluster-derived gauges (divergence, queue depth) are
    /// refreshed by the quiesce polls and [`Cluster::refresh_metrics`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Recomputes the cluster-derived gauges:
    ///
    /// * `esr_divergence{site}` — objects whose value at the site
    ///   differs from the cluster consensus (the snapshot the largest
    ///   number of sites agree on, zero values stripped). 0 everywhere
    ///   once the cluster has quiesced and converged — including after
    ///   crash/restart recovery.
    /// * `esr_site_queue_depth{site}` — current inbox depth.
    pub fn refresh_metrics(&self) {
        fn normalize(m: BTreeMap<ObjectId, Value>) -> BTreeMap<ObjectId, Value> {
            m.into_iter().filter(|(_, v)| *v != Value::ZERO).collect()
        }
        let snaps: Vec<BTreeMap<ObjectId, Value>> = (0..self.n)
            .map(|i| normalize(self.snapshot_of(SiteId(i as u64))))
            .collect();
        let consensus = snaps
            .iter()
            .max_by_key(|cand| snaps.iter().filter(|s| s == cand).count())
            .cloned()
            .unwrap_or_default();
        for (i, snap) in snaps.iter().enumerate() {
            let differing = snap
                .iter()
                .filter(|(k, v)| consensus.get(k) != Some(v))
                .count()
                + consensus.keys().filter(|k| !snap.contains_key(k)).count();
            self.divergence_gauge
                .set(i as u64, i64::try_from(differing).unwrap_or(i64::MAX));
        }
        self.sample_queue_depths();
    }

    /// Samples every running site's inbox depth into
    /// `esr_site_queue_depth` and returns the depths (`None` for a
    /// crashed site).
    fn sample_queue_depths(&self) -> Vec<Option<u64>> {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if self.down[i] {
                    return None;
                }
                let depth = s.len() as u64;
                self.queue_depth_gauge
                    .set(i as u64, i64::try_from(depth).unwrap_or(i64::MAX));
                Some(depth)
            })
            .collect()
    }

    /// Stops all threads. Called automatically on drop. Relays go down
    /// first so no new deliveries race the site shutdown.
    pub fn shutdown(&mut self) {
        if let Some(c) = &mut self.chaos {
            for r in &c.relays {
                let _ = r.sender.send(RelayMsg::Shutdown);
            }
            for r in &mut c.relays {
                if let Some(h) = r.thread.take() {
                    let _ = h.join();
                }
            }
        }
        for s in self.sites.iter() {
            let _ = s.send(SiteMsg::Shutdown);
        }
        for h in &mut self.site_threads {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const X: ObjectId = ObjectId(0);

    fn incr(n: i64) -> Vec<ObjectOp> {
        vec![ObjectOp::new(X, Operation::Incr(n))]
    }

    #[test]
    fn commu_updates_converge_across_threads() {
        let c = Cluster::new(RtMethod::Commu, 4);
        for i in 0..50 {
            c.submit_update(SiteId(i % 4), incr(1));
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(50));
    }

    #[test]
    fn ordup_applies_in_global_order() {
        let c = Cluster::new(RtMethod::Ordup, 3);
        c.submit_update(SiteId(0), incr(10));
        c.submit_update(SiteId(1), vec![ObjectOp::new(X, Operation::MulBy(3))]);
        c.submit_update(SiteId(2), vec![ObjectOp::new(X, Operation::Decr(5))]);
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(25), "(0+10)*3-5");
    }

    #[test]
    fn ritu_blind_writes_take_newest() {
        let c = Cluster::new(RtMethod::Ritu, 3);
        for i in 0..10 {
            c.submit_blind_write(SiteId(i % 3), X, Value::Int(i as i64));
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(1))[&X], Value::Int(9));
    }

    #[test]
    fn compe_commit_and_abort() {
        let c = Cluster::new(RtMethod::Compe, 3);
        let a = c.submit_update(SiteId(0), incr(10));
        let b = c.submit_update(SiteId(1), incr(5));
        c.commit(a);
        c.abort(b);
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(2))[&X], Value::Int(10));
    }

    #[test]
    fn strict_query_blocks_until_caught_up() {
        let c = Cluster::new(RtMethod::Commu, 4);
        for _ in 0..20 {
            c.submit_update(SiteId(0), incr(1));
        }
        let out = c.query_blocking(SiteId(3), &[X], EpsilonSpec::STRICT);
        assert!(out.admitted);
        assert_eq!(out.charged, 0);
        assert_eq!(out.values, vec![Value::Int(20)]);
    }

    #[test]
    fn unbounded_query_returns_immediately() {
        let c = Cluster::new(RtMethod::Commu, 2);
        c.submit_update(SiteId(0), incr(7));
        let out = c.query(SiteId(1), &[X], EpsilonSpec::UNBOUNDED);
        assert!(out.admitted, "unbounded budget always admits");
    }

    #[test]
    fn concurrent_submitters_from_many_threads() {
        let c = Arc::new(Cluster::new(RtMethod::Commu, 4));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    c.submit_update(SiteId(t % 4), incr(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(200));
    }

    #[test]
    fn has_applied_visibility() {
        let c = Cluster::new(RtMethod::Commu, 2);
        let et = c.submit_update(SiteId(0), incr(1));
        c.quiesce();
        assert!(c.has_applied(SiteId(0), et));
        assert!(c.has_applied(SiteId(1), et));
        assert!(!c.has_applied(SiteId(0), EtId(999)));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut c = Cluster::new(RtMethod::Commu, 2);
        c.submit_update(SiteId(0), incr(1));
        c.quiesce();
        c.shutdown();
        c.shutdown();
    }

    #[test]
    fn non_chaos_cluster_reports_zero_chaos_stats() {
        let c = Cluster::new(RtMethod::Commu, 2);
        c.submit_update(SiteId(0), incr(1));
        c.quiesce();
        assert_eq!(c.chaos_stats(), ChaosStats::default());
        assert!(c.fault_trace().is_empty());
        let a = c.audit_of(SiteId(0));
        assert_eq!(a.journaled, 0);
        assert_eq!(a.redelivered, 0);
    }
}

#[cfg(test)]
mod ritu_mv_tests {
    use super::*;

    const X: ObjectId = ObjectId(0);

    #[test]
    fn ritu_mv_converges_and_certifies_across_threads() {
        let c = Cluster::new(RtMethod::RituMv, 3);
        for i in 1..=20i64 {
            c.submit_blind_write(SiteId(i as u64 % 3), X, Value::Int(i));
        }
        c.quiesce();
        assert!(c.converged());
        assert_eq!(c.snapshot_of(SiteId(0))[&X], Value::Int(20));
        // VTNC certification is asynchronous: poll the strict read until
        // the horizon covers the newest version (bounded wait).
        for attempt in 0..10_000 {
            let out = c.query(SiteId(1), &[X], EpsilonSpec::STRICT);
            assert!(out.admitted, "RITU-MV strict reads never reject");
            if out.values == vec![Value::Int(20)] && out.charged == 0 {
                return;
            }
            if attempt % 100 == 99 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::thread::yield_now();
        }
        panic!("VTNC never certified the newest version");
    }

    #[test]
    fn ritu_mv_strict_reads_are_stable_not_torn() {
        let c = Cluster::new(RtMethod::RituMv, 4);
        for i in 1..=50i64 {
            c.submit_blind_write(SiteId(i as u64 % 4), X, Value::Int(i));
        }
        // Mid-flight strict reads serve *some* certified version — a
        // value that really was written (or zero) — never garbage.
        for _ in 0..50 {
            let out = c.query(SiteId(2), &[X], EpsilonSpec::STRICT);
            assert!(out.admitted);
            let v = out.values[0].as_int().unwrap();
            assert!((0..=50).contains(&v), "impossible value {v}");
        }
        c.quiesce();
        assert!(c.converged());
    }
}
