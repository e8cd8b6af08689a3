//! Poll-driven reactor: one thread multiplexing every nonblocking
//! socket a daemon owns — its listener, each accepted RPC connection,
//! and each outbound durable link — over `poll(2)` ([`super::sys`]).
//!
//! This replaces the thread-per-accepted-connection and
//! thread-per-link model: fan-in no longer costs an OS thread (and its
//! stack) per socket, which is what caps a thread-per-connection daemon
//! at a few hundred clients.
//!
//! Each socket is a small state machine ([`Slot`]):
//!
//! - **Inbound connections** accumulate reads into a buffer and decode
//!   length-prefixed frames incrementally, dispatching every complete
//!   envelope of a readiness cycle to the [`RpcService`] in one batch
//!   (peer planes answer N entries with one batched ack frame —
//!   [`super::frame::seal_acks`]). Replies coalesce into a per-connection
//!   write buffer flushed on write readiness; a connection whose buffer
//!   exceeds [`WRITE_BUF_CAP`] stops being read until the peer drains
//!   it (backpressure instead of unbounded memory).
//! - **Outbound links** run the durable-queue retry contract as a
//!   dial/connect/pump state machine: nonblocking connect with a
//!   deadline, capped exponential redial backoff, full retransmission
//!   of unacknowledged entries on every new connection, and batched
//!   coalesced frame writes from the stable queue.
//!
//! A self-pipe carries wake-ups from other threads (new commands, new
//! queue entries), so the loop blocks in `poll` with no periodic tick
//! when idle.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use esr_obs::{LinkInstruments, ReactorInstruments};
use esr_storage::stable_queue::{EntryId, StableQueue};

use super::frame::{seal, write_frame, Envelope, KIND_CLIENT, KIND_PEER, MAX_FRAME, NO_ENTRY};
use super::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

use super::conn::{Backoff, Resolver};

/// A stable queue shared between a link's owner (who enqueues) and the
/// reactor (who drains it over TCP).
pub type SharedQueue = Arc<Mutex<Box<dyn StableQueue + Send>>>;

/// Write-buffer backpressure threshold: beyond this many buffered
/// bytes the reactor stops reading from (and replying to) a connection
/// until the peer drains what it already owes.
pub const WRITE_BUF_CAP: usize = 256 * 1024;

/// Per-`read(2)` scratch size.
const READ_CHUNK: usize = 64 * 1024;
/// Most bytes pulled off one socket per readiness cycle, for fairness.
const MAX_READ_PER_CYCLE: usize = 1024 * 1024;
/// Most envelopes dispatched per `handle_batch` call, bounding reply
/// amplification between write-buffer cap checks.
const ENV_BATCH: usize = 128;
/// Nonblocking connect deadline.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Stable-queue entries fetched per transmit scan.
const LINK_BATCH: usize = 32;
/// While a link has backlog the reactor wakes at least this often, to
/// retry transmission and keep the queue gauges current.
const BACKLOG_TICK: Duration = Duration::from_millis(100);

/// Which plane an accepted connection speaks, learned from its first
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnKind {
    /// Durable peer plane ([`KIND_PEER`]): entry-carrying envelopes
    /// that must be acknowledged.
    Peer,
    /// Client RPC plane ([`KIND_CLIENT`]): request/reply envelopes.
    Client,
}

/// An inbound-frame handler, dispatched on the reactor thread.
///
/// `envs` holds every complete envelope decoded in one readiness cycle
/// (bounded, in arrival order); replies and acknowledgements are
/// appended to `out` as already-framed bytes, which the reactor flushes
/// through the connection's coalescing write buffer. Returning `false`
/// closes the connection after a best-effort flush.
pub trait RpcService: Send + Sync + 'static {
    /// Handles one batch of inbound envelopes from a single connection.
    fn handle_batch(&self, kind: ConnKind, envs: Vec<Envelope>, out: &mut Vec<u8>) -> bool;
}

/// Everything the reactor needs to run one outbound durable link.
pub(crate) struct LinkSpec {
    /// The durable queue this link drains.
    pub queue: SharedQueue,
    /// Fresh peer address before every dial.
    pub resolve: Resolver,
    /// Greeting sent (outside the durable contract) on every connect.
    pub hello: Bytes,
    /// Redial backoff shape.
    pub backoff: Backoff,
    /// Per-link metrics bundle.
    pub obs: LinkInstruments,
}

enum Cmd {
    Serve(TcpListener, Arc<dyn RpcService>),
    AddLink(u64, LinkSpec),
    Nudge(u64),
    Remove(u64),
    Shutdown,
}

struct Ctrl {
    cmds: Mutex<Vec<Cmd>>,
    wake_tx: UnixStream,
    next_token: AtomicU64,
}

impl Ctrl {
    fn push(&self, cmd: Cmd) {
        match self.cmds.lock() {
            Ok(mut q) => q.push(cmd),
            Err(poisoned) => poisoned.into_inner().push(cmd),
        }
        // Nonblocking self-pipe: a full pipe already guarantees a
        // pending wake-up, so WouldBlock is success.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

fn take_cmds(ctrl: &Ctrl) -> Vec<Cmd> {
    match ctrl.cmds.lock() {
        Ok(mut q) => std::mem::take(&mut *q),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Locks a [`SharedQueue`], recovering from poisoning (the queue's own
/// state stays consistent — every mutation is atomic under the lock).
pub(crate) fn lock_queue(q: &SharedQueue) -> MutexGuard<'_, Box<dyn StableQueue + Send>> {
    match q.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cheap clonable handle for submitting work to a running [`Reactor`].
#[derive(Clone)]
pub struct ReactorHandle {
    ctrl: Arc<Ctrl>,
}

impl ReactorHandle {
    /// Registers `listener` (switched to nonblocking) and serves every
    /// connection it accepts through `service`.
    pub fn serve(&self, listener: TcpListener, service: Arc<dyn RpcService>) {
        self.ctrl.push(Cmd::Serve(listener, service));
    }

    pub(crate) fn add_link(&self, spec: LinkSpec) -> u64 {
        let token = self.ctrl.next_token.fetch_add(1, Ordering::Relaxed);
        self.ctrl.push(Cmd::AddLink(token, spec));
        token
    }

    pub(crate) fn nudge(&self, token: u64) {
        self.ctrl.push(Cmd::Nudge(token));
    }

    pub(crate) fn remove(&self, token: u64) {
        self.ctrl.push(Cmd::Remove(token));
    }
}

/// The reactor thread plus its control handle. Dropping shuts the
/// thread down, closing every socket it owns (durable queues outlive
/// it — they belong to their links).
pub struct Reactor {
    handle: ReactorHandle,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Spawns an unobserved reactor thread.
    pub fn new() -> io::Result<Self> {
        Self::with_instruments(ReactorInstruments::default())
    }

    /// Spawns the reactor thread with a metrics bundle.
    pub fn with_instruments(obs: ReactorInstruments) -> io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let ctrl = Arc::new(Ctrl {
            cmds: Mutex::new(Vec::new()),
            wake_tx,
            next_token: AtomicU64::new(0),
        });
        let handle = ReactorHandle {
            ctrl: Arc::clone(&ctrl),
        };
        let thread = std::thread::Builder::new()
            .name("esr-reactor".into())
            .spawn(move || run(&ctrl, &wake_rx, &obs))?;
        Ok(Self {
            handle,
            thread: Some(thread),
        })
    }

    /// A clonable handle to this reactor.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Registers `listener` and serves accepted connections through
    /// `service` (see [`ReactorHandle::serve`]).
    pub fn serve(&self, listener: TcpListener, service: Arc<dyn RpcService>) {
        self.handle.serve(listener, service);
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.handle.ctrl.push(Cmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bytes coalesced for one socket, flushed on write readiness.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Writes as much as the socket accepts; `Ok(true)` when drained.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match stream.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

fn be_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_be_bytes(a)
}

fn be_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_be_bytes(a)
}

/// Inbound bytes with incremental length-prefixed frame decoding.
#[derive(Default)]
struct RecvBuf {
    buf: Vec<u8>,
}

impl RecvBuf {
    /// Reads until `WouldBlock` (or `max_bytes`); `Ok(false)` on EOF.
    fn fill(&mut self, stream: &mut TcpStream, scratch: &mut [u8], max_bytes: usize) -> io::Result<bool> {
        let mut taken = 0;
        while taken < max_bytes {
            match stream.read(scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    taken += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Decodes up to `max` complete envelope frames off the front.
    /// `Err` means a protocol violation (oversized or truncated frame)
    /// and the connection must close.
    fn drain_envelopes(&mut self, out: &mut Vec<Envelope>, max: usize) -> io::Result<()> {
        let mut off = 0;
        while out.len() < max && self.buf.len() - off >= 4 {
            let len = be_u32(&self.buf[off..]) as usize;
            if len > MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "announced frame exceeds MAX_FRAME",
                ));
            }
            if self.buf.len() - off - 4 < len {
                break; // incomplete — wait for more bytes
            }
            let frame = &self.buf[off + 4..off + 4 + len];
            if frame.len() < 8 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame shorter than its envelope header",
                ));
            }
            out.push(Envelope {
                entry: be_u64(frame),
                payload: frame[8..].to_vec(),
            });
            off += 4 + len;
        }
        if off > 0 {
            self.buf.drain(..off);
        }
        Ok(())
    }
}

/// One accepted connection's state machine.
struct Inbound {
    stream: TcpStream,
    service: Arc<dyn RpcService>,
    kind: Option<ConnKind>,
    rbuf: RecvBuf,
    wbuf: WriteBuf,
}

enum LinkPhase {
    /// No connection; redial at `retry_at`.
    Down { retry_at: Instant },
    /// Nonblocking connect in flight.
    Connecting { stream: TcpStream, deadline: Instant },
    /// Established: pumping queue entries out, reaping acks in.
    Up {
        stream: TcpStream,
        rbuf: RecvBuf,
        wbuf: WriteBuf,
        /// Highest entry transmitted on *this* connection; resets on
        /// reconnect so unacknowledged entries retransmit.
        sent_high: Option<EntryId>,
    },
}

/// One outbound durable link's state machine.
struct LinkConn {
    token: u64,
    spec: LinkSpec,
    delay: Duration,
    /// Highest entry ever transmitted on *any* connection: anything at
    /// or below it written again is a retransmit, not a first send.
    sent_ever: Option<EntryId>,
    /// Start of the current non-empty stretch, for the queue-age gauge.
    backlog_since: Option<Instant>,
    phase: LinkPhase,
}

impl LinkConn {
    fn new(token: u64, spec: LinkSpec) -> Self {
        let delay = spec.backoff.initial;
        Self {
            token,
            spec,
            delay,
            sent_ever: None,
            backlog_since: None,
            phase: LinkPhase::Down {
                retry_at: Instant::now(),
            },
        }
    }

    /// Connection lost after being up: redial immediately (the backoff
    /// only grows on dial *failures*).
    fn drop_conn(&mut self) {
        self.phase = LinkPhase::Down {
            retry_at: Instant::now(),
        };
    }

    /// Dial failed (or the peer has no published address): back off.
    fn dial_failed(&mut self, now: Instant) {
        self.phase = LinkPhase::Down {
            retry_at: now + self.delay,
        };
        self.delay = (self.delay * 2).min(self.spec.backoff.max);
    }

    fn try_dial(&mut self, now: Instant) {
        match (self.spec.resolve)() {
            Some(addr) => match sys::connect_nonblocking(&addr) {
                Ok(stream) => {
                    self.phase = LinkPhase::Connecting {
                        stream,
                        deadline: now + CONNECT_TIMEOUT,
                    };
                }
                Err(_) => self.dial_failed(now),
            },
            None => self.dial_failed(now),
        }
    }

    /// Connect handshake finished: queue the kind byte + hello, reset
    /// the per-connection high-water mark so everything unacknowledged
    /// retransmits.
    fn go_up(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let mut wbuf = WriteBuf::default();
        wbuf.buf.push(KIND_PEER);
        let _ = write_frame(&mut wbuf.buf, &seal(NO_ENTRY, &self.spec.hello));
        self.delay = self.spec.backoff.initial;
        self.spec.obs.dialed();
        self.phase = LinkPhase::Up {
            stream,
            rbuf: RecvBuf::default(),
            wbuf,
            sent_high: None,
        };
    }
}

/// Checks `SO_ERROR` on a connect that reported writability and moves
/// the link up or back down.
fn finish_connect(l: &mut LinkConn, now: Instant) {
    let placeholder = LinkPhase::Down { retry_at: now };
    let LinkPhase::Connecting { stream, .. } = std::mem::replace(&mut l.phase, placeholder) else {
        return;
    };
    match sys::take_socket_error(&stream) {
        Ok(()) => l.go_up(stream),
        Err(_) => l.dial_failed(now),
    }
}

/// Refreshes the link's queue depth/age gauges.
fn refresh_queue_gauge(l: &mut LinkConn, depth: usize, now: Instant) {
    if !l.spec.obs.is_attached() {
        return;
    }
    if depth == 0 {
        l.backlog_since = None;
    } else if l.backlog_since.is_none() {
        l.backlog_since = Some(now);
    }
    let age = l
        .backlog_since
        .map_or(0, |t| now.duration_since(t).as_micros() as u64);
    l.spec.obs.queue(depth as u64, age);
}

/// Transmits pending queue entries into the link's write buffer
/// (coalesced, oldest first, past the connection's high-water mark) and
/// flushes what the socket accepts.
fn pump_link(l: &mut LinkConn, now: Instant) {
    let mut depth = lock_queue(&l.spec.queue).len();
    if let LinkPhase::Up {
        stream,
        wbuf,
        sent_high,
        ..
    } = &mut l.phase
    {
        let mut broken = false;
        while wbuf.pending() < WRITE_BUF_CAP {
            let batch = {
                let mut q = lock_queue(&l.spec.queue);
                let batch = q.pending_after(*sent_high, LINK_BATCH);
                for (id, _) in &batch {
                    q.record_attempt(*id);
                }
                depth = q.len();
                batch
            };
            if batch.is_empty() {
                break;
            }
            for (id, payload) in &batch {
                let _ = write_frame(&mut wbuf.buf, &seal(id.0, payload));
                if l.sent_ever.is_some_and(|h| id.0 <= h.0) {
                    l.spec.obs.retransmitted(1);
                } else {
                    l.spec.obs.sent(1);
                    l.sent_ever = Some(*id);
                }
                *sent_high = Some(*id);
            }
        }
        if wbuf.flush(stream).is_err() {
            broken = true;
        }
        if broken {
            l.drop_conn();
        }
    }
    refresh_queue_gauge(l, depth, now);
}

/// Reads acknowledgement envelopes off an up link and retires their
/// queue entries. Returns `false` when the connection is gone.
fn reap_link(l: &mut LinkConn, scratch: &mut [u8]) -> bool {
    let LinkPhase::Up { stream, rbuf, .. } = &mut l.phase else {
        return true;
    };
    let alive = rbuf
        .fill(stream, scratch, MAX_READ_PER_CYCLE)
        .unwrap_or_default();
    // Even a dying connection may have delivered complete ack frames.
    let mut envs = Vec::new();
    if rbuf.drain_envelopes(&mut envs, usize::MAX).is_err() {
        return false;
    }
    // Every ack this cycle read retires in one queue write.
    let ids: Vec<EntryId> = envs
        .iter()
        .filter_map(|env| env.ack_ids())
        .flatten()
        .map(EntryId)
        .collect();
    let acked = lock_queue(&l.spec.queue).ack_batch(&ids) as u64;
    if acked > 0 {
        l.spec.obs.acked(acked);
    }
    alive
}

/// Runs link timers (dial retries, connect deadlines) and reports when
/// this link next needs the loop to wake.
fn link_tick(l: &mut LinkConn, now: Instant) -> Option<Instant> {
    if let LinkPhase::Down { retry_at } = l.phase {
        if retry_at <= now {
            l.try_dial(now);
        }
    }
    if let LinkPhase::Connecting { deadline, .. } = l.phase {
        if deadline <= now {
            l.dial_failed(now);
        }
    }
    match &l.phase {
        LinkPhase::Down { retry_at } => Some(*retry_at),
        LinkPhase::Connecting { deadline, .. } => Some(*deadline),
        LinkPhase::Up { .. } => {
            let depth = lock_queue(&l.spec.queue).len();
            refresh_queue_gauge(l, depth, now);
            (depth > 0).then(|| now + BACKLOG_TICK)
        }
    }
}

/// Pumps one inbound connection: optional socket fill, then decode and
/// dispatch envelope batches until the write buffer hits its cap.
/// Returns `false` when the connection should close.
fn service_inbound(c: &mut Inbound, scratch: &mut [u8]) -> bool {
    let mut alive = true;
    // Skip the fill when a previous cycle already left a large backlog
    // of undecoded bytes (a backpressured connection drains first).
    if c.rbuf.buf.len() < MAX_READ_PER_CYCLE {
        alive = c
            .rbuf
            .fill(&mut c.stream, scratch, MAX_READ_PER_CYCLE)
            .unwrap_or_default();
    }
    if c.kind.is_none() && !c.rbuf.buf.is_empty() {
        c.kind = match c.rbuf.buf.remove(0) {
            KIND_PEER => Some(ConnKind::Peer),
            KIND_CLIENT => Some(ConnKind::Client),
            _ => return false,
        };
    }
    let Some(kind) = c.kind else { return alive };
    while c.wbuf.pending() < WRITE_BUF_CAP {
        let mut envs = Vec::new();
        if c.rbuf.drain_envelopes(&mut envs, ENV_BATCH).is_err() {
            return false;
        }
        if envs.is_empty() {
            break;
        }
        if !c.service.handle_batch(kind, envs, &mut c.wbuf.buf) {
            let _ = c.wbuf.flush(&mut c.stream);
            return false;
        }
        if c.wbuf.flush(&mut c.stream).is_err() {
            return false;
        }
    }
    alive
}

struct Slots {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
}

enum Slot {
    Listener {
        listener: TcpListener,
        service: Arc<dyn RpcService>,
    },
    Inbound(Inbound),
    Link(Box<LinkConn>),
}

impl Slots {
    fn insert(&mut self, slot: Slot) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, i: usize) {
        if self.slots[i].take().is_some() {
            self.free.push(i);
        }
    }

    fn find_link(&mut self, token: u64) -> Option<usize> {
        self.slots.iter().position(|s| {
            matches!(s, Some(Slot::Link(l)) if l.token == token)
        })
    }
}

fn run(ctrl: &Ctrl, wake_rx: &UnixStream, obs: &ReactorInstruments) {
    let mut st = Slots {
        slots: Vec::new(),
        free: Vec::new(),
    };
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();

    loop {
        // 1. Drain control commands.
        for cmd in take_cmds(ctrl) {
            match cmd {
                Cmd::Serve(listener, service) => {
                    let _ = listener.set_nonblocking(true);
                    st.insert(Slot::Listener { listener, service });
                }
                Cmd::AddLink(token, spec) => {
                    st.insert(Slot::Link(Box::new(LinkConn::new(token, spec))));
                }
                Cmd::Nudge(token) => {
                    if let Some(i) = st.find_link(token) {
                        if let Some(Slot::Link(l)) = st.slots[i].as_mut() {
                            pump_link(l, Instant::now());
                        }
                    }
                }
                Cmd::Remove(token) => {
                    if let Some(i) = st.find_link(token) {
                        st.remove(i);
                    }
                }
                Cmd::Shutdown => return,
            }
        }

        // 2. Link timers: due redials, expired connects, backlog ticks.
        let now = Instant::now();
        let mut wake_at: Option<Instant> = None;
        for slot in st.slots.iter_mut().flatten() {
            if let Slot::Link(l) = slot {
                if let Some(t) = link_tick(l, now) {
                    wake_at = Some(wake_at.map_or(t, |w| w.min(t)));
                }
            }
        }

        // 3. Build the descriptor set. Index 0 is the wake pipe.
        pollfds.clear();
        owners.clear();
        pollfds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        owners.push(usize::MAX);
        for (i, slot) in st.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let (fd, events) = match slot {
                Slot::Listener { listener, .. } => (listener.as_raw_fd(), POLLIN),
                Slot::Inbound(c) => {
                    let mut ev = 0;
                    if c.wbuf.pending() < WRITE_BUF_CAP {
                        ev |= POLLIN;
                    }
                    if c.wbuf.pending() > 0 {
                        ev |= POLLOUT;
                    }
                    (c.stream.as_raw_fd(), ev)
                }
                Slot::Link(l) => match &l.phase {
                    LinkPhase::Down { .. } => continue,
                    LinkPhase::Connecting { stream, .. } => (stream.as_raw_fd(), POLLOUT),
                    LinkPhase::Up { stream, wbuf, .. } => {
                        let mut ev = POLLIN;
                        if wbuf.pending() > 0 {
                            ev |= POLLOUT;
                        }
                        (stream.as_raw_fd(), ev)
                    }
                },
            };
            pollfds.push(PollFd::new(fd, events));
            owners.push(i);
        }

        // 4. Block for readiness (or the next link timer).
        let timeout_ms = match wake_at {
            Some(t) => {
                // +1 rounds up so a sub-millisecond remainder can't spin.
                let ms = t.saturating_duration_since(Instant::now()).as_millis() + 1;
                ms.min(i32::MAX as u128) as i32
            }
            None => -1,
        };
        let polled_at = Instant::now();
        let ready = match sys::poll(&mut pollfds, timeout_ms) {
            Ok(n) => n,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        obs.poll_tick(polled_at.elapsed().as_micros() as u64);
        if ready > 0 {
            obs.wakeup();
        }

        if pollfds[0].revents & POLLIN != 0 {
            // Drain the wake pipe; commands are picked up next cycle.
            let mut pipe = wake_rx;
            while let Ok(n) = pipe.read(&mut scratch[..64]) {
                if n == 0 {
                    break;
                }
            }
        }

        // 5. Dispatch readiness. Accepted sockets are registered after
        // the loop so a freed index can't be reused while stale
        // revents still reference it.
        let mut accepted: Vec<(TcpStream, Arc<dyn RpcService>)> = Vec::new();
        for (k, pfd) in pollfds.iter().enumerate().skip(1) {
            if pfd.revents == 0 {
                continue;
            }
            let i = owners[k];
            let Some(slot) = st.slots[i].as_mut() else {
                continue;
            };
            match slot {
                Slot::Listener { listener, service } => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(true);
                            let _ = stream.set_nodelay(true);
                            accepted.push((stream, Arc::clone(service)));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                },
                Slot::Inbound(c) => {
                    let mut alive = true;
                    if pfd.revents & POLLOUT != 0 && c.wbuf.flush(&mut c.stream).is_err() {
                        alive = false;
                    }
                    // Any event (including a drained write buffer, which
                    // may unblock a backpressured connection's undecoded
                    // backlog) is a chance to read and dispatch — unless
                    // the connection still owes the peer too much.
                    if alive {
                        if c.wbuf.pending() < WRITE_BUF_CAP {
                            alive = service_inbound(c, &mut scratch);
                        } else if pfd.revents & (POLLERR | POLLHUP) != 0 {
                            alive = false;
                        }
                    }
                    if !alive {
                        st.remove(i);
                        obs.connection_closed();
                    }
                }
                Slot::Link(l) => {
                    let now = Instant::now();
                    match &l.phase {
                        LinkPhase::Connecting { .. } => {
                            finish_connect(l, now);
                            if matches!(l.phase, LinkPhase::Up { .. }) {
                                pump_link(l, now);
                            }
                        }
                        LinkPhase::Up { .. } => {
                            let mut alive = true;
                            if pfd.revents & POLLOUT != 0 {
                                if let LinkPhase::Up { stream, wbuf, .. } = &mut l.phase {
                                    if wbuf.flush(stream).is_err() {
                                        alive = false;
                                    }
                                }
                            }
                            if alive && pfd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                                alive = reap_link(l, &mut scratch);
                            }
                            if alive {
                                pump_link(l, now);
                            } else {
                                l.drop_conn();
                            }
                        }
                        LinkPhase::Down { .. } => {}
                    }
                }
            }
        }
        for (stream, service) in accepted {
            st.insert(Slot::Inbound(Inbound {
                stream,
                service,
                kind: None,
                rbuf: RecvBuf::default(),
                wbuf: WriteBuf::default(),
            }));
            obs.connection_opened();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn write_buf_tracks_pending_and_resets_when_drained() {
        let mut wb = WriteBuf::default();
        assert_eq!(wb.pending(), 0);
        wb.buf.extend_from_slice(b"hello");
        assert_eq!(wb.pending(), 5);
        wb.pos = 3;
        assert_eq!(wb.pending(), 2);
    }

    #[test]
    fn recv_buf_decodes_incrementally_across_partial_arrivals() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &seal(1, b"alpha")).unwrap();
        write_frame(&mut framed, &seal(2, b"beta")).unwrap();

        let mut rb = RecvBuf::default();
        let mut out = Vec::new();

        // First frame plus a split second frame: only one decodes.
        rb.buf.extend_from_slice(&framed[..framed.len() - 3]);
        rb.drain_envelopes(&mut out, usize::MAX).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].entry, 1);
        assert_eq!(out[0].payload, b"alpha");

        // Remainder arrives: the second completes.
        rb.buf.extend_from_slice(&framed[framed.len() - 3..]);
        rb.drain_envelopes(&mut out, usize::MAX).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].entry, 2);
        assert_eq!(out[1].payload, b"beta");
        assert!(rb.buf.is_empty(), "fully consumed");
    }

    #[test]
    fn recv_buf_rejects_oversized_and_short_frames() {
        let mut rb = RecvBuf::default();
        rb.buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(rb.drain_envelopes(&mut Vec::new(), usize::MAX).is_err());

        let mut rb = RecvBuf::default();
        // A 3-byte frame cannot hold an 8-byte envelope header.
        rb.buf.extend_from_slice(&3u32.to_be_bytes());
        rb.buf.extend_from_slice(b"abc");
        assert!(rb.drain_envelopes(&mut Vec::new(), usize::MAX).is_err());
    }

    #[test]
    fn recv_buf_honours_the_batch_limit() {
        let mut rb = RecvBuf::default();
        for i in 0..10u64 {
            let mut c = Cursor::new(Vec::new());
            write_frame(&mut c, &seal(i, b"x")).unwrap();
            rb.buf.extend_from_slice(c.get_ref());
        }
        let mut out = Vec::new();
        rb.drain_envelopes(&mut out, 4).unwrap();
        assert_eq!(out.len(), 4);
        out.clear();
        rb.drain_envelopes(&mut out, usize::MAX).unwrap();
        assert_eq!(out.len(), 6, "remaining frames decode next call");
    }
}
