//! The in-process layer ledger: a workload's generated ops replayed
//! through the public `wire`, `ctrl`, `state`, `journal` and `ckpt`
//! functions of a three-node COMMU cluster that lives in this process,
//! each call timed on its own.
//!
//! The executor does what the daemons do with the same inputs, minus
//! sockets, the reactor and threads: the origin decodes the client's
//! frame and steps its `NodeCore`; every `Journal` effect is appended to
//! a real `ApplyJournal`; every `Send` is encoded, decoded and stepped
//! at its target. Each op drains fully before the next starts. The sum
//! of the daemon-side rows per op, set beside the measured
//! `cpu_us_per_op`, leaves the reactor, syscalls and scheduling as the
//! unattributed remainder.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_core::{EpsilonSpec, InconsistencyCounter};
use esr_replica::mset::MSet;
use esr_replica::wire::{decode_frame, encode_frame, Frame};
use esr_runtime::ckpt::{decode_payload, encode_payload};
use esr_runtime::ctrl::{Effect, NodeCore, NodeEvent};
use esr_runtime::recovery::ApplyJournal;
use esr_runtime::state::{RtMethod, SiteState};

use crate::cluster::SITES;
use crate::load::Op;

/// One ledger row: how often a call ran and how long it took in all.
#[derive(Debug, Default, Clone, Copy)]
pub struct Row {
    pub calls: u64,
    pub ns: u128,
    /// Runs inside a daemon (counts toward the ledger sum), as opposed
    /// to the client side of a client-plane round trip.
    pub daemon: bool,
}

impl Row {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

#[derive(Debug, Default)]
pub struct Ledger {
    pub rows: BTreeMap<String, Row>,
    pub ops: u64,
    pub updates: u64,
    pub effects: u64,
    /// Encoded bytes of every frame an update caused, all sites.
    pub frame_bytes: u64,
    /// `SiteState::deliver` alone, on a separate replica.
    pub deliver: Row,
    /// Median `decode_payload` + `NodeCore::restore` of the final image.
    pub restore_ns: u64,
}

impl Ledger {
    fn time<T>(&mut self, row: &str, daemon: bool, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let ns = started.elapsed().as_nanos();
        let r = self.rows.entry(row.to_owned()).or_default();
        r.calls += 1;
        r.ns += ns;
        r.daemon = daemon;
        out
    }

    pub fn row(&self, name: &str) -> Row {
        self.rows.get(name).copied().unwrap_or_default()
    }

    /// Daemon-side nanoseconds per replayed op.
    pub fn sum_ns_per_op(&self) -> f64 {
        let ns: u128 = self.rows.values().filter(|r| r.daemon).map(|r| r.ns).sum();
        ns as f64 / self.ops.max(1) as f64
    }
}

fn kind(frame: &Frame) -> &'static str {
    match frame {
        Frame::MSet(_) => "mset",
        Frame::Applied { .. } => "applied",
        Frame::Complete { .. } => "complete",
        _ => "other",
    }
}

fn decode(bytes: &Bytes) -> io::Result<Frame> {
    decode_frame(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
}

struct Executor {
    cores: Vec<NodeCore>,
    journals: Vec<ApplyJournal>,
    queue: VecDeque<(usize, Frame)>,
    ledger: Ledger,
}

impl Executor {
    fn perform(&mut self, from: usize, effects: Vec<Effect>) {
        self.ledger.effects += effects.len() as u64;
        for effect in effects {
            match effect {
                Effect::Journal(m) => {
                    let journal = &mut self.journals[from];
                    self.ledger
                        .time("journal.record", true, || journal.record(&m));
                }
                Effect::Send { to, frame } => self.queue.push_back((to.raw() as usize, frame)),
                _ => {}
            }
        }
    }

    fn step(&mut self, at: usize, row: &str, event: NodeEvent) {
        let core = &mut self.cores[at];
        let effects = self.ledger.time(row, true, || core.step(event));
        self.perform(at, effects);
    }

    fn drain(&mut self) -> io::Result<()> {
        while let Some((to, frame)) = self.queue.pop_front() {
            let k = kind(&frame);
            let bytes = self
                .ledger
                .time(&format!("wire.encode.{k}"), true, || encode_frame(&frame));
            self.ledger.frame_bytes += bytes.len() as u64;
            let frame = self
                .ledger
                .time(&format!("wire.decode.{k}"), true, || decode(&bytes))?;
            self.step(to, &format!("ctrl.step.{k}"), NodeEvent::PeerFrame(frame));
        }
        Ok(())
    }

    fn update(&mut self, site: usize, mset: MSet) -> io::Result<()> {
        let l = &mut self.ledger;
        let request = l.time("wire.encode.submit", false, || {
            encode_frame(&Frame::Submit(mset))
        });
        l.frame_bytes += request.len() as u64;
        let Frame::Submit(mset) = l.time("wire.decode.submit", true, || decode(&request))? else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "submit round trip",
            ));
        };
        let et = mset.et;
        self.step(site, "ctrl.step.submit", NodeEvent::ClientSubmit(mset));
        let l = &mut self.ledger;
        let reply = l.time("wire.encode.submit_ok", true, || {
            encode_frame(&Frame::SubmitOk { et })
        });
        l.time("wire.decode.submit_ok", false, || decode(&reply))?;
        self.drain()
    }

    fn read(&mut self, site: usize, obj: u64) -> io::Result<()> {
        let l = &mut self.ledger;
        let query = Frame::Query {
            read_set: vec![ObjectId(obj)],
            epsilon_limit: 0,
        };
        let request = l.time("wire.encode.query", false, || encode_frame(&query));
        let Frame::Query { read_set, .. } =
            l.time("wire.decode.query", true, || decode(&request))?
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "query round trip",
            ));
        };
        let state = &mut self.cores[site].state;
        let outcome = l.time("state.query", true, || {
            state.query(
                &read_set,
                &mut InconsistencyCounter::new(EpsilonSpec::bounded(0)),
            )
        });
        let reply = l.time("wire.encode.query_ok", true, || {
            encode_frame(&Frame::QueryOk(outcome))
        });
        l.time("wire.decode.query_ok", false, || decode(&reply))?;
        Ok(())
    }
}

/// Replays `ops` (origin site, op) in order; journals live under `dir`.
pub fn run(ops: &[(usize, Op)], dir: &Path) -> io::Result<Ledger> {
    std::fs::create_dir_all(dir)?;
    let method = RtMethod::Commu;
    let mut ex = Executor {
        cores: (0..SITES)
            .map(|s| {
                let site = SiteId(s as u64);
                NodeCore::fresh(SiteState::new(method, site), method, site, SITES, None)
            })
            .collect(),
        journals: (0..SITES)
            .map(|s| {
                let path = dir.join(format!("ledger-{s}.journal"));
                let _ = std::fs::remove_file(&path);
                ApplyJournal::open(path)
            })
            .collect::<io::Result<_>>()?,
        queue: VecDeque::new(),
        ledger: Ledger::default(),
    };
    let mut replica = SiteState::new(method, SiteId(SITES as u64 - 1));
    for &(site, op) in ops {
        match op {
            Op::Update { et, obj, delta } => {
                let mset = MSet::new(
                    EtId(et),
                    SiteId(site as u64),
                    vec![ObjectOp::new(ObjectId(obj), Operation::Incr(delta))],
                )
                .traced(1);
                let copy = mset.clone();
                let started = Instant::now();
                replica.deliver(copy);
                ex.ledger.deliver.calls += 1;
                ex.ledger.deliver.ns += started.elapsed().as_nanos();
                ex.update(site, mset)?;
                ex.ledger.updates += 1;
            }
            Op::Read { obj } => ex.read(site, obj)?,
        }
        ex.ledger.ops += 1;
    }

    // The checkpoint image of the coordinator after the replay, and
    // what restoring it costs.
    let image = encode_payload(&ex.cores[0].ckpt_payload(None));
    let mut restores: Vec<u64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let restored = decode_payload(&image)
                .and_then(|p| NodeCore::restore(method, SiteId(0), SITES, None, 0, p, Vec::new()));
            let ns = started.elapsed().as_nanos() as u64;
            restored.map(|_| ns)
        })
        .collect::<Option<_>>()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "checkpoint did not restore"))?;
    restores.sort_unstable();
    ex.ledger.restore_ns = restores[1];
    for s in 0..SITES {
        let _ = std::fs::remove_file(dir.join(format!("ledger-{s}.journal")));
    }
    Ok(ex.ledger)
}
