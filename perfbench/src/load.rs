//! Seeded op plans and the client threads that drive them through
//! `RpcClient`, closed loop or open loop.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::mset::MSet;
use esr_runtime::RpcClient;
use esr_sim::rng::DetRng;
use esr_workload::{KeyChooser, KeyDist};

use crate::cluster::connect_serving;

/// One planned client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Increment `obj` by `delta` as ET `et`.
    Update { et: u64, obj: u64, delta: i64 },
    /// Single-key query of `obj`.
    Read { obj: u64 },
}

/// What a phase's ops look like.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub objects: u64,
    pub dist: KeyDist,
    pub read_pct: u64,
}

/// The op plan of one client thread in one phase. ET ids are
/// `phase << 40 | thread << 32 | index`, so every phase and thread of a
/// run mints a disjoint range: a duplicate id would be silently merged
/// by the daemons, and the totals check would report it.
pub fn plan(seed: u64, phase: u64, thread: usize, count: usize, mix: &Mix) -> Vec<Op> {
    let mut rng = DetRng::new(
        seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (thread as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let keys = KeyChooser::new(mix.objects, mix.dist);
    (0..count as u64)
        .map(|i| {
            let obj = keys.pick(&mut rng).0;
            if rng.below(100) < mix.read_pct {
                Op::Read { obj }
            } else {
                Op::Update {
                    et: (phase << 40) | ((thread as u64) << 32) | i,
                    obj,
                    delta: 1 + rng.below(10) as i64,
                }
            }
        })
        .collect()
}

/// How a phase paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each thread sends its next op when the previous one returns.
    Closed,
    /// Op `g` (numbered across threads) is due at `g / rate` seconds
    /// after the phase start, whether or not earlier ops returned.
    Open { rate_per_sec: u64 },
}

/// One benchmark-side span around a call into the client layer.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub name: &'static str,
    pub thread: u32,
    /// ET id for a submit, object id for a query.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What a phase (or several, merged) did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Submit → `SubmitOk` in ns (open loop: from the scheduled time).
    pub update_ns: Vec<u64>,
    /// Query → `QueryOk` in ns, admitted or refused.
    pub read_ns: Vec<u64>,
    /// Client-call time of each submit/query alone, from the send.
    pub submit_call_ns: Vec<u64>,
    pub query_call_ns: Vec<u64>,
    /// Generator lateness in ns: actual send minus scheduled send.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Queries sent with a zero epsilon budget, and how many of them
    /// the site refused.
    pub strict_queries: u64,
    pub strict_rejected: u64,
    /// Per object, the sum of the deltas of every acknowledged update.
    pub totals: BTreeMap<u64, i64>,
    /// Per object, the largest value any admitted query read.
    pub read_max: BTreeMap<u64, i64>,
    /// Acknowledged ETs, in completion order per thread.
    pub ets: Vec<u64>,
    pub calls: Vec<Call>,
    /// Wall time from the phase start to the last reply.
    pub elapsed: Duration,
}

impl Outcome {
    pub fn completed(&self) -> u64 {
        (self.update_ns.len() + self.read_ns.len()) as u64
    }

    pub fn merge(&mut self, other: Outcome) {
        self.update_ns.extend(other.update_ns);
        self.read_ns.extend(other.read_ns);
        self.submit_call_ns.extend(other.submit_call_ns);
        self.query_call_ns.extend(other.query_call_ns);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.strict_queries += other.strict_queries;
        self.strict_rejected += other.strict_rejected;
        for (k, v) in other.totals {
            *self.totals.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.read_max {
            let e = self.read_max.entry(k).or_insert(v);
            *e = (*e).max(v);
        }
        self.ets.extend(other.ets);
        self.calls.extend(other.calls);
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

fn wall_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// A phase: one client thread per entry of `plans`, thread `t` holding
/// one connection to site `sites[t]`.
pub struct Phase<'a> {
    pub dir: &'a Path,
    pub sites: &'a [usize],
    pub plans: Vec<Vec<Op>>,
    pub pace: Pace,
    pub epsilon: u64,
    /// Record a [`Call`] span around every client call.
    pub traced: bool,
    /// Zero point of span timestamps.
    pub origin: Instant,
    /// A closed-loop thread stops sending at this instant (ops not sent
    /// are not attempted); a safety cap, not the run length.
    pub cap: Instant,
}

impl Phase<'_> {
    pub fn run(self) -> Outcome {
        let start = Instant::now();
        let threads = self.plans.len() as u64;
        let mut total = Outcome::default();
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .plans
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    let site = self.sites[t];
                    let this = &self;
                    scope.spawn(move || this.drive(t, site, ops, start, threads))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| Outcome {
                        failed: 1,
                        attempted: 1,
                        ..Outcome::default()
                    })
                })
                .collect()
        });
        for o in outcomes {
            total.merge(o);
        }
        total
    }

    fn drive(&self, t: usize, site: usize, ops: &[Op], start: Instant, threads: u64) -> Outcome {
        let mut out = Outcome::default();
        let connect = || connect_serving(self.dir, site, Instant::now() + Duration::from_secs(10));
        let mut conn: Option<RpcClient> = connect().ok();
        let ns = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
        for (i, op) in ops.iter().enumerate() {
            let due = match self.pace {
                Pace::Closed => {
                    if Instant::now() >= self.cap {
                        break;
                    }
                    None
                }
                Pace::Open { rate_per_sec } => {
                    let g = i as u64 * threads + t as u64;
                    let due = start + Duration::from_nanos(g * 1_000_000_000 / rate_per_sec);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    Some(due)
                }
            };
            out.attempted += 1;
            let Some(c) = conn.as_mut() else {
                out.failed += 1;
                conn = connect().ok();
                continue;
            };
            let sent = Instant::now();
            if let Some(due) = due {
                out.late_ns
                    .push(sent.saturating_duration_since(due).as_nanos() as u64);
            }
            let ok = match *op {
                Op::Update { et, obj, delta } => {
                    let mset = MSet::new(
                        EtId(et),
                        SiteId(site as u64),
                        vec![ObjectOp::new(ObjectId(obj), Operation::Incr(delta))],
                    )
                    .traced(wall_micros());
                    match c.submit(mset) {
                        Ok(acked) if acked == EtId(et) => {
                            *out.totals.entry(obj).or_insert(0) += delta;
                            out.ets.push(et);
                            true
                        }
                        _ => false,
                    }
                }
                Op::Read { obj } => match c.query(&[ObjectId(obj)], self.epsilon) {
                    Ok(q) => {
                        if self.epsilon == 0 {
                            out.strict_queries += 1;
                        }
                        if q.admitted {
                            if let Some(Value::Int(v)) = q.values.first() {
                                let e = out.read_max.entry(obj).or_insert(*v);
                                *e = (*e).max(*v);
                            }
                        } else if self.epsilon == 0 {
                            out.strict_rejected += 1;
                        }
                        true
                    }
                    Err(_) => false,
                },
            };
            let done = Instant::now();
            if !ok {
                out.failed += 1;
                conn = connect().ok();
                continue;
            }
            let call_ns = done.duration_since(sent).as_nanos() as u64;
            let lat_ns = done.duration_since(due.unwrap_or(sent)).as_nanos() as u64;
            let (name, id) = match *op {
                Op::Update { et, .. } => {
                    out.update_ns.push(lat_ns);
                    out.submit_call_ns.push(call_ns);
                    ("submit", et)
                }
                Op::Read { obj } => {
                    out.read_ns.push(lat_ns);
                    out.query_call_ns.push(call_ns);
                    ("query", obj)
                }
            };
            if self.traced {
                out.calls.push(Call {
                    name,
                    thread: t as u32,
                    id,
                    start_ns: ns(sent),
                    end_ns: ns(done),
                });
            }
            out.elapsed = done.duration_since(start);
        }
        out
    }
}
