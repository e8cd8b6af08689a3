//! esr-trace: the per-daemon event ring and the cross-site timeline
//! merge.
//!
//! Each daemon appends every [`Effect::Event`](crate::ctrl::Effect)
//! its core emits — plus its own boot, catch-up and checkpoint-install
//! events — to one bounded [`SpanRing`] of typed
//! [`Event`](esr_replica::span::Event)s: the site's flight recorder.
//! Every reader scrapes it over the client plane with
//! [`Frame::SpanQuery`](esr_replica::wire::Frame): `esrctl trace` and
//! the trace certifier (`esr-check::certify`) take the whole ring,
//! `esrctl spans <et>` takes one ET's spans from every site and calls
//! [`merge_timeline`] to stitch them into one causal timeline.
//!
//! ## Merge rules (DESIGN.md §17)
//!
//! Wall clocks across sites are never compared to *order* the
//! timeline: ordering comes exclusively from the protocol's
//! happens-before edges, which the stage vocabulary encodes directly —
//!
//! ```text
//! submit@origin < enqueue@origin->p < deliver@p < held@p < apply@p
//! apply@every-site < complete-cert@coord < complete@site
//! decision-cert@coord < decision@site ; vtnc-cert@coord < vtnc@site
//! ```
//!
//! Every stage therefore gets a fixed causal rank; ties (genuinely
//! concurrent spans, e.g. two sites' applies) break deterministically
//! by origin-first, then site id, then per-ring sequence — so the same
//! execution always renders the same timeline, byte for byte.
//!
//! Wall stamps are still *shown* (and subtracted for the critical-path
//! breakdown): on one host — the proc-cluster and bench topology —
//! they share a clock and the durations are exact; across hosts the
//! ordering stays exact while durations inherit clock skew.
//!
//! ## Overflow
//!
//! The ring is bounded ([`SPAN_RING_CAPACITY`]); overflow evicts the
//! oldest records and counts them. A merge over a ring that dropped
//! records still orders what remains correctly (ranks are
//! per-record), but the critical path may lose edges — `esrctl spans`
//! surfaces the per-site drop counters so a truncated answer is never
//! mistaken for a complete one, and the trace certifier downgrades its
//! history checks for the same reason.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

use esr_core::ids::{EtId, SiteId, VersionTs};
use esr_replica::span::{Event, SpanRec, SpanStage};

/// Default per-daemon event ring capacity. At ~10 spans per ET
/// lifecycle this retains the last few thousand ETs — enough to trace
/// any ET a load driver just pushed, in bounded memory.
pub const SPAN_RING_CAPACITY: usize = 65_536;

/// The `et` value in a [`Frame::SpanQuery`](esr_replica::wire::Frame)
/// that selects every retained span.
pub const SPAN_QUERY_ALL: u64 = u64::MAX;

#[derive(Debug, Default)]
struct SpanRingInner {
    spans: VecDeque<RawSpan>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, shareable ring of `(ring_seq, micros, event)` records —
/// a daemon's one event ring. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct SpanRing {
    inner: Arc<Mutex<SpanRingInner>>,
    capacity: usize,
}

impl SpanRing {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(SpanRingInner::default())),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SpanRingInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends one event stamped with caller-supplied micros (wall in
    /// the daemon; the ring itself never reads a clock).
    pub fn record(&self, micros: u64, ev: Event) {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.spans.len() == self.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back((seq, micros, ev));
    }

    /// Retained events matching `et`, oldest first:
    /// [`SPAN_QUERY_ALL`] selects every event, any other value only
    /// that ET's spans plus the VTNC horizon spans, which carry no ET
    /// (the caller attributes them via apply versions). Site events
    /// never match a per-ET query.
    pub fn query(&self, et: u64) -> Vec<RawSpan> {
        self.lock()
            .spans
            .iter()
            .filter(|(_, _, ev)| {
                et == SPAN_QUERY_ALL
                    || matches!(ev, Event::Span(r) if r.et.is_none() || r.et == Some(EtId(et)))
            })
            .copied()
            .collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.lock().spans.is_empty()
    }
}

impl Default for SpanRing {
    fn default() -> Self {
        Self::new(SPAN_RING_CAPACITY)
    }
}

/// An event as it comes off the wire: `(ring seq, wall micros, event)`.
pub type RawSpan = (u64, u64, Event);

/// One span as it appears in a merged cross-site timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSpan {
    /// The site whose ring recorded it.
    pub site: SiteId,
    /// Its per-ring sequence number (causal order *within* the site).
    pub seq: u64,
    /// Its wall stamp (UNIX micros at the recording site).
    pub micros: u64,
    /// The record itself.
    pub rec: SpanRec,
}

/// The fixed causal rank of a stage — the happens-before skeleton the
/// merge linearizes along. Replay shares Apply's rank: it is the
/// post-crash stand-in for the same hop.
fn rank(stage: SpanStage) -> u8 {
    match stage {
        SpanStage::Submit => 0,
        SpanStage::Enqueue => 1,
        SpanStage::Deliver => 2,
        SpanStage::Held => 3,
        SpanStage::Apply | SpanStage::Replay => 4,
        SpanStage::CompleteCert => 5,
        SpanStage::Complete => 6,
        SpanStage::DecisionCert => 7,
        SpanStage::Decision => 8,
        SpanStage::VtncCert => 9,
        SpanStage::Vtnc => 10,
    }
}

/// The span records of one site's dump, site events skipped.
fn spans(events: &[RawSpan]) -> impl Iterator<Item = (u64, u64, SpanRec)> + '_ {
    events.iter().filter_map(|&(seq, micros, ev)| match ev {
        Event::Span(rec) => Some((seq, micros, rec)),
        _ => None,
    })
}

/// Merges per-site span dumps into one causally ordered timeline for
/// `et`. Site events (anything but [`Event::Span`]) are skipped.
///
/// Ordering is happens-before only (see the module doc): stage rank,
/// then origin-site-first, then site id, then ring seq — never wall
/// clocks. Exact duplicates of the same hop at the same site (a
/// re-delivered MSet, a re-driven control broadcast) keep the first
/// record. VTNC horizon spans (no ET) are attributed to `et` by
/// version: only horizons at or past the ET's max applied version are
/// kept, and only the first qualifying one per site *and stage* — the
/// moment this ET became VTNC-certified / VTNC-visible there (the
/// coordinator records both: its certificate and its own observation).
/// An ET with no versioned apply keeps no VTNC spans.
pub fn merge_timeline(
    per_site: &[(SiteId, Vec<RawSpan>)],
    et: EtId,
) -> Vec<SiteSpan> {
    // The ET's version horizon target, from any apply/replay span.
    let et_version: Option<VersionTs> = per_site
        .iter()
        .flat_map(|(_, events)| spans(events))
        .filter(|(_, _, r)| {
            r.et == Some(et)
                && matches!(r.stage, SpanStage::Apply | SpanStage::Replay)
        })
        .filter_map(|(_, _, r)| r.version)
        .max();
    // The origin site, identified by who recorded the submit span.
    let origin: Option<SiteId> = per_site
        .iter()
        .find(|(_, events)| {
            spans(events).any(|(_, _, r)| r.et == Some(et) && r.stage == SpanStage::Submit)
        })
        .map(|(site, _)| *site);

    let mut out: Vec<SiteSpan> = Vec::new();
    let mut seen: Vec<(SiteId, SpanStage, Option<SiteId>)> = Vec::new();
    for (site, events) in per_site {
        // (certificate seen, observation seen) — tracked separately so
        // the coordinator keeps both its vtnc-cert and its own vtnc.
        let mut vtnc_done = (false, false);
        for (seq, micros, rec) in spans(events) {
            let keep = match rec.et {
                Some(e) => e == et,
                // A horizon span: visible iff it covers the ET's
                // version, and only the first such per site and stage.
                None => match (et_version, rec.version) {
                    (Some(target), Some(h)) if h >= target => {
                        let slot = if rec.stage == SpanStage::VtncCert {
                            &mut vtnc_done.0
                        } else {
                            &mut vtnc_done.1
                        };
                        !std::mem::replace(slot, true)
                    }
                    _ => false,
                },
            };
            if !keep {
                continue;
            }
            let key = (*site, rec.stage, rec.peer);
            if rec.et.is_some() && seen.contains(&key) {
                continue; // duplicate hop: keep the first record
            }
            seen.push(key);
            out.push(SiteSpan {
                site: *site,
                seq,
                micros,
                rec,
            });
        }
    }
    out.sort_by_key(|s| {
        (
            rank(s.rec.stage),
            Some(s.site) != origin, // origin's span of a rank leads
            s.site,
            s.seq,
        )
    });
    out
}

/// One edge of the latency attribution: a label and its duration in
/// micros (`None` when either endpoint span is missing, e.g. evicted
/// by ring overflow or lost to a crash).
pub type PathEdge = (String, Option<u64>);

/// Attributes the ET's end-to-end latency to protocol stages, from a
/// merged timeline. Durations subtract wall stamps and assume the
/// sites share a clock (exact in the proc-cluster / bench topology;
/// approximate across hosts — the module doc's caveat).
pub fn critical_path(timeline: &[SiteSpan]) -> Vec<PathEdge> {
    let find = |stage: SpanStage, site: Option<SiteId>| -> Option<&SiteSpan> {
        timeline.iter().find(|s| {
            s.rec.stage == stage && site.is_none_or(|want| s.site == want)
        })
    };
    let sub = |a: Option<&SiteSpan>, b: Option<&SiteSpan>| -> Option<u64> {
        Some(a?.micros.saturating_sub(b?.micros))
    };
    let submit = find(SpanStage::Submit, None);
    let mut edges: Vec<PathEdge> = Vec::new();
    // Client queue wait: from the client's own wall stamp to the
    // daemon accepting the submit.
    if let Some(s) = submit {
        edges.push((
            "client queue".into(),
            s.rec.t0.map(|t0| s.micros.saturating_sub(t0)),
        ));
    }
    let origin = submit.map(|s| s.site);
    if let Some(origin) = origin {
        let local_apply = find(SpanStage::Apply, Some(origin))
            .or_else(|| find(SpanStage::Replay, Some(origin)));
        edges.push(("local apply".into(), sub(local_apply, submit)));
        // Per-peer propagation and hold-back, in site order.
        let mut peers: Vec<SiteId> = timeline
            .iter()
            .filter(|s| s.site != origin)
            .map(|s| s.site)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        for peer in peers {
            let enqueue = timeline.iter().find(|s| {
                s.rec.stage == SpanStage::Enqueue && s.rec.peer == Some(peer)
            });
            let deliver = find(SpanStage::Deliver, Some(peer));
            let apply = find(SpanStage::Apply, Some(peer))
                .or_else(|| find(SpanStage::Replay, Some(peer)));
            edges.push((format!("{peer} transit"), sub(deliver, enqueue)));
            edges.push((format!("{peer} hold-back"), sub(apply, deliver)));
        }
    }
    // Control-plane tail: certification and per-site visibility.
    let last_apply = timeline
        .iter()
        .filter(|s| matches!(s.rec.stage, SpanStage::Apply | SpanStage::Replay))
        .max_by_key(|s| s.micros);
    for (cert, learn, label) in [
        (SpanStage::CompleteCert, SpanStage::Complete, "complete"),
        (SpanStage::DecisionCert, SpanStage::Decision, "decision"),
        (SpanStage::VtncCert, SpanStage::Vtnc, "vtnc"),
    ] {
        let cert_span = find(cert, None);
        if let Some(c) = cert_span {
            edges.push((format!("{label} certify"), sub(Some(c), last_apply)));
            let last_learned = timeline
                .iter()
                .filter(|s| s.rec.stage == learn)
                .max_by_key(|s| s.micros);
            edges.push((
                format!("{label} visibility"),
                sub(last_learned, Some(c)),
            ));
        }
    }
    edges
}

/// Renders a merged timeline. Full mode shows wall stamps relative to
/// the first span plus the critical-path breakdown; skeleton mode
/// (`skeleton = true`) drops every nondeterministic column (stamps,
/// ring seqs, durations) and prints only the causal skeleton — two
/// same-seed runs of a deterministic workload render byte-identical
/// skeletons, which CI asserts.
pub fn render_timeline(timeline: &[SiteSpan], skeleton: bool) -> String {
    let mut out = String::new();
    let base = timeline.iter().map(|s| s.micros).min().unwrap_or(0);
    for s in timeline {
        if skeleton {
            let mut rec = s.rec;
            rec.t0 = None; // wall stamp: nondeterministic
            let _ = writeln!(out, "{} {}", s.site, rec);
        } else {
            let _ = writeln!(out, "+{:>8}us {} {}", s.micros - base, s.site, s.rec);
        }
    }
    if !skeleton {
        for (label, micros) in critical_path(timeline) {
            match micros {
                Some(us) => {
                    let _ = writeln!(out, "path {label:<16} {us:>8}us");
                }
                None => {
                    let _ = writeln!(out, "path {label:<16}        ?");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::ClientId;

    fn et() -> EtId {
        EtId(7)
    }

    /// A 3-site lifecycle dump: submit at s0, propagate to s1/s2,
    /// complete. Wall stamps are deliberately adversarial (s1's clock
    /// runs "ahead") to prove ordering ignores them.
    fn three_site_dump() -> Vec<(SiteId, Vec<RawSpan>)> {
        let e = et();
        vec![
            (
                SiteId(0),
                vec![
                    (0, 100, SpanRec::new(SpanStage::Submit, e).with_t0(Some(40)).into()),
                    (1, 101, SpanRec::new(SpanStage::Enqueue, e).to_peer(SiteId(1)).into()),
                    (2, 102, SpanRec::new(SpanStage::Enqueue, e).to_peer(SiteId(2)).into()),
                    (3, 110, SpanRec::new(SpanStage::Deliver, e).into()),
                    (4, 120, SpanRec::new(SpanStage::Apply, e).into()),
                    (5, 500, SpanRec::new(SpanStage::CompleteCert, e).into()),
                    (6, 510, SpanRec::new(SpanStage::Complete, e).into()),
                ],
            ),
            (
                SiteId(1),
                vec![
                    (0, 9_000, SpanRec::new(SpanStage::Deliver, e).into()),
                    (1, 9_100, SpanRec::new(SpanStage::Apply, e).into()),
                    (2, 9_800, SpanRec::new(SpanStage::Complete, e).into()),
                ],
            ),
            (
                SiteId(2),
                vec![
                    (0, 300, SpanRec::new(SpanStage::Deliver, e).into()),
                    (1, 310, SpanRec::new(SpanStage::Apply, e).into()),
                    (2, 560, SpanRec::new(SpanStage::Complete, e).into()),
                ],
            ),
        ]
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let ring = SpanRing::new(3);
        for i in 0..5u64 {
            ring.record(i, SpanRec::new(SpanStage::Apply, EtId(i)).into());
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let spans = ring.query(SPAN_QUERY_ALL);
        assert_eq!(spans[0].0, 2, "oldest two evicted");
        assert!(!ring.is_empty());
    }

    #[test]
    fn query_filters_by_et_but_always_yields_horizons() {
        let ring = SpanRing::new(16);
        ring.record(0, SpanRec::new(SpanStage::Apply, EtId(1)).into());
        ring.record(1, SpanRec::new(SpanStage::Apply, EtId(2)).into());
        ring.record(
            2,
            SpanRec::vtnc(SpanStage::Vtnc, VersionTs::new(5, ClientId(0))).into(),
        );
        // Site events carry no ET, yet must never pass a per-ET filter.
        ring.record(3, Event::CkptCut { covered: 2 });
        ring.record(4, Event::ViewChange { view: 1 });
        let one = ring.query(1);
        assert_eq!(one.len(), 2, "et1 apply + the horizon span");
        assert!(one
            .iter()
            .any(|(_, _, ev)| matches!(ev, Event::Span(r) if r.et.is_none())));
        assert_eq!(ring.query(SPAN_QUERY_ALL).len(), 5);
    }

    #[test]
    fn merge_skips_site_events() {
        let mut dump = three_site_dump();
        let plain = merge_timeline(&dump, et());
        let hello = Event::Hello {
            site: SiteId(0),
            epoch: 1,
        };
        dump[1].1.insert(0, (9, 8_000, hello));
        dump[2].1.push((9, 900, Event::CkptCut { covered: 1 }));
        assert_eq!(merge_timeline(&dump, et()), plain);
    }

    #[test]
    fn merge_orders_by_happens_before_not_clocks() {
        let timeline = merge_timeline(&three_site_dump(), et());
        let stages: Vec<(u64, SpanStage)> = timeline
            .iter()
            .map(|s| (s.site.raw(), s.rec.stage))
            .collect();
        // s1's wall clock is ~9ms ahead, yet its deliver sits with the
        // other delivers, strictly after both enqueues.
        let pos = |site: u64, stage: SpanStage| {
            stages.iter().position(|&(s, g)| s == site && g == stage).unwrap()
        };
        assert_eq!(pos(0, SpanStage::Submit), 0, "submit roots the timeline");
        assert!(pos(0, SpanStage::Enqueue) < pos(1, SpanStage::Deliver));
        assert!(pos(1, SpanStage::Deliver) < pos(1, SpanStage::Apply));
        assert!(pos(2, SpanStage::Apply) < pos(0, SpanStage::CompleteCert));
        assert!(pos(0, SpanStage::CompleteCert) < pos(1, SpanStage::Complete));
        // Origin-first tie-break within a rank.
        assert!(pos(0, SpanStage::Deliver) < pos(1, SpanStage::Deliver));
    }

    #[test]
    fn merge_dedups_redelivered_hops() {
        let mut dump = three_site_dump();
        // s2 sees the MSet twice (at-least-once link): second deliver
        // record must not appear in the timeline.
        dump[2].1.push((3, 999, SpanRec::new(SpanStage::Deliver, et()).into()));
        let timeline = merge_timeline(&dump, et());
        let delivers = timeline
            .iter()
            .filter(|s| s.site == SiteId(2) && s.rec.stage == SpanStage::Deliver)
            .count();
        assert_eq!(delivers, 1);
    }

    #[test]
    fn vtnc_horizons_attach_by_version() {
        let e = et();
        let v3 = VersionTs::new(3, ClientId(0));
        let v2 = VersionTs::new(2, ClientId(0));
        let dump = vec![(
            SiteId(0),
            vec![
                (0, 10, SpanRec::new(SpanStage::Submit, e).into()),
                (1, 20, SpanRec::new(SpanStage::Apply, e).with_version(Some(v3)).into()),
                // Below the ET's version: not its visibility moment.
                (2, 30, SpanRec::vtnc(SpanStage::Vtnc, v2).into()),
                (3, 40, SpanRec::vtnc(SpanStage::Vtnc, v3).into()),
                // Later horizon: redundant for this ET.
                (4, 50, SpanRec::vtnc(SpanStage::Vtnc, VersionTs::new(9, ClientId(0))).into()),
            ],
        )];
        let timeline = merge_timeline(&dump, e);
        let horizons: Vec<&SiteSpan> = timeline
            .iter()
            .filter(|s| s.rec.stage == SpanStage::Vtnc)
            .collect();
        assert_eq!(horizons.len(), 1);
        assert_eq!(horizons[0].rec.version, Some(v3));
    }

    #[test]
    fn replay_substitutes_for_a_lost_apply() {
        let e = et();
        let mut dump = three_site_dump();
        // s2 crashed after applying: its ring died, recovery re-emitted
        // the hop as a replay span.
        dump[2].1 = vec![
            (0, 700, SpanRec::new(SpanStage::Replay, e).into()),
            (1, 710, SpanRec::new(SpanStage::Complete, e).into()),
        ];
        let timeline = merge_timeline(&dump, e);
        let s2_replay = timeline
            .iter()
            .position(|s| s.site == SiteId(2) && s.rec.stage == SpanStage::Replay)
            .expect("replay span survives the merge");
        let cert = timeline
            .iter()
            .position(|s| s.rec.stage == SpanStage::CompleteCert)
            .unwrap();
        assert!(s2_replay < cert, "replay ranks with apply, before cert");
        let path = critical_path(&timeline);
        let hold = path
            .iter()
            .find(|(l, _)| l == "s2 hold-back")
            .expect("per-peer edge present");
        assert!(hold.1.is_none(), "missing deliver yields an honest unknown");
    }

    #[test]
    fn critical_path_attributes_every_stage() {
        let timeline = merge_timeline(&three_site_dump(), et());
        let path = critical_path(&timeline);
        let get = |label: &str| {
            path.iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("edge {label} missing"))
                .1
        };
        assert_eq!(get("client queue"), Some(60), "submit@100 - t0@40");
        assert_eq!(get("local apply"), Some(20));
        assert_eq!(get("s2 transit"), Some(198), "deliver@300 - enqueue@102");
        assert_eq!(get("s2 hold-back"), Some(10));
        // s1's skewed clock makes its edges large but still finite.
        assert_eq!(get("s1 transit"), Some(9_000 - 101));
        assert_eq!(get("complete certify"), Some(0), "clamped: cert@500 < apply@9100");
        assert_eq!(get("complete visibility"), Some(9_800 - 500));
    }

    #[test]
    fn skeleton_render_is_clock_free() {
        let timeline = merge_timeline(&three_site_dump(), et());
        let skel = render_timeline(&timeline, true);
        assert!(!skel.contains("us"), "no durations:\n{skel}");
        assert!(!skel.contains("t0="), "no wall stamps:\n{skel}");
        assert!(skel.lines().count() >= 10);
        // Re-merging a dump whose stamps all shifted renders the same
        // skeleton (what the CI same-seed check relies on).
        let shifted: Vec<(SiteId, Vec<RawSpan>)> = three_site_dump()
            .into_iter()
            .map(|(s, v)| {
                (s, v.into_iter().map(|(q, m, r)| (q, m + 1_000, r)).collect())
            })
            .collect();
        assert_eq!(
            skel,
            render_timeline(&merge_timeline(&shifted, et()), true)
        );
        let full = render_timeline(&timeline, false);
        assert!(full.contains("path client queue"), "{full}");
        assert!(full.starts_with("+       0us s0 submit"), "{full}");
    }
}
