//! Replication-aware trace certification over daemon event-ring
//! dumps.
//!
//! A live esrd site records its protocol decisions as typed
//! [`Event`]s in one bounded ring (`esr_runtime::spans::SpanRing`);
//! the model checker keeps the same records per modelled incarnation.
//! This module replays a set of per-site dumps against the per-method
//! visibility and convergence specs, turning any chaos, proc-cluster or
//! model run into a *checked* execution. The spec style follows Enea
//! et al.'s replication-aware linearizability — per-replica causal
//! histories checked against the method's visibility contract — and
//! Perrin et al.'s update consistency for the cross-site agreement
//! checks.
//!
//! ## Event vocabulary
//!
//! The certifier matches on the records and reads only these:
//!
//! * site-level spans — [`SpanStage::Apply`] / [`SpanStage::Replay`]
//!   (ET, version time, ORDUP sequence), [`SpanStage::Complete`],
//!   [`SpanStage::Vtnc`] (the horizon's time) and
//!   [`SpanStage::Decision`] (commit or abort);
//! * the checkpoint chain — [`Event::CkptCut`], [`Event::CkptRestore`],
//!   [`Event::CkptInstall`], [`Event::CkptTruncate`].
//!
//! Everything else is ignored: the coordinator-only `*Cert` stages
//! (certification moments, not site observations), the submit,
//! enqueue, deliver and hold-back hops, and the boot, catch-up, view,
//! peer and client events.
//!
//! A dump covers one *incarnation*: the ring dies with the process,
//! and a recovered site re-records its journal replays (`Replay`
//! spans) and snapshot-replayed control traffic at boot, so the
//! causal prefix a check needs is present after restarts too.
//!
//! ## Checks
//!
//! Per site (causal, in ring-sequence order):
//! 1. **apply-before-complete** (COMMU/RITU): an ET's completion
//!    notice implies every site applied it — so *this* site must have
//!    an apply for it earlier in its own history.
//! 2. **no double apply** (all): an ET never effectively applies twice
//!    in one incarnation (idempotency-guard violations).
//! 3. **VTNC monotonicity** (RITU-MV): certified horizons never
//!    regress.
//! 4. **VTNC visibility** (RITU-MV): when the horizon reaches `T`,
//!    this site has already installed a version `>= T` (the
//!    coordinator only certifies what every site reported installed).
//! 5. **ORDUP order**: sequenced applies appear in increasing global
//!    sequence order.
//! 6. **decision conflict** (COMPE): no ET both commits and aborts at
//!    one site.
//! 7. **no duplicate complete**: an ET's completion is announced at
//!    most once per incarnation — a coordinator handoff must absorb
//!    prior completions as evidence, not replay them as fresh events.
//! 8. **ckpt-seq-monotone**: installed snapshot sequence numbers
//!    strictly increase within an incarnation (a regressing chain
//!    would let truncation outrun its own cover).
//! 9. **ckpt-covered-monotone**: the covered frontier never regresses
//!    — among cuts (seeded by the restore base) and among installs,
//!    judged separately per kind, because installs happen on an async
//!    writer thread and may legitimately lag a newer cut's event.
//! 10. **ckpt-restore-first**: a restore event, if present, precedes
//!     every cut/install of its incarnation (you cannot cut a
//!     checkpoint before the state it summarizes exists).
//! 11. **ckpt-truncate-monotone**: journal retirement cuts never move
//!     backwards.
//!
//! Cross-site (only when every dump is loss-free, `dropped == 0`):
//! 12. **applied-set agreement** (non-COMPE): quiesced sites applied
//!     the same ET set.
//! 13. **completed-set agreement** (COMMU): quiesced sites saw the
//!     same completion notices.
//! 14. **outcome agreement** (COMPE): an ET's commit/abort outcome is
//!     consistent across sites.
//!
//! Ring overflow (`dropped > 0`) downgrades gracefully: history-prefix
//! checks that would false-positive on an evicted prefix are skipped
//! for that site, and cross-site checks are skipped entirely. An
//! incarnation that booted from a snapshot ([`Event::CkptRestore`])
//! downgrades the same way: the checkpoint compresses the covered
//! prefix out of the trace, so per-ET apply evidence for it is
//! legitimately absent.

use std::collections::{BTreeMap, BTreeSet};

use esr_core::ids::{EtId, SeqNo};
use esr_replica::span::{Event, SpanRec, SpanStage};
use esr_runtime::spans::RawSpan;
use esr_runtime::state::RtMethod;

/// One site's event-ring dump, in ring-sequence (per-site causal)
/// order.
#[derive(Debug, Clone)]
pub struct SiteTrace {
    /// The dumping site.
    pub site: u64,
    /// Events evicted by the bounded ring before the dump.
    pub dropped: u64,
    /// The retained events in seq order.
    pub events: Vec<Event>,
}

impl SiteTrace {
    /// Builds a trace from a whole-ring dump (`Frame::SpanOk` for
    /// `SPAN_QUERY_ALL`), restoring seq order.
    pub fn from_dump(site: u64, dropped: u64, mut dump: Vec<RawSpan>) -> Self {
        dump.sort_by_key(|e| e.0);
        Self {
            site,
            dropped,
            events: dump.into_iter().map(|(_, _, ev)| ev).collect(),
        }
    }
}

/// One certification violation.
#[derive(Debug, Clone)]
pub struct CertFinding {
    /// The offending site (`None` for cross-site checks).
    pub site: Option<u64>,
    /// Which spec clause fired.
    pub check: &'static str,
    /// What the certifier saw.
    pub detail: String,
}

/// Per-site digest accumulated while replaying a trace.
#[derive(Debug, Default)]
struct SiteDigest {
    applied: BTreeSet<EtId>,
    completed: BTreeSet<EtId>,
    committed: BTreeSet<EtId>,
    aborted: BTreeSet<EtId>,
}

/// Certifies a set of quiescent-site dumps against `method`'s spec.
/// Returns every violation found (empty = certified).
pub fn certify(method: RtMethod, traces: &[SiteTrace]) -> Vec<CertFinding> {
    let mut findings = Vec::new();
    let mut digests: Vec<SiteDigest> = Vec::new();

    let mut any_restore = false;
    for trace in traces {
        let mut d = SiteDigest::default();
        // A snapshot-restored incarnation has no per-ET events for the
        // covered prefix — same downgrade as an overflowed ring.
        let restored = trace
            .events
            .iter()
            .any(|ev| matches!(ev, Event::CkptRestore { .. }));
        any_restore |= restored;
        let lossless = trace.dropped == 0 && !restored;
        let mut max_installed: Option<u64> = None;
        let mut vtnc_last: Option<u64> = None;
        let mut last_seq: Option<SeqNo> = None;
        let mut ckpt_seq_last: Option<u64> = None;
        let mut ckpt_covered_last: Option<u64> = None;
        let mut ckpt_install_covered_last: Option<u64> = None;
        let mut ckpt_truncate_last: Option<u64> = None;
        let mut ckpt_chain_started = false;
        for ev in &trace.events {
            match *ev {
                Event::Span(SpanRec {
                    stage: SpanStage::Apply | SpanStage::Replay,
                    et: Some(et),
                    version,
                    gseq,
                    ..
                }) => {
                    if !d.applied.insert(et) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "no-double-apply",
                            detail: format!("{et} effectively applied twice"),
                        });
                    }
                    if let Some(t) = version.map(|v| v.time) {
                        max_installed = Some(max_installed.map_or(t, |m| m.max(t)));
                    }
                    if let Some(s) = gseq {
                        if last_seq.is_some_and(|p| p >= s) {
                            findings.push(CertFinding {
                                site: Some(trace.site),
                                check: "ordup-order",
                                detail: format!(
                                    "seq {s} applied after {:?}",
                                    last_seq
                                ),
                            });
                        }
                        last_seq = Some(s);
                    }
                }
                Event::Span(SpanRec {
                    stage: SpanStage::Complete,
                    et: Some(et),
                    ..
                }) => {
                    if !d.completed.insert(et) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "no-duplicate-complete",
                            detail: format!("{et} completed twice in one incarnation"),
                        });
                    }
                    if lossless && !d.applied.contains(&et) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "apply-before-complete",
                            detail: format!("completion of {et} arrived before its apply"),
                        });
                    }
                }
                Event::Span(SpanRec {
                    stage: SpanStage::Vtnc,
                    version: Some(horizon),
                    ..
                }) => {
                    let t = horizon.time;
                    if vtnc_last.is_some_and(|p| p > t) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "vtnc-monotone",
                            detail: format!("horizon regressed {vtnc_last:?} -> {t}"),
                        });
                    }
                    vtnc_last = Some(t);
                    if lossless && max_installed.is_none_or(|m| m < t) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "vtnc-visibility",
                            detail: format!(
                                "horizon {t} certified but max installed version is {max_installed:?}"
                            ),
                        });
                    }
                }
                Event::Span(SpanRec {
                    stage: SpanStage::Decision,
                    et: Some(et),
                    commit: Some(commit),
                    ..
                }) => {
                    if commit {
                        d.committed.insert(et);
                    } else {
                        d.aborted.insert(et);
                    }
                }
                Event::CkptCut { covered } => {
                    ckpt_chain_started = true;
                    if ckpt_covered_last.is_some_and(|p| p > covered) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "ckpt-covered-monotone",
                            detail: format!(
                                "cut covered frontier regressed {ckpt_covered_last:?} -> {covered}"
                            ),
                        });
                    }
                    ckpt_covered_last = Some(covered);
                }
                // Installs happen on the async writer thread, so an
                // install event may lag cuts taken after its own —
                // covered monotonicity is judged install-against-install
                // (seeded by the restore base), never against the cut
                // chain.
                Event::CkptInstall { seq, covered } => {
                    ckpt_chain_started = true;
                    if ckpt_install_covered_last.is_some_and(|p| p > covered) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "ckpt-covered-monotone",
                            detail: format!(
                                "install covered frontier regressed \
                                 {ckpt_install_covered_last:?} -> {covered}"
                            ),
                        });
                    }
                    ckpt_install_covered_last = Some(covered);
                    if ckpt_seq_last.is_some_and(|p| p >= seq) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "ckpt-seq-monotone",
                            detail: format!(
                                "snapshot seq {seq} installed after {ckpt_seq_last:?}"
                            ),
                        });
                    }
                    ckpt_seq_last = Some(seq);
                }
                Event::CkptRestore { covered, .. } => {
                    if ckpt_chain_started {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "ckpt-restore-first",
                            detail: format!(
                                "restore (covered {covered}) after a cut/install \
                                 of the same incarnation"
                            ),
                        });
                    }
                    if ckpt_covered_last.is_some_and(|p| p > covered) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "ckpt-covered-monotone",
                            detail: format!(
                                "restore covered {covered} below {ckpt_covered_last:?}"
                            ),
                        });
                    }
                    ckpt_covered_last = Some(covered);
                    ckpt_install_covered_last = Some(covered);
                }
                Event::CkptTruncate { through, .. } => {
                    if ckpt_truncate_last.is_some_and(|p| p > through) {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "ckpt-truncate-monotone",
                            detail: format!(
                                "truncation cut moved backwards {ckpt_truncate_last:?} -> {through}"
                            ),
                        });
                    }
                    ckpt_truncate_last = Some(through);
                }
                _ => {}
            }
        }
        if let Some(et) = d.committed.intersection(&d.aborted).next() {
            findings.push(CertFinding {
                site: Some(trace.site),
                check: "decision-conflict",
                detail: format!("{et} both committed and aborted"),
            });
        }
        digests.push(d);
    }

    // Cross-site agreement only when no ring lost history (by
    // overflow or by snapshot compression).
    if traces.iter().all(|t| t.dropped == 0) && !any_restore && digests.len() > 1 {
        if method != RtMethod::Compe {
            agree(
                &mut findings,
                traces,
                &digests,
                "applied-set-agreement",
                |d| &d.applied,
            );
        }
        if method == RtMethod::Commu {
            agree(
                &mut findings,
                traces,
                &digests,
                "completed-set-agreement",
                |d| &d.completed,
            );
        }
        if method == RtMethod::Compe {
            let mut outcome: BTreeMap<EtId, bool> = BTreeMap::new();
            for (trace, d) in traces.iter().zip(&digests) {
                for (&et, commit) in d
                    .committed
                    .iter()
                    .map(|et| (et, true))
                    .chain(d.aborted.iter().map(|et| (et, false)))
                {
                    if *outcome.entry(et).or_insert(commit) != commit {
                        findings.push(CertFinding {
                            site: Some(trace.site),
                            check: "outcome-agreement",
                            detail: format!("{et} outcome disagrees across sites"),
                        });
                    }
                }
            }
        }
    }

    findings
}

fn agree(
    findings: &mut Vec<CertFinding>,
    traces: &[SiteTrace],
    digests: &[SiteDigest],
    check: &'static str,
    set: impl Fn(&SiteDigest) -> &BTreeSet<EtId>,
) {
    let first = set(&digests[0]);
    for (trace, d) in traces.iter().zip(digests).skip(1) {
        if set(d) != first {
            findings.push(CertFinding {
                site: Some(trace.site),
                check,
                detail: format!(
                    "site {} set {:?} != site {} set {:?}",
                    trace.site,
                    set(d),
                    traces[0].site,
                    first
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{ClientId, SiteId, VersionTs};

    fn at(stage: SpanStage, et: u64) -> Event {
        SpanRec::new(stage, EtId(et)).into()
    }

    fn apply(et: u64) -> Event {
        at(SpanStage::Apply, et)
    }

    fn apply_v(et: u64, time: u64) -> Event {
        SpanRec::new(SpanStage::Apply, EtId(et))
            .with_version(Some(VersionTs::new(time, ClientId(0))))
            .into()
    }

    fn apply_seq(et: u64, seq: u64) -> Event {
        SpanRec::new(SpanStage::Apply, EtId(et))
            .with_gseq(Some(SeqNo(seq)))
            .into()
    }

    fn complete(et: u64) -> Event {
        at(SpanStage::Complete, et)
    }

    fn vtnc(time: u64) -> Event {
        SpanRec::vtnc(SpanStage::Vtnc, VersionTs::new(time, ClientId(0))).into()
    }

    fn decision(et: u64, commit: bool) -> Event {
        SpanRec::new(SpanStage::Decision, EtId(et))
            .with_commit(commit)
            .into()
    }

    fn site(site: u64, events: Vec<Event>) -> SiteTrace {
        SiteTrace {
            site,
            dropped: 0,
            events,
        }
    }

    fn fires(method: RtMethod, traces: &[SiteTrace], check: &str) -> bool {
        certify(method, traces).iter().any(|f| f.check == check)
    }

    #[test]
    fn clean_commu_run_certifies() {
        let traces = vec![
            site(0, vec![apply(1), complete(1)]),
            site(1, vec![apply(1), complete(1)]),
        ];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn from_dump_restores_ring_order() {
        let t = SiteTrace::from_dump(3, 0, vec![(1, 20, complete(1)), (0, 10, apply(1))]);
        assert_eq!(t.events, vec![apply(1), complete(1)]);
        assert!(certify(RtMethod::Commu, &[t]).is_empty());
    }

    #[test]
    fn complete_before_apply_is_flagged() {
        let traces = vec![site(1, vec![complete(1), apply(1)])];
        assert!(fires(RtMethod::Commu, &traces, "apply-before-complete"));
    }

    #[test]
    fn duplicate_complete_in_one_incarnation_is_flagged() {
        let traces = vec![site(0, vec![apply(1), complete(1), complete(1)])];
        assert!(fires(RtMethod::Commu, &traces, "no-duplicate-complete"));
    }

    #[test]
    fn view_and_client_events_are_ignored() {
        // Coordinator certificates, the other per-ET hops and every
        // site event carry no certifier clause — even a `CompleteCert`
        // ahead of the apply, or a second `VtncCert`, is not a finding.
        let traces = vec![site(
            0,
            vec![
                Event::Boot {
                    epoch: 1,
                    view: 0,
                    replayed: 0,
                    snapshot: None,
                },
                Event::Hello {
                    site: SiteId(1),
                    epoch: 1,
                },
                Event::ViewChange { view: 1 },
                Event::ViewInstall {
                    view: 1,
                    coordinator: SiteId(1),
                },
                Event::DuplicateSubmit {
                    client: ClientId(7),
                    seq: 1,
                    et: EtId(1),
                },
                at(SpanStage::CompleteCert, 1),
                at(SpanStage::Submit, 1),
                at(SpanStage::Deliver, 1),
                at(SpanStage::Held, 1),
                apply(1),
                at(SpanStage::CompleteCert, 1),
                complete(1),
                at(SpanStage::DecisionCert, 1),
            ],
        )];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
        let cert = SpanRec::vtnc(SpanStage::VtncCert, VersionTs::new(5, ClientId(0)));
        let traces = vec![site(0, vec![cert.into(), cert.into()])];
        assert!(certify(RtMethod::RituMv, &traces).is_empty());
    }

    #[test]
    fn vtnc_ahead_of_install_is_flagged() {
        let traces = vec![site(2, vec![vtnc(2), apply_v(1, 2)])];
        assert!(fires(RtMethod::RituMv, &traces, "vtnc-visibility"));
    }

    #[test]
    fn vtnc_regression_is_flagged() {
        let traces = vec![site(2, vec![apply_v(1, 2), vtnc(2), vtnc(1)])];
        assert!(fires(RtMethod::RituMv, &traces, "vtnc-monotone"));
    }

    #[test]
    fn replayed_applies_satisfy_prefix_checks() {
        // A restarted incarnation: journal replay spans precede the
        // snapshot-replayed completion.
        let traces = vec![site(1, vec![at(SpanStage::Replay, 1), complete(1)])];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn applied_set_divergence_is_flagged() {
        let traces = vec![site(0, vec![apply(1)]), site(1, vec![apply(1), apply(2)])];
        assert!(fires(RtMethod::Ritu, &traces, "applied-set-agreement"));
    }

    #[test]
    fn completed_set_divergence_is_flagged() {
        let traces = vec![
            site(0, vec![apply(1), apply(2), complete(1), complete(2)]),
            site(1, vec![apply(1), apply(2), complete(1)]),
        ];
        assert!(fires(RtMethod::Commu, &traces, "completed-set-agreement"));
    }

    #[test]
    fn double_apply_is_flagged() {
        let traces = vec![site(1, vec![apply(1), at(SpanStage::Replay, 1)])];
        assert!(fires(RtMethod::Commu, &traces, "no-double-apply"));
    }

    #[test]
    fn ordup_misorder_is_flagged() {
        let traces = vec![site(1, vec![apply_seq(2, 1), apply_seq(1, 0)])];
        assert!(fires(RtMethod::Ordup, &traces, "ordup-order"));
    }

    #[test]
    fn decision_conflict_at_one_site_is_flagged() {
        let traces = vec![site(0, vec![decision(1, true), decision(1, false)])];
        assert!(fires(RtMethod::Compe, &traces, "decision-conflict"));
    }

    #[test]
    fn conflicting_outcomes_are_flagged() {
        let traces = vec![
            site(0, vec![decision(1, true)]),
            site(1, vec![decision(1, false)]),
        ];
        assert!(fires(RtMethod::Compe, &traces, "outcome-agreement"));
    }

    #[test]
    fn clean_checkpoint_chain_certifies() {
        let traces = vec![site(
            0,
            vec![
                Event::CatchUp {
                    from: SiteId(1),
                    seq: 2,
                    covered: 2,
                },
                Event::CkptRestore {
                    covered: 2,
                    view: 0,
                },
                at(SpanStage::Replay, 3),
                apply(4),
                Event::CkptCut { covered: 4 },
                Event::CkptInstall { seq: 3, covered: 4 },
                Event::CkptTruncate {
                    through: 1,
                    retired: 2,
                },
                Event::CkptCut { covered: 4 },
                Event::CkptInstall { seq: 4, covered: 4 },
                Event::CkptTruncate {
                    through: 3,
                    retired: 2,
                },
            ],
        )];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn ckpt_seq_regression_is_flagged() {
        let traces = vec![site(
            0,
            vec![
                Event::CkptInstall {
                    seq: 5,
                    covered: 10,
                },
                Event::CkptInstall {
                    seq: 5,
                    covered: 11,
                },
            ],
        )];
        assert!(fires(RtMethod::Commu, &traces, "ckpt-seq-monotone"));
    }

    #[test]
    fn ckpt_covered_regression_is_flagged() {
        let traces = vec![site(
            0,
            vec![Event::CkptCut { covered: 9 }, Event::CkptCut { covered: 4 }],
        )];
        assert!(fires(RtMethod::Commu, &traces, "ckpt-covered-monotone"));
    }

    #[test]
    fn async_install_lagging_a_newer_cut_is_clean() {
        // The writer thread installs seq 1 (covered 4) after the byte
        // policy has already recorded a newer cut — the legitimate
        // interleaving of an asynchronous install under load.
        let traces = vec![site(
            0,
            vec![
                Event::CkptCut { covered: 4 },
                Event::CkptCut { covered: 9 },
                Event::CkptInstall { seq: 1, covered: 4 },
                Event::CkptInstall { seq: 2, covered: 9 },
            ],
        )];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn install_covered_regression_is_flagged() {
        let traces = vec![site(
            0,
            vec![
                Event::CkptInstall { seq: 1, covered: 9 },
                Event::CkptInstall { seq: 2, covered: 4 },
            ],
        )];
        assert!(fires(RtMethod::Commu, &traces, "ckpt-covered-monotone"));
    }

    #[test]
    fn restore_after_cut_is_flagged() {
        let traces = vec![site(
            0,
            vec![
                Event::CkptCut { covered: 3 },
                Event::CkptRestore {
                    covered: 3,
                    view: 0,
                },
            ],
        )];
        assert!(fires(RtMethod::Commu, &traces, "ckpt-restore-first"));
    }

    #[test]
    fn backwards_truncation_is_flagged() {
        let traces = vec![site(
            0,
            vec![
                Event::CkptTruncate {
                    through: 8,
                    retired: 9,
                },
                Event::CkptTruncate {
                    through: 2,
                    retired: 0,
                },
            ],
        )];
        assert!(fires(RtMethod::Commu, &traces, "ckpt-truncate-monotone"));
    }

    #[test]
    fn restored_incarnations_downgrade_like_overflowed_rings() {
        // Site 0 booted from a snapshot covering et 1: no apply event
        // for it exists, yet its completion (and cross-site applied
        // sets) must not be flagged.
        let traces = vec![
            site(
                0,
                vec![
                    Event::CkptRestore {
                        covered: 1,
                        view: 0,
                    },
                    complete(1),
                ],
            ),
            site(1, vec![apply(1), complete(1)]),
        ];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }

    #[test]
    fn dropped_rings_downgrade_prefix_checks() {
        let traces = vec![SiteTrace {
            site: 1,
            dropped: 7,
            events: vec![complete(1)],
        }];
        assert!(certify(RtMethod::Commu, &traces).is_empty());
    }
}
