//! Trace spans and site events: the one typed vocabulary of a site's
//! event stream.
//!
//! An update ET's life is distributed by design — it commits at its
//! origin and propagates lazily — so no single site's metrics can say
//! where the ET's latency went. Each site instead records [`SpanRec`]s
//! at every protocol hop it witnesses (submit, link enqueue, delivery,
//! hold-back, apply, completion, VTNC visibility, COMPE decision), and
//! `esrctl spans` later merges every site's records into one causal
//! timeline ordered by the protocol's happens-before edges.
//!
//! Site-level facts with no ET of their own — boot, snapshot catch-up,
//! the checkpoint chain, view changes, peer handshakes, retried client
//! submits — are the other [`Event`] variants. A daemon keeps every
//! [`Event`] in one bounded ring, and every reader (the trace
//! certifier, the model checker's oracles, `esrctl trace` and
//! `esrctl spans`) matches on the variants: nothing is formatted into
//! text and parsed back.
//!
//! The types here are pure data: no clocks, no I/O. Timestamps are
//! attached by the *daemon* when it records an event (the step
//! machines stay deterministic), and the client-submit wall stamp `t0`
//! rides inside the MSet so every site can report queueing delay
//! against the same epoch.

use std::fmt;

use serde::{Deserialize, Serialize};

use esr_core::ids::{ClientId, EtId, SeqNo, SiteId, VersionTs};

/// A protocol hop in an ET's distributed lifecycle.
///
/// The `*Cert` stages are coordinator-only: they mark the moment the
/// control plane *certified* a fact (all sites applied, horizon
/// advanced, decision taken), as opposed to the moment an individual
/// site *learned* it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanStage {
    /// Client-plane submit accepted at the origin site.
    Submit,
    /// MSet handed to the durable link toward `peer`.
    Enqueue,
    /// MSet arrived at a site (journalled before anything else).
    Deliver,
    /// ORDUP hold-back: delivered but parked behind a sequence gap.
    Held,
    /// Applied to the local replica.
    Apply,
    /// Re-applied from the journal (or a snapshot suffix) during
    /// recovery — the post-crash stand-in for a lost `Apply` span.
    Replay,
    /// Coordinator certified completion: every site reported applied.
    CompleteCert,
    /// Completion learned at a site.
    Complete,
    /// Coordinator advanced the VTNC horizon.
    VtncCert,
    /// VTNC horizon learned at a site.
    Vtnc,
    /// Coordinator certified a COMPE commit/abort decision.
    DecisionCert,
    /// Decision learned at a site.
    Decision,
}

impl SpanStage {
    /// Stable lowercase name (used by renderers and the wire codec
    /// tests; the wire codec itself ships the discriminant).
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Submit => "submit",
            SpanStage::Enqueue => "enqueue",
            SpanStage::Deliver => "deliver",
            SpanStage::Held => "held",
            SpanStage::Apply => "apply",
            SpanStage::Replay => "replay",
            SpanStage::CompleteCert => "complete-cert",
            SpanStage::Complete => "complete",
            SpanStage::VtncCert => "vtnc-cert",
            SpanStage::Vtnc => "vtnc",
            SpanStage::DecisionCert => "decision-cert",
            SpanStage::Decision => "decision",
        }
    }
}

impl fmt::Display for SpanStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One span record, as emitted by the pure step machines.
///
/// The recording site and the wall-clock stamp are *not* part of the
/// record: the site is implied by whose ring the record sits in, and
/// the stamp is attached by the daemon at effect-execution time so the
/// step machines never read a clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRec {
    /// The protocol hop.
    pub stage: SpanStage,
    /// The ET this span belongs to. `None` for VTNC horizon spans,
    /// which cover every ET at or below the horizon; the merge step
    /// attributes them via the apply spans' versions.
    pub et: Option<EtId>,
    /// For [`SpanStage::Enqueue`]: the link's destination site.
    pub peer: Option<SiteId>,
    /// RITU version timestamp (apply spans) or the new horizon (VTNC
    /// spans).
    pub version: Option<VersionTs>,
    /// ORDUP global sequence number, when the MSet carries one.
    pub gseq: Option<SeqNo>,
    /// Client-submit wall stamp (UNIX micros), minted by the client
    /// and carried in the MSet — present on origin-side spans so the
    /// timeline can charge client queueing delay.
    pub t0: Option<u64>,
    /// COMPE decision spans: `true` = commit, `false` = abort.
    pub commit: Option<bool>,
}

impl SpanRec {
    /// A span for `stage` on `et` with no extras.
    pub fn new(stage: SpanStage, et: EtId) -> Self {
        Self {
            stage,
            et: Some(et),
            peer: None,
            version: None,
            gseq: None,
            t0: None,
            commit: None,
        }
    }

    /// A VTNC horizon span (no single ET).
    pub fn vtnc(stage: SpanStage, horizon: VersionTs) -> Self {
        Self {
            stage,
            et: None,
            peer: None,
            version: Some(horizon),
            gseq: None,
            t0: None,
            commit: None,
        }
    }

    /// Attaches the enqueue destination.
    pub fn to_peer(mut self, peer: SiteId) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Attaches a version timestamp.
    pub fn with_version(mut self, version: Option<VersionTs>) -> Self {
        self.version = version;
        self
    }

    /// Attaches an ORDUP global sequence number.
    pub fn with_gseq(mut self, gseq: Option<SeqNo>) -> Self {
        self.gseq = gseq;
        self
    }

    /// Attaches the client-submit wall stamp.
    pub fn with_t0(mut self, t0: Option<u64>) -> Self {
        self.t0 = t0;
        self
    }

    /// Attaches a COMPE decision outcome.
    pub fn with_commit(mut self, commit: bool) -> Self {
        self.commit = Some(commit);
        self
    }
}

impl fmt::Display for SpanRec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.stage)?;
        if let Some(et) = self.et {
            write!(f, " {et}")?;
        }
        if let Some(peer) = self.peer {
            write!(f, " ->{peer}")?;
        }
        if let Some(v) = self.version {
            write!(f, " v={v}")?;
        }
        if let Some(s) = self.gseq {
            write!(f, " seq={s}")?;
        }
        if let Some(c) = self.commit {
            write!(f, " {}", if c { "commit" } else { "abort" })?;
        }
        if let Some(t0) = self.t0 {
            write!(f, " t0={t0}")?;
        }
        Ok(())
    }
}

/// One record of a site's event stream: a per-ET protocol hop
/// ([`Event::Span`]) or a site-level event. Integer fields only, so a
/// record is `Copy` and never larger than a [`SpanRec`] (the ring of
/// 65,536 of them dominates a daemon's memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A per-ET protocol hop, or a VTNC horizon.
    Span(SpanRec),
    /// The daemon booted into `view` at boot `epoch`, replaying
    /// `replayed` journal entries on top of snapshot `snapshot`
    /// (`None`: a full journal replay).
    Boot {
        /// Boot count of this site.
        epoch: u64,
        /// The view it rejoined.
        view: u64,
        /// Journal entries replayed.
        replayed: u64,
        /// Sequence of the snapshot it restored, if any.
        snapshot: Option<u64>,
    },
    /// A wiped site installed peer `from`'s snapshot `seq` (covering
    /// `covered` MSets) before booting from it.
    CatchUp {
        /// The peer that served the snapshot.
        from: SiteId,
        /// The peer's snapshot sequence number.
        seq: u64,
        /// Journalled MSets the snapshot covers.
        covered: u64,
    },
    /// A checkpoint cut covering `covered` journalled MSets.
    CkptCut {
        /// Journalled MSets the cut covers.
        covered: u64,
    },
    /// Boot restored a checkpoint image covering `covered` MSets into
    /// `view`.
    CkptRestore {
        /// Journalled MSets the image covers.
        covered: u64,
        /// The view the restored core booted into.
        view: u64,
    },
    /// Snapshot `seq`, covering `covered` MSets, is durably installed.
    CkptInstall {
        /// The installed snapshot's sequence number.
        seq: u64,
        /// Journalled MSets it covers.
        covered: u64,
    },
    /// Installing snapshot `seq` failed; the chain did not move.
    CkptInstallFailed {
        /// The sequence number the install would have taken.
        seq: u64,
    },
    /// Snapshot `seq` was cut under another replica control method;
    /// boot fell back to a full journal replay.
    CkptMismatch {
        /// The rejected snapshot's sequence number.
        seq: u64,
    },
    /// Journal entries up to id `through` were retired (`retired` of
    /// them).
    CkptTruncate {
        /// The highest retired journal entry id.
        through: u64,
        /// Entries retired by this truncation.
        retired: u64,
    },
    /// This site started electing `view`.
    ViewChange {
        /// The view under election.
        view: u64,
    },
    /// This site installed `view`, coordinated by `coordinator`.
    ViewInstall {
        /// The installed view.
        view: u64,
        /// That view's coordinator.
        coordinator: SiteId,
    },
    /// A peer link handshake from `site` at boot `epoch`.
    Hello {
        /// The peer.
        site: SiteId,
        /// The peer's boot epoch.
        epoch: u64,
    },
    /// A retried client submit answered from the client table.
    DuplicateSubmit {
        /// The retrying client.
        client: ClientId,
        /// Its request sequence number.
        seq: u64,
        /// The ET the original submit minted.
        et: EtId,
    },
}

impl From<SpanRec> for Event {
    fn from(rec: SpanRec) -> Self {
        Event::Span(rec)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Span(rec) => write!(f, "{rec}"),
            Event::Boot {
                epoch,
                view,
                replayed,
                snapshot: None,
            } => write!(
                f,
                "boot epoch {epoch}: replayed {replayed} journal entries, view {view}"
            ),
            Event::Boot {
                epoch,
                view,
                replayed,
                snapshot: Some(seq),
            } => write!(
                f,
                "boot epoch {epoch}: restored snapshot seq {seq}, \
                 replayed {replayed} suffix entries, view {view}"
            ),
            Event::CatchUp { from, seq, covered } => write!(
                f,
                "catch-up: installed snapshot seq {seq} (covered {covered}) from {from}"
            ),
            Event::CkptCut { covered } => write!(f, "ckpt cut covered={covered}"),
            Event::CkptRestore { covered, view } => {
                write!(f, "ckpt restore covered={covered} view={view}")
            }
            Event::CkptInstall { seq, covered } => {
                write!(f, "ckpt install seq={seq} covered={covered}")
            }
            Event::CkptInstallFailed { seq } => write!(f, "ckpt install seq={seq} failed"),
            Event::CkptMismatch { seq } => {
                write!(f, "ckpt snapshot seq={seq} method mismatch; full replay")
            }
            Event::CkptTruncate { through, retired } => {
                write!(f, "ckpt truncate through={through} retired={retired}")
            }
            Event::ViewChange { view } => write!(f, "view change -> view {view}"),
            Event::ViewInstall { view, coordinator } => {
                write!(f, "view install {view}, coordinator {coordinator}")
            }
            Event::Hello { site, epoch } => write!(f, "peer hello from {site} epoch {epoch}"),
            Event::DuplicateSubmit { client, seq, et } => {
                write!(f, "client duplicate submit {client} seq {seq} -> {et}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        let rec = SpanRec::new(SpanStage::Apply, EtId(7))
            .with_version(Some(VersionTs::new(3, ClientId(1))))
            .with_gseq(Some(SeqNo(2)));
        let s = rec.to_string();
        assert!(s.starts_with("apply"), "{s}");
        assert!(s.contains("et7"), "{s}");
        assert!(s.contains("seq=#2"), "{s}");
    }

    #[test]
    fn event_record_is_no_larger_than_a_span() {
        // A daemon holds 65,536 `(ring seq, micros, Event)` records; a
        // site-event variant that outgrew `SpanRec` would grow every
        // daemon's resident set by megabytes.
        assert!(std::mem::size_of::<Event>() <= std::mem::size_of::<SpanRec>());
        assert!(std::mem::size_of::<(u64, u64, Event)>() <= 112);
    }

    #[test]
    fn site_events_render_the_words_operators_grep_for() {
        let boot = Event::Boot {
            epoch: 2,
            view: 0,
            replayed: 1,
            snapshot: Some(3),
        };
        assert!(boot.to_string().starts_with("boot"), "{boot}");
        assert!(boot.to_string().contains("restored snapshot"), "{boot}");
        let catch_up = Event::CatchUp {
            from: SiteId(1),
            seq: 4,
            covered: 8,
        };
        assert!(catch_up.to_string().contains("catch-up"), "{catch_up}");
        let apply = Event::from(SpanRec::new(SpanStage::Apply, EtId(7)));
        assert_eq!(apply.to_string(), "apply et7");
    }

    #[test]
    fn vtnc_spans_have_no_et() {
        let rec = SpanRec::vtnc(SpanStage::Vtnc, VersionTs::new(9, ClientId(0)));
        assert!(rec.et.is_none());
        assert!(rec.version.is_some());
    }
}
