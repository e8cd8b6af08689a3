//! Process-level checkpoint battery: real `esrd` daemons taking
//! consistent snapshots, truncating their journals, recovering from
//! snapshot + suffix replay, and re-seeding a wiped site over the wire.
//!
//! Three scenarios:
//!
//! 1. **Restart from snapshot** — after two on-demand checkpoints (the
//!    second triggers lag-by-one truncation of the first's covered
//!    prefix) and some fresh traffic, a `SIGKILL`ed site must come back
//!    bit-identical while replaying *only* the journal suffix — the
//!    replay counter proves the snapshot actually short-circuited
//!    recovery.
//! 2. **Wiped-site catch-up** — a site that loses *everything* (journal,
//!    snapshots, view, epoch, queues) rejoins by pulling a peer's
//!    newest snapshot through `SnapshotRequest`/`SnapshotChunk`, then
//!    converges on subsequent traffic. Trace-certified.
//! 3. **Byte policy** — with `--ckpt-bytes` set low, sustained traffic
//!    makes the daemons cut checkpoints and truncate on their own; under
//!    load across several cuts the cluster keeps its one view and one
//!    coordinator, and every journal shrinks to its live suffix.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use esr::core::{EtId, ObjectId, ObjectOp, Operation, SiteId};
use esr::replica::mset::MSet;
use esr::replica::span::Event;
use esr::runtime::{ProcCluster, RpcClient, RtMethod, SPAN_QUERY_ALL};
use esr::storage::stable_queue::{Record, RecordReader, COMPACT_DEAD_BYTES};
use esr_check::certify::{certify, SiteTrace};

const X: ObjectId = ObjectId(0);
const Y: ObjectId = ObjectId(1);
const N: usize = 3;
const QUIESCE: Duration = Duration::from_secs(60);

fn esrd() -> &'static str {
    env!("CARGO_BIN_EXE_esrd")
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("esr-ckpt-{}-{tag}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// COMMU increments from rotating origins: order-free, so the final
/// state is the plain sum regardless of interleaving.
fn submit(c: &ProcCluster, i: u64, origins: &[u64]) {
    let origin = SiteId(origins[i as usize % origins.len()]);
    c.submit_update(
        origin,
        vec![
            ObjectOp::new(X, Operation::Incr(i as i64 + 1)),
            ObjectOp::new(Y, Operation::Incr(1)),
        ],
    )
    .unwrap_or_else(|e| panic!("submit {i} failed: {e}"));
}

/// Parses one series value out of a Prometheus text dump.
fn metric(text: &str, series: &str) -> Option<i64> {
    text.lines()
        .find(|l| l.starts_with(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn certify_cluster(c: &ProcCluster) {
    let traces: Vec<SiteTrace> = (0..N)
        .map(|s| {
            let (dropped, events) = c
                .spans_of(SiteId(s as u64), SPAN_QUERY_ALL)
                .unwrap_or_else(|e| panic!("trace of site {s}: {e}"));
            SiteTrace::from_dump(s as u64, dropped, events)
        })
        .collect();
    let findings = certify(RtMethod::Commu, &traces);
    assert!(findings.is_empty(), "trace certification failed:\n{findings:#?}");
}

#[test]
fn restart_recovers_from_snapshot_replaying_only_the_suffix() {
    let dir = fresh_dir("restart");
    let mut c = ProcCluster::spawn(esrd(), &dir, RtMethod::Commu, N).expect("spawn");

    for i in 0..8 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before checkpoints");

    // First checkpoint covers all 8 updates; the second (same
    // frontier) makes the chain lag-by-one truncate the first's
    // covered prefix.
    let (seq1, covered1) = c.checkpoint_at(SiteId(1)).expect("first checkpoint");
    assert_eq!((seq1, covered1), (1, 8));
    let (seq2, covered2) = c.checkpoint_at(SiteId(1)).expect("second checkpoint");
    assert_eq!((seq2, covered2), (2, 8));

    // Truncation was real and measurable in this incarnation.
    let text = c.metrics_of(SiteId(1)).expect("metrics before kill");
    assert_eq!(
        metric(&text, "esr_journal_truncated_total{site=\"1\"}"),
        Some(8),
        "lag-by-one truncation should retire the first cut's prefix:\n{text}"
    );
    // Retain-2: both containers on disk, no more.
    let snaps = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy().into_owned();
            n.starts_with("site-1.ckpt-") && n.ends_with(".snap")
        })
        .count();
    assert_eq!(snaps, 2, "retain(2) should keep exactly the newest two");

    // Fresh traffic past the snapshot, then the crash.
    for i in 8..12 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before kill");
    let before = c.snapshot_of(SiteId(1)).expect("snapshot before kill");
    c.kill(SiteId(1));
    c.restart(SiteId(1)).expect("restart");
    c.quiesce_within(QUIESCE).expect("quiesce after restart");

    assert_eq!(
        c.snapshot_of(SiteId(1)).expect("snapshot after restart"),
        before,
        "snapshot + suffix replay lost acknowledged state"
    );
    assert!(c.converged().expect("converged"));

    // The proof that recovery went through the snapshot: the revived
    // incarnation replayed exactly the 4 post-checkpoint entries, not
    // all 12.
    let text = c.metrics_of(SiteId(1)).expect("metrics after restart");
    assert_eq!(
        metric(&text, "esr_recovery_replays_total{site=\"1\"}"),
        Some(4),
        "recovery should replay only the journal suffix:\n{text}"
    );
    let status = c.status_of(SiteId(1)).expect("status after restart");
    assert_eq!(status.ckpt_seq, 2, "restored chain should resume at seq 2");
    assert_eq!(status.ckpt_covered, 8);

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wiped_site_rejoins_via_snapshot_catch_up() {
    let dir = fresh_dir("wipe");
    // Policy armed (catch-up is gated on it) but with an interval high
    // enough that only the explicit checkpoints below ever cut.
    let mut c = ProcCluster::spawn_with_ckpt(esrd(), &dir, RtMethod::Commu, N, Some(1 << 20))
        .expect("spawn");

    for i in 0..8 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce before checkpoints");
    // Every site snapshots, so whichever peer answers first can serve
    // a full-coverage image.
    for s in 0..N {
        let (_, covered) = c.checkpoint_at(SiteId(s as u64)).expect("checkpoint");
        assert_eq!(covered, 8, "site {s} checkpoint must cover all traffic");
    }

    let before = c.snapshot_of(SiteId(1)).expect("snapshot before wipe");
    c.kill(SiteId(1));
    c.wipe_site(SiteId(1));
    c.restart(SiteId(1)).expect("restart after wipe");
    c.quiesce_within(QUIESCE).expect("quiesce after rejoin");

    assert_eq!(
        c.snapshot_of(SiteId(1)).expect("snapshot after rejoin"),
        before,
        "catch-up lost checkpointed state"
    );
    assert!(c.converged().expect("converged after rejoin"));

    // The rejoin really went through the wire catch-up + restore path.
    let (_, events) = c
        .spans_of(SiteId(1), SPAN_QUERY_ALL)
        .expect("trace of rejoined site");
    assert!(
        events.iter().any(|(_, _, ev)| matches!(ev, Event::CatchUp { .. })),
        "rejoined site should record a catch-up event: {events:?}"
    );
    assert!(
        events.iter().any(|(_, _, ev)| matches!(ev, Event::CkptRestore { .. })),
        "rejoined site should restore from the fetched snapshot"
    );
    let status = c.status_of(SiteId(1)).expect("status after rejoin");
    assert!(status.ckpt_seq >= 1, "rejoined site should hold a snapshot");

    // The rejoined replica keeps up with new traffic.
    for i in 8..12 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce after new traffic");
    assert!(c.converged().expect("converged after new traffic"));

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_policy_cuts_and_truncates_on_its_own() {
    let dir = fresh_dir("policy");
    let mut c = ProcCluster::spawn_with_ckpt(esrd(), &dir, RtMethod::Commu, N, Some(512))
        .expect("spawn");

    for i in 0..32 {
        submit(&c, i, &[0, 1, 2]);
    }
    c.quiesce_within(QUIESCE).expect("quiesce");

    // The writer thread installs asynchronously; poll briefly for the
    // chain to land.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = c.metrics_of(SiteId(0)).expect("metrics");
        let cuts = metric(&text, "esr_checkpoint_total{site=\"0\"}").unwrap_or(0);
        let truncated = metric(&text, "esr_journal_truncated_total{site=\"0\"}").unwrap_or(0);
        if cuts >= 2 && truncated >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "byte policy never cut+truncated: cuts={cuts} truncated={truncated}\n{text}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let status = c.status_of(SiteId(0)).expect("status");
    assert!(status.ckpt_seq >= 2, "policy should have installed a chain");
    assert!(c.converged().expect("converged"));

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shape of a journal file: whether it opens with a NEXT_ID pin,
/// how many ack records it holds, and the ids of its enqueue records.
fn journal_layout(path: &std::path::Path) -> (bool, usize, Vec<u64>) {
    let mut reader = RecordReader::open_at(path, 0).expect("open journal");
    let mut pinned = false;
    let mut acks = 0;
    let mut ids = Vec::new();
    let mut first = true;
    while let Some(record) = reader.next_record().expect("read journal") {
        match record {
            Record::NextId { .. } => pinned |= first,
            Record::Ack { .. } => acks += 1,
            Record::Enqueue { id, .. } => ids.push(id),
        }
        first = false;
    }
    (pinned, acks, ids)
}

#[test]
fn byte_policy_under_sustained_load_keeps_one_view_and_compacts_journals() {
    // Regression: with a byte policy under sustained submits, retiring
    // a cut's prefix took one write per entry plus repeated rewrites of
    // the live set, under the journal lock every apply takes. The
    // stalled cores missed heartbeats, the peers elected new views, and
    // the cluster never settled. Retirement is now one pass with at
    // most one compaction. The policy interval is twice the compaction
    // threshold, so every retirement compacts and each journal ends as
    // a pin plus its live suffix.
    let dir = fresh_dir("sustained");
    let mut c = ProcCluster::spawn_with_ckpt(
        esrd(),
        &dir,
        RtMethod::Commu,
        N,
        Some(2 * COMPACT_DEAD_BYTES),
    )
    .expect("spawn");

    // Two clients, at sites 0 and 1, submit until every site has cut
    // at least three checkpoints.
    let mut clients: Vec<RpcClient> = (0..2)
        .map(|s| c.client(SiteId(s)).expect("client"))
        .collect();
    let mut et = 1u64 << 32;
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        for _ in 0..250 {
            for (origin, client) in clients.iter_mut().enumerate() {
                et += 1;
                let mset = MSet::new(
                    EtId(et),
                    SiteId(origin as u64),
                    vec![
                        ObjectOp::new(X, Operation::Incr(1)),
                        ObjectOp::new(Y, Operation::Incr(2)),
                    ],
                );
                client
                    .submit(mset)
                    .unwrap_or_else(|e| panic!("submit et {et} failed: {e}"));
            }
        }
        let cuts: Vec<u64> = (0..N)
            .map(|s| c.status_of(SiteId(s as u64)).expect("status").ckpt_seq)
            .collect();
        if cuts.iter().all(|&seq| seq >= 3) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "policy never cut three times per site: {cuts:?}"
        );
    }
    drop(clients);
    c.quiesce_within(QUIESCE)
        .expect("quiesce after sustained load");

    let statuses: Vec<_> = (0..N)
        .map(|s| c.status_of(SiteId(s as u64)).expect("status"))
        .collect();
    for (s, st) in statuses.iter().enumerate() {
        assert_eq!(st.view, 0, "site {s} left view 0: {statuses:?}");
    }
    assert_eq!(
        statuses.iter().filter(|st| st.coordinator).count(),
        1,
        "exactly one coordinator: {statuses:?}"
    );
    assert!(c.converged().expect("converged"));

    // Installs (and the retirements they trigger) land on the writer
    // thread; poll until each journal is a pin plus contiguous live
    // records whose count and size the daemon reports.
    for s in 0..N {
        let path = dir.join(format!("site-{s}.journal"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let (pinned, acks, ids) = journal_layout(&path);
            let contiguous = ids.windows(2).all(|w| w[1] == w[0] + 1);
            let text = c.metrics_of(SiteId(s as u64)).expect("metrics");
            let label = format!("{{site=\"{s}\"}}");
            let live = metric(&text, &format!("esr_journal_live_entries{label}"));
            let bytes = metric(&text, &format!("esr_journal_bytes{label}"));
            let file = std::fs::metadata(&path).expect("stat journal").len();
            if pinned
                && acks == 0
                && contiguous
                && live == Some(ids.len() as i64)
                && bytes == Some(file as i64)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "site {s} journal is not pin + live suffix: pinned={pinned} acks={acks} \
                 records={} contiguous={contiguous} live gauge={live:?} \
                 bytes gauge={bytes:?} file={file}",
                ids.len()
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    certify_cluster(&c);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
