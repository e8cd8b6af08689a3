//! Model-based property test: the file-backed stable queue behaves
//! exactly like the in-memory model under arbitrary command sequences —
//! including crash/reopen at arbitrary points, which must preserve the
//! set of unacknowledged entries, batch acks, and the self-compaction
//! that large payloads trigger, which must keep the file within
//! `COMPACT_DEAD_BYTES` of its live entries.

use bytes::Bytes;
use proptest::prelude::*;

use esr::storage::stable_queue::{
    EntryId, FileQueue, MemQueue, Record, StableQueue, COMPACT_DEAD_BYTES, RECORD_HEADER,
};

/// One command in the random script.
#[derive(Debug, Clone)]
enum Cmd {
    /// Enqueue a payload of the given byte.
    Enqueue(u8),
    /// Enqueue a payload a quarter of the compaction threshold long, so
    /// a few acks make the file queue compact itself.
    EnqueueBig(u8),
    /// Ack the i-th currently-pending entry (modulo pending count).
    AckNth(usize),
    /// Ack the listed pending positions in one batch; repeats make
    /// duplicate acks inside the batch.
    AckBatch(Vec<usize>),
    /// Record a delivery attempt on the i-th pending entry.
    AttemptNth(usize),
    /// Crash the file queue (drop + reopen). The in-memory model keeps
    /// running — stability means they still agree afterwards.
    CrashReopen,
    /// Compact the file log.
    Compact,
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => any::<u8>().prop_map(Cmd::Enqueue),
        1 => any::<u8>().prop_map(Cmd::EnqueueBig),
        3 => (0usize..8).prop_map(Cmd::AckNth),
        2 => prop::collection::vec(0usize..8, 0..5).prop_map(Cmd::AckBatch),
        2 => (0usize..8).prop_map(Cmd::AttemptNth),
        1 => Just(Cmd::CrashReopen),
        1 => Just(Cmd::Compact),
    ]
}

fn pending_payloads(q: &dyn StableQueue) -> Vec<Vec<u8>> {
    q.pending(usize::MAX)
        .into_iter()
        .map(|(_, p)| p.to_vec())
        .collect()
}

/// File bytes the live entries need: their enqueue records.
fn live_bytes(q: &dyn StableQueue) -> u64 {
    q.pending(usize::MAX)
        .iter()
        .map(|(id, p)| {
            Record::Enqueue {
                id: id.0,
                payload: p,
            }
            .encoded_len()
        })
        .sum()
}

fn nth_pending(q: &dyn StableQueue, i: usize) -> Option<EntryId> {
    let pending = q.pending(usize::MAX);
    if pending.is_empty() {
        None
    } else {
        Some(pending[i % pending.len()].0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn file_queue_matches_memory_model(cmds in prop::collection::vec(arb_cmd(), 0..60)) {
        let path = std::env::temp_dir().join(format!(
            "esr-qmodel-{}-{:?}.q",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut model = MemQueue::new();
        let mut real = FileQueue::open(&path).expect("open");
        for cmd in cmds {
            match cmd {
                Cmd::Enqueue(b) => {
                    let payload = Bytes::from(vec![b, b, b]);
                    model.enqueue(payload.clone());
                    real.enqueue(payload);
                }
                Cmd::EnqueueBig(b) => {
                    let payload = Bytes::from(vec![b; (COMPACT_DEAD_BYTES / 4) as usize]);
                    model.enqueue(payload.clone());
                    real.enqueue(payload);
                }
                Cmd::AckBatch(positions) => {
                    let mut m_ids = Vec::new();
                    let mut r_ids = Vec::new();
                    for i in positions {
                        if let (Some(m), Some(r)) = (nth_pending(&model, i), nth_pending(&real, i)) {
                            m_ids.push(m);
                            r_ids.push(r);
                        }
                    }
                    prop_assert_eq!(model.ack_batch(&m_ids), real.ack_batch(&r_ids));
                }
                Cmd::AckNth(i) => {
                    // Same position in both queues (their pending lists
                    // are kept identical by induction).
                    if let (Some(m), Some(r)) = (nth_pending(&model, i), nth_pending(&real, i)) {
                        prop_assert!(model.ack(m));
                        prop_assert!(real.ack(r));
                    }
                }
                Cmd::AttemptNth(i) => {
                    if let (Some(m), Some(r)) = (nth_pending(&model, i), nth_pending(&real, i)) {
                        model.record_attempt(m);
                        real.record_attempt(r);
                    }
                }
                Cmd::CrashReopen => {
                    drop(real);
                    real = FileQueue::open(&path).expect("reopen");
                }
                Cmd::Compact => {
                    real.compact().expect("compact");
                }
            }
            prop_assert_eq!(
                pending_payloads(&model),
                pending_payloads(&real),
                "divergence after a command"
            );
            prop_assert_eq!(model.len(), real.len());
            // Self-compaction keeps the dead part of the file (pin
            // included) under the threshold.
            let file = std::fs::metadata(&path).expect("stat").len();
            prop_assert!(
                file < live_bytes(&real) + COMPACT_DEAD_BYTES + RECORD_HEADER,
                "file {} bytes for {} live bytes",
                file,
                live_bytes(&real)
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
