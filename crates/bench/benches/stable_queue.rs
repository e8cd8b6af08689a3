//! Stable-queue throughput: the in-memory queue vs the crash-recoverable
//! file-backed queue (enqueue+ack cycles, batch acks, recovery cost
//! after a crash), plus the apply journal's checkpoint retirement.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use esr_core::ids::{EtId, ObjectId, SiteId};
use esr_core::op::{ObjectOp, Operation};
use esr_replica::mset::MSet;
use esr_runtime::recovery::ApplyJournal;
use esr_storage::stable_queue::{EntryId, FileQueue, MemQueue, StableQueue};

const BATCH: usize = 256;
/// Journal records built before each retirement; half are retired.
const JOURNAL_ENTRIES: u64 = 16_384;

fn payload(i: usize) -> Bytes {
    Bytes::from(format!("mset-payload-{i:06}"))
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("stable_queue");
    group.throughput(criterion::Throughput::Elements(BATCH as u64));

    group.bench_function(BenchmarkId::new("enqueue_ack", "mem"), |b| {
        b.iter(|| {
            let mut q = MemQueue::new();
            let ids: Vec<_> = (0..BATCH).map(|i| q.enqueue(payload(i))).collect();
            for id in ids {
                black_box(q.ack(id));
            }
        })
    });

    group.bench_function(BenchmarkId::new("enqueue_ack", "file"), |b| {
        let path = std::env::temp_dir().join(format!("esr-bench-{}.q", std::process::id()));
        b.iter(|| {
            let _ = std::fs::remove_file(&path);
            let mut q = FileQueue::open(&path).expect("open");
            let ids: Vec<_> = (0..BATCH).map(|i| q.enqueue(payload(i))).collect();
            for id in ids {
                black_box(q.ack(id));
            }
        });
        let _ = std::fs::remove_file(&path);
    });

    group.bench_function(BenchmarkId::new("enqueue_ack_batch", "file"), |b| {
        let path = std::env::temp_dir().join(format!("esr-bench-batch-{}.q", std::process::id()));
        b.iter(|| {
            let _ = std::fs::remove_file(&path);
            let mut q = FileQueue::open(&path).expect("open");
            let ids: Vec<EntryId> = (0..BATCH).map(|i| q.enqueue(payload(i))).collect();
            black_box(q.ack_batch(&ids))
        });
        let _ = std::fs::remove_file(&path);
    });

    group.bench_function(BenchmarkId::new("recovery", "file"), |b| {
        // Pre-build a log with half the entries acked, then measure the
        // cost of crash recovery (reopen + replay).
        let path = std::env::temp_dir().join(format!("esr-bench-rec-{}.q", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut q = FileQueue::open(&path).expect("open");
            let ids: Vec<_> = (0..BATCH).map(|i| q.enqueue(payload(i))).collect();
            for id in ids.iter().step_by(2) {
                q.ack(*id);
            }
        }
        b.iter(|| {
            let q = FileQueue::open(&path).expect("reopen");
            black_box(q.len())
        });
        let _ = std::fs::remove_file(&path);
    });

    group.finish();
}

fn bench_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_journal");
    group.throughput(criterion::Throughput::Elements(JOURNAL_ENTRIES / 2));
    group.sample_size(10);

    // Checkpoint retirement of half a journal: the covered prefix is
    // acked and the live half compacted behind a pin.
    group.bench_function(BenchmarkId::new("retire_half", JOURNAL_ENTRIES), |b| {
        let dir = std::env::temp_dir();
        let built = dir.join(format!("esr-bench-journal-{}.log", std::process::id()));
        let work = dir.join(format!("esr-bench-journal-{}.work.log", std::process::id()));
        let _ = std::fs::remove_file(&built);
        {
            let mut j = ApplyJournal::open(&built).expect("open journal");
            for i in 0..JOURNAL_ENTRIES {
                j.record(&MSet::new(
                    EtId(i + 1),
                    SiteId(i % 3),
                    vec![ObjectOp::new(ObjectId(i % 64), Operation::Incr(1))],
                ));
            }
        }
        b.iter_with_setup(
            || {
                std::fs::copy(&built, &work).expect("copy journal");
                ApplyJournal::open(&work).expect("open journal")
            },
            |mut j| black_box(j.retire_through(JOURNAL_ENTRIES / 2 - 1)),
        );
        let _ = std::fs::remove_file(&built);
        let _ = std::fs::remove_file(&work);
    });

    group.finish();
}

criterion_group!(benches, bench_queues, bench_journal);
criterion_main!(benches);
