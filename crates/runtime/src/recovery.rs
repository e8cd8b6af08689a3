//! Crash/restart support: the per-site apply journal.
//!
//! A journalling site (an `esrd` daemon, or a chaos-mode site of the
//! thread cluster) persists every MSet it accepts to an append-only
//! journal *before* applying it, and acknowledges the inbound link only
//! afterwards — so a crash can lose channel contents but never an
//! acknowledged update. Restart feeds the journal to
//! `NodeCore::recover` (or its suffix past a checkpoint to
//! `NodeCore::restore`), which rebuilds the replica and re-announces
//! the recovered applies. The control-plane evidence a crash lost —
//! completion notices, VTNC advances, COMPE decisions — comes back in
//! the view snapshot the coordinator sends in answer to the restarted
//! site's `Hello` (DESIGN.md §10).
//!
//! The journal is a log, not a queue held in memory. It writes the
//! stable-queue file format (`esr_storage::stable_queue`), so a journal
//! is also a valid `FileQueue` file and vice versa, but it keeps only a
//! handful of counters in RAM: the next id, the first live id, the live
//! count, the file length and the offset where the live records start.
//! Replay streams the records from the file. Retirement behind an
//! installed checkpoint is one pass: one write of ack records, then at
//! most one compaction that stream-copies the live suffix.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use esr_replica::mset::MSet;
use esr_replica::wire::{decode_mset, encode_mset};
use esr_storage::stable_queue::{
    recover_log, LogRewrite, Record, RecordReader, COMPACT_DEAD_BYTES, RECORD_HEADER,
};

/// A site's durable apply journal: encoded MSets in acceptance order,
/// each under a stable id. Entries stay live until a checkpoint
/// covering them is installed; [`ApplyJournal::retire_through`] then
/// retires the covered prefix.
///
/// Retirement only ever retires a prefix of ids, so the live entries
/// are the records with ids from `first_live` on, and everything in the
/// file before `head` is dead.
#[derive(Debug)]
pub struct ApplyJournal {
    path: PathBuf,
    file: File,
    /// The id the next record gets.
    next_id: u64,
    /// Every id below this is retired.
    first_live: u64,
    /// Records with ids from `first_live` on.
    live: u64,
    /// Bytes in the file.
    file_len: u64,
    /// No live record starts before this offset: scans start here, and
    /// once it reaches [`COMPACT_DEAD_BYTES`] retirement compacts.
    head: u64,
    /// MSets journalled this incarnation.
    entries: u64,
}

impl ApplyJournal {
    /// Opens (or reopens after a crash) the journal at `path`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut next_id = 0u64;
        let mut first_enqueued = None;
        let mut max_acked = None;
        let mut records = 0u64;
        let mut acks = 0u64;
        let (file, file_len) = recover_log(&path, |record| match record {
            Record::Enqueue { id, .. } => {
                first_enqueued.get_or_insert(id);
                records += 1;
                next_id = next_id.max(id + 1);
            }
            Record::Ack { id } => {
                max_acked = Some(max_acked.map_or(id, |m: u64| m.max(id)));
                acks += 1;
                next_id = next_id.max(id + 1);
            }
            Record::NextId { next } => next_id = next_id.max(next),
        })?;
        let first_live = max_acked.map_or(first_enqueued.unwrap_or(next_id), |m| m + 1);
        let live = records.saturating_sub(acks);
        Ok(Self {
            path,
            file,
            next_id,
            first_live,
            live,
            file_len,
            head: 0,
            entries: live,
        })
    }

    /// Durably records an accepted MSet. Must be called before the MSet
    /// is applied (write-ahead), and before the relay is acked. Returns
    /// the bytes appended, for checkpoint-policy accounting.
    #[expect(
        clippy::expect_used,
        reason = "a failed journal append leaves the site unable to honour write-ahead; panicking is the recovery story"
    )]
    pub fn record(&mut self, mset: &MSet) -> u64 {
        let payload = encode_mset(mset);
        let record = Record::Enqueue {
            id: self.next_id,
            payload: &payload,
        };
        let len = record.encoded_len();
        let mut bytes = Vec::with_capacity(len as usize);
        record.encode_into(&mut bytes);
        self.file.write_all(&bytes).expect("journal write");
        self.next_id += 1;
        self.live += 1;
        self.entries += 1;
        self.file_len += len;
        len
    }

    /// Decodes every live journalled MSet in acceptance order.
    pub fn replay(&self) -> Vec<MSet> {
        self.replay_entries().into_iter().map(|(_, m)| m).collect()
    }

    /// Decodes every live journalled MSet with its stable entry id —
    /// the id-aware walk checkpoint recovery uses to split the log at a
    /// snapshot's `covered_through` cut. Streams the file.
    #[expect(
        clippy::expect_used,
        reason = "a journal that cannot be read back cannot recover the site; panicking is the recovery story"
    )]
    pub fn replay_entries(&self) -> Vec<(u64, MSet)> {
        let mut out = Vec::with_capacity(self.live as usize);
        let mut reader = RecordReader::open_at(&self.path, self.head).expect("journal read");
        while let Some(record) = reader.next_record().expect("journal read") {
            if let Record::Enqueue { id, payload } = record {
                if id >= self.first_live {
                    let m = decode_mset(payload)
                        .unwrap_or_else(|e| panic!("journal entry {id} undecodable: {e}"));
                    out.push((id, m));
                }
            }
        }
        out
    }

    /// The stable id of the newest record ever journalled, or `None`
    /// for a journal that never held one. Monotone across recovery,
    /// retirement, and compaction (compaction pins the allocator).
    pub fn last_id(&self) -> Option<u64> {
        (self.next_id > 0).then(|| self.next_id - 1)
    }

    /// Retires every entry with id `<= through`: the installed
    /// checkpoint covers them, so replay no longer needs them. One pass:
    /// the covered records are read once, their ack records appended in
    /// one write, and once the dead prefix reaches
    /// [`COMPACT_DEAD_BYTES`] the live suffix is stream-copied behind a
    /// NEXT_ID pin into a fresh file. Returns the number of entries
    /// retired.
    #[expect(
        clippy::expect_used,
        reason = "a journal that cannot be read or appended is unusable; panicking is the recovery story"
    )]
    pub fn retire_through(&mut self, through: u64) -> u64 {
        if self.live == 0 || through < self.first_live {
            return 0;
        }
        let mut acks = Vec::new();
        let mut head = self.file_len;
        let mut reader = RecordReader::open_at(&self.path, self.head).expect("journal read");
        loop {
            let at = reader.offset();
            let Some(record) = reader.next_record().expect("journal read") else {
                break;
            };
            if let Record::Enqueue { id, .. } = record {
                if id > through {
                    head = at;
                    break;
                }
                if id >= self.first_live {
                    Record::Ack { id }.encode_into(&mut acks);
                }
            }
        }
        let retired = acks.len() as u64 / RECORD_HEADER;
        self.file.write_all(&acks).expect("journal write");
        self.file_len += acks.len() as u64;
        self.first_live = self.next_id.min(through + 1);
        self.live = self.live.saturating_sub(retired);
        self.head = head;
        if self.head >= COMPACT_DEAD_BYTES {
            // A failed compaction leaves the journal append-only
            // correct, just longer than asked.
            let _ = self.compact();
        }
        retired
    }

    /// Rewrites the file as a NEXT_ID pin plus the live records, copied
    /// from `head` on.
    fn compact(&mut self) -> io::Result<()> {
        let mut rewrite = LogRewrite::begin(&self.path, self.next_id)?;
        let mut reader = RecordReader::open_at(&self.path, self.head)?;
        while let Some(record) = reader.next_record()? {
            if matches!(record, Record::Enqueue { id, .. } if id >= self.first_live) {
                rewrite.push(record)?;
            }
        }
        (self.file, self.file_len) = rewrite.finish()?;
        self.head = RECORD_HEADER;
        Ok(())
    }

    /// Number of live (unretired) journal entries.
    pub fn live_entries(&self) -> u64 {
        self.live
    }

    /// Bytes currently occupied by the journal file.
    pub fn file_bytes(&self) -> u64 {
        self.file_len
    }

    /// Number of MSets journalled this incarnation (live entries at
    /// open plus records appended since; retirement does not decrement).
    pub fn entries(&self) -> u64 {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::{EtId, ObjectId, SiteId};
    use esr_core::op::{ObjectOp, Operation};

    #[test]
    fn journal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("esr-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j1.log");
        let _ = std::fs::remove_file(&path);
        let m1 = MSet::new(
            EtId(1),
            SiteId(0),
            vec![ObjectOp::new(ObjectId(0), Operation::Incr(5))],
        );
        let m2 = MSet::new(
            EtId(2),
            SiteId(1),
            vec![ObjectOp::new(ObjectId(1), Operation::Write(esr_core::value::Value::Int(9)))],
        );
        {
            let mut j = ApplyJournal::open(&path).unwrap();
            j.record(&m1);
            j.record(&m2);
            assert_eq!(j.entries(), 2);
        } // "crash": journal dropped without ceremony
        let j = ApplyJournal::open(&path).unwrap();
        assert_eq!(j.entries(), 2);
        let replayed = j.replay();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].et, EtId(1));
        assert_eq!(replayed[1].et, EtId(2));
        assert_eq!(replayed[1].ops, m2.ops);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retire_through_drops_the_covered_prefix_and_keeps_ids() {
        let dir = std::env::temp_dir().join(format!("esr-journal-retire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retire.log");
        let _ = std::fs::remove_file(&path);
        let mk = |et: u64| {
            MSet::new(
                EtId(et),
                SiteId(0),
                vec![ObjectOp::new(ObjectId(0), Operation::Incr(1))],
            )
        };
        let mut j = ApplyJournal::open(&path).unwrap();
        for et in 1..=5 {
            assert!(j.record(&mk(et)) > 13);
        }
        let ids: Vec<u64> = j.replay_entries().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(j.last_id(), Some(4));
        // Retire the first three; the suffix survives with stable ids.
        assert_eq!(j.retire_through(2), 3);
        assert_eq!(j.retire_through(2), 0, "retirement is idempotent");
        assert_eq!(j.live_entries(), 2);
        let left: Vec<(u64, EtId)> = j
            .replay_entries()
            .into_iter()
            .map(|(id, m)| (id, m.et))
            .collect();
        assert_eq!(left, vec![(3, EtId(4)), (4, EtId(5))]);
        drop(j);
        // Reopen: retired entries stay gone, the allocator stays pinned.
        let mut j2 = ApplyJournal::open(&path).unwrap();
        assert_eq!(j2.live_entries(), 2);
        assert_eq!(j2.last_id(), Some(4));
        j2.record(&mk(6));
        assert_eq!(j2.last_id(), Some(5));
        let _ = std::fs::remove_file(&path);
    }

    fn mk(et: u64) -> MSet {
        MSet::new(
            EtId(et),
            SiteId(0),
            vec![ObjectOp::new(ObjectId(et % 7), Operation::Incr(1))],
        )
    }

    fn fresh(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("esr-journal-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn retirement_past_the_threshold_leaves_the_pin_and_the_live_suffix() {
        let path = fresh("compact.log");
        let mut j = ApplyJournal::open(&path).unwrap();
        let mut sizes = Vec::new();
        let mut et = 0;
        while sizes.iter().sum::<u64>() < 2 * COMPACT_DEAD_BYTES {
            et += 1;
            sizes.push(j.record(&mk(et)));
        }
        assert_eq!(j.file_bytes(), std::fs::metadata(&path).unwrap().len());
        // A small retirement only appends acks.
        assert_eq!(j.retire_through(9), 10);
        assert_eq!(
            j.file_bytes(),
            sizes.iter().sum::<u64>() + 10 * RECORD_HEADER,
            "below the threshold retirement only appends"
        );
        // Retiring everything but the last ten crosses it: one compaction.
        let through = et - 11;
        assert_eq!(j.retire_through(through), through - 9);
        let live: u64 = sizes[sizes.len() - 10..].iter().sum();
        assert_eq!(j.file_bytes(), RECORD_HEADER + live);
        assert_eq!(j.file_bytes(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(j.live_entries(), 10);
        let ids: Vec<u64> = j.replay_entries().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (through + 1..et).collect::<Vec<_>>());
        // Appends continue behind the compacted suffix, and a reopen
        // sees the same journal.
        j.record(&mk(et + 1));
        let before = j.replay_entries();
        drop(j);
        let j = ApplyJournal::open(&path).unwrap();
        assert_eq!(j.replay_entries(), before);
        assert_eq!(j.live_entries(), 11);
        assert_eq!(j.last_id(), Some(et));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retiring_everything_past_the_threshold_leaves_only_the_pin() {
        let path = fresh("drain.log");
        let mut j = ApplyJournal::open(&path).unwrap();
        let mut et = 0;
        while j.file_bytes() < COMPACT_DEAD_BYTES {
            et += 1;
            j.record(&mk(et));
        }
        // A cut past the newest id retires everything, no more.
        assert_eq!(j.retire_through(et + 100), et);
        assert_eq!(j.file_bytes(), RECORD_HEADER);
        assert!(j.replay().is_empty());
        // The allocator survives on the pin alone.
        drop(j);
        let mut j = ApplyJournal::open(&path).unwrap();
        assert_eq!(j.last_id(), Some(et - 1));
        j.record(&mk(et + 1));
        assert_eq!(j.replay_entries()[0].0, et);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_file_queue_journal_opens_and_replays_identically() {
        // Journals are stable-queue files: one written through
        // `FileQueue` — acks, a compaction, more records, more acks —
        // replays exactly what the queue holds.
        use esr_storage::stable_queue::{EntryId, FileQueue, StableQueue};
        let path = fresh("queue-written.log");
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<EntryId> = (1..=6).map(|et| q.enqueue(encode_mset(&mk(et)))).collect();
        for id in &ids[..2] {
            q.ack(*id);
        }
        q.compact().unwrap();
        let more: Vec<EntryId> = (7..=9).map(|et| q.enqueue(encode_mset(&mk(et)))).collect();
        q.ack(ids[2]);
        let expect: Vec<(u64, MSet)> = q
            .pending(usize::MAX)
            .into_iter()
            .map(|(id, p)| (id.0, decode_mset(&p).unwrap()))
            .collect();
        let next = q.next_id();
        drop(q);

        let mut j = ApplyJournal::open(&path).unwrap();
        assert_eq!(j.replay_entries(), expect);
        assert_eq!(j.live_entries(), expect.len() as u64);
        assert_eq!(j.last_id(), Some(next - 1));
        assert_eq!(j.file_bytes(), std::fs::metadata(&path).unwrap().len());
        // And retirement works on it like on any journal.
        assert_eq!(j.retire_through(more[0].0), 4);
        let left: Vec<u64> = j.replay_entries().iter().map(|(id, _)| *id).collect();
        assert_eq!(left, vec![more[1].0, more[2].0]);
        drop(j);
        // The retired file is still a queue file with the same contents.
        let q = FileQueue::open(&path).unwrap();
        let back: Vec<u64> = q.pending(usize::MAX).iter().map(|(id, _)| id.0).collect();
        assert_eq!(back, left);
        let _ = std::fs::remove_file(&path);
    }
}
