//! Stable queues (§2.2).
//!
//! The paper factors message-loss handling out of replica control by
//! assuming *stable queues* that "persistently retry message delivery
//! until successful". A stable queue holds each update MSet until the
//! destination acknowledges it; entries survive crashes of the sending
//! site.
//!
//! Two implementations share the [`StableQueue`] interface:
//!
//! * [`MemQueue`] — in-memory, for simulation (crashes are simulated by
//!   cloning the queue state, not by losing it);
//! * [`FileQueue`] — append-only file-backed, for the real-thread
//!   runtime; reopening the file after a crash recovers exactly the
//!   unacknowledged entries. It compacts itself once acknowledged
//!   records pass [`COMPACT_DEAD_BYTES`], so the file is bounded by the
//!   in-flight entries, not by history.
//!
//! The file format has one reader, [`RecordReader`], and one recovery
//! routine, [`recover_log`]. The runtime's apply journal shares both:
//! it keeps the same records on disk but holds no payloads in memory.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

/// Identifier of one queue entry, assigned at enqueue time and stable
/// across recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(pub u64);

/// The stable-queue contract: at-least-once delivery with explicit
/// acknowledgement.
pub trait StableQueue {
    /// Appends a payload; returns its stable id.
    fn enqueue(&mut self, payload: Bytes) -> EntryId;

    /// The unacknowledged entries, oldest first, up to `max`.
    fn pending(&self, max: usize) -> Vec<(EntryId, Bytes)>;

    /// The unacknowledged entries with ids strictly greater than
    /// `after`, oldest first, up to `max` — the cursor a draining
    /// sender uses to pick up where its last transmission stopped
    /// without rescanning (or re-sending) everything still awaiting
    /// acknowledgement. `after = None` starts from the head, so
    /// `pending_after(None, max)` equals `pending(max)`.
    fn pending_after(&self, after: Option<EntryId>, max: usize) -> Vec<(EntryId, Bytes)>;

    /// Records a delivery attempt (for retry/backoff accounting).
    /// Returns the new attempt count, or `None` for unknown entries.
    fn record_attempt(&mut self, id: EntryId) -> Option<u32>;

    /// Acknowledges (removes) a delivered entry. Returns `false` when the
    /// entry was unknown (e.g. duplicate ack).
    fn ack(&mut self, id: EntryId) -> bool;

    /// Acknowledges a batch of delivered entries, as if by [`ack`] on
    /// each in turn; returns how many were known. A file-backed queue
    /// makes the whole batch one write.
    ///
    /// [`ack`]: StableQueue::ack
    fn ack_batch(&mut self, ids: &[EntryId]) -> usize {
        let mut acked = 0;
        for id in ids {
            if self.ack(*id) {
                acked += 1;
            }
        }
        acked
    }

    /// Number of unacknowledged entries.
    fn len(&self) -> usize;

    /// True when every entry has been acknowledged.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone)]
struct Entry {
    payload: Bytes,
    attempts: u32,
}

/// In-memory stable queue.
#[derive(Debug, Clone, Default)]
pub struct MemQueue {
    entries: BTreeMap<EntryId, Entry>,
    next_id: u64,
}

impl MemQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StableQueue for MemQueue {
    fn enqueue(&mut self, payload: Bytes) -> EntryId {
        let id = EntryId(self.next_id);
        self.next_id += 1;
        self.entries.insert(
            id,
            Entry {
                payload,
                attempts: 0,
            },
        );
        id
    }

    fn pending(&self, max: usize) -> Vec<(EntryId, Bytes)> {
        self.entries
            .iter()
            .take(max)
            .map(|(id, e)| (*id, e.payload.clone()))
            .collect()
    }

    fn pending_after(&self, after: Option<EntryId>, max: usize) -> Vec<(EntryId, Bytes)> {
        pending_after_of(&self.entries, after, max)
    }

    fn record_attempt(&mut self, id: EntryId) -> Option<u32> {
        let e = self.entries.get_mut(&id)?;
        e.attempts += 1;
        Some(e.attempts)
    }

    fn ack(&mut self, id: EntryId) -> bool {
        self.entries.remove(&id).is_some()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Shared `pending_after` walk over an entry map: everything strictly
/// beyond the cursor, oldest first.
fn pending_after_of(
    entries: &BTreeMap<EntryId, Entry>,
    after: Option<EntryId>,
    max: usize,
) -> Vec<(EntryId, Bytes)> {
    let range = match after {
        Some(id) => entries.range((std::ops::Bound::Excluded(id), std::ops::Bound::Unbounded)),
        None => entries.range(..),
    };
    range
        .take(max)
        .map(|(id, e)| (*id, e.payload.clone()))
        .collect()
}

// File record framing: one byte tag, eight byte big-endian id, then for
// ENQUEUE a four byte length and the payload. NEXT_ID pins the id
// allocator: a compacted file whose entries were all acknowledged would
// otherwise replay to an empty map and restart ids at zero, and any
// cursor keyed to old ids (a sender's high-water mark, a checkpoint's
// journal frontier) would silently skip the reused range.
const TAG_ENQUEUE: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_NEXT_ID: u8 = 3;

/// Bytes of a tag plus an id: a whole ACK or NEXT_ID record, and the
/// head of an ENQUEUE record.
pub const RECORD_HEADER: u64 = 9;

/// A file-backed queue (or journal) rewrites itself once at least this
/// many bytes of its file are dead: acknowledged entries, their ack
/// records, superseded pins. Small enough that a log stays within a few
/// tens of KiB of its live entries; large enough that the rewrite, one
/// pass over the live entries, stays rare next to the appends.
pub const COMPACT_DEAD_BYTES: u64 = 64 * 1024;

/// One record of the queue file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record<'a> {
    /// Entry `id` appended with `payload`.
    Enqueue {
        /// The entry's id.
        id: u64,
        /// The entry's payload.
        payload: &'a [u8],
    },
    /// Entry `id` acknowledged.
    Ack {
        /// The acknowledged entry's id.
        id: u64,
    },
    /// The id allocator pinned: the next id is at least `next`.
    NextId {
        /// The pinned allocator value (not an entry id).
        next: u64,
    },
}

impl Record<'_> {
    /// Bytes the record occupies in the file.
    pub fn encoded_len(&self) -> u64 {
        match self {
            Record::Enqueue { payload, .. } => enqueue_len(payload.len()),
            Record::Ack { .. } | Record::NextId { .. } => RECORD_HEADER,
        }
    }

    /// Appends the record's on-disk encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (tag, id) = match *self {
            Record::Enqueue { id, .. } => (TAG_ENQUEUE, id),
            Record::Ack { id } => (TAG_ACK, id),
            Record::NextId { next } => (TAG_NEXT_ID, next),
        };
        out.push(tag);
        out.extend_from_slice(&id.to_be_bytes());
        if let Record::Enqueue { payload, .. } = self {
            out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            out.extend_from_slice(payload);
        }
    }
}

/// Bytes of an ENQUEUE record carrying `payload_len` payload bytes.
fn enqueue_len(payload_len: usize) -> u64 {
    RECORD_HEADER + 4 + payload_len as u64
}

/// Streams the records of a queue file in file order, holding one
/// payload at a time.
///
/// The stream ends (`Ok(None)`) at the end of the file, at a torn
/// record (one cut short by a crash mid-append), or at a corrupt tag;
/// [`RecordReader::offset`] is then the end of the last intact record.
#[derive(Debug)]
pub struct RecordReader {
    reader: BufReader<File>,
    offset: u64,
    end: u64,
    payload: Vec<u8>,
}

impl RecordReader {
    /// Reads `path` from byte `offset`, which must be a record boundary,
    /// to the end of the file as it is now.
    pub fn open_at(path: &Path, offset: u64) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let end = file.metadata()?.len();
        file.seek(SeekFrom::Start(offset))?;
        Ok(Self {
            reader: BufReader::with_capacity(64 * 1024, file),
            offset,
            end,
            payload: Vec::new(),
        })
    }

    /// Byte offset just past the last record returned.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The next intact record, or `None` where the stream ends.
    pub fn next_record(&mut self) -> io::Result<Option<Record<'_>>> {
        let left = self.end.saturating_sub(self.offset);
        if left < RECORD_HEADER {
            return Ok(None);
        }
        let mut head = [0u8; RECORD_HEADER as usize];
        self.reader.read_exact(&mut head)?;
        let mut id = [0u8; 8];
        id.copy_from_slice(&head[1..]);
        let id = u64::from_be_bytes(id);
        let record = match head[0] {
            TAG_ENQUEUE => {
                if left < RECORD_HEADER + 4 {
                    return Ok(None); // torn length
                }
                let mut len = [0u8; 4];
                self.reader.read_exact(&mut len)?;
                let len = u32::from_be_bytes(len) as usize;
                if left < enqueue_len(len) {
                    return Ok(None); // torn payload
                }
                self.payload.resize(len, 0);
                self.reader.read_exact(&mut self.payload)?;
                Record::Enqueue {
                    id,
                    payload: &self.payload,
                }
            }
            TAG_ACK => Record::Ack { id },
            TAG_NEXT_ID => Record::NextId { next: id },
            _ => return Ok(None), // corrupt record
        };
        self.offset += record.encoded_len();
        Ok(Some(record))
    }
}

/// The tmp file a compaction of `path` writes before renaming it into
/// place.
pub fn compaction_tmp(path: &Path) -> PathBuf {
    path.with_extension("compact")
}

/// Opens (or creates) the log at `path` after a crash: feeds every
/// intact record to `visit` in file order, then truncates a torn or
/// corrupt tail back to the last intact record, and removes any
/// half-written compaction tmp file. Returns an append handle and the
/// log's length.
///
/// Without the truncation, records appended after the garbage tail
/// would be unreachable on the following reopen — the scan stops at the
/// first bad byte, so durably-enqueued entries would silently vanish.
pub fn recover_log(path: &Path, mut visit: impl FnMut(Record<'_>)) -> io::Result<(File, u64)> {
    match std::fs::remove_file(compaction_tmp(path)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut reader = RecordReader::open_at(path, 0)?;
    while let Some(record) = reader.next_record()? {
        visit(record);
    }
    let valid = reader.offset();
    if valid < reader.end {
        file.set_len(valid)?;
    }
    Ok((file, valid))
}

/// A compaction in progress: records go to the tmp file, which
/// [`LogRewrite::finish`] renames over the log. A crash at any point
/// leaves either the old log or the new one, never a mix.
#[derive(Debug)]
pub struct LogRewrite {
    path: PathBuf,
    tmp: PathBuf,
    out: BufWriter<File>,
    record: Vec<u8>,
    len: u64,
}

impl LogRewrite {
    /// Starts rewriting the log at `path`; the new log opens with a
    /// NEXT_ID record pinning the allocator at `next_id`.
    pub fn begin(path: &Path, next_id: u64) -> io::Result<Self> {
        let tmp = compaction_tmp(path);
        let mut rewrite = Self {
            path: path.to_path_buf(),
            out: BufWriter::with_capacity(64 * 1024, File::create(&tmp)?),
            tmp,
            record: Vec::new(),
            len: 0,
        };
        rewrite.push(Record::NextId { next: next_id })?;
        Ok(rewrite)
    }

    /// Appends one record to the new log.
    pub fn push(&mut self, record: Record<'_>) -> io::Result<()> {
        self.record.clear();
        record.encode_into(&mut self.record);
        self.len += self.record.len() as u64;
        self.out.write_all(&self.record)
    }

    /// Renames the new log into place; returns a handle positioned at
    /// its end, for further appends, and its length.
    pub fn finish(self) -> io::Result<(File, u64)> {
        let file = self
            .out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        std::fs::rename(&self.tmp, &self.path)?;
        Ok((file, self.len))
    }
}

/// File-backed stable queue: an append-only log of enqueue/ack records,
/// compacted once [`COMPACT_DEAD_BYTES`] of it are dead.
#[derive(Debug)]
pub struct FileQueue {
    path: PathBuf,
    file: File,
    entries: BTreeMap<EntryId, Entry>,
    next_id: u64,
    /// Bytes of the log that a compaction would drop: acknowledged
    /// enqueues, their ack records, superseded pins.
    dead_bytes: u64,
}

impl FileQueue {
    /// Opens (or creates) a queue file, recovering unacknowledged
    /// entries; see [`recover_log`] for torn and corrupt tails.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut entries = BTreeMap::new();
        let mut next_id = 0u64;
        let (file, len) = recover_log(&path, |record| match record {
            Record::Enqueue { id, payload } => {
                entries.insert(
                    EntryId(id),
                    Entry {
                        payload: Bytes::copy_from_slice(payload),
                        attempts: 0,
                    },
                );
                next_id = next_id.max(id + 1);
            }
            Record::Ack { id } => {
                entries.remove(&EntryId(id));
                next_id = next_id.max(id + 1);
            }
            // The pin *is* the allocator value ("the next id is at
            // least this"), not an entry id — hence max(next), not
            // max(next + 1).
            Record::NextId { next } => next_id = next_id.max(next),
        })?;
        let live: u64 = entries.values().map(|e| enqueue_len(e.payload.len())).sum();
        Ok(Self {
            path,
            file,
            entries,
            next_id,
            dead_bytes: len - live,
        })
    }

    /// The file backing this queue.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The id the next enqueue will be assigned. Monotone across
    /// recovery and compaction; `next_id() - 1` is therefore the id of
    /// the newest record ever enqueued (when any was).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Compacts the log: rewrites the file with only the live entries,
    /// after a NEXT_ID record pinning the id allocator (so a fully
    /// acknowledged queue does not restart ids from zero on reopen).
    /// Entry ids are stable across compaction, so `pending_after`
    /// cursors held by senders survive. Acks call this on their own
    /// once [`COMPACT_DEAD_BYTES`] of the log are dead.
    pub fn compact(&mut self) -> io::Result<()> {
        let mut rewrite = LogRewrite::begin(&self.path, self.next_id)?;
        for (id, e) in &self.entries {
            rewrite.push(Record::Enqueue {
                id: id.0,
                payload: &e.payload,
            })?;
        }
        (self.file, _) = rewrite.finish()?;
        self.dead_bytes = 0;
        Ok(())
    }

    /// Appends encoded records to the log in one write (a real system
    /// would also fsync here).
    #[expect(
        clippy::expect_used,
        reason = "a failed append to the backing file leaves the queue unusable; panicking is the recovery story"
    )]
    fn append(&mut self, records: &[u8]) {
        self.file.write_all(records).expect("queue file write");
    }
}

impl StableQueue for FileQueue {
    fn enqueue(&mut self, payload: Bytes) -> EntryId {
        let id = EntryId(self.next_id);
        self.next_id += 1;
        let mut record = Vec::with_capacity(enqueue_len(payload.len()) as usize);
        Record::Enqueue {
            id: id.0,
            payload: &payload,
        }
        .encode_into(&mut record);
        self.append(&record);
        self.entries.insert(
            id,
            Entry {
                payload,
                attempts: 0,
            },
        );
        id
    }

    fn pending(&self, max: usize) -> Vec<(EntryId, Bytes)> {
        self.entries
            .iter()
            .take(max)
            .map(|(id, e)| (*id, e.payload.clone()))
            .collect()
    }

    fn pending_after(&self, after: Option<EntryId>, max: usize) -> Vec<(EntryId, Bytes)> {
        pending_after_of(&self.entries, after, max)
    }

    fn record_attempt(&mut self, id: EntryId) -> Option<u32> {
        let e = self.entries.get_mut(&id)?;
        e.attempts += 1;
        Some(e.attempts)
    }

    fn ack(&mut self, id: EntryId) -> bool {
        self.ack_batch(&[id]) == 1
    }

    /// One write for the whole batch, then at most one compaction.
    fn ack_batch(&mut self, ids: &[EntryId]) -> usize {
        let mut acks = Vec::new();
        for id in ids {
            if let Some(e) = self.entries.remove(id) {
                Record::Ack { id: id.0 }.encode_into(&mut acks);
                // The entry's enqueue record and its ack are both dead
                // weight now.
                self.dead_bytes += enqueue_len(e.payload.len()) + RECORD_HEADER;
            }
        }
        if acks.is_empty() {
            return 0;
        }
        self.append(&acks);
        if self.dead_bytes >= COMPACT_DEAD_BYTES {
            // A failed compaction leaves the log append-only correct,
            // just longer than asked.
            let _ = self.compact();
        }
        acks.len() / RECORD_HEADER as usize
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "esr-queue-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mem_queue_fifo_and_ack() {
        let mut q = MemQueue::new();
        let a = q.enqueue(Bytes::from_static(b"a"));
        let b = q.enqueue(Bytes::from_static(b"b"));
        assert_eq!(q.len(), 2);
        let pending = q.pending(10);
        assert_eq!(pending[0].0, a);
        assert_eq!(pending[1].1.as_ref(), b"b");
        assert!(q.ack(a));
        assert!(!q.ack(a), "double ack is rejected");
        assert_eq!(q.len(), 1);
        assert!(q.ack(b));
        assert!(q.is_empty());
    }

    #[test]
    fn mem_queue_attempts() {
        let mut q = MemQueue::new();
        let a = q.enqueue(Bytes::from_static(b"x"));
        assert_eq!(q.record_attempt(a), Some(1));
        assert_eq!(q.record_attempt(a), Some(2));
        q.ack(a);
        assert_eq!(q.record_attempt(a), None);
    }

    #[test]
    fn pending_after_is_a_cursor_over_unacked_entries() {
        let mut q = MemQueue::new();
        let ids: Vec<EntryId> = (0..5).map(|i| q.enqueue(Bytes::from(vec![i]))).collect();
        // From the head it matches pending().
        assert_eq!(q.pending_after(None, 10), q.pending(10));
        // Strictly-after semantics: the cursor entry itself is excluded.
        let tail = q.pending_after(Some(ids[2]), 10);
        assert_eq!(
            tail.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![ids[3], ids[4]]
        );
        // Acked entries vanish from the walk; max is respected.
        q.ack(ids[3]);
        assert_eq!(q.pending_after(Some(ids[0]), 10).len(), 3);
        assert_eq!(q.pending_after(Some(ids[0]), 1).len(), 1);
        // A cursor past the end yields nothing.
        assert!(q.pending_after(Some(ids[4]), 10).is_empty());
    }

    #[test]
    fn file_pending_after_survives_reopen() {
        let path = tmpdir().join("cursor.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let a = q.enqueue(Bytes::from_static(b"a"));
        let _b = q.enqueue(Bytes::from_static(b"b"));
        let c = q.enqueue(Bytes::from_static(b"c"));
        drop(q);
        let q2 = FileQueue::open(&path).unwrap();
        let tail = q2.pending_after(Some(a), 10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].0, c);
        assert_eq!(tail[1].1.as_ref(), b"c");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_pending_respects_max() {
        let mut q = MemQueue::new();
        for i in 0..5 {
            q.enqueue(Bytes::from(vec![i]));
        }
        assert_eq!(q.pending(3).len(), 3);
        assert_eq!(q.pending(100).len(), 5);
    }

    #[test]
    fn file_queue_roundtrip() {
        let path = tmpdir().join("roundtrip.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let a = q.enqueue(Bytes::from_static(b"hello"));
        let b = q.enqueue(Bytes::from_static(b"world"));
        q.ack(a);
        drop(q);

        // Recovery: only the unacked entry survives.
        let q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1);
        let pending = q2.pending(10);
        assert_eq!(pending[0].0, b);
        assert_eq!(pending[0].1.as_ref(), b"world");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_ids_continue_after_recovery() {
        let path = tmpdir().join("ids.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let a = q.enqueue(Bytes::from_static(b"1"));
        drop(q);
        let mut q2 = FileQueue::open(&path).unwrap();
        let b = q2.enqueue(Bytes::from_static(b"2"));
        assert!(b > a, "ids must not be reused after recovery");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_survives_torn_tail() {
        let path = tmpdir().join("torn.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        q.enqueue(Bytes::from_static(b"good"));
        drop(q);
        // Simulate a crash mid-write: append a truncated record.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[TAG_ENQUEUE, 0, 0]).unwrap();
        }
        let q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1, "torn tail discarded, good record kept");
        assert_eq!(q2.pending(1)[0].1.as_ref(), b"good");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_truncates_torn_tail_so_later_appends_survive() {
        let path = tmpdir().join("torn-then-append.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        q.enqueue(Bytes::from_static(b"first"));
        drop(q);
        // Crash mid-append leaves a partial record at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[TAG_ENQUEUE, 9, 9, 9, 9]).unwrap();
        }
        // Reopen (must truncate the garbage) and append a new record.
        let mut q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1);
        q2.enqueue(Bytes::from_static(b"second"));
        drop(q2);
        // The record appended after the torn tail is recoverable.
        let q3 = FileQueue::open(&path).unwrap();
        assert_eq!(q3.len(), 2, "append after torn tail must survive reopen");
        let payloads: Vec<Bytes> = q3.pending(10).into_iter().map(|(_, p)| p).collect();
        assert!(payloads.iter().any(|p| p.as_ref() == b"second"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_compaction_drops_acked_records() {
        let path = tmpdir().join("compact.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<EntryId> = (0..10)
            .map(|i| q.enqueue(Bytes::from(format!("payload-{i}"))))
            .collect();
        for id in &ids[..9] {
            q.ack(*id);
        }
        let before = std::fs::metadata(&path).unwrap().len();
        q.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction shrank {before} → {after}");
        assert_eq!(q.len(), 1);
        // And the compacted file still recovers correctly.
        drop(q);
        let q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1);
        assert_eq!(q2.pending(1)[0].0, ids[9]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_ids_survive_compaction_of_fully_acked_queue() {
        let path = tmpdir().join("acked-compact.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<EntryId> = (0..4).map(|i| q.enqueue(Bytes::from(vec![i]))).collect();
        for id in &ids {
            q.ack(*id);
        }
        q.compact().unwrap();
        drop(q);
        // An empty-but-compacted file must not reset the allocator: a
        // fresh enqueue gets an id beyond every id ever handed out.
        let mut q2 = FileQueue::open(&path).unwrap();
        assert!(q2.is_empty());
        let fresh = q2.enqueue(Bytes::from_static(b"new"));
        assert!(
            fresh > ids[3],
            "id {fresh:?} reused after compaction (last was {:?})",
            ids[3]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_auto_compacts_past_dead_byte_threshold() {
        let path = tmpdir().join("auto-compact.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let keep = q.enqueue(Bytes::from_static(b"keep"));
        let big = vec![7u8; (COMPACT_DEAD_BYTES / 8) as usize];
        let ids: Vec<EntryId> = (0..8)
            .map(|_| q.enqueue(Bytes::from(big.clone())))
            .collect();
        let grown = std::fs::metadata(&path).unwrap().len();
        for id in &ids[..7] {
            q.ack(*id);
        }
        let below = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            below,
            grown + 7 * RECORD_HEADER,
            "below the threshold acks only append"
        );
        q.ack(ids[7]);
        let after = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            after,
            RECORD_HEADER + enqueue_len(4),
            "the ack past the threshold leaves only the pin and the live entry"
        );
        // Live entry, its id, and the allocator all survive.
        assert_eq!(q.pending(10), vec![(keep, Bytes::from_static(b"keep"))]);
        drop(q);
        let mut q2 = FileQueue::open(&path).unwrap();
        assert_eq!(q2.len(), 1);
        assert!(q2.enqueue(Bytes::from_static(b"x")) > ids[7]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ack_batch_is_one_append_and_skips_unknown_ids() {
        let path = tmpdir().join("batch.q");
        let _ = std::fs::remove_file(&path);
        let mut q = FileQueue::open(&path).unwrap();
        let ids: Vec<EntryId> = (0..5).map(|i| q.enqueue(Bytes::from(vec![i]))).collect();
        assert!(q.ack(ids[0]));
        let before = std::fs::metadata(&path).unwrap().len();
        // ids[0] is already acked and 99 never existed: neither counts
        // nor writes.
        let batch = [ids[0], ids[1], EntryId(99), ids[3]];
        assert_eq!(q.ack_batch(&batch), 2);
        let after = std::fs::metadata(&path).unwrap().len();
        assert_eq!(after, before + 2 * RECORD_HEADER);
        assert_eq!(q.ack_batch(&[]), 0);
        let left: Vec<EntryId> = q.pending(10).into_iter().map(|(id, _)| id).collect();
        assert_eq!(left, vec![ids[2], ids[4]]);
        // The default trait loop agrees.
        let mut m = MemQueue::new();
        let mids: Vec<EntryId> = (0..5).map(|i| m.enqueue(Bytes::from(vec![i]))).collect();
        assert!(m.ack(mids[0]));
        assert_eq!(m.ack_batch(&[mids[0], mids[1], EntryId(99), mids[3]]), 2);
        drop(q);
        assert_eq!(FileQueue::open(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopened_queue_counts_its_dead_bytes() {
        // Dead weight written by an earlier incarnation still counts
        // toward the threshold: the first ack after reopen compacts.
        let path = tmpdir().join("reopen-dead.q");
        let _ = std::fs::remove_file(&path);
        let big = vec![1u8; (COMPACT_DEAD_BYTES / 2) as usize];
        let mut q = FileQueue::open(&path).unwrap();
        let a = q.enqueue(Bytes::from(big.clone()));
        let b = q.enqueue(Bytes::from(big));
        let c = q.enqueue(Bytes::from_static(b"c"));
        q.ack(a);
        drop(q);
        let mut q = FileQueue::open(&path).unwrap();
        q.ack(b);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            RECORD_HEADER + enqueue_len(1)
        );
        assert_eq!(q.pending(10)[0].0, c);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_encode_byte_identically_to_the_bytes_framing() {
        // The framing the queue has always written, spelled with
        // `BufMut`: old files must keep opening unchanged.
        use bytes::BufMut;
        let mut legacy = bytes::BytesMut::new();
        legacy.put_u8(TAG_NEXT_ID);
        legacy.put_u64(7);
        legacy.put_u8(TAG_ENQUEUE);
        legacy.put_u64(7);
        legacy.put_u32(3);
        legacy.put_slice(b"abc");
        legacy.put_u8(TAG_ACK);
        legacy.put_u64(7);
        let records = [
            Record::NextId { next: 7 },
            Record::Enqueue {
                id: 7,
                payload: b"abc",
            },
            Record::Ack { id: 7 },
        ];
        let mut ours = Vec::new();
        for r in &records {
            r.encode_into(&mut ours);
        }
        assert_eq!(ours, legacy.to_vec());

        let path = tmpdir().join("format.q");
        std::fs::write(&path, &ours).unwrap();
        let mut reader = RecordReader::open_at(&path, 0).unwrap();
        for r in &records {
            assert_eq!(reader.next_record().unwrap().as_ref(), Some(r));
        }
        assert_eq!(reader.next_record().unwrap(), None);
        assert_eq!(reader.offset(), ours.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_log_drops_a_stale_compaction_tmp() {
        let path = tmpdir().join("stale.q");
        let _ = std::fs::remove_file(&path);
        std::fs::write(compaction_tmp(&path), [TAG_NEXT_ID, 0, 0]).unwrap();
        let q = FileQueue::open(&path).unwrap();
        assert!(q.is_empty());
        assert!(!compaction_tmp(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_queue_empty_file_is_empty_queue() {
        let path = tmpdir().join("empty.q");
        let _ = std::fs::remove_file(&path);
        let q = FileQueue::open(&path).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.path(), path.as_path());
        std::fs::remove_file(&path).unwrap();
    }
}
