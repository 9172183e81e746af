//! The read path: point lookups, scans, and the per-level LDC iterator.
//!
//! Readers never take the core lock. They clone the published
//! [`ReadView`] — `Arc`s to the current `Version`, the live memtable,
//! and the immutable memtable, plus the last published sequence number —
//! and serve the whole operation from that pinned, immutable snapshot
//! (DESIGN.md §10).
//!
//! ## LDC-specific read semantics
//!
//! Frozen files (removed from their level by a *link*) are reachable only
//! through the slice links attached to lower-level files. Within a level,
//! lookups gather every candidate version — the file's own entry plus any
//! covering slices — and keep the one with the highest sequence number;
//! across levels, search stops at the first level that produced a result
//! (upper levels always hold newer data). For this to hold at Level 0,
//! policies must freeze the *oldest* Level-0 file first; see
//! `CompactionTask::Link`.
//!
//! ## Responsible ranges
//!
//! When linking a file down to level `L+1`, the target files partition the
//! whole key space by "responsible ranges": file `j` owns
//! `(prev.largest, largest_j]`, the first file's range extends to -inf and
//! the last file's to +inf (paper Example 3.2). Because every slice is
//! scoped to a responsible range and LDC-merge outputs stay within it, slice
//! ranges on distinct files never overlap — which keeps both point reads
//! and range scans single-candidate per level. The partition
//! ([`responsible_file`], [`scan_start`]) and what a linked file reads as
//! ([`FileMeta::probes`], [`FileMeta::sources`]) live in `version/meta.rs`;
//! `TableSet::file_iter` merges the sources for a scan.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use ldc_obs::{Blame, OpType, TraceCtx};
use ldc_ssd::{IoClass, TimeCategory};

use super::{Db, PinnedValue, ReadPin, ReadView, Snapshot};
use crate::cache::TableSet;
use crate::error::{Error, Result};
use crate::filter::bloom_hash;
use crate::iterator::{InternalIterator, MergingIterator};
use crate::memtable::LookupResult;
use crate::types::{
    encode_internal_key, parse_trailer, user_key, SeekKey, SequenceNumber, ValueType, MAX_SEQUENCE,
    TYPE_FOR_SEEK,
};
use crate::version::{responsible_file, scan_start, FileMeta};

impl Db {
    /// Point lookup as of a pinned snapshot.
    pub fn get_at(&self, key: &[u8], snapshot: &Snapshot) -> Result<Option<Vec<u8>>> {
        Ok(self
            .get_with_seq(key, Some(snapshot.seq))?
            .map(PinnedValue::into_vec))
    }

    /// Range scan as of a pinned snapshot.
    pub fn scan_at(
        &self,
        start: &[u8],
        limit: usize,
        snapshot: &Snapshot,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_with_seq(start, limit, Some(snapshot.seq))
    }

    /// Point lookup at the latest sequence number.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.get_with_seq(key, None)?.map(PinnedValue::into_vec))
    }

    /// Zero-copy point lookup at the latest sequence number: an SSTable
    /// hit returns a handle into the cached block instead of copying the
    /// value. Copy at the boundary that needs an owned buffer.
    pub fn get_pinned(&self, key: &[u8]) -> Result<Option<PinnedValue>> {
        self.get_with_seq(key, None)
    }

    /// The shared get path. `seq: None` reads at the latest *published*
    /// sequence (the view's); holding no locks, it pins a view and serves
    /// the whole lookup from it.
    fn get_with_seq(&self, key: &[u8], seq: Option<SequenceNumber>) -> Result<Option<PinnedValue>> {
        self.read_op(OpType::Get, &self.gets, seq, |view, snapshot, trace| {
            self.get_internal(view, key, snapshot, trace)
        })
    }

    /// The envelope every foreground read runs in: op counter (which the
    /// next pick reads, see [`Db::pick_task`]), trace, read pin, the
    /// read-contention charge, the Table-I `ForegroundRead` ledger entry
    /// and the op's virtual latency. `body` is one attempt against a
    /// pinned view; a failed read is charged and recorded like a
    /// successful one.
    fn read_op<T>(
        &self,
        op: OpType,
        counter: &AtomicU64,
        seq: Option<SequenceNumber>,
        mut body: impl FnMut(&ReadView, SequenceNumber, Option<&mut TraceCtx>) -> Result<T>,
    ) -> Result<T> {
        counter.fetch_add(1, Ordering::Relaxed);
        let start = self.device.clock().now();
        let mut ctx = self.trace_start(op, start);
        let fs_before = self.device.ledger().get(TimeCategory::FileSystem);
        let _pin = ReadPin::new(&self.read_pins);
        // Quarantine-retry loop: each successful quarantine publishes a
        // shrunken version, so re-pinning the view lands the retry on the
        // surviving files. Bounded by the number of live files.
        let result = loop {
            let view = { self.view.read().clone() };
            let snapshot = seq.unwrap_or(view.seq);
            match body(&view, snapshot, ctx.as_mut()) {
                Err(Error::Corruption(info)) => {
                    if !self.quarantine_corruption(&info)? {
                        break Err(Error::Corruption(info));
                    }
                }
                other => break other,
            }
        };
        let cont_t0 = if ctx.is_some() {
            self.device.clock().now()
        } else {
            0
        };
        self.lane.charge_read_contention(self.device.clock(), start);
        let end = self.device.clock().now();
        if let Some(t) = ctx.as_mut() {
            if end > cont_t0 {
                t.span(Blame::CompactionInterference, "bg_contention", cont_t0, end);
            }
        }
        let fs_delta = self
            .device
            .ledger()
            .get(TimeCategory::FileSystem)
            .saturating_sub(fs_before);
        let elapsed = end.saturating_sub(start);
        self.device.ledger().record(
            TimeCategory::ForegroundRead,
            elapsed.saturating_sub(fs_delta),
        );
        self.metrics.record_latency(op, elapsed);
        self.trace_finish(ctx, end);
        result
    }

    /// One attempt of a point read against a pinned view. The seek key (on
    /// the stack when it fits) and the Bloom hash of `key` are built here,
    /// once, and every memtable and table the lookup visits is asked with
    /// them. Tables resolve through the view's own open-table set.
    pub(super) fn get_internal(
        &self,
        view: &ReadView,
        key: &[u8],
        snapshot: SequenceNumber,
        mut trace: Option<&mut TraceCtx>,
    ) -> Result<Option<PinnedValue>> {
        let probe = SeekKey::new(key, snapshot);
        let probe = probe.as_slice();
        let hash = bloom_hash(key);
        let tables = view.tables.as_ref();
        for mem in std::iter::once(&view.mem).chain(&view.imm) {
            match mem.get_probe(probe, hash) {
                LookupResult::Found(v) => return Ok(Some(PinnedValue::Inline(v))),
                LookupResult::Deleted => return Ok(None),
                LookupResult::NotFound => {}
            }
        }

        // Level 0: files may overlap, and (with the tiered policy) file
        // numbers do not imply data age, so gather every covering file's
        // hit and keep the highest sequence. Frozen L0 data is reachable
        // via L1 slices and is guaranteed older than any active L0 file
        // (the LDC policy freezes oldest-first).
        let mut best: Option<TableHit> = None;
        for meta in view.version.levels.first().into_iter().flatten().rev() {
            if !meta.overlaps_ukeys(key, key) {
                continue;
            }
            let hit = self.probe_table(tables, meta.number, probe, hash, trace.as_deref_mut())?;
            keep_newest(&mut best, hit);
        }
        if let Some(hit) = best {
            return Ok(live_value(hit));
        }

        // Deeper levels: one candidate file per level (responsible-range
        // partition); resolve file-vs-slices by sequence number. Slices
        // come first (they are newer on average, enabling bloom skips to
        // keep this cheap), then the file itself.
        for files in view.version.levels.iter().skip(1) {
            let Some(candidate) = responsible_file(files, key).and_then(|j| files.get(j)) else {
                continue;
            };
            let mut best: Option<TableHit> = None;
            for number in candidate.probes(key) {
                let hit = self.probe_table(tables, number, probe, hash, trace.as_deref_mut())?;
                keep_newest(&mut best, hit);
            }
            if let Some(hit) = best {
                return Ok(live_value(hit));
            }
        }
        Ok(None)
    }

    /// Bloom-checked point probe of table `file_number`, opened through
    /// `tables` if it is not yet, with the seek key `probe`, whose user key
    /// hashes to `hash`. The returned value is a zero-copy handle into the
    /// table's cached block.
    ///
    /// With tracing on, any probe that cost virtual time becomes a
    /// [`Blame::CacheMissIo`] span (cache hits and bloom skips are free in
    /// virtual time, so they produce no span), with the portion spent in
    /// transient-read backoff carved out as [`Blame::Retry`].
    fn probe_table(
        &self,
        tables: &TableSet,
        file_number: u64,
        probe: &[u8],
        hash: u32,
        trace: Option<&mut TraceCtx>,
    ) -> Result<Option<TableHit>> {
        let (t0, retry0) = if trace.is_some() {
            (self.device.clock().now(), self.metrics.retry_backoff_ns())
        } else {
            (0, 0)
        };
        let table = tables.table(file_number)?;
        let result = if !table.may_contain_hash(hash) {
            self.bloom_skips.fetch_add(1, Ordering::Relaxed);
            Ok(None)
        } else {
            table.get_probe(probe, IoClass::UserRead)
        };
        if let Some(t) = trace {
            let now = self.device.clock().now();
            if now > t0 {
                t.span(Blame::CacheMissIo, "table_probe", t0, now);
                t.carve_from_last(
                    Blame::Retry,
                    "retry_backoff",
                    self.metrics.retry_backoff_ns().saturating_sub(retry0),
                );
            }
        }
        result
    }

    /// Range scan: up to `limit` live entries with key >= `start`.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_with_seq(start, limit, None)
    }

    fn scan_with_seq(
        &self,
        start: &[u8],
        limit: usize,
        seq: Option<SequenceNumber>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.read_op(OpType::Scan, &self.scans, seq, |view, snapshot, trace| {
            let (io_t0, retry0) = if trace.is_some() {
                (self.device.clock().now(), self.metrics.retry_backoff_ns())
            } else {
                (0, 0)
            };
            let attempt = self.scan_collect(view, start, limit, snapshot);
            if let Some(t) = trace {
                let now = self.device.clock().now();
                if now > io_t0 {
                    t.span(Blame::CacheMissIo, "scan_io", io_t0, now);
                    t.carve_from_last(
                        Blame::Retry,
                        "retry_backoff",
                        self.metrics.retry_backoff_ns().saturating_sub(retry0),
                    );
                }
            }
            attempt
        })
    }

    /// The merging-iterator body of a scan, separated out so the quarantine
    /// retry wrapper can re-run it against a re-pinned (shrunken) view.
    fn scan_collect(
        &self,
        view: &ReadView,
        start: &[u8],
        limit: usize,
        snapshot: SequenceNumber,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut children: Vec<Box<dyn InternalIterator + '_>> = Vec::new();
        children.push(Box::new(view.mem.iter()));
        if let Some(imm) = &view.imm {
            children.push(Box::new(imm.iter()));
        }
        let tables = view.tables.as_ref();
        for meta in view.version.levels.first().into_iter().flatten().rev() {
            children.push(Box::new(tables.table(meta.number)?.iter(IoClass::UserRead)));
        }
        for level in 1..view.version.num_levels() {
            let files = match view.version.levels.get(level) {
                Some(files) if !files.is_empty() => files.as_slice(),
                _ => continue,
            };
            children.push(Box::new(LevelIter::new(tables, files, IoClass::UserRead)));
        }
        let mut merge = MergingIterator::new(children);
        merge.seek(&encode_internal_key(start, MAX_SEQUENCE, TYPE_FOR_SEEK));
        let mut out = Vec::with_capacity(limit.min(4096));
        let mut last_ukey: Option<Vec<u8>> = None;
        while merge.valid() && out.len() < limit {
            let ikey = merge.key();
            let (entry_seq, vt) = parse_trailer(ikey);
            let ukey = user_key(ikey);
            let visible = entry_seq <= snapshot;
            let shadowed = last_ukey.as_deref() == Some(ukey);
            if visible && !shadowed {
                // One buffer for the whole scan, not one per user key.
                let last = last_ukey.get_or_insert_with(Vec::new);
                last.clear();
                last.extend_from_slice(ukey);
                if vt == ValueType::Value {
                    out.push((ukey.to_vec(), merge.value().to_vec()));
                }
            }
            merge.next();
        }
        merge.status()?;
        Ok(out)
    }
}

/// What a table probe found: the entry's sequence and type, and its value as
/// a handle into the cached block.
type TableHit = (SequenceNumber, ValueType, Bytes);

/// Replaces `best` with `hit` when `hit` is the newer version.
fn keep_newest(best: &mut Option<TableHit>, hit: Option<TableHit>) {
    if let Some(hit) = hit {
        if best.as_ref().is_none_or(|b| hit.0 > b.0) {
            *best = Some(hit);
        }
    }
}

/// What a get returns for the newest visible version: its value, or nothing
/// when that version is a tombstone.
fn live_value((_, vt, value): TableHit) -> Option<PinnedValue> {
    match vt {
        ValueType::Value => Some(PinnedValue::Block(value)),
        ValueType::Deletion => None,
    }
}

/// Lazily walks one level's files in key order, merging each file with its
/// slice links (the LDC read path for scans). Borrows its file list and
/// open tables from the pinned view it was constructed with, so a
/// concurrent compaction cannot change what it iterates.
struct LevelIter<'a> {
    tables: &'a TableSet,
    files: &'a [FileMeta],
    class: IoClass,
    idx: usize,
    cur: Option<MergingIterator<'static>>,
    error: Option<Error>,
}

impl<'a> LevelIter<'a> {
    fn new(tables: &'a TableSet, files: &'a [FileMeta], class: IoClass) -> Self {
        Self {
            tables,
            files,
            class,
            idx: 0,
            cur: None,
            error: None,
        }
    }

    fn open_current(&mut self) {
        self.cur = None;
        let Some(meta) = self.files.get(self.idx) else {
            return;
        };
        match self.tables.file_iter(meta, self.class) {
            Ok(m) => self.cur = Some(m),
            Err(e) => self.error = Some(e),
        }
    }

    fn advance_until_valid(&mut self) {
        loop {
            if self.error.is_some() {
                return;
            }
            match &self.cur {
                Some(m) if m.valid() => return,
                _ => {}
            }
            self.idx += 1;
            if self.idx >= self.files.len() {
                self.cur = None;
                return;
            }
            self.open_current();
            if let Some(m) = self.cur.as_mut() {
                m.seek_to_first();
            }
        }
    }
}

impl InternalIterator for LevelIter<'_> {
    fn valid(&self) -> bool {
        self.error.is_none() && self.cur.as_ref().map(|m| m.valid()).unwrap_or(false)
    }

    fn seek_to_first(&mut self) {
        self.idx = 0;
        self.open_current();
        if let Some(m) = self.cur.as_mut() {
            m.seek_to_first();
        }
        self.advance_until_valid();
    }

    fn seek(&mut self, target: &[u8]) {
        let Some(idx) = scan_start(self.files, user_key(target)) else {
            self.cur = None;
            self.idx = self.files.len();
            return;
        };
        self.idx = idx;
        self.open_current();
        if let Some(m) = self.cur.as_mut() {
            m.seek(target);
        }
        self.advance_until_valid();
    }

    fn next(&mut self) {
        if let Some(m) = self.cur.as_mut() {
            if m.valid() {
                m.next();
            }
        }
        self.advance_until_valid();
    }

    fn key(&self) -> &[u8] {
        // Contract: only called while `valid()`; empty when misused.
        self.cur.as_ref().map(|m| m.key()).unwrap_or_default()
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().map(|m| m.value()).unwrap_or_default()
    }

    fn status(&self) -> Result<()> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if let Some(m) = &self.cur {
            m.status()?;
        }
        Ok(())
    }
}
