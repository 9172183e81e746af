//! The read path: point lookups, scans, and the per-level LDC iterator.
//!
//! Readers never take the core lock. They clone the published
//! `ReadView` — one `Arc` of its parts (the current `Version`, its open
//! tables, the live memtable and the immutable memtable) plus the last
//! published sequence number — and serve the whole operation from that
//! pinned, immutable snapshot (DESIGN.md §10). A get resolves the live
//! files it probes by their position in the version, and searches the
//! blocks it reads in place.
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

use super::{Db, ReadPin, ReadView, Snapshot};
use crate::cache::{TableSet, TableSlot};
use crate::error::{Error, Result};
use crate::filter::bloom_hash;
use crate::iterator::{InternalIterator, MergingIterator};
use crate::memtable::LookupResult;
use crate::table::BlockHit;
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
            .map(Found::into_vec))
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
        Ok(self.get_with_seq(key, None)?.map(Found::into_vec))
    }

    /// Zero-copy point lookup at the latest sequence number: an SSTable
    /// hit returns a handle into the cached block instead of copying the
    /// value. Copy at the boundary that needs an owned buffer.
    pub fn get_pinned(&self, key: &[u8]) -> Result<Option<PinnedValue>> {
        Ok(self.get_with_seq(key, None)?.map(Found::into_pinned))
    }

    /// The shared get path. `seq: None` reads at the latest *published*
    /// sequence (the view's); holding no locks, it pins a view and serves
    /// the whole lookup from it.
    fn get_with_seq(&self, key: &[u8], seq: Option<SequenceNumber>) -> Result<Option<Found>> {
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
    /// them. Tables resolve through the view's own open-table set; the
    /// Bloom skips are counted once, after the search.
    pub(super) fn get_internal(
        &self,
        view: &ReadView,
        key: &[u8],
        snapshot: SequenceNumber,
        trace: Option<&mut TraceCtx>,
    ) -> Result<Option<Found>> {
        let mut skips = 0;
        let found = self.search(view, key, snapshot, trace, &mut skips);
        if skips > 0 {
            self.bloom_skips.fetch_add(skips, Ordering::Relaxed);
        }
        found
    }

    fn search(
        &self,
        view: &ReadView,
        key: &[u8],
        snapshot: SequenceNumber,
        mut trace: Option<&mut TraceCtx>,
        skips: &mut u64,
    ) -> Result<Option<Found>> {
        let probe = SeekKey::new(key, snapshot);
        let probe = probe.as_slice();
        let hash = bloom_hash(key);
        let parts = view.parts.as_ref();
        let tables = parts.tables.as_ref();
        for mem in std::iter::once(&parts.mem).chain(&parts.imm) {
            match mem.get_probe(probe, hash) {
                LookupResult::Found(v) => return Ok(Some(Found::Inline(v))),
                LookupResult::Deleted => return Ok(None),
                LookupResult::NotFound => {}
            }
        }
        let mut probe_table = |slot: &TableSlot, trace: Option<&mut TraceCtx>| {
            self.probe_table(tables, slot, probe, hash, trace, skips)
        };

        // Level 0: files may overlap, and (with the tiered policy) file
        // numbers do not imply data age, so gather every covering file's
        // hit and keep the highest sequence. Frozen L0 data is reachable
        // via L1 slices and is guaranteed older than any active L0 file
        // (the LDC policy freezes oldest-first).
        let mut best: Option<BlockHit> = None;
        let l0 = parts
            .version
            .levels
            .first()
            .map(Vec::as_slice)
            .unwrap_or_default();
        for (j, meta) in l0.iter().enumerate().rev() {
            if !meta.overlaps_ukeys(key, key) {
                continue;
            }
            let hit = probe_table(tables.level_slot(0, j)?, trace.as_deref_mut())?;
            keep_newest(&mut best, hit);
        }
        if let Some(hit) = best {
            return Ok(live_value(hit));
        }

        // Deeper levels: one candidate file per level (responsible-range
        // partition); resolve file-vs-slices by sequence number. Slices
        // come first (they are newer on average, enabling bloom skips to
        // keep this cheap), then the file itself, found by position.
        for (level, files) in parts.version.levels.iter().enumerate().skip(1) {
            let Some((j, candidate)) =
                responsible_file(files, key).and_then(|j| Some((j, files.get(j)?)))
            else {
                continue;
            };
            let mut best: Option<BlockHit> = None;
            for number in candidate.probes(key) {
                let slot = if number == candidate.number {
                    tables.level_slot(level, j)?
                } else {
                    tables.slot(number)?
                };
                keep_newest(&mut best, probe_table(slot, trace.as_deref_mut())?);
            }
            if let Some(hit) = best {
                return Ok(live_value(hit));
            }
        }
        Ok(None)
    }

    /// Bloom-checked point probe of `slot`'s table, opened through
    /// `tables` if it is not yet, with the seek key `probe`, whose user key
    /// hashes to `hash`; a Bloom negative adds one to `skips`. A hit keeps
    /// the cached block that holds the value.
    ///
    /// With tracing on, any probe that cost virtual time becomes a
    /// [`Blame::CacheMissIo`] span (cache hits and bloom skips are free in
    /// virtual time, so they produce no span), with the portion spent in
    /// transient-read backoff carved out as [`Blame::Retry`].
    fn probe_table(
        &self,
        tables: &TableSet,
        slot: &TableSlot,
        probe: &[u8],
        hash: u32,
        trace: Option<&mut TraceCtx>,
        skips: &mut u64,
    ) -> Result<Option<BlockHit>> {
        let (t0, retry0) = if trace.is_some() {
            (self.device.clock().now(), self.metrics.retry_backoff_ns())
        } else {
            (0, 0)
        };
        let table = tables.handle(slot)?;
        let result = if !table.may_contain_hash(hash) {
            *skips += 1;
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
        let parts = view.parts.as_ref();
        let mut children: Vec<Box<dyn InternalIterator + '_>> = Vec::new();
        children.push(Box::new(parts.mem.iter()));
        if let Some(imm) = &parts.imm {
            children.push(Box::new(imm.iter()));
        }
        let tables = parts.tables.as_ref();
        for meta in parts.version.levels.first().into_iter().flatten().rev() {
            children.push(Box::new(tables.table(meta.number)?.iter(IoClass::UserRead)));
        }
        for level in 1..parts.version.num_levels() {
            let files = match parts.version.levels.get(level) {
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

/// A value returned by the pinned get path without copying it out of the
/// block cache. `Block` keeps the decoded SSTable block alive for as long
/// as the handle exists; `Inline` carries a memtable hit (the skiplist
/// arena cannot be pinned across the lock, so those bytes are copied
/// once). Copy to an owned `Vec` only at the API boundary that needs one.
#[derive(Debug, Clone)]
pub enum PinnedValue {
    /// A value copied out of the (im)mutable memtable.
    Inline(Vec<u8>),
    /// A zero-copy slice of a cached, immutable SSTable block.
    Block(Bytes),
}

impl PinnedValue {
    /// The value bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            PinnedValue::Inline(v) => v,
            PinnedValue::Block(b) => b,
        }
    }

    /// Copies (or moves, for `Inline`) the value into an owned vector.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            PinnedValue::Inline(v) => v,
            PinnedValue::Block(b) => b.to_vec(),
        }
    }

    /// Value length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl AsRef<[u8]> for PinnedValue {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// The value a get found: copied out of a memtable, or in the cached block
/// of the table that holds it. `Db::get` copies the value straight out of
/// the block; `Db::get_pinned` hands out a handle to it.
pub(super) enum Found {
    Inline(Vec<u8>),
    Block(BlockHit),
}

impl Found {
    fn into_vec(self) -> Vec<u8> {
        match self {
            Found::Inline(v) => v,
            Found::Block(hit) => hit.value().to_vec(),
        }
    }

    pub(super) fn into_pinned(self) -> PinnedValue {
        match self {
            Found::Inline(v) => PinnedValue::Inline(v),
            Found::Block(hit) => PinnedValue::Block(hit.value_bytes()),
        }
    }
}

/// Replaces `best` with `hit` when `hit` is the newer version.
fn keep_newest(best: &mut Option<BlockHit>, hit: Option<BlockHit>) {
    if let Some(hit) = hit {
        if best.as_ref().is_none_or(|b| hit.seq > b.seq) {
            *best = Some(hit);
        }
    }
}

/// What a get returns for the newest visible version: its value, or nothing
/// when that version is a tombstone.
fn live_value(hit: BlockHit) -> Option<Found> {
    match hit.vt {
        ValueType::Value => Some(Found::Block(hit)),
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
