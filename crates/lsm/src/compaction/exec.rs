//! The one compaction executor: **plan → run → install**.
//!
//! Every [`CompactionTask`] — and the memtable flush, which has the same
//! shape minus the plan — goes through three stages, whichever thread
//! drives them:
//!
//! 1. [`plan`] is pure. It resolves the task's file numbers against one
//!    [`Version`], validates the shape once (level, slice links, liveness),
//!    and fixes everything later stages need: input metadata, the input
//!    set and per-level key-range claims a worker registers for conflict
//!    tracking, the merge parameters, and the event descriptor. A task
//!    that no longer matches the version is [`Stale`]. A `Link`'s targets
//!    ([`link_targets`]) and an `LdcMerge`'s inputs
//!    ([`FileMeta::sources`]) come from `version/meta.rs`.
//! 2. [`Db::run`] does the I/O and touches no engine state: it opens the
//!    inputs (an `LdcMerge` through `TableSet::file_iter`, as a level scan
//!    does), drives the merge loop, and writes output tables. File
//!    numbers come through an allocator handle, so the stage works the
//!    same under a held core lock (inline) and without one (worker).
//!    `TrivialMove` and `Link` have an empty run stage.
//! 3. [`Db::install`] is the only place a compaction `VersionEdit` is
//!    built and the only place its bookkeeping happens — dropped tables,
//!    stats, the Table-I compaction-time ledger, the event, the level
//!    gauges — and where Algorithm 1's refcount reclaim lives.
//!    [`Db::install_flush`] is its counterpart for the flush edit.
//!
//! The two drivers — the inline lane (`db/lane.rs`) and the worker pool
//! (`crate::scheduler`) — differ only in how they hold the core lock
//! around these calls; see DESIGN.md §15.

use std::collections::HashMap;
use std::sync::Arc;

use ldc_obs::{Event, EventKind};
use ldc_ssd::{IoClass, Nanos, TimeCategory};

use crate::cache::TableSet;
use crate::compaction::CompactionTask;
use crate::db::{Db, DbCore, DbStats};
use crate::error::{Error, Result};
use crate::iterator::{InternalIterator, MergingIterator};
use crate::memtable::MemTable;
use crate::table::{FinishedTable, TableBuilder, BLOCK_RESTART_INTERVAL};
use crate::types::{parse_trailer, user_key, KeyRange, SequenceNumber, ValueType};
use crate::version::{link_targets, table_file_name, FileMeta, SliceLink, Version, VersionEdit};

/// Why a picked task no longer matches the version it was planned
/// against: an input vanished, moved, or changed its slice-link state.
/// Inline that is a policy bug and surfaces as [`Error::InvalidState`];
/// a worker racing a concurrent install or quarantine drops the pick.
#[derive(Debug)]
pub(crate) struct Stale(pub(crate) String);

pub(crate) type Planning<T> = std::result::Result<T, Stale>;

/// What a task is about to do, for the event emitted at install.
#[derive(Debug, Clone, Copy)]
struct TaskDescriptor {
    kind: EventKind,
    output_level: usize,
    input_files: usize,
    input_bytes: u64,
}

/// A task resolved against a version: its input metadata by role.
#[derive(Debug)]
pub(crate) enum Shape {
    /// `upper` at `level` merges into `lower` at `level + 1`.
    Merge {
        upper: Vec<FileMeta>,
        lower: Vec<FileMeta>,
    },
    /// Level-0 runs combine into one bigger Level-0 run.
    Tiered { files: Vec<FileMeta> },
    /// `file` is rewritten with all its slices; outputs stay at `level`.
    Ldc { file: FileMeta },
    /// `file` moves to `level + 1` (also a `Link` with nothing below it).
    TrivialMove { file: FileMeta },
    /// `file` is frozen and one slice is attached per target at `level + 1`.
    Link {
        file: FileMeta,
        targets: Vec<(u64, KeyRange)>,
    },
}

/// The output of [`plan`]: everything [`Db::run`] and [`Db::install`]
/// need, fixed at plan time.
#[derive(Debug)]
pub(crate) struct Planned {
    shape: Shape,
    /// The open tables of the version the task was planned against; the
    /// run stage opens its inputs through them.
    tables: Arc<TableSet>,
    /// The task's (upper) input level.
    pub(crate) level: usize,
    desc: TaskDescriptor,
    /// Every table the task reads, live or frozen — the set a worker
    /// claims so no two jobs share an input. For `Merge`/`Tiered` this is
    /// also the merge order.
    pub(crate) inputs: Vec<u64>,
    /// Inclusive `(level, lo, hi)` user-key intervals the outputs may
    /// land in. Empty for metadata-only tasks, which install under the
    /// same core-lock hold that planned them.
    pub(crate) claims: Vec<(usize, Vec<u8>, Vec<u8>)>,
    drop_tombstones: bool,
    /// Whether outputs are cut at the target SSTable size.
    split_outputs: bool,
    /// Snapshot floor at plan time — a lower bound for the whole job,
    /// since snapshots taken later are always newer.
    smallest_snapshot: SequenceNumber,
}

impl Planned {
    /// `TrivialMove` and `Link`: nothing to run, no outputs.
    pub(crate) fn metadata_only(&self) -> bool {
        matches!(self.shape, Shape::TrivialMove { .. } | Shape::Link { .. })
    }

    /// Whether every non-frozen input is still in `version`. A worker
    /// re-checks this after running without the core lock, where a
    /// quarantine may have dropped one; frozen sources cannot vanish
    /// while claimed (only an `LdcMerge` holding their last link reclaims
    /// them, and it would share the claimed input).
    pub(crate) fn inputs_live(&self, version: &Version) -> bool {
        match &self.shape {
            Shape::Ldc { file } => version.find_file(file.number).is_some(),
            _ => self.inputs.iter().all(|&n| version.find_file(n).is_some()),
        }
    }
}

/// What one run of a task (or a flush) wrote; its install turns it into
/// the task's single `VersionEdit`.
#[derive(Debug, Default)]
pub(crate) struct RunOutput {
    pub(crate) metas: Vec<FileMeta>,
    /// Virtual time spent writing output tables (Table I's write phase).
    pub(crate) write_nanos: Nanos,
}

/// When a flush or compaction task started, for the ledger and the event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskClock {
    t0: Nanos,
    fs_before: Nanos,
}

/// `number`'s metadata, provided it is live at `level` and carries slice
/// links exactly when `linked`.
fn input(version: &Version, number: u64, level: usize, linked: bool) -> Planning<FileMeta> {
    let (found, meta) = version
        .find_file(number)
        .ok_or_else(|| Stale(format!("input {number} is not live")))?;
    if found != level {
        return Err(Stale(format!(
            "input {number}: expected level {level}, found {found}"
        )));
    }
    if meta.slices.is_empty() == linked {
        let problem = if linked { "has no" } else { "carries" };
        return Err(Stale(format!("input {number} {problem} slice links")));
    }
    Ok(meta.clone())
}

fn inputs(version: &Version, numbers: &[u64], level: usize) -> Planning<Vec<FileMeta>> {
    numbers
        .iter()
        .map(|&n| input(version, n, level, false))
        .collect()
}

/// Stage 1. Resolves `task` against `version`, whose open tables are
/// `tables`; see the module docs. `smallest_snapshot` is the oldest
/// sequence a live snapshot can observe.
pub(crate) fn plan(
    version: &Version,
    tables: &Arc<TableSet>,
    task: &CompactionTask,
    smallest_snapshot: SequenceNumber,
) -> Planning<Planned> {
    // Nothing lies below it, so a tombstone that reaches it can go.
    let last_level = version.num_levels() - 1;
    let desc = |kind, output_level, read: &[&FileMeta]| TaskDescriptor {
        kind,
        output_level,
        input_files: read.len(),
        input_bytes: read.iter().map(|m| m.size).sum(),
    };
    Ok(match *task {
        CompactionTask::Merge {
            level,
            ref upper,
            ref lower,
        } => {
            let upper = inputs(version, upper, level)?;
            let lower = inputs(version, lower, level + 1)?;
            let all: Vec<&FileMeta> = upper.iter().chain(&lower).collect();
            let (lo, hi) = key_span(&all)?;
            Planned {
                level,
                desc: desc(EventKind::UdcMerge, level + 1, &all),
                inputs: all.iter().map(|m| m.number).collect(),
                claims: vec![(level, lo.clone(), hi.clone()), (level + 1, lo, hi)],
                drop_tombstones: level + 1 == last_level,
                split_outputs: true,
                smallest_snapshot,
                tables: Arc::clone(tables),
                shape: Shape::Merge { upper, lower },
            }
        }
        // The size-tiered baseline's intra-L0 merge is reported as a
        // (generic) merge event at level 0. No tombstone dropping (deeper
        // levels may hold older versions), no output splitting (tiers grow).
        CompactionTask::TieredMerge { ref files } => {
            let files = inputs(version, files, 0)?;
            let all: Vec<&FileMeta> = files.iter().collect();
            let (lo, hi) = key_span(&all)?;
            Planned {
                level: 0,
                desc: desc(EventKind::UdcMerge, 0, &all),
                inputs: all.iter().map(|m| m.number).collect(),
                claims: vec![(0, lo, hi)],
                drop_tombstones: false,
                split_outputs: false,
                smallest_snapshot,
                tables: Arc::clone(tables),
                shape: Shape::Tiered { files },
            }
        }
        CompactionTask::LdcMerge { level, file } => {
            let file = input(version, file, level, true)?;
            let mut inputs: Vec<u64> = file.sources().map(|(number, _)| number).collect();
            inputs.sort_unstable();
            inputs.dedup();
            let mut desc = desc(EventKind::LdcMerge, level, &[&file]);
            desc.input_files = file.sources().count();
            desc.input_bytes += file.slice_bytes();
            // Outputs replace `file` within its responsible range, so
            // claiming the file's own span excludes same-level writers;
            // shared frozen sources are excluded via `inputs`.
            let (lo, hi) = key_span(&[&file])?;
            Planned {
                level,
                desc,
                inputs,
                claims: vec![(level, lo, hi)],
                drop_tombstones: level == last_level,
                split_outputs: true,
                smallest_snapshot,
                tables: Arc::clone(tables),
                shape: Shape::Ldc { file },
            }
        }
        CompactionTask::TrivialMove { level, file } | CompactionTask::Link { level, file } => {
            let file = input(version, file, level, false)?;
            let lower = version
                .levels
                .get(level + 1)
                .ok_or_else(|| Stale(format!("no level below {level}")))?;
            let (kind, targets) = match task {
                CompactionTask::Link { .. } => {
                    let targets = link_targets(lower, file.smallest_ukey(), file.largest_ukey());
                    (EventKind::LdcLink, targets)
                }
                _ => (EventKind::TrivialMove, Vec::new()),
            };
            Planned {
                level,
                desc: desc(kind, level + 1, &[&file]),
                inputs: vec![file.number],
                claims: Vec::new(),
                drop_tombstones: false,
                split_outputs: true,
                smallest_snapshot,
                tables: Arc::clone(tables),
                // A link with nothing to link against degenerates to a
                // trivial move (still reported as a link event).
                shape: if targets.is_empty() {
                    Shape::TrivialMove { file }
                } else {
                    Shape::Link { file, targets }
                },
            }
        }
    })
}

/// The closed user-key span covered by `metas`.
fn key_span(metas: &[&FileMeta]) -> Planning<(Vec<u8>, Vec<u8>)> {
    let lo = metas.iter().map(|m| m.smallest_ukey()).min();
    let hi = metas.iter().map(|m| m.largest_ukey()).max();
    match (lo, hi) {
        (Some(lo), Some(hi)) => Ok((lo.to_vec(), hi.to_vec())),
        _ => Err(Stale("task names no input files".to_string())),
    }
}

impl Db {
    /// Starts the clock on one flush or compaction task.
    pub(crate) fn task_clock(&self) -> TaskClock {
        TaskClock {
            t0: self.device.clock().now(),
            fs_before: self.device.ledger().get(TimeCategory::FileSystem),
        }
    }

    /// Books the virtual time since `clock` started, minus file-system
    /// time, as Table I's compaction work.
    pub(crate) fn record_compaction_time(&self, clock: TaskClock) {
        let ledger = self.device.ledger();
        let fs_delta = ledger
            .get(TimeCategory::FileSystem)
            .saturating_sub(clock.fs_before);
        let elapsed = self.device.clock().now().saturating_sub(clock.t0);
        ledger.record(
            TimeCategory::CompactionWork,
            elapsed.saturating_sub(fs_delta),
        );
    }

    /// Stage 2. Merges the planned inputs into output tables numbered by
    /// `alloc`. Touches no engine state: the caller may or may not hold
    /// the core lock, and says so through `alloc`.
    pub(crate) fn run(
        &self,
        planned: &Planned,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<RunOutput> {
        let class = IoClass::CompactionRead;
        let tables = &planned.tables;
        let merge = match &planned.shape {
            Shape::TrivialMove { .. } | Shape::Link { .. } => return Ok(RunOutput::default()),
            Shape::Ldc { file } => tables.file_iter(file, class)?,
            Shape::Merge { .. } | Shape::Tiered { .. } => {
                let mut inputs: Vec<Box<dyn InternalIterator>> = Vec::new();
                for &n in &planned.inputs {
                    inputs.push(Box::new(tables.table(n)?.iter(class)));
                }
                MergingIterator::new(inputs)
            }
        };
        let mut out = RunOutput::default();
        self.merge_entries(merge, planned, &mut |finished| {
            self.write_table(finished, IoClass::CompactionWrite, alloc, &mut out)
        })?;
        Ok(out)
    }

    /// The merge loop proper: walks `merge`, deduplicates by user key
    /// (newest wins), and emits output tables cut at the target file
    /// size — only at user-key boundaries, so level files never share a
    /// user key. The kept-entry decisions depend only on the input stream
    /// and `smallest_snapshot`: the shadowing state `last_kept_seq` resets
    /// at every user-key boundary, and file cuts happen only there.
    fn merge_entries(
        &self,
        mut merge: MergingIterator<'_>,
        planned: &Planned,
        emit: &mut dyn FnMut(FinishedTable) -> Result<()>,
    ) -> Result<()> {
        // Versions above `smallest_snapshot` are never dropped: the oldest
        // live snapshot (or the sequence current at planning time when
        // none is held) can still observe them.
        let smallest_snapshot = planned.smallest_snapshot;
        merge.seek_to_first();
        let mut builder: Option<TableBuilder> = None;
        let mut last_ukey: Option<Vec<u8>> = None;
        // Sequence of the last kept entry for the current user key; MAX
        // means "none kept yet".
        let mut last_kept_seq = SequenceNumber::MAX;
        while merge.valid() {
            let ikey = merge.key();
            let ukey = user_key(ikey);
            let changed_ukey = last_ukey.as_deref() != Some(ukey);
            if changed_ukey {
                // One buffer for the whole merge, not one per user key.
                let last = last_ukey.get_or_insert_with(Vec::new);
                last.clear();
                last.extend_from_slice(ukey);
                last_kept_seq = SequenceNumber::MAX;
                // Cut the output file at user-key boundaries.
                if let Some(b) = builder.take() {
                    if planned.split_outputs
                        && b.estimated_file_bytes() >= self.options.sstable_bytes
                    {
                        emit(b.finish())?;
                    } else {
                        builder = Some(b);
                    }
                }
            }
            // LevelDB's snapshot-aware shadowing rule: an entry is dead if
            // a newer entry for the same user key was already kept at a
            // sequence every live snapshot can see.
            let (seq, vt) = parse_trailer(ikey);
            let shadowed =
                last_kept_seq != SequenceNumber::MAX && last_kept_seq <= smallest_snapshot;
            let drop_tombstone = vt == ValueType::Deletion
                && planned.drop_tombstones
                && seq <= smallest_snapshot
                && last_kept_seq == SequenceNumber::MAX;
            if !shadowed && !drop_tombstone {
                let b = builder.get_or_insert_with(|| self.table_builder(planned.desc.input_bytes));
                b.add(ikey, merge.value());
                last_kept_seq = seq;
            }
            merge.next();
        }
        merge.status()?;
        if let Some(b) = builder {
            if !b.is_empty() {
                emit(b.finish())?;
            }
        }
        Ok(())
    }

    /// A builder with the image of one table reserved: outputs are cut at
    /// `sstable_bytes` on the next user-key boundary, and the entry that
    /// crosses the line, the filter, the index and the footer come on top.
    /// A task whose whole input is smaller reserves no more than that.
    fn table_builder(&self, input_bytes: u64) -> TableBuilder {
        let cut = self.options.sstable_bytes;
        let input = usize::try_from(input_bytes).unwrap_or(usize::MAX);
        TableBuilder::with_capacity(
            self.options.block_bytes,
            BLOCK_RESTART_INTERVAL,
            self.options.bloom_bits_per_key,
            cut.saturating_add(cut / 8).min(input),
        )
    }

    /// Writes one sealed table under the next number from `alloc` and
    /// appends it to `out`. The file is garbage until the version edit
    /// that links it; a torn or uninstalled one is an orphan, reclaimed
    /// by `repair_db`.
    fn write_table(
        &self,
        finished: FinishedTable,
        class: IoClass,
        alloc: &mut dyn FnMut() -> u64,
        out: &mut RunOutput,
    ) -> Result<()> {
        let number = alloc();
        let name = table_file_name(number);
        let t0 = self.device.clock().now();
        // Off the foreground thread, stream the table out so concurrent
        // reads interleave with it; the deterministic inline mode keeps
        // its single atomic write.
        if self.scheduler.active() {
            self.write_table_chunked(&name, &finished.bytes, class)?;
        } else {
            self.storage.write_file(&name, &finished.bytes, class)?;
        }
        out.write_nanos += self.device.clock().now().saturating_sub(t0);
        out.metas.push(FileMeta::new(
            number,
            finished.bytes.len() as u64,
            finished.smallest,
            finished.largest,
        ));
        Ok(())
    }

    /// Streams a table out in bounded `append` chunks followed by one
    /// `sync`. Storage locks each file on its own, so no chunk holds up a
    /// read or a WAL append of another file; the chunks and the yield
    /// between them bound how long a worker runs uninterrupted. The table
    /// stays an appended file (read by copy, not slice) until DESIGN.md
    /// §10's stale-block case for sealed pool-written tables is bounded.
    fn write_table_chunked(&self, name: &str, bytes: &[u8], class: IoClass) -> Result<()> {
        const CHUNK: usize = 256 << 10;
        // A crashed predecessor may have left an orphan at a re-allocated
        // number; appending to it would interleave two tables.
        if self.storage.exists(name) {
            self.storage.delete(name)?;
        }
        for chunk in bytes.chunks(CHUNK) {
            self.storage.append(name, chunk, class)?;
            // Hand the CPU to any foreground thread starved for a core
            // between chunks: on oversubscribed hosts the reader tail is
            // bounded by how long a worker runs uninterrupted.
            std::thread::yield_now();
        }
        self.storage.sync(name)?;
        Ok(())
    }

    /// Stage 3. Installs a finished task as one atomic `VersionEdit` and
    /// does all of its bookkeeping. The caller holds the core lock and, if
    /// it released the lock since [`plan`], has re-checked
    /// [`Planned::inputs_live`]. On error nothing was installed; outputs
    /// already written stay behind as orphans for `repair_db`.
    ///
    /// Refcounts are strict in both threading modes: an `LdcMerge` whose
    /// slice names a source missing from the version's frozen set fails
    /// with `InvalidState` instead of skipping the slice — the frozen set
    /// and the slice links are written by the same edits, so a mismatch
    /// means the metadata is already inconsistent.
    pub(crate) fn install(
        &self,
        core: &mut DbCore,
        planned: &Planned,
        out: RunOutput,
        clock: TaskClock,
    ) -> Result<()> {
        let level = planned.level as u32;
        let mut edit = VersionEdit::default();
        let mut dropped: Vec<u64> = Vec::new();
        // Each arm yields its stats counter and the files that left
        // `level`, which the round-robin cursor then moves past.
        type Counter = fn(&mut DbStats) -> &mut u64;
        let (counter, moved): (Counter, &[FileMeta]) = match &planned.shape {
            Shape::Merge { upper, lower } => {
                let deleted = upper.iter().map(|m| (level, m.number));
                edit.deleted_files
                    .extend(deleted.chain(lower.iter().map(|m| (level + 1, m.number))));
                edit.new_files
                    .extend(out.metas.iter().map(|m| (level + 1, m.clone())));
                dropped.extend(upper.iter().chain(lower).map(|m| m.number));
                (|s| &mut s.merges, upper)
            }
            Shape::Tiered { files } => {
                edit.deleted_files
                    .extend(files.iter().map(|m| (0, m.number)));
                edit.new_files
                    .extend(out.metas.iter().map(|m| (0, m.clone())));
                dropped.extend(files.iter().map(|m| m.number));
                (|s| &mut s.merges, &[])
            }
            Shape::Ldc { file } => {
                edit.deleted_files.push((level, file.number));
                edit.new_files
                    .extend(out.metas.iter().map(|m| (level, m.clone())));
                // Reference counting against the refcounts current at
                // install time: sources whose last live link was on this
                // file are reclaimed (Algorithm 1, lines 18-22).
                let frozen = &core.versions.current.frozen;
                let mut remaining: HashMap<u64, u32> = HashMap::new();
                let mut reclaimed: Vec<u64> = Vec::new();
                for slice in &file.slices {
                    let source = slice.source_file;
                    let live = frozen.get(&source).ok_or_else(|| {
                        Error::InvalidState(format!("slice source {source} is not frozen"))
                    })?;
                    let count = remaining.entry(source).or_insert(live.refcount);
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        reclaimed.push(source);
                    }
                }
                reclaimed.sort_unstable();
                reclaimed.dedup();
                dropped.push(file.number);
                dropped.extend(&reclaimed);
                edit.deleted_frozen = reclaimed;
                (|s| &mut s.ldc_merges, &[])
            }
            Shape::TrivialMove { file } => {
                edit.deleted_files.push((level, file.number));
                edit.new_files.push((level + 1, file.clone()));
                (|s| &mut s.trivial_moves, std::slice::from_ref(file))
            }
            // Algorithm 1, `link`: freeze the file and attach one slice
            // per responsible range of the overlapping lower files.
            Shape::Link { file, targets } => {
                edit.frozen_files.push((level, file.number));
                let approx_bytes = file.size / targets.len().max(1) as u64;
                for (target, range) in targets {
                    let link = SliceLink {
                        source_file: file.number,
                        range: range.clone(),
                        link_seq: core.versions.new_link_seq(),
                        approx_bytes,
                    };
                    edit.new_links.push((*target, link));
                }
                (|s| &mut s.links, std::slice::from_ref(file))
            }
        };
        if let (true, Some(hi)) = (level >= 1, moved.iter().map(|m| m.largest_ukey()).max()) {
            edit.compact_pointers.push((level, hi.to_vec()));
        }
        core.log_and_apply(edit)?;
        for n in dropped {
            self.drop_table_file(core, n);
        }
        *counter(&mut core.stats) += 1;
        self.record_compaction_time(clock);
        if self.sink.enabled() {
            let desc = planned.desc;
            let end = self.device.clock().now();
            let elapsed = end.saturating_sub(clock.t0);
            // The in-memory merge does not advance the virtual clock, so
            // its phase is 0; everything that is not output writing is
            // input reading (plus metadata, which is negligible).
            let write = out.write_nanos.min(elapsed);
            let (files, bytes) = out
                .metas
                .iter()
                .fold((0, 0), |(f, b), m| (f + 1, b + m.size));
            self.sink.record(
                Event::span(desc.kind, clock.t0, end)
                    .levels(level, desc.output_level as u32)
                    .files(desc.input_files as u32, files)
                    .bytes(desc.input_bytes, bytes)
                    .phases(elapsed - write, 0, write),
            );
        }
        Ok(())
    }

    /// The run stage of a flush: writes `mem` out as one Level-0 table
    /// (none if it is empty).
    pub(crate) fn build_l0_table(
        &self,
        mem: &MemTable,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<RunOutput> {
        let mut out = RunOutput::default();
        if mem.is_empty() {
            return Ok(out);
        }
        let mut builder = self.table_builder(mem.approximate_bytes() as u64);
        {
            // The iterator pins the memtable's list lock (rank 90); it
            // must be gone before `alloc`, which a worker backs with the
            // core (rank 60).
            let mut it = mem.iter();
            it.seek_to_first();
            while it.valid() {
                builder.add(it.key(), it.value());
                it.next();
            }
        }
        self.write_table(builder.finish(), IoClass::FlushWrite, alloc, &mut out)?;
        Ok(out)
    }

    /// The install stage of a flush: the only place the flush edit is
    /// built. Links `out`'s table (built from `mem`) into Level 0 and
    /// records `log_number`, if given, as the WAL now in use.
    pub(crate) fn install_flush(
        &self,
        core: &mut DbCore,
        mem: &MemTable,
        out: RunOutput,
        log_number: Option<u64>,
        clock: TaskClock,
    ) -> Result<()> {
        if let Some(meta) = out.metas.into_iter().next() {
            let output_bytes = meta.size;
            core.log_and_apply(VersionEdit {
                log_number,
                new_files: vec![(0, meta)],
                ..Default::default()
            })?;
            core.stats.flushes += 1;
            if self.sink.enabled() {
                let end = self.device.clock().now();
                let mut ev = Event::span(EventKind::Flush, clock.t0, end)
                    .files(0, 1)
                    .bytes(mem.approximate_bytes() as u64, output_bytes)
                    .phases(0, 0, out.write_nanos);
                ev.output_level = Some(0);
                self.sink.record(ev);
            }
        } else if log_number.is_some() {
            core.log_and_apply(VersionEdit {
                log_number,
                ..Default::default()
            })?;
        }
        self.record_compaction_time(clock);
        Ok(())
    }
}
