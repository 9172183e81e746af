//! Crash / corruption / error-injection verification harness.
//!
//! [`ChaosHarness`] runs a deterministic workload against a store built on
//! a [`FaultStorage`], injects one fault class per run, then reopens and
//! checks the surviving state against an in-memory model. Every scenario
//! is a composition of the same two stages:
//!
//! 1. **`drive`** opens a store and feeds it the seeded op stream —
//!    puts and deletes over a small key space — until the stream ends or
//!    something fails. It records what a later check is held against: the
//!    acknowledged key space, every value ever acknowledged per key, the
//!    one write that was cut short, and (for the backup pipelines, which
//!    pass a hook for the half-way mark) the key space after every
//!    acknowledged write. A fault inside `open` itself is an outcome like
//!    any other: nothing was acknowledged.
//! 2. **`recover_and_verify`** reopens the store and demands the same of
//!    every recovery: every key by point get, a full scan equal to the
//!    model, [`Version::check_invariants`], an SSTable integrity sweep, a
//!    recovery event — and then all of it again after a further clean
//!    reopen, which catches half-written metadata the first recovery
//!    papered over.
//!
//! [`Version::check_invariants`]: ldc_lsm::version::Version::check_invariants
//!
//! What a scenario adds is its fault plan, what it arms at the half-way
//! mark, and what it asserts afterwards:
//!
//! * **Crash points** ([`ChaosHarness::run_crash_point`]): power loss on
//!   the Nth mutating storage operation. With `wal_sync` on, every
//!   acknowledged write must survive exactly; the single in-flight write
//!   may land or vanish (and is checked to do one of the two).
//! * **Backup crashes** ([`ChaosHarness::run_backup_crash`]): the same
//!   power loss anywhere in checkpoint → ship; besides the primary's own
//!   recovery, a complete surviving backup must restore (and bootstrap a
//!   follower) onto the acknowledged-history prefix, an incomplete one
//!   must be refused.
//! * **Apply crashes** ([`ChaosHarness::run_apply_crash`]): the primary
//!   runs clean and the *follower's* storage loses power mid-bootstrap or
//!   mid-apply; after the documented recovery recipe it must converge on
//!   the primary exactly.
//! * **Bit flips** ([`ChaosHarness::run_bit_flip`]): one bit of a WAL,
//!   SSTable, or manifest is flipped. The store must detect the damage or
//!   mask it — it must never serve a value that was not written — and
//!   must do so again on the next reopen.
//! * **I/O errors** ([`ChaosHarness::run_io_errors`]): mutating storage
//!   operations fail with a configured probability. The first failure must
//!   latch the engine's background error (fail-stop), reads must keep
//!   working, and a clean reopen must restore exactly the acknowledged
//!   state.
//! * **Transient reads** ([`ChaosHarness::run_transient_reads`]): each
//!   file's first N reads fail and then heal; the engine's retry budget
//!   must mask them completely, recovery reads included.
//! * **Scrub → quarantine → repair**
//!   ([`ChaosHarness::run_scrub_quarantine_repair`]): the degraded-mode
//!   ladder over a bit-flipped SSTable; what the repaired store serves is
//!   never fabricated and survives two further reopens exactly.
//!
//! Every failure carries the [`FaultPlan`] and the fault journal, so a
//! red run is replayable from the `(seed, crash point)` pair alone.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ldc_core::{CompactionMode, LdcDb, LdcDbBuilder};
use ldc_lsm::backup::for_each_stream_edit;
use ldc_lsm::{
    backup_prefix, checkpoint_complete, repair_db, restore_backup, CorruptionPolicy, Options,
    RecoverySummary, RepairReport,
};
use ldc_obs::{EventKind, RingBufferSink};
use ldc_ssd::{MemStorage, SsdDevice, StorageBackend};
use ldc_sync::Follower;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::{FaultStorage, PowerCycleReport};
use crate::plan::{BitFlipTarget, FaultPlan};

/// Decorrelates the workload stream from the fault stream.
const WORKLOAD_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// Workload + engine configuration for a harness run. Two runs with equal
/// configs perform identical operations.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds both the workload and the fault plan.
    pub seed: u64,
    /// Operations the workload attempts.
    pub ops: u64,
    /// Distinct keys the workload draws from.
    pub key_space: u64,
    /// Value payload size in bytes.
    pub value_len: usize,
    /// Every Nth operation is a delete (0 disables deletes).
    pub delete_every: u64,
    /// Compaction mechanism under test.
    pub mode: CompactionMode,
    /// Engine options; `wal_sync` should stay on for crash runs.
    pub options: Options,
}

impl ChaosConfig {
    /// A small, fast configuration: enough traffic for several flushes
    /// and background compactions, seconds per run.
    pub fn quick(seed: u64, mode: CompactionMode) -> Self {
        let options = Options {
            wal_sync: true,
            ..Options::small_for_tests()
        };
        Self {
            seed,
            ops: 300,
            key_space: 64,
            value_len: 120,
            delete_every: 7,
            mode,
            options,
        }
    }
}

/// A verification failure, carrying everything needed to replay it.
#[derive(Debug)]
pub struct ChaosFailure {
    /// The plan the failing run used.
    pub plan: FaultPlan,
    /// What went wrong.
    pub detail: String,
    /// The faults the storage injected, in order.
    pub fault_log: Vec<String>,
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos failure: {}", self.detail)?;
        writeln!(f, "replay plan: {}", self.plan)?;
        writeln!(
            f,
            "replay: ChaosHarness::new(ChaosConfig {{ seed: {}, .. }}) with the plan above",
            self.plan.seed
        )?;
        if self.fault_log.is_empty() {
            write!(f, "faults injected: none")
        } else {
            writeln!(f, "faults injected:")?;
            for (i, line) in self.fault_log.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "  {line}")?;
            }
            Ok(())
        }
    }
}

impl std::error::Error for ChaosFailure {}

/// Result of one crash-point run.
#[derive(Debug, Clone)]
pub struct CrashPointReport {
    /// The mutating-op index the power died on.
    pub crash_op: u64,
    /// Whether the crash actually fired (false once the point lies past
    /// the workload's total storage traffic).
    pub crashed: bool,
    /// Writes acknowledged before the crash.
    pub acked_writes: u64,
    /// What the power cycle discarded.
    pub power_cycle: PowerCycleReport,
    /// What the reopening recovery did.
    pub recovery: RecoverySummary,
}

/// How a bit-flip run ended (both variants are acceptable outcomes; a
/// wrong served value is a [`ChaosFailure`] instead).
#[derive(Debug, Clone)]
pub enum BitFlipOutcome {
    /// The reopen itself refused the corrupt store.
    DetectedAtOpen(String),
    /// The store reopened; reads were each correct or detected.
    Reopened {
        /// Point/scan reads that surfaced a detected corruption error.
        detected_reads: u64,
        /// Whether a full integrity sweep still passes.
        integrity_ok: bool,
        /// Files the recovery quarantined.
        files_quarantined: u32,
    },
}

/// Result of one bit-flip run.
#[derive(Debug, Clone)]
pub struct BitFlipReport {
    /// File the flip hit.
    pub file: String,
    /// Byte offset of the flipped bit.
    pub offset: u64,
    /// Bit index within the byte.
    pub bit: u8,
    /// How the store coped.
    pub outcome: BitFlipOutcome,
}

/// Result of one transient-read run.
#[derive(Debug, Clone)]
pub struct TransientReadReport {
    /// Transient read failures the storage injected.
    pub injected_failures: u64,
    /// Retries the engine's storage wrapper recorded while masking them.
    pub retries_recorded: u64,
}

/// Result of one scrub → quarantine → repair pipeline run.
#[derive(Debug, Clone)]
pub struct ScrubRepairReport {
    /// SSTable the bit flip hit.
    pub file: String,
    /// Byte offset of the flipped bit.
    pub offset: u64,
    /// Bit index within the byte.
    pub bit: u8,
    /// The reopen itself refused the corrupt store (footer/magic damage);
    /// the run went straight to repair without a scrub pass.
    pub detected_at_open: bool,
    /// Corruptions the scrub pass reported.
    pub scrub_corruptions: u64,
    /// Live tables the scrub pass quarantined.
    pub files_quarantined: u64,
    /// What `repair_db` did.
    pub repair: RepairReport,
    /// Keys still serving their latest acknowledged value after repair.
    pub surviving_keys: u64,
    /// Keys lost with the quarantined table(s).
    pub lost_keys: u64,
}

/// Result of one error-injection run.
#[derive(Debug, Clone)]
pub struct IoErrorReport {
    /// Writes acknowledged before the first injected failure.
    pub acked_writes: u64,
    /// Errors the storage injected in total.
    pub injected_errors: u64,
    /// Workload index of the first failed operation, if any failed.
    pub first_error_op: Option<u64>,
}

/// Mutating-op landmarks of the benign backup pipeline, for aiming crash
/// points at specific phases (see [`ChaosHarness::measure_backup_ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupOpsProfile {
    /// Mutating ops performed before `backup_begin` was called; crash
    /// points in `before_checkpoint+1 ..= checkpoint_done` land inside
    /// base-checkpoint creation.
    pub before_checkpoint: u64,
    /// Mutating ops when `backup_begin` returned.
    pub checkpoint_done: u64,
    /// Total mutating ops of the full pipeline; crash points in
    /// `checkpoint_done+1 ..= total` land in the shipping workload.
    pub total: u64,
}

/// Result of one primary-side backup crash run (checkpoint creation or
/// stream shipping interrupted by power loss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupCrashReport {
    /// The mutating-op index the power died on.
    pub crash_op: u64,
    /// Whether the crash actually fired.
    pub crashed: bool,
    /// Writes acknowledged before the crash.
    pub acked_writes: u64,
    /// What the power cycle discarded.
    pub power_cycle: PowerCycleReport,
    /// Whether the backup's base checkpoint survived complete (its
    /// `CURRENT` marker is durable).
    pub backup_complete: bool,
    /// The acknowledged-history prefix the restored copy matched:
    /// restored state == state after this many acknowledged writes
    /// (`acked_writes + 1` encodes "final state plus the in-flight
    /// write"). `None` when the backup was incomplete and refused.
    pub restored_prefix: Option<u64>,
    /// Replication cursor of a follower bootstrapped from the surviving
    /// backup, when it was complete.
    pub follower_cursor: Option<u64>,
}

/// Result of one follower-side apply crash run (power loss during
/// bootstrap restore or stream apply on the follower's storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyCrashReport {
    /// The mutating-op index (on the follower's storage) the power died on.
    pub crash_op: u64,
    /// Whether the crash actually fired.
    pub crashed: bool,
    /// The follower's durable cursor right after the interrupted poll.
    pub applied_before_crash: u64,
    /// Cursor after recovery and catch-up — the full stream length.
    pub final_cursor: u64,
    /// Total mutating ops the pipeline performed on the follower's
    /// storage (the crash-point space for [`ChaosHarness::run_apply_crash`]).
    pub follower_ops: u64,
}

/// One workload operation: `(key, Some(value))` for a put, `(key, None)`
/// for a delete.
type Op = (Vec<u8>, Option<Vec<u8>>);

/// A key space: what a store serves, or should.
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// What a backup pipeline arms on the drained store at the half-way mark.
type Midway<'a> = &'a mut dyn FnMut(&LdcDb) -> ldc_lsm::Result<()>;

/// Applies `op` to `model`.
fn apply(model: &mut Model, (key, value): &Op) {
    match value {
        Some(v) => {
            model.insert(key.clone(), v.clone());
        }
        None => {
            model.remove(key);
        }
    }
}

/// Everything a store serves, as a key space.
fn scan_all(db: &LdcDb) -> ldc_lsm::Result<Model> {
    Ok(db.scan(b"", usize::MAX)?.into_iter().collect())
}

fn mem_storage() -> Arc<dyn StorageBackend> {
    MemStorage::new(SsdDevice::with_defaults())
}

/// What [`ChaosHarness::drive`] did and saw: the record every later check
/// is held against.
#[derive(Default)]
struct Driven {
    /// Final acknowledged key space.
    model: Model,
    /// Every value ever acknowledged, per key. Quarantine and point-in-time
    /// recovery may roll a key back in time (a dropped tombstone resurfaces
    /// an older value), so "ever written" is the fabrication check where
    /// "latest value" cannot be demanded.
    history: BTreeMap<Vec<u8>, Vec<Vec<u8>>>,
    /// `boundaries[n]` is the key space after the first `n` acknowledged
    /// writes; a restored backup must land on one of these states.
    /// Recorded only for the backup pipelines (a `midway` hook was given).
    boundaries: Vec<Model>,
    /// The write that was cut short, if one was: it may land or vanish.
    in_flight: Option<Op>,
    /// Writes acknowledged (so also the index of the in-flight one).
    acked: u64,
    /// Why the stream stopped early; `None` when it ran to its end.
    stopped: Option<String>,
    /// The store, still open; `None` when the fault hit `open` itself.
    db: Option<LdcDb>,
}

impl Driven {
    /// Whether `key` was ever acknowledged carrying `value`.
    fn never_fabricated(&self, key: &[u8], value: &[u8]) -> bool {
        self.history
            .get(key)
            .is_some_and(|vs| vs.iter().any(|v| v == value))
    }
}

/// Deterministic fault-injection verifier over one [`ChaosConfig`].
pub struct ChaosHarness {
    config: ChaosConfig,
}

impl ChaosHarness {
    /// A harness for `config`.
    pub fn new(config: ChaosConfig) -> Self {
        Self { config }
    }

    /// The configuration under test.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn key_for(idx: u64) -> Vec<u8> {
        format!("key{idx:05}").into_bytes()
    }

    /// Operation `i` of the workload.
    fn gen_op(&self, rng: &mut SmallRng, i: u64) -> Op {
        let key = Self::key_for(rng.gen_range(0..self.config.key_space));
        let deletes = self.config.delete_every;
        if deletes > 0 && i % deletes == deletes - 1 {
            return (key, None);
        }
        // The op index makes every value unique, so a stale read is
        // distinguishable from the current one.
        let mut value = format!("v{i:08}-").into_bytes();
        while value.len() < self.config.value_len {
            value.push(b'a' + rng.gen_range(0..26u8));
        }
        (key, Some(value))
    }

    fn builder(&self, options: &Options) -> LdcDbBuilder {
        LdcDb::builder()
            .options(options.clone())
            .mode(self.config.mode.clone())
    }

    fn open(&self, storage: &Arc<dyn StorageBackend>, options: &Options) -> ldc_lsm::Result<LdcDb> {
        self.builder(options).storage(Arc::clone(storage)).build()
    }

    /// A fresh simulated device behind a fault injector running `plan`.
    fn faulted(&self, plan: FaultPlan) -> (Arc<FaultStorage>, Arc<dyn StorageBackend>) {
        let fault = FaultStorage::new(mem_storage(), plan);
        let storage: Arc<dyn StorageBackend> = fault.clone();
        (fault, storage)
    }

    fn fail(&self, fault: &FaultStorage, detail: impl Into<String>) -> ChaosFailure {
        ChaosFailure {
            plan: fault.plan().clone(),
            detail: detail.into(),
            fault_log: fault.fault_log(),
        }
    }

    /// Stage one of every scenario: opens a store on `storage` and feeds
    /// it the seeded op stream until the stream ends or something fails —
    /// the open, a write, or what `midway` arms. Nothing is judged here; a
    /// scenario whose plan should not have stopped the stream says so with
    /// [`ChaosHarness::ran_to_end`].
    ///
    /// `midway` gives the run the backup pipelines' shape: it is called
    /// once on a drained store at the half-way mark (to begin a backup),
    /// and from then on the store is flushed every 20 ops and at the end,
    /// so the edit stream it armed has something to ship.
    fn drive(
        &self,
        storage: &Arc<dyn StorageBackend>,
        options: &Options,
        mut midway: Option<Midway<'_>>,
    ) -> Driven {
        let mut run = Driven::default();
        let db = match self.open(storage, options) {
            Ok(db) => db,
            Err(e) => {
                run.stopped = Some(format!("open failed: {e}"));
                return run;
            }
        };
        let backup = midway.is_some();
        if backup {
            run.boundaries.push(Model::new());
        }
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ WORKLOAD_STREAM);
        let half = self.config.ops / 2;
        let mut stream = || -> Result<(), String> {
            for i in 0..self.config.ops {
                if let (true, Some(begin)) = (i == half, midway.as_mut()) {
                    db.drain_background();
                    begin(&db).map_err(|e| format!("backup_begin failed: {e}"))?;
                }
                let op = self.gen_op(&mut rng, i);
                let result = match &op {
                    (key, Some(v)) => db.put(key, v),
                    (key, None) => db.delete(key),
                };
                if let Err(e) = result {
                    run.in_flight = Some(op);
                    return Err(format!("write {i} failed: {e}"));
                }
                run.acked += 1;
                apply(&mut run.model, &op);
                if let (key, Some(v)) = op {
                    run.history.entry(key).or_default().push(v);
                }
                if backup {
                    run.boundaries.push(run.model.clone());
                    if i >= half && (i - half) % 20 == 19 {
                        db.flush().map_err(|e| format!("flush failed: {e}"))?;
                    }
                }
            }
            if backup {
                db.flush().map_err(|e| format!("flush failed: {e}"))?;
                db.drain_background();
            }
            Ok(())
        };
        run.stopped = stream().err();
        run.db = Some(db);
        run
    }

    /// For plans that inject nothing a write can trip over: a stream that
    /// stopped is the harness's failure, not an outcome. Hands over the
    /// open store.
    fn ran_to_end(
        &self,
        fault: &FaultStorage,
        run: &mut Driven,
        who: &str,
    ) -> Result<LdcDb, ChaosFailure> {
        match (run.stopped.take(), run.db.take()) {
            (None, Some(db)) => Ok(db),
            (why, _) => Err(self.fail(fault, format!("{who}{}", why.unwrap_or_default()))),
        }
    }

    /// Checks `db` against `model` over the whole key universe: point
    /// gets, a full scan, version invariants, and an SSTable integrity
    /// sweep. The optional in-flight write is allowed to have either
    /// landed or vanished — atomically.
    fn verify_exact(
        &self,
        db: &LdcDb,
        model: &Model,
        in_flight: Option<&Op>,
    ) -> Result<(), String> {
        let mut with_new = model.clone();
        if let Some(op) = in_flight {
            apply(&mut with_new, op);
        }
        for idx in 0..self.config.key_space {
            let key = Self::key_for(idx);
            let name = String::from_utf8_lossy(&key);
            let got = db
                .get(&key)
                .map_err(|e| format!("get {name} failed: {e}"))?;
            let (old, new) = (model.get(&key), with_new.get(&key));
            if got.as_ref() == old || got.as_ref() == new {
                continue;
            }
            return Err(if old != new {
                format!("in-flight key {name} resolved to neither old nor new value")
            } else {
                format!(
                    "key {name}: got {:?}, model has {:?}",
                    got.map(|v| String::from_utf8_lossy(&v).into_owned()),
                    old.map(|v| String::from_utf8_lossy(v))
                )
            });
        }
        let scanned = scan_all(db).map_err(|e| format!("scan failed: {e}"))?;
        if scanned != *model && scanned != with_new {
            return Err(format!(
                "scan returned {} entries matching neither pre- nor post-in-flight model ({} entries)",
                scanned.len(),
                model.len()
            ));
        }
        db.engine_ref()
            .version()
            .check_invariants()
            .map_err(|e| format!("version invariants violated: {e}"))?;
        db.verify_integrity()
            .map_err(|e| format!("integrity sweep failed: {e}"))?;
        Ok(())
    }

    /// Stage two of every scenario: reopens the store behind `fault` and
    /// holds it to exactly what `run` acknowledged ([`Self::verify_exact`],
    /// plus a recovery event), then demands the same of a further clean
    /// reopen — the recovered store must keep working, and half-written
    /// metadata the first recovery papered over shows up on the second.
    /// `label` prefixes every failure it reports. Returns what the first
    /// reopen's recovery did.
    fn recover_and_verify(
        &self,
        fault: &Arc<FaultStorage>,
        options: &Options,
        run: &Driven,
        label: &str,
    ) -> Result<RecoverySummary, ChaosFailure> {
        let fail = |detail: String| self.fail(fault, format!("{label}{detail}"));
        let storage: Arc<dyn StorageBackend> = fault.clone();
        let sink = Arc::new(RingBufferSink::new(4096));
        let db = self
            .builder(options)
            .storage(Arc::clone(&storage))
            .event_sink(sink.clone())
            .build()
            .map_err(|e| fail(format!("reopen failed: {e}")))?;
        let recovery = db.recovery_summary();
        self.verify_exact(&db, &run.model, run.in_flight.as_ref())
            .map_err(fail)?;
        if !sink.events().iter().any(|e| e.kind == EventKind::Recovery) {
            return Err(fail("reopen emitted no recovery event".to_string()));
        }
        drop(db);
        let db = self
            .open(&storage, options)
            .map_err(|e| fail(format!("second clean reopen failed: {e}")))?;
        self.verify_exact(&db, &run.model, run.in_flight.as_ref())
            .map_err(|detail| fail(format!("after second reopen: {detail}")))?;
        Ok(recovery)
    }

    /// Flips one seed-chosen bit in the largest non-empty file of
    /// `target`'s family (the one most likely to hold data), returning
    /// `(file, byte offset, bit)`.
    fn corrupt_largest(
        &self,
        fault: &FaultStorage,
        target: BitFlipTarget,
    ) -> Result<(String, u64, u8), ChaosFailure> {
        let victim = fault
            .list()
            .into_iter()
            .filter(|n| target.matches(n))
            .filter_map(|n| fault.size(&n).ok().map(|s| (s, n)))
            .filter(|(s, _)| *s > 0)
            .max()
            .map(|(_, n)| n)
            .ok_or_else(|| {
                self.fail(
                    fault,
                    format!("no non-empty {} file to corrupt", target.label()),
                )
            })?;
        let (offset, bit) = fault
            .flip_bit(&victim)
            .map_err(|e| self.fail(fault, format!("bit flip failed: {e}")))?;
        Ok((victim, offset, bit))
    }

    /// Runs the workload with a benign plan and returns the total number
    /// of mutating storage operations it produces — the upper bound of
    /// the interesting crash-point space.
    pub fn measure_storage_ops(&self) -> Result<u64, ChaosFailure> {
        let (fault, storage) = self.faulted(FaultPlan::new(self.config.seed));
        let mut run = self.drive(&storage, &self.config.options, None);
        self.ran_to_end(&fault, &mut run, "")?;
        Ok(fault.mutating_ops())
    }

    /// Kills the power on mutating storage operation `crash_op` (1-based),
    /// reboots, reopens, and verifies that exactly the acknowledged writes
    /// survived (modulo the single in-flight write).
    pub fn run_crash_point(&self, crash_op: u64) -> Result<CrashPointReport, ChaosFailure> {
        let options = &self.config.options;
        let (fault, storage) = self.faulted(FaultPlan::crash_at(self.config.seed, crash_op));
        let mut run = self.drive(&storage, options, None);
        drop(run.db.take());
        let power_cycle = fault
            .power_cycle()
            .map_err(|e| self.fail(&fault, format!("power cycle failed: {e}")))?;
        let recovery = self.recover_and_verify(&fault, options, &run, "")?;
        Ok(CrashPointReport {
            crash_op,
            crashed: run.stopped.is_some(),
            acked_writes: run.acked,
            power_cycle,
            recovery,
        })
    }

    /// Sweeps [`ChaosHarness::run_crash_point`] over `points`, failing on
    /// the first red crash point.
    pub fn crash_sweep(
        &self,
        points: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<CrashPointReport>, ChaosFailure> {
        points
            .into_iter()
            .map(|p| self.run_crash_point(p))
            .collect()
    }

    /// The primary side of the backup pipeline: first half of the
    /// workload, `backup_begin` (base checkpoint + armed stream), second
    /// half with periodic flushes so the stream grows, final flush. Stops
    /// at the first error (the crash point) and reports, besides what was
    /// acknowledged, where the checkpoint phase sat in mutating-op space:
    /// `(ops before backup_begin, ops when it returned)`.
    fn drive_backup_primary(
        &self,
        fault: &FaultStorage,
        storage: &Arc<dyn StorageBackend>,
    ) -> (Driven, u64, Option<u64>) {
        let (mut before, mut done) = (0, None);
        let mut run = self.drive(
            storage,
            &self.config.options,
            Some(&mut |db| {
                before = fault.mutating_ops();
                db.backup_begin("chaos")?;
                done = Some(fault.mutating_ops());
                Ok(())
            }),
        );
        if let (None, Some(db)) = (&run.stopped, run.db.take()) {
            let _ = db.backup_end();
        }
        (run, before, done)
    }

    /// Runs the backup pipeline with a benign plan and returns its
    /// mutating-op landmarks, so a sweep can aim crash points at the
    /// checkpoint-creation and stream-shipping windows specifically.
    pub fn measure_backup_ops(&self) -> Result<BackupOpsProfile, ChaosFailure> {
        let (fault, storage) = self.faulted(FaultPlan::new(self.config.seed));
        let (_, before_checkpoint, done) = self.drive_backup_primary(&fault, &storage);
        let Some(checkpoint_done) = done else {
            return Err(self.fail(
                &fault,
                "benign backup pipeline did not complete its checkpoint",
            ));
        };
        Ok(BackupOpsProfile {
            before_checkpoint,
            checkpoint_done,
            total: fault.mutating_ops(),
        })
    }

    /// Kills the power on mutating storage operation `crash_op` anywhere
    /// in the primary-side backup pipeline — mid-checkpoint, mid-ship, or
    /// mid-workload — then verifies every crash-consistency contract: the
    /// primary recovers to exactly the acknowledged state; a complete
    /// surviving backup restores (and bootstraps a follower) to a state
    /// on the acknowledged-history prefix; an incomplete one is refused.
    pub fn run_backup_crash(&self, crash_op: u64) -> Result<BackupCrashReport, ChaosFailure> {
        let options = &self.config.options;
        let (fault, storage) = self.faulted(FaultPlan::crash_at(self.config.seed, crash_op));
        let (run, _, _) = self.drive_backup_primary(&fault, &storage);
        let crashed = fault.powered_off();
        let power_cycle = fault
            .power_cycle()
            .map_err(|e| self.fail(&fault, format!("power cycle failed: {e}")))?;
        self.recover_and_verify(&fault, options, &run, "primary after crash: ")?;

        // The in-flight write may have reached a shipped flush before the
        // crash cut its put short — one more acceptable restore state.
        let mut with_in_flight = run.model.clone();
        if let Some(op) = &run.in_flight {
            apply(&mut with_in_flight, op);
        }
        let on_prefix = |state: &Model| -> Option<u64> {
            match run.boundaries.iter().position(|b| b == state) {
                Some(n) => Some(n as u64),
                None if run.in_flight.is_some() && *state == with_in_flight => Some(run.acked + 1),
                None => None,
            }
        };

        let prefix = backup_prefix("chaos");
        let backup_complete = checkpoint_complete(storage.as_ref(), &prefix);
        let mut restored_prefix = None;
        let mut follower_cursor = None;
        let dst = mem_storage();
        let restore = restore_backup(&storage, &prefix, &dst);
        if backup_complete {
            restore.map_err(|e| {
                self.fail(&fault, format!("restore of complete backup failed: {e}"))
            })?;
            let restored = self
                .open(&dst, options)
                .map_err(|e| self.fail(&fault, format!("restored store failed to open: {e}")))
                .and_then(|db| {
                    scan_all(&db)
                        .map_err(|e| self.fail(&fault, format!("restored scan failed: {e}")))
                })?;
            restored_prefix = Some(on_prefix(&restored).ok_or_else(|| {
                self.fail(
                    &fault,
                    format!(
                        "restored backup ({} keys) matches no acknowledged-history prefix",
                        restored.len()
                    ),
                )
            })?);

            // The real follower bootstraps from the same surviving backup
            // and must land on an acknowledged prefix too.
            let follower =
                Follower::bootstrap(&storage, "chaos", self.builder(options), mem_storage())
                    .map_err(|e| self.fail(&fault, format!("follower bootstrap failed: {e}")))?;
            follower
                .poll()
                .map_err(|e| self.fail(&fault, format!("follower poll failed: {e}")))?;
            let fstate = scan_all(follower.db())
                .map_err(|e| self.fail(&fault, format!("follower scan failed: {e}")))?;
            if on_prefix(&fstate).is_none() {
                return Err(self.fail(
                    &fault,
                    "follower state matches no acknowledged-history prefix",
                ));
            }
            follower_cursor = Some(follower.db().replication_cursor());
        } else if restore.is_ok() {
            // Incomplete checkpoints must be refused, not half-restored.
            return Err(self.fail(&fault, "restore accepted an incomplete backup"));
        }

        Ok(BackupCrashReport {
            crash_op,
            crashed,
            acked_writes: run.acked,
            power_cycle,
            backup_complete,
            restored_prefix,
            follower_cursor,
        })
    }

    /// Sweeps [`ChaosHarness::run_backup_crash`] over `points`.
    pub fn backup_crash_sweep(
        &self,
        points: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<BackupCrashReport>, ChaosFailure> {
        points
            .into_iter()
            .map(|p| self.run_backup_crash(p))
            .collect()
    }

    /// Kills the power on mutating storage operation `crash_op` of the
    /// *follower's* storage — during the bootstrap restore or during a
    /// stream-apply poll — then recovers via the documented recipe
    /// (reopen when the store exists, wipe and re-bootstrap when the
    /// crash predated its creation) and verifies the follower converges
    /// exactly to the primary's final state. `crash_op = 0` never fires
    /// and measures the benign pipeline instead.
    pub fn run_apply_crash(&self, crash_op: u64) -> Result<ApplyCrashReport, ChaosFailure> {
        let options = &self.config.options;
        let (fault, fdst) = self.faulted(FaultPlan::crash_at(self.config.seed, crash_op));
        // The primary runs clean on its own storage; only the follower's
        // disk is faulted. The follower bootstraps through the fault
        // storage as soon as the base checkpoint exists — the crash point
        // may land inside the base restore itself — and the primary's
        // second half then grows the stream past it.
        let pstorage = mem_storage();
        let bootstrap =
            || Follower::bootstrap(&pstorage, "chaos", self.builder(options), Arc::clone(&fdst));
        let mut follower = None;
        let mut run = self.drive(
            &pstorage,
            options,
            Some(&mut |db| {
                db.backup_begin("chaos")?;
                follower = bootstrap().ok();
                Ok(())
            }),
        );
        // Kept open: the primary outlives its follower's recovery.
        let _primary = self.ran_to_end(&fault, &mut run, "primary ")?;

        // Tail it; the crash point fires during the follower's table
        // copies or manifest appends.
        let mut applied_before_crash = 0;
        if let Some(f) = &follower {
            if f.poll().is_err() {
                applied_before_crash = f.db().replication_cursor();
            }
        }
        let crashed = fault.powered_off();
        if crashed {
            fault
                .power_cycle()
                .map_err(|e| self.fail(&fault, format!("follower power cycle failed: {e}")))?;
            drop(follower.take());
            let recovered = if fdst.exists("CURRENT") {
                Follower::reopen(&pstorage, "chaos", self.builder(options), Arc::clone(&fdst))
            } else {
                for name in fdst.list() {
                    fdst.delete(&name)
                        .map_err(|e| self.fail(&fault, format!("wipe failed: {e}")))?;
                }
                bootstrap()
            }
            .map_err(|e| self.fail(&fault, format!("follower recovery failed: {e}")))?;
            follower = Some(recovered);
        }
        let follower = follower
            .ok_or_else(|| self.fail(&fault, "follower bootstrap failed without a crash"))?;
        follower
            .poll()
            .map_err(|e| self.fail(&fault, format!("catch-up poll failed: {e}")))?;

        // Exact convergence with the primary's final state.
        self.verify_exact(follower.db(), &run.model, None)
            .map_err(|d| self.fail(&fault, format!("follower after recovery: {d}")))?;
        if follower.lag() != 0 {
            return Err(self.fail(
                &fault,
                format!(
                    "follower still lags {} records after catch-up",
                    follower.lag()
                ),
            ));
        }
        let total = for_each_stream_edit(
            pstorage.as_ref(),
            &backup_prefix("chaos"),
            u64::MAX,
            |_, _| Ok(()),
        )
        .map_err(|e| self.fail(&fault, format!("stream count failed: {e}")))?;
        let final_cursor = follower.db().replication_cursor();
        if final_cursor != total {
            return Err(self.fail(
                &fault,
                format!("follower cursor {final_cursor} != stream length {total}"),
            ));
        }
        Ok(ApplyCrashReport {
            crash_op,
            crashed,
            applied_before_crash,
            final_cursor,
            follower_ops: fault.mutating_ops(),
        })
    }

    /// Sweeps [`ChaosHarness::run_apply_crash`] over `points`.
    pub fn apply_crash_sweep(
        &self,
        points: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<ApplyCrashReport>, ChaosFailure> {
        points
            .into_iter()
            .map(|p| self.run_apply_crash(p))
            .collect()
    }

    /// What a store that may still hold a flipped bit owes its readers:
    /// every point get and the full scan are either refused (detected) or
    /// correct, and the version is well-formed. Correct means exact for an
    /// SSTable flip — table damage must not silently lose or alter data —
    /// and never-fabricated for a log or manifest flip, which recovers to
    /// a point in time: values may be stale or gone.
    fn check_damaged(
        &self,
        db: &LdcDb,
        target: BitFlipTarget,
        run: &Driven,
    ) -> Result<BitFlipOutcome, String> {
        let exact = target == BitFlipTarget::Sstable;
        let flip = target.label();
        let wrong = |key: &[u8], got: Option<&Vec<u8>>| match got {
            _ if exact => got != run.model.get(key),
            Some(v) => !run.never_fabricated(key, v),
            None => false,
        };
        let mut detected_reads = 0u64;
        for idx in 0..self.config.key_space {
            let key = Self::key_for(idx);
            match db.get(&key) {
                Err(_) => detected_reads += 1,
                Ok(got) if wrong(&key, got.as_ref()) => {
                    return Err(format!(
                        "{flip} flip: key {} served a wrong value undetected",
                        String::from_utf8_lossy(&key)
                    ));
                }
                Ok(_) => {}
            }
        }
        match scan_all(db) {
            Err(_) => detected_reads += 1,
            Ok(scanned) => {
                if let Some((k, _)) = scanned.iter().find(|(k, v)| wrong(k, Some(v))) {
                    return Err(format!(
                        "{flip} flip: scan served a wrong value for key {}",
                        String::from_utf8_lossy(k)
                    ));
                }
                if exact && scanned.len() != run.model.len() {
                    return Err(format!("{flip} flip: scan dropped keys undetected"));
                }
            }
        }
        db.engine_ref()
            .version()
            .check_invariants()
            .map_err(|e| format!("{flip} flip: version invariants violated: {e}"))?;
        Ok(BitFlipOutcome::Reopened {
            detected_reads,
            integrity_ok: db.verify_integrity().is_ok(),
            files_quarantined: db.recovery_summary().files_quarantined,
        })
    }

    /// Runs the workload to completion, flips one bit in a file of
    /// `target`'s family, reopens, and checks that the store either
    /// detects the damage or keeps serving only values that were actually
    /// written — and that the next reopen does no worse. The report
    /// describes the first reopen.
    pub fn run_bit_flip(&self, target: BitFlipTarget) -> Result<BitFlipReport, ChaosFailure> {
        let options = &self.config.options;
        let (fault, storage) = self.faulted(FaultPlan::new(self.config.seed));
        let mut run = self.drive(&storage, options, None);
        self.ran_to_end(&fault, &mut run, "")?.drain_background();
        let (file, offset, bit) = self.corrupt_largest(&fault, target)?;

        let outcome = match self.open(&storage, options) {
            // Refusing to open a corrupt store is detection, not failure.
            Err(e) => BitFlipOutcome::DetectedAtOpen(e.to_string()),
            Ok(db) => {
                let outcome = self
                    .check_damaged(&db, target, &run)
                    .map_err(|d| self.fail(&fault, d))?;
                drop(db);
                // The next incarnation may refuse the store after all;
                // if it serves, it serves by the same rules.
                if let Ok(db) = self.open(&storage, options) {
                    self.check_damaged(&db, target, &run)
                        .map_err(|d| self.fail(&fault, format!("after second reopen: {d}")))?;
                }
                outcome
            }
        };
        Ok(BitFlipReport {
            file,
            offset,
            bit,
            outcome,
        })
    }

    /// Injects I/O errors with probability `prob` on every mutating
    /// storage operation, verifying fail-stop behaviour: the first write
    /// failure latches, reads keep working, and a clean reopen restores
    /// exactly the acknowledged state. An error that lands inside database
    /// creation is the same outcome with nothing acknowledged: the reopen
    /// must cope with the half-created store.
    pub fn run_io_errors(&self, prob: f64) -> Result<IoErrorReport, ChaosFailure> {
        let options = &self.config.options;
        let (fault, storage) = self.faulted(FaultPlan::io_errors(self.config.seed, prob));
        let mut run = self.drive(&storage, options, None);
        if let Some(db) = run.db.take() {
            if run.in_flight.is_some() {
                // Fail-stop: the background error must latch and refuse
                // further writes. (Were the refused sentinel to surface
                // later, every full scan below would see it.)
                if db.engine_ref().background_error().is_none() {
                    return Err(self.fail(&fault, "write failed but no background error latched"));
                }
                if db.put(b"zz-sentinel", b"x").is_ok() {
                    return Err(self.fail(&fault, "write accepted after background error latched"));
                }
            }
            // Reads are still served while the engine is failed-stop.
            self.verify_exact(&db, &run.model, run.in_flight.as_ref())
                .map_err(|detail| self.fail(&fault, format!("while latched: {detail}")))?;
        }

        // Clean process restart on intact storage (no power loss): the
        // acknowledged state must come back exactly.
        fault.disarm();
        self.recover_and_verify(&fault, options, &run, "after reopen: ")?;
        Ok(IoErrorReport {
            acked_writes: run.acked,
            injected_errors: fault.injected_errors(),
            first_error_op: run.in_flight.is_some().then_some(run.acked),
        })
    }

    /// Fails each file's first `failures` reads transiently and verifies
    /// the engine's retry budget masks them completely: the workload runs
    /// to completion, every read verifies against the model, and so does
    /// a recovery whose own reads meet the same failures.
    ///
    /// `failures` must stay below the engine's budget of four read
    /// attempts; at or past it, transient errors surface and the run
    /// reports a [`ChaosFailure`].
    pub fn run_transient_reads(&self, failures: u32) -> Result<TransientReadReport, ChaosFailure> {
        let options = &self.config.options;
        let plan = FaultPlan::transient_reads(self.config.seed, failures);
        let (fault, storage) = self.faulted(plan);
        let mut run = self.drive(&storage, options, None);
        let db = self.ran_to_end(&fault, &mut run, "")?;
        db.drain_background();
        self.verify_exact(&db, &run.model, None)
            .map_err(|detail| self.fail(&fault, detail))?;
        let report = TransientReadReport {
            injected_failures: fault.injected_errors(),
            retries_recorded: db.metrics().degraded_counters().transient_retries,
        };
        if failures > 0 && report.injected_failures > 0 && report.retries_recorded == 0 {
            return Err(self.fail(
                &fault,
                "transient failures injected but no retry was recorded",
            ));
        }
        drop(db);
        self.recover_and_verify(&fault, options, &run, "after reopen: ")?;
        Ok(report)
    }

    /// The full degraded-mode pipeline: run the workload, flip one bit in
    /// the largest SSTable, then **scrub** (detect), **quarantine** (drop
    /// the corrupt table while serving everything else), **repair** (rebuild
    /// the manifest, salvage WAL remnants), and finally reopen and verify
    /// against the model — no served value may be one that was never
    /// written, every key outside the quarantined table must still carry
    /// its latest acknowledged value, and what the repaired store serves
    /// must survive further reopens exactly.
    pub fn run_scrub_quarantine_repair(&self) -> Result<ScrubRepairReport, ChaosFailure> {
        let (fault, storage) = self.faulted(FaultPlan::new(self.config.seed));
        let options = &Options {
            corruption_policy: CorruptionPolicy::Quarantine,
            ..self.config.options.clone()
        };
        let mut run = self.drive(&storage, options, None);
        self.ran_to_end(&fault, &mut run, "")?.drain_background();
        let (file, offset, bit) = self.corrupt_largest(&fault, BitFlipTarget::Sstable)?;

        let mut detected_at_open = false;
        let mut scrub_corruptions = 0u64;
        let mut files_quarantined = 0u64;
        match self.open(&storage, options) {
            Err(_) => detected_at_open = true,
            Ok(db) => {
                let scrub = db
                    .scrub()
                    .map_err(|e| self.fail(&fault, format!("scrub pass failed: {e}")))?;
                if scrub.is_clean() {
                    return Err(self.fail(
                        &fault,
                        format!("bit flip in {file} at byte {offset} evaded the scrub"),
                    ));
                }
                // Degraded serving: every read outside the quarantined
                // table is exact; inside it, keys are gone or rolled back,
                // never fabricated.
                for idx in 0..self.config.key_space {
                    let key = Self::key_for(idx);
                    let name = String::from_utf8_lossy(&key);
                    let got = db.get(&key).map_err(|e| {
                        self.fail(
                            &fault,
                            format!("degraded get {name} errored after quarantine: {e}"),
                        )
                    })?;
                    if got.is_some_and(|v| !run.never_fabricated(&key, &v)) {
                        return Err(self.fail(
                            &fault,
                            format!("degraded get {name} served a never-written value"),
                        ));
                    }
                }
                scrub_corruptions = scrub.corruptions.len() as u64;
                files_quarantined = db.quarantined().len() as u64;
            }
        }

        let repair = repair_db(Arc::clone(&storage), options)
            .map_err(|e| self.fail(&fault, format!("repair_db failed: {e}")))?;

        // Against the model, the repaired store may have lost what the
        // quarantined table held — but only that, and only backwards in
        // time.
        let served = self
            .open(&storage, options)
            .map_err(|e| self.fail(&fault, format!("reopen after repair failed: {e}")))
            .and_then(|db| {
                scan_all(&db)
                    .map_err(|e| self.fail(&fault, format!("post-repair scan failed: {e}")))
            })?;
        if let Some((k, _)) = served.iter().find(|(k, v)| !run.never_fabricated(k, v)) {
            return Err(self.fail(
                &fault,
                format!(
                    "post-repair scan served a never-written value for {}",
                    String::from_utf8_lossy(k)
                ),
            ));
        }
        let surviving_keys = (0..self.config.key_space)
            .map(Self::key_for)
            .filter(|key| served.get(key) == run.model.get(key))
            .count() as u64;
        // Against itself, it is a healthy store: point gets agree with that
        // scan, invariants and integrity hold, twice over.
        let served = Driven {
            model: served,
            ..Driven::default()
        };
        self.recover_and_verify(&fault, options, &served, "post-repair: ")?;

        Ok(ScrubRepairReport {
            file,
            offset,
            bit,
            detected_at_open,
            scrub_corruptions,
            files_quarantined,
            repair,
            surviving_keys,
            lost_keys: self.config.key_space - surviving_keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_core::CompactionMode;

    fn harness(seed: u64) -> ChaosHarness {
        ChaosHarness::new(ChaosConfig {
            ops: 120,
            ..ChaosConfig::quick(seed, CompactionMode::Udc)
        })
    }

    #[test]
    fn crash_point_early_and_late() {
        let h = harness(1);
        let early = h.run_crash_point(5).unwrap();
        assert!(early.crashed);
        let total = h.measure_storage_ops().unwrap();
        let never = h.run_crash_point(total + 100).unwrap();
        assert!(!never.crashed);
        assert_eq!(never.acked_writes, 120);
    }

    #[test]
    fn crash_point_is_deterministic() {
        let h = harness(2);
        let a = h.run_crash_point(40).unwrap();
        let b = h.run_crash_point(40).unwrap();
        assert_eq!(a.acked_writes, b.acked_writes);
        assert_eq!(a.power_cycle, b.power_cycle);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn io_error_run_fail_stops_and_recovers() {
        let report = harness(3).run_io_errors(0.02).unwrap();
        assert!(report.injected_errors > 0, "no errors injected");
        assert!(report.first_error_op.is_some());
    }

    /// An injected error that lands on one of database creation's own
    /// storage ops is an outcome — nothing acknowledged, no failed write —
    /// and the clean reopen must cope with whatever half-created store it
    /// left behind.
    #[test]
    fn io_error_inside_open_is_an_outcome() {
        use ldc_core::LdcConfig;
        for mode in [
            CompactionMode::Udc,
            CompactionMode::Ldc(LdcConfig::default()),
        ] {
            let mut hit_open = 0;
            for seed in 0..24 {
                let h = ChaosHarness::new(ChaosConfig {
                    ops: 40,
                    ..ChaosConfig::quick(seed, mode.clone())
                });
                let report = h.run_io_errors(0.25).unwrap_or_else(|f| panic!("{f}"));
                if report.acked_writes == 0 && report.first_error_op.is_none() {
                    assert!(report.injected_errors > 0, "seed {seed}: {report:?}");
                    hit_open += 1;
                }
            }
            assert!(hit_open > 0, "no seed put its first error inside open");
        }
    }

    #[test]
    fn transient_reads_are_masked_by_retry_budget() {
        // Engine default budget is 4 attempts; 2 failures per file heal
        // inside it.
        let report = harness(4).run_transient_reads(2).unwrap();
        assert!(
            report.injected_failures > 0,
            "no transient failures injected"
        );
        assert!(report.retries_recorded > 0, "engine recorded no retries");
    }

    #[test]
    fn scrub_quarantine_repair_pipeline_round_trips() {
        let report = harness(5).run_scrub_quarantine_repair().unwrap();
        if !report.detected_at_open {
            assert!(report.scrub_corruptions > 0);
        }
        assert!(
            report.surviving_keys > 0,
            "repair lost every key: {report:?}"
        );
    }

    #[test]
    fn backup_crash_sweep_lands_on_acknowledged_prefixes() {
        use ldc_core::LdcConfig;
        for mode in [
            CompactionMode::Udc,
            CompactionMode::Ldc(LdcConfig::default()),
        ] {
            let h = ChaosHarness::new(ChaosConfig {
                ops: 120,
                ..ChaosConfig::quick(21, mode)
            });
            let profile = h.measure_backup_ops().unwrap();
            assert!(profile.before_checkpoint < profile.checkpoint_done);
            assert!(profile.checkpoint_done < profile.total);
            // One point early in checkpoint creation, one just before its
            // CURRENT marker, one in the middle of the shipping workload.
            let mid_checkpoint = profile.before_checkpoint + 1;
            let late_checkpoint = profile.checkpoint_done - 1;
            let mid_ship = (profile.checkpoint_done + profile.total) / 2;
            let reports = h
                .backup_crash_sweep([mid_checkpoint, late_checkpoint, mid_ship])
                .unwrap();
            assert!(reports.iter().all(|r| r.crashed));
            // Crashes before the marker leave an incomplete (refused)
            // backup; after it, the backup restores to an acknowledged
            // prefix and a follower bootstraps from it.
            assert!(!reports[0].backup_complete);
            assert!(reports[2].backup_complete);
            assert!(reports[2].restored_prefix.is_some());
            assert!(reports[2].follower_cursor.is_some());
        }
    }

    #[test]
    fn backup_crash_is_deterministic() {
        let h = harness(22);
        let profile = h.measure_backup_ops().unwrap();
        let p = (profile.checkpoint_done + profile.total) / 2;
        assert_eq!(
            h.run_backup_crash(p).unwrap(),
            h.run_backup_crash(p).unwrap()
        );
    }

    #[test]
    fn apply_crash_recovers_via_documented_recipe() {
        use ldc_core::LdcConfig;
        for mode in [
            CompactionMode::Udc,
            CompactionMode::Ldc(LdcConfig::default()),
        ] {
            let h = ChaosHarness::new(ChaosConfig {
                ops: 120,
                ..ChaosConfig::quick(23, mode)
            });
            // crash_op 0 never fires: measures the follower-side op space.
            let clean = h.run_apply_crash(0).unwrap();
            assert!(!clean.crashed);
            assert!(clean.final_cursor > 0);
            // Early point lands in the bootstrap restore (wipe +
            // re-bootstrap recovery); late point in the apply poll
            // (reopen + resume from the durable cursor).
            let reports = h
                .apply_crash_sweep([3, clean.follower_ops.saturating_sub(5)])
                .unwrap();
            for r in &reports {
                assert!(r.crashed, "point did not fire: {r:?}");
                assert_eq!(r.final_cursor, clean.final_cursor);
            }
        }
    }

    #[test]
    fn apply_crash_is_deterministic() {
        let h = harness(24);
        let clean = h.run_apply_crash(0).unwrap();
        let p = clean.follower_ops / 2;
        assert_eq!(h.run_apply_crash(p).unwrap(), h.run_apply_crash(p).unwrap());
    }

    #[test]
    fn failure_display_carries_replay_recipe() {
        let failure = ChaosFailure {
            plan: FaultPlan::crash_at(9, 33),
            detail: "test detail".to_string(),
            fault_log: vec!["crash: op 33 append 000002.log".to_string()],
        };
        let text = failure.to_string();
        assert!(text.contains("test detail"));
        assert!(text.contains("seed: 9"));
        assert!(text.contains("Some(33)"));
        assert!(text.contains("crash: op 33"));
    }
}
