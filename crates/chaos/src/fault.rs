//! A fault-injecting [`StorageBackend`] decorator.
//!
//! [`FaultStorage`] wraps any backend and perturbs it according to a
//! [`FaultPlan`]: it can kill the power on the Nth mutating operation
//! (discarding un-synced bytes, optionally tearing the last write at byte
//! granularity), fail operations with injected I/O errors, and flip
//! individual bits in stored files. Every choice is drawn from a seeded
//! generator, so a `(seed, plan)` pair replays the exact same fault
//! sequence — the property the chaos harness builds on.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use ldc_obs::lockcheck::Mutex;
use ldc_obs::{Event, EventKind, SharedSink};
use ldc_ssd::{IoClass, SsdDevice, SsdError, SsdResult, StorageBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::plan::FaultPlan;

/// What a power cycle did to the files underneath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerCycleReport {
    /// Files that lost at least one byte.
    pub files_truncated: u32,
    /// Total un-synced bytes discarded.
    pub bytes_discarded: u64,
}

struct FaultState {
    rng: SmallRng,
    /// Crash arm; cleared by [`FaultStorage::power_cycle`] so the next
    /// incarnation (recovery) runs clean.
    armed_crash: Option<u64>,
    /// Injected-error probability; also cleared by `power_cycle`.
    io_error_prob: f64,
    /// Mutating operations observed so far (1-based after increment).
    ops: u64,
    powered_off: bool,
    injected_errors: u64,
    /// Transient read failures already delivered, per file.
    transient_seen: HashMap<String, u32>,
    /// Human-readable fault journal, for failure reports.
    log: Vec<String>,
}

/// Per-crash random context handed to the operation that trips the crash.
struct CrashCtx {
    rng: SmallRng,
    torn: bool,
}

/// Deterministic fault-injecting decorator over a [`StorageBackend`].
///
/// Reads and mutations are refused once the power is off; the harness
/// calls [`FaultStorage::power_cycle`] to model the reboot (un-synced
/// data is discarded, the crash arm is cleared) before reopening.
pub struct FaultStorage {
    inner: Arc<dyn StorageBackend>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    sink: Mutex<Option<SharedSink>>,
}

impl FaultStorage {
    /// Wraps `inner`, scheduling faults per `plan`.
    pub fn new(inner: Arc<dyn StorageBackend>, plan: FaultPlan) -> Arc<Self> {
        Arc::new(Self {
            inner,
            state: Mutex::new(
                "chaos/fault::state",
                FaultState {
                    rng: SmallRng::seed_from_u64(plan.seed),
                    armed_crash: plan.crash_after_ops,
                    io_error_prob: plan.io_error_prob,
                    ops: 0,
                    powered_off: false,
                    injected_errors: 0,
                    transient_seen: HashMap::new(),
                    log: Vec::new(),
                },
            ),
            plan,
            sink: Mutex::new("chaos/fault::sink", None),
        })
    }

    /// The plan this storage was built with (unchanged by `power_cycle`;
    /// print it to replay the run).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Routes a [`EventKind::FaultInjected`] event to `sink` for every
    /// fault this storage injects from now on.
    pub fn set_event_sink(&self, sink: SharedSink) {
        *self.sink.lock() = Some(sink);
    }

    /// Mutating operations observed so far.
    pub fn mutating_ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Injected I/O errors so far.
    pub fn injected_errors(&self) -> u64 {
        self.state.lock().injected_errors
    }

    /// Whether the simulated power is currently off.
    pub fn powered_off(&self) -> bool {
        self.state.lock().powered_off
    }

    /// The fault journal: one line per injected fault.
    pub fn fault_log(&self) -> Vec<String> {
        self.state.lock().log.clone()
    }

    /// Disarms the crash point and error injection without touching the
    /// stored bytes — models a clean process restart (page cache intact),
    /// as opposed to [`FaultStorage::power_cycle`]'s power loss.
    pub fn disarm(&self) {
        let mut state = self.state.lock();
        state.armed_crash = None;
        state.io_error_prob = 0.0;
        state.powered_off = false;
    }

    /// Models the reboot after a power loss: discards un-synced bytes
    /// from every file (tearing the tail at a seed-chosen byte when the
    /// plan allows torn writes), restores power, and disarms the crash
    /// and error injection so recovery runs clean.
    pub fn power_cycle(&self) -> SsdResult<PowerCycleReport> {
        let mut state = self.state.lock();
        state.powered_off = false;
        state.armed_crash = None;
        state.io_error_prob = 0.0;
        let mut report = PowerCycleReport::default();
        // `list` is sorted, so the rng draws stay deterministic.
        for name in self.inner.list() {
            let size = self.inner.size(&name)?;
            let synced = self.inner.synced_len(&name)?;
            if size <= synced {
                continue;
            }
            let survive = if self.plan.torn_writes {
                synced + state.rng.gen_range(0..(size - synced + 1))
            } else {
                synced
            };
            if survive < size {
                self.inner.truncate(&name, survive)?;
                report.files_truncated += 1;
                report.bytes_discarded += size - survive;
                state
                    .log
                    .push(format!("power_cycle: {name} cut {size} -> {survive}"));
            }
        }
        Ok(report)
    }

    /// Flips one seed-chosen bit of `name` in place, returning the
    /// `(byte offset, bit index)` it picked.
    pub fn flip_bit(&self, name: &str) -> SsdResult<(u64, u8)> {
        let data = self.inner.read_all(name, IoClass::Other)?;
        if data.is_empty() {
            return Err(SsdError::InvalidArgument(format!(
                "cannot flip a bit in empty file {name}"
            )));
        }
        let (offset, bit, op);
        {
            let mut state = self.state.lock();
            offset = state.rng.gen_range(0..data.len() as u64);
            bit = state.rng.gen_range(0..8u8);
            op = state.ops;
            state
                .log
                .push(format!("bit_flip: {name} byte {offset} bit {bit}"));
        }
        let mut bytes = data.to_vec();
        bytes[offset as usize] ^= 1 << bit;
        self.inner.write_file(name, &bytes, IoClass::Other)?;
        self.emit_fault(op);
        Ok((offset, bit))
    }

    fn emit_fault(&self, op_index: u64) {
        if let Some(sink) = &*self.sink.lock() {
            if sink.enabled() {
                let now = self.inner.device().clock().now();
                sink.record(Event::span(EventKind::FaultInjected, now, now).bytes(op_index, 0));
            }
        }
    }

    fn power_off_error() -> SsdError {
        SsdError::Io("injected fault: power is off".to_string())
    }

    fn power_loss_error(op: u64, what: &str) -> SsdError {
        SsdError::Io(format!("injected fault: power loss at op {op} ({what})"))
    }

    /// Gate every read through the power switch and the transient-failure
    /// schedule: the first `transient_read_failures` reads of each file
    /// fail with [`SsdError::TransientIo`], then the file heals.
    fn read_gate(&self, name: &str) -> SsdResult<()> {
        let mut state = self.state.lock();
        if state.powered_off {
            return Err(Self::power_off_error());
        }
        if self.plan.transient_read_failures > 0 {
            let seen = state.transient_seen.entry(name.to_string()).or_insert(0);
            if *seen < self.plan.transient_read_failures {
                *seen += 1;
                let n = *seen;
                let op = state.ops;
                state.injected_errors += 1;
                state.log.push(format!(
                    "transient_read: {name} failure {n}/{}",
                    self.plan.transient_read_failures
                ));
                drop(state);
                self.emit_fault(op);
                return Err(SsdError::TransientIo(format!(
                    "injected transient read failure {n} on {name}"
                )));
            }
        }
        Ok(())
    }

    /// Gate for mutating operations. Returns `Ok(None)` to proceed
    /// normally, `Ok(Some(ctx))` when this operation is the crash point
    /// (the caller applies its op-specific partial effect, then returns
    /// [`FaultStorage::power_loss_error`]), or `Err` when the power is
    /// already off / an I/O error is injected.
    fn mutate_gate(&self, what: &str, name: &str) -> SsdResult<Option<CrashCtx>> {
        let mut state = self.state.lock();
        if state.powered_off {
            return Err(Self::power_off_error());
        }
        state.ops += 1;
        let op = state.ops;
        let io_error_prob = state.io_error_prob;
        if io_error_prob > 0.0 && state.rng.gen_bool(io_error_prob) {
            state.injected_errors += 1;
            state.log.push(format!("io_error: op {op} {what} {name}"));
            drop(state);
            self.emit_fault(op);
            return Err(SsdError::Io(format!(
                "injected io error at op {op} ({what} {name})"
            )));
        }
        if state.armed_crash == Some(op) {
            state.powered_off = true;
            state.log.push(format!("crash: op {op} {what} {name}"));
            let ctx = CrashCtx {
                rng: SmallRng::seed_from_u64(state.rng.next_u64()),
                torn: self.plan.torn_writes,
            };
            drop(state);
            self.emit_fault(op);
            return Ok(Some(ctx));
        }
        Ok(None)
    }
}

impl StorageBackend for FaultStorage {
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        match self.mutate_gate("write_file", name)? {
            None => self.inner.write_file(name, data, class),
            Some(mut ctx) => {
                // Sealed writes are atomic: power loss leaves the file
                // fully present or absent, never torn.
                if ctx.rng.gen_bool(0.5) {
                    self.inner.write_file(name, data, class)?;
                }
                Err(Self::power_loss_error(self.mutating_ops(), "write_file"))
            }
        }
    }

    fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        match self.mutate_gate("append", name)? {
            None => self.inner.append(name, data, class),
            Some(mut ctx) => {
                // The interrupted append may leave a strict prefix in the
                // page cache; whether any of it survives is then decided
                // by `power_cycle` (it is un-synced either way).
                if ctx.torn && !data.is_empty() {
                    let keep = ctx.rng.gen_range(0..data.len());
                    if keep > 0 {
                        self.inner.append(name, &data[..keep], class)?;
                    }
                }
                Err(Self::power_loss_error(self.mutating_ops(), "append"))
            }
        }
    }

    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<Bytes> {
        self.read_gate(name)?;
        self.inner.read(name, offset, len, class)
    }

    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> SsdResult<Bytes> {
        self.read_gate(name)?;
        self.inner.read_sequential(name, offset, len, class)
    }

    fn size(&self, name: &str) -> SsdResult<u64> {
        self.inner.size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> SsdResult<()> {
        match self.mutate_gate("delete", name)? {
            None => self.inner.delete(name),
            Some(mut ctx) => {
                // Metadata ops are atomic: applied or not.
                if ctx.rng.gen_bool(0.5) {
                    self.inner.delete(name)?;
                }
                Err(Self::power_loss_error(self.mutating_ops(), "delete"))
            }
        }
    }

    fn rename(&self, from: &str, to: &str) -> SsdResult<()> {
        match self.mutate_gate("rename", from)? {
            None => self.inner.rename(from, to),
            Some(mut ctx) => {
                if ctx.rng.gen_bool(0.5) {
                    self.inner.rename(from, to)?;
                }
                Err(Self::power_loss_error(self.mutating_ops(), "rename"))
            }
        }
    }

    fn sync(&self, name: &str) -> SsdResult<()> {
        match self.mutate_gate("sync", name)? {
            // A crashed sync durably flushed nothing: the data stays
            // un-synced and power_cycle decides its fate.
            None => self.inner.sync(name),
            Some(_) => Err(Self::power_loss_error(self.mutating_ops(), "sync")),
        }
    }

    fn synced_len(&self, name: &str) -> SsdResult<u64> {
        self.inner.synced_len(name)
    }

    fn truncate(&self, name: &str, len: u64) -> SsdResult<()> {
        match self.mutate_gate("truncate", name)? {
            None => self.inner.truncate(name, len),
            Some(mut ctx) => {
                if ctx.rng.gen_bool(0.5) {
                    self.inner.truncate(name, len)?;
                }
                Err(Self::power_loss_error(self.mutating_ops(), "truncate"))
            }
        }
    }

    fn link_file(&self, from: &str, to: &str, class: IoClass) -> SsdResult<()> {
        match self.mutate_gate("link_file", to)? {
            None => self.inner.link_file(from, to, class),
            Some(mut ctx) => {
                // Like write_file and rename, a link is a metadata op:
                // power loss leaves it fully applied or not at all.
                if ctx.rng.gen_bool(0.5) {
                    self.inner.link_file(from, to, class)?;
                }
                Err(Self::power_loss_error(self.mutating_ops(), "link_file"))
            }
        }
    }

    fn list_dir(&self, prefix: &str) -> Vec<String> {
        self.inner.list_dir(prefix)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn device(&self) -> Arc<SsdDevice> {
        self.inner.device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_ssd::{MemStorage, SsdConfig};

    fn mem() -> Arc<MemStorage> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    #[test]
    fn benign_plan_is_transparent() {
        let fault = FaultStorage::new(mem(), FaultPlan::new(1));
        fault.write_file("a.sst", b"hello", IoClass::Other).unwrap();
        fault.append("w.log", b"tail", IoClass::WalWrite).unwrap();
        fault.sync("w.log").unwrap();
        assert_eq!(
            fault.read_all("a.sst", IoClass::Other).unwrap().as_ref(),
            b"hello"
        );
        assert_eq!(fault.list(), vec!["a.sst", "w.log"]);
        assert_eq!(fault.mutating_ops(), 3);
        assert!(fault.fault_log().is_empty());
    }

    #[test]
    fn crash_trips_on_exact_op_and_stays_down() {
        let fault = FaultStorage::new(
            mem(),
            FaultPlan {
                crash_after_ops: Some(2),
                ..FaultPlan::new(7)
            },
        );
        fault.append("w.log", b"one", IoClass::WalWrite).unwrap();
        assert!(matches!(
            fault.append("w.log", b"two", IoClass::WalWrite),
            Err(SsdError::Io(_))
        ));
        assert!(fault.powered_off());
        // Everything is refused until the power cycle.
        assert!(fault.append("w.log", b"three", IoClass::WalWrite).is_err());
        assert!(fault.read_all("w.log", IoClass::Other).is_err());
        let report = fault.power_cycle().unwrap();
        // Nothing was synced, so the whole file is discarded.
        assert_eq!(fault.size("w.log").unwrap(), 0);
        assert_eq!(report.bytes_discarded, 3);
        // Power restored; writes flow again.
        fault.append("w.log", b"fresh", IoClass::WalWrite).unwrap();
        assert_eq!(
            fault.read_all("w.log", IoClass::Other).unwrap().as_ref(),
            b"fresh"
        );
    }

    #[test]
    fn power_cycle_preserves_synced_prefix() {
        let fault = FaultStorage::new(
            mem(),
            FaultPlan {
                crash_after_ops: Some(4),
                ..FaultPlan::new(3)
            },
        );
        fault
            .append("w.log", b"durable", IoClass::WalWrite)
            .unwrap();
        fault.sync("w.log").unwrap();
        fault
            .append("w.log", b"-volatile", IoClass::WalWrite)
            .unwrap();
        assert!(fault.append("w.log", b"boom", IoClass::WalWrite).is_err());
        fault.power_cycle().unwrap();
        assert_eq!(
            fault.read_all("w.log", IoClass::Other).unwrap().as_ref(),
            b"durable"
        );
        // Sealed files always survive in full.
        fault
            .write_file("t.sst", b"sealed", IoClass::Other)
            .unwrap();
        fault.power_cycle().unwrap();
        assert_eq!(
            fault.read_all("t.sst", IoClass::Other).unwrap().as_ref(),
            b"sealed"
        );
    }

    #[test]
    fn torn_writes_keep_at_most_a_strict_prefix() {
        for seed in 0..32 {
            let fault = FaultStorage::new(mem(), FaultPlan::crash_at(seed, 2));
            fault.append("w.log", b"synced", IoClass::WalWrite).unwrap();
            // Op 2 is the sync: it fails, leaving the bytes volatile.
            assert!(fault.sync("w.log").is_err());
            fault.power_cycle().unwrap();
            let data = fault.read_all("w.log", IoClass::Other).unwrap();
            assert!(
                b"synced".starts_with(data.as_ref()),
                "seed {seed}: survivor {:?} is not a prefix",
                data.as_ref()
            );
        }
    }

    #[test]
    fn io_errors_are_injected_and_counted() {
        let fault = FaultStorage::new(mem(), FaultPlan::io_errors(11, 0.5));
        let mut failed = 0;
        for i in 0..64 {
            if fault
                .write_file(&format!("f{i}"), b"x", IoClass::Other)
                .is_err()
            {
                failed += 1;
            }
        }
        assert!(failed > 0, "no errors injected at p=0.5");
        assert!(failed < 64, "every op failed at p=0.5");
        assert_eq!(fault.injected_errors(), failed);
        assert_eq!(fault.fault_log().len() as u64, failed);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let fault = FaultStorage::new(mem(), FaultPlan::new(5));
        let original = vec![0u8; 64];
        fault.write_file("f", &original, IoClass::Other).unwrap();
        let (offset, bit) = fault.flip_bit("f").unwrap();
        let flipped = fault.read_all("f", IoClass::Other).unwrap();
        for (i, (a, b)) in original.iter().zip(flipped.iter()).enumerate() {
            if i as u64 == offset {
                assert_eq!(*b, a ^ (1 << bit));
            } else {
                assert_eq!(a, b);
            }
        }
        assert!(fault.flip_bit("missing").is_err());
    }

    #[test]
    fn transient_reads_fail_then_heal_per_file() {
        let fault = FaultStorage::new(mem(), FaultPlan::transient_reads(13, 2));
        fault.write_file("a", b"aaaa", IoClass::Other).unwrap();
        fault.write_file("b", b"bbbb", IoClass::Other).unwrap();
        // Each file fails exactly twice, independently, then heals.
        for name in ["a", "b"] {
            for _ in 0..2 {
                assert!(matches!(
                    fault.read(name, 0, 4, IoClass::UserRead),
                    Err(SsdError::TransientIo(_))
                ));
            }
            assert!(fault.read(name, 0, 4, IoClass::UserRead).is_ok());
            assert!(fault.read(name, 0, 4, IoClass::UserRead).is_ok());
        }
        assert_eq!(fault.injected_errors(), 4);
        assert_eq!(fault.fault_log().len(), 4);
    }

    #[test]
    fn same_seed_same_faults() {
        let run = |seed| {
            let fault = FaultStorage::new(
                mem(),
                FaultPlan {
                    crash_after_ops: Some(5),
                    torn_writes: true,
                    ..FaultPlan::new(seed)
                },
            );
            for i in 0.. {
                if fault
                    .append(
                        "w.log",
                        format!("record-{i:04}").as_bytes(),
                        IoClass::WalWrite,
                    )
                    .is_err()
                {
                    break;
                }
            }
            fault.power_cycle().unwrap();
            (
                fault.read_all("w.log", IoClass::Other).unwrap().to_vec(),
                fault.fault_log(),
            )
        };
        assert_eq!(run(99), run(99));
        // A different seed tears at a different byte (overwhelmingly).
        assert_ne!(run(99).0, run(100).0);
    }
}
