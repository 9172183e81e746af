//! The simulated device front-end.
//!
//! [`SsdDevice`] ties together the virtual clock, the FTL, and the traffic
//! counters. Every transfer advances the shared clock by
//! `setup latency + bytes / bandwidth`; page programs additionally charge the
//! garbage-collection relocation work they trigger, which is how sustained
//! write pressure degrades effective write bandwidth — the behaviour the
//! paper's SSD-oriented argument depends on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ldc_obs::lockcheck::Mutex;
use ldc_obs::{Event, EventKind, NoopSink, SharedSink};

use crate::clock::{Nanos, TimeCategory, TimeLedger, VirtualClock};
use crate::config::{
    SsdConfig, FS_OP_LATENCY_NS, PAGE_BYTES, READ_BANDWIDTH, READ_LATENCY_NS, SEQ_READ_LATENCY_NS,
    SYSCALL_OVERHEAD_NS, WRITE_BANDWIDTH, WRITE_LATENCY_NS,
};
use crate::ftl::{Ftl, FtlStats};
use crate::stats::{IoClass, IoStats, IoStatsSnapshot};

/// A point-in-time view of everything the device knows, used by experiment
/// harnesses to report a run.
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    /// Virtual time at the snapshot, nanoseconds.
    pub now: Nanos,
    /// Per-class traffic counters.
    pub io: IoStatsSnapshot,
    /// FTL counters (host/NAND pages, erases).
    pub ftl: FtlStats,
    /// Mean erase count across blocks.
    pub mean_erase_count: f64,
    /// Maximum erase count across blocks.
    pub max_erase_count: u64,
    /// Fraction of rated endurance consumed (mean erase / endurance).
    pub wear_fraction: f64,
}

/// Simulated SSD shared by the storage backend and the engine.
///
/// The device is cheap to share (`Arc<SsdDevice>`); all interior state is
/// behind atomics or a mutex.
pub struct SsdDevice {
    cfg: SsdConfig,
    clock: VirtualClock,
    ledger: Arc<TimeLedger>,
    ftl: Mutex<Ftl>,
    io: IoStats,
    sink: Mutex<SharedSink>,
    // Mirrors `sink.enabled()` so the GC hot path can skip the sink mutex
    // entirely when tracing is off.
    sink_on: AtomicBool,
    // Accumulated GC relocation time ever charged to the clock. Request
    // tracing reads before/after deltas of this to blame foreground
    // latency absorbed by garbage collection.
    gc_nanos: AtomicU64,
}

impl std::fmt::Debug for SsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdDevice")
            .field("cfg", &self.cfg)
            .field("clock", &self.clock)
            .field("ledger", &self.ledger)
            .field("ftl", &self.ftl)
            .field("io", &self.io)
            .finish_non_exhaustive()
    }
}

impl SsdDevice {
    /// Builds a device from `cfg`, panicking on invalid configuration (use
    /// [`SsdConfig::validate`] to check first if the config is external).
    pub fn new(cfg: SsdConfig) -> Arc<Self> {
        cfg.validate().expect("invalid SsdConfig");
        let ftl = Ftl::new(&cfg);
        Arc::new(Self {
            cfg,
            clock: VirtualClock::new(),
            ledger: Arc::new(TimeLedger::new()),
            ftl: Mutex::new("ssd/device::ftl", ftl),
            io: IoStats::new(),
            sink: Mutex::new("ssd/device::sink", Arc::new(NoopSink)),
            sink_on: AtomicBool::new(false),
            gc_nanos: AtomicU64::new(0),
        })
    }

    /// Routes garbage-collection events to `sink`. With the default
    /// [`NoopSink`] the GC path never builds an [`Event`].
    pub fn set_event_sink(&self, sink: SharedSink) {
        self.sink_on.store(sink.enabled(), Ordering::Release);
        *self.sink.lock() = sink;
    }

    /// Device with the default (enterprise PCIe) profile.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(SsdConfig::default())
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The Table-I time ledger. The engine records phase times here; the
    /// device itself only records [`TimeCategory::FileSystem`] overhead.
    pub fn ledger(&self) -> &TimeLedger {
        &self.ledger
    }

    /// Per-class traffic counters.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.io.snapshot()
    }

    /// FTL counters.
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl.lock().stats()
    }

    /// Charges the time for reading `bytes` and counts it under `class`.
    /// Returns the nanoseconds charged (device time plus the modelled
    /// kernel syscall overhead, which is booked to the file-system
    /// category).
    pub fn charge_read(&self, bytes: u64, class: IoClass) -> Nanos {
        self.io.record_read(class, bytes);
        let t = transfer_time(bytes, READ_BANDWIDTH, READ_LATENCY_NS);
        self.clock.advance(t);
        t + self.charge_syscall()
    }

    /// Like [`SsdDevice::charge_read`] but for the continuation of a
    /// sequential stream (table scans, compaction input): the device/OS
    /// readahead hides most of the setup latency.
    pub fn charge_read_sequential(&self, bytes: u64, class: IoClass) -> Nanos {
        self.io.record_read(class, bytes);
        let t = transfer_time(bytes, READ_BANDWIDTH, SEQ_READ_LATENCY_NS);
        self.clock.advance(t);
        t + self.charge_syscall()
    }

    /// Charges the time for writing `bytes` and counts it under `class`.
    /// Returns the nanoseconds charged. (FTL page accounting happens
    /// separately via [`SsdDevice::program_pages`].)
    pub fn charge_write(&self, bytes: u64, class: IoClass) -> Nanos {
        self.io.record_write(class, bytes);
        let t = transfer_time(bytes, WRITE_BANDWIDTH, WRITE_LATENCY_NS);
        self.clock.advance(t);
        t + self.charge_syscall()
    }

    fn charge_syscall(&self) -> Nanos {
        self.clock.advance(SYSCALL_OVERHEAD_NS);
        self.ledger
            .record(TimeCategory::FileSystem, SYSCALL_OVERHEAD_NS);
        SYSCALL_OVERHEAD_NS
    }

    /// Programs logical pages into the FTL, charging only the *extra* time
    /// garbage collection spends relocating live pages (the host transfer
    /// time was already charged by [`SsdDevice::charge_write`]).
    /// Returns the nanoseconds charged.
    pub fn program_pages(&self, lpns: &[u64]) -> Nanos {
        let mut relocated = 0u64;
        let mut erased = 0u64;
        {
            let mut ftl = self.ftl.lock();
            for &lpn in lpns {
                let outcome = ftl.write_page(lpn);
                relocated += outcome.relocated_pages;
                erased += outcome.erased_blocks;
            }
        }
        if relocated == 0 {
            return 0;
        }
        // Relocation is a read + a program per page; charge at write
        // bandwidth, which dominates.
        let bytes = relocated * PAGE_BYTES;
        let t = bytes * 1_000_000_000 / WRITE_BANDWIDTH;
        let start = self.clock.now();
        self.clock.advance(t);
        self.gc_nanos.fetch_add(t, Ordering::Relaxed);
        if self.sink_on.load(Ordering::Acquire) {
            // `input_files`/`output_files` double as relocated-pages /
            // erased-blocks counts for GC events.
            self.sink.lock().record(
                Event::span(EventKind::SsdGc, start, start + t)
                    .files(
                        relocated.min(u64::from(u32::MAX)) as u32,
                        erased.min(u64::from(u32::MAX)) as u32,
                    )
                    .bytes(bytes, 0),
            );
        }
        t
    }

    /// Drops FTL mappings for deleted file pages (TRIM); free.
    pub fn trim_pages(&self, lpns: &[u64]) {
        let mut ftl = self.ftl.lock();
        for &lpn in lpns {
            ftl.trim_page(lpn);
        }
    }

    /// Charges one file-system metadata operation (create/sync/delete/rename)
    /// and books it under [`TimeCategory::FileSystem`].
    pub fn fs_op(&self) -> Nanos {
        self.clock.advance(FS_OP_LATENCY_NS);
        self.ledger
            .record(TimeCategory::FileSystem, FS_OP_LATENCY_NS);
        FS_OP_LATENCY_NS
    }

    /// Number of logical pages the device exposes.
    pub fn logical_pages(&self) -> u64 {
        self.cfg.logical_pages()
    }

    /// Total GC relocation nanoseconds ever charged to the clock. Monotone;
    /// callers diff two readings to know how much garbage-collection work a
    /// phase of theirs absorbed (the tracing layer's `SsdGc` blame).
    pub fn gc_busy_nanos(&self) -> Nanos {
        self.gc_nanos.load(Ordering::Relaxed)
    }

    /// Full observability snapshot.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let ftl = self.ftl.lock();
        let mean = ftl.mean_erase_count();
        let max = ftl.max_erase_count();
        DeviceSnapshot {
            now: self.clock.now(),
            io: self.io.snapshot(),
            ftl: ftl.stats(),
            mean_erase_count: mean,
            max_erase_count: max,
            wear_fraction: mean / self.cfg.endurance_cycles as f64,
        }
    }
}

fn transfer_time(bytes: u64, bandwidth: u64, latency_ns: u64) -> Nanos {
    latency_ns + bytes.saturating_mul(1_000_000_000) / bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Arc<SsdDevice> {
        SsdDevice::new(SsdConfig::tiny_for_tests())
    }

    #[test]
    fn reads_are_faster_than_writes() {
        let dev = device();
        let bytes = 1 << 20;
        let t_read = dev.charge_read(bytes, IoClass::UserRead);
        let t_write = dev.charge_write(bytes, IoClass::FlushWrite);
        assert!(
            t_write > 3 * t_read,
            "expected pronounced asymmetry: read={t_read} write={t_write}"
        );
        assert_eq!(dev.clock().now(), t_read + t_write);
    }

    #[test]
    fn traffic_is_classified() {
        let dev = device();
        dev.charge_write(123, IoClass::CompactionWrite);
        dev.charge_read(456, IoClass::CompactionRead);
        let io = dev.io_stats();
        assert_eq!(io.compaction_write_bytes(), 123);
        assert_eq!(io.compaction_read_bytes(), 456);
    }

    #[test]
    fn fs_ops_are_charged_to_the_filesystem_category() {
        let dev = device();
        let before = dev.ledger().get(TimeCategory::FileSystem);
        dev.fs_op();
        dev.fs_op();
        let after = dev.ledger().get(TimeCategory::FileSystem);
        assert_eq!(after - before, 2 * FS_OP_LATENCY_NS);
    }

    #[test]
    fn programming_pages_feeds_the_ftl() {
        let dev = device();
        let lpns: Vec<u64> = (0..10).collect();
        dev.program_pages(&lpns);
        assert_eq!(dev.ftl_stats().host_pages_written, 10);
        dev.trim_pages(&lpns);
        assert_eq!(dev.ftl_stats().pages_trimmed, 10);
    }

    #[test]
    fn gc_relocation_charges_time() {
        let dev = device();
        let logical = dev.logical_pages();
        // Fill the device, then overwrite a hot region until GC must move
        // cold data; the relocation must consume virtual time.
        let all: Vec<u64> = (0..logical).collect();
        dev.program_pages(&all);
        let before = dev.clock().now();
        let mut charged = 0;
        // Strided overwrites leave blocks partially valid, forcing GC to
        // relocate live pages (and charge time for it).
        for round in 0..50u64 {
            let hot: Vec<u64> = (0..logical / 8)
                .map(|i| (i * 8 + round % 8) % logical)
                .collect();
            charged += dev.program_pages(&hot);
        }
        assert!(charged > 0, "sustained overwrites should trigger GC time");
        assert!(dev.clock().now() > before);
        let snap = dev.snapshot();
        assert!(snap.ftl.erases > 0);
        assert!(snap.wear_fraction > 0.0);
        assert!(snap.max_erase_count as f64 >= snap.mean_erase_count);
    }

    #[test]
    fn gc_emits_events_when_sink_enabled() {
        let dev = device();
        let sink = Arc::new(ldc_obs::RingBufferSink::new(1024));
        dev.set_event_sink(sink.clone());
        let logical = dev.logical_pages();
        let all: Vec<u64> = (0..logical).collect();
        dev.program_pages(&all);
        for round in 0..50u64 {
            let hot: Vec<u64> = (0..logical / 8)
                .map(|i| (i * 8 + round % 8) % logical)
                .collect();
            dev.program_pages(&hot);
        }
        let events = sink.events();
        assert!(!events.is_empty(), "GC under churn must emit events");
        assert!(events.iter().all(|e| e.kind == EventKind::SsdGc));
        let gc = events
            .iter()
            .find(|e| e.input_files > 0)
            .expect("relocations recorded");
        assert!(gc.duration_nanos() > 0);
        assert_eq!(gc.input_bytes, u64::from(gc.input_files) * PAGE_BYTES);
    }

    #[test]
    fn snapshot_reports_consistent_time() {
        let dev = device();
        dev.charge_write(1000, IoClass::WalWrite);
        let snap = dev.snapshot();
        assert_eq!(snap.now, dev.clock().now());
        assert_eq!(snap.io.write_bytes_for(IoClass::WalWrite), 1000);
    }
}
