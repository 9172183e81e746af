//! Tier-1 witness that the inline drain deletes each task's obsolete tables
//! before it runs the next task. `drain_background` works off a whole
//! backlog of flushes and compactions under one core-lock hold; if the
//! tables those tasks drop were deleted only after the last one, the old
//! and new files of every task would sit side by side until then, and the
//! stored bytes would climb by the sum of the outputs. Deleted task by
//! task, they never stand higher than the bytes before the drain plus the
//! outputs of the one task being installed and the MANIFEST edits the
//! drain has appended.
//!
//! The sampler reads `total_bytes()` at every flush and compaction event,
//! which the engine records after a task's outputs are written and before
//! anything is deleted: the high point of that task. Everything is virtual
//! time on a `MemStorage`, so the sampled bytes are the same on every run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ldc_core::{LdcDb, LdcDbBuilder};
use ldc_lsm::Options;
use ldc_obs::{Event, EventSink};
use ldc_ssd::{MemStorage, SsdDevice, StorageBackend};

/// Samples the store's bytes at every task event while armed.
struct SpaceSampler {
    storage: Arc<dyn StorageBackend>,
    armed: AtomicBool,
    tasks: AtomicU64,
    peak_bytes: AtomicU64,
    largest_output: AtomicU64,
}

impl EventSink for SpaceSampler {
    fn record(&self, event: Event) {
        if !event.kind.is_compaction() || !self.armed.load(Ordering::SeqCst) {
            return;
        }
        self.tasks.fetch_add(1, Ordering::SeqCst);
        let bytes = self.storage.total_bytes();
        self.peak_bytes.fetch_max(bytes, Ordering::SeqCst);
        self.largest_output
            .fetch_max(event.output_bytes, Ordering::SeqCst);
    }
}

/// Bytes of every MANIFEST file: the one file a drain only ever appends
/// to, one edit per task.
fn manifest_bytes(storage: &dyn StorageBackend) -> u64 {
    storage
        .list_dir("MANIFEST-")
        .iter()
        .filter_map(|name| storage.size(name).ok())
        .sum()
}

/// Fills an inline store with overwrites, which leaves a backlog of tasks
/// (the lane is booked far past the last put), then drains it while the
/// sampler watches. Returns the bytes before the drain, the sampled peak,
/// the largest task output, the MANIFEST's growth and the task count.
fn drain_peak(builder: LdcDbBuilder) -> (u64, u64, u64, u64, u64) {
    let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
    let sampler = Arc::new(SpaceSampler {
        storage: Arc::clone(&storage),
        armed: AtomicBool::new(false),
        tasks: AtomicU64::new(0),
        peak_bytes: AtomicU64::new(0),
        largest_output: AtomicU64::new(0),
    });
    let db: LdcDb = builder
        .options(Options::small_for_tests())
        .background_workers(0)
        .storage(Arc::clone(&storage))
        .event_sink(sampler.clone())
        .build()
        .expect("open");
    let value = vec![b'v'; 900];
    for i in 0..3_000u32 {
        let key = format!("key{:06}", (i * 7) % 600);
        db.put(key.as_bytes(), &value).expect("put");
    }
    let before = storage.total_bytes();
    let manifest_before = manifest_bytes(&*storage);
    sampler.armed.store(true, Ordering::SeqCst);
    db.drain_background();
    sampler.armed.store(false, Ordering::SeqCst);
    (
        before,
        sampler.peak_bytes.load(Ordering::SeqCst),
        sampler.largest_output.load(Ordering::SeqCst),
        manifest_bytes(&*storage) - manifest_before,
        sampler.tasks.load(Ordering::SeqCst),
    )
}

fn assert_drain_bounded(builder: LdcDbBuilder, mode: &str) {
    let (before, peak, largest, edits, tasks) = drain_peak(builder);
    assert!(tasks >= 4, "{mode}: the drain ran only {tasks} tasks");
    assert!(
        peak <= before + largest + edits,
        "{mode}: stored bytes peaked at {peak} during a drain of {tasks} tasks, above \
         {before} before it plus {largest}, its largest task's output, plus {edits} \
         of MANIFEST edits",
    );
}

#[test]
fn udc_drain_deletes_obsolete_tables_task_by_task() {
    assert_drain_bounded(LdcDb::builder().udc_baseline(), "UDC");
}

#[test]
fn ldc_drain_deletes_obsolete_tables_task_by_task() {
    assert_drain_bounded(LdcDb::builder(), "LDC");
}
