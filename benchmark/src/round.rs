//! One round: set a store up, run a workload's window against it, check
//! every result, and turn what the public counters and the recorder saw
//! into metric values.
//!
//! A round is a fixed op count, not a fixed duration, so that the virtual
//! clock and every counter repeat exactly for the same seed. The window is
//! the op loop plus the final `drain_background()`: compaction debt the
//! loop deferred belongs to it. Keys, values and expected results are made
//! and checked outside the span timed around each engine call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ldc::lsm::{CacheCounters, DbStats};
use ldc::obs::{Blame, Event, EventSink, OpType, SharedSink};
use ldc::ssd::{
    DeviceSnapshot, IoClass, MemStorage, SsdDevice, StorageBackend, TimeCategory, VirtualClock,
};
use ldc::workload::{Distribution, KeyCodec, Sampler};
use ldc::{LdcDb, Options, SsdConfig};

use crate::json::Json;
use crate::machine;
use crate::plan::{sub_seed, value_matches, OpKind, Plan, PRELOAD_VERSION};
use crate::spec::{ssd_capacity, Mix, Workload, KEY_BYTES, READBACK_KEYS, SCAN_LIMIT, VALUE_BYTES};
use crate::stats::percentile;
use crate::tracing::{Recorder, Root, TraceReport, TracingStorage};

/// Bytes of one key-value pair as the user wrote it.
const ENTRY_BYTES: u64 = (KEY_BYTES + VALUE_BYTES) as u64;
/// `last_version` entry of a key never written.
const NEVER: u32 = u32::MAX;

/// What to run.
#[derive(Debug, Clone)]
pub struct RoundConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Multiplier of every op count.
    pub scale: f64,
    /// Wrap storage in [`TracingStorage`], span every engine call, attach
    /// the engine's own tracer and a counting event sink.
    pub traced: bool,
    /// Threads issuing operations in the threaded workload (one writer, the
    /// rest readers). Inline workloads always use one.
    pub load_threads: usize,
}

/// What a round measured. Metric values are `None` where the round could
/// not measure them (too few samples for a percentile, a ratio over zero,
/// a traced-only metric in a plain round).
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    /// Metric values by name (names of [`crate::spec::METRICS`]).
    pub metrics: BTreeMap<String, Option<f64>>,
    /// Operations issued in the window plus keys read back after it.
    pub attempted: u64,
    /// Of those, how many returned an error or a wrong result.
    pub failed: u64,
    /// Host seconds of the op loop alone (plain against traced gives the
    /// tracing overhead).
    pub loop_s: f64,
    /// Share of host CPU time the hypervisor stole during the round.
    pub steal: f64,
}

/// A round's result with the pieces only in-process callers (the tests)
/// look at.
#[derive(Debug)]
pub struct RoundOutput {
    /// What the round measured.
    pub result: RoundResult,
    /// The device after the final drain, before the read-back.
    pub device: DeviceSnapshot,
    /// What the recorder saw (traced rounds).
    pub trace: Option<TraceReport>,
}

impl RoundResult {
    /// The line a round process prints for its parent.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), v.map_or(Json::Null, Json::Num)))
                        .collect(),
                ),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("loop_s", Json::Num(self.loop_s)),
            ("steal", Json::Num(self.steal)),
        ])
    }

    /// Reads back what [`RoundResult::to_json`] wrote.
    pub fn from_json(json: &Json) -> Option<RoundResult> {
        let metrics = json
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64()))
            .collect();
        Some(RoundResult {
            metrics,
            attempted: json.get("attempted")?.as_f64()? as u64,
            failed: json.get("failed")?.as_f64()? as u64,
            loop_s: json.get("loop_s")?.as_f64()?,
            steal: json.get("steal")?.as_f64()?,
        })
    }
}

/// Counts the events the engine emits; the traced run's `obs.events_total`.
#[derive(Debug, Default)]
struct CountingSink {
    events: AtomicU64,
}

impl EventSink for CountingSink {
    fn record(&self, _event: Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens the store a workload runs on: `Options::default()` (paper §IV-A:
/// 2 MiB memtable and SSTables, fan-out 10, 10 bits/key, 8 MiB block
/// cache), `wal_sync = false`, `MemStorage` on a simulated SSD of
/// [`ssd_capacity`]. With a recorder, storage is wrapped in
/// [`TracingStorage`] and the engine's worst-K tracer is on.
pub fn open_store(
    workload: &Workload,
    scale: f64,
    recorder: Option<&Arc<Recorder>>,
    sink: Option<SharedSink>,
) -> Result<LdcDb, String> {
    let ssd = SsdConfig {
        capacity_bytes: ssd_capacity(scale),
        ..SsdConfig::default()
    };
    let mut builder = LdcDb::builder()
        .options(Options::default())
        .wal_sync(false)
        .background_workers(workload.background_workers);
    if workload.udc {
        builder = builder.udc_baseline();
    }
    let mem: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::new(ssd));
    builder = match recorder {
        Some(recorder) => builder
            .storage(TracingStorage::new(mem, Arc::clone(recorder)))
            .trace_worst_k(crate::tracing::WORST_K),
        None => builder.storage(mem),
    };
    if let Some(sink) = sink {
        builder = builder.event_sink(sink);
    }
    builder.build().map_err(|e| format!("open store: {e}"))
}

/// Latency samples of one op type, in nanoseconds, in issue order.
#[derive(Debug, Default)]
struct Samples {
    host: Vec<u64>,
    virt: Vec<u64>,
}

/// Times engine calls on both clocks and, in a traced round, reports each
/// as a span.
struct OpTimer<'a> {
    recorder: &'a Recorder,
    traced: bool,
    clock: VirtualClock,
    put: Samples,
    get: Samples,
    scan: Samples,
}

impl<'a> OpTimer<'a> {
    fn new(recorder: &'a Recorder, traced: bool, clock: VirtualClock) -> Self {
        Self {
            recorder,
            traced,
            clock,
            put: Samples::default(),
            get: Samples::default(),
            scan: Samples::default(),
        }
    }

    fn reserve(&mut self, plan: &Plan) {
        let count = |want: &[OpKind]| plan.ops.iter().filter(|op| want.contains(&op.kind)).count();
        for (samples, n) in [
            (&mut self.put, count(&[OpKind::Put])),
            (&mut self.get, count(&[OpKind::Get, OpKind::GetAbsent])),
            (&mut self.scan, count(&[OpKind::Scan])),
        ] {
            samples.host.reserve_exact(n);
            samples.virt.reserve_exact(n);
        }
    }

    /// Runs `call`, the engine call of op `index`; only `call` is inside
    /// the timed span.
    #[inline]
    fn time<T>(&mut self, root: Root, index: u64, call: impl FnOnce() -> T) -> T {
        if self.traced {
            self.recorder.begin();
        }
        let virt0 = self.clock.now();
        let start = self.recorder.now_ns();
        let out = call();
        let end = self.recorder.now_ns();
        let virt = self.clock.now().saturating_sub(virt0);
        let samples = match root {
            Root::Put => &mut self.put,
            Root::Get => &mut self.get,
            _ => &mut self.scan,
        };
        samples.host.push(end.saturating_sub(start));
        samples.virt.push(virt);
        if self.traced {
            self.recorder.end(root, index, start, end, virt);
        }
        out
    }

    fn host_total_ns(&self) -> u64 {
        [&self.put, &self.get, &self.scan]
            .iter()
            .map(|s| s.host.iter().sum::<u64>())
            .sum()
    }
}

/// What the harness knows the store should hold.
struct Model {
    // Version of each key's last acknowledged put; `NEVER` if none.
    last_version: Vec<u32>,
    live_keys: u64,
    user_bytes_written: u64,
    bytes_returned: u64,
    attempted: u64,
    failed: u64,
}

impl Model {
    fn new(keys: u64) -> Self {
        Self {
            last_version: vec![NEVER; keys as usize],
            live_keys: 0,
            user_bytes_written: 0,
            bytes_returned: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn wrote(&mut self, key: u32, version: u64) {
        let slot = &mut self.last_version[key as usize];
        if *slot == NEVER {
            self.live_keys += 1;
        }
        *slot = version as u32;
        self.user_bytes_written += ENTRY_BYTES;
    }

    /// Whether `got` is what a get of `key` must return.
    fn get_is_right(&self, key: u32, got: Option<&[u8]>) -> bool {
        match (self.last_version.get(key as usize), got) {
            (Some(&NEVER) | None, None) => true,
            (Some(&version), Some(value)) if version != NEVER => {
                value_matches(value, u64::from(key), u64::from(version))
            }
            _ => false,
        }
    }
}

/// The engine's virtual-clock blame buckets the traced run reports, per op
/// type (as `lsm.blame.<op>.<bucket>`, ns per op of that type).
const BLAMED: [(&str, OpType, &[Blame]); 3] = [
    (
        "put",
        OpType::Put,
        &[
            Blame::WalAppend,
            Blame::Memtable,
            Blame::Stall,
            Blame::Slowdown,
            Blame::WorkerQueue,
            Blame::Engine,
        ],
    ),
    (
        "get",
        OpType::Get,
        &[
            Blame::Memtable,
            Blame::CacheMissIo,
            Blame::CompactionInterference,
            Blame::Engine,
        ],
    ),
    ("scan", OpType::Scan, &[Blame::CacheMissIo, Blame::Engine]),
];

/// Counter readings at one instant; metrics are differences of two.
struct Reading {
    device: DeviceSnapshot,
    stats: DbStats,
    cache: CacheCounters,
    ledger: [u64; 5],
    blame: [[u64; Blame::COUNT]; 3],
    events: u64,
}

impl Reading {
    fn take(db: &LdcDb, sink: Option<&CountingSink>) -> Self {
        let ledger = db.device().ledger();
        let metrics = db.metrics();
        Self {
            device: db.device().snapshot(),
            stats: db.stats(),
            cache: db.block_cache_counters(),
            ledger: TimeCategory::ALL.map(|c| ledger.get(c)),
            blame: BLAMED.map(|(_, op, _)| metrics.blame_totals(op)),
            events: sink.map_or(0, |s| s.events.load(Ordering::Relaxed)),
        }
    }
}

fn class_index(class: IoClass) -> usize {
    IoClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("IoClass::ALL lists every class")
}

/// `n / d`, or `None` over zero.
fn ratio(n: f64, d: f64) -> Option<f64> {
    (d != 0.0).then(|| n / d)
}

/// Nearest-rank percentile of sorted nanosecond samples, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> Option<f64> {
    percentile(sorted, p).map(|ns| ns as f64 / 1_000.0)
}

/// What the reader threads of the threaded workload did.
#[derive(Default)]
struct ReaderOutcome {
    gets: u64,
    failed: u64,
    bytes_returned: u64,
    host: Vec<u64>,
}

/// Uniform gets until `stop`; every key was preloaded, so each must return
/// a well-formed value of that key (which version depends on the race with
/// the writer, so any version the value itself names is accepted).
fn reader_loop(
    db: &LdcDb,
    plan: &Plan,
    recorder: &Recorder,
    traced: bool,
    seed: u64,
    start: &Barrier,
    stop: &AtomicBool,
) -> ReaderOutcome {
    recorder.attach_thread();
    let mut keys = Sampler::new(Distribution::Uniform, seed);
    let mut timer = OpTimer::new(recorder, traced, db.device().clock().clone());
    let mut out = ReaderOutcome::default();
    start.wait();
    while !stop.load(Ordering::Relaxed) {
        let key = keys.sample(plan.key_space) as u32;
        let got = timer.time(Root::Get, out.gets, || db.get(plan.keys.get(key)));
        out.gets += 1;
        let right = match &got {
            Ok(Some(value)) => KeyCodec::parse_version(value)
                .is_some_and(|version| value_matches(value, u64::from(key), version)),
            _ => false,
        };
        if right {
            out.bytes_returned += ENTRY_BYTES;
        } else {
            out.failed += 1;
        }
    }
    out.host = timer.get.host;
    out
}

/// Runs the window's planned ops on the calling thread.
fn run_ops(db: &LdcDb, plan: &Plan, sorted: &[u32], model: &mut Model, timer: &mut OpTimer) {
    let codec = crate::plan::codec();
    for (i, op) in plan.ops.iter().enumerate() {
        let index = i as u64;
        let key = plan.keys.get(op.key);
        model.attempted += 1;
        match op.kind {
            OpKind::Put => {
                let version = index + 1;
                let value = codec.value(u64::from(op.key), version);
                match timer.time(Root::Put, index, || db.put(key, &value)) {
                    Ok(()) => model.wrote(op.key, version),
                    Err(_) => model.failed += 1,
                }
            }
            OpKind::Get | OpKind::GetAbsent => match timer.time(Root::Get, index, || db.get(key)) {
                Ok(got) if model.get_is_right(op.key, got.as_deref()) => {
                    model.bytes_returned += got.map_or(0, |_| ENTRY_BYTES);
                }
                _ => model.failed += 1,
            },
            OpKind::Scan => {
                let got = timer.time(Root::Scan, index, || db.scan(key, SCAN_LIMIT));
                // The live set is exactly the preloaded keys (puts only
                // overwrite), so the scan must return the next keys in
                // order, each with its last-written value.
                let from = sorted.partition_point(|&k| plan.keys.get(k) < key);
                let expect = &sorted[from..sorted.len().min(from + SCAN_LIMIT)];
                let right = got.as_ref().is_ok_and(|rows| {
                    rows.len() == expect.len()
                        && rows.iter().zip(expect).all(|((k, v), &want)| {
                            k.as_slice() == plan.keys.get(want) && model.get_is_right(want, Some(v))
                        })
                });
                if right {
                    model.bytes_returned += expect.len() as u64 * ENTRY_BYTES;
                } else {
                    model.failed += 1;
                }
            }
        }
    }
}

/// Set-up is timed this many times at most.
const SETUP_REPEATS: usize = 49;
/// Set-up is repeated only while all repetitions together, each as fast as
/// the fastest so far, would stay under this many seconds.
const SETUP_BUDGET_S: f64 = 0.25;

/// Everything the window starts from.
struct SetUp {
    plan: Plan,
    recorder: Arc<Recorder>,
    sink: Option<Arc<CountingSink>>,
    db: LdcDb,
    model: Model,
    // Preloaded key indices in key order (scan workloads).
    sorted: Vec<u32>,
}

impl SetUp {
    /// Generates the inputs, opens the store, preloads and drains it, and
    /// warms the cache where the workload says so.
    fn new(cfg: &RoundConfig) -> Result<SetUp, String> {
        let workload = cfg.workload;
        let plan = Plan::generate(workload, cfg.seed, cfg.scale);
        let recorder = Recorder::new();
        let sink = cfg.traced.then(|| Arc::new(CountingSink::default()));
        let db = open_store(
            workload,
            cfg.scale,
            cfg.traced.then_some(&recorder),
            sink.clone().map(|s| s as SharedSink),
        )?;
        let mut model = Model::new(plan.key_space.max(plan.preload));
        let codec = crate::plan::codec();
        for k in 0..plan.preload {
            db.put(plan.keys.get(k as u32), &codec.value(k, PRELOAD_VERSION))
                .map_err(|e| format!("preload put {k}: {e}"))?;
            model.wrote(k as u32, PRELOAD_VERSION);
        }
        db.drain_background();
        for &k in &plan.hot {
            db.get(plan.keys.get(k))
                .map_err(|e| format!("warm-up get {k}: {e}"))?;
        }
        let sorted = match workload.mix {
            Mix::ScanRh => plan.keys.sorted(plan.preload),
            _ => Vec::new(),
        };
        Ok(SetUp {
            plan,
            recorder,
            sink,
            db,
            model,
            sorted,
        })
    }
}

/// Runs one round of `cfg.workload`.
pub fn run_round(cfg: &RoundConfig) -> Result<RoundOutput, String> {
    let workload = cfg.workload;
    let readers = match workload.mix {
        Mix::Rww => {
            if cfg.load_threads < 2 {
                return Err(format!(
                    "{} needs a writer and at least one reader: 2 load threads, got {}",
                    workload.name, cfg.load_threads
                ));
            }
            cfg.load_threads - 1
        }
        _ => 0,
    };
    let steal0 = machine::cpu_jiffies();

    // ---- set-up: inputs, store, preload, drain, warm-up ----
    // A cold store sets up in milliseconds, and a timing that short reads
    // whatever the host is doing at that instant (sizing saw one process
    // take 2.0 ms and the next 3.3 ms, 7 to 160 ms under a noisy
    // neighbour). Such a set-up is repeated and the fastest repetition is
    // its time: interference only ever adds. A preloaded store takes most
    // of a second and is set up once.
    let mut setup_s = f64::INFINITY;
    let mut repeats = 0;
    let set_up = loop {
        let start = Instant::now();
        let set_up = SetUp::new(cfg)?;
        setup_s = setup_s.min(start.elapsed().as_secs_f64());
        repeats += 1;
        if repeats == SETUP_REPEATS || setup_s * repeats as f64 > SETUP_BUDGET_S {
            break set_up;
        }
    };
    let SetUp {
        plan,
        recorder,
        sink,
        db,
        mut model,
        sorted,
    } = set_up;
    let setup_ops = plan.preload + plan.hot.len() as u64;
    let setup_user_bytes = model.user_bytes_written;

    // ---- window: op loop + final drain ----
    recorder.attach_thread();
    db.reset_traces();
    let before = Reading::take(&db, sink.as_deref());
    let mut timer = OpTimer::new(&recorder, cfg.traced, db.device().clock().clone());
    timer.reserve(&plan);
    recorder.enable();
    let loop_start = Instant::now();
    let reader_outcomes: Vec<ReaderOutcome> = if readers == 0 {
        run_ops(&db, &plan, &sorted, &mut model, &mut timer);
        Vec::new()
    } else {
        let start = Barrier::new(readers + 1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|r| {
                    let seed = sub_seed(cfg.seed, 100 + r as u64);
                    let (db, plan, recorder, start, stop) = (&db, &plan, &*recorder, &start, &stop);
                    scope.spawn(move || {
                        reader_loop(db, plan, recorder, cfg.traced, seed, start, stop)
                    })
                })
                .collect();
            start.wait();
            run_ops(&db, &plan, &sorted, &mut model, &mut timer);
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        })
    };
    let loop_s = loop_start.elapsed().as_secs_f64();
    // Space and the LDC structures are read before the drain: the drain
    // reclaims the frozen region and would hide LDC's space cost.
    let space_bytes = db.space_bytes();
    let version = db.engine_ref().version();
    let drain_index = plan.ops.len() as u64;
    let drain_start = Instant::now();
    if cfg.traced {
        recorder.begin();
    }
    let span_start = recorder.now_ns();
    let drain_virt_ns = db.drain_background();
    if cfg.traced {
        recorder.end(
            Root::Drain,
            drain_index,
            span_start,
            recorder.now_ns(),
            drain_virt_ns,
        );
    }
    let drain_s = drain_start.elapsed().as_secs_f64();
    recorder.disable();
    let after = Reading::take(&db, sink.as_deref());
    // Before the sample vectors are copied and sorted below.
    let peak_rss_mib = machine::peak_rss_mib();

    // ---- read-back against the last-written-version table ----
    let mut pick = Sampler::new(Distribution::Uniform, sub_seed(cfg.seed, 9));
    for _ in 0..READBACK_KEYS {
        let key = pick.sample(plan.key_space) as u32;
        model.attempted += 1;
        match db.get(plan.keys.get(key)) {
            Ok(got) if model.get_is_right(key, got.as_deref()) => {}
            _ => model.failed += 1,
        }
    }
    for outcome in &reader_outcomes {
        model.attempted += outcome.gets;
        model.failed += outcome.failed;
        model.bytes_returned += outcome.bytes_returned;
    }

    // ---- metrics ----
    let ops = plan.ops.len() as f64;
    let window_s = loop_s + drain_s;
    let io0 = &before.device.io;
    let io1 = &after.device.io;
    let io = io1.delta_since(io0);
    let window_virt_ns = after.device.now.saturating_sub(before.device.now) as f64;
    let window_user_bytes = (model.user_bytes_written - setup_user_bytes) as f64;
    let compaction_bytes = |io: &ldc::ssd::IoStatsSnapshot| {
        (io.compaction_read_bytes() + io.compaction_write_bytes()) as f64
    };
    let mut m: BTreeMap<String, Option<f64>> = BTreeMap::new();
    let mut set = |name: &str, value: Option<f64>| {
        debug_assert!(
            crate::spec::metric(name).is_some(),
            "undeclared metric {name}"
        );
        m.insert(name.to_string(), value);
    };

    let harness_ns = loop_s * 1e9 - timer.host_total_ns() as f64;
    let OpTimer {
        mut put,
        mut get,
        mut scan,
        ..
    } = timer;
    let mut reader_host: Vec<u64> = reader_outcomes
        .iter()
        .flat_map(|o| o.host.iter().copied())
        .collect();
    for samples in [
        &mut reader_host,
        &mut put.host,
        &mut put.virt,
        &mut get.host,
        &mut get.virt,
        &mut scan.virt,
    ] {
        samples.sort_unstable();
    }

    // End to end over the whole run, set-up included, so that each is
    // defined and non-zero on every workload.
    set("setup_s", Some(setup_s));
    set("ops_per_s", ratio(ops, window_s));
    set("peak_rss_mib", peak_rss_mib);
    set(
        "virt_ops_per_s",
        ratio((setup_ops as f64 + ops) * 1e9, after.device.now as f64),
    );
    set(
        "write_amp",
        ratio(
            io1.total_write_bytes() as f64,
            model.user_bytes_written as f64,
        ),
    );
    set(
        "compaction_io_amp",
        ratio(compaction_bytes(io1), model.user_bytes_written as f64),
    );
    set(
        "space_amp",
        ratio(space_bytes as f64, (model.live_keys * ENTRY_BYTES) as f64),
    );

    // End to end, measured window only.
    set("window.virt_ops_per_s", ratio(ops * 1e9, window_virt_ns));
    set("window.virt_put_p999_us", percentile_us(&put.virt, 99.9));
    set("window.virt_put_p9999_us", percentile_us(&put.virt, 99.99));
    set("window.virt_get_p99_us", percentile_us(&get.virt, 99.0));
    set("window.virt_get_p999_us", percentile_us(&get.virt, 99.9));
    set("window.virt_scan_p99_us", percentile_us(&scan.virt, 99.0));
    set(
        "window.write_amp",
        ratio(io.total_write_bytes() as f64, window_user_bytes),
    );
    set(
        "window.compaction_io_amp",
        ratio(compaction_bytes(&io), window_user_bytes),
    );
    set(
        "window.read_amp",
        ratio(
            io.read_bytes_for(IoClass::UserRead) as f64,
            model.bytes_returned as f64,
        ),
    );
    let reader_gets: u64 = reader_outcomes.iter().map(|o| o.gets).sum();
    set(
        "window.bg_read_ops_per_s",
        (readers > 0).then(|| reader_gets as f64 / loop_s),
    );
    set("window.put_p99_us", percentile_us(&put.host, 99.0));
    set("window.get_p50_us", percentile_us(&reader_host, 50.0));

    // workload
    set("workload.harness_ns_per_op", ratio(harness_ns, ops));
    set("workload.load_threads", Some((1 + readers) as f64));

    // core, lsm counts
    let (s0, s1) = (&before.stats, &after.stats);
    set("core.links", Some((s1.links - s0.links) as f64));
    set(
        "core.ldc_merges",
        Some((s1.ldc_merges - s0.ldc_merges) as f64),
    );
    set("core.frozen_bytes", Some(version.frozen_bytes() as f64));
    set("core.frozen_files", Some(version.frozen_files() as f64));
    set("core.slice_links", Some(version.total_slice_links() as f64));
    set("lsm.flushes", Some((s1.flushes - s0.flushes) as f64));
    set("lsm.merges", Some((s1.merges - s0.merges) as f64));
    set(
        "lsm.trivial_moves",
        Some((s1.trivial_moves - s0.trivial_moves) as f64),
    );
    set("lsm.stalls", Some((s1.stalls - s0.stalls) as f64));
    set("lsm.slowdowns", Some((s1.slowdowns - s0.slowdowns) as f64));
    set(
        "lsm.stall_virt_ns",
        Some((s1.stall_nanos - s0.stall_nanos) as f64),
    );
    set(
        "lsm.bloom_skips",
        Some((s1.bloom_skips - s0.bloom_skips) as f64),
    );
    set(
        "lsm.write_groups",
        Some((s1.write_groups - s0.write_groups) as f64),
    );
    let hits = (after.cache.hits - before.cache.hits) as f64;
    let misses = (after.cache.misses - before.cache.misses) as f64;
    set("lsm.cache.hit_rate", ratio(hits, hits + misses));
    set(
        "lsm.cache.evictions",
        Some((after.cache.evictions - before.cache.evictions) as f64),
    );
    set("lsm.drain_s", Some(drain_s));
    set("lsm.drain_virt_s", Some(drain_virt_ns as f64 / 1e9));
    set("lsm.host.put_p50_us", percentile_us(&put.host, 50.0));
    set("lsm.host.put_p999_us", percentile_us(&put.host, 99.9));
    set("lsm.host.get_p99_us", percentile_us(&get.host, 99.0));
    set("lsm.host.get_p999_us", percentile_us(&get.host, 99.9));

    // lsm: Table I shares of the virtual time charged in the window.
    let ledger: Vec<f64> = before
        .ledger
        .iter()
        .zip(&after.ledger)
        .map(|(a, b)| b.saturating_sub(*a) as f64)
        .collect();
    let ledger_total: f64 = ledger.iter().sum();
    for (name, category) in [
        ("lsm.time.compaction_frac", TimeCategory::CompactionWork),
        ("lsm.time.filesystem_frac", TimeCategory::FileSystem),
        ("lsm.time.fg_write_frac", TimeCategory::ForegroundWrite),
        ("lsm.time.fg_read_frac", TimeCategory::ForegroundRead),
    ] {
        let i = TimeCategory::ALL
            .iter()
            .position(|c| *c == category)
            .expect("TimeCategory::ALL lists every category");
        set(name, ratio(ledger[i], ledger_total));
    }

    // ssd
    for (name, bytes) in [
        ("ssd.bytes.wal_write", io.write_bytes_for(IoClass::WalWrite)),
        (
            "ssd.bytes.flush_write",
            io.write_bytes_for(IoClass::FlushWrite),
        ),
        ("ssd.bytes.compaction_read", io.compaction_read_bytes()),
        ("ssd.bytes.compaction_write", io.compaction_write_bytes()),
        ("ssd.bytes.user_read", io.read_bytes_for(IoClass::UserRead)),
        (
            "ssd.bytes.manifest_write",
            io.write_bytes_for(IoClass::ManifestWrite),
        ),
        (
            "ssd.ops.user_read",
            io.read_ops[class_index(IoClass::UserRead)],
        ),
        (
            "ssd.ops.wal_write",
            io.write_ops[class_index(IoClass::WalWrite)],
        ),
    ] {
        set(name, Some(bytes as f64));
    }
    let (f0, f1) = (&before.device.ftl, &after.device.ftl);
    let host_pages = (f1.host_pages_written - f0.host_pages_written) as f64;
    let gc_pages = (f1.gc_pages_relocated - f0.gc_pages_relocated) as f64;
    set("ssd.ftl.host_pages_written", Some(host_pages));
    set("ssd.ftl.gc_pages_relocated", Some(gc_pages));
    set("ssd.ftl.erases", Some((f1.erases - f0.erases) as f64));
    set(
        "ssd.ftl.pages_trimmed",
        Some((f1.pages_trimmed - f0.pages_trimmed) as f64),
    );
    set(
        "ssd.ftl.device_write_amp",
        ratio(host_pages + gc_pages, host_pages),
    );
    set(
        "ssd.ftl.max_erase_count",
        Some(after.device.max_erase_count as f64),
    );
    set("ssd.virt_busy_s", Some(ledger_total / 1e9));

    // Traced run only: spans, the engine's blame totals, event count.
    let trace = cfg.traced.then(|| recorder.report());
    if let Some(trace) = &trace {
        set(
            "obs.events_total",
            Some((after.events - before.events) as f64),
        );
        for (op, root) in [("put", Root::Put), ("get", Root::Get), ("scan", Root::Scan)] {
            let totals = trace.op(root);
            let count = totals.count as f64;
            set(
                &format!("lsm.{op}.span_ns"),
                ratio(totals.span_ns as f64, count),
            );
            set(
                &format!("lsm.{op}.self_ns"),
                ratio(totals.self_ns as f64, count),
            );
        }
        let puts = trace.op(Root::Put);
        set("lsm.put.bg_inline_ops", Some(puts.bg_inline_ops as f64));
        set(
            "lsm.put.bg_inline_ns",
            ratio(puts.bg_inline_ns as f64, puts.count as f64),
        );
        let counts = [
            s1.writes - s0.writes,
            s1.gets - s0.gets,
            s1.scans - s0.scans,
        ];
        for (i, (op, _, blames)) in BLAMED.iter().enumerate() {
            for blame in *blames {
                let ns = after.blame[i][blame.index()] - before.blame[i][blame.index()];
                set(
                    &format!("lsm.blame.{op}.{}", blame.label()),
                    ratio(ns as f64, counts[i] as f64),
                );
            }
        }
        set(
            "ssd.ops.fs_meta",
            Some(trace.storage(|_, class| class == "fs-meta").count as f64),
        );
        let per_op = |ns: u64| ratio(ns as f64, ops);
        let class_ns = |label: &str| trace.storage(|_, class| class == label).ns;
        set("ssd.host_ns.total", per_op(trace.storage(|_, _| true).ns));
        set(
            "ssd.host_ns.wal_write",
            per_op(class_ns(IoClass::WalWrite.label())),
        );
        set(
            "ssd.host_ns.user_read",
            per_op(class_ns(IoClass::UserRead.label())),
        );
        set(
            "ssd.host_ns.flush_write",
            per_op(class_ns(IoClass::FlushWrite.label())),
        );
        set(
            "ssd.host_ns.compaction",
            per_op(
                class_ns(IoClass::CompactionRead.label())
                    + class_ns(IoClass::CompactionWrite.label()),
            ),
        );
        set(
            "ssd.host_ns.bg_threads",
            per_op(trace.storage(|root, _| root == Root::Bg).ns),
        );
    }

    let steal = machine::steal_share(steal0, machine::cpu_jiffies());
    Ok(RoundOutput {
        result: RoundResult {
            metrics: m,
            attempted: model.attempted,
            failed: model.failed,
            loop_s,
            steal,
        },
        device: after.device,
        trace,
    })
}
