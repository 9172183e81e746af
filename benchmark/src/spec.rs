//! What the benchmark runs and what it reports: the seven workloads and
//! every metric name, with unit, direction, clock and bound.
//!
//! `BENCHMARK.json` at the repository root is [`contract`] written out
//! (`ldc-benchmark contract > BENCHMARK.json`) for the driver that gates
//! pull requests; `tests/contract.rs` keeps the two equal.

use crate::json::Json;

/// Scale the driver runs the benchmark at: the full-size workloads take
/// 10 to 17 s a round, and the driver's 158 runs of three or more rounds
/// each have 3 420 s between them. Every count is a quarter of the table
/// below; baselines are per scale.
pub const DRIVER_SCALE: f64 = 0.25;
/// Seconds of measured window per driver run (`run_seconds`).
pub const DRIVER_SECONDS: u32 = 8;

/// Key width of every workload (paper §IV-A).
pub const KEY_BYTES: usize = 16;
/// Value width of every workload (paper §IV-A).
pub const VALUE_BYTES: usize = 1024;
/// Simulated device capacity at `--scale 1`. Small enough that the FTL has
/// to garbage collect inside a run: a sizing fill of 1 M puts erased 2 301
/// blocks at 1.25 GiB and none at the 8 GiB default.
pub const SSD_CAPACITY_BYTES: u64 = 1 << 30;
/// The smallest device any scale runs on.
pub const SSD_CAPACITY_FLOOR: u64 = 64 << 20;

/// Device capacity at `scale`: the data shrinks with the op counts, so the
/// device shrinks with it (in whole MiB), or no scaled-down run would ever
/// reach garbage collection.
pub fn ssd_capacity(scale: f64) -> u64 {
    let mib = (SSD_CAPACITY_BYTES as f64 * scale / f64::from(1 << 20)).round() as u64;
    (mib << 20).max(SSD_CAPACITY_FLOOR)
}

/// Keys in `get-hot`'s working set: ~500 blocks of 4 KiB, about 2 MiB,
/// which fits the 8 MiB block cache beside the pinned index and filter
/// bytes. A size relative to the cache, so `--scale` leaves it alone.
pub const HOT_KEYS: u64 = 500;
/// Entries one `scan-rh` scan asks for.
pub const SCAN_LIMIT: usize = 100;
/// Keys read back against the harness's last-written-version table after
/// each run.
pub const READBACK_KEYS: u64 = 1_000;
/// Share of host time stolen by the hypervisor above which a round is
/// marked `disturbed` and retried once.
pub const STEAL_LIMIT: f64 = 0.02;

/// The operation mix of a workload's measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Uniform puts into a cold store.
    Fill,
    /// 80 % uniform gets of present keys, 20 % gets of absent keys.
    GetCold,
    /// Uniform gets over a fixed [`HOT_KEYS`]-key subset, after a warm-up.
    GetHot,
    /// 50 % put / 50 % get, zipfian theta = 0.99 (YCSB-A).
    MixedA,
    /// 70 % `scan(start, 100)` / 30 % uniform put.
    ScanRh,
    /// One writer thread of uniform puts beside reader threads of uniform
    /// gets, compaction on the engine's worker pool.
    Rww,
}

/// One workload. Counts are those at `--scale 1`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// Why the workload is in the set (one line; `BENCHMARK.json` repeats it).
    pub why: &'static str,
    /// The window's operation mix.
    pub mix: Mix,
    /// Runs the UDC baseline instead of LDC.
    pub udc: bool,
    /// `Options::background_workers`; 0 is the deterministic inline engine.
    pub background_workers: usize,
    /// Keys written (once each) and drained during set-up; 0 is a cold store.
    pub preload_keys: u64,
    /// Keys the window's puts and gets draw from.
    pub key_space: u64,
    /// Measured operations (`rww-threaded`: the writer's puts).
    pub ops: u64,
}

impl Workload {
    /// Whether same-seed runs repeat their virtual-clock and count metrics
    /// exactly (everything but the threaded workload).
    pub fn deterministic(&self) -> bool {
        self.background_workers == 0
    }
}

/// Preload shared by the five workloads that start from a loaded store:
/// 150 000 keys are 156 MB, 20x the 8 MiB block cache.
const PRELOAD: u64 = 150_000;

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "fill-ldc",
        why: "Write-only fill of a cold LDC store: WAL, memtable, flush, table build, CRC, Bloom build, link and LDC-merge do all the work; the read path does none.",
        mix: Mix::Fill,
        udc: false,
        background_workers: 0,
        preload_keys: 0,
        key_space: 250_000,
        ops: 500_000,
    },
    Workload {
        name: "fill-udc",
        why: "Same fill on the UDC baseline: bypasses ldc-core, the classic merge executor does the work. An LDC-only change must leave this row's counts identical.",
        mix: Mix::Fill,
        udc: true,
        background_workers: 0,
        preload_keys: 0,
        key_space: 125_000,
        ops: 250_000,
    },
    Workload {
        name: "get-cold",
        why: "Point reads over data 20x the block cache, a fifth of them absent keys: table cache, Bloom probes, block decode, slice links, device reads. Write path idle.",
        mix: Mix::GetCold,
        udc: false,
        background_workers: 0,
        preload_keys: PRELOAD,
        key_space: PRELOAD,
        ops: 600_000,
    },
    Workload {
        name: "get-hot",
        why: "Point reads over 500 keys that fit the block cache: every get is a hit, so only CPU is left. The path get-cold bypasses; no device I/O in the window.",
        mix: Mix::GetHot,
        udc: false,
        background_workers: 0,
        preload_keys: PRELOAD,
        key_space: PRELOAD,
        ops: 2_500_000,
    },
    Workload {
        name: "mixed-a",
        why: "YCSB-A, half puts half gets, zipfian 0.99: reads beside writes on one clock, compaction churns the cache and interferes with gets, stalls hit puts.",
        mix: Mix::MixedA,
        udc: false,
        background_workers: 0,
        preload_keys: PRELOAD,
        key_space: PRELOAD,
        ops: 600_000,
    },
    Workload {
        name: "scan-rh",
        why: "70 % scans of 100 entries, 30 % puts: merging iterators across levels, slice links and the frozen region. LDC's known cost (paper Fig 10b).",
        mix: Mix::ScanRh,
        udc: false,
        background_workers: 0,
        preload_keys: PRELOAD,
        key_space: PRELOAD,
        ops: 30_000,
    },
    Workload {
        name: "rww-threaded",
        why: "One writer thread beside reader threads with two engine workers: the only workload where the scheduler, range claims and stall condvars run on real threads.",
        mix: Mix::Rww,
        udc: false,
        background_workers: 2,
        preload_keys: PRELOAD,
        key_space: PRELOAD,
        ops: 400_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `count` scaled by `--scale`, never below 1.
pub fn scaled(count: u64, scale: f64) -> u64 {
    ((count as f64 * scale).round() as u64).max(1)
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or memory: varies from run to run.
    Host,
    /// The simulated device's virtual clock: repeats exactly for the same
    /// seed with `background_workers = 0`.
    Virtual,
    /// A counter (bytes, events) or a ratio of counters: repeats likewise.
    Count,
}

impl Clock {
    /// Label in result files.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Label in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Defined and non-zero on every workload; measured with tracing off
    /// and gated by `BENCHMARK.json`'s bound.
    EndToEnd,
    /// End-to-end in meaning but defined on some workloads only (`applies`),
    /// so the driver's contract files it with the per-layer metrics; the
    /// harness's own `compare` still gates it with `bound`.
    Window,
    /// A single layer's count, time or ratio. No bound.
    Layer,
    /// A layer metric that needs the traced run (spans, blame, events).
    Traced,
    /// A fixed-input timing of one public function.
    Primitive,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in every result.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Clock it is read from.
    pub clock: Clock,
    /// Where it is reported.
    pub tier: Tier,
    /// Share of the old value by which the metric may get worse before
    /// `compare` calls it a regression.
    pub bound: Option<f64>,
    /// Workloads the metric is defined on; empty means all.
    pub applies: &'static [&'static str],
}

impl Metric {
    /// Whether the metric is defined on `workload`.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.applies.is_empty() || self.applies.contains(&workload)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        tier: Tier::EndToEnd,
        bound: Some(bound),
        applies: &[],
    }
}

const fn window(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
    applies: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        tier: Tier::Window,
        bound: Some(bound),
        applies,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        tier: Tier::Layer,
        bound: None,
        applies: &[],
    }
}

const fn traced(name: &'static str, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        clock,
        tier: Tier::Traced,
        bound: None,
        applies: &[],
    }
}

const fn primitive(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Host,
        tier: Tier::Primitive,
        bound: None,
        applies: &[],
    }
}

const VIRTUAL_FIVE: &[&str] = &["fill-ldc", "fill-udc", "get-cold", "mixed-a", "scan-rh"];
const WRITERS: &[&str] = &["fill-ldc", "fill-udc", "mixed-a", "scan-rh"];
const READERS: &[&str] = &["get-cold", "mixed-a", "scan-rh"];
const PUT_TAILS: &[&str] = &["fill-ldc", "fill-udc", "mixed-a"];
const GET_TAILS: &[&str] = &["get-cold", "mixed-a"];
const SCANS: &[&str] = &["scan-rh"];
const THREADED: &[&str] = &["rww-threaded"];

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

/// Every metric, in report order. README.md defines each one.
pub const METRICS: &[Metric] = &[
    // End to end, on every workload. Bounds are those of BENCHMARK.json:
    // three times the widest spread the sizing runs saw over ten seeds,
    // or the 25 % the contract stops at (README.md, "Sizing record").
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("ops_per_s", "ops/s", Higher, Host, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, Host, 0.15),
    e2e("virt_ops_per_s", "ops/s", Higher, Virtual, 0.25),
    e2e("write_amp", "ratio", Lower, Count, 0.05),
    e2e("compaction_io_amp", "ratio", Lower, Count, 0.10),
    e2e("space_amp", "ratio", Lower, Count, 0.15),
    // End to end over the measured window, on the workloads they are
    // defined on. Same-seed comparisons of deterministic workloads, so
    // the bound is the 1 % the issue set.
    window(
        "window.virt_ops_per_s",
        "ops/s",
        Higher,
        Virtual,
        0.01,
        VIRTUAL_FIVE,
    ),
    window(
        "window.virt_put_p999_us",
        "us",
        Lower,
        Virtual,
        0.01,
        PUT_TAILS,
    ),
    window(
        "window.virt_put_p9999_us",
        "us",
        Lower,
        Virtual,
        0.01,
        PUT_TAILS,
    ),
    window(
        "window.virt_get_p99_us",
        "us",
        Lower,
        Virtual,
        0.01,
        GET_TAILS,
    ),
    window(
        "window.virt_get_p999_us",
        "us",
        Lower,
        Virtual,
        0.01,
        GET_TAILS,
    ),
    window("window.virt_scan_p99_us", "us", Lower, Virtual, 0.01, SCANS),
    window("window.write_amp", "ratio", Lower, Count, 0.01, WRITERS),
    window(
        "window.compaction_io_amp",
        "ratio",
        Lower,
        Count,
        0.01,
        WRITERS,
    ),
    window("window.read_amp", "ratio", Lower, Count, 0.01, READERS),
    window(
        "window.bg_read_ops_per_s",
        "ops/s",
        Higher,
        Host,
        0.20,
        THREADED,
    ),
    window("window.put_p99_us", "us", Lower, Host, 0.20, THREADED),
    window("window.get_p50_us", "us", Lower, Host, 0.15, THREADED),
    // workload: the harness itself.
    layer("workload.harness_ns_per_op", "ns", Lower, Host),
    layer("workload.load_threads", "count", Lower, Count),
    // obs.
    traced("obs.trace_overhead_frac", "frac", Host),
    traced("obs.events_total", "count", Count),
    primitive("obs.histogram_record_ns", "ns"),
    // core: the LDC policy.
    layer("core.links", "count", Lower, Count),
    layer("core.ldc_merges", "count", Lower, Count),
    layer("core.frozen_bytes", "bytes", Lower, Count),
    layer("core.frozen_files", "count", Lower, Count),
    layer("core.slice_links", "count", Lower, Count),
    // lsm: counts.
    layer("lsm.flushes", "count", Lower, Count),
    layer("lsm.merges", "count", Lower, Count),
    layer("lsm.trivial_moves", "count", Higher, Count),
    layer("lsm.stalls", "count", Lower, Count),
    layer("lsm.slowdowns", "count", Lower, Count),
    layer("lsm.stall_virt_ns", "ns", Lower, Virtual),
    layer("lsm.bloom_skips", "count", Higher, Count),
    layer("lsm.write_groups", "count", Higher, Count),
    layer("lsm.cache.hit_rate", "frac", Higher, Count),
    layer("lsm.cache.evictions", "count", Lower, Count),
    layer("lsm.drain_s", "s", Lower, Host),
    layer("lsm.drain_virt_s", "s", Lower, Virtual),
    // lsm: host spans around each engine call (mean ns per op of that type).
    traced("lsm.put.span_ns", "ns", Host),
    traced("lsm.put.self_ns", "ns", Host),
    traced("lsm.get.span_ns", "ns", Host),
    traced("lsm.get.self_ns", "ns", Host),
    traced("lsm.scan.span_ns", "ns", Host),
    traced("lsm.scan.self_ns", "ns", Host),
    traced("lsm.put.bg_inline_ops", "count", Count),
    traced("lsm.put.bg_inline_ns", "ns", Host),
    // lsm: host percentiles too noisy to gate.
    layer("lsm.host.put_p50_us", "us", Lower, Host),
    layer("lsm.host.put_p999_us", "us", Lower, Host),
    layer("lsm.host.get_p99_us", "us", Lower, Host),
    layer("lsm.host.get_p999_us", "us", Lower, Host),
    // lsm: the engine's own virtual-clock blame (ns per op of that type).
    traced("lsm.blame.put.wal_append", "ns", Virtual),
    traced("lsm.blame.put.memtable", "ns", Virtual),
    traced("lsm.blame.put.stall", "ns", Virtual),
    traced("lsm.blame.put.slowdown", "ns", Virtual),
    traced("lsm.blame.put.worker_queue", "ns", Virtual),
    traced("lsm.blame.put.engine", "ns", Virtual),
    traced("lsm.blame.get.memtable", "ns", Virtual),
    traced("lsm.blame.get.cache_miss_io", "ns", Virtual),
    traced("lsm.blame.get.compaction_interference", "ns", Virtual),
    traced("lsm.blame.get.engine", "ns", Virtual),
    traced("lsm.blame.scan.cache_miss_io", "ns", Virtual),
    traced("lsm.blame.scan.engine", "ns", Virtual),
    // lsm: the paper's Table I shares of virtual time.
    layer("lsm.time.compaction_frac", "frac", Lower, Virtual),
    layer("lsm.time.filesystem_frac", "frac", Lower, Virtual),
    layer("lsm.time.fg_write_frac", "frac", Lower, Virtual),
    layer("lsm.time.fg_read_frac", "frac", Lower, Virtual),
    // lsm: primitives.
    primitive("lsm.crc32c.ns_per_kib", "ns"),
    primitive("lsm.filter.build_ns_per_key", "ns"),
    primitive("lsm.filter.query_ns", "ns"),
    primitive("lsm.block.build_ns_per_entry", "ns"),
    primitive("lsm.block.seek_ns", "ns"),
    primitive("lsm.memtable.add_ns", "ns"),
    primitive("lsm.memtable.get_ns", "ns"),
    primitive("lsm.table.build_ns_per_entry", "ns"),
    primitive("lsm.table.get_ns", "ns"),
    primitive("lsm.iterator.merge_next_ns", "ns"),
    primitive("lsm.wal.add_record_ns", "ns"),
    primitive("lsm.cache.hit_ns", "ns"),
    // ssd: bytes and calls by class over the window.
    layer("ssd.bytes.wal_write", "bytes", Lower, Count),
    layer("ssd.bytes.flush_write", "bytes", Lower, Count),
    layer("ssd.bytes.compaction_read", "bytes", Lower, Count),
    layer("ssd.bytes.compaction_write", "bytes", Lower, Count),
    layer("ssd.bytes.user_read", "bytes", Lower, Count),
    layer("ssd.bytes.manifest_write", "bytes", Lower, Count),
    layer("ssd.ops.user_read", "count", Lower, Count),
    layer("ssd.ops.wal_write", "count", Lower, Count),
    traced("ssd.ops.fs_meta", "count", Count),
    // ssd: host time inside the simulator and MemStorage, per measured op.
    traced("ssd.host_ns.total", "ns", Host),
    traced("ssd.host_ns.wal_write", "ns", Host),
    traced("ssd.host_ns.user_read", "ns", Host),
    traced("ssd.host_ns.flush_write", "ns", Host),
    traced("ssd.host_ns.compaction", "ns", Host),
    traced("ssd.host_ns.bg_threads", "ns", Host),
    // ssd: the FTL.
    layer("ssd.ftl.host_pages_written", "count", Lower, Count),
    layer("ssd.ftl.gc_pages_relocated", "count", Lower, Count),
    layer("ssd.ftl.erases", "count", Lower, Count),
    layer("ssd.ftl.pages_trimmed", "count", Higher, Count),
    layer("ssd.ftl.device_write_amp", "ratio", Lower, Count),
    layer("ssd.ftl.max_erase_count", "count", Lower, Count),
    layer("ssd.virt_busy_s", "s", Lower, Virtual),
    primitive("ssd.mem.append_1k_ns", "ns"),
    primitive("ssd.mem.read_4k_ns", "ns"),
    // Wire tier: primitives only (README.md, "The wire tier").
    primitive("client.proto.encode_put_ns", "ns"),
    primitive("client.proto.decode_response_ns", "ns"),
    primitive("server.router.shard_of_ns", "ns"),
];

/// Looks a metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`: the command, the workloads and the metric lists in the
/// form the driver's contract prescribes. Every metric that is not end to
/// end on every workload goes under `per_layer`.
pub fn contract() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    let scale = DRIVER_SCALE.to_string();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
        "--scale",
        scale.as_str(),
    ];
    let workloads = WORKLOADS.iter().map(|w| {
        Json::obj([
            ("name", Json::Str(w.name.into())),
            ("why", Json::Str(w.why.into())),
        ])
    });
    let describe = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.label().into())),
        ];
        if m.tier == Tier::EndToEnd {
            fields.push(("bound", Json::Num(m.bound.unwrap_or(0.0))));
        }
        Json::obj(fields)
    };
    let tier = |end_to_end: bool| {
        METRICS
            .iter()
            .filter(|m| (m.tier == Tier::EndToEnd) == end_to_end)
            .map(describe)
            .collect()
    };
    Json::obj([
        ("command", strings(&command)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(DRIVER_SECONDS))),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(tier(true))),
        ("per_layer", Json::Arr(tier(false))),
    ])
}
