//! Drives a key-value store through a [`WorkloadSpec`] and measures it in
//! virtual time.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ldc_ssd::VirtualClock;

use crate::distribution::Sampler;
use crate::spec::{ReadKind, WorkloadSpec};
use crate::Histogram;

/// The store interface the runner drives. Implemented by thin adapters in
/// the benchmark crate (and by an in-memory model in tests).
pub trait KvInterface {
    /// Inserts or overwrites a key.
    fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), String>;
    /// Point lookup.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;
    /// Range scan; returns the number of entries touched.
    fn scan(&mut self, start: &[u8], limit: usize) -> Result<usize, String>;
}

/// Measured outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub name: String,
    /// Measured operations.
    pub ops: u64,
    /// Virtual nanoseconds the measured window took.
    pub duration_nanos: u64,
    /// Latencies of all measured ops.
    pub overall: Histogram,
    /// Write-op latencies.
    pub writes: Histogram,
    /// Point-read latencies.
    pub reads: Histogram,
    /// Scan latencies.
    pub scans: Histogram,
    /// Mean latency (µs) and op count per virtual second — Fig 1's trace.
    pub per_second: Vec<SecondSample>,
}

/// One point of the per-second latency trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondSample {
    /// Virtual second since the measured window started.
    pub second: u64,
    /// Mean operation latency within that second, microseconds.
    pub mean_latency_us: f64,
    /// Operations completed within that second.
    pub ops: u64,
}

impl RunReport {
    /// Operations per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.duration_nanos == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.duration_nanos as f64
        }
    }

    /// Mean latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.overall.mean() / 1_000.0
    }

    /// Percentile latency in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.overall.percentile(p) as f64 / 1_000.0
    }
}

/// Executes only the (unmeasured) preload phase of `spec`: inserting the
/// first `spec.preload` keys at version 0. Returns the number inserted.
/// Harnesses that snapshot device counters should call this first, snapshot,
/// then call [`run_measured`].
pub fn preload_workload(spec: &WorkloadSpec, db: &mut impl KvInterface) -> Result<u64, String> {
    let codec = &spec.codec;
    for i in 0..spec.preload {
        db.insert(&codec.key(i), &codec.value(i, 0))?;
    }
    Ok(spec.preload)
}

/// Runs `spec` against `db`, measuring latencies on `clock` (the device's
/// virtual clock). The preload phase is executed but not measured.
pub fn run_workload(
    spec: &WorkloadSpec,
    db: &mut impl KvInterface,
    clock: &VirtualClock,
) -> Result<RunReport, String> {
    preload_workload(spec, db)?;
    run_measured(spec, db, clock)
}

/// Runs the measured window of `spec`, assuming [`preload_workload`] has
/// already populated the store.
pub fn run_measured(
    spec: &WorkloadSpec,
    db: &mut impl KvInterface,
    clock: &VirtualClock,
) -> Result<RunReport, String> {
    let codec = &spec.codec;
    let mut sampler = Sampler::new(spec.distribution.clone(), spec.seed);
    let mut op_rng = SmallRng::seed_from_u64(spec.seed ^ 0x00c0_ffee);
    let mut present = spec.preload;
    let mut version: u64 = 1;

    let mut report = RunReport {
        name: spec.name.clone(),
        ops: 0,
        duration_nanos: 0,
        overall: Histogram::new(),
        writes: Histogram::new(),
        reads: Histogram::new(),
        scans: Histogram::new(),
        per_second: Vec::new(),
    };
    let window_start = clock.now();
    let mut trace: Vec<(u128, u64)> = Vec::new(); // (sum latency ns, ops) per second

    for _ in 0..spec.ops {
        let is_write = spec.write_ratio > 0.0 && op_rng.gen_bool(spec.write_ratio.clamp(0.0, 1.0));
        let t0 = clock.now();
        if is_write {
            // Random insertion: new keys until the key space is full, then
            // distribution-chosen overwrites.
            let idx = if present < spec.key_space {
                let i = present;
                present += 1;
                i
            } else {
                sampler.sample(spec.key_space)
            };
            db.insert(&codec.key(idx), &codec.value(idx, version))?;
            version += 1;
        } else {
            let space = present.max(1);
            let idx = sampler.sample(space);
            match spec.read_kind {
                ReadKind::Point => {
                    db.get(&codec.key(idx))?;
                }
                ReadKind::Range => {
                    db.scan(&codec.key(idx), spec.scan_length)?;
                }
            }
        }
        let latency = clock.now() - t0;
        report.overall.record(latency);
        if is_write {
            report.writes.record(latency);
        } else if spec.read_kind == ReadKind::Point {
            report.reads.record(latency);
        } else {
            report.scans.record(latency);
        }
        let second = ((clock.now() - window_start) / 1_000_000_000) as usize;
        if trace.len() <= second {
            trace.resize(second + 1, (0, 0));
        }
        trace[second].0 += u128::from(latency);
        trace[second].1 += 1;
        report.ops += 1;
    }

    report.duration_nanos = clock.now() - window_start;
    report.per_second = trace
        .iter()
        .enumerate()
        .filter(|(_, (_, ops))| *ops > 0)
        .map(|(second, (sum, ops))| SecondSample {
            second: second as u64,
            mean_latency_us: *sum as f64 / (*ops as f64) / 1_000.0,
            ops: *ops,
        })
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// In-memory model store that charges fixed virtual costs.
    struct ModelStore {
        map: BTreeMap<Vec<u8>, Vec<u8>>,
        clock: VirtualClock,
        write_cost: u64,
        read_cost: u64,
    }

    impl KvInterface for ModelStore {
        fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), String> {
            self.clock.advance(self.write_cost);
            self.map.insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
            self.clock.advance(self.read_cost);
            Ok(self.map.get(key).cloned())
        }
        fn scan(&mut self, start: &[u8], limit: usize) -> Result<usize, String> {
            self.clock.advance(self.read_cost * limit as u64 / 10);
            Ok(self.map.range(start.to_vec()..).take(limit).count())
        }
    }

    fn model(clock: &VirtualClock) -> ModelStore {
        ModelStore {
            map: BTreeMap::new(),
            clock: clock.clone(),
            write_cost: 25_000,
            read_cost: 60_000,
        }
    }

    #[test]
    fn runs_the_requested_number_of_ops() {
        let clock = VirtualClock::new();
        let mut db = model(&clock);
        let spec = WorkloadSpec::read_write_balanced(2000).with_key_space(500);
        let report = run_workload(&spec, &mut db, &clock).unwrap();
        assert_eq!(report.ops, 2000);
        assert_eq!(report.overall.count(), 2000);
        assert!(report.duration_nanos > 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn mix_ratios_are_respected() {
        let clock = VirtualClock::new();
        let mut db = model(&clock);
        let spec = WorkloadSpec::write_heavy(10_000).with_key_space(1000);
        let report = run_workload(&spec, &mut db, &clock).unwrap();
        let write_frac = report.writes.count() as f64 / report.ops as f64;
        assert!(
            (0.67..0.73).contains(&write_frac),
            "write frac {write_frac}"
        );
        assert_eq!(report.scans.count(), 0);
    }

    #[test]
    fn scan_workloads_scan() {
        let clock = VirtualClock::new();
        let mut db = model(&clock);
        let spec = WorkloadSpec::scan_read_write_balanced(1000).with_key_space(500);
        let report = run_workload(&spec, &mut db, &clock).unwrap();
        assert!(report.scans.count() > 0);
        assert_eq!(report.reads.count(), 0);
    }

    #[test]
    fn read_only_preloads_so_reads_hit() {
        let clock = VirtualClock::new();
        let mut db = model(&clock);
        let spec = WorkloadSpec::read_only(500).with_key_space(200);
        let report = run_workload(&spec, &mut db, &clock).unwrap();
        assert_eq!(report.writes.count(), 0);
        assert_eq!(db.map.len(), 200, "preload must populate the store");
        assert_eq!(report.ops, 500);
    }

    #[test]
    fn preload_is_not_measured() {
        let clock = VirtualClock::new();
        let mut db = model(&clock);
        let spec = WorkloadSpec::read_only(100).with_key_space(1000);
        let report = run_workload(&spec, &mut db, &clock).unwrap();
        // 1000 preload inserts at 25us each are excluded; 100 reads at
        // 60us each are the measured window.
        assert_eq!(report.duration_nanos, 100 * 60_000);
        assert_eq!(report.overall.count(), 100);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let clock = VirtualClock::new();
            let mut db = model(&clock);
            let spec = WorkloadSpec::read_write_balanced(3000).with_key_space(700);
            let r = run_workload(&spec, &mut db, &clock).unwrap();
            (
                r.duration_nanos,
                r.writes.count(),
                r.overall.percentile(99.0),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_second_trace_accounts_every_op() {
        let clock = VirtualClock::new();
        let mut db = model(&clock);
        // 60us reads -> ~16.7k ops/s -> a 40k-op run spans ~2.4 seconds.
        let spec = WorkloadSpec::read_only(40_000).with_key_space(100);
        let report = run_workload(&spec, &mut db, &clock).unwrap();
        assert!(report.per_second.len() >= 2);
        let total: u64 = report.per_second.iter().map(|s| s.ops).sum();
        assert_eq!(total, report.ops);
        for s in &report.per_second {
            assert!(s.mean_latency_us > 0.0);
        }
    }

    #[test]
    fn report_latency_helpers() {
        let clock = VirtualClock::new();
        let mut db = model(&clock);
        let spec = WorkloadSpec::write_only(100);
        let report = run_workload(&spec, &mut db, &clock).unwrap();
        assert!((report.mean_latency_us() - 25.0).abs() < 2.0);
        assert!(report.percentile_us(99.0) >= 24.0);
    }
}
