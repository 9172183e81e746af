//! Over-the-wire YCSB benchmark (`ldc-bench ycsb-net`).
//!
//! Drives the six YCSB core workloads (A–F) against a real `ldc-server`
//! over loopback TCP, in both compaction modes, two ways per workload:
//!
//! * **Closed loop** — one strict request/response connection. Latency is
//!   the *virtual* engine service time each response carries
//!   (`NetMeta::service_ns`), so the closed-loop numbers are a pure
//!   function of the op stream: same seed ⇒ byte-identical JSON. Host
//!   scheduling noise never leaks in.
//! * **Open loop** — a deterministic [`ArrivalSchedule`] decides every
//!   send time in advance, a split sender/receiver pair decouples issue
//!   from completion, and latency is host wall-clock from scheduled send
//!   to reply. Overload shows up as `Overloaded` rejections (counted,
//!   never fatal) and as queue depth in the sampled per-shard series.
//!
//! Results land in `BENCH_net.json`. `--closed-only` skips the open-loop
//! phases so the whole file is deterministic — CI compares one run with
//! `crates/bench/golden/ycsb_net_closed.json` to prove the stack replays.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ldc_client::proto::{Request, Status};
use ldc_client::Client;
use ldc_server::{LdcServer, ServerConfig};
use ldc_workload::{ArrivalSchedule, Histogram, ReadKind, Sampler, WorkloadSpec};

use crate::cli::CommonArgs;
use crate::experiment::paper_scaled_options;

/// Flags specific to `ycsb-net`, layered over [`CommonArgs`].
#[derive(Debug, Clone)]
pub struct NetBenchArgs {
    /// Common seed/ops/value-size flags.
    pub common: CommonArgs,
    /// Shard count (the paper's multi-instance axis; floor 1).
    pub shards: usize,
    /// Per-shard admission queue bound.
    pub queue_capacity: usize,
    /// Open-loop offered load, requests per second.
    pub rate_per_sec: f64,
    /// Skip open-loop phases so the output is fully deterministic.
    pub closed_only: bool,
    /// Output path for the JSON report.
    pub out: String,
}

/// One deterministic operation of the generated YCSB stream.
enum NetOp {
    Insert { idx: u64, version: u64 },
    Read { idx: u64 },
    Scan { idx: u64, limit: u32 },
    Rmw { idx: u64, version: u64 },
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Uniform draw in `[0, 1)` from the top 53 bits of a xorshift step.
fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic YCSB op stream: same spec + seed ⇒ the same ops, on the
/// wire or off it. Mirrors the workload runner's structure (fill the key
/// space first, then distribution-chosen overwrites) and additionally
/// honors `rmw_ratio` for YCSB-F; op classes are drawn write / rmw / read.
struct OpGen<'a> {
    spec: &'a WorkloadSpec,
    sampler: Sampler,
    class_rng: u64,
    present: u64,
    version: u64,
}

impl<'a> OpGen<'a> {
    fn new(spec: &'a WorkloadSpec) -> Self {
        Self {
            spec,
            sampler: Sampler::new(spec.distribution.clone(), spec.seed),
            class_rng: (spec.seed ^ 0x00c0_ffee) | 1,
            present: spec.preload,
            version: 0,
        }
    }

    fn next(&mut self) -> NetOp {
        let spec = self.spec;
        let u = unit(&mut self.class_rng);
        if u < spec.write_ratio {
            let idx = if self.present < spec.key_space {
                let i = self.present;
                self.present += 1;
                i
            } else {
                self.sampler.sample(spec.key_space)
            };
            self.version += 1;
            return NetOp::Insert {
                idx,
                version: self.version,
            };
        }
        let space = self.present.max(1);
        let idx = self.sampler.sample(space);
        if u < spec.write_ratio + spec.rmw_ratio {
            self.version += 1;
            NetOp::Rmw {
                idx,
                version: self.version,
            }
        } else {
            match spec.read_kind {
                ReadKind::Point => NetOp::Read { idx },
                ReadKind::Range => NetOp::Scan {
                    idx,
                    limit: spec.scan_length as u32,
                },
            }
        }
    }
}

impl NetOp {
    /// The wire request for this op. RMW degrades to its write-back here:
    /// an open-loop driver cannot wait for the read half without closing
    /// the loop, which `WorkloadSpec::rmw_ratio` explicitly permits.
    fn to_request(&self, spec: &WorkloadSpec) -> Request {
        let codec = &spec.codec;
        match *self {
            NetOp::Insert { idx, version } | NetOp::Rmw { idx, version } => Request::Put {
                key: codec.key(idx),
                value: codec.value(idx, version),
            },
            NetOp::Read { idx } => Request::Get {
                key: codec.key(idx),
            },
            NetOp::Scan { idx, limit } => Request::Scan {
                start: codec.key(idx),
                limit,
            },
        }
    }
}

/// Virtual-time percentiles for one op class, as a JSON fragment.
fn class_json(name: &str, h: &Histogram) -> Option<String> {
    if h.count() == 0 {
        return None;
    }
    Some(format!(
        concat!(
            "\"{}\":{{\"count\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},",
            "\"p999_us\":{:.1},\"max_us\":{:.1}}}"
        ),
        name,
        h.count(),
        h.percentile(50.0) as f64 / 1e3,
        h.percentile(99.0) as f64 / 1e3,
        h.percentile(99.9) as f64 / 1e3,
        h.max() as f64 / 1e3,
    ))
}

/// Closed-loop phase outcome; every field is deterministic per seed.
struct ClosedResult {
    ops: u64,
    reads: Histogram,
    writes: Histogram,
    scans: Histogram,
    rmws: Histogram,
    service_total_ns: u64,
    per_shard_completed: Vec<u64>,
}

impl ClosedResult {
    fn json(&self) -> String {
        let classes: Vec<String> = [
            ("reads", &self.reads),
            ("writes", &self.writes),
            ("scans", &self.scans),
            ("rmws", &self.rmws),
        ]
        .iter()
        .filter_map(|(n, h)| class_json(n, h))
        .collect();
        let per_shard: Vec<String> = self
            .per_shard_completed
            .iter()
            .map(|c| c.to_string())
            .collect();
        format!(
            concat!(
                "{{\"ops\":{},\"service_total_ns\":{},",
                "\"ops_per_virtual_sec\":{:.0},{},",
                "\"per_shard_completed\":[{}]}}"
            ),
            self.ops,
            self.service_total_ns,
            // Reads served entirely from cache consume zero virtual device
            // time; report 0 rather than a nonsense division.
            if self.service_total_ns == 0 {
                0.0
            } else {
                self.ops as f64 * 1e9 / self.service_total_ns as f64
            },
            classes.join(","),
            per_shard.join(","),
        )
    }
}

/// Preloads `spec.preload` keys through the wire, then returns the
/// per-shard completed counts so the measured phase can diff against them.
fn preload(client: &mut Client, spec: &WorkloadSpec) -> Result<(), String> {
    let codec = &spec.codec;
    for i in 0..spec.preload {
        client
            .put(&codec.key(i), &codec.value(i, 0))
            .map_err(|e| format!("preload key {i}: {e}"))?;
    }
    Ok(())
}

/// Strict request/response over one connection; latency is the virtual
/// `service_ns` carried by each reply. Closed-loop rejections are
/// impossible by construction (at most one queued request per shard), so
/// any error here is a real failure.
fn run_closed_loop(server: &LdcServer, spec: &WorkloadSpec) -> Result<ClosedResult, String> {
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    preload(&mut client, spec)?;
    let base: Vec<u64> = server
        .stats_snapshot()
        .shards
        .iter()
        .map(|s| s.completed)
        .collect();

    let mut gen = OpGen::new(spec);
    let codec = &spec.codec;
    let mut result = ClosedResult {
        ops: 0,
        reads: Histogram::new(),
        writes: Histogram::new(),
        scans: Histogram::new(),
        rmws: Histogram::new(),
        service_total_ns: 0,
        per_shard_completed: Vec::new(),
    };
    let err = |op: &str, e: ldc_client::NetError| format!("closed-loop {op}: {e}");
    for _ in 0..spec.ops {
        let service_ns = match gen.next() {
            NetOp::Insert { idx, version } => {
                let meta = client
                    .put(&codec.key(idx), &codec.value(idx, version))
                    .map_err(|e| err("put", e))?;
                result.writes.record(meta.service_ns);
                meta.service_ns
            }
            NetOp::Read { idx } => {
                let (_, meta) = client.get(&codec.key(idx)).map_err(|e| err("get", e))?;
                result.reads.record(meta.service_ns);
                meta.service_ns
            }
            NetOp::Scan { idx, limit } => {
                let (_, meta) = client
                    .scan(&codec.key(idx), limit)
                    .map_err(|e| err("scan", e))?;
                result.scans.record(meta.service_ns);
                meta.service_ns
            }
            NetOp::Rmw { idx, version } => {
                // The closed loop *can* express a real read-modify-write:
                // read, then write back; the op costs both halves.
                let key = codec.key(idx);
                let (_, read) = client.get(&key).map_err(|e| err("rmw get", e))?;
                let write = client
                    .put(&key, &codec.value(idx, version))
                    .map_err(|e| err("rmw put", e))?;
                let total = read.service_ns + write.service_ns;
                result.rmws.record(total);
                total
            }
        };
        result.service_total_ns += service_ns;
        result.ops += 1;
    }

    result.per_shard_completed = server
        .stats_snapshot()
        .shards
        .iter()
        .zip(&base)
        .map(|(s, b)| s.completed - b)
        .collect();
    Ok(result)
}

/// One periodic sample of the server's queues while open-loop load runs.
struct DepthSample {
    at_ms: u64,
    depths: Vec<u32>,
    completed: Vec<u64>,
}

/// Open-loop phase outcome. Host-time latencies: not deterministic, and
/// not claimed to be.
struct OpenResult {
    rate_per_sec: f64,
    sent: u64,
    ok: u64,
    rejected: u64,
    latency_ns: Histogram,
    wall_secs: f64,
    samples: Vec<DepthSample>,
}

impl OpenResult {
    fn json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                let depths: Vec<String> = s.depths.iter().map(|d| d.to_string()).collect();
                let completed: Vec<String> = s.completed.iter().map(|c| c.to_string()).collect();
                format!(
                    "{{\"at_ms\":{},\"queue_depth\":[{}],\"completed\":[{}]}}",
                    s.at_ms,
                    depths.join(","),
                    completed.join(",")
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"process\":\"poisson\",\"offered_per_sec\":{:.0},\"sent\":{},",
                "\"ok\":{},\"rejected\":{},\"achieved_per_sec\":{:.0},",
                "\"wall_secs\":{:.3},\"p50_us\":{:.1},\"p99_us\":{:.1},",
                "\"p999_us\":{:.1},\"shard_series\":[{}]}}"
            ),
            self.rate_per_sec,
            self.sent,
            self.ok,
            self.rejected,
            self.ok as f64 / self.wall_secs.max(1e-9),
            self.wall_secs,
            self.latency_ns.percentile(50.0) as f64 / 1e3,
            self.latency_ns.percentile(99.0) as f64 / 1e3,
            self.latency_ns.percentile(99.9) as f64 / 1e3,
            samples.join(","),
        )
    }
}

/// Open-loop run: requests go out at pre-computed offsets regardless of
/// completion; a receiver thread drains replies and a sampler thread
/// records per-shard queue depth and completion counts. Overload
/// rejections are expected output, not errors.
#[allow(clippy::disallowed_methods)]
fn run_open_loop(
    server: &LdcServer,
    spec: &WorkloadSpec,
    rate_per_sec: f64,
) -> Result<OpenResult, String> {
    // Fresh connection: request ids restart at 1, so send timestamps can
    // be indexed by id.
    let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let (mut tx, mut rx) = client.split().map_err(|e| format!("split: {e}"))?;

    let offsets = ArrivalSchedule::poisson(rate_per_sec, spec.ops, spec.seed ^ 0x0a11).offsets_ns();
    let mut gen = OpGen::new(spec);
    let requests: Vec<Request> = (0..spec.ops).map(|_| gen.next().to_request(spec)).collect();

    let send_times: Mutex<Vec<Instant>> = Mutex::new(Vec::with_capacity(requests.len()));
    let done = AtomicBool::new(false);
    let ops = requests.len() as u64;

    let mut result = OpenResult {
        rate_per_sec,
        sent: 0,
        ok: 0,
        rejected: 0,
        latency_ns: Histogram::new(),
        wall_secs: 0.0,
        samples: Vec::new(),
    };
    let start = Instant::now();

    let (recv_out, samples) = std::thread::scope(|s| {
        let receiver = s.spawn(|| -> Result<(Histogram, u64, u64), String> {
            let mut hist = Histogram::new();
            let (mut ok, mut rejected) = (0u64, 0u64);
            for _ in 0..ops {
                let resp = match rx.recv() {
                    Ok(Some(resp)) => resp,
                    Ok(None) => return Err("server closed mid-run".to_string()),
                    Err(e) => return Err(format!("receive: {e}")),
                };
                let sent_at = {
                    let times = send_times.lock().expect("send-time lock");
                    times[(resp.req_id - 1) as usize]
                };
                hist.record(sent_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                match resp.status {
                    Status::Ok => ok += 1,
                    Status::Overloaded => rejected += 1,
                    other => {
                        return Err(format!(
                            "request {} failed with {}",
                            resp.req_id,
                            other.label()
                        ))
                    }
                }
            }
            Ok((hist, ok, rejected))
        });
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let finished = done.load(Ordering::Relaxed);
                samples.push(DepthSample {
                    at_ms: start.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
                    depths: server.queue_depths(),
                    completed: server
                        .stats_snapshot()
                        .shards
                        .iter()
                        .map(|s| s.completed)
                        .collect(),
                });
                if finished {
                    return samples;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        // This thread is the sender: wait for each scheduled offset, then
        // fire. Flushing per request keeps the schedule honest (no
        // batching of "past due" sends into one syscall burst).
        let mut send_err = None;
        for (i, request) in requests.iter().enumerate() {
            let target = Duration::from_nanos(offsets[i]);
            loop {
                let now = start.elapsed();
                if now >= target {
                    break;
                }
                std::thread::sleep(target - now);
            }
            {
                let mut times = send_times.lock().expect("send-time lock");
                times.push(Instant::now());
            }
            let sent = tx.send(request).and_then(|_| tx.flush());
            if let Err(e) = sent {
                send_err = Some(format!("send {i}: {e}"));
                break;
            }
            result.sent += 1;
        }

        let recv_out = match send_err {
            None => receiver.join().expect("receiver thread panicked"),
            Some(e) => Err(e),
        };
        done.store(true, Ordering::Relaxed);
        let samples = sampler.join().expect("sampler thread panicked");
        (recv_out, samples)
    });

    let (hist, ok, rejected) = recv_out?;
    result.wall_secs = start.elapsed().as_secs_f64();
    result.latency_ns = hist;
    result.ok = ok;
    result.rejected = rejected;
    result.samples = samples;
    Ok(result)
}

/// Runs A–F in one compaction mode, returning the mode's JSON object.
fn run_mode(mode_name: &str, udc: bool, args: &NetBenchArgs) -> Result<String, String> {
    let mut workload_objs = Vec::new();
    for spec in WorkloadSpec::ycsb_all(args.common.ops) {
        let spec = spec
            .with_codec(args.common.codec())
            .with_seed(args.common.seed);

        let mut config = ServerConfig {
            shards: args.shards,
            queue_capacity: args.queue_capacity,
            options: paper_scaled_options(),
            ..ServerConfig::default()
        };
        if udc {
            config = config.udc();
        }
        let server = LdcServer::start(config).map_err(|e| format!("start server: {e}"))?;

        let closed = run_closed_loop(&server, &spec)
            .map_err(|e| format!("{mode_name} {}: {e}", spec.name))?;
        if closed.ops == 0 || closed.per_shard_completed.iter().all(|&c| c == 0) {
            return Err(format!(
                "{mode_name} {}: zero closed-loop throughput",
                spec.name
            ));
        }

        let open_json = if args.closed_only {
            None
        } else {
            let open = run_open_loop(&server, &spec, args.rate_per_sec)
                .map_err(|e| format!("{mode_name} {} open loop: {e}", spec.name))?;
            if open.ok == 0 {
                return Err(format!(
                    "{mode_name} {}: zero open-loop throughput",
                    spec.name
                ));
            }
            println!(
                "{mode_name} {:<7} open-loop: {} sent, {} ok, {} rejected, p99 {:.0}us",
                spec.name,
                open.sent,
                open.ok,
                open.rejected,
                open.latency_ns.percentile(99.0) as f64 / 1e3,
            );
            Some(open.json())
        };

        let stats = server.stats_snapshot();
        if stats.protocol_errors != 0 {
            return Err(format!(
                "{mode_name} {}: {} protocol errors",
                spec.name, stats.protocol_errors
            ));
        }
        println!(
            "{mode_name} {:<7} closed-loop: {} ops, {} virtual service ns",
            spec.name, closed.ops, closed.service_total_ns,
        );
        server.shutdown();

        let mut fields = vec![
            format!("\"workload\":\"{}\"", spec.name),
            format!("\"closed_loop\":{}", closed.json()),
        ];
        if let Some(open) = open_json {
            fields.push(format!("\"open_loop\":{open}"));
        }
        workload_objs.push(format!("{{{}}}", fields.join(",")));
    }
    Ok(format!(
        "{{\"mode\":\"{mode_name}\",\"workloads\":[{}]}}",
        workload_objs.join(",")
    ))
}

/// Entry point for the `ycsb-net` subcommand.
pub fn run_ycsb_net(args: &NetBenchArgs) -> Result<(), String> {
    let udc = run_mode("UDC", true, args)?;
    let ldc = run_mode("LDC", false, args)?;
    let json = format!(
        concat!(
            "{{\"bench\":\"ycsb-net\",\"ops\":{},\"seed\":{},\"value_bytes\":{},",
            "\"shards\":{},\"queue_capacity\":{},\"closed_only\":{},",
            "\"modes\":[{},{}]}}\n"
        ),
        args.common.ops,
        args.common.seed,
        args.common.value_bytes,
        args.shards,
        args.queue_capacity,
        args.closed_only,
        udc,
        ldc,
    );
    std::fs::write(&args.out, &json).map_err(|e| format!("writing {}: {e}", args.out))?;
    println!("wrote {}", args.out);
    Ok(())
}
