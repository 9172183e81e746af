//! The `ldc-server` service: a TCP front end over N hash-range shards.
//!
//! # Threading model
//!
//! * one **accept** thread;
//! * one **reader** thread per connection (decodes frames, runs
//!   admission, dispatches jobs);
//! * one **writer** thread per connection (serializes responses from
//!   every shard back onto the socket, batching flushes);
//! * one **worker** thread per shard — each shard is a fully independent
//!   [`LdcDb`] (own simulated device, WAL, compaction state) driven by
//!   exactly one thread, so the per-shard operation order determines the
//!   per-shard virtual clock deterministically.
//!
//! A server can also host a **read-only follower**
//! ([`LdcServer::start_follower`]): one shard whose store was
//! bootstrapped from a primary's backup and whose worker tails the
//! backup's edit stream on idle ticks. Writes are rejected with
//! [`Status::ReadOnly`] at dispatch, before admission; `Stats` reports
//! the replication lag and cursor.
//!
//! # Admission control
//!
//! Every shard worker drains a bounded queue ([`AdmissionQueue`]); a
//! full queue rejects immediately with `Overloaded` plus a retry-after
//! hint. Ping and Stats are served by the reader thread and never enter
//! a queue, so liveness probes work under saturation.
//!
//! # Shutdown ordering
//!
//! `shutdown()` (also run on drop) proceeds strictly: stop accepting →
//! half-close every connection's read side (clients still receive
//! in-flight replies) → join readers → send each worker a stop sentinel
//! behind the already-queued jobs → workers drain their queues, then
//! `drain_background()` their shard → join workers and writers. No new
//! work is admitted after the flag flips (readers answer
//! `ShuttingDown`), and no accepted job is dropped. Release any
//! [`ShardPauseGuard`] before shutting down — a paused worker cannot
//! drain.

use std::io::BufReader;
use std::io::BufWriter;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldc_client::proto::{
    decode_request, encode_response, read_frame, write_frame, FrameError, Request, Response,
    ResponseBody, ServerStats, Status, MAX_FRAME, NO_SHARD,
};
use ldc_core::lsm::{Error as EngineError, Options};
use ldc_core::ssd::{MemStorage, SsdConfig, SsdDevice, StorageBackend};
use ldc_core::{CompactionMode, LdcConfig, LdcDb};
use ldc_obs::lockcheck::{Condvar, Mutex};
use ldc_obs::{Blame, MetricsRegistry, OpType, TraceCtx};
use ldc_sync::Follower;

use crate::admission::{AdmissionQueue, ShardState};
use crate::router::{merge_scan_parts, ShardRouter};

/// Maps an engine error onto the wire status taxonomy: transient storage
/// faults stay retryable, everything else is permanent.
fn status_of(err: &EngineError) -> Status {
    match err {
        EngineError::Storage(e) if e.is_transient() => Status::TransientStorage,
        EngineError::Storage(_) => Status::Storage,
        EngineError::Corruption(_) => Status::Corruption,
        EngineError::InvalidState(_) => Status::InvalidState,
        EngineError::InvalidArgument(_) => Status::InvalidArgument,
    }
}

fn op_type(request: &Request) -> OpType {
    match request {
        Request::Put { .. } => OpType::Put,
        Request::Delete { .. } => OpType::Delete,
        Request::Scan { .. } => OpType::Scan,
        // MultiGet is a batched Get; Ping/Stats never reach a worker.
        _ => OpType::Get,
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of hash-range shards (each an independent store + worker).
    pub shards: usize,
    /// Bound on each shard's admission queue; a full queue rejects.
    pub queue_capacity: usize,
    /// Retry hint attached to `Overloaded` rejections, in milliseconds.
    pub retry_after_ms: u32,
    /// Engine options applied to every shard.
    pub options: Options,
    /// Compaction mechanism (LDC or the UDC baseline) for every shard.
    pub mode: CompactionMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 64,
            retry_after_ms: 10,
            options: Options::default(),
            mode: CompactionMode::Ldc(LdcConfig::default()),
        }
    }
}

impl ServerConfig {
    /// Small engine options and queues sized for unit tests.
    pub fn small_for_tests() -> Self {
        Self {
            queue_capacity: 16,
            options: Options::small_for_tests(),
            ..Self::default()
        }
    }

    /// Switches every shard to the UDC baseline.
    pub fn udc(mut self) -> Self {
        self.mode = CompactionMode::Udc;
        self
    }
}

#[derive(Debug)]
struct PauseGateInner {
    released: Mutex<bool>,
    cv: Condvar,
}

type PauseGate = Arc<PauseGateInner>;

/// Releases a paused shard worker when dropped (see
/// [`LdcServer::pause_shard`]).
#[derive(Debug)]
pub struct ShardPauseGuard {
    gate: PauseGate,
}

impl Drop for ShardPauseGuard {
    fn drop(&mut self) {
        *self.gate.released.lock() = true;
        self.gate.cv.notify_all();
    }
}

enum Part {
    Scan { start: Vec<u8>, limit: usize },
    MultiGet { keys: Vec<(usize, Vec<u8>)> },
}

enum AggKind {
    Scan { limit: usize },
    MultiGet,
}

#[derive(Default)]
struct AggState {
    scan_parts: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    values: Vec<Option<Vec<u8>>>,
    max_queue_ns: u64,
    max_service_ns: u64,
    error: Option<(Status, ResponseBody)>,
}

/// Shared completion state of one cross-shard request (scan/multi-get).
/// Whoever decrements `pending` to zero — a worker finishing its part or
/// the reader recording a rejected part — finalizes and replies.
struct Agg {
    req_id: u64,
    op: OpType,
    reply: Sender<Vec<u8>>,
    recv_ns: u64,
    pending: AtomicUsize,
    kind: AggKind,
    state: Mutex<AggState>,
}

/// How long an idle follower worker waits for a job before running a
/// tailing round against the primary's backup stream.
const FOLLOWER_IDLE_POLL: Duration = Duration::from_millis(5);

/// What a shard worker drives: a writable primary store, or a read-only
/// replication follower whose only mutation path is stream tailing. The
/// worker thread is the sole caller of [`Follower::poll`], so applies
/// are serialized even though the handle is shared with stats readers.
enum ShardEngine {
    Primary(Box<LdcDb>),
    Follower(Arc<Follower>),
}

impl ShardEngine {
    fn db(&self) -> &LdcDb {
        match self {
            ShardEngine::Primary(db) => db,
            ShardEngine::Follower(f) => f.db(),
        }
    }
}

enum Job {
    Single {
        req_id: u64,
        request: Request,
        reply: Sender<Vec<u8>>,
        recv_ns: u64,
        enqueue_ns: u64,
    },
    Part {
        agg: Arc<Agg>,
        part: Part,
        enqueue_ns: u64,
    },
    Pause {
        gate: PauseGate,
    },
    /// Explicit tailing round on a follower worker (see
    /// [`LdcServer::poll_follower`]); primaries answer `None`.
    Poll {
        done: Sender<Option<u64>>,
    },
    Stop,
}

struct ServerCtx {
    registry: Arc<MetricsRegistry>,
    router: ShardRouter,
    queues: Vec<AdmissionQueue<Job>>,
    protocol_errors: AtomicU64,
    shutting_down: AtomicBool,
    /// Present only on a follower server; read for stats and the
    /// dispatch-level write rejection. Polling stays on the worker.
    follower: Option<Arc<Follower>>,
    retry_after_ms: u32,
    start: Instant,
    conns: Mutex<Vec<TcpStream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerCtx {
    /// Host nanoseconds since server start (monotonic).
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn stats_snapshot(&self) -> ServerStats {
        let (follower, follower_lag, follower_cursor) = match &self.follower {
            Some(f) => (true, f.lag(), f.db().replication_cursor()),
            None => (false, 0, 0),
        };
        ServerStats {
            shards: self.queues.iter().map(|q| q.state().stat()).collect(),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            follower,
            follower_lag,
            follower_cursor,
        }
    }

    /// Records latency and blame breakdown for one completed request.
    /// Span layout: dispatch and reply overhead are `Net`, queue wait is
    /// `Admission`, and the root span's residue — the shard service time —
    /// lands in `Engine`, so the buckets sum to the request's total host
    /// nanoseconds.
    fn finish_trace(
        &self,
        op: OpType,
        recv_ns: u64,
        enqueue_ns: u64,
        dequeue_ns: u64,
        svc_end_ns: u64,
    ) {
        let done_ns = self.now_ns();
        let mut ctx = TraceCtx::new(op, recv_ns);
        ctx.span(Blame::Net, "net_dispatch", recv_ns, enqueue_ns);
        ctx.span(Blame::Admission, "admission_queue", enqueue_ns, dequeue_ns);
        ctx.span(Blame::Net, "net_reply", svc_end_ns, done_ns);
        let trace = ctx.finish(done_ns, 0);
        self.registry
            .record_latency(op, done_ns.saturating_sub(recv_ns));
        self.registry.record_blame(op, &trace.blame_breakdown());
    }
}

fn send_response(reply: &Sender<Vec<u8>>, resp: &Response) {
    let mut body = encode_response(resp);
    if body.len() > MAX_FRAME as usize {
        body = encode_response(&Response::error(
            resp.req_id,
            Status::InvalidArgument,
            "response exceeds maximum frame size",
        ));
    }
    // The connection may already be gone; its reply simply has nowhere
    // to go, which is fine.
    let _ = reply.send(body);
}

fn finalize_agg(ctx: &ServerCtx, agg: &Agg) {
    let (status, body, queue_ns, service_ns) = {
        let mut st = agg.state.lock();
        let queue_ns = st.max_queue_ns;
        let service_ns = st.max_service_ns;
        let (status, body) = match st.error.take() {
            Some((status, body)) => (status, body),
            None => match &agg.kind {
                AggKind::Scan { limit } => (
                    Status::Ok,
                    ResponseBody::Entries(merge_scan_parts(
                        std::mem::take(&mut st.scan_parts),
                        *limit,
                    )),
                ),
                AggKind::MultiGet => (
                    Status::Ok,
                    ResponseBody::Values(std::mem::take(&mut st.values)),
                ),
            },
        };
        (status, body, queue_ns, service_ns)
    };
    send_response(
        &agg.reply,
        &Response {
            req_id: agg.req_id,
            status,
            shard: NO_SHARD,
            queue_ns,
            service_ns,
            body,
        },
    );
    // The widest per-shard queue wait stands in for the admission span.
    let svc_end = ctx.now_ns();
    ctx.finish_trace(
        agg.op,
        agg.recv_ns,
        agg.recv_ns,
        agg.recv_ns.saturating_add(queue_ns),
        svc_end,
    );
}

fn shard_worker(
    ctx: Arc<ServerCtx>,
    engine: ShardEngine,
    shard: u16,
    jobs: Receiver<Job>,
    state: Arc<ShardState>,
) {
    loop {
        let job = match &engine {
            ShardEngine::Primary(_) => match jobs.recv() {
                Ok(job) => job,
                Err(_) => break,
            },
            // A follower worker tails the primary's stream whenever its
            // queue goes idle; a poll failure is retried next tick.
            ShardEngine::Follower(follower) => match jobs.recv_timeout(FOLLOWER_IDLE_POLL) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    let _ = follower.poll();
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            },
        };
        let db = engine.db();
        match job {
            Job::Stop => break,
            Job::Poll { done } => {
                let applied = match &engine {
                    ShardEngine::Follower(follower) => follower.poll().ok(),
                    ShardEngine::Primary(_) => None,
                };
                let _ = done.send(applied);
            }
            Job::Pause { gate } => {
                let mut released = gate.released.lock();
                while !*released {
                    released = released.wait(&gate.cv);
                }
            }
            Job::Single {
                req_id,
                request,
                reply,
                recv_ns,
                enqueue_ns,
            } => {
                state.on_dequeue();
                let dequeue_ns = ctx.now_ns();
                let clock0 = db.device().clock().now();
                let result = match &request {
                    Request::Put { key, value } => db.put(key, value).map(|_| ResponseBody::None),
                    Request::Get { key } => db.get(key).map(ResponseBody::Value),
                    Request::Delete { key } => db.delete(key).map(|_| ResponseBody::None),
                    // Multi-shard and control ops never arrive as Single.
                    _ => Err(EngineError::InvalidState(
                        "operation misrouted to a shard lane".to_string(),
                    )),
                };
                let service_ns = db.device().clock().now().saturating_sub(clock0);
                let (status, body) = match result {
                    Ok(body) => (Status::Ok, body),
                    Err(e) => (status_of(&e), ResponseBody::Message(e.to_string())),
                };
                // Counted complete *before* the reply goes out so a client
                // that snapshots stats after its response always sees its
                // own op in `completed` (deterministic bench accounting).
                state.on_complete();
                // ldc-lint: allow(determinism_taint) — queue_ns is host-time metadata; payload bytes stay deterministic
                send_response(
                    &reply,
                    &Response {
                        req_id,
                        status,
                        shard,
                        queue_ns: dequeue_ns.saturating_sub(enqueue_ns),
                        service_ns,
                        body,
                    },
                );
                let svc_end = ctx.now_ns();
                ctx.finish_trace(op_type(&request), recv_ns, enqueue_ns, dequeue_ns, svc_end);
            }
            Job::Part {
                agg,
                part,
                enqueue_ns,
            } => {
                state.on_dequeue();
                let dequeue_ns = ctx.now_ns();
                let queue_ns = dequeue_ns.saturating_sub(enqueue_ns);
                let clock0 = db.device().clock().now();
                let outcome = match &part {
                    Part::Scan { start, limit } => db.scan(start, *limit).map(PartResult::Scan),
                    Part::MultiGet { keys } => {
                        let refs: Vec<&[u8]> = keys.iter().map(|(_, k)| k.as_slice()).collect();
                        // One pinned snapshot per shard: the sub-batch is
                        // internally consistent.
                        db.multi_get(&refs)
                            .map(|values| PartResult::Values(keys.clone(), values))
                    }
                };
                let service_ns = db.device().clock().now().saturating_sub(clock0);
                {
                    let mut st = agg.state.lock();
                    st.max_queue_ns = st.max_queue_ns.max(queue_ns);
                    st.max_service_ns = st.max_service_ns.max(service_ns);
                    match outcome {
                        Ok(PartResult::Scan(entries)) => st.scan_parts.push(entries),
                        Ok(PartResult::Values(keys, values)) => {
                            for ((idx, _), value) in keys.into_iter().zip(values) {
                                if let Some(slot) = st.values.get_mut(idx) {
                                    *slot = value;
                                }
                            }
                        }
                        Err(e) => {
                            if st.error.is_none() {
                                st.error =
                                    Some((status_of(&e), ResponseBody::Message(e.to_string())));
                            }
                        }
                    }
                }
                state.on_complete();
                if agg.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    finalize_agg(&ctx, &agg);
                }
            }
        }
    }
    // Part of the shutdown contract: settle all background debt before
    // the shard goes away.
    engine.db().drain_background();
}

enum PartResult {
    Scan(Vec<(Vec<u8>, Vec<u8>)>),
    Values(Vec<(usize, Vec<u8>)>, Vec<Option<Vec<u8>>>),
}

fn admit_part(ctx: &ServerCtx, shard: usize, job: Job, agg: &Arc<Agg>) {
    // An out-of-range shard (impossible via the router) counts as a
    // rejection so the aggregate still finalizes.
    let admitted = ctx
        .queues
        .get(shard)
        .is_some_and(|queue| queue.try_admit(job).is_ok());
    if admitted {
        return;
    }
    agg.state.lock().error.get_or_insert((
        Status::Overloaded,
        ResponseBody::RetryAfterMs(ctx.retry_after_ms),
    ));
    if agg.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        finalize_agg(ctx, agg);
    }
}

fn dispatch(
    ctx: &Arc<ServerCtx>,
    req_id: u64,
    request: Request,
    reply: &Sender<Vec<u8>>,
    recv_ns: u64,
) {
    match request {
        Request::Ping => send_response(
            reply,
            &Response {
                req_id,
                status: Status::Ok,
                shard: NO_SHARD,
                queue_ns: 0,
                service_ns: 0,
                body: ResponseBody::None,
            },
        ),
        Request::Stats => send_response(
            reply,
            &Response {
                req_id,
                status: Status::Ok,
                shard: NO_SHARD,
                queue_ns: 0,
                service_ns: 0,
                body: ResponseBody::Stats(ctx.stats_snapshot()),
            },
        ),
        _ if ctx.shutting_down.load(Ordering::SeqCst) => send_response(
            reply,
            &Response::error(req_id, Status::ShuttingDown, "server is draining"),
        ),
        // Rejected before admission: a follower's only mutation path is
        // the replication stream, so writes never reach a worker.
        Request::Put { .. } | Request::Delete { .. } if ctx.follower.is_some() => send_response(
            reply,
            &Response::error(
                req_id,
                Status::ReadOnly,
                "read-only replication follower; send writes to the primary",
            ),
        ),
        Request::Put { ref key, .. } | Request::Get { ref key } | Request::Delete { ref key } => {
            let shard = ctx.router.shard_of(key);
            let job = Job::Single {
                req_id,
                request,
                reply: reply.clone(),
                recv_ns,
                enqueue_ns: ctx.now_ns(),
            };
            // The router only hands out in-range shards; a missing queue
            // is treated as a rejection rather than indexed blindly.
            let admitted = ctx
                .queues
                .get(shard)
                .is_some_and(|queue| queue.try_admit(job).is_ok());
            if !admitted {
                send_response(
                    reply,
                    &Response {
                        req_id,
                        status: Status::Overloaded,
                        shard: shard as u16,
                        queue_ns: 0,
                        service_ns: 0,
                        body: ResponseBody::RetryAfterMs(ctx.retry_after_ms),
                    },
                );
            }
        }
        Request::Scan { start, limit } => {
            let shards = ctx.queues.len();
            let agg = Arc::new(Agg {
                req_id,
                op: OpType::Scan,
                reply: reply.clone(),
                recv_ns,
                pending: AtomicUsize::new(shards),
                kind: AggKind::Scan {
                    limit: limit as usize,
                },
                state: Mutex::new("server/server::state", AggState::default()),
            });
            for shard in 0..shards {
                let job = Job::Part {
                    agg: Arc::clone(&agg),
                    part: Part::Scan {
                        start: start.clone(),
                        limit: limit as usize,
                    },
                    enqueue_ns: ctx.now_ns(),
                };
                // ldc-lint: allow(determinism_taint) — enqueue stamp is host-time metadata for queue-wait reporting
                admit_part(ctx, shard, job, &agg);
            }
        }
        Request::MultiGet { keys } => {
            if keys.is_empty() {
                send_response(
                    reply,
                    &Response {
                        req_id,
                        status: Status::Ok,
                        shard: NO_SHARD,
                        queue_ns: 0,
                        service_ns: 0,
                        body: ResponseBody::Values(Vec::new()),
                    },
                );
                return;
            }
            let total = keys.len();
            let groups = ctx.router.group_keys(&keys);
            type ShardGroup = Vec<(usize, Vec<u8>)>;
            let parts: Vec<(usize, ShardGroup)> = groups
                .into_iter()
                .enumerate()
                .filter(|(_, g)| !g.is_empty())
                .collect();
            let agg = Arc::new(Agg {
                req_id,
                op: OpType::Get,
                reply: reply.clone(),
                recv_ns,
                pending: AtomicUsize::new(parts.len()),
                kind: AggKind::MultiGet,
                state: Mutex::new(
                    "server/server::state",
                    AggState {
                        values: vec![None; total],
                        ..AggState::default()
                    },
                ),
            });
            for (shard, group) in parts {
                let job = Job::Part {
                    agg: Arc::clone(&agg),
                    part: Part::MultiGet { keys: group },
                    enqueue_ns: ctx.now_ns(),
                };
                // ldc-lint: allow(determinism_taint) — enqueue stamp is host-time metadata for queue-wait reporting
                admit_part(ctx, shard, job, &agg);
            }
        }
    }
}

fn writer_loop(stream: TcpStream, replies: Receiver<Vec<u8>>) {
    let mut w = BufWriter::new(stream);
    while let Ok(body) = replies.recv() {
        let mut broken = write_frame(&mut w, &body).is_err();
        // Batch everything already queued into one flush.
        while let Ok(next) = replies.try_recv() {
            broken = broken || write_frame(&mut w, &next).is_err();
        }
        if !broken {
            let _ = w.flush();
        }
        // On a broken pipe, keep draining so shard workers never see a
        // full channel (it is unbounded, but dropping keeps memory flat).
    }
    // Last one out closes the socket: every reply sender is gone, so all
    // in-flight responses have been written. The tracked clone in
    // `ServerCtx::conns` would otherwise hold the connection open and
    // the client would never see EOF.
    let _ = w.flush();
    if let Ok(stream) = w.into_inner() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

fn serve_connection(ctx: Arc<ServerCtx>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || writer_loop(write_half, reply_rx));
    ctx.threads.lock().push(writer);

    let mut reader = BufReader::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(body) => body,
            Err(FrameError::TooLarge { len }) => {
                // The stream cannot be resynchronized without reading the
                // oversized body; refuse and close.
                ctx.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send_response(
                    &reply_tx,
                    &Response::error(
                        0,
                        Status::Protocol,
                        format!("frame length {len} exceeds maximum"),
                    ),
                );
                break;
            }
            // Clean EOF, torn frame, or transport error: connection over.
            Err(_) => break,
        };
        let recv_ns = ctx.now_ns();
        match decode_request(&body) {
            // ldc-lint: allow(determinism_taint) — receive stamp is host-time metadata for latency spans
            Ok((req_id, request)) => dispatch(&ctx, req_id, request, &reply_tx, recv_ns),
            Err(e) => {
                // Framing is intact (the frame itself was well-delimited),
                // so answer the error and keep serving the connection.
                ctx.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let req_id = body
                    .get(..8)
                    .and_then(|b| b.try_into().ok())
                    .map(u64::from_le_bytes)
                    .unwrap_or(0);
                send_response(
                    &reply_tx,
                    &Response::error(req_id, Status::Protocol, e.to_string()),
                );
            }
        }
    }
}

fn accept_loop(ctx: Arc<ServerCtx>, listener: TcpListener) {
    for conn in listener.incoming() {
        if ctx.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let Ok(track) = stream.try_clone() else {
            continue;
        };
        ctx.conns.lock().push(track);
        let cctx = Arc::clone(&ctx);
        let handle = std::thread::spawn(move || serve_connection(cctx, stream));
        ctx.threads.lock().push(handle);
    }
}

/// A running multi-shard network service over [`LdcDb`] shards.
pub struct LdcServer {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for LdcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LdcServer")
            .field("addr", &self.addr)
            .field("shards", &self.ctx.queues.len())
            .finish()
    }
}

impl LdcServer {
    /// Builds the shards, binds a loopback listener on an ephemeral
    /// port, and starts serving. Use [`LdcServer::local_addr`] to learn
    /// the address.
    pub fn start(config: ServerConfig) -> std::io::Result<LdcServer> {
        let shards = config.shards.max(1);
        let dbs = LdcDb::builder()
            .options(config.options.clone())
            .mode(config.mode.clone())
            .build_shards(shards)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let engines = dbs
            .into_iter()
            .map(|db| ShardEngine::Primary(Box::new(db)))
            .collect();
        Self::start_with_engines(&config, engines, None)
    }

    /// Starts a **read-only follower** server: bootstraps a single store
    /// from backup `backup_name` on `src` (the primary's storage), then
    /// serves reads from it while its worker tails the backup's edit
    /// stream on idle ticks. Writes are answered with
    /// [`Status::ReadOnly`] before admission. A follower replicates one
    /// primary stream, so it always runs exactly one shard regardless of
    /// `config.shards`.
    pub fn start_follower(
        config: ServerConfig,
        src: Arc<dyn StorageBackend>,
        backup_name: &str,
    ) -> std::io::Result<LdcServer> {
        let builder = LdcDb::builder()
            .options(config.options.clone())
            .mode(config.mode.clone());
        let dst: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::new(SsdConfig::default()));
        let follower = Arc::new(
            Follower::bootstrap(&src, backup_name, builder, dst)
                .map_err(|e| std::io::Error::other(e.to_string()))?,
        );
        let engines = vec![ShardEngine::Follower(Arc::clone(&follower))];
        Self::start_with_engines(&config, engines, Some(follower))
    }

    // Host time is legitimate in the network tier: queue waits are real
    // waits. Virtual time stays per-shard, measured by the workers.
    #[allow(clippy::disallowed_methods)]
    fn start_with_engines(
        config: &ServerConfig,
        engines: Vec<ShardEngine>,
        follower: Option<Arc<Follower>>,
    ) -> std::io::Result<LdcServer> {
        let shards = engines.len();
        let mut queues = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (queue, rx) = AdmissionQueue::new(config.queue_capacity);
            queues.push(queue);
            receivers.push(rx);
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        // Grab the per-shard states before the queues move into `ctx`, so
        // the worker spawn loop needs no positional indexing.
        let states: Vec<_> = queues.iter().map(|q| Arc::clone(q.state())).collect();
        let ctx = Arc::new(ServerCtx {
            registry: Arc::new(MetricsRegistry::new()),
            router: ShardRouter::new(shards),
            queues,
            protocol_errors: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            follower,
            retry_after_ms: config.retry_after_ms.max(1),
            start: Instant::now(),
            conns: Mutex::new("server/server::conns", Vec::new()),
            threads: Mutex::new("server/server::threads", Vec::new()),
        });
        let workers = engines
            .into_iter()
            .zip(receivers)
            .zip(states)
            .enumerate()
            .map(|(i, ((engine, rx), state))| {
                let wctx = Arc::clone(&ctx);
                // Reply frames carry host queue/service waits as metadata;
                // replay-compared payload bytes come from the engine only.
                // ldc-lint: allow(determinism_taint) — host queue metadata in reply frames is intentional
                std::thread::spawn(move || shard_worker(wctx, engine, i as u16, rx, state))
            })
            .collect();
        let actx = Arc::clone(&ctx);
        // ldc-lint: allow(determinism_taint) — connection loop stamps host receive times by design
        let accept = std::thread::spawn(move || accept_loop(actx, listener));
        Ok(LdcServer {
            ctx,
            addr,
            workers,
            accept: Some(accept),
        })
    }

    /// The loopback address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.ctx.queues.len()
    }

    /// The server's network metrics registry: per-op latency histograms
    /// (host time) and the `admission`/`net`/`engine` blame totals.
    /// Admission counts are per shard, in [`LdcServer::stats_snapshot`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.ctx.registry)
    }

    /// Current per-shard admission statistics plus protocol-error count
    /// (the same snapshot the wire `Stats` op returns).
    pub fn stats_snapshot(&self) -> ServerStats {
        self.ctx.stats_snapshot()
    }

    /// Follower only: runs one synchronous tailing round on the shard
    /// worker (the sole `poll` caller, so applies stay serialized) and
    /// returns how many stream records it applied. `None` on a primary
    /// server, when the worker is gone, or when the poll itself failed.
    pub fn poll_follower(&self) -> Option<u64> {
        self.ctx.follower.as_ref()?;
        let (done_tx, done_rx) = channel();
        if !self.ctx.queues.first()?.force(Job::Poll { done: done_tx }) {
            return None;
        }
        done_rx.recv().ok().flatten()
    }

    /// Follower only: stream records shipped by the primary but not yet
    /// applied here, as of the last tailing round. `None` on a primary.
    pub fn replication_lag(&self) -> Option<u64> {
        self.ctx.follower.as_ref().map(|f| f.lag())
    }

    /// Instantaneous per-shard queue depths (benchmark sampling).
    pub fn queue_depths(&self) -> Vec<u32> {
        self.ctx.queues.iter().map(|q| q.state().depth()).collect()
    }

    /// Parks `shard`'s worker until the returned guard is dropped. The
    /// pause job rides the normal lane behind queued work, so requests
    /// admitted afterwards pile up in the bounded queue — the
    /// deterministic way to demonstrate admission rejections. Returns
    /// `None` for an unknown shard or a stopped worker. Release the
    /// guard before `shutdown()`.
    pub fn pause_shard(&self, shard: usize) -> Option<ShardPauseGuard> {
        let queue = self.ctx.queues.get(shard)?;
        let gate: PauseGate = Arc::new(PauseGateInner {
            released: Mutex::new("server/server::released", false),
            cv: Condvar::new(),
        });
        if queue.force(Job::Pause {
            gate: Arc::clone(&gate),
        }) {
            Some(ShardPauseGuard { gate })
        } else {
            None
        }
    }

    /// Drains and stops the server (see the module docs for the exact
    /// ordering). Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        if self.ctx.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Half-close read sides: readers wind down, clients still
        // receive every in-flight reply.
        for conn in self.ctx.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // Stop sentinels queue *behind* all admitted work: workers drain
        // their queues, drain_background their shard, then exit.
        for queue in &self.ctx.queues {
            queue.force(Job::Stop);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Readers exit on EOF; writers exit once readers and the drained
        // jobs dropped their reply senders. Loop: a reader registers its
        // writer's handle, so the list can grow while we join.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut guard = self.ctx.threads.lock();
                guard.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for LdcServer {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}
