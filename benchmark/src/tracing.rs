//! Outside-in tracing: host-time spans around every call the benchmark
//! makes into the engine and every call the engine makes into storage.
//!
//! The traced run wraps `MemStorage` in [`TracingStorage`], which records
//! one [`StorageSpan`] per `StorageBackend` call. The harness brackets each
//! engine call (`put` / `get` / `scan`) and the final drain with
//! [`Recorder::begin`] / [`Recorder::end`]; storage spans made on that
//! thread in between become the op's children, so the op's self time is
//! its span minus its children. Storage calls from threads the harness did
//! not start (the engine's compaction workers) hang off a `bg` root.
//!
//! Spans are aggregated in memory per (root, call, class). Whole span trees
//! are kept only for the worst [`WORST_K`] ops of each type plus one op in
//! [`SAMPLE_EVERY`], and written out when the round ends. Nothing in the
//! engine is instrumented; spans inside the program are a later issue.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use ldc::ssd::{IoClass, SsdDevice, SsdResult, StorageBackend};

use crate::json::Json;

/// Span trees kept per op type, by host duration.
pub const WORST_K: usize = 32;
/// One op in this many keeps its span tree regardless of duration.
pub const SAMPLE_EVERY: u64 = 1024;

/// What a storage span hangs off: the engine call in flight on its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Root {
    /// A `put`.
    Put,
    /// A `get`.
    Get,
    /// A `scan`.
    Scan,
    /// The final `drain_background()`.
    Drain,
    /// No engine call of the harness: an engine worker thread.
    Bg,
}

impl Root {
    /// Label in trace files.
    pub fn label(self) -> &'static str {
        match self {
            Root::Put => "put",
            Root::Get => "get",
            Root::Scan => "scan",
            Root::Drain => "drain",
            Root::Bg => "bg",
        }
    }
}

/// Label of a span's I/O class; metadata calls carry none.
fn class_label(class: Option<IoClass>) -> &'static str {
    class.map_or("fs-meta", IoClass::label)
}

/// One `StorageBackend` call, in host nanoseconds since the recorder's
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct StorageSpan {
    /// Name of the `StorageBackend` method called.
    pub call: &'static str,
    /// The I/O class passed, if the method takes one.
    pub class: Option<IoClass>,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Small integer naming the calling thread.
    pub thread: u32,
}

impl StorageSpan {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One engine call with its storage children.
#[derive(Debug, Clone)]
pub struct OpTree {
    /// The call.
    pub root: Root,
    /// The op's index in the window (shared id of its spans).
    pub index: u64,
    /// Calling thread.
    pub thread: u32,
    /// Host start.
    pub start_ns: u64,
    /// Host end.
    pub end_ns: u64,
    /// Virtual-clock latency of the same call.
    pub virt_ns: u64,
    /// Storage calls made inside it, in order.
    pub children: Vec<StorageSpan>,
}

impl OpTree {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of one op type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Calls.
    pub count: u64,
    /// Sum of span durations.
    pub span_ns: u64,
    /// Sum of self times (span minus children).
    pub self_ns: u64,
    /// Sum of child span durations.
    pub child_ns: u64,
    /// Calls that carried flush- or compaction-class I/O: the inline
    /// pump ran inside them.
    pub bg_inline_ops: u64,
    /// Sum of those calls' span durations.
    pub bg_inline_ns: u64,
}

/// Totals of one (root, call, class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Calls.
    pub count: u64,
    /// Sum of durations.
    pub ns: u64,
    /// Sum of payload bytes.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct Kept {
    worst: Vec<OpTree>,
    // Shortest duration that survived the last prune; ops at or below it
    // cannot be among the worst and skip the push.
    floor: u64,
}

#[derive(Debug, Default)]
struct Shared {
    ops: BTreeMap<Root, OpTotals>,
    calls: BTreeMap<(Root, &'static str, &'static str), CallTotals>,
    worst: BTreeMap<Root, Kept>,
    sampled: Vec<OpTree>,
}

#[derive(Debug, Default)]
struct Frame {
    // The harness started this thread: its storage calls outside an open
    // op (bookkeeping such as `space_bytes`) are not engine work.
    harness: bool,
    open: bool,
    spans: Vec<StorageSpan>,
}

thread_local! {
    static FRAME: RefCell<Frame> = RefCell::new(Frame::default());
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Collects spans for one traced round.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    shared: Mutex<Shared>,
}

impl Recorder {
    /// A recorder that records nothing until [`Recorder::enable`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            shared: Mutex::new(Shared::default()),
        })
    }

    /// Host nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts recording (the window opens).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops recording (the window closed).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Marks the calling thread as one of the harness's load threads.
    pub fn attach_thread(&self) {
        FRAME.with(|f| {
            let mut f = f.borrow_mut();
            f.harness = true;
            f.open = false;
            f.spans.clear();
        });
    }

    /// Opens an engine-call span on the calling thread: storage spans made
    /// here until [`Recorder::end`] are its children.
    pub fn begin(&self) {
        FRAME.with(|f| f.borrow_mut().open = true);
    }

    /// Closes the span opened by [`Recorder::begin`] and books it.
    pub fn end(&self, root: Root, index: u64, start_ns: u64, end_ns: u64, virt_ns: u64) {
        let children = FRAME.with(|f| {
            let mut f = f.borrow_mut();
            f.open = false;
            std::mem::take(&mut f.spans)
        });
        let tree = OpTree {
            root,
            index,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
            virt_ns,
            children,
        };
        let span = tree.duration();
        let child_ns: u64 = tree.children.iter().map(StorageSpan::duration).sum();
        let carried_bg = tree.children.iter().any(|s| {
            matches!(
                s.class,
                Some(IoClass::FlushWrite | IoClass::CompactionRead | IoClass::CompactionWrite)
            )
        });
        let mut guard = self.lock();
        let shared = &mut *guard;
        let totals = shared.ops.entry(root).or_default();
        totals.count += 1;
        totals.span_ns += span;
        totals.child_ns += child_ns;
        totals.self_ns += span.saturating_sub(child_ns);
        if carried_bg {
            totals.bg_inline_ops += 1;
            totals.bg_inline_ns += span;
        }
        for child in &tree.children {
            book(&mut shared.calls, root, child);
        }
        let sampled = index.is_multiple_of(SAMPLE_EVERY);
        let kept = shared.worst.entry(root).or_default();
        if kept.worst.len() < WORST_K || span > kept.floor {
            if sampled {
                shared.sampled.push(tree.clone());
            }
            kept.worst.push(tree);
            if kept.worst.len() >= 2 * WORST_K {
                prune(kept);
            }
        } else if sampled {
            shared.sampled.push(tree);
        } else {
            // Hand the allocation back for the thread's next op.
            let mut spans = tree.children;
            spans.clear();
            FRAME.with(|f| f.borrow_mut().spans = spans);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.shared
            .lock()
            .expect("no thread panics while holding the recorder")
    }

    fn storage_span(&self, span: StorageSpan) {
        let booked_on_thread = FRAME.with(|f| {
            let mut f = f.borrow_mut();
            if f.open {
                f.spans.push(span);
            }
            f.open || f.harness
        });
        if !booked_on_thread {
            book(&mut self.lock().calls, Root::Bg, &span);
        }
    }

    /// Everything recorded so far.
    pub fn report(&self) -> TraceReport {
        let mut shared = self.lock();
        let mut trees = shared.sampled.clone();
        for kept in shared.worst.values_mut() {
            prune(kept);
            // A sampled op that is also among the worst is written once.
            trees.extend(
                kept.worst
                    .iter()
                    .filter(|t| !t.index.is_multiple_of(SAMPLE_EVERY))
                    .cloned(),
            );
        }
        trees.sort_by_key(|t| (t.root, t.index));
        TraceReport {
            ops: shared.ops.clone(),
            calls: shared.calls.clone(),
            trees,
        }
    }
}

fn book(
    calls: &mut BTreeMap<(Root, &'static str, &'static str), CallTotals>,
    root: Root,
    span: &StorageSpan,
) {
    let totals = calls
        .entry((root, span.call, class_label(span.class)))
        .or_default();
    totals.count += 1;
    totals.ns += span.duration();
    totals.bytes += span.bytes;
}

fn prune(kept: &mut Kept) {
    kept.worst
        .sort_by_key(|t| (std::cmp::Reverse(t.duration()), t.index));
    kept.worst.truncate(WORST_K);
    if kept.worst.len() == WORST_K {
        kept.floor = kept.worst.last().map_or(0, OpTree::duration);
    }
}

/// What a traced round recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Totals per op type.
    pub ops: BTreeMap<Root, OpTotals>,
    /// Totals per (root, call, class label).
    pub calls: BTreeMap<(Root, &'static str, &'static str), CallTotals>,
    /// The kept span trees: worst [`WORST_K`] per op type plus the sample.
    pub trees: Vec<OpTree>,
}

impl TraceReport {
    /// Totals of one op type.
    pub fn op(&self, root: Root) -> OpTotals {
        self.ops.get(&root).copied().unwrap_or_default()
    }

    /// Totals of the storage calls matching `pick(root, class label)`.
    pub fn storage(&self, pick: impl Fn(Root, &str) -> bool) -> CallTotals {
        let mut sum = CallTotals::default();
        for ((root, _, class), totals) in &self.calls {
            if pick(*root, class) {
                sum.count += totals.count;
                sum.ns += totals.ns;
                sum.bytes += totals.bytes;
            }
        }
        sum
    }

    /// The trace file: a header line, one line per aggregate, one line per
    /// kept span tree.
    pub fn to_jsonl(&self, header: Json) -> String {
        let num = |n: u64| Json::Num(n as f64);
        let mut out = header.encode();
        out.push('\n');
        for ((root, call, class), totals) in &self.calls {
            let line = Json::obj([
                ("agg", Json::Str("storage".into())),
                ("root", Json::Str(root.label().into())),
                ("call", Json::Str((*call).into())),
                ("class", Json::Str((*class).into())),
                ("count", num(totals.count)),
                ("ns", num(totals.ns)),
                ("bytes", num(totals.bytes)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        for (root, totals) in &self.ops {
            let line = Json::obj([
                ("agg", Json::Str("op".into())),
                ("root", Json::Str(root.label().into())),
                ("count", num(totals.count)),
                ("span_ns", num(totals.span_ns)),
                ("self_ns", num(totals.self_ns)),
                ("child_ns", num(totals.child_ns)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        for tree in &self.trees {
            let children = tree
                .children
                .iter()
                .map(|s| {
                    Json::obj([
                        ("call", Json::Str(s.call.into())),
                        ("class", Json::Str(class_label(s.class).into())),
                        ("start_ns", num(s.start_ns)),
                        ("end_ns", num(s.end_ns)),
                        ("bytes", num(s.bytes)),
                        ("thread", num(u64::from(s.thread))),
                    ])
                })
                .collect();
            let line = Json::obj([
                ("root", Json::Str(tree.root.label().into())),
                ("index", num(tree.index)),
                ("thread", num(u64::from(tree.thread))),
                ("start_ns", num(tree.start_ns)),
                ("end_ns", num(tree.end_ns)),
                ("virt_ns", num(tree.virt_ns)),
                ("children", Json::Arr(children)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

/// A `StorageBackend` that forwards every call to `inner` unchanged and
/// records one span around it.
///
/// Every trait method is forwarded, the defaulted ones too: falling back to
/// a default here would replace the inner backend's own implementation
/// (`MemStorage::read_sequential` charges the readahead latency, the
/// default a random read) and the decorator would no longer be
/// transparent.
pub struct TracingStorage {
    inner: Arc<dyn StorageBackend>,
    recorder: Arc<Recorder>,
}

impl std::fmt::Debug for TracingStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracingStorage").finish_non_exhaustive()
    }
}

impl TracingStorage {
    /// Wraps `inner`, reporting to `recorder`.
    pub fn new(inner: Arc<dyn StorageBackend>, recorder: Arc<Recorder>) -> Arc<Self> {
        Arc::new(Self { inner, recorder })
    }

    fn span<T>(
        &self,
        call: &'static str,
        class: Option<IoClass>,
        bytes: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.recorder.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let start_ns = self.recorder.now_ns();
        let out = f();
        let end_ns = self.recorder.now_ns();
        self.recorder.storage_span(StorageSpan {
            call,
            class,
            start_ns,
            end_ns,
            bytes: bytes(&out),
            thread: THREAD.with(|t| *t),
        });
        out
    }
}

fn read_len(result: &SsdResult<Bytes>) -> u64 {
    result.as_ref().map_or(0, |b| b.len() as u64)
}

impl StorageBackend for TracingStorage {
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        let bytes = data.len() as u64;
        self.span(
            "write_file",
            Some(class),
            |_| bytes,
            || self.inner.write_file(name, data, class),
        )
    }

    fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        let bytes = data.len() as u64;
        self.span(
            "append",
            Some(class),
            |_| bytes,
            || self.inner.append(name, data, class),
        )
    }

    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<Bytes> {
        self.span("read", Some(class), read_len, || {
            self.inner.read(name, offset, len, class)
        })
    }

    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> SsdResult<Bytes> {
        self.span("read_sequential", Some(class), read_len, || {
            self.inner.read_sequential(name, offset, len, class)
        })
    }

    fn read_all(&self, name: &str, class: IoClass) -> SsdResult<Bytes> {
        self.span("read_all", Some(class), read_len, || {
            self.inner.read_all(name, class)
        })
    }

    fn size(&self, name: &str) -> SsdResult<u64> {
        self.span("size", None, |_| 0, || self.inner.size(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.span("exists", None, |_| 0, || self.inner.exists(name))
    }

    fn delete(&self, name: &str) -> SsdResult<()> {
        self.span("delete", None, |_| 0, || self.inner.delete(name))
    }

    fn rename(&self, from: &str, to: &str) -> SsdResult<()> {
        self.span("rename", None, |_| 0, || self.inner.rename(from, to))
    }

    fn sync(&self, name: &str) -> SsdResult<()> {
        self.span("sync", None, |_| 0, || self.inner.sync(name))
    }

    fn synced_len(&self, name: &str) -> SsdResult<u64> {
        self.span("synced_len", None, |_| 0, || self.inner.synced_len(name))
    }

    fn truncate(&self, name: &str, len: u64) -> SsdResult<()> {
        self.span("truncate", None, |_| 0, || self.inner.truncate(name, len))
    }

    fn link_file(&self, from: &str, to: &str, class: IoClass) -> SsdResult<()> {
        self.span(
            "link_file",
            Some(class),
            |_| 0,
            || self.inner.link_file(from, to, class),
        )
    }

    fn list_dir(&self, prefix: &str) -> Vec<String> {
        self.span("list_dir", None, |_| 0, || self.inner.list_dir(prefix))
    }

    fn list(&self) -> Vec<String> {
        self.span("list", None, |_| 0, || self.inner.list())
    }

    fn device(&self) -> Arc<SsdDevice> {
        self.inner.device()
    }

    fn total_bytes(&self) -> u64 {
        self.span("total_bytes", None, |_| 0, || self.inner.total_bytes())
    }
}
