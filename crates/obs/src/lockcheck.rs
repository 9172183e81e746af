//! Runtime lock-order sanitizer.
//!
//! The workspace's ranked locks (see `crates/lint/lock_order.toml`, the
//! same table the static `ldc-lint` `lock_order` rule checks) are wrapped
//! in the [`Mutex`]/[`RwLock`] types below. In **debug builds** with the
//! sanitizer enabled (`LDC_LOCKCHECK=1` in the environment, or
//! [`enable`] called from a test), every acquisition pushes a rank
//! witness onto a thread-local held-stack and panics — printing the held
//! stack and the declared order — if the new lock's rank does not exceed
//! every rank already held. Two instances of a `sharded` lock (cache
//! shards, per-memtable skiplists, per-request aggregates) may share a
//! rank; re-acquiring the *same* instance is still an inversion (the
//! std-backed locks deadlock rather than panic on re-entry, which a
//! test sweep cannot distinguish from a hang).
//!
//! Cost model mirrors tracing: **zero when compiled out** (release
//! builds carry no metadata and compile `lock()` down to the plain
//! `std::sync` call — same-seed bench outputs are byte-identical), and
//! one relaxed atomic load per acquisition when compiled in but
//! disabled.
//!
//! Locks are non-poisoning (`into_inner` recovery, like the parking_lot
//! shim): every protected region is a plain value transition, so a
//! panicking holder leaves consistent state behind.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// The embedded hierarchy table (kept next to the static rule that also
/// reads it).
pub const LOCK_ORDER_TOML: &str = include_str!("../../lint/lock_order.toml");

/// One declared lock in the hierarchy table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockDef {
    /// `<crate>/<file-stem>::<field>`, e.g. `lsm/db::core`.
    pub id: String,
    /// Position in the hierarchy; smaller = acquired earlier.
    pub rank: u32,
    /// Whether many same-ranked instances exist (two *different*
    /// instances may be held together).
    pub sharded: bool,
    /// Free-text rationale (documentation only).
    pub note: String,
}

/// Parses the `lock_order.toml` subset: `[[lock]]` sections holding
/// `id`/`rank`/`sharded`/`note` keys. No external TOML crate by design —
/// the format is deliberately restricted to what this parser accepts, so
/// the static rule and the runtime checker can never disagree about it.
pub fn parse_lock_table(text: &str) -> Result<Vec<LockDef>, String> {
    let mut out: Vec<LockDef> = Vec::new();
    let mut cur: Option<LockDef> = None;
    let finish = |def: LockDef, out: &mut Vec<LockDef>| -> Result<(), String> {
        if def.id.is_empty() {
            return Err("lock entry missing `id`".to_string());
        }
        if def.rank == u32::MAX {
            return Err(format!("lock `{}` missing `rank`", def.id));
        }
        if out.iter().any(|d| d.id == def.id) {
            return Err(format!("duplicate lock id `{}`", def.id));
        }
        if out.iter().any(|d| d.rank == def.rank) {
            return Err(format!("duplicate rank {} (lock `{}`)", def.rank, def.id));
        }
        if out.last().is_some_and(|d| d.rank > def.rank) {
            return Err(format!(
                "lock `{}` breaks ascending rank order (keep the file sorted)",
                def.id
            ));
        }
        out.push(def);
        Ok(())
    };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[lock]]" {
            if let Some(def) = cur.take() {
                finish(def, &mut out)?;
            }
            cur = Some(LockDef {
                id: String::new(),
                rank: u32::MAX,
                sharded: false,
                note: String::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "lock_order.toml line {}: expected `key = value`",
                i + 1
            ));
        };
        let Some(def) = cur.as_mut() else {
            return Err(format!(
                "lock_order.toml line {}: key outside a [[lock]] section",
                i + 1
            ));
        };
        let key = key.trim();
        let value = value.trim();
        let unquote = |v: &str| -> Result<String, String> {
            v.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| format!("lock_order.toml line {}: expected a quoted string", i + 1))
        };
        match key {
            "id" => def.id = unquote(value)?,
            "rank" => {
                def.rank = value
                    .parse()
                    .map_err(|_| format!("lock_order.toml line {}: bad rank `{value}`", i + 1))?
            }
            "sharded" => {
                def.sharded = match value {
                    "true" => true,
                    "false" => false,
                    _ => {
                        return Err(format!(
                            "lock_order.toml line {}: bad bool `{value}`",
                            i + 1
                        ))
                    }
                }
            }
            "note" => def.note = unquote(value)?,
            _ => {
                return Err(format!(
                    "lock_order.toml line {}: unknown key `{key}`",
                    i + 1
                ))
            }
        }
    }
    if let Some(def) = cur.take() {
        finish(def, &mut out)?;
    }
    Ok(out)
}

/// The embedded table, parsed once. Panics on a malformed table: the
/// file is a build asset, and both checkers must agree on its contents.
pub fn declared_table() -> &'static [LockDef] {
    static TABLE: OnceLock<Vec<LockDef>> = OnceLock::new();
    TABLE.get_or_init(|| {
        parse_lock_table(LOCK_ORDER_TOML)
            .unwrap_or_else(|e| panic!("crates/lint/lock_order.toml is malformed: {e}"))
    })
}

// ---------------------------------------------------------------------------
// Active implementation (debug builds only).
// ---------------------------------------------------------------------------

#[cfg(debug_assertions)]
mod active {
    use super::declared_table;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = consult `LDC_LOCKCHECK` on first use, 1 = off, 2 = on.
    static STATE: AtomicU8 = AtomicU8::new(0);

    pub(super) fn enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let on =
                    std::env::var_os("LDC_LOCKCHECK").is_some_and(|v| v != "0" && !v.is_empty());
                STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
                on
            }
        }
    }

    pub(super) fn set_enabled(on: bool) {
        STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    }

    /// Resolved identity of one ranked lock.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Meta {
        pub rank: u32,
        pub sharded: bool,
        /// Index into [`declared_table`] (for the id in reports).
        pub idx: u16,
    }

    pub(super) fn resolve(id: &str) -> Meta {
        let table = declared_table();
        let idx = table.iter().position(|d| d.id == id).unwrap_or_else(|| {
            panic!(
                "lockcheck: lock id `{id}` is not declared in crates/lint/lock_order.toml — \
                 add it at its hierarchy position"
            )
        });
        Meta {
            rank: table[idx].rank,
            sharded: table[idx].sharded,
            idx: idx as u16,
        }
    }

    #[derive(Clone, Copy)]
    struct Held {
        rank: u32,
        idx: u16,
        instance: usize,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII witness of one acquisition on the current thread's held-stack.
    #[derive(Debug)]
    pub(super) struct Witness {
        meta: Meta,
        instance: usize,
        armed: bool,
    }

    pub(super) fn acquire(meta: Meta, instance: usize) -> Witness {
        let armed = enabled();
        if armed {
            check_and_push(meta, instance);
        }
        Witness {
            meta,
            instance,
            armed,
        }
    }

    impl Witness {
        /// Pops the held entry (used by condvar waits, which release the
        /// mutex while blocked).
        pub(super) fn disarm(&mut self) {
            if self.armed {
                pop(self.meta, self.instance);
                self.armed = false;
            }
        }

        /// Re-checks and re-pushes after a condvar wake re-acquired the
        /// mutex.
        pub(super) fn rearm(&mut self) {
            if !self.armed && enabled() {
                check_and_push(self.meta, self.instance);
                self.armed = true;
            }
        }
    }

    impl Drop for Witness {
        fn drop(&mut self) {
            self.disarm();
        }
    }

    fn check_and_push(meta: Meta, instance: usize) {
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            let violation = held.iter().find(|h| {
                h.rank > meta.rank
                    || (h.rank == meta.rank && !(meta.sharded && h.instance != instance))
            });
            if let Some(bad) = violation {
                let report = report(&held, *bad, meta, instance);
                drop(held); // don't poison the thread-local across the unwind
                panic!("{report}");
            }
            held.push(Held {
                rank: meta.rank,
                idx: meta.idx,
                instance,
            });
        });
    }

    fn pop(meta: Meta, instance: usize) {
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            // Guards may drop out of acquisition order: search from the top.
            if let Some(at) = held
                .iter()
                .rposition(|h| h.idx == meta.idx && h.instance == instance)
            {
                held.remove(at);
            }
        });
    }

    fn report(held: &[Held], bad: Held, meta: Meta, instance: usize) -> String {
        let table = declared_table();
        let id_of = |idx: u16| table[idx as usize].id.as_str();
        let mut out = String::from("lock-order inversion detected by ldc-obs lockcheck\n");
        out.push_str(&format!(
            "  acquiring: {} (rank {}, instance {:#x})\n",
            id_of(meta.idx),
            meta.rank,
            instance
        ));
        out.push_str(&format!(
            "  while holding {} (rank {}, instance {:#x}){}\n",
            id_of(bad.idx),
            bad.rank,
            bad.instance,
            if bad.rank == meta.rank {
                " — same rank, same instance or not sharded (re-entrant acquisition)"
            } else {
                " — held rank is LATER in the declared order"
            }
        ));
        out.push_str("  full held stack (acquisition order):\n");
        for h in held {
            out.push_str(&format!(
                "    {} (rank {}, instance {:#x})\n",
                id_of(h.idx),
                h.rank,
                h.instance
            ));
        }
        out.push_str("  declared order (crates/lint/lock_order.toml):\n");
        for d in table {
            out.push_str(&format!(
                "    rank {:>4}  {}{}\n",
                d.rank,
                d.id,
                if d.sharded { "  [sharded]" } else { "" }
            ));
        }
        out
    }

    /// Number of ranked locks the current thread holds (test helper).
    pub(super) fn held_depth() -> usize {
        HELD.with(|cell| cell.borrow().len())
    }
}

// ---------------------------------------------------------------------------
// Public switches (no-ops when compiled out).
// ---------------------------------------------------------------------------

/// Turns the sanitizer on for the whole process (debug builds; release
/// builds compile this to nothing). Equivalent to `LDC_LOCKCHECK=1`.
pub fn enable() {
    #[cfg(debug_assertions)]
    active::set_enabled(true);
}

/// Turns the sanitizer off.
pub fn disable() {
    #[cfg(debug_assertions)]
    active::set_enabled(false);
}

/// Whether acquisitions are being checked right now.
pub fn is_active() -> bool {
    #[cfg(debug_assertions)]
    {
        active::enabled()
    }
    #[cfg(not(debug_assertions))]
    {
        false
    }
}

/// Ranked locks held by the current thread (0 when compiled out). Lets
/// tests assert the held-stack drains back to empty.
pub fn held_depth() -> usize {
    #[cfg(debug_assertions)]
    {
        active::held_depth()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

// ---------------------------------------------------------------------------
// Ranked lock wrappers.
// ---------------------------------------------------------------------------

/// A rank-witnessed mutex. `id` must appear in
/// `crates/lint/lock_order.toml`; in release builds the id is unused and
/// the type is exactly a non-poisoning `std::sync::Mutex`.
pub struct Mutex<T> {
    #[cfg(debug_assertions)]
    meta: active::Meta,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps `value` under the declared lock `id`. Panics (debug builds)
    /// on an id missing from the hierarchy table.
    pub fn new(id: &str, value: T) -> Mutex<T> {
        let _ = id;
        Mutex {
            #[cfg(debug_assertions)]
            meta: active::resolve(id),
            inner: std::sync::Mutex::new(value),
        }
    }

    #[cfg(debug_assertions)]
    fn instance(&self) -> usize {
        self as *const Mutex<T> as *const u8 as usize
    }

    /// Acquires the lock, checking rank order first (so an inversion
    /// panics instead of deadlocking).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let witness = active::acquire(self.meta, self.instance());
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            witness,
        }
    }

    /// Tries to acquire without blocking. The rank check still applies:
    /// an inversion panics even though `try_lock` itself cannot deadlock
    /// — the point is to catch the ordering bug deterministically.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let witness = active::acquire(self.meta, self.instance());
        match self.inner.try_lock() {
            Ok(inner) => Some(MutexGuard {
                inner: Some(inner),
                #[cfg(debug_assertions)]
                witness,
            }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
                #[cfg(debug_assertions)]
                witness,
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]. The witness pops off the held-stack on drop.
pub struct MutexGuard<'a, T> {
    /// `None` only transiently inside [`MutexGuard::wait`].
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    witness: active::Witness,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Releases the mutex, blocks on `cv`, and re-acquires — the ranked
    /// equivalent of `Condvar::wait`. The witness pops for the duration
    /// of the wait and re-checks rank order on wake.
    pub fn wait(mut self, cv: &Condvar) -> MutexGuard<'a, T> {
        let inner = self.inner.take().expect("guard holds the mutex");
        #[cfg(debug_assertions)]
        self.witness.disarm();
        let inner = cv.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        self.witness.rearm();
        self.inner = Some(inner);
        self
    }

    /// Like [`MutexGuard::wait`] but gives up after `dur`; the second
    /// return value is `true` when the wait timed out. Used by stall
    /// loops that re-check progress conditions as a lost-wakeup backstop.
    pub fn wait_timeout(
        mut self,
        cv: &Condvar,
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let inner = self.inner.take().expect("guard holds the mutex");
        #[cfg(debug_assertions)]
        self.witness.disarm();
        let (inner, timed_out) = match cv.inner.wait_timeout(inner, dur) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r.timed_out())
            }
        };
        #[cfg(debug_assertions)]
        self.witness.rearm();
        self.inner = Some(inner);
        (self, timed_out)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the mutex")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the mutex")
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Condition variable paired with the ranked [`Mutex`] (waits go through
/// [`MutexGuard::wait`] so the held-stack stays truthful while blocked).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condvar.
    pub fn new() -> Condvar {
        Condvar::default()
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A rank-witnessed reader-writer lock; see [`Mutex`].
pub struct RwLock<T> {
    #[cfg(debug_assertions)]
    meta: active::Meta,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps `value` under the declared lock `id`.
    pub fn new(id: &str, value: T) -> RwLock<T> {
        let _ = id;
        RwLock {
            #[cfg(debug_assertions)]
            meta: active::resolve(id),
            inner: std::sync::RwLock::new(value),
        }
    }

    #[cfg(debug_assertions)]
    fn instance(&self) -> usize {
        self as *const RwLock<T> as *const u8 as usize
    }

    /// Shared acquisition. Rank-checked like a write: a same-thread
    /// read-after-read of one instance is flagged too, because the
    /// std-backed lock may deadlock there when a writer is queued.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let witness = active::acquire(self.meta, self.instance());
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard {
            inner,
            #[cfg(debug_assertions)]
            witness,
        }
    }

    /// Exclusive acquisition.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let witness = active::acquire(self.meta, self.instance());
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard {
            inner,
            #[cfg(debug_assertions)]
            witness,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    #[allow(dead_code)] // held for its Drop impl
    witness: active::Witness,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    #[allow(dead_code)] // held for its Drop impl
    witness: active::Witness,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_parses_and_is_ranked() {
        let table = declared_table();
        assert!(table.len() >= 12, "hierarchy table suspiciously small");
        assert!(table.windows(2).all(|w| w[0].rank < w[1].rank));
        assert!(table.iter().any(|d| d.id == "lsm/db::core"));
        assert!(table.iter().any(|d| d.id == "obs/sink::writer"));
    }

    #[test]
    fn parser_rejects_malformed_tables() {
        assert!(
            parse_lock_table("[[lock]]\nrank = 1\n").is_err(),
            "missing id"
        );
        assert!(
            parse_lock_table("[[lock]]\nid = \"a\"\n").is_err(),
            "missing rank"
        );
        assert!(
            parse_lock_table("[[lock]]\nid = \"a\"\nrank = 1\n[[lock]]\nid = \"a\"\nrank = 2\n")
                .is_err(),
            "duplicate id"
        );
        assert!(
            parse_lock_table("[[lock]]\nid = \"a\"\nrank = 2\n[[lock]]\nid = \"b\"\nrank = 1\n")
                .is_err(),
            "descending ranks"
        );
        assert!(
            parse_lock_table("id = \"a\"\n").is_err(),
            "key before section"
        );
    }

    // The runtime checks only exist in debug builds; `cargo test` runs
    // debug by default, and the release test run simply skips these.
    #[cfg(debug_assertions)]
    mod runtime {
        use super::super::*;

        /// `enable`/`disable` flip process-global state; these tests must
        /// not interleave with each other.
        fn serial() -> std::sync::MutexGuard<'static, ()> {
            static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
            GATE.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn ordered_pair() -> (Mutex<u32>, Mutex<u32>) {
            // core (rank 60) then memtable::list (rank 90): forward order.
            (
                Mutex::new("lsm/db::core", 0),
                Mutex::new("lsm/memtable::list", 0),
            )
        }

        #[test]
        fn forward_order_passes_and_stack_drains() {
            let _serial = serial();
            enable();
            let (a, b) = ordered_pair();
            {
                let _ga = a.lock();
                let _gb = b.lock();
                assert_eq!(held_depth(), 2);
            }
            assert_eq!(held_depth(), 0);
            disable();
        }

        #[test]
        fn inversion_panics_with_held_stack() {
            let _serial = serial();
            enable();
            let (a, b) = ordered_pair();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _gb = b.lock();
                let _ga = a.lock(); // rank 60 while holding rank 90
            }))
            .expect_err("inversion must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock-order inversion"), "{msg}");
            assert!(msg.contains("lsm/db::core"), "{msg}");
            assert!(msg.contains("lsm/memtable::list"), "{msg}");
            assert!(msg.contains("declared order"), "{msg}");
            assert_eq!(held_depth(), 0, "unwound stack must drain");
            disable();
        }

        #[test]
        fn sharded_instances_may_coexist_but_not_reenter() {
            let _serial = serial();
            enable();
            let s1: Mutex<u32> = Mutex::new("lsm/cache::inner", 1);
            let s2: Mutex<u32> = Mutex::new("lsm/cache::inner", 2);
            {
                let _g1 = s1.lock();
                let _g2 = s2.lock(); // different instance, same rank: fine
            }
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g1 = s1.lock();
                let _again = s1.lock(); // same instance: re-entrant
            }))
            .expect_err("re-entry must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("re-entrant"), "{msg}");
            disable();
        }

        #[test]
        fn unknown_id_panics_at_construction() {
            let err = std::panic::catch_unwind(|| Mutex::new("nope/never::was", 0u8))
                .expect_err("unknown id must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("not declared"), "{msg}");
        }

        #[test]
        fn condvar_wait_pops_and_reacquires() {
            let _serial = serial();
            use std::sync::Arc;
            enable();
            let pair = Arc::new((Mutex::new("lsm/commit::state", false), Condvar::new()));
            let waker = Arc::clone(&pair);
            let waiter = std::thread::spawn(move || {
                let (m, cv) = &*waker;
                let mut g = m.lock();
                while !*g {
                    g = g.wait(cv);
                }
                assert_eq!(held_depth(), 1, "guard re-armed after wake");
                drop(g);
                assert_eq!(held_depth(), 0);
            });
            // Let the waiter block, then flip the flag.
            std::thread::sleep(std::time::Duration::from_millis(20));
            {
                let (m, cv) = &*pair;
                *m.lock() = true;
                cv.notify_all();
            }
            waiter.join().expect("waiter thread");
            disable();
        }

        #[test]
        fn disabled_costs_nothing_and_checks_nothing() {
            let _serial = serial();
            disable();
            let (a, b) = ordered_pair();
            // Backwards acquisition with the sanitizer off: no panic.
            let _gb = b.lock();
            let _ga = a.lock();
            assert_eq!(held_depth(), 0);
        }

        #[test]
        fn try_lock_returns_none_when_contended() {
            let _serial = serial();
            disable();
            let m: Mutex<u32> = Mutex::new("lsm/db::core", 7);
            let g = m.lock();
            assert!(m.try_lock().is_none());
            drop(g);
            assert_eq!(*m.try_lock().expect("free now"), 7);
        }

        #[test]
        fn rwlock_read_write_and_get_mut() {
            let _serial = serial();
            disable();
            let mut l: RwLock<Vec<u32>> = RwLock::new("lsm/db::view", vec![1]);
            l.get_mut().push(2);
            assert_eq!(*l.read(), vec![1, 2]);
            l.write().push(3);
            assert_eq!(l.into_inner(), vec![1, 2, 3]);
        }
    }
}
