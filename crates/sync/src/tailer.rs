//! The follower: bootstrap from a backup, then tail its edit stream.

use std::sync::Arc;

use ldc_core::lsm::backup::{backup_prefix, for_each_stream_edit};
use ldc_core::lsm::version::table_file_name;
use ldc_core::lsm::{restore_backup, Result};
use ldc_core::ssd::{IoClass, StorageBackend};
use ldc_core::{LdcDb, LdcDbBuilder};
use ldc_obs::lockcheck::Mutex;

/// Point-in-time tailing state of a [`Follower`]. What it applied is the
/// store's own to count: `db().stats().edits_applied` (this process) and
/// `db().replication_cursor()` (its lifetime, bootstrap included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FollowerStats {
    /// Records the primary has shipped that this follower has not yet
    /// applied, as of the last [`Follower::poll`].
    pub lag_edits: u64,
    /// Polls that found at least one new record.
    pub polls_with_progress: u64,
    /// Polls that found the stream unchanged.
    pub polls_empty: u64,
}

/// A read-only follower: a live [`LdcDb`] kept in sync with a primary by
/// tailing the primary's incremental backup stream. Reads (get/scan) go
/// straight to the inner store via [`Follower::db`]; the only mutation
/// path is [`Follower::poll`].
pub struct Follower {
    db: LdcDb,
    src: Arc<dyn StorageBackend>,
    prefix: String,
    stats: Mutex<FollowerStats>,
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl Follower {
    /// Bootstraps a follower of backup `name` on `src`: restores the base
    /// checkpoint plus the stream's clean prefix into `dst`, then opens
    /// the store with `builder`'s configuration over `dst`.
    pub fn bootstrap(
        src: &Arc<dyn StorageBackend>,
        name: &str,
        builder: LdcDbBuilder,
        dst: Arc<dyn StorageBackend>,
    ) -> Result<Follower> {
        let prefix = backup_prefix(name);
        restore_backup(src, &prefix, &dst)?;
        Self::reopen(src, name, builder, dst)
    }

    /// Opens a follower over storage that already holds a restored (or
    /// previously-followed) copy — the restart path. The persisted
    /// replication cursor in `dst`'s manifest decides where tailing
    /// resumes; nothing is re-applied.
    pub fn reopen(
        src: &Arc<dyn StorageBackend>,
        name: &str,
        builder: LdcDbBuilder,
        dst: Arc<dyn StorageBackend>,
    ) -> Result<Follower> {
        let prefix = backup_prefix(name);
        Ok(Follower {
            db: builder.storage(Arc::clone(&dst)).build()?,
            src: Arc::clone(src),
            prefix,
            stats: Mutex::new("sync/tailer::stats", FollowerStats::default()),
        })
    }

    /// One tailing round: reads stream records past the follower's
    /// durable cursor, copies any SSTables they reference, and applies
    /// each edit. Returns the number of newly applied records. Safe to
    /// call on any schedule; crash-idempotent at every step.
    pub fn poll(&self) -> Result<u64> {
        let before = self.db.replication_cursor();
        let mut newly = 0u64;
        let total = for_each_stream_edit(self.src.as_ref(), &self.prefix, before, |_, edit| {
            // Materialize the record's new tables before the edit that
            // references them becomes visible — same ordering the shipper
            // used, so a crash here leaves only ignorable extra files.
            for (_, meta) in &edit.new_files {
                let table = table_file_name(meta.number);
                if self.db.storage().exists(&table) {
                    continue;
                }
                let data = self
                    .src
                    .read_all(&format!("{}{table}", self.prefix), IoClass::Other)?;
                self.db
                    .storage()
                    .write_file(&table, &data, IoClass::Other)?;
            }
            self.db.apply_remote_edit(&edit)?;
            newly += 1;
            Ok(())
        })?;
        let lag = total.saturating_sub(self.db.replication_cursor());
        let mut stats = self.stats.lock();
        stats.lag_edits = lag;
        if newly > 0 {
            stats.polls_with_progress += 1;
        } else {
            stats.polls_empty += 1;
        }
        Ok(newly)
    }

    /// Records the primary has shipped that this follower has not yet
    /// applied, as of the last [`Follower::poll`].
    pub fn lag(&self) -> u64 {
        self.stats.lock().lag_edits
    }

    /// Snapshot of the replication state.
    pub fn stats(&self) -> FollowerStats {
        *self.stats.lock()
    }

    /// The live follower store (serve reads from it).
    pub fn db(&self) -> &LdcDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_core::lsm::Options;
    use ldc_core::ssd::{MemStorage, SsdConfig, SsdDevice};

    fn storage() -> Arc<dyn StorageBackend> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    fn primary(src: &Arc<dyn StorageBackend>) -> LdcDb {
        LdcDb::builder()
            .options(Options::small_for_tests())
            .storage(Arc::clone(src))
            .build()
            .unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    fn value(i: u64) -> Vec<u8> {
        format!("value-{i:05}-{}", "x".repeat(64)).into_bytes()
    }

    #[test]
    fn follower_bootstraps_and_catches_up() {
        let src = storage();
        let db = primary(&src);
        for i in 0..200 {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.drain_background();
        db.backup_begin("repl").unwrap();

        let follower = Follower::bootstrap(
            &src,
            "repl",
            LdcDb::builder().options(Options::small_for_tests()),
            storage(),
        )
        .unwrap();
        for i in 0..200 {
            assert_eq!(follower.db().get(&key(i)).unwrap(), Some(value(i)));
        }

        // New writes on the primary flow through flush edits.
        for i in 200..400 {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        db.drain_background();
        let applied = follower.poll().unwrap();
        assert!(applied > 0, "stream produced no records");
        assert_eq!(follower.lag(), 0);
        for i in 0..400 {
            assert_eq!(follower.db().get(&key(i)).unwrap(), Some(value(i)), "{i}");
        }
        assert_eq!(follower.db().stats().edits_applied, applied);
        assert!(follower.db().replication_cursor() >= applied);
    }

    #[test]
    fn restarted_follower_resumes_from_durable_cursor() {
        let src = storage();
        let db = primary(&src);
        for i in 0..100 {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.drain_background();
        db.backup_begin("repl").unwrap();
        for i in 100..200 {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        db.drain_background();

        let dst = storage();
        let f1 = Follower::bootstrap(
            &src,
            "repl",
            LdcDb::builder().options(Options::small_for_tests()),
            Arc::clone(&dst),
        )
        .unwrap();
        f1.poll().unwrap();
        let cursor = f1.db().replication_cursor();
        assert!(cursor > 0);
        drop(f1);

        // Reopen over the same storage: the cursor is in the manifest.
        let f2 = Follower::reopen(
            &src,
            "repl",
            LdcDb::builder().options(Options::small_for_tests()),
            dst,
        )
        .unwrap();
        assert_eq!(f2.db().replication_cursor(), cursor);
        assert_eq!(f2.poll().unwrap(), 0, "nothing new must re-apply");
        for i in 0..200 {
            assert_eq!(f2.db().get(&key(i)).unwrap(), Some(value(i)), "{i}");
        }
    }

    #[test]
    fn empty_poll_counts_and_lag_is_zero_without_new_records() {
        let src = storage();
        let db = primary(&src);
        db.put(b"k", b"v").unwrap();
        db.drain_background();
        db.backup_begin("repl").unwrap();
        let follower = Follower::bootstrap(
            &src,
            "repl",
            LdcDb::builder().options(Options::small_for_tests()),
            storage(),
        )
        .unwrap();
        assert_eq!(follower.poll().unwrap(), 0);
        let stats = follower.stats();
        assert_eq!(stats.polls_empty, 1);
        assert_eq!(stats.lag_edits, 0);
    }
}
