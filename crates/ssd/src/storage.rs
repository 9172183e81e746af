//! File-level storage abstraction over the simulated device.
//!
//! The LSM engine is written against [`StorageBackend`], a minimal
//! object-store-style API (whole-file writes for SSTables, appends for the
//! WAL and manifest, ranged reads for blocks). [`MemStorage`] is the
//! reference implementation: file contents live in memory while **all**
//! traffic — byte transfers, page programs, TRIMs, metadata operations — is
//! charged to the shared [`SsdDevice`], so experiments observe realistic
//! device time and wear without touching the host file system.
//!
//! How a file was written decides how it is read. A file created by
//! [`StorageBackend::write_file`] is sealed: `MemStorage` keeps it as one
//! immutable [`Bytes`] image and every read returns a bounds-checked slice
//! of that image, the way LevelDB's default read path hands out slices of
//! an mmapped table — the device is charged for the bytes first, exactly as
//! before, only the host-side copy is gone. A slice keeps the image alive
//! after the file is deleted or replaced, as an open mapping would. A file
//! built by [`StorageBackend::append`] (WAL, MANIFEST, chunk-streamed
//! tables) is a growable buffer and each read copies its range out;
//! appending to or truncating a sealed file turns it into one, by one copy.
//!
//! Every file has its own lock, as every `FileState` has in LevelDB's
//! in-memory `Env`: the file table's lock guards only the name → file map
//! and is held just long enough to find, insert or remove a name — never
//! while bytes are copied, pages allocated or the device charged. So the
//! WAL append, a worker's table chunk and a reader's block read, each on
//! its own file, never wait on each other; a sealed image is built before
//! any lock is taken. Inside each call the device charges keep a fixed
//! order (for `write_file`: trims of the file it replaces, `fs_op`, the
//! transfer, page allocation, page programs), which
//! `tests/storage_golden.rs` pins, so a
//! single-threaded run's clock and FTL counters do not depend on the
//! locking. A caller that found a file keeps
//! it across a concurrent delete, rename-over or replace, like an unlinked
//! open file: its bytes stay readable, its pages were trimmed at the
//! unlink, and anything written to it afterwards is charged but never
//! programmed.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use ldc_obs::lockcheck::{Mutex, RwLock};

use crate::config::PAGE_BYTES;
use crate::device::SsdDevice;
use crate::error::{SsdError, SsdResult};
use crate::stats::IoClass;

/// The storage API the engine uses.
///
/// Semantics:
/// * [`write_file`](StorageBackend::write_file) atomically creates or
///   replaces a sealed file (the SSTable path),
/// * [`append`](StorageBackend::append) extends a log-style file, creating
///   it on first use (the WAL/manifest path),
/// * [`rename`](StorageBackend::rename) replaces the destination if present
///   (the `CURRENT`-pointer path).
pub trait StorageBackend: Send + Sync {
    /// Creates or replaces `name` with `data` and seals it.
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()>;
    /// Appends `data` to `name`, creating the file if absent.
    fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()>;
    /// Reads `len` bytes at `offset`.
    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<Bytes>;
    /// Reads `len` bytes at `offset` as the continuation of a sequential
    /// stream (scans, compaction inputs); backends may charge the cheaper
    /// readahead latency. Defaults to a plain [`StorageBackend::read`].
    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> SsdResult<Bytes> {
        self.read(name, offset, len, class)
    }
    /// Reads the whole file.
    fn read_all(&self, name: &str, class: IoClass) -> SsdResult<Bytes> {
        let size = self.size(name)?;
        self.read(name, 0, size, class)
    }
    /// Current size in bytes.
    fn size(&self, name: &str) -> SsdResult<u64>;
    /// Whether the file exists.
    fn exists(&self, name: &str) -> bool;
    /// Deletes the file, trimming its pages on the device.
    fn delete(&self, name: &str) -> SsdResult<()>;
    /// Renames `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &str, to: &str) -> SsdResult<()>;
    /// Durably flushes the file (charges a metadata op and the partial tail
    /// page, mirroring an `fsync`).
    fn sync(&self, name: &str) -> SsdResult<()>;
    /// Bytes of `name` guaranteed to survive a power cut: everything up to
    /// the last `sync` (sealed files — [`StorageBackend::write_file`] /
    /// [`StorageBackend::rename`] outputs — are durable in full). Backends
    /// that cannot distinguish (e.g. the host file system) report the full
    /// size. Fault-injection harnesses use this to model lost un-synced
    /// tails.
    fn synced_len(&self, name: &str) -> SsdResult<u64> {
        self.size(name)
    }
    /// Shrinks `name` to `len` bytes (no-op if already shorter). Used by
    /// crash simulation to discard un-synced tails; not part of the
    /// engine's own write path.
    fn truncate(&self, name: &str, len: u64) -> SsdResult<()> {
        let _ = (name, len);
        Err(SsdError::InvalidArgument(
            "backend does not support truncate".to_string(),
        ))
    }
    /// Makes `to` an independent sealed copy of `from`'s current contents
    /// (checkpoint path). Backends with cheap links (a host file system)
    /// may hard-link instead of copying; either way `to` must survive a
    /// later delete or rewrite of `from`. The default reads `from` in full
    /// and writes it back out, so every backend gets a gated,
    /// device-charged implementation for free. Fails if `to` exists.
    fn link_file(&self, from: &str, to: &str, class: IoClass) -> SsdResult<()> {
        if self.exists(to) {
            return Err(SsdError::InvalidArgument(format!(
                "link_file: destination {to:?} already exists"
            )));
        }
        let data = self.read_all(from, class)?;
        self.write_file(to, &data, class)
    }
    /// Sorted list of file names starting with `prefix` — the flat
    /// namespace's stand-in for a directory listing (checkpoints and
    /// backups group their files under a name prefix).
    fn list_dir(&self, prefix: &str) -> Vec<String> {
        self.list()
            .into_iter()
            .filter(|name| name.starts_with(prefix))
            .collect()
    }
    /// Sorted list of all file names.
    fn list(&self) -> Vec<String>;
    /// The device this backend charges.
    fn device(&self) -> Arc<SsdDevice>;
    /// Sum of all live file sizes (the Fig 15 space metric).
    fn total_bytes(&self) -> u64 {
        self.list()
            .iter()
            .filter_map(|name| self.size(name).ok())
            .sum()
    }
}

/// A file's bytes, held the way the file was written; see the module docs.
#[derive(Debug)]
enum Contents {
    /// Built by `append`: grows in place, reads copy out of it.
    Growing(Vec<u8>),
    /// Written whole by `write_file`: immutable, reads are slices of it.
    Sealed(Bytes),
}

impl Default for Contents {
    fn default() -> Self {
        Contents::Growing(Vec::new())
    }
}

impl Contents {
    fn len(&self) -> usize {
        match self {
            Contents::Growing(buf) => buf.len(),
            Contents::Sealed(image) => image.len(),
        }
    }

    /// Changes the bytes in place. A sealed image is unsealed first, by one
    /// copy; whatever `change` does, the file is a growing buffer afterwards.
    fn edit(&mut self, change: impl FnOnce(&mut Vec<u8>)) {
        let mut buf = match std::mem::take(self) {
            Contents::Growing(buf) => buf,
            Contents::Sealed(image) => image.to_vec(),
        };
        change(&mut buf);
        *self = Contents::Growing(buf);
    }
}

#[derive(Debug, Default)]
struct MemFile {
    data: Contents,
    /// Logical pages backing the fully flushed prefix of `data`.
    pages: Vec<u64>,
    /// Logical page backing a flushed partial tail, if any.
    tail_lpn: Option<u64>,
    /// Prefix of `data` guaranteed durable: advanced by `sync` (and by
    /// `write_file`, whose outputs are sealed). A simulated power cut may
    /// discard anything beyond it.
    synced_len: u64,
    /// Set when the name stopped naming this file (delete, rename-over,
    /// replace, failed write). Its pages went back to the device then; it
    /// never gets new ones.
    unlinked: bool,
    /// The lpns the last flush programmed, refilled by every flush so an
    /// append that completes a page does not allocate a list for it.
    programmed: Vec<u64>,
}

/// A file and its lock, shared by the table and every caller that looked
/// the name up.
type Slot = Arc<Mutex<MemFile>>;

fn slot(file: MemFile) -> Slot {
    Arc::new(Mutex::new("ssd/storage::file", file))
}

#[derive(Debug)]
struct PageAllocator {
    next: u64,
    limit: u64,
    free: Vec<u64>,
}

impl PageAllocator {
    fn alloc(&mut self) -> SsdResult<u64> {
        if let Some(lpn) = self.free.pop() {
            return Ok(lpn);
        }
        if self.next < self.limit {
            let lpn = self.next;
            self.next += 1;
            Ok(lpn)
        } else {
            Err(SsdError::DeviceFull)
        }
    }

    fn release(&mut self, lpns: impl IntoIterator<Item = u64>) {
        self.free.extend(lpns);
    }
}

/// In-memory storage backend charging all traffic to a simulated SSD.
pub struct MemStorage {
    device: Arc<SsdDevice>,
    files: RwLock<HashMap<String, Slot>>,
    alloc: Mutex<PageAllocator>,
}

impl std::fmt::Debug for MemStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Lock-free on purpose: Debug must be callable mid-operation.
        f.debug_struct("MemStorage").finish_non_exhaustive()
    }
}

impl MemStorage {
    /// Creates a backend over `device`.
    pub fn new(device: Arc<SsdDevice>) -> Arc<Self> {
        let limit = device.logical_pages();
        Arc::new(Self {
            device,
            files: RwLock::new("ssd/storage::files", HashMap::new()),
            alloc: Mutex::new(
                "ssd/storage::alloc",
                PageAllocator {
                    next: 0,
                    limit,
                    free: Vec::new(),
                },
            ),
        })
    }

    /// Convenience: backend over a default-profile device.
    pub fn with_default_device() -> Arc<Self> {
        Self::new(SsdDevice::with_defaults())
    }

    /// The file `name` names now.
    fn file(&self, name: &str) -> SsdResult<Slot> {
        self.files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SsdError::NotFound(name.to_string()))
    }

    /// Flushes complete pages of `file` into the FTL; with `seal` also
    /// flushes a partial tail page. Returns lpns programmed this call —
    /// none for an unlinked file — in the file's reusable list.
    fn flush_pages<'f>(&self, file: &'f mut MemFile, seal: bool) -> SsdResult<&'f [u64]> {
        file.programmed.clear();
        if file.unlinked {
            return Ok(&file.programmed);
        }
        let complete = file.data.len() as u64 / PAGE_BYTES;
        while (file.pages.len() as u64) < complete {
            // A previously flushed partial tail becomes this complete page.
            let lpn = match file.tail_lpn.take() {
                Some(lpn) => lpn,
                None => self.alloc.lock().alloc()?,
            };
            file.pages.push(lpn);
            file.programmed.push(lpn);
        }
        if seal && !(file.data.len() as u64).is_multiple_of(PAGE_BYTES) {
            let lpn = match file.tail_lpn {
                Some(lpn) => lpn,
                None => {
                    let lpn = self.alloc.lock().alloc()?;
                    file.tail_lpn = Some(lpn);
                    lpn
                }
            };
            file.programmed.push(lpn);
        }
        Ok(&file.programmed)
    }

    fn read_impl(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
        sequential: bool,
    ) -> SsdResult<Bytes> {
        let file = self.file(name)?;
        let file = file.lock();
        let size = file.data.len() as u64;
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(SsdError::OutOfRange {
                file: name.to_string(),
                offset,
                len,
                size,
            });
        }
        if sequential {
            self.device.charge_read_sequential(len, class);
        } else {
            self.device.charge_read(len, class);
        }
        let range = offset as usize..(offset + len) as usize;
        Ok(match &file.data {
            Contents::Sealed(image) => image.slice(range),
            Contents::Growing(buf) => Bytes::copy_from_slice(&buf[range]),
        })
    }

    /// Trims `file`'s pages and frees them; the name no longer leads here.
    fn unlink(&self, file: &mut MemFile) {
        file.unlinked = true;
        let mut lpns = std::mem::take(&mut file.pages);
        lpns.extend(file.tail_lpn.take());
        self.device.trim_pages(&lpns);
        self.alloc.lock().release(lpns);
    }
}

impl StorageBackend for MemStorage {
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        // The name leads to the whole new image at once; the old file's
        // pages are trimmed before the new ones are allocated.
        let file = slot(MemFile {
            data: Contents::Sealed(Bytes::copy_from_slice(data)),
            // Sealed files are written atomically and durably (the engine
            // only links them into a version after the write succeeds).
            synced_len: data.len() as u64,
            ..MemFile::default()
        });
        let old = self
            .files
            .write()
            .insert(name.to_string(), Arc::clone(&file));
        if let Some(old) = old {
            self.unlink(&mut old.lock());
        }
        self.device.fs_op();
        self.device.charge_write(data.len() as u64, class);
        let mut guard = file.lock();
        match self.flush_pages(&mut guard, true) {
            Ok(programmed) => {
                self.device.program_pages(programmed);
                // A sealed image takes no appends: free its list now.
                guard.programmed = Vec::new();
                Ok(())
            }
            Err(e) => {
                // Return any pages allocated before the failure, then the
                // name, unless a later write has taken it since.
                self.unlink(&mut guard);
                drop(guard);
                let mut files = self.files.write();
                if files.get(name).is_some_and(|f| Arc::ptr_eq(f, &file)) {
                    files.remove(name);
                }
                Err(e)
            }
        }
    }

    fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        let mut created = false;
        let file = self.file(name).unwrap_or_else(|_| {
            let mut files = self.files.write();
            let file = files.entry(name.to_string()).or_insert_with(|| {
                created = true;
                slot(MemFile::default())
            });
            Arc::clone(file)
        });
        if created {
            self.device.fs_op();
        }
        // The table is released: the copy below holds only this file.
        let mut file = file.lock();
        file.data.edit(|buf| buf.extend_from_slice(data));
        self.device.charge_write(data.len() as u64, class);
        let programmed = self.flush_pages(&mut file, false)?;
        self.device.program_pages(programmed);
        Ok(())
    }

    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<Bytes> {
        self.read_impl(name, offset, len, class, false)
    }

    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> SsdResult<Bytes> {
        self.read_impl(name, offset, len, class, true)
    }

    fn size(&self, name: &str) -> SsdResult<u64> {
        Ok(self.file(name)?.lock().data.len() as u64)
    }

    fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    fn delete(&self, name: &str) -> SsdResult<()> {
        let file = self
            .files
            .write()
            .remove(name)
            .ok_or_else(|| SsdError::NotFound(name.to_string()))?;
        self.device.fs_op();
        self.unlink(&mut file.lock());
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> SsdResult<()> {
        let old = {
            let mut files = self.files.write();
            let file = files
                .remove(from)
                .ok_or_else(|| SsdError::NotFound(from.to_string()))?;
            files.insert(to.to_string(), file)
        };
        if let Some(old) = old {
            self.unlink(&mut old.lock());
        }
        self.device.fs_op();
        Ok(())
    }

    fn sync(&self, name: &str) -> SsdResult<()> {
        let file = self.file(name)?;
        let mut file = file.lock();
        self.device.fs_op();
        let programmed = self.flush_pages(&mut file, true)?;
        self.device.program_pages(programmed);
        file.synced_len = file.data.len() as u64;
        Ok(())
    }

    fn synced_len(&self, name: &str) -> SsdResult<u64> {
        Ok(self.file(name)?.lock().synced_len)
    }

    fn truncate(&self, name: &str, len: u64) -> SsdResult<()> {
        let file = self.file(name)?;
        let mut file = file.lock();
        if len >= file.data.len() as u64 {
            return Ok(());
        }
        file.data.edit(|buf| buf.truncate(len as usize));
        file.synced_len = file.synced_len.min(len);
        // Release pages past the new end; a mid-page cut also invalidates
        // the flushed partial tail (its content changed).
        let keep = ((len / PAGE_BYTES) as usize).min(file.pages.len());
        let mut released: Vec<u64> = file.pages.split_off(keep);
        if let Some(tail) = file.tail_lpn.take() {
            released.push(tail);
        }
        self.device.fs_op();
        if !released.is_empty() {
            self.device.trim_pages(&released);
            self.alloc.lock().release(released);
        }
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn device(&self) -> Arc<SsdDevice> {
        Arc::clone(&self.device)
    }

    /// One walk of the file table; each size is read with the table
    /// released.
    fn total_bytes(&self) -> u64 {
        let files: Vec<Slot> = self.files.read().values().cloned().collect();
        files.iter().map(|f| f.lock().data.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use std::collections::HashSet;
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn storage() -> Arc<MemStorage> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    #[test]
    fn write_and_read_roundtrip() {
        let s = storage();
        s.write_file("a.sst", b"hello world", IoClass::FlushWrite)
            .unwrap();
        assert!(s.exists("a.sst"));
        assert_eq!(s.size("a.sst").unwrap(), 11);
        assert_eq!(
            s.read("a.sst", 6, 5, IoClass::UserRead).unwrap().as_ref(),
            b"world"
        );
        assert_eq!(
            s.read_all("a.sst", IoClass::UserRead).unwrap().as_ref(),
            b"hello world"
        );
    }

    #[test]
    fn reads_out_of_range_fail() {
        let s = storage();
        s.write_file("a", b"0123456789", IoClass::Other).unwrap();
        assert!(matches!(
            s.read("a", 8, 5, IoClass::Other),
            Err(SsdError::OutOfRange { .. })
        ));
        assert!(matches!(
            s.read("missing", 0, 1, IoClass::Other),
            Err(SsdError::NotFound(_))
        ));
    }

    #[test]
    fn append_grows_files_and_flushes_pages() {
        let s = storage();
        let page = PAGE_BYTES as usize;
        // Three appends crossing a page boundary.
        s.append("wal", &vec![1u8; page / 2], IoClass::WalWrite)
            .unwrap();
        s.append("wal", &vec![2u8; page / 2], IoClass::WalWrite)
            .unwrap();
        s.append("wal", &[3u8; 10], IoClass::WalWrite).unwrap();
        assert_eq!(s.size("wal").unwrap(), page as u64 + 10);
        // One complete page flushed; partial tail not yet.
        assert_eq!(s.device().ftl_stats().host_pages_written, 1);
        s.sync("wal").unwrap();
        assert_eq!(s.device().ftl_stats().host_pages_written, 2);
    }

    #[test]
    fn overwrite_releases_old_pages() {
        let s = storage();
        let page = PAGE_BYTES as usize;
        s.write_file("f", &vec![0u8; page * 4], IoClass::FlushWrite)
            .unwrap();
        let trimmed_before = s.device().ftl_stats().pages_trimmed;
        s.write_file("f", &vec![1u8; page], IoClass::FlushWrite)
            .unwrap();
        assert_eq!(s.device().ftl_stats().pages_trimmed, trimmed_before + 4);
        assert_eq!(s.size("f").unwrap(), page as u64);
    }

    #[test]
    fn delete_trims_and_reuses_space() {
        let s = storage();
        let page = PAGE_BYTES as usize;
        s.write_file("f", &vec![0u8; page * 8], IoClass::FlushWrite)
            .unwrap();
        s.delete("f").unwrap();
        assert!(!s.exists("f"));
        assert!(s.delete("f").is_err());
        assert_eq!(s.total_bytes(), 0);
        // Freed pages must be reusable.
        s.write_file("g", &vec![0u8; page * 8], IoClass::FlushWrite)
            .unwrap();
        assert_eq!(s.size("g").unwrap(), (page * 8) as u64);
    }

    #[test]
    fn rename_replaces_destination() {
        let s = storage();
        s.write_file("a", b"aaa", IoClass::Other).unwrap();
        s.write_file("b", b"bbb", IoClass::Other).unwrap();
        s.rename("a", "b").unwrap();
        assert!(!s.exists("a"));
        assert_eq!(s.read_all("b", IoClass::Other).unwrap().as_ref(), b"aaa");
        assert!(s.rename("missing", "x").is_err());
    }

    #[test]
    fn list_is_sorted() {
        let s = storage();
        for name in ["c", "a", "b"] {
            s.write_file(name, b"x", IoClass::Other).unwrap();
        }
        assert_eq!(s.list(), vec!["a", "b", "c"]);
    }

    #[test]
    fn device_fills_up() {
        let s = storage();
        let cap = s.device().config().capacity_bytes;
        // Writing more than the logical capacity must eventually fail.
        let chunk = vec![0u8; (cap / 4) as usize];
        let mut wrote_err = false;
        for i in 0..8 {
            if s.write_file(&format!("f{i}"), &chunk, IoClass::Other)
                .is_err()
            {
                wrote_err = true;
                break;
            }
        }
        assert!(wrote_err, "device never reported full");
    }

    #[test]
    fn synced_len_tracks_durability() {
        let s = storage();
        // Sealed files are durable in full.
        s.write_file("a.sst", &[7u8; 300], IoClass::FlushWrite)
            .unwrap();
        assert_eq!(s.synced_len("a.sst").unwrap(), 300);
        // Appends are volatile until synced.
        s.append("wal", &[1u8; 100], IoClass::WalWrite).unwrap();
        assert_eq!(s.synced_len("wal").unwrap(), 0);
        s.sync("wal").unwrap();
        assert_eq!(s.synced_len("wal").unwrap(), 100);
        s.append("wal", &[2u8; 50], IoClass::WalWrite).unwrap();
        assert_eq!(s.synced_len("wal").unwrap(), 100);
        assert_eq!(s.size("wal").unwrap(), 150);
        assert!(matches!(
            s.synced_len("missing"),
            Err(SsdError::NotFound(_))
        ));
    }

    #[test]
    fn truncate_discards_tail_and_pages() {
        let s = storage();
        let page = PAGE_BYTES as usize;
        s.append("wal", &vec![1u8; page * 3 + 10], IoClass::WalWrite)
            .unwrap();
        s.sync("wal").unwrap();
        s.append("wal", &vec![2u8; page], IoClass::WalWrite)
            .unwrap();
        // Cut back to mid-second-page.
        let cut = (page + page / 2) as u64;
        s.truncate("wal", cut).unwrap();
        assert_eq!(s.size("wal").unwrap(), cut);
        assert_eq!(s.synced_len("wal").unwrap(), cut);
        let data = s.read_all("wal", IoClass::Other).unwrap();
        assert!(data.iter().all(|&b| b == 1));
        // Truncate past EOF is a no-op; missing file errors.
        s.truncate("wal", 1 << 30).unwrap();
        assert_eq!(s.size("wal").unwrap(), cut);
        assert!(s.truncate("missing", 0).is_err());
        // The file keeps working after the cut.
        s.append("wal", &[3u8; 20], IoClass::WalWrite).unwrap();
        s.sync("wal").unwrap();
        assert_eq!(s.size("wal").unwrap(), cut + 20);
        assert_eq!(s.synced_len("wal").unwrap(), cut + 20);
    }

    #[test]
    fn link_file_copies_and_detaches() {
        let s = storage();
        s.write_file("000007.sst", b"table bytes", IoClass::FlushWrite)
            .unwrap();
        s.link_file("000007.sst", "ckpt-a@000007.sst", IoClass::Other)
            .unwrap();
        // The link is an independent sealed copy: deleting the source
        // leaves it readable, and it is durable in full.
        s.delete("000007.sst").unwrap();
        assert_eq!(
            s.read_all("ckpt-a@000007.sst", IoClass::Other)
                .unwrap()
                .as_ref(),
            b"table bytes"
        );
        assert_eq!(s.synced_len("ckpt-a@000007.sst").unwrap(), 11);
        // Existing destinations are refused; missing sources error.
        s.write_file("x", b"x", IoClass::Other).unwrap();
        assert!(s
            .link_file("x", "ckpt-a@000007.sst", IoClass::Other)
            .is_err());
        assert!(s.link_file("missing", "y", IoClass::Other).is_err());
    }

    #[test]
    fn list_dir_filters_by_prefix() {
        let s = storage();
        for name in [
            "ckpt-a@CURRENT",
            "ckpt-a@000001.sst",
            "ckpt-b@CURRENT",
            "000001.sst",
        ] {
            s.write_file(name, b"x", IoClass::Other).unwrap();
        }
        assert_eq!(
            s.list_dir("ckpt-a@"),
            vec!["ckpt-a@000001.sst", "ckpt-a@CURRENT"]
        );
        assert_eq!(s.list_dir("ckpt-b@"), vec!["ckpt-b@CURRENT"]);
        assert!(s.list_dir("ckpt-z@").is_empty());
    }

    #[test]
    fn total_bytes_tracks_live_data() {
        let s = storage();
        s.write_file("a", &vec![0u8; 1000], IoClass::Other).unwrap();
        s.append("b", &vec![0u8; 500], IoClass::Other).unwrap();
        assert_eq!(s.total_bytes(), 1500);
        s.delete("a").unwrap();
        assert_eq!(s.total_bytes(), 500);
    }

    /// The same bytes as a sealed file and as a file built by appends.
    fn sealed_and_appended(s: &MemStorage, bytes: &[u8]) {
        s.write_file("sealed", bytes, IoClass::FlushWrite).unwrap();
        for chunk in bytes.chunks(7) {
            s.append("appended", chunk, IoClass::FlushWrite).unwrap();
        }
        s.sync("appended").unwrap();
    }

    #[test]
    fn sealed_and_appended_files_read_alike() {
        let s = storage();
        let bytes: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        sealed_and_appended(&s, &bytes);
        let n = bytes.len() as u64;
        // Every in-range (offset, len), both read flavours, plus the edges
        // just past the end: same bytes or the same refusal.
        for offset in 0..=n + 1 {
            for len in 0..=n + 1 - offset.min(n) {
                let sealed = s.read("sealed", offset, len, IoClass::UserRead);
                let appended = s.read("appended", offset, len, IoClass::UserRead);
                let sequential = s.read_sequential("sealed", offset, len, IoClass::UserRead);
                if offset + len <= n {
                    let want = &bytes[offset as usize..(offset + len) as usize];
                    assert_eq!(sealed.unwrap().as_ref(), want);
                    assert_eq!(appended.unwrap().as_ref(), want);
                    assert_eq!(sequential.unwrap().as_ref(), want);
                } else {
                    for got in [sealed, appended, sequential] {
                        assert!(matches!(got, Err(SsdError::OutOfRange { .. })));
                    }
                }
            }
        }
        assert!(s.read("sealed", u64::MAX, 2, IoClass::UserRead).is_err());
        assert_eq!(
            s.read_all("sealed", IoClass::Other).unwrap(),
            s.read_all("appended", IoClass::Other).unwrap()
        );
    }

    #[test]
    fn sealed_reads_are_slices_of_one_image() {
        let s = storage();
        let bytes = vec![9u8; 4096];
        sealed_and_appended(&s, &bytes);
        let before = s.device().io_stats().total_read_bytes();
        let whole = s.read_all("sealed", IoClass::Other).unwrap();
        let a = s.read("sealed", 100, 50, IoClass::UserRead).unwrap();
        let b = s
            .read_sequential("sealed", 100, 50, IoClass::UserRead)
            .unwrap();
        // No copy: both reads point into the image `read_all` returned.
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a.as_ptr(), whole[100..].as_ptr());
        // A file built by appends still copies each read out.
        let c = s.read("appended", 100, 50, IoClass::UserRead).unwrap();
        let d = s.read("appended", 100, 50, IoClass::UserRead).unwrap();
        assert_ne!(c.as_ptr(), d.as_ptr());
        // Sliced or copied, the device is charged for every byte.
        assert_eq!(
            s.device().io_stats().total_read_bytes() - before,
            4096 + 4 * 50
        );
    }

    #[test]
    fn sealed_files_unseal_on_append_and_truncate() {
        let s = storage();
        s.write_file("f", b"0123456789", IoClass::FlushWrite)
            .unwrap();
        let held = s.read("f", 2, 6, IoClass::UserRead).unwrap();
        s.append("f", b"abc", IoClass::FlushWrite).unwrap();
        assert_eq!(s.size("f").unwrap(), 13);
        assert_eq!(
            s.read_all("f", IoClass::Other).unwrap().as_ref(),
            b"0123456789abc"
        );
        // The appended tail is not durable until synced; the sealed part is.
        assert_eq!(s.synced_len("f").unwrap(), 10);
        s.truncate("f", 4).unwrap();
        assert_eq!(s.read_all("f", IoClass::Other).unwrap().as_ref(), b"0123");
        assert_eq!(s.synced_len("f").unwrap(), 4);
        s.append("f", b"xy", IoClass::FlushWrite).unwrap();
        assert_eq!(s.read_all("f", IoClass::Other).unwrap().as_ref(), b"0123xy");
        // Truncating a still-sealed file works the same way.
        s.write_file("g", b"0123456789", IoClass::FlushWrite)
            .unwrap();
        s.truncate("g", 3).unwrap();
        assert_eq!(s.read_all("g", IoClass::Other).unwrap().as_ref(), b"012");
        // A slice taken before any of it still reads the sealed image.
        assert_eq!(held.as_ref(), b"234567");
    }

    #[test]
    fn held_slices_outlive_delete_replace_and_link() {
        let s = storage();
        s.write_file("t", b"table image", IoClass::FlushWrite)
            .unwrap();
        let held = s.read("t", 6, 5, IoClass::UserRead).unwrap();
        s.link_file("t", "ckpt@t", IoClass::Other).unwrap();
        s.write_file("t", b"replacement", IoClass::FlushWrite)
            .unwrap();
        assert_eq!(held.as_ref(), b"image");
        s.delete("t").unwrap();
        assert!(matches!(
            s.read("t", 0, 1, IoClass::UserRead),
            Err(SsdError::NotFound(_))
        ));
        assert_eq!(held.as_ref(), b"image");
        // The link is its own sealed image, not a view of the source's.
        let linked = s.read("ckpt@t", 6, 5, IoClass::UserRead).unwrap();
        assert_eq!(linked.as_ref(), b"image");
        assert_ne!(linked.as_ptr(), held.as_ptr());
        assert_eq!(s.total_bytes(), 11);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every page below the allocator's high-water mark is owned by exactly
    /// one live file or is free, and each live file owns exactly its
    /// complete pages plus at most one tail.
    fn assert_pages_accounted(s: &MemStorage) {
        let page = PAGE_BYTES;
        let mut seen = HashSet::new();
        let files: Vec<Slot> = s.files.read().values().cloned().collect();
        for file in &files {
            let file = file.lock();
            assert_eq!(file.pages.len() as u64, file.data.len() as u64 / page);
            for &lpn in file.pages.iter().chain(&file.tail_lpn) {
                assert!(seen.insert(lpn), "page {lpn} owned by two files");
            }
        }
        let alloc = s.alloc.lock();
        assert_eq!(
            seen.len() as u64,
            alloc.next - alloc.free.len() as u64,
            "pages in use by no live file"
        );
        for &lpn in &alloc.free {
            assert!(seen.insert(lpn), "page {lpn} both free and owned");
        }
    }

    /// Runs `work` on another thread while this one holds `name`'s lock;
    /// fails, instead of hanging, if `work` cannot finish meanwhile.
    fn completes_while_held(s: &MemStorage, name: &str, work: impl FnOnce() + Send) {
        let file = s.file(name).unwrap();
        let held = file.lock();
        let start = Barrier::new(2);
        let (done_tx, done) = mpsc::channel();
        thread::scope(|scope| {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                work();
                done_tx.send(()).unwrap();
            });
            start.wait();
            let finished = done.recv_timeout(Duration::from_secs(30));
            drop(held);
            assert!(finished.is_ok(), "a call on another file waited for {name}");
        });
    }

    #[test]
    fn concurrent_calls_pass_a_held_file() {
        let s = storage();
        s.write_file("000005.sst", b"held", IoClass::FlushWrite)
            .unwrap();
        s.write_file("000007.sst", b"0123456789", IoClass::FlushWrite)
            .unwrap();
        s.append("000003.log", b"abc", IoClass::WalWrite).unwrap();
        completes_while_held(&s, "000005.sst", || {
            s.append("000003.log", b"def", IoClass::WalWrite).unwrap();
            s.append("000004.log", b"new", IoClass::WalWrite).unwrap();
            let sealed = s.read("000007.sst", 2, 3, IoClass::UserRead).unwrap();
            assert_eq!(sealed.as_ref(), b"234");
            let growing = s.read("000003.log", 1, 4, IoClass::UserRead).unwrap();
            assert_eq!(growing.as_ref(), b"bcde");
            s.sync("000003.log").unwrap();
            assert_eq!(s.size("000003.log").unwrap(), 6);
            assert_eq!(s.synced_len("000003.log").unwrap(), 6);
            s.delete("000007.sst").unwrap();
            s.write_file("000008.sst", b"out", IoClass::CompactionWrite)
                .unwrap();
            assert!(s.exists("000005.sst"));
        });
        assert_eq!(s.total_bytes(), 4 + 6 + 3 + 3);
        assert_eq!(
            s.read_all("000005.sst", IoClass::Other).unwrap().as_ref(),
            b"held"
        );
        assert_pages_accounted(&s);
    }

    #[test]
    fn a_held_file_outlives_its_name_but_gets_no_pages() {
        let s = storage();
        let page = PAGE_BYTES as usize;
        s.append("wal", &vec![1u8; page + 10], IoClass::WalWrite)
            .unwrap();
        s.sync("wal").unwrap();
        let file = s.file("wal").unwrap();
        let trimmed = s.device().ftl_stats().pages_trimmed;
        s.delete("wal").unwrap();
        assert_eq!(s.device().ftl_stats().pages_trimmed, trimmed + 2);
        let mut file = file.lock();
        // Readable like an unlinked open file; an append that looked the
        // name up before the delete and lands after it programs nothing.
        assert_eq!(file.data.len(), page + 10);
        file.data
            .edit(|buf| buf.extend_from_slice(&vec![2u8; page]));
        assert!(s.flush_pages(&mut file, true).unwrap().is_empty());
        assert!(file.pages.is_empty() && file.tail_lpn.is_none());
        drop(file);
        assert_pages_accounted(&s);
    }

    #[test]
    fn concurrent_four_threads_keep_every_file_and_page() {
        const THREADS: u64 = 4;
        let s = storage();
        let shared: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        s.write_file("shared.sst", &shared, IoClass::FlushWrite)
            .unwrap();
        let start = Barrier::new(THREADS as usize);
        // Per thread: name -> (contents, synced_len).
        let models: Vec<HashMap<String, (Vec<u8>, u64)>> = thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (s, start, shared) = (&s, &start, &shared);
                    scope.spawn(move || {
                        let mut rng = 0x5EED_0000 + t;
                        let mut model: HashMap<String, (Vec<u8>, u64)> = HashMap::new();
                        start.wait();
                        for _ in 0..300 {
                            let r = splitmix(&mut rng);
                            let name = format!("t{t}-{}", r % 3);
                            let len = (r >> 16) as usize % 6_000;
                            let bytes: Vec<u8> =
                                (0..len).map(|i| (r >> 8) as u8 ^ i as u8).collect();
                            match (r >> 8) % 6 {
                                0 | 1 => {
                                    s.append(&name, &bytes, IoClass::WalWrite).unwrap();
                                    model.entry(name).or_default().0.extend(&bytes);
                                }
                                2 => {
                                    s.write_file(&name, &bytes, IoClass::CompactionWrite)
                                        .unwrap();
                                    model.insert(name, (bytes, len as u64));
                                }
                                3 => match model.get_mut(&name) {
                                    Some((data, synced)) => {
                                        s.sync(&name).unwrap();
                                        *synced = data.len() as u64;
                                    }
                                    None => assert!(s.sync(&name).is_err()),
                                },
                                4 => match model.remove(&name) {
                                    Some(_) => s.delete(&name).unwrap(),
                                    None => assert!(s.delete(&name).is_err()),
                                },
                                _ => {
                                    if let Some((data, _)) = model.get(&name) {
                                        let at = (r >> 40) as usize % (data.len() + 1);
                                        let got = s
                                            .read(
                                                &name,
                                                at as u64,
                                                (data.len() - at) as u64,
                                                IoClass::UserRead,
                                            )
                                            .unwrap();
                                        assert_eq!(got.as_ref(), &data[at..]);
                                    }
                                }
                            }
                            let at = (r >> 32) as usize % shared.len();
                            let got = s
                                .read_sequential(
                                    "shared.sst",
                                    at as u64,
                                    (shared.len() - at).min(4096) as u64,
                                    IoClass::UserRead,
                                )
                                .unwrap();
                            assert_eq!(got.as_ref(), &shared[at..at + got.len()]);
                        }
                        model
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut names = vec!["shared.sst".to_string()];
        for (name, (data, synced)) in models.iter().flatten() {
            assert_eq!(
                s.read_all(name, IoClass::Other).unwrap().as_ref(),
                &data[..]
            );
            assert_eq!(s.synced_len(name).unwrap(), *synced, "{name}");
            names.push(name.clone());
        }
        names.sort();
        assert_eq!(s.list(), names);
        assert_pages_accounted(&s);
    }
}
