//! Device configuration.

use crate::error::{SsdError, SsdResult};

/// Flash page size in bytes; the unit of reads and programs.
pub const PAGE_BYTES: u64 = 4 << 10;
/// Sequential read bandwidth, bytes per second (2.0 GiB/s).
pub const READ_BANDWIDTH: u64 = 2_000 << 20;
/// Sequential write (program) bandwidth, bytes per second (0.4 GiB/s, a
/// 5x read/write asymmetry).
pub const WRITE_BANDWIDTH: u64 = 400 << 20;
/// Fixed setup latency charged per random read call (the random 4 KiB
/// class), nanoseconds.
pub const READ_LATENCY_NS: u64 = 60_000;
/// Setup latency for *sequential* reads (next block of a stream the
/// device/OS readahead already fetched), nanoseconds.
pub const SEQ_READ_LATENCY_NS: u64 = 4_000;
/// Fixed setup latency charged per write call, nanoseconds.
pub const WRITE_LATENCY_NS: u64 = 20_000;
/// Modelled kernel/file-system overhead charged per file metadata
/// operation (create/sync/delete/rename), nanoseconds.
pub const FS_OP_LATENCY_NS: u64 = 50_000;
/// Modelled kernel overhead charged per read/write call (the syscall +
/// page-cache path), nanoseconds; booked to the file-system time
/// category (Table I).
pub const SYSCALL_OVERHEAD_NS: u64 = 3_000;

/// Geometry and wear parameters of the simulated SSD.
///
/// The defaults model an enterprise PCIe NVMe drive of the class the paper
/// evaluated on (Memblaze Q520): 256-page erase blocks, 7%
/// over-provisioning, and a few thousand program/erase cycles of endurance
/// per block. Page size, bandwidths and latencies are that one profile's
/// and are fixed: [`PAGE_BYTES`], [`READ_BANDWIDTH`], [`WRITE_BANDWIDTH`],
/// [`READ_LATENCY_NS`], [`SEQ_READ_LATENCY_NS`], [`WRITE_LATENCY_NS`],
/// [`FS_OP_LATENCY_NS`] and [`SYSCALL_OVERHEAD_NS`].
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Usable (logical) capacity in bytes.
    pub capacity_bytes: u64,
    /// Pages per erase block; the unit of erases.
    pub pages_per_block: u64,
    /// Extra physical capacity reserved for garbage collection, as a
    /// fraction of logical capacity (e.g. `0.07` = 7%).
    pub over_provisioning: f64,
    /// Program/erase cycles each block endures before wearing out.
    pub endurance_cycles: u64,
    /// Number of free blocks below which garbage collection kicks in.
    pub gc_free_block_threshold: usize,
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 8 << 30, // 8 GiB keeps simulated runs light
            pages_per_block: 256,
            over_provisioning: 0.07,
            endurance_cycles: 5_000,
            gc_free_block_threshold: 4,
        }
    }
}

impl SsdConfig {
    /// A small device for unit tests: 4 MiB logical, 4 KiB pages, 16-page
    /// blocks — enough to exercise GC quickly.
    pub fn tiny_for_tests() -> Self {
        Self {
            capacity_bytes: 4 << 20,
            pages_per_block: 16,
            over_provisioning: 0.25,
            gc_free_block_threshold: 2,
            ..Self::default()
        }
    }

    /// Number of logical pages exposed by the device.
    pub fn logical_pages(&self) -> u64 {
        self.capacity_bytes / PAGE_BYTES
    }

    /// Number of physical erase blocks (logical capacity plus
    /// over-provisioning, rounded up to whole blocks, plus one spare so GC
    /// always has an open block to relocate into).
    pub fn physical_blocks(&self) -> u64 {
        let physical_bytes =
            (self.capacity_bytes as f64 * (1.0 + self.over_provisioning)).ceil() as u64;
        physical_bytes.div_ceil(self.block_bytes()) + 1
    }

    /// Bytes in one erase block.
    pub fn block_bytes(&self) -> u64 {
        PAGE_BYTES * self.pages_per_block
    }

    /// Validates internal consistency; called by [`crate::SsdDevice::new`].
    pub fn validate(&self) -> SsdResult<()> {
        if self.pages_per_block == 0 {
            return Err(SsdError::InvalidArgument(
                "pages_per_block must be nonzero".into(),
            ));
        }
        if self.capacity_bytes < self.block_bytes() {
            return Err(SsdError::InvalidArgument(
                "capacity must hold at least one erase block".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.over_provisioning) {
            return Err(SsdError::InvalidArgument(
                "over_provisioning must be within [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SsdConfig::default().validate().unwrap();
        SsdConfig::tiny_for_tests().validate().unwrap();
    }

    #[test]
    fn geometry_math() {
        let cfg = SsdConfig::tiny_for_tests();
        assert_eq!(cfg.logical_pages(), (4 << 20) / (4 << 10));
        assert_eq!(cfg.block_bytes(), 16 * (4 << 10));
        // 4 MiB * 1.25 = 5 MiB = 80 blocks of 64 KiB, plus one spare.
        assert_eq!(cfg.physical_blocks(), 81);
    }

    #[test]
    fn physical_exceeds_logical() {
        let cfg = SsdConfig::default();
        let physical_pages = cfg.physical_blocks() * cfg.pages_per_block;
        assert!(physical_pages > cfg.logical_pages());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.over_provisioning = 2.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.capacity_bytes = 1;
        assert!(cfg.validate().is_err());
    }
}
