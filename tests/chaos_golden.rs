//! Tier-1 golden for the chaos harness itself: the op stream, the fault
//! stream and every number a scenario reports are pinned here as
//! constants, for seed `0xC0FFEE` under `ChaosConfig::quick`, in UDC and
//! LDC. A refactor of `crates/chaos/src/harness.rs` must leave every line
//! unchanged — a moved line means a scenario now draws a different op,
//! injects a different fault, or counts a different storage operation, and
//! every `(seed, crash point)` recipe in EXPERIMENTS.md would replay
//! something else.
//!
//! The constants were recorded at commit 2aacf73 (PR 20), before the eight
//! hand-written workload loops were folded into one `drive` stage. When a
//! PR's stated purpose is to change them, re-record from the assertion's
//! `left` side and say why in CHANGES.md.

use std::fmt::Write as _;

use ldc::{CompactionMode, LdcConfig, Options};
use ldc_chaos::{BitFlipTarget, ChaosConfig, ChaosFailure, ChaosHarness};
use ldc_lsm::crc32c::crc32c;

const SEED: u64 = 0xC0FFEE;

fn mode(ldc: bool) -> CompactionMode {
    if ldc {
        CompactionMode::Ldc(LdcConfig::default())
    } else {
        CompactionMode::Udc
    }
}

/// A failure's whole `Display` text — detail, replay plan and the fault
/// journal — as one line: the detail verbatim, the rest as a checksum.
fn failure_line(out: &mut String, what: &str, failure: &ChaosFailure) {
    let text = failure.to_string();
    let _ = writeln!(
        out,
        "failure {what}: {} | faults={} display_len={} display_crc32c={:08x}",
        failure.detail,
        failure.fault_log.len(),
        text.len(),
        crc32c(text.as_bytes())
    );
}

/// Runs every scenario once and renders what it reported as one line per
/// fact, so a mismatch shows exactly which scenario moved.
fn fingerprint(ldc: bool) -> String {
    let ok = |f: ChaosFailure| -> ! { panic!("{f}") };
    let h = ChaosHarness::new(ChaosConfig::quick(SEED, mode(ldc)));
    let mut out = String::new();

    let total = h.measure_storage_ops().unwrap_or_else(|f| ok(f));
    let _ = writeln!(out, "storage_ops {total}");
    let profile = h.measure_backup_ops().unwrap_or_else(|f| ok(f));
    let _ = writeln!(
        out,
        "backup_ops before_checkpoint={} checkpoint_done={} total={}",
        profile.before_checkpoint, profile.checkpoint_done, profile.total
    );

    let crash = h.run_crash_point(33).unwrap_or_else(|f| ok(f));
    let _ = writeln!(
        out,
        "crash_point 33 acked={} {:?} {:?}",
        crash.acked_writes, crash.power_cycle, crash.recovery
    );

    // The three points `ldc-bench backup` aims at.
    for point in [
        profile.before_checkpoint + 1,
        profile.checkpoint_done.saturating_sub(1),
        (profile.checkpoint_done + profile.total) / 2,
    ] {
        let report = h.run_backup_crash(point).unwrap_or_else(|f| ok(f));
        let _ = writeln!(out, "backup_crash {report:?}");
    }

    let apply = h.run_apply_crash(0).unwrap_or_else(|f| ok(f));
    let _ = writeln!(
        out,
        "apply_crash 0 follower_ops={} final_cursor={}",
        apply.follower_ops, apply.final_cursor
    );

    for target in [
        BitFlipTarget::Wal,
        BitFlipTarget::Sstable,
        BitFlipTarget::Manifest,
    ] {
        let flip = h.run_bit_flip(target).unwrap_or_else(|f| ok(f));
        let _ = writeln!(
            out,
            "bit_flip {} file={} offset={} bit={}",
            target.label(),
            flip.file,
            flip.offset,
            flip.bit
        );
    }

    let io = ChaosHarness::new(ChaosConfig::quick(11, mode(ldc)))
        .run_io_errors(0.02)
        .unwrap_or_else(|f| ok(f));
    let _ = writeln!(out, "io_errors seed=11 p=0.02 {io:?}");

    let repair = h.run_scrub_quarantine_repair().unwrap_or_else(|f| ok(f));
    let _ = writeln!(
        out,
        "scrub_repair surviving={} lost={} {:?}",
        repair.surviving_keys, repair.lost_keys, repair.repair
    );

    // The fault journal is reachable only through a `ChaosFailure`, so two
    // are forced with expectations the engine cannot meet: exact durability
    // with `wal_sync` off (crash journal + power-cycle cuts), and transient
    // read failures past the retry budget (transient-read journal).
    let unsynced = ChaosHarness::new(ChaosConfig {
        options: Options {
            wal_sync: false,
            ..Options::small_for_tests()
        },
        ..ChaosConfig::quick(SEED, mode(ldc))
    });
    match unsynced.run_crash_point(total / 2) {
        Ok(report) => {
            let _ = writeln!(out, "failure unsynced_crash: none ({report:?})");
        }
        Err(f) => failure_line(&mut out, "unsynced_crash", &f),
    }
    match h.run_transient_reads(64) {
        Ok(report) => {
            let _ = writeln!(out, "failure transient_over_budget: none ({report:?})");
        }
        Err(f) => failure_line(&mut out, "transient_over_budget", &f),
    }
    out
}

const GOLDEN_UDC: &str = "\
storage_ops 613\n\
backup_ops before_checkpoint=309 checkpoint_done=318 total=695\n\
crash_point 33 acked=13 PowerCycleReport { files_truncated: 1, bytes_discarded: 5 } RecoverySummary { wals_replayed: 1, records_replayed: 13, bytes_truncated: 24, files_quarantined: 0 }\n\
backup_crash BackupCrashReport { crash_op: 310, crashed: true, acked_writes: 150, power_cycle: PowerCycleReport { files_truncated: 0, bytes_discarded: 0 }, backup_complete: false, restored_prefix: None, follower_cursor: None }\n\
backup_crash BackupCrashReport { crash_op: 317, crashed: true, acked_writes: 150, power_cycle: PowerCycleReport { files_truncated: 1, bytes_discarded: 16 }, backup_complete: false, restored_prefix: None, follower_cursor: None }\n\
backup_crash BackupCrashReport { crash_op: 506, crashed: true, acked_writes: 228, power_cycle: PowerCycleReport { files_truncated: 1, bytes_discarded: 20 }, backup_complete: true, restored_prefix: Some(210), follower_cursor: Some(4) }\n\
apply_crash 0 follower_ops=51 final_cursor=10\n\
bit_flip wal file=000005.log offset=6018 bit=6\n\
bit_flip sstable file=000004.sst offset=7244 bit=6\n\
bit_flip manifest file=MANIFEST-000001 offset=69 bit=6\n\
io_errors seed=11 p=0.02 IoErrorReport { acked_writes: 16, injected_errors: 1, first_error_op: Some(16) }\n\
scrub_repair surviving=62 lost=2 RepairReport { manifest_recovered: true, tables_kept: 2, tables_salvaged: 0, tables_quarantined: 0, tables_missing: 0, orphans_deleted: 0, frozen_thawed: 0, slices_dropped: 0, wal_records_salvaged: 0, wals_quarantined: 0, last_sequence: 300 }\n\
failure unsynced_crash: key key00001: got Some(\"v00000231-qnkdzeqzkcslqwdphfwwqgqqndaojthctfnariludzpmiyrkmfaaobvglaxzysfyfrbzygbixnvwypesteejkfpldtizencbrwgtqtruvpetds\"), model has Some(\"v00000291-cqvkehydcasdkrmasfgpyjxpoghhhfbcwdujusfgvsxvgvodajbqudspzmrjfdostlkedijyeabjtftjiaclujuavdutvyndhjlcfaqblhiobk\") | faults=2 display_len=613 display_crc32c=0bfcf855\n\
failure transient_over_budget: get key00003 failed: storage: transient io error: injected transient read failure 4 on 000006.sst | faults=4 display_len=511 display_crc32c=c21e3032\n\
";

const GOLDEN_LDC: &str = "\
storage_ops 613\n\
backup_ops before_checkpoint=309 checkpoint_done=318 total=729\n\
crash_point 33 acked=13 PowerCycleReport { files_truncated: 1, bytes_discarded: 5 } RecoverySummary { wals_replayed: 1, records_replayed: 13, bytes_truncated: 24, files_quarantined: 0 }\n\
backup_crash BackupCrashReport { crash_op: 310, crashed: true, acked_writes: 150, power_cycle: PowerCycleReport { files_truncated: 0, bytes_discarded: 0 }, backup_complete: false, restored_prefix: None, follower_cursor: None }\n\
backup_crash BackupCrashReport { crash_op: 317, crashed: true, acked_writes: 150, power_cycle: PowerCycleReport { files_truncated: 1, bytes_discarded: 16 }, backup_complete: false, restored_prefix: None, follower_cursor: None }\n\
backup_crash BackupCrashReport { crash_op: 523, crashed: true, acked_writes: 232, power_cycle: PowerCycleReport { files_truncated: 0, bytes_discarded: 0 }, backup_complete: true, restored_prefix: Some(230), follower_cursor: Some(7) }\n\
apply_crash 0 follower_ops=68 final_cursor=18\n\
bit_flip wal file=000005.log offset=6018 bit=6\n\
bit_flip sstable file=000004.sst offset=7244 bit=6\n\
bit_flip manifest file=MANIFEST-000001 offset=69 bit=6\n\
io_errors seed=11 p=0.02 IoErrorReport { acked_writes: 16, injected_errors: 1, first_error_op: Some(16) }\n\
scrub_repair surviving=62 lost=2 RepairReport { manifest_recovered: true, tables_kept: 2, tables_salvaged: 0, tables_quarantined: 0, tables_missing: 0, orphans_deleted: 0, frozen_thawed: 0, slices_dropped: 0, wal_records_salvaged: 0, wals_quarantined: 0, last_sequence: 300 }\n\
failure unsynced_crash: key key00001: got Some(\"v00000231-qnkdzeqzkcslqwdphfwwqgqqndaojthctfnariludzpmiyrkmfaaobvglaxzysfyfrbzygbixnvwypesteejkfpldtizencbrwgtqtruvpetds\"), model has Some(\"v00000291-cqvkehydcasdkrmasfgpyjxpoghhhfbcwdujusfgvsxvgvodajbqudspzmrjfdostlkedijyeabjtftjiaclujuavdutvyndhjlcfaqblhiobk\") | faults=2 display_len=613 display_crc32c=0bfcf855\n\
failure transient_over_budget: get key00003 failed: storage: transient io error: injected transient read failure 4 on 000006.sst | faults=4 display_len=511 display_crc32c=c21e3032\n\
";

#[test]
fn chaos_udc_matches_golden() {
    assert_eq!(fingerprint(false), GOLDEN_UDC);
}

#[test]
fn chaos_ldc_matches_golden() {
    assert_eq!(fingerprint(true), GOLDEN_LDC);
}
