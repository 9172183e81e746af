//! # ldc-sync — read-only follower replication
//!
//! Tails the incremental backup stream a primary ships (see
//! `ldc_core::lsm::backup` and `Db::backup_begin`) into a live, read-only
//! follower [`LdcDb`](ldc_core::LdcDb):
//!
//! 1. **bootstrap** — restore the backup's base checkpoint plus the
//!    stream's clean prefix into the follower's storage, then open it;
//! 2. **poll** — read stream records past the follower's persisted
//!    replication cursor, copy any SSTables they add, and apply each edit
//!    through `Db::apply_remote_edit` (which stamps the advanced cursor
//!    into the follower's own manifest, so a restarted follower resumes
//!    exactly where it left off);
//! 3. **lag** — `shipped - applied` records, surfaced by
//!    [`Follower::lag`] and the server tier's wire `Stats` reply.
//!
//! Every step is idempotent under crash: a torn stream tail is a clean
//! end, table copies skip files already present, and a crash between a
//! copy and its apply is healed by the next poll re-reading from the
//! durable cursor. The follower never writes through its own WAL — its
//! only mutations are replicated manifest edits — so it is consistent
//! with a prefix of the primary's acknowledged history at all times.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod tailer;

pub use tailer::{Follower, FollowerStats};
