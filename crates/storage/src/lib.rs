//! Durability for the serving layer: commitlog + snapshots + recovery.
//!
//! Everything the server holds — tables, training sets, models — lives in
//! RAM; this crate is the write path that lets it survive a restart. The
//! design is the classic commitlog/snapshot pairing (the shape of
//! SpacetimeDB's `commitlog` + `snapshot` crates):
//!
//! - **[`Record`]** — the one codec for session state: each record is
//!   one piece of it (session spec, table create/replace, row append,
//!   index definition, training set, model parameters, and — written only
//!   by snapshots — a table at a pinned version).
//! - **[`Commitlog`]** — an append-only log of records, length-prefixed
//!   and CRC32-checksummed; appends buffer in memory and
//!   [`Commitlog::commit`] flushes and fsyncs once per batch, so one
//!   durable write can cover many records.
//! - **[`snapshot`]** — periodic full-state snapshots: one checksummed
//!   batch of records ([`snapshot_records`] builds it from a session's
//!   parts), written atomically (`.tmp` + rename + directory fsync) and
//!   named by the log offset they cover, so the log tail after a snapshot
//!   is short.
//! - **[`SessionStore`]** — one directory per session pairing the two:
//!   appends go to the log, a snapshot is cut automatically once enough
//!   log grew behind it, and [`SessionStore::recover`] feeds the
//!   newest valid snapshot's records, then the log tail, through one
//!   function, [`RecoveredState::apply`].
//! - **[`effect`]** — what a record does to a session: [`effect::check`]
//!   before it is logged, [`effect::apply`] after. A live commit and
//!   recovery replay both go through this pair, and nothing else turns a
//!   record into a catalog or training-set change.
//!
//! Recovery is **bit-identical**: floats round-trip through
//! [`f64::to_bits`], null bitmaps and dataset record ids are persisted
//! verbatim, and table versions replay through the same
//! [`Database`](rain_sql::Database) bump rules that produced them — so a
//! prepared query against the recovered catalog returns the same rows and
//! provenance polynomials as before the crash. Torn writes are expected:
//! replay stops cleanly at the first short or corrupt record and truncates
//! the log there, exactly like a log that had simply ended earlier.
//!
//! Like the rest of the workspace, this crate is std-only.

pub mod codec;
pub mod effect;
pub mod log;
pub mod record;
pub mod snapshot;
pub mod store;

pub use codec::{Dec, Enc};
pub use effect::{Applied, Checked, SessionParts};
pub use log::{Commitlog, LOG_HEADER_LEN};
pub use record::Record;
pub use snapshot::snapshot_records;
pub use store::{RecoveredState, RecoveryStats, SessionStore};

/// Errors from the durability layer.
#[derive(Debug)]
pub enum StorageError {
    /// Filesystem failure (open, write, fsync, rename, ...).
    Io(std::io::Error),
    /// Persisted bytes that cannot be decoded. Recovery treats corruption
    /// *at the log tail* as a torn write and stops cleanly; a snapshot
    /// whose checksum or records fail falls back to the previous one.
    /// This variant surfaces only where no fallback exists (e.g. a log
    /// record that passed its checksum but carries an unknown tag).
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// CRC32 (IEEE reflected polynomial, the zlib/`crc32fast` flavor) over a
/// byte slice. Table generated at compile time; good enough to catch torn
/// writes and bit rot, which is all the log format asks of it.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }
}
