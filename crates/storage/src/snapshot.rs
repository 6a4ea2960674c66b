//! Full-state snapshots: everything a session holds, as one checksummed
//! batch of [`Record`]s, named by the commitlog offset it covers.
//!
//! A snapshot file `snap-<offset>.bin` means "this is the exact state
//! produced by replaying the log up to `offset`". Recovery loads the
//! newest snapshot that validates, applies its records, and replays only
//! the log tail after its offset — both through
//! [`RecoveredState::apply`](crate::RecoveredState::apply) — so the log
//! can grow unboundedly between snapshots without recovery time growing
//! with total history.
//!
//! File format: the magic `RAINSNP2`, the body length (u64 LE) and the
//! body's CRC32 (u32 LE), then the body — a record count followed by
//! length-prefixed [`Record::encode`] payloads, in the order
//! [`snapshot_records`] builds them. A file with any other magic (such as
//! a `RAINSNP1` snapshot from before records were the format) is skipped
//! like a corrupt one; recovery then uses an older snapshot or the full
//! log.
//!
//! Writes are atomic: the body goes to a `.tmp` sibling, is fsynced,
//! renamed into place, and the directory is fsynced — a crash mid-write
//! leaves either the old set of snapshots or the new one, never a
//! half-file under the real name (a torn `.tmp` fails its checksum and is
//! ignored anyway).

use crate::codec::{Dec, Enc};
use crate::record::Record;
use crate::{crc32, StorageError};
use rain_model::Dataset;
use rain_sql::Database;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"RAINSNP2";
/// Older snapshots kept alongside the newest (fallbacks for a torn or
/// bit-rotted latest).
const KEEP_SNAPSHOTS: usize = 2;

/// The records of a full-state snapshot of one session: its creation
/// spec, model parameters and training set, then every table at its
/// version in registration order (so replay reissues the same
/// [`TableId`](rain_sql::TableId)s), each followed by its index
/// definitions. Index data is not stored; replay rebuilds it.
pub fn snapshot_records(spec: &str, params: &[f64], train: &Dataset, db: &Database) -> Vec<Record> {
    let mut records = vec![
        Record::SessionMeta {
            spec: spec.to_string(),
        },
        Record::ModelParams {
            params: params.to_vec(),
        },
        Record::TrainSet {
            data: train.clone(),
        },
    ];
    for e in db.entries() {
        records.push(Record::TableAt {
            name: e.name.clone(),
            version: e.version,
            table: e.table.clone(),
        });
        records.extend(e.indexes.iter().map(|ix| Record::CreateIndex {
            name: e.name.clone(),
            column: ix.column.clone(),
            kind: ix.kind.code(),
        }));
    }
    records
}

fn snapshot_path(dir: &Path, offset: u64) -> PathBuf {
    dir.join(format!("snap-{offset:020}.bin"))
}

/// Parse the covered offset out of a snapshot file name.
fn offset_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    rest.parse().ok()
}

/// Write a snapshot covering the log up to `offset`, atomically, and
/// prune old snapshots down to `KEEP_SNAPSHOTS`.
pub(crate) fn write_snapshot(
    dir: &Path,
    offset: u64,
    records: &[Record],
) -> Result<(), StorageError> {
    let mut e = Enc::new();
    e.u64(records.len() as u64);
    for rec in records {
        e.bytes(&rec.encode());
    }
    let body = e.into_bytes();
    let path = snapshot_path(dir, offset);
    let tmp = path.with_extension("bin.tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(MAGIC)?;
        f.write_all(&(body.len() as u64).to_le_bytes())?;
        f.write_all(&crc32(&body).to_le_bytes())?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Make the rename itself durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    prune(dir);
    Ok(())
}

/// Delete snapshots older than the newest [`KEEP_SNAPSHOTS`], plus any
/// stale `.tmp` leftovers. Best-effort: failures are ignored.
fn prune(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let p = entry.path();
        if p.extension().is_some_and(|e| e == "tmp") {
            let _ = fs::remove_file(&p);
        } else if let Some(off) = offset_of(&p) {
            snaps.push((off, p));
        }
    }
    snaps.sort_by_key(|&(off, _)| std::cmp::Reverse(off));
    for (_, p) in snaps.into_iter().skip(KEEP_SNAPSHOTS) {
        let _ = fs::remove_file(p);
    }
}

/// Load the newest snapshot in `dir` that validates, returning it with
/// the log offset it covers. A torn or corrupt newest snapshot falls back
/// to the next older one — a body fails when its checksum does, and also
/// when one of its records does not decode. No snapshot at all is `None`
/// (recover by replaying the whole log).
pub(crate) fn load_latest(dir: &Path) -> Result<Option<(u64, Vec<Record>)>, StorageError> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(None);
    };
    let mut snaps: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let p = e.path();
            offset_of(&p).map(|off| (off, p))
        })
        .collect();
    snaps.sort_by_key(|&(off, _)| std::cmp::Reverse(off));
    for (off, path) in snaps {
        match load_one(&path) {
            Ok(records) => return Ok(Some((off, records))),
            Err(StorageError::Corrupt(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

fn load_one(path: &Path) -> Result<Vec<Record>, StorageError> {
    let mut f = File::open(path)?;
    let mut head = [0u8; 20];
    f.read_exact(&mut head)
        .map_err(|_| StorageError::Corrupt("snapshot shorter than its header".into()))?;
    if &head[0..8] != MAGIC {
        return Err(StorageError::Corrupt(format!(
            "{} is not a rain snapshot (bad magic)",
            path.display()
        )));
    }
    let len = u64::from_le_bytes(head[8..16].try_into().unwrap());
    let crc = u32::from_le_bytes(head[16..20].try_into().unwrap());
    let mut body = Vec::new();
    f.read_to_end(&mut body)?;
    if body.len() as u64 != len || crc32(&body) != crc {
        return Err(StorageError::Corrupt(format!(
            "snapshot {} failed its checksum",
            path.display()
        )));
    }
    let mut d = Dec::new(&body);
    let n = d.len(8)?;
    let records = (0..n)
        .map(|_| d.bytes().and_then(Record::decode))
        .collect::<Result<Vec<_>, _>>()?;
    if !d.is_done() {
        return Err(StorageError::Corrupt(
            "trailing bytes after snapshot body".into(),
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rain_linalg::Matrix;
    use rain_sql::table::{ColType, Column, Schema, Table};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rain-snap-test-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn state(marker: i64) -> Vec<Record> {
        let mut db = Database::new();
        db.register(
            "t",
            Table::from_columns(
                Schema::new(&[("x", ColType::Int)]),
                vec![Column::Int(vec![marker])],
            ),
        );
        db.create_index("t", "x", rain_sql::IndexKind::Hash)
            .unwrap();
        let train = Dataset::with_ids(
            Matrix::from_vec(2, 1, vec![1.0, 2.0]),
            vec![0, 1],
            vec![7, 8],
            2,
        );
        let spec = format!("{{\"marker\":{marker}}}");
        snapshot_records(&spec, &[0.5, -0.25, marker as f64], &train, &db)
    }

    /// Byte form of a record batch: equality is bit-identity.
    fn encoded(records: &[Record]) -> Vec<Vec<u8>> {
        records.iter().map(Record::encode).collect()
    }

    #[test]
    fn write_load_round_trip() {
        let dir = temp_dir("rt");
        write_snapshot(&dir, 100, &state(1)).unwrap();
        let (off, got) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(off, 100);
        assert_eq!(encoded(&got), encoded(&state(1)));
        assert!(matches!(
            got.as_slice(),
            [
                Record::SessionMeta { .. },
                Record::ModelParams { .. },
                Record::TrainSet { .. },
                Record::TableAt { .. },
                Record::CreateIndex { .. },
            ]
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_wins_and_corrupt_newest_falls_back() {
        let dir = temp_dir("fallback");
        write_snapshot(&dir, 100, &state(1)).unwrap();
        write_snapshot(&dir, 200, &state(2)).unwrap();
        let (off, got) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(off, 200);
        assert_eq!(encoded(&got), encoded(&state(2)));
        // Flip a byte in the newest body: loading falls back to offset 100.
        let newest = snapshot_path(&dir, 200);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, bytes).unwrap();
        let (off, got) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(off, 100);
        assert_eq!(encoded(&got), encoded(&state(1)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_snapshots_are_pruned() {
        let dir = temp_dir("prune");
        for off in [10, 20, 30, 40] {
            write_snapshot(&dir, off, &state(off as i64)).unwrap();
        }
        let remaining: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| offset_of(&e.path()))
            .collect();
        assert_eq!(remaining.len(), KEEP_SNAPSHOTS);
        assert!(remaining.contains(&40));
        assert!(remaining.contains(&30));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_is_none() {
        let dir = temp_dir("none");
        assert!(load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
