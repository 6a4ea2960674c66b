//! The append-only commitlog.
//!
//! On-disk layout: an 8-byte magic header (`RAINLOG1`) followed by
//! records, each framed as
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! little-endian. Appends buffer in memory; [`Commitlog::commit`] writes
//! the whole batch and fsyncs once — the fsync-on-commit batching that
//! lets one durable write cover a burst of mutations. A record is durable
//! iff `commit` returned after it was appended.
//!
//! Opening scans the file once: the log is valid up to the first short
//! read, implausible length, or checksum mismatch, and everything after
//! that point is a torn write from a crash mid-`commit` — it is truncated
//! away, and new appends continue from the last valid record, exactly as
//! if the log had ended there.

use crate::{crc32, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"RAINLOG1";
/// Bytes before the first record (the magic header).
pub const LOG_HEADER_LEN: u64 = 8;
/// Upper bound on one record's payload; anything larger in a length
/// prefix is treated as corruption. Generous: a full 200k-row snapshot of
/// the DBLP workload is well under this.
const MAX_RECORD: u32 = 1 << 30;

/// What [`Commitlog::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenStats {
    /// Valid records already in the log.
    pub records: u64,
    /// Bytes of torn tail discarded (0 on a clean shutdown).
    pub truncated_bytes: u64,
}

/// An append-only, checksummed, fsync-on-commit record log.
#[derive(Debug)]
pub struct Commitlog {
    file: File,
    /// Offset one past the last durable (committed) record.
    durable_end: u64,
    /// Pending appends, flushed as one batch by [`Commitlog::commit`].
    pending: Vec<u8>,
    records: u64,
    pending_records: u64,
    open_stats: OpenStats,
    fail_next_commit: bool,
}

impl Commitlog {
    /// Open (or create) the log at `path`, scanning for the valid prefix
    /// and truncating any torn tail.
    pub fn open(path: &Path) -> Result<Commitlog, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < LOG_HEADER_LEN {
            // Fresh (or hopelessly short) log: write the header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.sync_all()?;
            return Ok(Commitlog {
                file,
                durable_end: LOG_HEADER_LEN,
                pending: Vec::new(),
                records: 0,
                pending_records: 0,
                open_stats: OpenStats::default(),
                fail_next_commit: false,
            });
        }
        let mut magic = [0u8; 8];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StorageError::Corrupt(format!(
                "{} is not a rain commitlog (bad magic)",
                path.display()
            )));
        }
        let (valid_end, records) = scan(&mut file, file_len)?;
        let truncated = file_len - valid_end;
        if truncated > 0 {
            file.set_len(valid_end)?;
            file.sync_all()?;
        }
        Ok(Commitlog {
            file,
            durable_end: valid_end,
            pending: Vec::new(),
            records,
            pending_records: 0,
            open_stats: OpenStats {
                records,
                truncated_bytes: truncated,
            },
            fail_next_commit: false,
        })
    }

    /// What the opening scan found (valid records, torn bytes discarded).
    pub fn open_stats(&self) -> OpenStats {
        self.open_stats
    }

    /// Buffer one record for the next [`Commitlog::commit`]. Returns the
    /// offset one past this record once it commits.
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        assert!(
            payload.len() as u64 <= MAX_RECORD as u64,
            "record payload exceeds MAX_RECORD"
        );
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
        self.pending_records += 1;
        self.durable_end + self.pending.len() as u64
    }

    /// Flush every buffered record in one write and fsync. After this
    /// returns `Ok`, those records survive a crash. On `Err` the batch is
    /// lost, not deferred: it is dropped and any partial write cut away,
    /// so a later commit cannot make durable a mutation whose caller was
    /// told it failed.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = self.write_pending();
        match written {
            Ok(()) => {
                self.durable_end += self.pending.len() as u64;
                self.records += self.pending_records;
            }
            Err(_) => {
                let _ = self.file.set_len(self.durable_end);
            }
        }
        self.pending.clear();
        self.pending_records = 0;
        written
    }

    fn write_pending(&mut self) -> Result<(), StorageError> {
        if std::mem::take(&mut self.fail_next_commit) {
            return Err(StorageError::Io(std::io::Error::other(
                "injected commit failure",
            )));
        }
        self.file.seek(SeekFrom::Start(self.durable_end))?;
        self.file.write_all(&self.pending)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Fault injection for tests of the layers above the log: the next
    /// [`Commitlog::commit`] fails the way a full disk would, before
    /// anything is written.
    #[doc(hidden)]
    pub fn fail_next_commit(&mut self) {
        self.fail_next_commit = true;
    }

    /// Offset one past the last durable record (grows only on commit).
    pub fn durable_end(&self) -> u64 {
        self.durable_end
    }

    /// Durable log size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.durable_end
    }

    /// Durable records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Replay durable record payloads from `from` (a record boundary —
    /// [`LOG_HEADER_LEN`] or an offset a previous append/replay reported)
    /// to the durable end. The sink receives each payload with the offset
    /// one past its frame.
    pub fn replay(
        &mut self,
        from: u64,
        mut sink: impl FnMut(u64, &[u8]) -> Result<(), StorageError>,
    ) -> Result<u64, StorageError> {
        let mut pos = from.clamp(LOG_HEADER_LEN, self.durable_end);
        let mut replayed = 0u64;
        self.file.seek(SeekFrom::Start(pos))?;
        let mut head = [0u8; 8];
        let mut payload = Vec::new();
        while pos + 8 <= self.durable_end {
            self.file.read_exact(&mut head)?;
            let len = u32::from_le_bytes(head[0..4].try_into().unwrap());
            let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
            if len > MAX_RECORD || pos + 8 + len as u64 > self.durable_end {
                return Err(StorageError::Corrupt(format!(
                    "replay hit an invalid frame inside the valid prefix at {pos}"
                )));
            }
            payload.resize(len as usize, 0);
            self.file.read_exact(&mut payload)?;
            if crc32(&payload) != crc {
                return Err(StorageError::Corrupt(format!(
                    "replay hit a checksum mismatch inside the valid prefix at {pos}"
                )));
            }
            pos += 8 + len as u64;
            sink(pos, &payload)?;
            replayed += 1;
        }
        Ok(replayed)
    }
}

/// Scan from the header to the end, returning (valid_end, record_count).
/// Stops — without error — at the first frame that is short, implausibly
/// long, or fails its checksum: that is the torn tail.
fn scan(file: &mut File, file_len: u64) -> Result<(u64, u64), StorageError> {
    let mut pos = LOG_HEADER_LEN;
    let mut records = 0u64;
    let mut head = [0u8; 8];
    let mut payload = Vec::new();
    file.seek(SeekFrom::Start(pos))?;
    loop {
        if pos + 8 > file_len {
            break;
        }
        file.read_exact(&mut head)?;
        let len = u32::from_le_bytes(head[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if len > MAX_RECORD || pos + 8 + len as u64 > file_len {
            break;
        }
        payload.resize(len as usize, 0);
        file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            break;
        }
        pos += 8 + len as u64;
        records += 1;
    }
    Ok((pos, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "rain-log-test-{}-{tag}-{n}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn append_commit_reopen_replay() {
        let path = temp_path("basic");
        {
            let mut log = Commitlog::open(&path).unwrap();
            log.append(b"one");
            log.append(b"two");
            log.commit().unwrap();
            log.append(b"three");
            log.commit().unwrap();
            assert_eq!(log.records(), 3);
        }
        let mut log = Commitlog::open(&path).unwrap();
        assert_eq!(log.open_stats().records, 3);
        assert_eq!(log.open_stats().truncated_bytes, 0);
        let mut seen = Vec::new();
        log.replay(LOG_HEADER_LEN, |_, p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn uncommitted_appends_are_not_durable() {
        let path = temp_path("uncommitted");
        {
            let mut log = Commitlog::open(&path).unwrap();
            log.append(b"kept");
            log.commit().unwrap();
            log.append(b"lost");
            // dropped without commit
        }
        let log = Commitlog::open(&path).unwrap();
        assert_eq!(log.records(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_commit_drops_the_batch() {
        let path = temp_path("failed");
        let mut log = Commitlog::open(&path).unwrap();
        log.append(b"kept");
        log.commit().unwrap();
        let end = log.durable_end();
        log.append(b"lost");
        log.append(b"lost too");
        log.fail_next_commit();
        assert!(log.commit().is_err());
        assert_eq!((log.records(), log.durable_end()), (1, end));
        // The failed batch does not ride along with the next commit.
        log.append(b"next");
        log.commit().unwrap();
        drop(log);
        let mut log = Commitlog::open(&path).unwrap();
        let mut seen = Vec::new();
        log.replay(LOG_HEADER_LEN, |_, p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![b"kept".to_vec(), b"next".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_path("torn");
        {
            let mut log = Commitlog::open(&path).unwrap();
            log.append(b"alpha");
            log.append(b"beta");
            log.commit().unwrap();
        }
        // Tear the last record: chop two bytes off the file.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 2).unwrap();
        drop(f);
        let mut log = Commitlog::open(&path).unwrap();
        assert_eq!(log.open_stats().records, 1);
        assert!(log.open_stats().truncated_bytes > 0);
        // The log keeps working from the last valid record.
        log.append(b"gamma");
        log.commit().unwrap();
        drop(log);
        let mut log = Commitlog::open(&path).unwrap();
        let mut seen = Vec::new();
        log.replay(LOG_HEADER_LEN, |_, p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTALOG!extra").unwrap();
        assert!(matches!(
            Commitlog::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_payloads_round_trip() {
        let path = temp_path("empty");
        let mut log = Commitlog::open(&path).unwrap();
        log.append(b"");
        log.append(b"x");
        log.commit().unwrap();
        drop(log);
        let mut log = Commitlog::open(&path).unwrap();
        let mut lens = Vec::new();
        log.replay(LOG_HEADER_LEN, |_, p| {
            lens.push(p.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(lens, vec![0, 1]);
        std::fs::remove_file(&path).unwrap();
    }
}
