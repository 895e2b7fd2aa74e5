//! Durable, shareable backing store for the content-addressed result
//! cache: an append-only log of fingerprint-keyed records.
//!
//! ## File format
//!
//! ```text
//! [8-byte magic "ULMCLOG\x01"]
//! repeated records:
//!   [u32 LE body length][u32 LE CRC-32 of body][body]
//!   body = [16-byte LE fingerprint][payload bytes]
//! ```
//!
//! The payload is opaque to this module (the service stores JSON-encoded
//! evaluation outcomes). Appends are atomic-enough for a single writer:
//! each record is written in one buffered `write_all` and flushed, so the
//! only possible damage from a crash is a torn *final* record. Replay
//! therefore trusts the longest valid prefix: it stops at the first bad
//! length, bad checksum, or truncation, reports what it found, and the
//! writer truncates the file back to the trusted prefix before appending
//! again. A wrong magic is different — that file is simply not a cache
//! log, and replay refuses it outright rather than silently starting
//! empty.
//!
//! Duplicate fingerprints are legal (re-insertion after eviction, imports
//! from a replica); replay keeps the **last** record for each key, and
//! [`CacheLog::compact`] rewrites the file to one record per key via a
//! temp-file-plus-rename so a crash mid-compaction leaves the old log
//! intact.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ulm_error::{CacheCorruptKind, UlmError};

/// First bytes of every cache log; the trailing byte is the format version.
pub const MAGIC: [u8; 8] = *b"ULMCLOG\x01";

/// Replayed `(fingerprint, payload)` pairs, as warm-up and import consume
/// them.
pub type LogEntries = Vec<(u128, Vec<u8>)>;

/// Records refusing lengths beyond this are treated as corruption rather
/// than honored — a flipped high bit in a length field must not look like
/// a 3 GiB record.
const MAX_RECORD_LEN: u32 = 64 << 20;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[k][b]` is the CRC state contribution of byte `b`
/// followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial) of `data`, eight bytes per step.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes one `(fingerprint, payload)` record, framing included.
pub fn encode_record(fingerprint: u128, payload: &[u8]) -> Vec<u8> {
    let body_len = 16 + payload.len();
    debug_assert!(body_len <= MAX_RECORD_LEN as usize);
    let mut out = Vec::with_capacity(8 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // CRC placeholder
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// One step of walking a record stream.
enum Step<'a> {
    Record {
        fingerprint: u128,
        payload: &'a [u8],
        consumed: usize,
    },
    End,
    Corrupt(CacheCorruptKind),
}

/// Decodes the record starting at `buf[0]`.
fn decode_step(buf: &[u8]) -> Step<'_> {
    if buf.is_empty() {
        return Step::End;
    }
    if buf.len() < 8 {
        return Step::Corrupt(CacheCorruptKind::Truncated);
    }
    let body_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if !(16..=MAX_RECORD_LEN).contains(&body_len) {
        // A body shorter than a fingerprint or absurdly long cannot be a
        // record; the stream is unrecoverable from here.
        return Step::Corrupt(CacheCorruptKind::Truncated);
    }
    let body_len = body_len as usize;
    if buf.len() < 8 + body_len {
        return Step::Corrupt(CacheCorruptKind::Truncated);
    }
    let stored_crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let body = &buf[8..8 + body_len];
    if crc32(body) != stored_crc {
        return Step::Corrupt(CacheCorruptKind::BadChecksum);
    }
    Step::Record {
        fingerprint: u128::from_le_bytes(body[..16].try_into().expect("16 bytes")),
        payload: &body[16..],
        consumed: 8 + body_len,
    }
}

/// What [`replay`] learned about a log file.
#[derive(Debug)]
pub struct ReplayReport {
    /// Valid records read (before last-write-wins deduplication).
    pub records: u64,
    /// Length of the trusted prefix in bytes; anything past this is damage.
    pub valid_bytes: u64,
    /// The corruption that ended the replay, if the file was damaged.
    pub corruption: Option<UlmError>,
}

/// Replays the log bytes into `(fingerprint, payload)` pairs,
/// keeping the last record per fingerprint, in fingerprint order.
///
/// Damage *after* the magic degrades gracefully: the valid prefix is
/// returned and the report records where trust ended. A missing or wrong
/// magic is a hard error — the file is not a cache log at all.
pub fn replay(bytes: &[u8]) -> Result<(LogEntries, ReplayReport), UlmError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(UlmError::CacheCorrupt {
            offset: 0,
            kind: CacheCorruptKind::BadMagic,
        });
    }
    let mut offset = MAGIC.len();
    let mut report = ReplayReport {
        records: 0,
        valid_bytes: offset as u64,
        corruption: None,
    };
    let mut entries: Vec<(u128, Vec<u8>)> = Vec::new();
    loop {
        match decode_step(&bytes[offset..]) {
            Step::End => break,
            Step::Corrupt(kind) => {
                report.corruption = Some(UlmError::CacheCorrupt {
                    offset: offset as u64,
                    kind,
                });
                break;
            }
            Step::Record {
                fingerprint,
                payload,
                consumed,
            } => {
                entries.push((fingerprint, payload.to_vec()));
                offset += consumed;
                report.records += 1;
                report.valid_bytes = offset as u64;
            }
        }
    }
    // Last write wins per fingerprint: stable sort by key, keep the
    // later of equal keys.
    entries.reverse();
    entries.sort_by_key(|(k, _)| *k);
    entries.dedup_by_key(|(k, _)| *k);
    Ok((entries, report))
}

/// Reads and replays a log file in one call (used by warm-up and import).
pub fn read_log(path: &Path) -> Result<(LogEntries, ReplayReport), UlmError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    replay(&bytes)
}

/// Writes a fresh, compacted log file of `entries` at `path`, replacing
/// any existing file atomically (temp file + rename).
pub fn write_log(path: &Path, entries: &[(u128, Vec<u8>)]) -> Result<(), UlmError> {
    let tmp = tmp_sibling(path);
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(&MAGIC)?;
        for (fp, payload) in entries {
            w.write_all(&encode_record(*fp, payload))?;
        }
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The single-writer handle to an open cache log.
///
/// Opening replays the existing file (creating it when absent), hands the
/// warmed entries back, truncates away any damaged tail so subsequent
/// appends extend the *trusted* prefix, and then appends records as the
/// in-memory cache learns new results. `appended_since_compact` lets the
/// owner decide when a [`compact`](CacheLog::compact) pays for itself.
pub struct CacheLog {
    path: PathBuf,
    file: File,
    /// Records appended since open or the last compaction.
    appended_since_compact: u64,
}

impl CacheLog {
    /// Opens (or creates) the log at `path`, returning the handle, the
    /// warmed `(fingerprint, payload)` entries, and the replay report.
    pub fn open(path: &Path) -> Result<(Self, LogEntries, ReplayReport), UlmError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(&MAGIC)?;
            file.sync_all()?;
            let report = ReplayReport {
                records: 0,
                valid_bytes: MAGIC.len() as u64,
                corruption: None,
            };
            return Ok((
                CacheLog {
                    path: path.to_path_buf(),
                    file,
                    appended_since_compact: 0,
                },
                Vec::new(),
                report,
            ));
        }
        let (entries, report) = replay(&bytes)?;
        if report.corruption.is_some() {
            // Drop the damaged tail so future appends extend trusted bytes.
            file.set_len(report.valid_bytes)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(report.valid_bytes))?;
        Ok((
            CacheLog {
                path: path.to_path_buf(),
                file,
                appended_since_compact: 0,
            },
            entries,
            report,
        ))
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, fingerprint: u128, payload: &[u8]) -> Result<(), UlmError> {
        self.file.write_all(&encode_record(fingerprint, payload))?;
        self.file.flush()?;
        self.appended_since_compact += 1;
        Ok(())
    }

    /// Records appended since open or the last compaction.
    pub fn appended_since_compact(&self) -> u64 {
        self.appended_since_compact
    }

    /// Rewrites the log to exactly `entries` (one record per key),
    /// atomically, and re-opens the handle onto the new file.
    pub fn compact(&mut self, entries: &[(u128, Vec<u8>)]) -> Result<(), UlmError> {
        write_log(&self.path, entries)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.appended_since_compact = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// The one-byte-per-step CRC-32 loop: the oracle for [`crc32`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn record_entries(entries: &[(u128, &[u8])]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for (fp, payload) in entries {
            bytes.extend_from_slice(&encode_record(*fp, payload));
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn crc32_matches_the_bytewise_loop(
            data in collection::vec(any::<u8>(), 0..10_240),
            skip in 0usize..8,
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            // Every start offset and tail length against the 8-byte stride.
            let tail = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }
    }

    #[test]
    fn round_trip_preserves_entries() {
        let bytes = record_entries(&[(1, b"one"), (2, b"two"), (3, &[])]);
        let (entries, report) = replay(&bytes).unwrap();
        assert_eq!(
            entries,
            vec![(1, b"one".to_vec()), (2, b"two".to_vec()), (3, Vec::new())]
        );
        assert_eq!(report.records, 3);
        assert!(report.corruption.is_none());
        assert_eq!(report.valid_bytes, bytes.len() as u64);
    }

    #[test]
    fn last_write_wins_per_fingerprint() {
        let bytes = record_entries(&[(7, b"old"), (9, b"other"), (7, b"new")]);
        let (entries, report) = replay(&bytes).unwrap();
        assert_eq!(entries, vec![(7, b"new".to_vec()), (9, b"other".to_vec())]);
        assert_eq!(report.records, 3, "dedup happens after counting");
    }

    #[test]
    fn wrong_magic_is_refused() {
        let err = replay(b"NOTALOG!rest").unwrap_err();
        assert_eq!(err.code(), "cache/bad-magic");
        let err = replay(b"").unwrap_err();
        assert_eq!(err.code(), "cache/bad-magic");
    }

    #[test]
    fn flipped_bit_stops_replay_at_the_bad_record() {
        let mut bytes = record_entries(&[(1, b"aaaa"), (2, b"bbbb"), (3, b"cccc")]);
        let second_record_at = MAGIC.len() + 8 + 16 + 4;
        bytes[second_record_at + 8 + 16] ^= 0x40; // damage record 2's payload
        let (entries, report) = replay(&bytes).unwrap();
        assert_eq!(entries, vec![(1, b"aaaa".to_vec())]);
        assert_eq!(report.records, 1);
        let corruption = report.corruption.expect("tail damage reported");
        assert_eq!(corruption.code(), "cache/bad-checksum");
        assert_eq!(report.valid_bytes as usize, second_record_at);
    }

    #[test]
    fn torn_final_record_keeps_the_prefix() {
        let full = record_entries(&[(1, b"aaaa"), (2, b"bbbb")]);
        let torn = &full[..full.len() - 3];
        let (entries, report) = replay(torn).unwrap();
        assert_eq!(entries, vec![(1, b"aaaa".to_vec())]);
        assert_eq!(
            report.corruption.as_ref().map(|e| e.code()),
            Some("cache/truncated")
        );
    }

    #[test]
    fn absurd_length_field_is_corruption_not_allocation() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let (entries, report) = replay(&bytes).unwrap();
        assert!(entries.is_empty());
        assert_eq!(
            report.corruption.as_ref().map(|e| e.code()),
            Some("cache/truncated")
        );
    }
}
