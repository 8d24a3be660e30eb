//! The crash-safe LSM manifest: the single source of truth for which runs
//! are live in an [`crate::lsm::LsmCoconut`] directory.
//!
//! The manifest is one small binary file (`MANIFEST`) in the index
//! directory, rewritten **atomically** on every run addition and every
//! compaction (write sibling temp, fsync, rename, fsync dir — via
//! [`coconut_storage::atomic`]). It records:
//!
//! * a monotonically increasing sequence number (bumped on every commit),
//! * the index configuration (so `open` needs no out-of-band config),
//! * the covered position range of the raw file (`base..covered_end` —
//!   `base` is 0 for a whole-dataset index and the slice start for a
//!   shard-worker index that owns only a key range),
//! * the next run id to allocate, and
//! * the live run set: for each run its id, covered `start..end` range, and
//!   index-file path relative to the index directory.
//!
//! The payload is guarded by a CRC-64 checksum and a format version, so a
//! torn or corrupted file is *detected* (an error) rather than parsed.
//! Because replacement is atomic, a crash at any point leaves either the
//! previous manifest or the new one — recovery
//! ([`crate::lsm::LsmCoconut::open`]) then deletes whatever run directories
//! the surviving manifest does not reference (orphans of an interrupted
//! ingest or compaction) plus any leftover temporary file.
//!
//! **Invariant:** the run set always covers `base..covered_end`
//! contiguously — `runs[0].start == base`, each run starts where the
//! previous one ends, and the last run ends at `covered_end`.
//! [`Manifest::decode`] rejects manifests that violate this, so a bug
//! cannot persist an inconsistent run set that recovery would then trust.
//!
//! The format has one version, [`VERSION`] (4): it carries the base
//! position, the split-policy byte ([`crate::split::SplitPolicyKind`]) and
//! the compaction-policy byte ([`crate::compaction::CompactionPolicyKind`]),
//! which is always 0 (size-tiered); a manifest naming the removed leveled
//! policy is refused with a typed error. A manifest of any other version
//! is refused with a typed error naming it.

use std::path::{Path, PathBuf};

use coconut_storage::atomic::{atomic_write, crc64, read_all};
use coconut_storage::{Error, Result};
use coconut_summary::SaxConfig;

use crate::compaction::CompactionPolicyKind;
use crate::config::IndexConfig;
use crate::split::SplitPolicyKind;

/// File name of the manifest inside an LSM index directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

const MAGIC: &[u8; 8] = b"CNUTMAN1";
/// The manifest format version this build writes and reads.
pub const VERSION: u32 = 4;
/// magic + version + payload length + crc64.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// One live run: a bulk-loaded Coconut-Tree covering a contiguous position
/// range of the raw file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Unique, monotonically allocated run id (also names the run's
    /// directory, `run-<id>`).
    pub id: u64,
    /// First covered raw-file position.
    pub start: u64,
    /// One past the last covered raw-file position.
    pub end: u64,
    /// Index-file path relative to the LSM directory
    /// (e.g. `run-3/ctree-17-ptr.idx`).
    pub file: String,
}

impl RunMeta {
    /// Number of entries the run holds.
    pub fn entries(&self) -> u64 {
        self.end - self.start
    }

    /// The run's directory name (`run-<id>`).
    pub fn dir_name(&self) -> String {
        run_dir_name(self.id)
    }
}

/// The directory name used for run `id`.
pub fn run_dir_name(id: u64) -> String {
    format!("run-{id}")
}

/// The decoded manifest contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Commit sequence number; bumped by one on every write.
    pub seq: u64,
    /// The index configuration every run was (and will be) built with.
    pub config: IndexConfig,
    /// Whether runs embed raw series (`-Full` layout).
    pub materialized: bool,
    /// First raw-file position this index covers: 0 for a whole-dataset
    /// index, the slice start for a shard worker's key-range slice.
    pub base: u64,
    /// The raw file is covered up to (exclusive) this position.
    pub covered_end: u64,
    /// Next run id to allocate.
    pub next_run_id: u64,
    /// Live runs in position order (contiguous, gap-free).
    pub runs: Vec<RunMeta>,
}

impl Manifest {
    /// Path of the manifest file inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Serialize to the on-disk format (header + checksummed payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + self.runs.len() * 48);
        push_u64(&mut payload, self.seq);
        push_u64(&mut payload, self.config.sax.series_len as u64);
        push_u64(&mut payload, self.config.sax.segments as u64);
        payload.push(self.config.sax.card_bits);
        payload.push(self.materialized as u8);
        push_u64(&mut payload, self.config.leaf_capacity as u64);
        push_u64(&mut payload, self.config.fill_factor.to_bits());
        push_u64(&mut payload, self.config.internal_fanout as u64);
        payload.push(self.config.split_policy.as_u8());
        payload.push(CompactionPolicyKind::Tiered.as_u8());
        push_u64(&mut payload, self.base);
        push_u64(&mut payload, self.covered_end);
        push_u64(&mut payload, self.next_run_id);
        push_u64(&mut payload, self.runs.len() as u64);
        for run in &self.runs {
            push_u64(&mut payload, run.id);
            push_u64(&mut payload, run.start);
            push_u64(&mut payload, run.end);
            push_u64(&mut payload, run.file.len() as u64);
            payload.extend_from_slice(run.file.as_bytes());
        }

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse and validate bytes written by [`Manifest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(Error::corrupt("manifest shorter than its header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(Error::corrupt("bad manifest magic"));
        }
        let version = crate::le::u32(&bytes[8..12]);
        if version != VERSION {
            return Err(Error::corrupt(format!(
                "unsupported manifest version {version} (this build reads version {VERSION})"
            )));
        }
        let payload_len = crate::le::u64(&bytes[12..20]) as usize;
        let checksum = crate::le::u64(&bytes[20..28]);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(Error::corrupt(format!(
                "manifest payload truncated: {} of {payload_len} bytes",
                payload.len()
            )));
        }
        if crc64(payload) != checksum {
            return Err(Error::corrupt("manifest checksum mismatch"));
        }

        let mut r = Reader(payload);
        let seq = r.u64()?;
        let series_len = r.u64()? as usize;
        let segments = r.u64()? as usize;
        let card_bits = r.u8()?;
        let materialized = r.u8()? != 0;
        let leaf_capacity = r.u64()? as usize;
        let fill_factor = f64::from_bits(r.u64()?);
        let internal_fanout = r.u64()? as usize;
        let split_policy = SplitPolicyKind::from_u8(r.u8()?)?;
        CompactionPolicyKind::from_u8(r.u8()?)?;
        let base = r.u64()?;
        let covered_end = r.u64()?;
        let next_run_id = r.u64()?;
        let run_count = r.u64()? as usize;
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let id = r.u64()?;
            let start = r.u64()?;
            let end = r.u64()?;
            let name_len = r.u64()? as usize;
            let file = String::from_utf8(r.bytes(name_len)?.to_vec())
                .map_err(|_| Error::corrupt("manifest run path is not UTF-8"))?;
            runs.push(RunMeta {
                id,
                start,
                end,
                file,
            });
        }

        let config = IndexConfig {
            sax: SaxConfig {
                series_len,
                segments,
                card_bits,
            },
            leaf_capacity,
            fill_factor,
            internal_fanout,
            split_policy,
        };
        config.validate()?;
        let manifest = Manifest {
            seq,
            config,
            materialized,
            base,
            covered_end,
            next_run_id,
            runs,
        };
        manifest.check_runs()?;
        Ok(manifest)
    }

    /// Enforce the contiguity invariant documented on the module.
    fn check_runs(&self) -> Result<()> {
        if self.covered_end < self.base {
            return Err(Error::corrupt(format!(
                "manifest covered_end {} is below base {}",
                self.covered_end, self.base
            )));
        }
        let mut expected_start = self.base;
        for run in &self.runs {
            if run.start != expected_start || run.end <= run.start {
                return Err(Error::corrupt(format!(
                    "manifest run {} covers {}..{} but the previous run ended at {expected_start}",
                    run.id, run.start, run.end
                )));
            }
            if run.id >= self.next_run_id {
                return Err(Error::corrupt(format!(
                    "manifest run id {} >= next_run_id {}",
                    run.id, self.next_run_id
                )));
            }
            expected_start = run.end;
        }
        if expected_start != self.covered_end {
            return Err(Error::corrupt(format!(
                "manifest runs cover {}..{expected_start} but covered_end is {}",
                self.base, self.covered_end
            )));
        }
        Ok(())
    }

    /// Atomically replace the manifest in `dir` with this one.
    pub fn store(&self, dir: &Path) -> Result<()> {
        atomic_write(&Self::path_in(dir), &self.encode())
    }

    /// Load and validate the manifest from `dir`.
    pub fn load(dir: &Path) -> Result<Self> {
        Self::decode(&read_all(&Self::path_in(dir), "LSM manifest")?)
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian payload reader.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(Error::corrupt("manifest payload ends unexpectedly"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(crate::le::u64(self.bytes(8)?))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::TempDir;

    fn sample() -> Manifest {
        Manifest {
            seq: 7,
            config: IndexConfig::default_for_len(128),
            materialized: true,
            base: 0,
            covered_end: 500,
            next_run_id: 5,
            runs: vec![
                RunMeta {
                    id: 2,
                    start: 0,
                    end: 300,
                    file: "run-2/ctree-0-full.idx".into(),
                },
                RunMeta {
                    id: 4,
                    start: 300,
                    end: 500,
                    file: "run-4/ctree-1-full.idx".into(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let empty = Manifest {
            runs: Vec::new(),
            covered_end: 0,
            ..sample()
        };
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = TempDir::new("manifest").unwrap();
        let m = sample();
        m.store(dir.path()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), m);
        // A second store replaces the first.
        let mut m2 = m;
        m2.seq = 8;
        m2.store(dir.path()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap().seq, 8);
    }

    #[test]
    fn corruption_is_detected() {
        let m = sample();
        let good = m.encode();

        // Flip one payload byte: checksum mismatch.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(Manifest::decode(&bad).is_err());

        // Truncate: payload length mismatch.
        assert!(Manifest::decode(&good[..good.len() - 3]).is_err());
        // Torn down to less than a header.
        assert!(Manifest::decode(&good[..10]).is_err());

        // Wrong magic and wrong version.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(Manifest::decode(&bad).is_err());
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(Manifest::decode(&bad).is_err());
    }

    #[test]
    fn based_slice_roundtrips() {
        // A shard worker's manifest covers base..covered_end, not 0.. .
        let mut m = sample();
        m.base = 300;
        m.runs.remove(0);
        m.runs[0] = RunMeta {
            start: 300,
            ..m.runs[0].clone()
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);

        // Runs starting below base violate contiguity from base.
        let mut bad = sample();
        bad.base = 300;
        assert!(Manifest::decode(&bad.encode()).is_err());
        // covered_end below base is inconsistent.
        let mut bad = sample();
        bad.base = 900;
        bad.runs.clear();
        assert!(Manifest::decode(&bad.encode()).is_err());
    }

    fn frame(version: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    // Offset of the split-policy byte in the payload: seq + series_len +
    // segments = 24, card_bits + materialized = 2, leaf + fill + fanout =
    // 24. The compaction-policy byte follows it.
    const POLICY_OFF: usize = 8 * 3 + 2 + 8 * 3;
    const COMPACTION_OFF: usize = POLICY_OFF + 1;

    /// The v4 payload of `sample()` with `cut` removed, framed as `version`
    /// with a valid checksum over the shortened payload.
    fn cut_frame(version: u32, cut: std::ops::Range<usize>) -> Vec<u8> {
        let v4 = sample().encode();
        let payload = &v4[HEADER_LEN..];
        frame(
            version,
            &[&payload[..cut.start], &payload[cut.end..]].concat(),
        )
    }

    /// `bytes` decodes as far as its header and is refused there with a
    /// typed error naming `version`, never misread as the current format.
    fn assert_refused_naming(bytes: &[u8], version: u32) {
        match Manifest::decode(bytes) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains(&format!("version {version}")), "{msg}")
            }
            other => panic!("version {version}: {other:?}"),
        }
    }

    #[test]
    fn version1_manifests_still_decode() {
        // v1 = v4 minus both policy bytes and the base field.
        assert_refused_naming(&cut_frame(1, POLICY_OFF..POLICY_OFF + 2 + 8), 1);
    }

    #[test]
    fn version2_manifests_still_decode() {
        // v2 = v4 minus both policy bytes.
        assert_refused_naming(&cut_frame(2, POLICY_OFF..POLICY_OFF + 2), 2);
    }

    #[test]
    fn version3_manifests_still_decode() {
        // v3 = v4 minus the compaction byte.
        assert_refused_naming(&cut_frame(3, COMPACTION_OFF..COMPACTION_OFF + 1), 3);
    }

    #[test]
    fn newer_manifest_versions_are_refused() {
        // A v4-shaped payload under a version this build does not know.
        assert_refused_naming(&cut_frame(VERSION + 1, 0..0), VERSION + 1);
    }

    #[test]
    fn split_policy_roundtrips_in_v3() {
        let mut m = sample();
        m.config.split_policy = SplitPolicyKind::Adaptive;
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded.config.split_policy, SplitPolicyKind::Adaptive);
        // An unknown policy byte is corruption, not a silent default.
        let encoded = m.encode();
        let mut bad_payload = encoded[HEADER_LEN..].to_vec();
        bad_payload[POLICY_OFF] = 9;
        assert!(Manifest::decode(&frame(4, &bad_payload)).is_err());
    }

    #[test]
    fn leveled_compaction_byte_is_refused() {
        let encoded = sample().encode();
        assert_eq!(encoded[HEADER_LEN + COMPACTION_OFF], 0, "tiered is byte 0");
        // Byte 1 named leveled compaction, which was removed: a typed
        // refusal that says so, not a silent fallback to tiered.
        let mut payload = encoded[HEADER_LEN..].to_vec();
        payload[COMPACTION_OFF] = 1;
        match Manifest::decode(&frame(VERSION, &payload)) {
            Err(Error::InvalidArg(msg)) => assert!(msg.contains("leveled"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // An unknown compaction byte is corruption.
        payload[COMPACTION_OFF] = 9;
        assert!(matches!(
            Manifest::decode(&frame(VERSION, &payload)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn inconsistent_run_sets_rejected() {
        // Gap between runs.
        let mut m = sample();
        m.runs[1].start = 350;
        assert!(Manifest::decode(&m.encode()).is_err());
        // covered_end disagrees with the last run.
        let mut m = sample();
        m.covered_end = 999;
        assert!(Manifest::decode(&m.encode()).is_err());
        // Run id not below next_run_id.
        let mut m = sample();
        m.runs[0].id = 5;
        assert!(Manifest::decode(&m.encode()).is_err());
        // Empty run.
        let mut m = sample();
        m.runs[0].end = 0;
        assert!(Manifest::decode(&m.encode()).is_err());
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = TempDir::new("manifest").unwrap();
        assert!(Manifest::load(dir.path()).is_err());
    }
}
