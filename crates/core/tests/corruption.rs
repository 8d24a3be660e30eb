//! Property tests for on-disk corruption: flip a random byte or truncate
//! a random file anywhere in an index directory (manifest included), then
//! open, scrub, and query. The contract under any such damage:
//!
//! * **never a panic** — every failure is a typed [`coconut_storage::Error`];
//! * **never a wrong answer** — if the index opens, whatever prefix it
//!   still covers must answer bit-identically to a brute-force scan of
//!   that prefix, or the query itself must fail typed.
//!
//! Undetected-but-harmless damage (a flipped bit in padding) is allowed:
//! the property only forbids silent wrongness.
//!
//! Beside the random damage, targeted flips hit each section of a stored
//! leaf — symbols, positions, payload CRCs, payloads — and the header's
//! version and position-width bytes, and expect the typed error that names
//! what was damaged, from every query that needs the damaged leaf.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use coconut_core::layout::{crc32, read_directory, IndexHeader, LeafCodec};
use coconut_core::{BuildOptions, CoconutTree, Error, IndexConfig, LsmCoconut};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::gen::RandomWalkGen;
use coconut_series::index::Answer;
use coconut_storage::{CountedFile, Deadline, IoStats, TempDir};

const N: u64 = 200;
const LEN: usize = 32;

/// A pristine three-run index built once; every case works on a copy.
struct Fixture {
    _dir: TempDir,
    index: PathBuf,
    data: PathBuf,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = TempDir::new("corruption-golden").unwrap();
        let data = dir.path().join("data.ds");
        let stats = Arc::new(IoStats::new());
        write_dataset(&data, &mut RandomWalkGen::new(11), N, LEN, &stats).unwrap();
        let ds = Dataset::open(&data, stats).unwrap();
        let index = dir.path().join("index");
        let lsm = LsmCoconut::new(config(), BuildOptions::default(), &index).unwrap();
        for upto in [80, 140, N] {
            lsm.ingest_upto(&ds, upto).unwrap();
        }
        Fixture {
            _dir: dir,
            index,
            data,
        }
    })
}

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 16;
    c
}

fn open_dataset() -> Dataset {
    Dataset::open(&fixture().data, Arc::new(IoStats::new())).unwrap()
}

/// Recursively copy the golden index into a fresh scratch directory.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// Every regular file under `dir`, sorted for determinism.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                stack.push(entry.path());
            } else {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    out
}

/// Brute-force 1-NN over `0..end` — what a surviving index must match.
fn oracle_prefix(ds: &Dataset, q: &[f32], end: u64) -> Answer {
    let mut best = Answer::none();
    for pos in 0..end {
        let d = coconut_series::distance::euclidean(q, &ds.get(pos).unwrap());
        if d < best.dist {
            best = Answer { pos, dist: d };
        }
    }
    best
}

/// The whole property: damage one file, then open + scrub + query and
/// demand typed failure or bit-exact truth — never a panic, never a lie.
fn check_damaged_index(dir: &Path) {
    let ds = open_dataset();
    let lsm = match LsmCoconut::open(dir, &ds, BuildOptions::default()) {
        Ok(lsm) => lsm,
        Err(e) => {
            // A typed refusal is a correct outcome; its display must be
            // non-empty so operators see *what* was damaged.
            assert!(!e.to_string().is_empty());
            return;
        }
    };
    // Scrub must classify every live run without panicking; a detected
    // error must carry a message.
    for run in lsm.scrub() {
        if let Some(err) = run.error {
            assert!(!err.is_empty(), "scrub error without a message");
        }
    }
    // Whatever prefix survived must answer exactly or fail typed.
    let covered = lsm.covered_end();
    assert!(covered <= N, "covered={covered} grew past the dataset");
    let q: Vec<f32> = ds.get(N / 2).unwrap();
    match lsm.snapshot().exact(&q, Deadline::NONE) {
        Err(e) => assert!(!e.to_string().is_empty()),
        Ok((got, _)) => {
            let want = oracle_prefix(&ds, &q, covered);
            assert_eq!(
                (got.pos, got.dist.to_bits()),
                (want.pos, want.dist.to_bits()),
                "damaged index answered wrongly over its covered prefix 0..{covered}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flip one random byte in one random index file.
    #[test]
    fn flipped_byte_is_typed_or_harmless(
        file_sel in any::<u64>(),
        offset_sel in any::<u64>(),
        xor in any::<u8>(),
    ) {
        let scratch = TempDir::new("corruption-flip").unwrap();
        let dir = scratch.path().join("index");
        copy_tree(&fixture().index, &dir);
        let files = files_under(&dir);
        let victim = &files[(file_sel % files.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        if !bytes.is_empty() {
            let off = (offset_sel % bytes.len() as u64) as usize;
            bytes[off] ^= xor | 1; // always a real flip
            std::fs::write(victim, bytes).unwrap();
        }
        check_damaged_index(&dir);
    }

    /// Truncate one random index file to a random shorter length.
    #[test]
    fn truncated_file_is_typed_or_harmless(
        file_sel in any::<u64>(),
        len_sel in any::<u64>(),
    ) {
        let scratch = TempDir::new("corruption-trunc").unwrap();
        let dir = scratch.path().join("index");
        copy_tree(&fixture().index, &dir);
        let files = files_under(&dir);
        let victim = &files[(file_sel % files.len() as u64) as usize];
        let bytes = std::fs::read(victim).unwrap();
        if !bytes.is_empty() {
            let keep = (len_sel % bytes.len() as u64) as usize;
            std::fs::write(victim, &bytes[..keep]).unwrap();
        }
        check_damaged_index(&dir);
    }
}

/// A tree over the fixture's dataset, pointer or materialized, in its own
/// directory under `dir`; returns the index file.
fn built_tree(dir: &TempDir, materialized: bool) -> PathBuf {
    let opts = BuildOptions {
        materialized,
        ..BuildOptions::default()
    };
    let tree = CoconutTree::build(&open_dataset(), &config(), dir.path(), opts).unwrap();
    tree.index_path().to_path_buf()
}

/// XOR `mask` into the byte at `at` of the file at `path`.
fn flip(path: &Path, at: u64, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at as usize] ^= mask;
    std::fs::write(path, bytes).unwrap();
}

/// Open the tree at `path` and expect the scrub and a query for `member`
/// to fail with an [`Error::Corrupt`] containing `names` — the query twice:
/// a block that failed its checks is neither borrowed nor given zone boxes,
/// so the next query that needs it checks it, and fails, again.
fn assert_corrupt_naming(path: &Path, member: u64, names: &str, what: &str) {
    let ds = open_dataset();
    let tree = CoconutTree::open(path, &ds, 1).unwrap();
    match tree.verify() {
        Err(Error::Corrupt(msg)) => assert!(msg.contains(names), "{what}: scrub said {msg}"),
        other => panic!("{what}: scrub gave {other:?}"),
    }
    for attempt in ["first", "second"] {
        match tree.exact_search(&ds.get(member).unwrap()) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains(names), "{what}: {attempt} query said {msg}")
            }
            other => panic!("{what}: {attempt} query gave {other:?}"),
        }
    }
}

#[test]
fn a_flip_in_each_leaf_section_is_corrupt_naming_the_leaf_or_position() {
    const VICTIM: usize = 3;
    const SLOT: usize = 5;
    for materialized in [false, true] {
        let dir = TempDir::new("corruption-sections").unwrap();
        let pristine = built_tree(&dir, materialized);
        let file = CountedFile::open(&pristine, Arc::new(IoStats::new())).unwrap();
        let header = IndexHeader::read_from(&file).unwrap();
        let (leaves, _) = read_directory(&file, header.dir_offset).unwrap();
        let (segments, pos_bytes) = (config().sax.segments, header.pos_bytes as usize);
        let codec = LeafCodec::new(&config().sax, materialized, pos_bytes);
        let leaf = leaves[VICTIM];
        let count = leaf.count as usize;
        let bytes = std::fs::read(&pristine).unwrap();
        let stored = &bytes[leaf.offset as usize..][..count * codec.entry_bytes()];
        let member = codec.parts(stored).pos(SLOT);

        // Segment 2's symbol and the low byte of the position of entry
        // `SLOT`, then its payload's CRC and one byte of its payload.
        let positions = leaf.offset + (segments * count) as u64;
        let crcs = positions + (pos_bytes * count) as u64;
        let payloads = crcs + 4 * count as u64;
        let leaf_name = format!("leaf {VICTIM} ");
        let payload_name = format!("payload of position {member} ");
        let mut sections = vec![
            (
                "symbol",
                leaf.offset + (2 * count + SLOT) as u64,
                &leaf_name,
            ),
            (
                "position",
                positions + (SLOT * pos_bytes) as u64,
                &leaf_name,
            ),
        ];
        if materialized {
            let payload_at = payloads + (SLOT * 4 * config().sax.series_len) as u64 + 6;
            sections.push(("payload crc", crcs + 4 * SLOT as u64 + 1, &payload_name));
            sections.push(("payload", payload_at, &payload_name));
        }
        for (section, at, names) in sections {
            let what = format!("{section}, materialized={materialized}");
            let victim = dir.path().join("victim.idx");
            std::fs::copy(&pristine, &victim).unwrap();
            flip(&victim, at, 0x01);
            assert_corrupt_naming(&victim, member, names, &what);
        }
    }
}

/// A copy of the index at `pristine` with header byte `at` set to `value`
/// and the header CRC made valid again.
fn with_header_byte(pristine: &Path, at: usize, value: u8) -> PathBuf {
    let mut bytes = std::fs::read(pristine).unwrap();
    bytes[at] = value;
    let crc = crc32(&bytes[..60]);
    bytes[60..64].copy_from_slice(&crc.to_le_bytes());
    let path = pristine.with_extension(format!("{at}-{value}.idx"));
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn a_header_of_another_version_or_width_is_refused_at_open() {
    let dir = TempDir::new("corruption-header").unwrap();
    let pristine = built_tree(&dir, false);
    let ds = open_dataset();
    for (at, value, names) in [
        (50, 2, "layout version 2"),
        (51, 0, "positions of 0 bytes"),
        (51, 9, "positions of 9 bytes"),
        (52, 4, "refinement column of 4 bits"),
    ] {
        let path = with_header_byte(&pristine, at, value);
        match CoconutTree::open(&path, &ds, 1) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains(names), "byte {at} = {value}: {msg}"),
            Err(other) => panic!("byte {at} = {value}: {other}"),
            Ok(_) => panic!("byte {at} = {value} opened"),
        }
    }
    // Rewriting the width byte to the width it holds (1 byte: 200 series)
    // leaves a file that opens.
    let same = with_header_byte(&pristine, 51, 1);
    assert!(CoconutTree::open(&same, &ds, 1).is_ok());
}
