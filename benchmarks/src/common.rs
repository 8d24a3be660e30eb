//! What every workload shares: sizes, the environment a run executes in,
//! and the record of what it measured.

use std::path::PathBuf;

use crate::proc::Scratch;

/// Sizes and rates of one run. `full` is what the record is made at;
/// `quick` exercises the same code in seconds for the smoke test.
#[derive(Debug, Clone)]
pub struct Params {
    /// Series in the dataset (`rw1m`: 1,000,000 × 256 `f32`, 1.0 GB raw).
    pub n: u64,
    pub len: usize,
    pub seed: u64,
    /// Measured window, seconds (`--seconds`).
    pub window: f64,
    /// Unrecorded warm-up before the window: caches fill, lazy set-up ends.
    pub warmup: f64,
    /// Break the oracle on purpose (it expects every position plus one).
    pub break_oracle: bool,
    pub quick: bool,
}

/// The paper's leaf capacity.
pub const LEAF: usize = 2000;
/// Build / ingest sort budget: 16 MiB, so 1M `(key, pos)` records (24 MB) spill.
pub const MEMORY_MB: u64 = 16;
/// `--shards` for `coconut build`, `--workers` for `coconut serve`.
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Far / KNN queries per workload re-checked against the brute-force oracle.
pub const ORACLE_SAMPLES: usize = 40;
/// Share of the dataset `ingest_query_mix` starts from.
pub const MIX_INITIAL_SHARE: f64 = 0.3;
/// Open-loop ingest period of `ingest_query_mix`.
pub const MIX_PERIOD_S: f64 = 0.25;

impl Params {
    pub fn full(seed: u64, window: f64) -> Params {
        Params {
            n: 1_000_000,
            len: 256,
            seed,
            window,
            warmup: 1.0,
            break_oracle: false,
            quick: false,
        }
    }

    pub fn quick(seed: u64) -> Params {
        Params {
            n: 20_000,
            warmup: 0.3,
            quick: true,
            ..Params::full(seed, 3.0)
        }
    }

    pub fn dataset_key(&self) -> crate::datagen::DatasetKey {
        crate::datagen::DatasetKey {
            n: self.n,
            len: self.len,
            seed: self.seed,
        }
    }

    /// The materialized build runs on the first eighth of the series
    /// (128 MB of records at full scale: eight times the sort budget).
    pub fn part_key(&self) -> crate::datagen::DatasetKey {
        crate::datagen::DatasetKey {
            n: self.n / 8,
            ..self.dataset_key()
        }
    }
}

/// Where a run executes.
pub struct Env {
    /// The real `coconut` binary under test.
    pub coconut: PathBuf,
    pub scratch: Scratch,
    /// The dataset file, and its first eighth as a file of its own
    /// (`build_static` only).
    pub data: PathBuf,
    pub data_part: PathBuf,
    /// Children's stderr goes here; printed when a run fails.
    pub log: PathBuf,
    pub params: Params,
}

/// One measured value: a metric name, the value, and how many samples the
/// statistic was taken over.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub n: usize,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub values: Vec<Value>,
    /// Operations attempted and failed (refused, timed out, crashed, or
    /// answered differently from the oracle): `error_rate` = failed ÷ attempted.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, and context worth printing beside the numbers.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Measured {
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.values.push(Value {
            name: name.to_string(),
            value,
            n,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// Count one attempted operation; `Err` also counts it as failed.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}
