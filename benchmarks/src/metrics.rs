//! Every metric and workload this benchmark knows, by name. `BENCHMARK.json`
//! at the repository root repeats the `GATED` and `PER_LAYER` tables for the
//! driver; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression. `None`: reported, never judged.
    pub bound: Option<f64>,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Option<f64>) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "build_static",
        why: "coconut build under a 16 MiB budget, then coconut query: scan, summarize and external sort bound; the only path through the static tree and trie",
    },
    Workload {
        name: "query_static",
        why: "two closed-loop clients on one compacted run: MINDIST scan, SIMS, raw fetch and protocol with nothing else running; the baseline the other two compare with",
    },
    Workload {
        name: "ingest_query_mix",
        why: "an open-loop writer beside a closed-loop reader: read amplification across runs, merges stealing a core, commit fsyncs; an ingest gain that costs queries shows",
    },
    Workload {
        name: "distributed_k2",
        why: "query_static's requests through a coordinator and two shard workers: fan-out, wire and merge do the extra work, so the qps ratio is the scaling loss",
    },
];

/// End-to-end metrics every workload measures; the driver judges these.
pub const GATED: [Def; 9] = [
    def("setup_s", "s", Lower, Some(0.25)),
    def("build_series_per_s", "series/s", Higher, Some(0.25)),
    def("index_bytes_per_series", "B/series", Lower, Some(0.02)),
    def("peak_rss_mb", "MiB", Lower, Some(0.10)),
    def("query_qps", "1/s", Higher, Some(0.25)),
    def("query_p50_ms", "ms", Lower, Some(0.25)),
    def("near_p50_ms", "ms", Lower, Some(0.25)),
    def("far_p50_ms", "ms", Lower, Some(0.25)),
    def("knn_p50_ms", "ms", Lower, Some(0.25)),
];

/// End-to-end metrics only some workloads have. `run.sh` prints them and
/// `compare` judges them; the driver, which wants every metric from every
/// workload, does not see them.
pub const INFO: [Def; 21] = [
    def("build_trie_series_per_s", "series/s", Higher, Some(0.20)),
    def("build_full_series_per_s", "series/s", Higher, Some(0.20)),
    def("trie_index_bytes_per_series", "B/series", Lower, Some(0.02)),
    def("full_index_bytes_per_series", "B/series", Lower, Some(0.02)),
    def("trie_far_p50_ms", "ms", Lower, Some(0.20)),
    def("full_far_p50_ms", "ms", Lower, None),
    def("query_p95_ms", "ms", Lower, None),
    def("query_p99_ms", "ms", Lower, None),
    def("ingest_series_per_s", "series/s", Higher, Some(0.20)),
    def("ingest_batch_p50_ms", "ms", Lower, Some(0.20)),
    def("ingest_batch_p75_ms", "ms", Lower, None),
    def("ingest_batch_p90_ms", "ms", Lower, None),
    def("generator_late_p95_ms", "ms", Lower, None),
    def("write_amp", "x", Lower, Some(0.10)),
    def("space_amp", "x", Lower, None),
    def("runs_at_end", "count", Lower, None),
    def("pool_rejected_total", "count", Lower, None),
    def("final_compact_s", "s", Lower, None),
    def("restart_s", "s", Lower, None),
    def("child_cpu_s", "s", Lower, None),
    def("datagen_s", "s", Lower, None),
];

/// Per-layer metrics of the traced run (layer = crate.module), in the order
/// the suite measures them.
pub const PER_LAYER: [Def; 52] = [
    def("series.dataset.scan_mb_per_s", "MB/s", Higher, None),
    def("series.dataset.raw_fetch_us_per_record", "us", Lower, None),
    def("series.distance.ed_ns_per_series", "ns", Lower, None),
    def("series.simd.dispatch", "flag", Higher, None),
    def("summary.zkey_ns_per_series", "ns", Lower, None),
    def("summary.mindist.scan_ns_per_key", "ns", Lower, None),
    def("storage.extsort.keypos_records_per_s", "1/s", Higher, None),
    def("storage.extsort.full_mb_per_s", "MB/s", Higher, None),
    def("storage.extsort.runs_spilled", "count", Lower, None),
    def("storage.atomic.replace_us", "us", Lower, None),
    def(
        "storage.io.build_bytes_read_per_series",
        "B/series",
        Lower,
        None,
    ),
    def(
        "storage.io.build_bytes_written_per_series",
        "B/series",
        Lower,
        None,
    ),
    def("storage.io.build_rand_ops", "count", Lower, None),
    def("storage.io.query_bytes_read", "B", Lower, None),
    def("storage.io.query_rand_reads", "count", Lower, None),
    def("core.builder.sorted_key_pos_s", "s", Lower, None),
    def("core.shard.speedup_k2", "x", Higher, None),
    def("core.tree.bulk_load_s", "s", Lower, None),
    def("core.trie.bulk_load_s", "s", Lower, None),
    def("core.tree.build_s", "s", Lower, None),
    def("core.tree.avg_fill", "share", Higher, None),
    def("core.trie.avg_fill", "share", Higher, None),
    def("core.tree.open_s", "s", Lower, None),
    def("core.lsm.snapshot_pin_us", "us", Lower, None),
    def("core.approx_us", "us", Lower, None),
    def("core.sims.parallel_mindists_us", "us", Lower, None),
    def("core.exact_us", "us", Lower, None),
    def("core.knn_us", "us", Lower, None),
    def("core.exact.records_fetched", "count", Lower, None),
    def("core.exact.pruned_share", "share", Higher, None),
    def("core.exact.leaves_visited", "count", Lower, None),
    def("core.lsm.ingest_batch_ms", "ms", Lower, None),
    def("core.lsm.compact_s", "s", Lower, None),
    def("core.lsm.merge_mb_per_s", "MB/s", Higher, None),
    def("core.lsm.write_amp", "x", Lower, None),
    def("core.lsm.space_amp", "x", Lower, None),
    def("core.lsm.run_count_max", "count", Lower, None),
    def("core.lsm.exact_us_per_extra_run", "us", Lower, None),
    def("core.backend.shardset_exact_us", "us", Lower, None),
    def("server.protocol.parse_us", "us", Lower, None),
    def("server.engine.execute_us", "us", Lower, None),
    def("server.reply_encode_us", "us", Lower, None),
    def("server.wire_us", "us", Lower, None),
    def("server.coordinator.execute_us", "us", Lower, None),
    def("server.client.wire_us", "us", Lower, None),
    def("server.client.requests_per_query", "count", Lower, None),
    def("server.pool.rejected_total", "count", Lower, None),
    def("cli.serve_start_s", "s", Lower, None),
    def("trace.overhead_share", "share", Lower, None),
    def("trace.query.explained_share", "share", Higher, None),
    def("trace.build.explained_share", "share", Higher, None),
    def("trace.spans_recorded", "count", Higher, None),
];

/// Look a metric up in every table.
pub fn find(name: &str) -> Option<&'static Def> {
    GATED
        .iter()
        .chain(INFO.iter())
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-=".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in GATED.iter().chain(INFO.iter()).chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
            if d.bound.is_some_and(|b| b > 0.25) {
                panic!("{} has a bound above a quarter", d.name);
            }
        }
        for d in GATED.iter().chain(PER_LAYER.iter()) {
            assert!(
                valid_unit(d.unit) && !d.unit.contains('='),
                "{} unit {:?}",
                d.name,
                d.unit
            );
        }
        assert!(GATED.iter().all(|d| d.bound.is_some()));
        assert!(GATED
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
    }

    /// `BENCHMARK.json` must list exactly these workloads and metrics.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            GATED.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for (entry, d) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&GATED)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(d.better.name()),
                "{}",
                d.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                d.bound,
                "{}",
                d.name
            );
        }
        for (entry, d) in doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(d.better.name()),
                "{}",
                d.name
            );
        }
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(
                entry.get("why").and_then(Json::as_str),
                Some(w.why),
                "{}",
                w.name
            );
        }
    }
}
