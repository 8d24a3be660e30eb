//! DTW exploration: exact nearest-neighbor search under Dynamic Time
//! Warping on a Coconut-Tree, showing where warping changes the answer
//! relative to Euclidean distance and what each pruning layer saves.
//!
//! ```sh
//! cargo run --release --example dtw_explorer
//! ```

use std::sync::Arc;
use std::time::Instant;

use coconut::index::query::first;
use coconut::index::{BuildOptions, CoconutTree, IndexConfig};
use coconut::prelude::*;
use coconut::series::distance::znormalize;
use coconut::series::dtw::dtw;
use coconut::series::gen::Generator;

/// Exact 1-NN under DTW with a Sakoe–Chiba band of radius `band`.
fn dtw_nearest(band: usize) -> Query {
    Query {
        metric: Metric::Dtw(band),
        ..Query::nearest()
    }
}

fn main() -> coconut::storage::Result<()> {
    let dir = TempDir::new("dtw")?;
    let stats = Arc::new(IoStats::new());
    let data_path = dir.path().join("data.bin");
    let n = 8_000u64;
    let len = 128usize;
    let mut generator = SeismicGen::with_stride(5, 16);
    write_dataset(&data_path, &mut generator, n, len, &stats)?;
    let dataset = Dataset::open(&data_path, Arc::clone(&stats))?;

    let config = IndexConfig::default_for_len(len);
    let tree = CoconutTree::build(&dataset, &config, dir.path(), BuildOptions::default())?;
    println!("indexed {n} seismic windows of {len} samples\n");

    // A query that is a time-shifted version of signals in the archive:
    // exactly the case where DTW shines over Euclidean distance.
    let query = {
        let mut g = SeismicGen::with_stride(5, 16);
        let mut q = g.generate(len);
        // Shift by dropping the first samples and extending the tail.
        q.rotate_left(4);
        znormalize(&mut q);
        q
    };

    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>10}",
        "metric", "band", "answer", "dist", "time"
    );
    let t0 = Instant::now();
    let (ed, _) = tree.exact_search(&query)?;
    println!(
        "{:<10} {:>10} {:>12} {:>10.4} {:>8.1}ms",
        "euclidean",
        "-",
        format!("#{}", ed.pos),
        ed.dist,
        t0.elapsed().as_secs_f64() * 1e3
    );
    for band in [2usize, 5, 10, 20] {
        let t0 = Instant::now();
        let (ans, qstats) = tree.search(&query, &dtw_nearest(band)).map(first)?;
        println!(
            "{:<10} {:>10} {:>12} {:>10.4} {:>8.1}ms   ({} fetched, {} pruned by index bound)",
            "dtw",
            band,
            format!("#{}", ans.pos),
            ans.dist,
            t0.elapsed().as_secs_f64() * 1e3,
            qstats.records_fetched,
            qstats.pruned
        );
        // DTW distance can only shrink as the band widens.
        assert!(ans.dist <= ed.dist + 1e-9);
    }

    // Verify the widest-band answer against brute force.
    let band = 20;
    let (fast, _) = tree.search(&query, &dtw_nearest(band)).map(first)?;
    let mut best = (u64::MAX, f64::INFINITY);
    let t0 = Instant::now();
    for p in 0..n {
        let s = dataset.get(p)?;
        let d = dtw(&query, &s, band);
        if d < best.1 {
            best = (p, d);
        }
    }
    println!(
        "\nbrute-force DTW over all {n} series: #{} at {:.4} in {:.0} ms (index agreed: {})",
        best.0,
        best.1,
        t0.elapsed().as_secs_f64() * 1e3,
        fast.pos == best.0
    );
    assert_eq!(fast.pos, best.0);
    Ok(())
}
