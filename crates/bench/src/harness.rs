//! Measurement and reporting utilities.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use coconut_storage::{DiskProfile, IoSnapshot, IoStats, Result};

/// One measured phase: wall clock plus the I/O trace it produced.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// I/O accumulated during the phase.
    pub io: IoSnapshot,
}

impl Measurement {
    /// Modeled seconds of the I/O trace on a spinning-disk profile, plus
    /// the CPU time (approximated by wall clock, since the laptop's I/O is
    /// a page cache hit most of the time).
    pub fn modeled_s(&self) -> f64 {
        self.wall_s + self.io.modeled_seconds(&DiskProfile::default())
    }
}

/// Run `f`, capturing wall time and the I/O delta on `stats`.
pub fn measure<T>(stats: &Arc<IoStats>, f: impl FnOnce() -> Result<T>) -> Result<(T, Measurement)> {
    let before = stats.snapshot();
    let start = Instant::now();
    let value = f()?;
    let wall_s = start.elapsed().as_secs_f64();
    let io = stats.snapshot().since(&before);
    Ok((value, Measurement { wall_s, io }))
}

/// A simple result table: printed aligned to stdout and written as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "fig8a".
    pub name: String,
    /// A one-line description of what the paper's figure shows.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: &str, caption: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            caption: caption.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.name, self.caption);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Write CSV into `dir/<name>.csv`.
    pub fn write_csv(&self, dir: &PathBuf) -> Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        std::fs::write(&path, csv)?;
        Ok(path)
    }

    /// Print to stdout and persist the CSV.
    pub fn emit(&self, results_dir: &PathBuf) -> Result<()> {
        println!("{}", self.render());
        let path = self.write_csv(results_dir)?;
        println!("   (written to {})\n", path.display());
        Ok(())
    }
}

/// Format seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Format a byte count in MiB.
pub fn fmt_mib(bytes: u64) -> String {
    format!("{:.1}MiB", bytes as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = Table::new("test", "caption", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        let text = t.render();
        assert!(text.contains("caption"));
        assert!(text.contains("333"));
        let dir = coconut_storage::TempDir::new("table").unwrap();
        let path = t.write_csv(&dir.path().to_path_buf()).unwrap();
        let csv = std::fs::read_to_string(path).unwrap();
        assert_eq!(csv, "a,bb\n1,2\n333,4\n");
    }

    #[test]
    fn measure_captures_io() {
        let stats = Arc::new(IoStats::new());
        let (v, m) = measure(&stats, || {
            stats.record_read(100, true);
            Ok(42)
        })
        .unwrap();
        assert_eq!(v, 42);
        assert_eq!(m.io.bytes_read, 100);
        assert!(m.modeled_s() >= m.wall_s);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(3.4567), "3.46s");
        assert_eq!(fmt_secs(250.0), "250s");
        assert_eq!(fmt_mib(1 << 20), "1.0MiB");
    }
}
