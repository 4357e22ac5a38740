//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation (Section 5) has a
//! binary in `src/bin/` that regenerates it:
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `table1` | Step-1 query times of optimized data exchange |
//! | `table2` | publish (Step 1) + shred (Step 4) times of publish&map |
//! | `table3` | communication times |
//! | `table4` | target load + index-creation times |
//! | `fig9`   | end-to-end stacked breakdown at 25 MB |
//! | `fig10`  | simulator: DE vs publishing, equal systems |
//! | `fig11`  | simulator: DE vs publishing, 10× faster target |
//! | `table5` | worst/optimal and greedy/optimal ratios |
//!
//! Binaries accept `--scale <f64>` to shrink the document sizes (the
//! paper's 2.5/12.5/25 MB are the default at scale 1.0) and print the
//! paper's measurements next to ours where applicable.

#![forbid(unsafe_code)]

use std::time::Duration;
use xdx_core::agency::{DataExchange, Optimizer};
use xdx_core::pm::publish_and_map;
use xdx_core::{ExchangeReport, Fragmentation};
use xdx_net::{Link, NetworkProfile};
use xdx_relational::Database;
use xdx_xml::SchemaTree;

/// The paper's three document sizes, scaled.
pub fn sizes(scale: f64) -> Vec<(String, usize)> {
    [2.5f64, 12.5, 25.0]
        .iter()
        .map(|mb| (format!("{mb}MB"), (mb * scale * 1024.0 * 1024.0) as usize))
        .collect()
}

/// Parses `--scale <f>` from the command line (default 1.0).
pub fn scale_from_args() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// The four exchange scenarios of Section 5.
pub const SCENARIOS: [(&str, &str); 4] = [("MF", "MF"), ("MF", "LF"), ("LF", "MF"), ("LF", "LF")];

/// A prepared workload: schema, fragmentations, and a generated document.
pub struct Workload {
    /// Figure-7 schema.
    pub schema: SchemaTree,
    /// Most-fragmented.
    pub mf: Fragmentation,
    /// Least-fragmented.
    pub lf: Fragmentation,
    /// The generated document.
    pub doc: String,
}

impl Workload {
    /// Generates the workload for one document size.
    pub fn new(target_bytes: usize) -> Workload {
        let schema = xdx_xmark::schema();
        let mf = xdx_xmark::mf(&schema);
        let lf = xdx_xmark::lf(&schema);
        let doc = xdx_xmark::generate(xdx_xmark::GenConfig::sized(target_bytes));
        Workload {
            schema,
            mf,
            lf,
            doc,
        }
    }

    /// Fragmentation by name (`"MF"` / `"LF"`).
    pub fn frag(&self, name: &str) -> &Fragmentation {
        match name {
            "MF" => &self.mf,
            "LF" => &self.lf,
            other => panic!("unknown fragmentation {other}"),
        }
    }

    /// Fresh source database holding the document under `frag_name`.
    pub fn source(&self, frag_name: &str) -> Database {
        xdx_xmark::load_source(&self.doc, &self.schema, self.frag(frag_name))
            .expect("workload loads")
    }

    /// Runs the optimized data exchange for one scenario. The planner is
    /// `Cost_Based_Optim` with the paper-appropriate budget; it falls back
    /// to the coordinate-descent/greedy path exactly where the paper's
    /// exhaustive search becomes impractical.
    pub fn run_de(&self, src: &str, tgt: &str, profile: NetworkProfile) -> ExchangeReport {
        let mut source = self.source(src);
        let mut target = Database::new("target");
        let mut link = Link::new(profile);
        let exchange =
            DataExchange::new(&self.schema, self.frag(src).clone(), self.frag(tgt).clone())
                .with_optimizer(Optimizer::Greedy);
        let (report, _) = exchange
            .run(&mut source, &mut target, &mut link)
            .expect("DE runs");
        report
    }

    /// Runs publish&map for one scenario.
    pub fn run_pm(&self, src: &str, tgt: &str, profile: NetworkProfile) -> ExchangeReport {
        let mut source = self.source(src);
        let mut target = Database::new("target");
        let mut link = Link::new(profile);
        publish_and_map(
            &self.schema,
            self.frag(src),
            self.frag(tgt),
            &mut source,
            &mut target,
            &mut link,
        )
        .expect("PM runs")
    }
}

/// Formats a duration in seconds with two decimals (the paper's unit).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Prints a Markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells
            .iter()
            .map(|c| "-".repeat(c.len() + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_linearly() {
        let full = sizes(1.0);
        assert_eq!(full.len(), 3);
        assert_eq!(full[0].0, "2.5MB");
        assert_eq!(full[2].1, 25 * 1024 * 1024);
        let tenth = sizes(0.1);
        assert_eq!(tenth[2].1, full[2].1 / 10);
    }

    #[test]
    fn workload_builds_all_pieces() {
        let w = Workload::new(20_000);
        assert_eq!(w.frag("MF").len(), 24);
        assert_eq!(w.frag("LF").len(), 3);
        assert!(w.doc.len() > 10_000);
        let db = w.source("LF");
        assert_eq!(db.table_names().len(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown fragmentation")]
    fn unknown_fragmentation_panics() {
        let w = Workload::new(10_000);
        let _ = w.frag("XX");
    }

    #[test]
    fn de_and_pm_run_at_tiny_scale() {
        let w = Workload::new(15_000);
        let de = w.run_de("MF", "LF", xdx_net::NetworkProfile::lan());
        let pm = w.run_pm("MF", "LF", xdx_net::NetworkProfile::lan());
        assert!(de.rows_loaded > 0);
        assert!(pm.rows_loaded > 0);
        assert_eq!(de.strategy, "DE");
        assert_eq!(pm.strategy, "PM");
    }

    #[test]
    fn secs_formats_two_decimals() {
        assert_eq!(secs(std::time::Duration::from_millis(1234)), "1.23");
    }
}
