//! Experiment databases: write the same experiment in the XML-like format
//! and the binary CPDB format, compare sizes, and reload.
//!
//! ```sh
//! cargo run --example expdb_tour
//! ```
//!
//! Section IX of the paper lists "replacing our XML format for profiles
//! with a more compact binary format" as future work; this example
//! demonstrates both formats and quantifies the size difference.

use callpath_core::prelude::*;
use callpath_expdb::{from_binary, from_xml, to_binary_v21, to_xml};
use callpath_profiler::ExecConfig;
use callpath_workloads::{pipeline, s3d};

fn main() {
    let mut exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    // Databases carry derived metric definitions too.
    let cyc_e = exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());
    let fp_e = exp.exclusive_col(exp.raw.find("PAPI_FP_OPS").unwrap());
    exp.add_derived("fp waste", &format!("${} * 4 - ${}", cyc_e.0, fp_e.0))
        .unwrap();

    let xml = to_xml(&exp);
    let bin = to_binary_v21(&exp);
    println!(
        "experiment: {} CCT nodes, {} metrics, {} columns",
        exp.cct.len(),
        exp.raw.metric_count(),
        exp.columns.column_count()
    );
    println!("XML-like database:     {:>9} bytes", xml.len());
    println!("CPDB database:         {:>9} bytes", bin.len());
    println!(
        "compression ratio:     {:>8.2}x",
        xml.len() as f64 / bin.len() as f64
    );

    // A taste of the XML.
    println!("\n--- first lines of the XML database ---");
    for line in xml.lines().take(12) {
        println!("{line}");
    }

    // Round-trip both and verify whole-program totals.
    let from_x = from_xml(&xml).expect("parse xml");
    let from_b = from_binary(&bin).expect("parse binary");
    let total = exp.columns.get(ColumnId(0), exp.cct.root().0);
    assert_eq!(from_x.columns.get(ColumnId(0), from_x.cct.root().0), total);
    assert_eq!(from_b.columns.get(ColumnId(0), from_b.cct.root().0), total);
    println!("\nround-trip verified: whole-program total {total:.3e} preserved in both formats");
    println!(
        "derived column '{}' restored with identical values",
        from_b.columns.descs().last().unwrap().name
    );
}
