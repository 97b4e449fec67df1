//! E9 — experiment-database round trips, on real pipeline output and on
//! randomly generated experiments (property-based).
//!
//! Section IX lists "replacing our XML format for profiles with a more
//! compact binary format" as future work; both formats exist here, must
//! round-trip losslessly, and the binary one must actually be compact.

use callpath_core::prelude::*;
use callpath_expdb::{bin2, from_binary, from_xml, open_lazy, to_binary_v21, to_xml, xml};
use callpath_profiler::ExecConfig;
use callpath_workloads::synth::{synth_model, SynthConfig};
use callpath_workloads::{generator, moab, pipeline, s3d};
use proptest::prelude::*;

fn views_agree(a: &Experiment, b: &Experiment) {
    assert_eq!(a.cct.len(), b.cct.len());
    assert_eq!(a.columns.column_count(), b.columns.column_count());
    for n in a.cct.all_nodes() {
        assert_eq!(a.cct.kind(n), b.cct.kind(n), "{n:?}");
        for c in 0..a.columns.column_count() as u32 {
            let (va, vb) = (
                a.columns.get(ColumnId(c), n.0),
                b.columns.get(ColumnId(c), n.0),
            );
            assert!(
                (va - vb).abs() <= 1e-9 * va.abs().max(1.0),
                "{n:?} col {c}: {va} vs {vb}"
            );
        }
    }
}

#[test]
fn s3d_database_roundtrips_in_all_formats() {
    let exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let xml = to_xml(&exp);
    let from_x = from_xml(&xml).unwrap();
    views_agree(&exp, &from_x);

    let bin = to_binary_v21(&exp);
    let from_b = from_binary(&bin).unwrap();
    views_agree(&exp, &from_b);
    let lazy = open_lazy(bin).unwrap();
    views_agree(&exp, &lazy);
}

/// CPDB stores topology as fixed-width arrays (37 bytes a node) so a
/// reader can borrow them from the mapping; on a tree-only profile that
/// is only ~1.5x tighter than XML text. The size win is in the cost
/// columns, which is where a real database's bytes are. Both ends are
/// pinned, with headroom under the measured 1.48x and 2.39x.
#[test]
fn binary_format_is_substantially_smaller() {
    let ratio = |xml: usize, bin: usize| xml as f64 / bin as f64;
    let moab = pipeline::build_experiment(&moab::program(), &ExecConfig::default());
    let tree_heavy = ratio(to_xml(&moab).len(), to_binary_v21(&moab).len());
    assert!(tree_heavy > 1.4, "27 nodes x 3 metrics: {tree_heavy:.2}x");

    let model = synth_model(&SynthConfig {
        n_nodes: 2000,
        n_metrics: 32,
        nnz_per_metric: 512,
        ..Default::default()
    });
    let cost_heavy = ratio(xml::write(&model).len(), bin2::write_v21(&model).len());
    assert!(
        cost_heavy > 2.2,
        "2000 nodes x 32 metrics: {cost_heavy:.2}x"
    );
}

#[test]
fn derived_metrics_survive_the_database() {
    let mut exp = pipeline::build_experiment(
        &s3d::program(s3d::S3dConfig::default()),
        &ExecConfig::default(),
    );
    let cyc_e = exp.exclusive_col(exp.raw.find("PAPI_TOT_CYC").unwrap());
    let fp_e = exp.exclusive_col(exp.raw.find("PAPI_FP_OPS").unwrap());
    let waste = exp
        .add_derived("fp waste", &format!("${} * 4 - ${}", cyc_e.0, fp_e.0))
        .unwrap();
    let loaded = from_xml(&to_xml(&exp)).unwrap();
    let col = loaded
        .columns
        .find("fp waste")
        .expect("derived column kept");
    assert_eq!(col, waste);
    for n in exp.cct.all_nodes().take(500) {
        assert_eq!(
            loaded.columns.get(col, n.0),
            exp.columns.get(waste, n.0),
            "{n:?}"
        );
    }
}

/// The two retired encodings (committed fixtures; nothing writes them
/// any more) stay rejected however a file is damaged: every truncation
/// and every single-byte flip is an `Err` from both readers, never a
/// panic and never a decoded profile. Truncations, bit flips and lying
/// counts of the *current* format are in `zero_copy_properties.rs` and
/// below.
fn legacy_stays_rejected(fixture: &str, damage: fn(&mut Vec<u8>, usize)) {
    let path = format!("{}/tests/data/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(path).unwrap();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        damage(&mut bad, i);
        assert!(from_binary(&bad).is_err(), "{fixture}: eager at {i}");
        assert!(open_lazy(bad).is_err(), "{fixture}: lazy at {i}");
    }
}

#[test]
fn every_v1_truncation_errors() {
    legacy_stays_rejected("legacy_v1.cpdb", Vec::truncate);
}

#[test]
fn every_v2_truncation_errors() {
    legacy_stays_rejected("legacy_v2.cpdb", Vec::truncate);
}

#[test]
fn v1_byte_flips_never_panic() {
    legacy_stays_rejected("legacy_v1.cpdb", |bytes, i| bytes[i] ^= 0x55);
}

#[test]
fn v2_byte_flips_are_rejected() {
    legacy_stays_rejected("legacy_v2.cpdb", |bytes, i| bytes[i] ^= 0x55);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_experiments_roundtrip_xml(seed in 0u64..1000, size in 10usize..400) {
        let exp = generator::random_experiment(seed, size, 12);
        let text = to_xml(&exp);
        let back = from_xml(&text).unwrap();
        views_agree(&exp, &back);
        // Fixed point.
        prop_assert_eq!(to_xml(&back), text);
    }

    #[test]
    fn random_experiments_roundtrip_binary(seed in 0u64..1000, size in 10usize..400) {
        let exp = generator::random_experiment(seed, size, 12);
        let bytes = to_binary_v21(&exp);
        // Eager decode, then re-encode: byte-identical fixed point.
        let back = from_binary(&bytes).unwrap();
        views_agree(&exp, &back);
        prop_assert_eq!(to_binary_v21(&back), bytes.clone());
        // Lazy open agrees with the generator output too.
        let lazy = open_lazy(bytes.clone()).unwrap();
        views_agree(&exp, &lazy);
        prop_assert_eq!(to_binary_v21(&lazy), bytes);
    }

    #[test]
    fn oversized_varint_lengths_error_without_huge_allocs(
        seed in 0u64..10, victim in 0usize..10_000
    ) {
        // Stamp a maximal 10-byte varint (~1.8e19) over a random
        // position: any count or string length it lands on now lies
        // wildly about the remaining data. The reader must reject it
        // quickly instead of reserving terabytes.
        let exp = generator::random_experiment(seed, 30, 4);
        let mut bad = to_binary_v21(&exp);
        let i = 5 + victim % (bad.len() - 5); // keep magic + version
        let end = (i + 10).min(bad.len());
        bad[i..end].fill(0xff);
        if end == i + 10 {
            bad[end - 1] = 0x01; // terminate the 10-byte run
        }
        prop_assert!(from_binary(&bad).is_err(), "stamp at {i}");
    }

    #[test]
    fn mangled_xml_never_panics(seed in 0u64..50, victim in 0usize..200) {
        let exp = generator::random_experiment(seed, 30, 6);
        let mut text = to_xml(&exp).into_bytes();
        if !text.is_empty() {
            let i = victim % text.len();
            text[i] = b'#';
        }
        if let Ok(s) = String::from_utf8(text) {
            let _ = from_xml(&s); // any Result is fine; panics are not
        }
    }
}
