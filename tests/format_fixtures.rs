//! The on-disk format, pinned by committed fixtures: `fig1.cpdb` is
//! what the encoder must keep producing byte for byte, and the two
//! `legacy_*.cpdb` files (written by the retired v1 and unaligned-v2
//! encoders before they were deleted) are what every opener must keep
//! refusing by name.

use callpath_core::prelude::*;
use callpath_expdb::{ens, from_binary, open_lazy, open_path, to_binary_v21};
use callpath_viewer::{render, RenderConfig};
use callpath_workloads::fig1;
use callpath_workloads::synth::{ensemble_run, EnsembleConfig};
use std::path::PathBuf;

/// The byte-exact renders `tests/render_golden.rs` pins for fig1.
const GOLDEN_VIEWS: [&str; 3] = [
    include_str!("data/fig1_ccv.golden"),
    include_str!("data/fig1_callers.golden"),
    include_str!("data/fig1_flat.golden"),
];

fn fixture(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("callpath-fixtures-{}-{name}", std::process::id()))
}

#[test]
fn the_encoder_reproduces_the_fixture_and_the_fixture_renders_the_goldens() {
    let path = fixture("fig1.cpdb");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        to_binary_v21(&fig1::experiment().0),
        bytes,
        "the CPDB encoding of fig1 changed; files already written would no longer \
         re-encode identically"
    );
    for (opener, exp) in [
        ("open_path", open_path(&path)),
        ("from_binary", from_binary(&bytes)),
        ("open_lazy", open_lazy(bytes.clone())),
    ] {
        let exp = exp.unwrap_or_else(|e| panic!("{opener}: {e}"));
        let cfg = RenderConfig::default();
        let views = [
            render(&mut View::calling_context(&exp), &cfg),
            render(&mut View::callers(&exp), &cfg),
            render(&mut View::flat(&exp), &cfg),
        ];
        assert_eq!(views, GOLDEN_VIEWS, "via {opener}");
    }
}

#[test]
fn retired_and_garbage_inputs_are_rejected_by_name() {
    let read = |name: &str| std::fs::read(fixture(name)).unwrap();
    // (label, file bytes, what open_path's message must say)
    let cases: [(&str, Vec<u8>, &str); 6] = [
        ("legacy v1", read("legacy_v1.cpdb"), "retired format v1"),
        ("legacy v2", read("legacy_v2.cpdb"), "unaligned format v2"),
        ("empty file", vec![], "expected <Experiment>"),
        ("3-byte file", b"CPD".to_vec(), "expected <Experiment>"),
        ("magic + garbage", b"CPDB\xff!".to_vec(), "version 255"),
        ("not UTF-8", vec![0xff; 5], "neither a CPDB database"),
    ];
    for (i, (label, bytes, needle)) in cases.into_iter().enumerate() {
        let path = tmp(&format!("reject-{i}"));
        std::fs::write(&path, &bytes).unwrap();
        let err = open_path(&path).err();
        std::fs::remove_file(&path).ok();
        let err = err.unwrap_or_else(|| panic!("{label}: open_path succeeded"));
        assert!(err.message.contains(needle), "{label}: got '{err}'");
        // The byte-level openers share `Toc::parse` with the path above.
        assert!(from_binary(&bytes).is_err(), "{label}: from_binary");
        assert!(open_lazy(bytes).is_err(), "{label}: open_lazy");
    }
    let missing = open_path(&tmp("no-such-file")).unwrap_err();
    assert!(missing.message.contains("cannot read"), "{missing}");
}

#[test]
fn a_cpens_opens_through_open_path_as_its_stats_experiment() {
    let cfg = EnsembleConfig {
        n_runs: 5,
        base_nodes: 60,
        tail_nodes: 4,
        nnz_per_metric: 24,
        ..Default::default()
    };
    let runs: Vec<_> = (0..cfg.n_runs)
        .map(|r| {
            callpath_ensemble::RunData::from_model(format!("run-{r}"), &ensemble_run(&cfg, r))
                .unwrap()
        })
        .collect();
    let path = tmp("runs.cpens");
    std::fs::write(&path, callpath_ensemble::build(&runs, 1).to_bytes()).unwrap();
    let plain = open_path(&path).unwrap();
    let ensemble = ens::open(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(plain.cct.len(), ensemble.exp.cct.len());
    assert_eq!(plain.columns.descs(), ensemble.exp.columns.descs());
    assert_eq!(
        plain.raw.desc(MetricId(0)).name,
        format!("{} {}", ensemble.dir.metric_names[0], ens::STAT_NAMES[0])
    );
    let root = plain.cct.root();
    assert_eq!(
        plain.inclusive(MetricId(0), root),
        ensemble.exp.inclusive(MetricId(0), root)
    );
}
