//! The on-disk format, pinned by committed fixtures: `fig1.cpdb` is
//! what the encoder must keep producing byte for byte, and the two
//! `legacy_*.cpdb` files (written by the retired v1 and unaligned-v2
//! encoders before they were deleted) are what every opener must keep
//! refusing by name. `flag_sparse.cpdb` was written at the last commit
//! whose writer set header flag bit 0 (a hint for the reader's memory
//! layout): readers accept the bit and it changes nothing.

use callpath_core::prelude::*;
use callpath_expdb::{bin2, decode_all, ens, from_binary, open_lazy, open_path, to_binary_v21};
use callpath_viewer::{render, RenderConfig};
use callpath_workloads::fig1;
use callpath_workloads::synth::{ensemble_run, synth_model, EnsembleConfig, SynthConfig};
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

/// A column as held: its shape (`D`ense, `S`orted arrays, `M`apped), how
/// many times it was decoded, and its non-zero entries.
type Held = (char, u64, Vec<(u32, u64)>);

/// Every presentation column, then every raw metric.
fn columns_as_held(exp: &Experiment) -> Vec<Held> {
    let held = |v: &MetricVec, faults| {
        let shape = match v {
            MetricVec::Dense(_) => 'D',
            MetricVec::Csr(_) => 'S',
            MetricVec::Mapped(_) => 'M',
        };
        let bits = v.nonzero_sorted().map(|(n, x)| (n, x.to_bits())).collect();
        (shape, faults, bits)
    };
    let columns = exp.columns.columns();
    let metrics = (0..exp.raw.metric_count()).map(MetricId::from_usize);
    columns
        .map(|c| held(exp.columns.vec(c), exp.columns.fault_count(c)))
        .chain(metrics.map(|m| held(exp.raw.column(m), exp.raw.fault_count(m))))
        .collect()
}

#[test]
fn a_file_with_the_retired_sparse_bit_opens_as_the_same_file_without_it() {
    // `bin2::write_v21(&synth_model(..))` of this config, at the parent
    // of the commit that retired the bit.
    let old = std::fs::read(fixture("flag_sparse.cpdb")).unwrap();
    let new = bin2::write_v21(&synth_model(&SynthConfig {
        seed: 0xf1a9,
        n_nodes: 400,
        n_metrics: 3,
        nnz_per_metric: 40,
        n_procs: 40,
    }));
    assert_eq!((old[5], new[5]), (3, 2));
    // The bit and the header digest over it; nothing else.
    assert_eq!(old.len(), new.len());
    let mut differ = (0..old.len()).filter(|&i| old[i] != new[i]);
    assert!(differ.all(|i| i == 5 || (12..20).contains(&i)));

    let lazy = |bytes: &[u8]| {
        let exp = open_lazy(bytes.to_vec()).unwrap();
        decode_all(&exp, 1);
        exp
    };
    let (lazy_old, lazy_new) = (lazy(&old), lazy(&new));
    let (eager_old, eager_new) = (from_binary(&old).unwrap(), from_binary(&new).unwrap());
    let (held_lazy, held_eager) = (columns_as_held(&lazy_old), columns_as_held(&eager_old));
    assert_eq!(held_lazy, columns_as_held(&lazy_new));
    assert_eq!(held_eager, columns_as_held(&eager_new));
    assert!(lazy_old.columns.lazy_errors().is_empty() && lazy_old.raw.lazy_errors().is_empty());

    // Whatever the header said: 40 non-zeros a metric on a deep 401-node
    // tree make all seven presentation columns node-indexed vectors
    // (their chains cover over a quarter of it), and the three raw blocks
    // windows onto the image opened lazily, sorted arrays when decoded.
    let shapes = |held: &[Held]| held.iter().map(|h| h.0).collect::<String>();
    assert_eq!(shapes(&held_lazy), "DDDDDDDMMM");
    assert_eq!(shapes(&held_eager), "DDDDDDDSSS");
    assert!(held_lazy.iter().all(|h| h.1 == 1), "one decode per column");
    let values = |held: Vec<Held>| -> Vec<_> { held.into_iter().map(|h| h.2).collect() };
    assert_eq!(values(held_lazy), values(held_eager));

    // Re-encoding either gives the file without the bit.
    for (how, bytes) in [
        ("lazy", to_binary_v21(&lazy_old)),
        ("eager", to_binary_v21(&eager_old)),
        ("model", bin2::write_v21(&bin2::read(&old).unwrap())),
        ("new", to_binary_v21(&lazy_new)),
    ] {
        assert!(bytes == new, "re-encoded through {how}");
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
