//! One topology layout, held to the bytes the writer puts on disk.
//!
//! An owned CCT stores the structure-of-arrays layout a v2.1 database
//! maps, and every kernel reads both backings through the same
//! `Topo` code, so structural equivalence of the two readings reduces to
//! one property, checked on s3d, moab and pflotran: the arrays an owned
//! CCT lends are the `SEC_CCT_LINKS` / `SEC_CCT_KINDS` arrays written
//! from it, and the arrays a mapped open of those bytes lends. What remains to check is what only one backing
//! does: copy-on-write on the first mutation, and surviving links that
//! the open-time checks do not cover (`adversarial_links_*`).

use callpath_core::prelude::*;
use callpath_expdb::model::{DbMetric, DbModel, DbNode, DbScope};
use callpath_expdb::{bin2, open_lazy, open_lazy_path, to_binary_v21};
use callpath_profiler::{ExecConfig, Program};
use callpath_viewer::{render, ExpandMode, RenderConfig};
use callpath_workloads::{moab, pflotran, pipeline, s3d};
use proptest::prelude::*;
use std::ops::Range;

/// Section ids of the topology (DESIGN.md §10).
const SEC_CCT_LINKS: u32 = 5;
const SEC_CCT_KINDS: u32 = 6;

fn word(bytes: &[u8], at: usize, width: usize) -> usize {
    bytes[at..at + width]
        .iter()
        .rev()
        .fold(0, |w, &b| w << 8 | b as usize)
}

/// Where the body of section `id` lies in a database image: TOC entries
/// (`id u32, reserved u32, offset u64, len u64, checksum u64`) start at
/// byte 20, and a payload is a pad length, that many zeros, then the body.
fn section(bytes: &[u8], id: u32) -> Range<usize> {
    let entry = (0..word(bytes, 8, 4))
        .map(|i| 20 + 32 * i)
        .find(|&e| word(bytes, e, 4) == id as usize)
        .expect("section present");
    let (off, len) = (word(bytes, entry + 8, 8), word(bytes, entry + 16, 8));
    off + 1 + bytes[off] as usize..off + len
}

fn le(words: &[&[u32]]) -> Vec<u8> {
    words
        .concat()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

/// The owned CCT of `program`'s experiment and a mapped open of its v2.1
/// image both lend the arrays written from it. Both sections hold `n`
/// (u64) first. Links: the three link arrays back to back. Kinds: the
/// tags, zeros to a multiple of 8, the fields.
fn owned_and_mapped_lend_the_written_arrays(program: &Program) {
    let exp = pipeline::build_experiment(program, &ExecConfig::default());
    let bytes = to_binary_v21(&exp);
    let links = &bytes[section(&bytes, SEC_CCT_LINKS)][8..];
    let kinds = &bytes[section(&bytes, SEC_CCT_KINDS)][8..];
    let lazy = open_lazy(bytes.clone()).unwrap();
    assert!(!exp.cct.is_mapped() && lazy.cct.is_mapped());
    for topo in [exp.cct.topo(), lazy.cct.topo()] {
        let n = topo.len();
        let lent = [topo.parents(), topo.first_children(), topo.next_siblings()];
        assert_eq!(links, le(&lent));
        assert_eq!(&kinds[..n], topo.tags());
        assert_eq!(&kinds[n.div_ceil(8) * 8..], le(&[topo.fields()]));
    }
}

#[test]
fn s3d_mapped_topology_is_equivalent_to_owned() {
    owned_and_mapped_lend_the_written_arrays(&s3d::program(s3d::S3dConfig::default()));
}

#[test]
fn moab_mapped_topology_is_equivalent_to_owned() {
    owned_and_mapped_lend_the_written_arrays(&moab::program());
}

#[test]
fn pflotran_mapped_topology_is_equivalent_to_owned() {
    owned_and_mapped_lend_the_written_arrays(&pflotran::program());
}

#[test]
fn mutating_a_mapped_cct_detaches_it_from_the_image() {
    let exp = pipeline::build_experiment(&moab::program(), &ExecConfig::default());
    let bytes = to_binary_v21(&exp);
    let lazy = open_lazy(bytes).unwrap();
    let mut cct = lazy.cct.clone();
    assert!(cct.is_mapped());
    let before: Vec<(ScopeKind, Option<NodeId>)> = cct
        .all_nodes()
        .map(|n| (cct.kind(n), cct.parent(n)))
        .collect();
    // First mutation copies the borrowed arrays into an owned arena;
    // every pre-existing node must survive the migration untouched.
    let added = cct.add_child(
        cct.root(),
        ScopeKind::Frame {
            proc: ProcId(0),
            module: LoadModuleId(0),
            def: SourceLoc::new(FileId(0), 999),
            call_site: None,
        },
    );
    assert!(!cct.is_mapped());
    assert_eq!(cct.len(), before.len() + 1);
    for (i, (kind, parent)) in before.iter().enumerate() {
        let n = NodeId(i as u32);
        assert_eq!(cct.kind(n), *kind, "{n:?} changed across make_owned");
        assert_eq!(cct.parent(n), *parent, "{n:?} changed across make_owned");
    }
    assert_eq!(cct.parent(added), Some(cct.root()));
    cct.validate().expect("detached arena must validate");
}

/// splitmix64: a case is a pure function of its seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A word for a link or a field: a node id, none, or anything at all.
fn any_word(r: u64, n: usize) -> u32 {
    match r % 4 {
        0 | 1 => (r >> 8) as u32 % n as u32,
        2 => u32::MAX,
        _ => (r >> 32) as u32,
    }
}

/// A database of `n` nodes with valid parent links (each one earlier
/// node, which is what the open checks) and arbitrary first-child and
/// next-sibling words, tags and fields. Metric 0 has a cost at every
/// node (the kernel's sweep), metric 1 at one (its marked walk).
fn adversarial_db(seed: u64, n: usize) -> Vec<u8> {
    let nodes = (1..n)
        .map(|id| DbNode {
            parent: (mix(seed, id as u64) % id as u64) as u32,
            scope: DbScope::Stmt { file: 0, line: 1 },
        })
        .collect();
    let metric = |name: &str, costs: Vec<(u32, f64)>| DbMetric {
        name: name.into(),
        unit: "ev".into(),
        period: 1.0,
        costs,
    };
    let model = DbModel {
        procs: vec!["a".into(), "b".into(), "c".into()],
        files: vec!["f.c".into(), "g.c".into()],
        modules: vec!["app".into(), "lib.so".into()],
        nodes,
        metrics: vec![
            metric(
                "dense",
                (0..n as u32).map(|i| (i, 1.0 + i as f64)).collect(),
            ),
            metric("sparse", vec![((seed % n as u64) as u32, 3.0)]),
        ],
        derived: vec![],
    };
    let mut bytes = bin2::write_v21(&model);
    let (links, kinds) = (
        section(&bytes, SEC_CCT_LINKS),
        section(&bytes, SEC_CCT_KINDS),
    );
    let mut put = |at: usize, w: u32| bytes[at..at + 4].copy_from_slice(&w.to_le_bytes());
    for i in 0..2 * n {
        put(
            links.start + 8 + 4 * (n + i),
            any_word(mix(seed ^ 0x11, i as u64), n),
        );
    }
    let fields = kinds.start + 8 + n.div_ceil(8) * 8;
    for i in 0..6 * n {
        put(fields + 4 * i, any_word(mix(seed ^ 0xf1, i as u64), n));
    }
    for i in 1..n {
        bytes[kinds.start + 8 + i] = 1 + (mix(seed ^ 0x7a, i as u64) % 5) as u8;
    }
    bytes
}

/// Every kernel that reads a `Topo`, over one adversarial database
/// opened by path (mapped with the `mmap` feature, read into a buffer
/// without it): each must return.
fn drive_every_kernel(seed: u64, n: usize) {
    let path = std::env::temp_dir().join(format!(
        "callpath-adversarial-{}-{seed}-{n}.cpdb",
        std::process::id()
    ));
    std::fs::write(&path, adversarial_db(seed, n)).unwrap();
    let exp = open_lazy_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(exp.cct.is_mapped());
    // Attribution, both branches: the faults of the two metrics' columns.
    for c in exp.columns.columns() {
        exp.columns.get(c, 0);
    }
    // The walk, and set-relative exposure over arbitrary sets.
    let mut steps = 0;
    exp.cct.walk(|_, _| steps += 1);
    assert!(steps <= 4 * n + 2);
    let set: Vec<NodeId> = (0..n as u32)
        .filter(|&i| mix(seed ^ 0x5e, i as u64).is_multiple_of(3))
        .map(NodeId)
        .collect();
    exposed(&exp.cct, &set);
    // Builds, hot paths, and renders that expand four levels deep, of
    // all three views.
    let cfg = RenderConfig {
        expand: ExpandMode::Levels(4),
        max_children: 6,
        ..RenderConfig::default()
    };
    for mut view in [
        View::calling_context(&exp),
        View::callers(&exp),
        View::flat(&exp),
    ] {
        for r in view.roots().into_iter().take(4) {
            view.hot_path(r, ColumnId(0), HotPathConfig::default());
        }
        render(&mut view, &cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn adversarial_links_never_panic_or_hang(seed in 0u64..1_000_000, n in 40usize..300) {
        drive_every_kernel(seed, n);
    }
}
