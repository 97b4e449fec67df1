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
//!
//! The supergraph replay reads the same words: it translates a source's
//! encoded fields and looks children up on them, never decoding a
//! `ScopeKind`. It is held to its per-node definition (decode,
//! translate by string, find or add by kind) on random owned and mapped
//! trees and on the adversarial images.

use callpath_core::names::Namespace;
use callpath_core::prelude::*;
use callpath_expdb::model::{DbMetric, DbModel, DbNode};
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
            scope: ScopeKind::Stmt {
                loc: SourceLoc::new(FileId(0), 1),
            },
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
/// mapped by path: each must return. The replay also matches its oracle:
/// out-of-range name ids read through the clamp, and a top-level frame's
/// trailing words, which the image fills with anything, are ignored.
fn drive_every_kernel(seed: u64, n: usize) {
    let path = std::env::temp_dir().join(format!(
        "callpath-adversarial-{}-{seed}-{n}.cpdb",
        std::process::id()
    ));
    std::fs::write(&path, adversarial_db(seed, n)).unwrap();
    let exp = open_lazy_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(exp.cct.is_mapped());
    // Twice: the second replay finds every context the first one added.
    assert_replay_matches_oracle(&[&exp.cct, &exp.cct]);
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

/// The oracle's translation: a decoded kind's names rewritten by string
/// into `names`, in field order — proc, module, definition file,
/// call-site file.
fn translate_kind(names: &mut NameTable, src: &NameTable, kind: ScopeKind) -> ScopeKind {
    let loc = |names: &mut NameTable, l: SourceLoc| {
        SourceLoc::new(names.file(src.file_name(l.file)), l.line)
    };
    match kind {
        ScopeKind::Root => ScopeKind::Root,
        ScopeKind::Frame {
            proc,
            module,
            def,
            call_site,
        } => {
            let proc = names.proc(src.proc_name(proc));
            let module = names.module(src.module_name(module));
            let def = loc(names, def);
            let call_site = call_site.map(|c| loc(names, c));
            ScopeKind::Frame {
                proc,
                module,
                def,
                call_site,
            }
        }
        ScopeKind::InlinedFrame {
            proc,
            def,
            call_site,
        } => {
            let proc = names.proc(src.proc_name(proc));
            let def = loc(names, def);
            let call_site = loc(names, call_site);
            ScopeKind::InlinedFrame {
                proc,
                def,
                call_site,
            }
        }
        ScopeKind::Loop { header } => ScopeKind::Loop {
            header: loc(names, header),
        },
        ScopeKind::Stmt { loc: l } => ScopeKind::Stmt { loc: loc(names, l) },
    }
}

/// The replay's definition, edge by edge: decode, translate by string,
/// find or add by kind.
fn replay_by_kind(
    dst: &mut Cct,
    dst_journal: &mut Vec<(NodeId, NodeId)>,
    src: &Cct,
) -> Vec<NodeId> {
    let mut remap = vec![NodeId(u32::MAX); src.len()];
    remap[0] = dst.root();
    for (parent, child) in arena_journal(src) {
        let mut names = std::mem::take(&mut dst.names);
        let kind = translate_kind(&mut names, &src.names, src.kind(child));
        dst.names = names;
        let parent = remap[parent.index()];
        let (node, created) = dst.find_or_add_child_tracked(parent, kind);
        remap[child.index()] = node;
        if created {
            dst_journal.push((parent, node));
        }
    }
    remap
}

fn name_lists(names: &NameTable) -> [Vec<String>; 3] {
    Namespace::ALL.map(|ns| {
        (0..names.count(ns) as u32)
            .map(|id| names.name(ns, id).to_owned())
            .collect()
    })
}

/// Fold `sources` into one destination with `replay_into` and into
/// another with the oracle: after every source the remaps, journals,
/// name tables (intern order included) and topology words agree.
fn assert_replay_matches_oracle(sources: &[&Cct]) {
    let (mut dst, mut want) = (Cct::new(NameTable::new()), Cct::new(NameTable::new()));
    let (mut dst_journal, mut want_journal) = (Vec::new(), Vec::new());
    for (i, src) in sources.iter().enumerate() {
        let remap = replay_into(&mut dst, &mut dst_journal, src, &arena_journal(src));
        let want_remap = replay_by_kind(&mut want, &mut want_journal, src);
        assert_eq!(remap, want_remap, "source {i}");
        assert_eq!(dst_journal, want_journal, "source {i}");
        assert_eq!(
            name_lists(&dst.names),
            name_lists(&want.names),
            "source {i}"
        );
        let (got, expected) = (dst.topo(), want.topo());
        assert_eq!(got.parents(), expected.parents(), "source {i}");
        assert_eq!(got.tags(), expected.tags(), "source {i}");
        assert_eq!(got.fields(), expected.fields(), "source {i}");
    }
}

/// A tree of every scope kind over names drawn from shared pools,
/// interned in an order of its own (so ids differ between trees) with
/// names no node refers to in between. The first node and the first half
/// of the rest are the same contexts in every tree, the rest the seed's.
fn mixed_tree(seed: u64, nodes: usize) -> Cct {
    const PROCS: [&str; 7] = ["main", "solve", "x.c", "naïve_φ", "pack", "unpack", "io"];
    const FILES: [&str; 5] = ["x.c", "solve", "δ.f90", "lib.h", "io.c"];
    const MODULES: [&str; 3] = ["app", "libm.so", "x.c"];
    let mut names = NameTable::new();
    let skew = (mix(seed, u64::MAX) % 7) as usize;
    let mut procs = [ProcId(0); PROCS.len()];
    let mut files = [FileId(0); FILES.len()];
    let mut modules = [LoadModuleId(0); MODULES.len()];
    for i in 0..PROCS.len() {
        names.proc(&format!("unreferenced_{seed}_{i}"));
        names.file(&format!("unreferenced_{seed}_{i}.c"));
        let at = (i + skew) % PROCS.len();
        procs[at] = names.proc(PROCS[at]);
        if let Some(f) = FILES.get(at) {
            files[at] = names.file(f);
        }
        if let Some(m) = MODULES.get(at) {
            modules[at] = names.module(m);
        }
    }
    names.module("unreferenced.so");
    let mut cct = Cct::new(names);
    // First, a call defined in one file and called from another: a
    // fresh destination interns both at this node, so the order within
    // a node shows in its file table.
    let call = ScopeKind::Frame {
        proc: procs[0],
        module: modules[0],
        def: SourceLoc::new(files[1], 1),
        call_site: Some(SourceLoc::new(files[2], 2)),
    };
    let mut parents = vec![cct.root(), cct.add_child(cct.root(), call)];
    let (mut common, mut own) = (Draws(0xc0ffee, 0), Draws(seed, 0));
    for i in 0..nodes {
        let rng = if i < nodes / 2 { &mut common } else { &mut own };
        let parent = parents[rng.below(parents.len())];
        let loc =
            |rng: &mut Draws| SourceLoc::new(files[rng.below(files.len())], rng.below(3) as u32);
        let kind = match rng.below(5) {
            0 => ScopeKind::Frame {
                proc: procs[rng.below(procs.len())],
                module: modules[rng.below(modules.len())],
                def: loc(rng),
                call_site: None,
            },
            1 => ScopeKind::Frame {
                proc: procs[rng.below(procs.len())],
                module: modules[rng.below(modules.len())],
                def: loc(rng),
                call_site: Some(loc(rng)),
            },
            2 => ScopeKind::InlinedFrame {
                proc: procs[rng.below(procs.len())],
                def: loc(rng),
                call_site: loc(rng),
            },
            3 => ScopeKind::Loop { header: loc(rng) },
            _ => ScopeKind::Stmt { loc: loc(rng) },
        };
        let child = cct.find_or_add_child(parent, kind);
        if !kind.is_stmt() && !parents.contains(&child) {
            parents.push(child);
        }
    }
    cct
}

/// A stream of draws: `(seed, draws so far)` through [`mix`].
struct Draws(u64, u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.1 += 1;
        (mix(self.0, self.1) >> 11) as usize % n
    }
}

/// `cct` written as a v2.1 database and opened lazily: the same tree,
/// name tables and all, borrowed from the image.
fn reopened(cct: &Cct) -> Cct {
    let exp = Experiment::build(
        cct.clone(),
        RawMetrics::new(StorageKind::Csr),
        StorageKind::Csr,
    );
    let cct = open_lazy(to_binary_v21(&exp)).unwrap().cct.clone();
    assert!(cct.is_mapped());
    cct
}

/// The encoded replay equals its per-node definition on trees that
/// share half their contexts and intern their names in orders of their
/// own, owned and reopened mapped, folded into one destination in turn
/// and then once more (every context found, none added).
#[test]
fn encoded_replay_equals_per_node_translation() {
    let owned: Vec<Cct> = (1..=6)
        .map(|s| mixed_tree(s, 40 + 25 * s as usize))
        .collect();
    let mapped: Vec<Cct> = owned.iter().map(reopened).collect();
    let alternating = owned.iter().zip(&mapped).enumerate();
    let mut sources: Vec<&Cct> = alternating
        .map(|(i, (o, m))| if i % 2 == 0 { o } else { m })
        .collect();
    sources.extend(mapped.iter().rev());
    assert_replay_matches_oracle(&sources);

    let mut union = Cct::new(NameTable::new());
    for src in &owned {
        replay_into(&mut union, &mut Vec::new(), src, &arena_journal(src));
    }
    let separately: usize = owned.iter().map(|t| t.len() - 1).sum();
    assert!(union.len() - 1 < separately, "the trees share no context");
    let names = name_lists(&union.names);
    assert!(!names
        .iter()
        .flatten()
        .any(|n| n.starts_with("unreferenced")));
}
