//! The correlator against one obviously-right oracle.
//!
//! The oracle restates Section III with nothing remembered and nothing
//! carried down a walk: every raw frame and every leaf sample resolves
//! its whole context from the root — for each frame on its path, the
//! static scopes around the call site (`Structure::scope_chain`) and
//! then the frame; for a sample, the scopes around its instruction and
//! then the statement — through `find_or_add_child`. The correlator
//! must equal it bit for bit: node ids, kinds and parents, the name
//! table, each rank's direct costs entry for entry, raw and
//! presentation columns. Inputs are adversarial rank mixes (empty ranks,
//! byte-identical clones) of programs with loops (random call graphs),
//! recursion (Fig. 1's) and inlining (MOAB's).
//!
//! Also here: a late cost folds in by rebuilding, and a raw trie far
//! deeper than any thread stack correlates.

use callpath_core::prelude::*;
use callpath_prof::{correlate, Correlator, PerNodeCosts};
use callpath_profiler::{
    execute, lower, Binary, Costs, Counter, ExecConfig, LineInfo, Op, ProgramBuilder, RawNodeId,
    RawProfile, NO_CALL,
};
use callpath_structure::{recover, Scope, Structure};
use callpath_workloads::generator::{random_program, GenConfig};
use callpath_workloads::{fig1, moab};
use proptest::prelude::*;

/// Every raw frame (`None`) and leaf sample (`Some(i)`) of a profile,
/// with its raw path from the root: frames before their subtrees, a
/// frame's samples after them.
type Event = (Vec<RawNodeId>, Option<usize>);

fn events(p: &RawProfile, raw: RawNodeId, path: &mut Vec<RawNodeId>, out: &mut Vec<Event>) {
    for child in p.children(raw) {
        path.push(child);
        out.push((path.clone(), None));
        events(p, child, path, out);
        path.pop();
    }
    out.extend((0..p.leaves(raw).len()).map(|i| (path.clone(), Some(i))));
}

/// The oracle's experiment, and each rank's direct costs.
type Oracle = (Experiment, Vec<PerNodeCosts>);

fn oracle(s: &Structure, periods: [u64; Counter::COUNT], ranks: &[RawProfile]) -> Oracle {
    // Names in structure order, inlined callees last, whatever the visit order.
    let mut names = NameTable::new();
    let main = names.module(&s.module);
    let files: Vec<FileId> = s.files.iter().map(|f| names.file(f)).collect();
    let procs: Vec<ProcId> = s.procs.iter().map(|p| names.proc(&p.name)).collect();
    let mut modules = Vec::new();
    for p in &s.procs {
        modules.push(p.module.as_ref().map_or(main, |m| names.module(m)));
    }
    for scope in s.procs.iter().flat_map(|p| &p.nodes).map(|n| &n.scope) {
        if let Scope::Inline { callee_name, .. } = scope {
            names.proc(callee_name);
        }
    }
    let mut cct = Cct::new(names);
    let loc = |l: LineInfo| SourceLoc::new(files[l.file], l.line);
    // The static scopes around `addr`, outermost first, then `last`.
    // `NO_CALL`, the entry frame's call address, lies in no procedure.
    let chain = |names: &mut NameTable, addr, kinds: &mut Vec<ScopeKind>, last| {
        let (p, scopes) = s.scope_chain(addr).unwrap_or_default();
        for i in scopes {
            kinds.push(match &s.procs[p].nodes[i].scope {
                Scope::Loop { header } => ScopeKind::Loop {
                    header: loc(*header),
                },
                Scope::Inline {
                    callee_name: n,
                    callee_file: f,
                    callee_def_line: d,
                    call_site: c,
                } => {
                    let def = SourceLoc::new(files[*f], *d);
                    ScopeKind::InlinedFrame {
                        proc: names.proc(n),
                        def,
                        call_site: loc(*c),
                    }
                }
            });
        }
        kinds.push(last);
    };
    let mut totals = vec![[0.0; Counter::COUNT]; 1];
    let mut per_rank = Vec::new();
    for profile in ranks {
        let mut costs: PerNodeCosts = Vec::new();
        let mut all = Vec::new();
        events(profile, profile.root(), &mut Vec::new(), &mut all);
        for (path, leaf) in all {
            let mut kinds = Vec::new();
            for &r in &path {
                let (addr, callee) = (profile.call_addr(r), profile.callee(r));
                let p = &s.procs[callee];
                let call_site = (addr != NO_CALL).then(|| loc(s.line_of(addr)));
                let def = SourceLoc::new(files[p.file], if p.has_source { p.def_line } else { 0 });
                let (proc, module) = (procs[callee], modules[callee]);
                let frame = ScopeKind::Frame {
                    proc,
                    module,
                    def,
                    call_site,
                };
                chain(&mut cct.names, addr, &mut kinds, frame);
            }
            let sample =
                leaf.map(|i| &profile.leaves(path.last().copied().unwrap_or(profile.root()))[i]);
            if let (Some(sample), false) = (sample, path.is_empty()) {
                let stmt = ScopeKind::Stmt {
                    loc: loc(s.line_of(sample.addr)),
                };
                chain(&mut cct.names, sample.addr, &mut kinds, stmt);
            }
            let node = kinds
                .iter()
                .fold(cct.root(), |n, &k| cct.find_or_add_child(n, k));
            let Some(sample) = sample else { continue };
            let c: [f64; Counter::COUNT] =
                std::array::from_fn(|k| match (sample.counts[k], periods[k]) {
                    (n, p) if n != 0.0 && p > 0 => n * p as f64,
                    _ => 0.0,
                });
            if c.iter().any(|&v| v != 0.0) {
                costs.push((node, c));
            }
        }
        totals.resize(cct.len(), [0.0; Counter::COUNT]);
        for &(n, c) in &costs {
            (0..Counter::COUNT).for_each(|k| totals[n.index()][k] += c[k]);
        }
        per_rank.push(costs);
    }
    let mut raw = RawMetrics::new(StorageKind::Csr);
    for c in Counter::ALL
        .into_iter()
        .filter(|&c| periods[c as usize] > 0)
    {
        let period = periods[c as usize] as f64;
        let m = raw.add_metric(MetricDesc::new(c.papi_name(), c.unit(), period));
        for (n, t) in totals.iter().enumerate() {
            if t[c as usize] != 0.0 {
                raw.add_cost(m, NodeId::from_usize(n), t[c as usize]);
            }
        }
    }
    (Experiment::build(cct, raw, StorageKind::Csr), per_rank)
}

/// Every raw column, then every presentation column, as non-zero entries.
fn columns(e: &Experiment) -> Vec<Vec<(u32, f64)>> {
    let raw = (0..e.raw.metric_count()).map(|m| e.raw.column(MetricId::from_usize(m)));
    let shown = e.columns.columns().map(|c| e.columns.vec(c));
    raw.chain(shown)
        .map(|v| v.nonzero_sorted().collect())
        .collect()
}

fn assert_matches_oracle(
    s: &Structure,
    periods: [u64; Counter::COUNT],
    ranks: &[RawProfile],
    ctx: &str,
) {
    let (want, want_costs) = oracle(s, periods, ranks);
    let mut corr = Correlator::new(s, periods);
    let costs: Vec<PerNodeCosts> = ranks.iter().map(|p| corr.add(p)).collect();
    assert_eq!(costs, want_costs, "{ctx}: per-rank costs");
    let got = corr.finish(StorageKind::Csr);
    let tree = |e: &Experiment| {
        e.cct
            .all_nodes()
            .map(|n| (e.cct.kind(n), e.cct.parent(n)))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        tree(&got),
        tree(&want),
        "{ctx}: kind and parent of every id"
    );
    let procs = |e: &Experiment| {
        (0..e.cct.names.proc_count())
            .map(|i| e.cct.names.proc_name(ProcId::from_usize(i)).to_owned())
            .collect::<Vec<_>>()
    };
    assert_eq!(procs(&got), procs(&want), "{ctx}: procedure names");
    assert_eq!(columns(&got), columns(&want), "{ctx}: columns");
}

/// `n_ranks` ranks: bit r of `empty` makes rank r a profile with no
/// samples at all, bit r of `dup` a clone of rank 0, so identical call
/// paths arrive from several ranks; the rest get their own work scale
/// and jitter.
fn rank_mix(
    bin: &Binary,
    cfg: &ExecConfig,
    n_ranks: usize,
    empty: u16,
    dup: u16,
) -> Vec<RawProfile> {
    let first = execute(bin, cfg).unwrap().profile;
    let rank = |r: usize| {
        let mut rank = cfg.clone();
        rank.work_scale = 1.0 + (r % 5) as f64 * 0.4;
        rank.jitter_seed = cfg.jitter_seed.map(|s| s.wrapping_add(r as u64));
        execute(bin, &rank).unwrap().profile
    };
    (0..n_ranks)
        .map(|r| match (empty >> r & 1, r == 0 || dup >> r & 1 == 1) {
            (1, _) => RawProfile::new(),
            (_, true) => first.clone(),
            _ => rank(r),
        })
        .collect()
}

fn random_binary(seed: u64, n_procs: usize) -> Binary {
    let (calls_per_proc, loop_probability, work_cycles) = (2, 0.4, 5_000);
    let cfg = GenConfig {
        seed,
        n_procs,
        calls_per_proc,
        loop_probability,
        work_cycles,
    };
    lower(&random_program(cfg))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn the_correlator_equals_the_oracle_under_adversarial_mixes(
        seed in 0u64..1_000,
        shape in 0usize..3,
        n_procs in 4usize..20,
        n_ranks in 1usize..13,
        empty_mask in 0u16..8192,
        dup_mask in 0u16..8192,
    ) {
        let bin = match shape {
            0 => random_binary(seed, n_procs),
            1 => lower(&fig1::program(10_000 * (1 + seed % 3))),
            _ => lower(&moab::program()),
        };
        let cfg = ExecConfig { jitter_seed: Some(seed ^ 0x51c2), ..ExecConfig::default() };
        let profiles = rank_mix(&bin, &cfg, n_ranks, empty_mask, dup_mask);
        let ctx = format!("seed={seed} shape={shape} procs={n_procs} ranks={n_ranks} \
                           empty={empty_mask:b} dup={dup_mask:b}");
        assert_matches_oracle(&recover(&bin).unwrap(), cfg.periods, &profiles, &ctx);
    }
}

#[test]
fn all_empty_ranks_correlate_to_a_bare_root() {
    let structure = recover(&random_binary(3, 6)).unwrap();
    let periods = ExecConfig::default().periods;
    assert_matches_oracle(&structure, periods, &vec![RawProfile::new(); 6], "empty");
    assert_eq!(
        correlate(&structure, &RawProfile::new(), periods).cct.len(),
        1
    );
}

/// An experiment is attributed when it is built. A late cost is folded
/// in by taking the tree and the raw metrics back out, adding it and
/// building again — after which the whole ancestor chain carries the
/// delta wherever attributed values are read: `exp.inclusive`,
/// `exp.columns`, and a Callers View built from the new experiment.
#[test]
fn late_cost_is_folded_in_by_rebuild() {
    let bin = random_binary(3, 8);
    let cfg = ExecConfig::single(Counter::Cycles, 509);
    let structure = recover(&bin).unwrap();
    let mut corr = Correlator::new(&structure, cfg.periods);
    for p in &rank_mix(&bin, &cfg, 4, 0, 0) {
        corr.add(p);
    }
    let (exp, m) = (corr.finish(StorageKind::Csr), MetricId(0));
    let stmt = exp.cct.all_nodes().find(|&n| exp.cct.kind(n).is_stmt());
    let stmt = stmt.expect("workload has statements");
    let chain: Vec<NodeId> = std::iter::once(stmt)
        .chain(exp.cct.ancestors(stmt))
        .collect();
    assert_eq!(chain.last(), Some(&exp.cct.root()));
    let before: Vec<f64> = chain.iter().map(|&n| exp.inclusive(m, n)).collect();
    // The Callers entry of the procedure the statement runs in.
    let frame = exp
        .cct
        .enclosing_frame(stmt)
        .expect("a statement is framed");
    let proc = exp.cct.kind(frame).frame_proc().unwrap();
    let callers_root = |exp: &Experiment| {
        let view = CallersView::build(exp);
        let mut top = view.tree.roots().into_iter();
        let top = top.find(|&r| *view.tree.scope(r) == ViewScope::ProcTop { proc });
        let top = top.expect("every frame's procedure has an entry");
        view.tree.value(exp, exp.inclusive_col(m), top)
    };
    let callers_before = callers_root(&exp);

    let Experiment { cct, mut raw, .. } = exp;
    raw.add_cost(m, stmt, 12_345.0);
    let exp = Experiment::build(cct, raw, StorageKind::Csr);
    for (&n, &old) in chain.iter().zip(&before) {
        assert_eq!(exp.inclusive(m, n), old + 12_345.0, "node {n:?}");
        assert_eq!(exp.columns.get(exp.inclusive_col(m), n.0), old + 12_345.0);
    }
    assert_eq!(callers_root(&exp), callers_before + 12_345.0);
}

/// A raw trie 100 000 frames deep — `g` calling itself — correlates on a
/// 256 KiB stack: the walk keeps its own stack.
#[test]
fn a_100_000_frame_chain_correlates_on_a_small_stack() {
    const DEPTH: usize = 100_000;
    let mut b = ProgramBuilder::new("deep");
    let file = b.file("deep.c");
    let g = b.declare("g", file, 1);
    let body = vec![
        Op::work(2, Costs::cycles(1_000)),
        Op::call_recursive(3, g, 2),
    ];
    b.body(g, body);
    b.entry(g);
    let bin = lower(&b.build());
    // The entry frame, the recursive call's address and a sampled
    // instruction, read off a two-level run.
    let two = execute(&bin, &ExecConfig::single(Counter::Cycles, 100))
        .unwrap()
        .profile;
    let outer = two.children(two.root()).next().unwrap();
    let inner = two.children(outer).next().unwrap();
    let (callee, call) = (two.callee(outer), two.call_addr(inner));
    let mut path = vec![(NO_CALL, callee)];
    path.resize(DEPTH, (call, callee));
    let mut deep = RawProfile::new();
    deep.add_path(&path, two.leaves(outer)[0].addr, Counter::Cycles, 7.0);

    let structure = recover(&bin).unwrap();
    let mut periods = [0; Counter::COUNT];
    periods[Counter::Cycles as usize] = 1;
    let exp = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || correlate(&structure, &deep, periods))
        .unwrap()
        .join()
        .expect("correlation finished on a 256 KiB stack");
    // The root, one frame per level and the statement sampled.
    assert_eq!(exp.cct.len(), DEPTH + 2);
    assert_eq!(exp.inclusive(MetricId(0), exp.cct.root()), 7.0);
}
