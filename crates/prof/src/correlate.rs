//! The correlation pass: raw profile trie × recovered structure →
//! canonical CCT with attributed direct costs.
//!
//! SPMD ranks share almost all of their contexts, so the pass pays per
//! distinct context rather than per instance: the first time a (CCT
//! frame node, address) pair is seen it is resolved against the
//! structure — the procedure and scope tree around the address, its
//! source line, the scope kinds, a scan of the parent's children — and
//! the node it lands on is remembered; every later raw frame or leaf
//! sample with the same pair, in this profile or another, is one hash
//! lookup.

use callpath_core::hash::MixState;
use callpath_core::prelude::*;
use callpath_profiler::{Addr, Counter, LineInfo, ProcIdx, RawProfile, NO_CALL};
use callpath_structure::{Scope, Structure};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Direct costs one profile contributed, per CCT node, in counter order.
/// Sparse: only nodes with at least one non-zero counter appear.
pub type PerNodeCosts = Vec<(NodeId, [f64; Counter::COUNT])>;

/// What one memo entry resolves, under the CCT frame node `parent`:
/// the child frame entered through the call at `addr` into `callee`, or
/// (`callee == STMT`) the statement of a sample at instruction `addr`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Site {
    parent: NodeId,
    addr: Addr,
    callee: ProcIdx,
}

/// The `callee` of a statement site. No raw child frame enters it: it
/// is the raw trie's marker for the synthetic root.
const STMT: ProcIdx = ProcIdx::MAX;

impl Hash for Site {
    /// Two words: the parent shares one with the callee's low half.
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(u64::from(self.parent.0) << 32 | self.callee as u32 as u64);
        h.write_u64(self.addr);
    }
}

/// Incremental correlator: builds one canonical CCT shared by every
/// profile added to it.
pub struct Correlator<'s> {
    structure: &'s Structure,
    cct: Cct,
    /// Per-procedure load module (library routines get their own).
    proc_modules: Vec<LoadModuleId>,
    files: Vec<FileId>,
    procs: Vec<ProcId>,
    /// Per procedure, per structure scope node: the CCT kind of that
    /// scope (a loop, or an inlined body with its callee's name interned).
    scope_kinds: Vec<Vec<ScopeKind>>,
    /// Sampling periods used to convert sample counts to event costs.
    periods: [u64; Counter::COUNT],
    /// Accumulated direct costs over all profiles added so far, indexed
    /// by CCT node id (node ids are dense) and grown with the tree.
    totals: Vec<[f64; Counter::COUNT]>,
    /// Every site resolved so far → the node it resolved to. Never
    /// invalidated: node ids are stable and the tree only grows, so the
    /// node a site resolved to once is the node the same static descent
    /// and `find_or_add_child` would find again. A miss resolves in walk
    /// order, so first appearances — and with them node ids — are those
    /// of a correlator without the memo.
    memo: HashMap<Site, NodeId, MixState>,
    /// Static descents (memo misses that consulted the structure) during
    /// the current `add`, reported as `prof.static_descents`.
    descents: u64,
}

impl<'s> Correlator<'s> {
    /// `periods[c]` converts one sample of counter `c` into events. Use 0
    /// for counters that were not sampled (they are skipped entirely
    /// unless a profile carries direct event counts for them, e.g.
    /// injected idleness, which uses period 1).
    pub fn new(structure: &'s Structure, periods: [u64; Counter::COUNT]) -> Self {
        let mut names = NameTable::new();
        let main_module = names.module(&structure.module);
        let files: Vec<FileId> = structure.files.iter().map(|f| names.file(f)).collect();
        let procs: Vec<ProcId> = structure
            .procs
            .iter()
            .map(|p| names.proc(&p.name))
            .collect();
        let proc_modules: Vec<LoadModuleId> = structure
            .procs
            .iter()
            .map(|p| match &p.module {
                Some(m) => names.module(m),
                None => main_module,
            })
            .collect();
        // Inlined callee names are interned here, in structure order, not
        // when a walk first meets them: name ids must not depend on which
        // profile reaches which scope first, so that every correlation of
        // the same structure writes the same name table and the same bytes.
        let loc = |l: LineInfo| SourceLoc::new(files[l.file], l.line);
        let scope_kinds: Vec<Vec<ScopeKind>> = structure
            .procs
            .iter()
            .map(|p| {
                p.nodes
                    .iter()
                    .map(|node| match &node.scope {
                        Scope::Loop { header } => ScopeKind::Loop {
                            header: loc(*header),
                        },
                        Scope::Inline {
                            callee_name,
                            callee_file,
                            callee_def_line,
                            call_site,
                        } => ScopeKind::InlinedFrame {
                            proc: names.proc(callee_name),
                            def: SourceLoc::new(files[*callee_file], *callee_def_line),
                            call_site: loc(*call_site),
                        },
                    })
                    .collect()
            })
            .collect();
        Correlator {
            structure,
            cct: Cct::new(names),
            proc_modules,
            files,
            procs,
            scope_kinds,
            periods,
            totals: Vec::new(),
            memo: HashMap::default(),
            descents: 0,
        }
    }

    /// The canonical CCT built so far.
    pub fn cct(&self) -> &Cct {
        &self.cct
    }

    /// Correlate one raw profile into the shared CCT. Returns the direct
    /// costs (events = samples × period) this profile attributed per node.
    ///
    /// The walk keeps its own stack, so a raw trie of any depth
    /// correlates on any thread. Child frames are mapped in order, each
    /// before its subtree; a frame's leaf samples after all of its child
    /// subtrees.
    pub fn add(&mut self, profile: &RawProfile) -> PerNodeCosts {
        let mut out: PerNodeCosts = Vec::new();
        self.descents = 0;
        let root = profile.root();
        let mut stack = vec![(profile.children(root), root, self.cct.root())];
        while let Some((children, raw, node)) = stack.last_mut() {
            let (raw, node) = (*raw, *node);
            if let Some(child) = children.next() {
                let frame = self.resolve(node, profile.call_addr(child), profile.callee(child));
                stack.push((profile.children(child), child, frame));
                continue;
            }
            stack.pop();
            for leaf in profile.leaves(raw) {
                // Samples outside any frame (should not happen) are
                // unattributable cost of the root.
                let at = if raw == root {
                    node
                } else {
                    self.resolve(node, leaf.addr, STMT)
                };
                self.push_costs(at, leaf.counts, &mut out);
            }
        }
        callpath_obs::count("prof.static_descents", self.descents);
        self.totals.resize(self.cct.len(), [0.0; Counter::COUNT]);
        for &(n, cs) in &out {
            let t = &mut self.totals[n.index()];
            for i in 0..Counter::COUNT {
                t[i] += cs[i];
            }
        }
        out
    }

    /// The node of `Site { parent, addr, callee }`: from the memo, or
    /// resolved through the structure and remembered. A frame sits under
    /// the static scopes (loops, inlined bodies) containing its call
    /// site; a statement under those containing its instruction.
    fn resolve(&mut self, parent: NodeId, addr: Addr, callee: ProcIdx) -> NodeId {
        let site = Site {
            parent,
            addr,
            callee,
        };
        if let Some(&node) = self.memo.get(&site) {
            return node;
        }
        let (anchor, kind) = if callee == STMT {
            let loc = self.source_loc(addr);
            (self.descend_static(parent, addr), ScopeKind::Stmt { loc })
        } else {
            let (anchor, call_site) = if addr == NO_CALL {
                (parent, None)
            } else {
                let call_site = self.source_loc(addr);
                (self.descend_static(parent, addr), Some(call_site))
            };
            let p = &self.structure.procs[callee];
            let def_line = if p.has_source { p.def_line } else { 0 };
            let frame = ScopeKind::Frame {
                proc: self.procs[callee],
                module: self.proc_modules[callee],
                def: SourceLoc::new(self.files[p.file], def_line),
                call_site,
            };
            (anchor, frame)
        };
        let node = self.cct.find_or_add_child(anchor, kind);
        self.memo.insert(site, node);
        node
    }

    fn source_loc(&self, addr: Addr) -> SourceLoc {
        let l = self.structure.line_of(addr);
        SourceLoc::new(self.files[l.file], l.line)
    }

    /// From a frame's CCT node, descend through the static scopes (loops,
    /// inline frames) containing `addr`, creating CCT nodes as needed, and
    /// return the innermost node.
    fn descend_static(&mut self, frame_node: NodeId, addr: Addr) -> NodeId {
        self.descents += 1;
        let Some(p) = self.structure.proc_at(addr) else {
            return frame_node;
        };
        let mut cur = frame_node;
        for i in self.structure.procs[p].scopes_at(addr) {
            cur = self.cct.find_or_add_child(cur, self.scope_kinds[p][i]);
        }
        cur
    }

    fn push_costs(&self, node: NodeId, counts: [f64; Counter::COUNT], out: &mut PerNodeCosts) {
        let mut costs = [0.0; Counter::COUNT];
        let mut any = false;
        for c in Counter::ALL {
            let period = self.periods[c as usize];
            let count = counts[c as usize];
            if count != 0.0 && period > 0 {
                costs[c as usize] = count * period as f64;
                any = true;
            }
        }
        if any {
            out.push((node, costs));
        }
    }

    /// The metrics (in counter order) the finished experiment will carry:
    /// every counter with a non-zero period.
    fn active_counters(&self) -> Vec<Counter> {
        Counter::ALL
            .iter()
            .copied()
            .filter(|&c| self.periods[c as usize] > 0)
            .collect()
    }

    /// Build the experiment from everything added so far. The argument
    /// selects nothing ([`StorageKind`]).
    pub fn finish(self, _: StorageKind) -> Experiment {
        let mut raw = RawMetrics::new(StorageKind::Csr);
        // The batched per-metric write walks nodes ascending, which is the
        // sorted arrays' append fast path.
        let mut batch: Vec<(NodeId, f64)> = Vec::new();
        for c in self.active_counters() {
            let period = self.periods[c as usize];
            let m = raw.add_metric(MetricDesc::new(c.papi_name(), c.unit(), period as f64));
            batch.clear();
            batch.extend(self.totals.iter().enumerate().filter_map(|(node, costs)| {
                let v = costs[c as usize];
                (v != 0.0).then_some((NodeId(node as u32), v))
            }));
            raw.add_costs(m, &batch);
        }
        Experiment::build(self.cct, raw, StorageKind::Csr)
    }
}

/// The name the benchmark and `run_spmd` correlate many ranks through:
/// a [`Correlator`] `add` loop in rank order, which on two cores beat
/// the sharded fan-out this type used to run (EXPERIMENTS.md,
/// "Correlation").
pub struct ParallelCorrelator<'s> {
    structure: &'s Structure,
    periods: [u64; Counter::COUNT],
}

impl<'s> ParallelCorrelator<'s> {
    /// `periods` has the same meaning as for [`Correlator::new`].
    pub fn new(structure: &'s Structure, periods: [u64; Counter::COUNT]) -> Self {
        ParallelCorrelator { structure, periods }
    }

    /// Correlate every profile (rank r = `profiles[r]`) and build the
    /// experiment. Returns the experiment plus each rank's direct
    /// per-node costs. The last argument selects nothing
    /// ([`StorageKind`]).
    pub fn correlate(
        &self,
        profiles: &[RawProfile],
        _: StorageKind,
    ) -> (Experiment, Vec<PerNodeCosts>) {
        let _span = callpath_obs::span("prof.correlate");
        callpath_obs::count("prof.profiles_ingested", profiles.len() as u64);
        let mut corr = Correlator::new(self.structure, self.periods);
        let per_rank = profiles.iter().map(|p| corr.add(p)).collect();
        (corr.finish(StorageKind::Csr), per_rank)
    }
}

/// One-shot correlation of a single profile.
pub fn correlate(
    structure: &Structure,
    profile: &RawProfile,
    periods: [u64; Counter::COUNT],
) -> Experiment {
    let _span = callpath_obs::span("prof.correlate");
    callpath_obs::count("prof.profiles_ingested", 1);
    let mut c = Correlator::new(structure, periods);
    c.add(profile);
    c.finish(StorageKind::Csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_profiler::{execute, lower, Costs, ExecConfig, Op, ProgramBuilder};
    use callpath_structure::recover;

    /// End-to-end pipeline helper: program → binary → run → structure →
    /// correlate.
    fn pipeline(
        build: impl FnOnce(&mut ProgramBuilder),
        cfg: &ExecConfig,
    ) -> (Experiment, callpath_profiler::ExecResult) {
        let mut b = ProgramBuilder::new("app");
        build(&mut b);
        let bin = lower(&b.build());
        let res = execute(&bin, cfg).unwrap();
        let s = recover(&bin).unwrap();
        let exp = correlate(&s, &res.profile, cfg.periods);
        (exp, res)
    }

    fn cycles_cfg(period: u64) -> ExecConfig {
        ExecConfig {
            jitter_seed: None,
            ..ExecConfig::single(Counter::Cycles, period)
        }
    }

    #[test]
    fn frame_chain_is_reconstructed() {
        let (exp, _) = pipeline(
            |b| {
                let f = b.file("a.c");
                let main = b.declare("main", f, 1);
                let work = b.declare("work", f, 10);
                b.body(main, vec![Op::call(2, work)]);
                b.body(work, vec![Op::work(11, Costs::cycles(50_000))]);
                b.entry(main);
            },
            &cycles_cfg(1000),
        );
        let root = exp.cct.root();
        let mains: Vec<NodeId> = exp.cct.children(root).collect();
        assert_eq!(mains.len(), 1);
        assert_eq!(exp.cct.kind(mains[0]).label(&exp.cct.names), "main");
        let works: Vec<NodeId> = exp.cct.children(mains[0]).collect();
        assert_eq!(works.len(), 1);
        assert_eq!(exp.cct.kind(works[0]).label(&exp.cct.names), "work");
        // 50 samples * 1000-cycle period = the full measured cost.
        let incl = exp.inclusive_col(MetricId(0));
        assert_eq!(exp.columns.get(incl, root.0), 50_000.0);
        assert_eq!(exp.columns.get(incl, mains[0].0), 50_000.0);
    }

    #[test]
    fn loops_are_interposed_between_frames() {
        let (exp, _) = pipeline(
            |b| {
                let f = b.file("integrate.f90");
                let rhsf = b.declare("rhsf", f, 200);
                let main = b.declare("integrate", f, 80);
                b.body(rhsf, vec![Op::work(201, Costs::cycles(1_000))]);
                b.body(main, vec![Op::looped(82, 50, vec![Op::call(83, rhsf)])]);
                b.entry(main);
            },
            &cycles_cfg(100),
        );
        // Expected CCT spine: integrate -> loop@82 -> rhsf -> stmt.
        let root = exp.cct.root();
        let integrate = exp.cct.children(root).next().unwrap();
        let kids: Vec<NodeId> = exp.cct.children(integrate).collect();
        assert_eq!(kids.len(), 1);
        assert!(
            exp.cct.kind(kids[0]).is_loop(),
            "the call is nested inside the loop: {:?}",
            exp.cct.kind(kids[0])
        );
        let in_loop: Vec<NodeId> = exp.cct.children(kids[0]).collect();
        assert_eq!(exp.cct.kind(in_loop[0]).label(&exp.cct.names), "rhsf");
        // The loop's inclusive cost equals the whole execution; its
        // exclusive cost is zero (all work is in the callee).
        let incl = exp.inclusive_col(MetricId(0));
        let excl = exp.exclusive_col(MetricId(0));
        assert_eq!(exp.columns.get(incl, kids[0].0), 50_000.0);
        assert_eq!(exp.columns.get(excl, kids[0].0), 0.0);
    }

    #[test]
    fn inlined_code_appears_as_inlined_frames() {
        let (exp, _) = pipeline(
            |b| {
                let f1 = b.file("mesh.cc");
                let f2 = b.file("lib.h");
                let memset = b.declare("fast_memset", f2, 100);
                let create = b.declare("create", f1, 40);
                b.body(memset, vec![Op::work(101, Costs::memory(10_000, 300))]);
                b.body(create, vec![Op::call_inline(44, memset)]);
                b.entry(create);
            },
            &cycles_cfg(100),
        );
        let root = exp.cct.root();
        let create = exp.cct.children(root).next().unwrap();
        let kids: Vec<NodeId> = exp.cct.children(create).collect();
        assert_eq!(kids.len(), 1);
        match exp.cct.kind(kids[0]) {
            ScopeKind::InlinedFrame {
                proc, call_site, ..
            } => {
                assert_eq!(exp.cct.names.proc_name(proc), "fast_memset");
                assert_eq!(call_site.line, 44);
            }
            other => panic!("expected inlined frame, got {other:?}"),
        }
    }

    #[test]
    fn recursion_produces_distinct_contexts() {
        let (exp, _) = pipeline(
            |b| {
                let f = b.file("file2.c");
                let g = b.declare("g", f, 2);
                b.body(
                    g,
                    vec![
                        Op::work(3, Costs::cycles(10_000)),
                        Op::call_recursive(4, g, 3),
                    ],
                );
                b.entry(g);
            },
            &cycles_cfg(100),
        );
        // g1 -> g2 -> g3, each a separate CCT frame.
        let root = exp.cct.root();
        let g1 = exp.cct.children(root).next().unwrap();
        let g2 = exp
            .cct
            .children(g1)
            .find(|&n| exp.cct.kind(n).frame_proc().is_some())
            .unwrap();
        let g3 = exp
            .cct
            .children(g2)
            .find(|&n| exp.cct.kind(n).frame_proc().is_some())
            .unwrap();
        let incl = exp.inclusive_col(MetricId(0));
        assert_eq!(exp.columns.get(incl, g1.0), 30_000.0);
        assert_eq!(exp.columns.get(incl, g2.0), 20_000.0);
        assert_eq!(exp.columns.get(incl, g3.0), 10_000.0);
    }

    #[test]
    fn merging_two_ranks_sums_costs() {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let main = b.declare("main", f, 1);
        b.body(main, vec![Op::work(2, Costs::cycles(10_000))]);
        b.entry(main);
        let bin = lower(&b.build());
        let cfg = cycles_cfg(100);
        let r0 = execute(&bin, &cfg).unwrap();
        let r1 = execute(
            &bin,
            &ExecConfig {
                work_scale: 2.0,
                ..cfg.clone()
            },
        )
        .unwrap();
        let s = recover(&bin).unwrap();
        let mut corr = Correlator::new(&s, cfg.periods);
        let c0 = corr.add(&r0.profile);
        let c1 = corr.add(&r1.profile);
        assert!(!c0.is_empty() && !c1.is_empty());
        let exp = corr.finish(StorageKind::Csr);
        let incl = exp.inclusive_col(MetricId(0));
        assert_eq!(exp.columns.get(incl, exp.cct.root().0), 30_000.0);
        // Per-profile costs are reported separately and sum to the total.
        let t0: f64 = c0.iter().map(|(_, c)| c[Counter::Cycles as usize]).sum();
        let t1: f64 = c1.iter().map(|(_, c)| c[Counter::Cycles as usize]).sum();
        assert_eq!(t0, 10_000.0);
        assert_eq!(t1, 20_000.0);
    }

    #[test]
    fn multiple_counters_attribute_independently() {
        let mut cfg = ExecConfig {
            jitter_seed: None,
            ..ExecConfig::default()
        };
        cfg.periods = [0; Counter::COUNT];
        cfg.periods[Counter::Cycles as usize] = 1000;
        cfg.periods[Counter::L1DcMisses as usize] = 10;
        let (exp, _) = pipeline(
            |b| {
                let f = b.file("a.c");
                let main = b.declare("main", f, 1);
                b.body(main, vec![Op::work(2, Costs::memory(100_000, 5_000))]);
                b.entry(main);
            },
            &cfg,
        );
        assert_eq!(exp.raw.metric_count(), 2);
        assert_eq!(exp.raw.descs()[0].name, "PAPI_TOT_CYC");
        assert_eq!(exp.raw.descs()[1].name, "PAPI_L1_DCM");
        let root = exp.cct.root();
        assert_eq!(
            exp.columns.get(exp.inclusive_col(MetricId(0)), root.0),
            100_000.0
        );
        assert_eq!(
            exp.columns.get(exp.inclusive_col(MetricId(1)), root.0),
            5_000.0
        );
    }

    #[test]
    fn sampled_profile_approximates_ground_truth() {
        // With jitter on, the sampled attribution converges to truth
        // within statistical error.
        let cfg = ExecConfig {
            jitter_seed: Some(7),
            ..ExecConfig::single(Counter::Cycles, 1009)
        };
        let (exp, res) = pipeline(
            |b| {
                let f = b.file("a.c");
                let main = b.declare("main", f, 1);
                let hot = b.declare("hot", f, 10);
                let cold = b.declare("cold", f, 20);
                b.body(main, vec![Op::call(2, hot), Op::call(3, cold)]);
                b.body(hot, vec![Op::work(11, Costs::cycles(9_000_000))]);
                b.body(cold, vec![Op::work(21, Costs::cycles(1_000_000))]);
                b.entry(main);
            },
            &cfg,
        );
        let truth = res.totals[Counter::Cycles] as f64;
        let incl = exp.inclusive_col(MetricId(0));
        let measured = exp.columns.get(incl, exp.cct.root().0);
        assert!(
            (measured - truth).abs() / truth < 0.01,
            "measured {measured} vs truth {truth}"
        );
        // hot:cold ratio should be ~9:1.
        let root = exp.cct.root();
        let main = exp.cct.children(root).next().unwrap();
        let frames: Vec<NodeId> = exp
            .cct
            .children(main)
            .filter(|&n| matches!(exp.cct.kind(n), ScopeKind::Frame { .. }))
            .collect();
        let hot_v = exp.columns.get(incl, frames[0].0);
        let cold_v = exp.columns.get(incl, frames[1].0);
        let ratio = hot_v / cold_v;
        assert!((ratio - 9.0).abs() < 1.0, "ratio {ratio}");
    }
}
