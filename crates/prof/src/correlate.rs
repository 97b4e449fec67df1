//! The correlation pass: raw profile trie × recovered structure →
//! canonical CCT with attributed direct costs.

use callpath_core::prelude::*;
use callpath_profiler::{Counter, RawNodeId, RawProfile, NO_CALL};
use callpath_structure::{Scope, Structure};

/// Direct costs one profile contributed, per CCT node, in counter order.
/// Sparse: only nodes with at least one non-zero counter appear.
pub type PerNodeCosts = Vec<(NodeId, [f64; Counter::COUNT])>;

/// Incremental correlator: builds one canonical CCT shared by every
/// profile added to it.
pub struct Correlator<'s> {
    structure: &'s Structure,
    pub(crate) cct: Cct,
    /// Per-procedure load module (library routines get their own).
    proc_modules: Vec<LoadModuleId>,
    files: Vec<FileId>,
    procs: Vec<ProcId>,
    /// Sampling periods used to convert sample counts to event costs.
    periods: [u64; Counter::COUNT],
    /// Accumulated direct costs over all profiles added so far, indexed
    /// by CCT node id (node ids are dense) and grown with the tree.
    pub(crate) totals: Vec<[f64; Counter::COUNT]>,
    /// When enabled, an ordered `(parent, child)` log a parallel
    /// reduction replays to reproduce this correlator's node ids
    /// exactly (see `crate::parallel`). It records only
    /// **first-appearance** edges — the calls that created `child`.
    /// Repeat visits find an existing node and replay to a no-op, so
    /// leaving them out keeps the journal at O(nodes), not O(visits),
    /// without changing what it rebuilds.
    pub(crate) journal: Option<Vec<(NodeId, NodeId)>>,
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
        // Pre-intern inlined callee names in deterministic structure
        // order. Interning them lazily during the walk (as descend_static
        // once did) would assign ids in visit order, which differs between
        // profiles — every correlator over the same structure must build
        // the identical name table or the parallel shards of
        // `crate::parallel::ParallelCorrelator` could not share scope
        // kinds by value.
        for p in &structure.procs {
            for node in &p.nodes {
                if let Scope::Inline { callee_name, .. } = &node.scope {
                    names.proc(callee_name);
                }
            }
        }
        Correlator {
            structure,
            cct: Cct::new(names),
            proc_modules,
            files,
            procs,
            periods,
            totals: Vec::new(),
            journal: None,
        }
    }

    /// A correlator that additionally records its first-appearance log,
    /// for use as a worker shard of the parallel reduction. Journaling
    /// shards skip the totals fold in [`Self::add`]: their totals are
    /// never read — the reduction folds remapped per-rank costs into
    /// the canonical totals itself.
    pub(crate) fn with_journal(structure: &'s Structure, periods: [u64; Counter::COUNT]) -> Self {
        let mut c = Self::new(structure, periods);
        c.journal = Some(Vec::new());
        c
    }

    /// `find_or_add_child` plus journaling.
    fn touch(&mut self, parent: NodeId, kind: ScopeKind) -> NodeId {
        let (child, created) = self.cct.find_or_add_child_tracked(parent, kind);
        if let Some(j) = &mut self.journal {
            if created {
                j.push((parent, child));
            }
        }
        child
    }

    /// The canonical CCT built so far.
    pub fn cct(&self) -> &Cct {
        &self.cct
    }

    /// Correlate one raw profile into the shared CCT. Returns the direct
    /// costs (events = samples × period) this profile attributed per node.
    pub fn add(&mut self, profile: &RawProfile) -> PerNodeCosts {
        let mut out: PerNodeCosts = Vec::new();
        self.walk(profile, profile.root(), self.cct.root(), &mut out);
        // Journaling shards skip the fold: the parallel reduction
        // discards shard-local totals and folds the canonically
        // remapped costs itself, in global rank order, so f64 sums stay
        // bit-identical to the sequential path.
        if self.journal.is_none() {
            self.totals.resize(self.cct.len(), [0.0; Counter::COUNT]);
            fold_costs_into(&mut self.totals, &out);
        }
        out
    }

    fn walk(
        &mut self,
        profile: &RawProfile,
        raw: RawNodeId,
        cct_parent: NodeId,
        out: &mut PerNodeCosts,
    ) {
        // Map each raw child frame into the CCT, interposing the static
        // scopes (loops, inlined bodies) that contain its call site.
        for child in profile.children(raw) {
            let call_addr = profile.call_addr(child);
            let callee = profile.callee(child);
            let callee_struct = &self.structure.procs[callee];
            let (anchor, call_site) = if call_addr == NO_CALL {
                (cct_parent, None)
            } else {
                let site = self.structure.line_of(call_addr);
                let anchor = self.descend_static(cct_parent, call_addr);
                (
                    anchor,
                    Some(SourceLoc::new(self.files[site.file], site.line)),
                )
            };
            let frame_kind = ScopeKind::Frame {
                proc: self.procs[callee],
                module: self.proc_modules[callee],
                def: SourceLoc::new(
                    self.files[callee_struct.file],
                    if callee_struct.has_source {
                        callee_struct.def_line
                    } else {
                        0
                    },
                ),
                call_site,
            };
            let frame_node = self.touch(anchor, frame_kind);
            self.walk(profile, child, frame_node, out);
        }
        // Map leaves: samples recorded at instructions within this frame.
        for leaf in profile.leaves(raw) {
            if raw == profile.root() {
                // Samples outside any frame (should not happen); attribute
                // to the root as unattributable cost.
                self.push_costs(cct_parent, leaf.counts, out);
                continue;
            }
            let anchor = self.descend_static(cct_parent, leaf.addr);
            let loc = self.structure.line_of(leaf.addr);
            let stmt = self.touch(
                anchor,
                ScopeKind::Stmt {
                    loc: SourceLoc::new(self.files[loc.file], loc.line),
                },
            );
            self.push_costs(stmt, leaf.counts, out);
        }
    }

    /// From a frame's CCT node, descend through the static scopes (loops,
    /// inline frames) containing `addr`, creating CCT nodes as needed, and
    /// return the innermost node.
    fn descend_static(&mut self, frame_node: NodeId, addr: u64) -> NodeId {
        let structure = self.structure;
        let Some(proc) = structure.proc_at(addr) else {
            return frame_node;
        };
        let proc = &structure.procs[proc];
        let mut cur = frame_node;
        for idx in proc.scopes_at(addr) {
            let node = &proc.nodes[idx];
            let kind = match &node.scope {
                Scope::Loop { header } => ScopeKind::Loop {
                    header: SourceLoc::new(self.files[header.file], header.line),
                },
                Scope::Inline {
                    callee_name,
                    callee_file,
                    callee_def_line,
                    call_site,
                } => {
                    let proc_id = self.cct.names.proc(callee_name);
                    ScopeKind::InlinedFrame {
                        proc: proc_id,
                        def: SourceLoc::new(self.files[*callee_file], *callee_def_line),
                        call_site: SourceLoc::new(self.files[call_site.file], call_site.line),
                    }
                }
            };
            cur = self.touch(cur, kind);
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
    pub fn active_counters(&self) -> Vec<Counter> {
        Counter::ALL
            .iter()
            .copied()
            .filter(|&c| self.periods[c as usize] > 0)
            .collect()
    }

    /// Build the experiment from everything added so far. The argument
    /// selects nothing ([`StorageKind`]).
    pub fn finish(self, _: StorageKind) -> Experiment {
        finish_parts(self.cct, self.totals, self.periods)
    }
}

/// Fold pre-converted per-node costs into running totals (one row per
/// node of the tree the costs refer to), entry by entry in vector
/// order. Both the sequential correlator and the parallel reduction
/// fold through this one function so their f64 accumulation order —
/// and therefore every rounded bit — is identical.
pub(crate) fn fold_costs_into(totals: &mut [[f64; Counter::COUNT]], costs: &PerNodeCosts) {
    for &(n, cs) in costs {
        let t = &mut totals[n.index()];
        for i in 0..Counter::COUNT {
            t[i] += cs[i];
        }
    }
}

/// Assemble an [`Experiment`] from a finished CCT plus accumulated
/// totals — the back half of [`Correlator::finish`], split out so the
/// parallel reduction can build the experiment from a merged CCT it
/// folded totals into itself.
pub(crate) fn finish_parts(
    cct: Cct,
    totals: Vec<[f64; Counter::COUNT]>,
    periods: [u64; Counter::COUNT],
) -> Experiment {
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let active: Vec<Counter> = Counter::ALL
        .iter()
        .copied()
        .filter(|&c| periods[c as usize] > 0)
        .collect();
    let metric_ids: Vec<MetricId> = active
        .iter()
        .map(|&c| {
            raw.add_metric(MetricDesc::new(
                c.papi_name(),
                c.unit(),
                periods[c as usize] as f64,
            ))
        })
        .collect();
    // The batched per-metric write walks nodes ascending, which is the
    // sorted arrays' append fast path.
    let mut batch: Vec<(NodeId, f64)> = Vec::new();
    for (mi, &c) in active.iter().enumerate() {
        batch.clear();
        batch.extend(totals.iter().enumerate().filter_map(|(node, costs)| {
            let v = costs[c as usize];
            (v != 0.0).then_some((NodeId(node as u32), v))
        }));
        raw.add_costs(metric_ids[mi], &batch);
    }
    Experiment::build(cct, raw, StorageKind::Csr)
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
