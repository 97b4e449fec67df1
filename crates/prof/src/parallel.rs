//! Parallel profile ingestion: split N rank profiles into contiguous
//! shards (`core::pool::chunked_map`), correlate each shard against its
//! own local CCT, then merge the shards pairwise — concurrently,
//! left-to-right, through `core::supergraph::merge_shards` — so the
//! canonical CCT, node ids included, is **identical to what the
//! sequential [`Correlator`] produces**.
//!
//! ## Why the result is byte-identical
//!
//! The sequential correlator's node ids are determined entirely by the
//! order of its `find_or_add_child` calls: walking rank 0's profile,
//! then rank 1's, and so on, each walk visiting frames and static
//! scopes in a fixed DFS order that depends only on the profile, the
//! structure, and the interned name ids. Four properties make the
//! parallel path equivalent:
//!
//! 1. **Shared interned name table.** Every correlator over the same
//!    structure builds the identical name table, because
//!    [`Correlator::new`] interns all names — including inlined callee
//!    names — in deterministic structure order before any profile is
//!    walked. The merge translates scope kinds by name, and between two
//!    copies of one table that maps every id to itself.
//! 2. **Pruned visit journals.** Each shard correlates a *contiguous*
//!    run of ranks (chunk 0 = ranks `0..k`, chunk 1 the next run, ...)
//!    while recording only the `(parent, child)` calls that **created**
//!    `child`. Repeat visits find an existing node, so replaying them
//!    is a no-op — dropping them loses nothing. What remains is every
//!    non-root shard node, once, in creation order, parents before
//!    children: the minimal recipe that rebuilds the shard's CCT with
//!    the same ids.
//! 3. **Pairwise merge preserves creation order.** Merging shard B into
//!    shard A replays B's pruned journal against A's CCT. Nodes
//!    already reachable in A map onto A's ids; genuinely new paths are
//!    created in B-journal order — exactly the order a sequential walk
//!    of B's ranks *after* A's ranks would first encounter them. The
//!    merged journal is A's journal followed by the newly created
//!    edges (in merged-local ids), so the invariant holds at every
//!    level of the merge tree. Adjacent shards merge concurrently, but
//!    always left into right-neighbor order, so the final CCT equals
//!    shard 0's CCT extended in sequential creation order — and shard
//!    0's ids are the sequential ids for its ranks by construction. No
//!    final replay pass is needed.
//! 4. **Rank-order totals fold.** f64 addition is not associative, so
//!    the per-node totals are *not* summed during the concurrent
//!    merges. Per-rank costs are remapped to canonical ids inside them
//!    (cheap, exact — a table lookup per entry), then folded into a
//!    fresh totals table in ascending rank order on the reducing thread:
//!    the same additions in the same order as a sequential `add` loop,
//!    hence bit-identical column values.

use crate::correlate::{finish_parts, fold_costs_into, Correlator, PerNodeCosts};
use callpath_core::prelude::*;
use callpath_profiler::{Counter, RawProfile};
use callpath_structure::Structure;

/// One rank's direct costs, riding through the shard merge in its
/// shard's node ids.
struct RankCosts(PerNodeCosts);

impl RemapNodes for RankCosts {
    fn remap_nodes(&mut self, map: &[NodeId]) {
        for (n, _) in &mut self.0 {
            *n = map[n.index()];
        }
    }
}

/// Below this many profiles the journal/replay machinery costs more
/// than it saves; fall straight through to the sequential correlator.
pub const SHARD_CUTOVER: usize = 4;

/// How [`ParallelCorrelator::correlate`] will actually run for a given
/// input size: a plain sequential `add` loop, or sharded fan-out with
/// pairwise merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// One correlator fed rank-by-rank on the calling thread.
    Sequential,
    /// Contiguous rank shards on threads of their own, merged pairwise.
    Sharded,
}

impl IngestMode {
    /// Stable lowercase name, for bench records and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            IngestMode::Sequential => "sequential",
            IngestMode::Sharded => "sharded",
        }
    }
}

/// Sharded, deterministic parallel replacement for feeding N profiles
/// through one [`Correlator`].
pub struct ParallelCorrelator<'s> {
    structure: &'s Structure,
    periods: [u64; Counter::COUNT],
    threads: usize,
}

impl<'s> ParallelCorrelator<'s> {
    /// A parallel correlator choosing its thread count automatically.
    /// `periods` has the same meaning as for [`Correlator::new`].
    pub fn new(structure: &'s Structure, periods: [u64; Counter::COUNT]) -> Self {
        ParallelCorrelator {
            structure,
            periods,
            threads: 0,
        }
    }

    /// Use exactly `threads` threads (0 = automatic).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The mode [`Self::correlate`] picks for `n_profiles` inputs:
    /// sequential when only one thread would run or the input is below
    /// [`SHARD_CUTOVER`], sharded otherwise.
    pub fn mode_for(&self, n_profiles: usize) -> IngestMode {
        if resolve_threads(self.threads) <= 1 || n_profiles < SHARD_CUTOVER {
            IngestMode::Sequential
        } else {
            IngestMode::Sharded
        }
    }

    /// Correlate every profile (rank r = `profiles[r]`) and build the
    /// experiment. Returns the experiment plus each rank's direct
    /// per-node costs in canonical node ids — the same pair of results
    /// the sequential path produces, in the same order. The last
    /// argument selects nothing ([`StorageKind`]).
    pub fn correlate(
        &self,
        profiles: &[RawProfile],
        _: StorageKind,
    ) -> (Experiment, Vec<PerNodeCosts>) {
        let _span = callpath_obs::span("prof.correlate");
        callpath_obs::count("prof.profiles_ingested", profiles.len() as u64);
        if self.mode_for(profiles.len()) == IngestMode::Sequential {
            // One thread (or a tiny input): the journal/merge round
            // trip is pure overhead, so feed a plain correlator.
            let mut corr = Correlator::new(self.structure, self.periods);
            let out: Vec<PerNodeCosts> = profiles.iter().map(|p| corr.add(p)).collect();
            return (corr.finish(StorageKind::Csr), out);
        }

        // Fan out: contiguous rank chunks, one journaling correlator per
        // chunk. chunked_map returns shards in ascending rank order.
        // A spawned thread has no span context of its own, so each
        // shard nests explicitly under this call's span.
        let parent = callpath_obs::current();
        let shards: Vec<CctShard<RankCosts>> = chunked_map(profiles, self.threads, |_ci, batch| {
            let _span = callpath_obs::span_under(parent, "prof.shard_correlate");
            let mut corr = Correlator::with_journal(self.structure, self.periods);
            let payload = batch.iter().map(|p| RankCosts(corr.add(p))).collect();
            CctShard {
                journal: corr.journal.take().unwrap_or_default(),
                cct: corr.cct,
                payload,
            }
        });

        // Reduce: merge adjacent shards pairwise, level by level, each
        // pair concurrently (`reduce_pairwise` keeps left-to-right
        // operand order and passes the odd shard out through unchanged),
        // so the surviving shard's CCT and per-rank ids are the
        // sequential ones (see module docs).
        let _merge = callpath_obs::span("prof.merge_tree");
        let canon = reduce_pairwise(shards, |a, b| {
            let _span = callpath_obs::span_under(parent, "prof.merge_pair");
            callpath_obs::count("prof.merge.pairs", 1);
            merge_shards(a, b)
        })
        .expect("sharded mode implies >= 1 shard");
        let per_rank: Vec<PerNodeCosts> = canon.payload.into_iter().map(|c| c.0).collect();

        // Fold totals in ascending rank order — the exact sequential
        // accumulation order, so every f64 sum rounds identically.
        let mut totals = vec![[0.0; Counter::COUNT]; canon.cct.len()];
        for costs in &per_rank {
            fold_costs_into(&mut totals, costs);
        }
        (finish_parts(canon.cct, totals, self.periods), per_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_profiler::{execute, lower, Costs, ExecConfig, Op, ProgramBuilder};
    use callpath_structure::recover;

    fn profiles_for(
        n_ranks: usize,
    ) -> (callpath_structure::Structure, Vec<RawProfile>, ExecConfig) {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let lib = b.file("lib.h");
        let helper = b.declare("helper", lib, 50);
        let work = b.declare("work", f, 10);
        let main = b.declare("main", f, 1);
        b.body(helper, vec![Op::work(51, Costs::cycles(4_000))]);
        b.body(
            work,
            vec![
                Op::looped(11, 8, vec![Op::work(12, Costs::cycles(2_000))]),
                Op::call_inline(14, helper),
            ],
        );
        b.body(
            main,
            vec![Op::call(2, work), Op::call_recursive(3, main, 2)],
        );
        b.entry(main);
        let bin = lower(&b.build());
        let cfg = ExecConfig {
            jitter_seed: Some(11),
            ..ExecConfig::single(Counter::Cycles, 509)
        };
        let profiles: Vec<RawProfile> = (0..n_ranks)
            .map(|r| {
                let rank_cfg = ExecConfig {
                    work_scale: 1.0 + r as f64 * 0.3,
                    jitter_seed: Some(11 + r as u64),
                    ..cfg.clone()
                };
                execute(&bin, &rank_cfg).unwrap().profile
            })
            .collect();
        (recover(&bin).unwrap(), profiles, cfg)
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (structure, profiles, cfg) = profiles_for(9);
        let mut seq = Correlator::new(&structure, cfg.periods);
        let seq_costs: Vec<PerNodeCosts> = profiles.iter().map(|p| seq.add(p)).collect();
        let seq_exp = seq.finish(StorageKind::Csr);

        for threads in [1, 2, 4, 8] {
            let (par_exp, par_costs) = ParallelCorrelator::new(&structure, cfg.periods)
                .with_threads(threads)
                .correlate(&profiles, StorageKind::Csr);
            assert_eq!(par_exp.cct.len(), seq_exp.cct.len(), "threads={threads}");
            for n in par_exp.cct.all_nodes() {
                assert_eq!(
                    par_exp.cct.kind(n),
                    seq_exp.cct.kind(n),
                    "threads={threads} node {n:?}"
                );
                assert_eq!(par_exp.cct.parent(n), seq_exp.cct.parent(n));
            }
            assert_eq!(par_costs, seq_costs, "threads={threads}");
            for c in seq_exp.columns.columns() {
                let a: Vec<(u32, f64)> = seq_exp.columns.vec(c).nonzero_sorted().collect();
                let b: Vec<(u32, f64)> = par_exp.columns.vec(c).nonzero_sorted().collect();
                assert_eq!(a, b, "threads={threads} column {c:?}");
            }
        }
    }

    #[test]
    fn pruned_journal_is_one_entry_per_non_root_node() {
        let (structure, profiles, cfg) = profiles_for(6);
        let mut pruned = Correlator::with_journal(&structure, cfg.periods);
        for p in &profiles {
            pruned.add(p);
        }
        let pj = pruned.journal.take().unwrap();
        assert_eq!(
            pj.len(),
            pruned.cct.len() - 1,
            "pruned journal must hold every non-root node exactly once"
        );
        // The journal is the sequence of first appearances: creation
        // order, parents before children.
        let mut seen = vec![false; pruned.cct.len()];
        seen[pruned.cct.root().index()] = true;
        for &(parent, child) in &pj {
            assert!(seen[parent.index()], "parent created after child");
            assert!(!seen[child.index()], "child journaled twice");
            seen[child.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mode_cuts_over_from_sequential_to_sharded() {
        let (structure, _, cfg) = profiles_for(1);
        let multi = ParallelCorrelator::new(&structure, cfg.periods).with_threads(4);
        assert_eq!(multi.mode_for(SHARD_CUTOVER - 1), IngestMode::Sequential);
        assert_eq!(multi.mode_for(SHARD_CUTOVER), IngestMode::Sharded);
        // A single thread never shards, whatever the input size.
        let single = ParallelCorrelator::new(&structure, cfg.periods).with_threads(1);
        assert_eq!(single.mode_for(1_000), IngestMode::Sequential);
    }

    #[test]
    fn small_inputs_fall_back_to_the_sequential_path() {
        // Below the cutover the fallback must still produce the exact
        // sequential result (it IS the sequential path).
        let (structure, profiles, cfg) = profiles_for(SHARD_CUTOVER - 1);
        let mut seq = Correlator::new(&structure, cfg.periods);
        let seq_costs: Vec<PerNodeCosts> = profiles.iter().map(|p| seq.add(p)).collect();
        let seq_exp = seq.finish(StorageKind::Csr);
        let par = ParallelCorrelator::new(&structure, cfg.periods).with_threads(8);
        assert_eq!(par.mode_for(profiles.len()), IngestMode::Sequential);
        let (par_exp, par_costs) = par.correlate(&profiles, StorageKind::Csr);
        assert_eq!(par_costs, seq_costs);
        assert_eq!(par_exp.cct.len(), seq_exp.cct.len());
    }
}
