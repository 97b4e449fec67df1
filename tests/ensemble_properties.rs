//! Ensemble determinism properties: the N-way union supergraph and its
//! `.cpens` serialization are pure functions of the *set* of runs —
//! byte-identical across input orderings, worker counts, duplicated
//! runs and empty runs — and the container rejects corruption instead
//! of misreading it.
//!
//! The worker count is exercised two ways: explicit `threads` arguments
//! in-process (the env var is `OnceLock`-cached per process), and
//! `CALLPATH_THREADS` itself across subprocesses of the
//! `callpath-ensemble` binary.

use callpath_core::prelude::*;
use callpath_ensemble::{build, build_union, fingerprint, RunData};
use callpath_expdb::ens;
use callpath_parallel::{run_spmd, summarize_ranks, SpmdConfig};
use callpath_profiler::{Counter, ExecConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;

/// One synthetic run: a chain of frames drawn from a tiny proc pool,
/// with sparse costs on the chain.
fn chain_run(label: &str, path: &[usize], costs: &[(u32, f64)]) -> RunData {
    const POOL: [&str; 5] = ["main", "alpha", "beta", "gamma", "delta"];
    let mut names = NameTable::new();
    let file = names.file("x.c");
    let module = names.module("x");
    let ids: Vec<ProcId> = POOL.iter().map(|p| names.proc(p)).collect();
    let mut cct = Cct::new(names);
    let mut parent = cct.root();
    for (depth, &p) in path.iter().enumerate() {
        parent = cct.add_child(
            parent,
            ScopeKind::Frame {
                proc: ids[p % POOL.len()],
                module,
                def: SourceLoc::new(file, 10 * (depth as u32 + 1)),
                call_site: None,
            },
        );
    }
    let n = cct.len() as u32;
    RunData {
        label: label.into(),
        cct,
        metrics: vec![MetricDesc::new("cycles", "ev", 1.0)],
        costs: vec![costs.iter().map(|&(node, v)| (node % n, v)).collect()],
    }
}

/// Strategy: 2–6 runs, each a 1–4 deep chain with 0–4 quantized costs.
fn runs_strategy() -> impl Strategy<Value = Vec<RunData>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0usize..5, 1..5),
            proptest::collection::vec((0u32..6, 0u32..1000), 0..5),
        ),
        2..7,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (path, raw))| {
                let costs: Vec<(u32, f64)> =
                    raw.into_iter().map(|(n, v)| (n, v as f64 / 8.0)).collect();
                chain_run(&format!("run-{i}"), &path, &costs)
            })
            .collect()
    })
}

/// Statistic `stat` at `node` by brute force over every member's value
/// there, absent members included as zeros: min and max over all of
/// them; mean and stddev in the summary kernel's fold order (the
/// non-zeros pushed in member order, then the zeros as one group).
fn brute_force(members: &[Vec<f64>], node: usize, stat: Stat) -> f64 {
    let values = members.iter().map(|m| m[node]);
    match stat {
        Stat::Min => values.fold(f64::INFINITY, f64::min),
        Stat::Max => values.fold(f64::NEG_INFINITY, f64::max),
        _ => {
            let (mut w, mut zeros) = (Welford::new(), Welford::new());
            for v in values {
                if v != 0.0 {
                    w.push(v)
                } else {
                    zeros.push(0.0)
                }
            }
            w.merge(&zeros);
            w.stat(stat)
        }
    }
}

/// Each run's attributed (inclusive, exclusive) values of its first
/// metric, attributed in its own tree and placed at union node ids, in
/// canonical run order.
fn members_in_union(runs: &[RunData]) -> [Vec<Vec<f64>>; 2] {
    let union = build_union(runs, 1);
    let mut halves = [Vec::new(), Vec::new()];
    for (&ri, map) in union.order.iter().zip(&union.node_maps) {
        let run = &runs[ri];
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let m = raw.add_metric(run.metrics[0].clone());
        for &(node, v) in &run.costs[0] {
            raw.add_cost(m, NodeId(node), v);
        }
        let attr = attribute(&run.cct, &raw, m, StorageKind::Csr);
        for (half, values) in halves.iter_mut().zip([&attr.inclusive, &attr.exclusive]) {
            let mut at = vec![0.0; union.cct.len()];
            for local in 0..run.cct.len() {
                at[map[local].index()] += values.get(local as u32);
            }
            half.push(at);
        }
    }
    halves
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("callpath-ens-{}-{name}.cpens", std::process::id()))
}

/// Write the ensemble of `runs`, built at one and at four threads, and
/// open it every way a `.cpens` opens: `ens::open` and `open_path` map
/// the file, `open_lazy` reads its bytes. The eager decode refuses it.
fn written_and_opened(runs: &[RunData], name: &str) -> Vec<(String, Experiment)> {
    let path = tmp(name);
    let mut opened = Vec::new();
    for threads in [1, 4] {
        let bytes = build(runs, threads).to_bytes();
        std::fs::write(&path, &bytes).unwrap();
        let how = |opener: &str| format!("{opener} at {threads} threads");
        opened.push((how("ens::open"), ens::open(&path).unwrap().exp));
        opened.push((how("open_path"), callpath_expdb::open_path(&path).unwrap()));
        assert!(callpath_expdb::from_binary(&bytes).is_err(), "eager decode");
        opened.push((how("open_lazy"), callpath_expdb::open_lazy(bytes).unwrap()));
    }
    std::fs::remove_file(&path).ok();
    opened
}

/// Every stat column of `exp`, (I) and (E), equals the brute force over
/// the runs' attributed values, bit for bit; its aggregate is the
/// inclusive column's root value.
fn check_stat_columns(runs: &[RunData], how: &str, exp: &Experiment) {
    let members = members_in_union(runs);
    for (stat, name) in Stat::ALL.into_iter().zip(ens::STAT_NAMES) {
        let col = |half: &str| {
            exp.columns
                .find(&format!("cycles {name} ({half})"))
                .unwrap()
        };
        for (half, values) in ["I", "E"].into_iter().zip(&members) {
            for node in 0..exp.cct.len() {
                let (got, want) = (
                    exp.columns.get(col(half), node as u32),
                    brute_force(values, node, stat),
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{how} {name} ({half}) at {node}: {got} vs {want}"
                );
            }
            let root = exp.columns.get(col("I"), 0);
            assert_eq!(
                exp.aggregates()[col(half).index()],
                root,
                "{how} {name} ({half}) aggregate"
            );
        }
    }
}

/// Two runs of `main → {a, b}`: run 1 spends 10 cycles in `a`, run 2 in
/// `b`. Each run's inclusive cost at `main` is 10, so that is its min
/// and max over the runs, and its spread is 0 (attributing statistics
/// of direct costs gave 20 / 0 / 10).
#[test]
fn stats_at_a_scope_are_of_each_runs_inclusive_value() {
    let run = |label: &str, spent_in: u32| {
        let mut names = NameTable::new();
        let file = names.file("x.c");
        let module = names.module("x");
        let procs = ["main", "a", "b"].map(|p| names.proc(p));
        let mut cct = Cct::new(names);
        let frame = |proc, line| ScopeKind::Frame {
            proc,
            module,
            def: SourceLoc::new(file, line),
            call_site: None,
        };
        let main = cct.add_child(cct.root(), frame(procs[0], 1));
        cct.add_child(main, frame(procs[1], 10));
        cct.add_child(main, frame(procs[2], 20));
        RunData {
            label: label.into(),
            cct,
            metrics: vec![MetricDesc::new("cycles", "ev", 1.0)],
            costs: vec![vec![(spent_in, 10.0)]],
        }
    };
    let runs = [run("run-1", 2), run("run-2", 3)];
    for (how, exp) in written_and_opened(&runs, "probe") {
        let at_main = |name: &str| exp.columns.get(exp.columns.find(name).unwrap(), 1);
        assert_eq!(at_main("cycles max (I)"), 10.0, "{how}");
        assert_eq!(at_main("cycles min (I)"), 10.0, "{how}");
        assert_eq!(at_main("cycles stddev (I)"), 0.0, "{how}");
        assert_eq!(at_main("cycles mean (I)"), 10.0, "{how}");
        // The percent base of a stat column is its root value — the max
        // of the run totals — not the sum of its stored entries (40).
        let max = exp.columns.find("cycles max (I)").unwrap();
        assert_eq!(exp.aggregates()[max.index()], 10.0, "{how}");
        check_stat_columns(&runs, &how, &exp);
    }
}

/// Costs of 10⁹ + {0, 1, 2} have a stddev of √(2/3); `sumsq/n − mean²`
/// cancels it to 0.
#[test]
fn large_nearly_equal_costs_keep_their_spread_through_a_cpens() {
    let runs: Vec<RunData> = (0..3)
        .map(|d| chain_run(&format!("run-{d}"), &[0], &[(1, 1e9 + d as f64)]))
        .collect();
    for (how, exp) in written_and_opened(&runs, "spread") {
        let col = exp.columns.find("cycles stddev (I)").unwrap();
        let sd = exp.columns.get(col, 1);
        assert!((sd - 0.816_496_580_927_726).abs() < 1e-9, "{how}: {sd}");
    }
}

/// The SPMD caller of the summary kernel: every statistic of every
/// node's inclusive and exclusive values over the ranks equals the brute
/// force over each rank's attributed values. Idleness is zero on the
/// heavy ranks, so absent members are exercised.
#[test]
fn rank_summaries_are_statistics_of_each_ranks_attributed_values() {
    let part = callpath_workloads::pflotran::Partition::default();
    let scales: Vec<f64> = (0..8).map(|r| part.scale(r, 8)).collect();
    let program = callpath_workloads::pflotran::program();
    let run = run_spmd(&program, &SpmdConfig::new(scales, ExecConfig::default()));
    let exp = &run.experiment;
    let counters = [Counter::Cycles, Counter::Idleness];
    let summaries = summarize_ranks(exp, &counters, &run.rank_direct);
    for (mi, &c) in counters.iter().enumerate() {
        let mut members = [Vec::new(), Vec::new()];
        for costs in &run.rank_direct {
            let mut raw = RawMetrics::new(StorageKind::Csr);
            let m = raw.add_metric(MetricDesc::new(c.papi_name(), c.unit(), 1.0));
            for (node, per_counter) in costs {
                raw.add_cost(m, *node, per_counter[c as usize]);
            }
            let attr = attribute(&exp.cct, &raw, m, StorageKind::Csr);
            for (half, values) in members.iter_mut().zip([&attr.inclusive, &attr.exclusive]) {
                half.push((0..exp.cct.len() as u32).map(|n| values.get(n)).collect());
            }
        }
        let m = MetricId::from_usize(mi);
        for node in exp.cct.all_nodes() {
            let got = [summaries.get(node, m), summaries.exclusive(node, m)];
            for (w, values) in got.into_iter().zip(&members) {
                assert_eq!(w.count(), run.rank_direct.len() as u64);
                for stat in Stat::ALL {
                    let want = brute_force(values, node.index(), stat);
                    assert_eq!(
                        w.stat(stat).to_bits(),
                        want.to_bits(),
                        "{c:?} {stat:?} at {node:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every stat column of a written `.cpens`, opened every way, is the
    /// statistic of each run's attributed values (an absent context
    /// counts as zero): min and max bit for bit, mean and stddev in the
    /// kernel's fixed fold order.
    #[test]
    fn stat_columns_are_statistics_of_each_runs_attributed_values(runs in runs_strategy()) {
        for (how, exp) in written_and_opened(&runs, "oracle") {
            check_stat_columns(&runs, &how, &exp);
        }
    }

    /// The `.cpens` bytes are invariant under run order (rotation and
    /// reversal) and worker count, and every parallel split equals the
    /// sequential left-to-right fold (`threads = 1`).
    #[test]
    fn cpens_bytes_are_order_and_thread_invariant(
        runs in runs_strategy(),
        rot in 0usize..6,
    ) {
        let sequential = build(&runs, 1).to_bytes();
        let mut rotated = runs.clone();
        let k = rot % rotated.len();
        rotated.rotate_left(k);
        let mut reversed = runs.clone();
        reversed.reverse();
        for t in [1usize, 2, 3, 8] {
            prop_assert_eq!(&build(&rotated, t).to_bytes(), &sequential, "rotated, t={}", t);
            prop_assert_eq!(&build(&reversed, t).to_bytes(), &sequential, "reversed, t={}", t);
        }
    }

    /// Duplicating a run adds no contexts to the union, and an empty
    /// run (root only, no costs) changes neither the topology nor the
    /// determinism of the result.
    #[test]
    fn duplicates_and_empty_runs_are_harmless(runs in runs_strategy()) {
        let base_nodes = build_union(&runs, 1).cct.len();

        let mut with_dup = runs.clone();
        with_dup.push(runs[0].clone());
        prop_assert_eq!(build_union(&with_dup, 3).cct.len(), base_nodes);

        let mut with_empty = runs.clone();
        with_empty.push(chain_run("zz-empty", &[0usize; 0], &[(0u32, 0.0f64); 0]));
        prop_assert_eq!(build_union(&with_empty, 3).cct.len(), base_nodes);
        let reference = build(&with_empty, 1).to_bytes();
        for t in [2usize, 8] {
            prop_assert_eq!(&build(&with_empty, t).to_bytes(), &reference, "t={}", t);
        }
    }

    /// Truncations and bit flips of a written container are rejected
    /// (structured error), never misread or panicking.
    #[test]
    fn corrupt_containers_are_rejected(
        runs in runs_strategy(),
        cut_frac in 0.0f64..1.0,
        flip_at in 0usize..1 << 20,
        flip_bit in 0u8..8,
    ) {
        let bytes = build(&runs, 1).to_bytes();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("callpath-ens-prop-{}.cpens", std::process::id()));

        // Truncation: every proper prefix must fail to open.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len() - 1)]).unwrap();
        prop_assert!(ens::open(&path).is_err(), "truncated to {} bytes", cut);

        // A single bit flip must fail verification or change content;
        // `open` validates structure, `verify_container` the payloads.
        let mut flipped = bytes.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        std::fs::write(&path, &flipped).unwrap();
        let survives = match ens::open(&path) {
            Err(_) => true,
            Ok(_) => callpath_expdb::verify_container(&flipped).is_err(),
        };
        prop_assert!(survives, "flip at byte {} bit {} went undetected", at, flip_bit);
        std::fs::remove_file(&path).ok();
    }
}

/// `CALLPATH_THREADS` is read once per process, so the env-var leg of
/// the determinism property runs the real binary: the same synthetic
/// build must produce byte-identical `.cpens` files at every setting.
#[test]
fn env_thread_counts_produce_identical_files() {
    let bin = env!("CARGO_BIN_EXE_callpath-ensemble");
    let dir = std::env::temp_dir();
    let mut outputs = Vec::new();
    for threads in ["1", "2", "3", "8"] {
        let path = dir.join(format!(
            "callpath-ens-env-{}-t{threads}.cpens",
            std::process::id()
        ));
        let out = Command::new(bin)
            .args(["build", path.to_str().unwrap(), "--synth", "12"])
            .env("CALLPATH_THREADS", threads)
            .output()
            .expect("run callpath-ensemble");
        assert!(
            out.status.success(),
            "CALLPATH_THREADS={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "ensemble bytes differ across CALLPATH_THREADS settings"
    );
}

/// One fixed `EnsembleConfig` family, the FNV-1a 64 of its `.cpens`
/// bytes as an assertion that no written byte changes unnoticed. The
/// bytes last changed when the statistics became statistics of each
/// run's attributed values, stored as (I, E) column pairs under the
/// `SEC_ATTRIBUTED` marker (DESIGN.md §15): the stat metrics' descriptors
/// and blocks and the marker; run records and run blocks kept their
/// bytes. Every written run record carries the `fingerprint` of its
/// run, which the union computed once and handed on; one of them is
/// pinned too, so a change of the definition shows up as one. A run
/// reopened from its own v2.1 database — a mapped tree whose ids read
/// through the clamp — has the fingerprint of the model it was written
/// from.
#[test]
fn cpens_bytes_and_run_fingerprints_are_pinned() {
    use callpath_workloads::synth::{ensemble_run, EnsembleConfig};
    let cfg = EnsembleConfig {
        seed: 0x5eed_2317,
        n_runs: 6,
        base_nodes: 300,
        tail_nodes: 25,
        n_metrics: 2,
        nnz_per_metric: 60,
        outlier_every: 6,
    };
    let models: Vec<_> = (0..cfg.n_runs).map(|r| ensemble_run(&cfg, r)).collect();
    let runs: Vec<RunData> = models
        .iter()
        .enumerate()
        .map(|(r, m)| RunData::from_model(format!("run-{r:04}"), m).unwrap())
        .collect();
    assert_eq!(fingerprint(&runs[0]), 0x4c51_cb40_209c_a334);
    for (run, model) in runs.iter().zip(&models) {
        let exp = callpath_expdb::open_lazy(callpath_expdb::bin2::write_v21(model)).unwrap();
        assert!(exp.cct.is_mapped());
        let reopened = RunData::from_experiment(run.label.clone(), &exp);
        assert_eq!(fingerprint(&reopened), fingerprint(run), "{}", run.label);
    }

    let union = build_union(&runs, 1);
    let built = build(&runs, 1);
    assert_eq!(built.runs.len(), runs.len());
    for (i, written) in built.runs.iter().enumerate() {
        let run = &runs[union.order[i]];
        assert_eq!(written.label, run.label);
        assert_eq!(written.fingerprint, fingerprint(run), "run {i}");
        assert_eq!(union.fingerprints[i], written.fingerprint, "run {i}");
    }

    let bytes = built.to_bytes();
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(bytes.len(), 69_168);
    assert_eq!(digest, 0x5940_e3d2_2064_83c8, "digest {digest:#018x}");
}

/// What a fingerprint is made of, as plain data: a run whose tree holds
/// every scope kind, and the knobs the contract tests turn.
#[derive(Clone)]
struct Sample {
    /// Line of the innermost scope.
    line: u32,
    /// Name of the called procedure.
    callee: &'static str,
    /// The innermost scope is a loop (else a statement) at the same place.
    innermost_loop: bool,
    /// The called frame records its call site.
    call_site: bool,
    /// The cost at the innermost scope.
    cost: f64,
    metric: &'static str,
    /// Intern the names in reverse order, plus one no node refers to.
    permuted_names: bool,
}

impl Default for Sample {
    fn default() -> Self {
        Sample {
            line: 30,
            callee: "work",
            innermost_loop: true,
            call_site: true,
            cost: 12.5,
            metric: "cycles",
            permuted_names: false,
        }
    }
}

impl Sample {
    fn run(&self) -> RunData {
        let mut names = NameTable::new();
        if self.permuted_names {
            names.proc("unreferenced");
            names.file("unreferenced.c");
        }
        let mut procs = vec!["helper", self.callee, "main"];
        let mut files = vec!["b.c", "a.c"];
        if !self.permuted_names {
            procs.reverse();
            files.reverse();
        }
        for p in procs {
            names.proc(p);
        }
        for f in files {
            names.file(f);
        }
        let module = names.module("app");
        let (main, callee, helper) = (
            names.proc("main"),
            names.proc(self.callee),
            names.proc("helper"),
        );
        let (a, b) = (names.file("a.c"), names.file("b.c"));
        let mut cct = Cct::new(names);
        let top = cct.add_child(
            cct.root(),
            ScopeKind::Frame {
                proc: main,
                module,
                def: SourceLoc::new(a, 1),
                call_site: None,
            },
        );
        let called = cct.add_child(
            top,
            ScopeKind::Frame {
                proc: callee,
                module,
                def: SourceLoc::new(b, 10),
                call_site: self.call_site.then(|| SourceLoc::new(a, 5)),
            },
        );
        let inlined = cct.add_child(
            called,
            ScopeKind::InlinedFrame {
                proc: helper,
                def: SourceLoc::new(b, 20),
                call_site: SourceLoc::new(b, 12),
            },
        );
        let at = SourceLoc::new(b, self.line);
        let innermost = if self.innermost_loop {
            ScopeKind::Loop { header: at }
        } else {
            ScopeKind::Stmt { loc: at }
        };
        let leaf = cct.add_child(inlined, innermost);
        RunData {
            label: "sample".into(),
            cct,
            metrics: vec![MetricDesc::new(self.metric, "ev", 1.0)],
            costs: vec![vec![(top.0, 1.5), (leaf.0, self.cost)]],
        }
    }
}

/// A fingerprint is a function of content: the same tree with its names
/// interned in another order, plus a name no node refers to, and under
/// another label, has the same fingerprint.
#[test]
fn fingerprint_ignores_intern_order_unreferenced_names_and_label() {
    let base = Sample::default().run();
    let mut permuted = Sample {
        permuted_names: true,
        ..Sample::default()
    }
    .run();
    permuted.label = "another label".into();
    assert_ne!(
        base.cct.topo().fields(),
        permuted.cct.topo().fields(),
        "the ids differ"
    );
    assert_eq!(fingerprint(&permuted), fingerprint(&base));
}

/// Any one change of content changes the fingerprint.
#[test]
fn fingerprint_sees_every_content_change() {
    let base = Sample::default();
    let changed = [
        (
            "a line",
            Sample {
                line: 31,
                ..base.clone()
            },
        ),
        (
            "a name string",
            Sample {
                callee: "wurk",
                ..base.clone()
            },
        ),
        (
            "loop versus statement",
            Sample {
                innermost_loop: false,
                ..base.clone()
            },
        ),
        (
            "a call site",
            Sample {
                call_site: false,
                ..base.clone()
            },
        ),
        (
            "one cost bit",
            Sample {
                cost: f64::from_bits(base.cost.to_bits() ^ 1),
                ..base.clone()
            },
        ),
        (
            "a metric name",
            Sample {
                metric: "instructions",
                ..base.clone()
            },
        ),
    ];
    let want = fingerprint(&base.run());
    for (what, sample) in changed {
        assert_ne!(fingerprint(&sample.run()), want, "{what}");
    }
}
