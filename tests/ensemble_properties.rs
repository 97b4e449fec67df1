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
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
/// bytes last changed when the run fingerprint got its word-mixer
/// definition: then only each run record's 8-byte fingerprint field and
/// the checksum words covering them moved (EXPERIMENTS.md, "Ensemble
/// union"). Every written run record carries the `fingerprint` of its
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
    assert_eq!(bytes.len(), 45_200);
    assert_eq!(digest, 0xa983_d923_9192_18f1, "digest {digest:#018x}");
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
