//! End-to-end pipeline tests: program → lower → execute → recover →
//! correlate → views, checking that the *measured* toolchain preserves the
//! structural facts the hand-built golden tests establish.

use callpath_core::prelude::*;
use callpath_profiler::{Counter, ExecConfig};
use callpath_viewer::{render, ExpandMode, RenderConfig};
use callpath_workloads::{fig1, generator, pipeline};

fn exact_cycles() -> ExecConfig {
    ExecConfig {
        jitter_seed: None,
        ..ExecConfig::single(Counter::Cycles, 1)
    }
}

#[test]
fn fig1_program_measures_exactly_with_period_one() {
    let unit = 1_000;
    let out = pipeline::run(&fig1::program(unit), &exact_cycles());
    let exp = &out.experiment;
    // Period-1 sampling is exact: the root inclusive equals ground truth.
    let root = exp.cct.root();
    assert_eq!(
        exp.columns.get(ColumnId(0), root.0),
        out.exec.totals[Counter::Cycles] as f64
    );
    // Recursion: g appears as nested contexts with distinct costs.
    let mut g_frames = Vec::new();
    for n in exp.cct.all_nodes() {
        if let ScopeKind::Frame { proc, .. } = exp.cct.kind(n) {
            if exp.cct.names.proc_name(proc) == "g" {
                g_frames.push(n);
            }
        }
    }
    assert!(g_frames.len() >= 3, "several g contexts");
    // Exposed aggregation: the Callers View top-level g equals the
    // set-exposed sum, strictly less than the naive sum.
    let callers = View::callers(exp);
    let g_top = callers
        .roots()
        .into_iter()
        .find(|&r| callers.label(r) == "g")
        .unwrap();
    let exposed_sum: f64 = exposed(&exp.cct, &g_frames)
        .iter()
        .map(|n| exp.columns.get(ColumnId(0), n.0))
        .sum();
    let naive_sum: f64 = g_frames
        .iter()
        .map(|n| exp.columns.get(ColumnId(0), n.0))
        .sum();
    assert_eq!(callers.value(ColumnId(0), g_top), exposed_sum);
    assert!(naive_sum > exposed_sum, "recursion would double-count");
}

#[test]
fn fig1_loops_survive_the_whole_pipeline() {
    let out = pipeline::run(&fig1::program(1_000), &exact_cycles());
    let exp = &out.experiment;
    // h's loop nest: find the l1 -> l2 chain somewhere in the CCT.
    let mut found = false;
    for n in exp.cct.all_nodes() {
        if let ScopeKind::Loop { header } = exp.cct.kind(n) {
            if header.line == 8 {
                let inner: Vec<NodeId> = exp
                    .cct
                    .children(n)
                    .filter(|&c| exp.cct.kind(c).is_loop())
                    .collect();
                assert!(!inner.is_empty(), "l2 nested under l1");
                found = true;
            }
        }
    }
    assert!(found, "l1 recovered from the binary's backward branches");
}

#[test]
fn all_three_views_render_for_a_measured_workload() {
    let exp = pipeline::build_experiment(&fig1::program(1_000), &exact_cycles());
    for kind in ViewKind::ALL {
        let mut view = match kind {
            ViewKind::CallingContext => View::calling_context(&exp),
            ViewKind::Callers => View::callers(&exp),
            ViewKind::Flat => View::flat(&exp),
        };
        let text = render(
            &mut view,
            &RenderConfig {
                expand: ExpandMode::All,
                ..Default::default()
            },
        );
        assert!(text.lines().count() > 4, "{}:\n{text}", kind.title());
        assert!(text.contains("g"), "{}", kind.title());
    }
}

#[test]
fn generated_programs_survive_the_pipeline() {
    for seed in [1, 7, 23] {
        let program = generator::random_program(generator::GenConfig {
            seed,
            n_procs: 40,
            ..Default::default()
        });
        let out = pipeline::run(&program, &ExecConfig::default());
        let exp = &out.experiment;
        assert!(exp.cct.validate().is_ok());
        // Sampling accuracy: within 2% of ground truth for ~10^5+ cycles.
        let measured = exp.columns.get(ColumnId(0), exp.cct.root().0);
        let truth = out.exec.totals[Counter::Cycles] as f64;
        if truth > 100_000.0 {
            assert!(
                (measured - truth).abs() / truth < 0.02,
                "seed {seed}: measured {measured} truth {truth}"
            );
        }
    }
}

#[test]
fn overhead_is_a_few_percent_at_realistic_periods() {
    // E8 headline: asynchronous sampling costs only a few percent.
    let program = callpath_workloads::s3d::program(Default::default());
    let out = pipeline::run(&program, &ExecConfig::default());
    let frac = out.exec.overhead_fraction();
    assert!(
        frac < 0.05,
        "overhead {:.2}% must stay under a few percent",
        frac * 100.0
    );
    assert!(
        out.exec.samples_taken > 10_000,
        "enough samples for accuracy"
    );
}

#[test]
fn sampling_error_shrinks_with_period() {
    // Statistical accuracy: finer sampling periods give proportionally
    // more samples and lower attribution error at a fixed scope (the
    // error of a share p from n samples scales like sqrt(p(1-p)/n)).
    use callpath_workloads::s3d;
    let program = s3d::program(s3d::S3dConfig::default());
    let measure = |period: u64, seed: u64| -> f64 {
        let cfg = ExecConfig {
            jitter_seed: Some(seed),
            ..ExecConfig::single(Counter::Cycles, period)
        };
        let exp = pipeline::build_experiment(&program, &cfg);
        // Share of the chemkin frame (truth ~41.4%).
        let mut view = View::calling_context(&exp);
        let mut stack = view.roots();
        let mut share = 0.0;
        while let Some(n) = stack.pop() {
            if view.label(n) == "chemkin_m_reaction_rate_" {
                share = view.value(ColumnId(0), n) / exp.aggregate(ColumnId(0));
                break;
            }
            stack.extend(view.children(n));
        }
        (share - 0.414).abs()
    };
    let coarse_err: f64 = (0..4).map(|s| measure(1_000_003, s)).sum::<f64>() / 4.0;
    let fine_err: f64 = (0..4).map(|s| measure(10_007, s)).sum::<f64>() / 4.0;
    assert!(
        fine_err < coarse_err,
        "finer sampling must be more accurate: fine {fine_err:.4} vs coarse {coarse_err:.4}"
    );
    assert!(fine_err < 0.01, "fine-period error {fine_err:.4}");
}
