//! Property test: the *presentation* of an experiment is independent of
//! the storage format it travelled through. A randomly generated
//! experiment serialized as XML or as a CPDB container — the latter
//! opened eagerly or lazily — must render byte-identical
//! Calling Context, Callers and Flat views, and report identical
//! root-inclusive totals.

use callpath_core::prelude::*;
use callpath_expdb::{from_binary, from_xml, open_lazy, to_binary_v21, to_xml};
use callpath_viewer::{render, ExpandMode, RenderConfig};
use callpath_workloads::generator;
use proptest::prelude::*;

/// Render all three views of `exp` fully expanded, sorted by column 0.
fn three_views(exp: &Experiment) -> [String; 3] {
    let cfg = RenderConfig {
        sort: Some(ColumnId(0)),
        expand: ExpandMode::All,
        max_children: usize::MAX,
        ..Default::default()
    };
    [
        render(&mut View::calling_context(exp), &cfg),
        render(&mut View::callers(exp), &cfg),
        render(&mut View::flat(exp), &cfg),
    ]
}

fn root_inclusives(exp: &Experiment) -> Vec<f64> {
    let root = exp.cct.root();
    (0..exp.raw.metric_count())
        .map(|m| exp.inclusive(MetricId::from_usize(m), root))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_three_open_paths_present_identically(seed in 0u64..1000, size in 10usize..300) {
        let eager = generator::random_experiment(seed, size, 12);
        let want_views = three_views(&eager);
        let want_totals = root_inclusives(&eager);

        let via_xml = from_xml(&to_xml(&eager)).unwrap();
        let cpdb = to_binary_v21(&eager);
        let via_cpdb_eager = from_binary(&cpdb).unwrap();
        let via_cpdb_lazy = open_lazy(cpdb).unwrap();

        for (label, exp) in [
            ("xml", &via_xml),
            ("cpdb eager", &via_cpdb_eager),
            ("cpdb lazy", &via_cpdb_lazy),
        ] {
            let got_views = three_views(exp);
            for (view, (got, want)) in ["ccv", "callers", "flat"]
                .iter()
                .zip(got_views.iter().zip(want_views.iter()))
            {
                prop_assert_eq!(got, want, "{} view differs via {}", view, label);
            }
            let got_totals = root_inclusives(exp);
            prop_assert_eq!(got_totals.len(), want_totals.len(), "{}", label);
            for (m, (got, want)) in got_totals.iter().zip(&want_totals).enumerate() {
                prop_assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "metric {} total via {}: {} vs {}",
                    m, label, got, want
                );
            }
        }
    }
}
