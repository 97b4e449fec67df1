//! Umbrella crate re-exporting the callpath workspace. See README.md.
pub use callpath_analyze as analyze;
pub use callpath_baseline as baseline;
pub use callpath_core as core;
pub use callpath_expdb as expdb;
pub use callpath_obs as obs;
pub use callpath_parallel as parallel;
pub use callpath_prof as prof;
pub use callpath_profiler as profiler;
pub use callpath_serve as serve;
pub use callpath_structure as structure;
pub use callpath_viewer as viewer;
pub use callpath_workloads as workloads;

/// Shared plumbing for the CLI binaries: the `--stats` JSON dump and the
/// `--self-profile` experiment export, identical across `callpath-view`,
/// `callpath-record` and `callpath-diff`.
pub mod cli {
    use callpath_core::experiment::Experiment;
    use callpath_obs as obs;

    /// Fold the experiment's lazy-fault failures into `snap.errors`, so
    /// the `--stats` dump surfaces *every* distinct corrupt-column error
    /// even when instrumentation is compiled out. Reasons the obs hooks
    /// already recorded (with a `column N:`/`metric N:` prefix) are not
    /// duplicated.
    pub fn merge_lazy_errors(snap: &mut obs::Snapshot, exp: &Experiment) {
        for msg in exp
            .columns
            .lazy_errors()
            .into_iter()
            .chain(exp.raw.lazy_errors())
        {
            if !snap.errors.iter().any(|(m, _)| m.contains(&msg)) {
                snap.errors.push((msg, 1));
            }
        }
    }

    /// Print the `--stats` JSON document to stderr (stderr so it composes
    /// with a piped render on stdout).
    pub fn emit_stats(exp: Option<&Experiment>) {
        let mut snap = obs::snapshot();
        if let Some(exp) = exp {
            merge_lazy_errors(&mut snap, exp);
        }
        eprint!("{}", snap.to_json());
    }

    /// Export the recorded span tree as a `.cpdb` experiment database
    /// at `path` — the tool's own profile, openable by `callpath-view` in
    /// all three views.
    pub fn write_self_profile(path: &str) -> Result<(), String> {
        let exp = obs::to_experiment(&obs::snapshot());
        std::fs::write(path, callpath_expdb::to_binary_v21(&exp))
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
}
