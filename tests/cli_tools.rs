//! End-to-end tests of the command-line tools: `callpath-record` writes a
//! database, `callpath-view` presents it.

use std::process::Command;

fn record() -> &'static str {
    env!("CARGO_BIN_EXE_callpath-record")
}

fn view() -> &'static str {
    env!("CARGO_BIN_EXE_callpath-view")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("callpath-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn record_then_view_hot_path() {
    let db = tmp("s3d.cpdb");
    let out = Command::new(record())
        .args(["--workload", "s3d", "-o", db.to_str().unwrap()])
        .output()
        .expect("run callpath-record");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(db.exists());

    let out = Command::new(view())
        .args([db.to_str().unwrap(), "--hot", "--columns", "0,1"])
        .output()
        .expect("run callpath-view");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chemkin_m_reaction_rate_"), "{text}");
    assert!(text.contains("41."), "{text}");
    std::fs::remove_file(&db).ok();
}

#[test]
fn xml_format_and_callers_view() {
    let db = tmp("fig1.xml");
    let out = Command::new(record())
        .args([
            "--workload",
            "fig1",
            "--format",
            "xml",
            "-o",
            db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&db).unwrap();
    assert!(content.starts_with("<Experiment"));

    let out = Command::new(view())
        .args([db.to_str().unwrap(), "--view", "callers", "--levels", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("g"), "{text}");
    std::fs::remove_file(&db).ok();
}

#[test]
fn derived_metric_and_flatten_via_cli() {
    let db = tmp("s3d2.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "s3d", "-o", db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = Command::new(view())
        .args([
            db.to_str().unwrap(),
            "--derived",
            "waste=$1*4-$3",
            "--view",
            "flat",
            "--flatten",
            "3",
            "--sort-name",
            "waste",
            "--levels",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let first_data_row = text.lines().nth(2).unwrap();
    assert!(
        first_data_row.contains("diffflux.f90"),
        "waste sort leads with the flux loop:\n{text}"
    );
    std::fs::remove_file(&db).ok();
}

#[test]
fn list_columns() {
    let db = tmp("moab.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "moab", "-o", db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = Command::new(view())
        .args([db.to_str().unwrap(), "--list-columns"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PAPI_TOT_CYC (I)"));
    assert!(text.contains("PAPI_L1_DCM (E)"));
    std::fs::remove_file(&db).ok();
}

#[test]
fn helpful_errors() {
    // Unknown workload.
    let out = Command::new(record())
        .args(["--workload", "nope", "-o", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    // Missing file.
    let out = Command::new(view())
        .args(["/no/such/file"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Bad derived formula.
    let db = tmp("err.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "fig1", "-o", db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = Command::new(view())
        .args([db.to_str().unwrap(), "--derived", "bad=$$$"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad"));
    std::fs::remove_file(&db).ok();
}

/// One format, told to the user at both ends: the retired `--format`
/// names are refused with the list of the two that remain, and a file in
/// a retired encoding is refused with the way out.
#[test]
fn retired_formats_are_refused_with_a_pointer() {
    let out = Command::new(record())
        .args(["--workload", "fig1", "--format", "bin2", "-o", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("xml|cpdb"), "{err}");

    let legacy = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/legacy_v2.cpdb");
    let out = Command::new(view()).arg(legacy).output().unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("re-record"), "{err}");
}

#[test]
fn diff_tool_finds_the_regression() {
    let base = tmp("diff-tuned.cpdb");
    let peer = tmp("diff-base.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "s3d-tuned", "-o", base.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(record())
        .args(["--workload", "s3d", "-o", peer.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = Command::new(env!("CARGO_BIN_EXE_callpath-diff"))
        .args([base.to_str().unwrap(), peer.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("diffusive_flux_"), "{text}");
    assert!(text.contains("loss:"), "{text}");
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&peer).ok();
}

/// The diff CLI's full output, byte for byte, against a golden captured
/// before `diff::fold_in` was rebased on the union-supergraph core
/// (`core::supergraph`): the N=2 path through the shared merge must
/// reproduce the old hand-rolled walk exactly.
#[test]
fn diff_output_is_byte_identical_to_the_golden() {
    let base = tmp("diff-golden-tuned.cpdb");
    let peer = tmp("diff-golden-base.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "s3d-tuned", "-o", base.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(record())
        .args(["--workload", "s3d", "-o", peer.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = Command::new(env!("CARGO_BIN_EXE_callpath-diff"))
        .args([base.to_str().unwrap(), peer.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout)
        .unwrap()
        .replace(base.to_str().unwrap(), "BASE")
        .replace(peer.to_str().unwrap(), "PEER");
    assert_eq!(
        text,
        include_str!("data/diff_s3d.golden"),
        "callpath-diff output drifted from the pre-supergraph golden"
    );
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&peer).ok();
}

/// A `.cpens` stores attributed statistics and no direct costs, so a
/// diff over one would difference empty columns and print zeros: it is
/// refused by name, whichever side it is on.
#[test]
fn diff_refuses_an_ensemble_by_name() {
    let files = [tmp("diff-a.cpens"), tmp("diff-b.cpens")].map(|p| p.display().to_string());
    for (file, runs) in files.iter().zip(["8", "12"]) {
        assert!(Command::new(env!("CARGO_BIN_EXE_callpath-ensemble"))
            .args(["build", file, "--synth", runs])
            .status()
            .unwrap()
            .success());
    }
    for (base, peer) in [(&files[0], &files[1]), (&files[1], &files[0])] {
        let out = Command::new(env!("CARGO_BIN_EXE_callpath-diff"))
            .args([base, peer, "--metric", "PAPI_ENS_00 mean"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(
            out.stdout.is_empty(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(err.contains(&format!("{base} is an ensemble")), "{err}");
    }
    for file in &files {
        std::fs::remove_file(file).ok();
    }
}

#[test]
fn record_profiles_a_cps_scenario_file() {
    let db = tmp("imagepipe.cpdb");
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/imagepipe.cps"
    );
    let out = Command::new(record())
        .args(["--program", scenario, "-o", db.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(view())
        .args([db.to_str().unwrap(), "--hot"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The low-efficiency sharpen filter dominates the pipeline.
    assert!(text.contains("sharpen"), "{text}");
    std::fs::remove_file(&db).ok();
}

#[test]
fn record_reports_scenario_parse_errors_with_lines() {
    let bad = tmp("bad.cps");
    std::fs::write(
        &bad,
        "program p\nproc x @ a.c:1\n  work @ 2\nend\nentry x\n",
    )
    .unwrap();
    let db = tmp("bad.cpdb");
    let out = Command::new(record())
        .args([
            "--program",
            bad.to_str().unwrap(),
            "-o",
            db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "{err}");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn interactive_mode_drives_a_session() {
    use std::io::Write;
    use std::process::Stdio;
    let db = tmp("repl.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "s3d", "-o", db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let mut child = Command::new(view())
        .args([db.to_str().unwrap(), "-i"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"hot\nfind transport\nbogus\nexpand 9999\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    // Failed commands in a piped (non-tty) script exit nonzero, same
    // as batch mode.
    assert!(
        !out.status.success(),
        "scripted REPL with failing commands must exit nonzero"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[  0]"), "numbered rows: {text}");
    assert!(text.contains("🔥"), "hot path ran");
    assert!(
        text.contains("transport_m_computecoefficients_"),
        "find revealed it"
    );
    // Diagnostics go to stderr; stdout stays pipeable view text.
    assert!(!text.contains("error:"), "stdout polluted: {text}");
    let errs = String::from_utf8_lossy(&out.stderr);
    assert!(errs.contains("error: unknown command 'bogus'"), "{errs}");
    assert!(errs.contains("error: no row 9999"), "{errs}");
    std::fs::remove_file(&db).ok();
}

/// A scripted REPL run where every command succeeds exits zero and
/// keeps stdout free of any diagnostic text.
#[test]
fn interactive_mode_with_clean_script_exits_zero_with_clean_stdout() {
    use std::io::Write;
    use std::process::Stdio;
    let db = tmp("repl-clean.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "s3d", "-o", db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let mut child = Command::new(view())
        .args([db.to_str().unwrap(), "-i"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"hot\nfind transport\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "clean script must exit zero");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("error:"), "stdout polluted: {text}");
    assert!(
        !text.contains("interactive mode"),
        "banner on stdout: {text}"
    );
    assert!(text.contains("🔥"), "hot path rendered");
    std::fs::remove_file(&db).ok();
}

/// `callpath-view … | head` (reader hangs up early): no panic, no error
/// text anywhere, exit zero.
#[test]
fn piped_view_with_early_reader_exit_is_quiet() {
    let db = tmp("pipe.cpdb");
    assert!(Command::new(record())
        .args(["--workload", "s3d", "-o", db.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "{} {} 2>err.txt | head -n 2; cat err.txt; rm -f err.txt",
            view(),
            db.to_str().unwrap()
        ))
        .current_dir(std::env::temp_dir())
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 2, "{text}");
    assert!(!text.contains("error"), "error text leaked: {text}");
    assert!(!text.contains("panicked"), "panic leaked: {text}");
    std::fs::remove_file(&db).ok();
}
