//! A session's first render of new columns checksums their unread cost
//! blocks together before it writes a row, and the faults its rows then
//! make hash nothing again; the faults themselves stay a loop
//! (DESIGN.md §13). What a render shows must not depend on the thread
//! count: the first paint of a 16-metric lazily opened file is
//! byte-identical at `CALLPATH_THREADS=1` and `=4` and equal to the same
//! file opened eagerly; every shown column is faulted once, every cost
//! block checksummed once, and no render fans out.
//!
//! `CALLPATH_THREADS` is read once per process, and the obs counters
//! are process-wide, so each thread count runs [`first_paint_leg`] in a
//! subprocess of this test binary, which prints what the parent
//! compares.

use callpath_core::pool::{self, PoolStats};
use callpath_core::prelude::*;
use callpath_core::source::SourceStore;
use callpath_expdb::{bin2, decode_all, from_binary, open_lazy};
use callpath_viewer::{Command, Session};
use callpath_workloads::synth::{synth_model, SynthConfig};
use std::process;

const METRICS: usize = 16;
const PAINT_BEGIN: &str = "--- first paint ---";
const PAINT_END: &str = "--- end of first paint ---";

fn sixteen_metric_cpdb() -> Vec<u8> {
    bin2::write_v21(&synth_model(&SynthConfig {
        n_nodes: 4_000,
        n_metrics: METRICS,
        nnz_per_metric: 300,
        ..Default::default()
    }))
}

fn fanned_out(before: PoolStats) -> u64 {
    let after = pool::stats();
    after.tasks_run + after.tasks_stolen - before.tasks_run - before.tasks_stolen
}

fn verifies() -> u64 {
    callpath_obs::counter_value("expdb.toc.verify")
}

/// One thread count's leg: what holds in-process is asserted here, and
/// the first paint and the chunks the session ran are printed for the
/// parent.
#[test]
#[ignore = "a leg of `first_paint_is_the_same_at_every_thread_count`, which runs it"]
fn first_paint_leg() {
    let bytes = sixteen_metric_cpdb();
    let exp = open_lazy(bytes.clone()).unwrap();
    assert_eq!(exp.raw.metric_count(), METRICS);
    let verified = verifies();
    let pool_before = pool::stats();
    let mut s = Session::new(&exp, SourceStore::new());
    let first = s.render();
    for c in exp.columns.columns() {
        assert_eq!(exp.columns.fault_count(c), 1, "{c:?}");
    }
    let verified = verifies() - verified;
    if callpath_obs::enabled() {
        assert_eq!(verified, METRICS as u64, "one checksum per cost block");
    }

    // Later renders read resident columns, whose blocks passed already.
    assert_eq!(s.render(), first, "a repeat render");
    let steps = [
        Command::SortBy(ColumnId(2)),
        Command::HideColumn(ColumnId(3)),
        Command::ShowColumn(ColumnId(3)),
        Command::SwitchView(ViewKind::Callers),
        Command::SwitchView(ViewKind::CallingContext),
    ];
    let settled = verifies();
    for cmd in steps {
        s.apply(cmd.clone()).unwrap();
        s.render();
        assert_eq!(verifies(), settled, "after {cmd:?}");
    }
    let session_chunks = fanned_out(pool_before);
    let eager = from_binary(&bytes).unwrap();
    let owned = Session::new(&eager, SourceStore::new()).render();
    assert_eq!(owned, first, "the eager open renders the same text");

    // A clean open read end to end checksums each block once, although
    // `decode_all` reads every block twice: a column, then its raw costs.
    let fresh = open_lazy(bytes).unwrap();
    let verified = verifies();
    decode_all(&fresh, 0);
    if callpath_obs::enabled() {
        assert_eq!(
            verifies() - verified,
            METRICS as u64,
            "decode_all: one checksum per block"
        );
    }
    assert!(fresh.columns.lazy_errors().is_empty());

    println!("chunks {session_chunks}");
    println!("{PAINT_BEGIN}\n{first}\n{PAINT_END}");
}

struct Leg {
    chunks: u64,
    paint: String,
}

fn run_leg(threads: &str) -> Leg {
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = process::Command::new(exe)
        .args(["first_paint_leg", "--exact", "--ignored", "--nocapture"])
        .args(["--test-threads", "1"])
        .env("CALLPATH_THREADS", threads)
        .output()
        .expect("run the leg");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "CALLPATH_THREADS={threads}:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness prints the test's name on the line the leg's output
    // starts.
    let chunks = stdout
        .split_once("chunks ")
        .and_then(|(_, rest)| rest.lines().next()?.parse().ok())
        .unwrap_or_else(|| panic!("CALLPATH_THREADS={threads}: no chunk count in\n{stdout}"));
    let (_, rest) = stdout.split_once(PAINT_BEGIN).expect("a first paint");
    let (paint, _) = rest.split_once(PAINT_END).expect("the paint's end");
    Leg {
        chunks,
        paint: paint.to_owned(),
    }
}

#[test]
fn first_paint_is_the_same_at_every_thread_count() {
    let one = run_leg("1");
    let four = run_leg("4");
    assert!(one.paint.contains("(I)"), "the paint shows metric columns");
    assert_eq!(
        one.paint, four.paint,
        "the first paint differs across thread counts"
    );
    // A single chunk runs inline and is not counted, so the four-thread
    // leg is the one that shows a fan-out: the session makes none.
    assert_eq!((one.chunks, four.chunks), (0, 0));
}
