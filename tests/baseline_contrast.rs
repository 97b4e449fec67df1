//! E10 — Section VIII's comparison point: what the CCT views answer that
//! a gprof-style flat profile cannot.
//!
//! gprof distributes a callee's time to callers **in proportion to call
//! counts**. On Fig. 1's program, `g` is called once each from `f`, `g`
//! and `m` — so gprof splits its time evenly among callers — while the
//! calling-context truth (Fig. 2a) is that `g`-from-`f` costs twice as
//! much as `g`-from-`m` (6 vs 3). The Callers View reports the truth;
//! gprof structurally cannot.

use callpath_baseline::analyze;
use callpath_core::prelude::*;
use callpath_profiler::{execute, lower, Counter, ExecConfig};
use callpath_structure::recover;
use callpath_workloads::fig1;

/// Run Fig. 1's program with exact (period-1) cycle sampling.
fn run() -> (
    callpath_profiler::Binary,
    callpath_profiler::ExecResult,
    Experiment,
) {
    let program = fig1::program(1_000);
    let bin = lower(&program);
    let cfg = ExecConfig {
        jitter_seed: None,
        ..ExecConfig::single(Counter::Cycles, 1)
    };
    let res = execute(&bin, &cfg).unwrap();
    let s = recover(&bin).unwrap();
    let exp = callpath_prof::correlate(&s, &res.profile, cfg.periods);
    (bin, res, exp)
}

#[test]
fn gprof_splits_by_call_count() {
    let (bin, res, _) = run();
    let report = analyze(&bin, &res, 1);
    let callers = report.callers_of("g");
    // g is called from m, f and g (recursion drops from propagation).
    let from_f = callers
        .iter()
        .find(|a| bin.procs[a.caller].name == "f")
        .expect("arc f->g");
    let from_m = callers
        .iter()
        .find(|a| bin.procs[a.caller].name == "m")
        .expect("arc m->g");
    assert_eq!(from_f.count, 1);
    assert_eq!(from_m.count, 1);
    // Equal call counts => equal attribution. That is gprof's answer.
    assert!(
        (from_f.attributed_cycles - from_m.attributed_cycles).abs() < 1e-9,
        "gprof must split evenly: {} vs {}",
        from_f.attributed_cycles,
        from_m.attributed_cycles
    );
}

/// A program whose callee `w` costs wildly different amounts depending on
/// its caller: `w` calls the heavy `a` behind a reentrancy guard, so
/// `w`-inside-`a` skips the heavy work while `w`-from-`main` performs it.
/// gprof sees two `a→w` arcs vs one `main→w` arc and attributes `w`'s time
/// 2:1 *toward the cheap context* — backwards. The Callers View reports
/// the truth.
fn reentrant_program() -> callpath_profiler::Program {
    use callpath_profiler::{Costs, Op, ProgramBuilder};
    let mut b = ProgramBuilder::new("reent");
    let f = b.file("reent.c");
    let w = b.declare("w", f, 10);
    let a = b.declare("a", f, 20);
    let main = b.declare("main", f, 1);
    b.body(
        w,
        vec![
            Op::work(11, Costs::cycles(1_000)),
            Op::call_recursive(12, a, 1), // guarded: skipped while a is active
        ],
    );
    b.body(a, vec![Op::work(21, Costs::cycles(8_000)), Op::call(22, w)]);
    b.body(main, vec![Op::call(3, a), Op::call(4, w)]);
    b.entry(main);
    b.build()
}

#[test]
fn callers_view_reports_the_contextual_truth_where_gprof_inverts_it() {
    let program = reentrant_program();
    let bin = lower(&program);
    let cfg = ExecConfig {
        jitter_seed: None,
        ..ExecConfig::single(Counter::Cycles, 1)
    };
    let res = execute(&bin, &cfg).unwrap();
    let s = recover(&bin).unwrap();
    let exp = callpath_prof::correlate(&s, &res.profile, cfg.periods);

    // Truth from the Callers View: w-from-main is the expensive context.
    let mut view = View::callers(&exp);
    let w_top = view
        .roots()
        .into_iter()
        .find(|&r| view.label(r) == "w")
        .unwrap();
    let callers = view.children(w_top);
    let val = |view: &View<'_>, n: u32| view.value(ColumnId(0), n);
    let from_a = callers
        .iter()
        .copied()
        .find(|&c| view.label(c) == "a")
        .unwrap();
    let from_main = callers
        .iter()
        .copied()
        .find(|&c| view.label(c) == "main")
        .unwrap();
    assert_eq!(val(&view, from_a), 2_000.0, "two cheap activations");
    assert_eq!(val(&view, from_main), 10_000.0, "one expensive activation");

    // gprof's answer: split w's total 2:1 toward `a` — the inversion.
    let report = analyze(&bin, &res, 1);
    let arcs = report.callers_of("w");
    let g_from_a = arcs
        .iter()
        .find(|x| bin.procs[x.caller].name == "a")
        .unwrap();
    let g_from_main = arcs
        .iter()
        .find(|x| bin.procs[x.caller].name == "main")
        .unwrap();
    assert_eq!(g_from_a.count, 2);
    assert_eq!(g_from_main.count, 1);
    assert!(
        g_from_a.attributed_cycles > g_from_main.attributed_cycles,
        "gprof points at the wrong caller: a={} main={}",
        g_from_a.attributed_cycles,
        g_from_main.attributed_cycles
    );
}

#[test]
fn flat_self_times_agree_between_tools() {
    // Where gprof IS sound — context-blind self time — both tools must
    // agree exactly.
    let (bin, res, exp) = run();
    let report = analyze(&bin, &res, 1);
    let mut flat = View::flat(&exp);
    let excl = ColumnId(1);
    for entry in &report.flat {
        if entry.self_cycles == 0.0 {
            continue;
        }
        // Find the procedure in our Flat View and compare rule-1 exclusive
        // (which for these loop-free-or-owning procedures equals self
        // time over all contexts... except that the Flat View's exposed
        // aggregation can differ under recursion; g is the recursive one).
        if entry.name == "g" {
            continue;
        }
        let mut found = None;
        let mut stack = flat.roots();
        while let Some(n) = stack.pop() {
            if flat.label(n) == entry.name && !flat.is_call(n) {
                found = Some(n);
                break;
            }
            stack.extend(flat.children(n));
        }
        let n = found.unwrap_or_else(|| panic!("{} in flat view", entry.name));
        let ours = flat.value(excl, n);
        assert!(
            (ours - entry.self_cycles).abs() < 1e-6,
            "{}: flat-view {} vs gprof {}",
            entry.name,
            ours,
            entry.self_cycles
        );
    }
}

#[test]
fn gprof_report_renders() {
    let (bin, res, _) = run();
    let report = analyze(&bin, &res, 1);
    let text = callpath_baseline::render(&report, &bin);
    assert!(text.contains("Flat profile"));
    assert!(text.contains(" g\n") || text.contains(" g "), "{text}");
}
