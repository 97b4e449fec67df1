//! The paper's Fig. 1 toy program, in two forms:
//!
//! * [`experiment`] — a hand-built canonical CCT carrying the *exact*
//!   costs of Fig. 2a, so the golden tests can check every number in the
//!   figure's three trees;
//! * [`program`] — a runnable [`Program`] with the same static shape
//!   (recursive `g` bounded at depth 2, loop nest `l1{l2}` in `h`), for
//!   exercising the measurement pipeline end to end.

use callpath_core::prelude::*;
use callpath_profiler::{Costs, Op, Program, ProgramBuilder};

/// Node handles of the hand-built Fig. 2a CCT, named as in the figure.
pub struct Fig2Nodes {
    /// The main routine.
    pub m: NodeId,
    /// `f`, called from `m`.
    pub f: NodeId,
    /// Outer activation of `g` (under `f`).
    pub g1: NodeId,
    /// Recursive activation of `g` (under `g1`).
    pub g2: NodeId,
    /// `g` called directly from `m`.
    pub g3: NodeId,
    /// `h`, called from `g2`.
    pub h: NodeId,
    /// Outer loop in `h`.
    pub l1: NodeId,
    /// Inner loop in `h`.
    pub l2: NodeId,
}

/// Build the canonical CCT of Fig. 2a with the figure's exact costs:
///
/// ```text
/// m (10,0) ── f (7,1) ── g1 (6,1) ── g2 (5,1) ── h (4,4) ── l1 (4,0) ── l2 (4,4)
///         └── g3 (3,3)
/// ```
///
/// The single metric is named `cost` with period 1, so attributed values
/// equal the figure's integers exactly.
pub fn experiment() -> (Experiment, Fig2Nodes) {
    let mut names = NameTable::new();
    let file1 = names.file("file1.c");
    let file2 = names.file("file2.c");
    let module = names.module("a.out");
    let p_m = names.proc("m");
    let p_f = names.proc("f");
    let p_g = names.proc("g");
    let p_h = names.proc("h");
    let mut cct = Cct::new(names);
    let root = cct.root();
    let frame = |proc, def: (FileId, u32), cs: Option<(FileId, u32)>| ScopeKind::Frame {
        proc,
        module,
        def: SourceLoc::new(def.0, def.1),
        call_site: cs.map(|(f, l)| SourceLoc::new(f, l)),
    };
    // Static shape from Fig. 1: m is defined at file1.c:6, f at file1.c:1,
    // g at file2.c:2, h at file2.c:7. m calls f at line 7 and g at line 8;
    // f calls g at line 2; g calls g at line 3 and h at line 4.
    let m = cct.add_child(root, frame(p_m, (file1, 6), None));
    let f = cct.add_child(m, frame(p_f, (file1, 1), Some((file1, 7))));
    let g1 = cct.add_child(f, frame(p_g, (file2, 2), Some((file1, 2))));
    let g2 = cct.add_child(g1, frame(p_g, (file2, 2), Some((file2, 3))));
    let h = cct.add_child(g2, frame(p_h, (file2, 7), Some((file2, 4))));
    let l1 = cct.add_child(
        h,
        ScopeKind::Loop {
            header: SourceLoc::new(file2, 8),
        },
    );
    let l2 = cct.add_child(
        l1,
        ScopeKind::Loop {
            header: SourceLoc::new(file2, 9),
        },
    );
    let g3 = cct.add_child(m, frame(p_g, (file2, 2), Some((file1, 8))));

    let stmt = |cct: &mut Cct, parent, file, line| {
        cct.add_child(
            parent,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, line),
            },
        )
    };
    let s_f = stmt(&mut cct, f, file1, 2);
    let s_g1 = stmt(&mut cct, g1, file2, 3);
    let s_g2 = stmt(&mut cct, g2, file2, 4);
    let s_g3 = stmt(&mut cct, g3, file2, 3);
    let s_l2 = stmt(&mut cct, l2, file2, 9);

    let mut raw = RawMetrics::new(StorageKind::Csr);
    let cost = raw.add_metric(MetricDesc::new("cost", "samples", 1.0));
    raw.add_cost(cost, s_f, 1.0);
    raw.add_cost(cost, s_g1, 1.0);
    raw.add_cost(cost, s_g2, 1.0);
    raw.add_cost(cost, s_g3, 3.0);
    raw.add_cost(cost, s_l2, 4.0);

    let exp = Experiment::build(cct, raw, StorageKind::Csr);
    (
        exp,
        Fig2Nodes {
            m,
            f,
            g1,
            g2,
            g3,
            h,
            l1,
            l2,
        },
    )
}

/// A runnable program with Fig. 1's static shape: two files, a recursive
/// `g` (bounded at two active frames) that conditionally calls `h`, and a
/// doubly nested loop in `h`. The dynamic shape is close to — not
/// identical with — Fig. 2a (the simulator's recursion guard re-enables
/// calls after return, so `h` appears under more than one `g` instance);
/// the *exact* figure is covered by [`experiment`]. Costs are chunky
/// enough that period-1 cycle sampling reproduces them exactly.
pub fn program(unit_cycles: u64) -> Program {
    let mut b = ProgramBuilder::new("a.out");
    let file1 = b.file("file1.c");
    let file2 = b.file("file2.c");
    let p_f = b.declare("f", file1, 1);
    let p_m = b.declare("m", file1, 6);
    let p_g = b.declare("g", file2, 2);
    let p_h = b.declare("h", file2, 7);

    // f() { g(); } with one unit of its own work at line 2.
    b.body(
        p_f,
        vec![Op::work(2, Costs::cycles(unit_cycles)), Op::call(2, p_g)],
    );
    // m() { f(); g(); }
    b.body(p_m, vec![Op::call(7, p_f), Op::call(8, p_g)]);
    // g() { work; if (..) g(); if (..) h(); } — recursion bounded at two
    // active frames, matching the g1→g2 chain of Fig. 2a.
    b.body(
        p_g,
        vec![
            Op::work(3, Costs::cycles(unit_cycles)),
            Op::call_recursive(3, p_g, 2),
            Op::call_recursive(4, p_h, 1),
        ],
    );
    // h() { for l1 { for l2 { work } } }
    b.body(
        p_h,
        vec![Op::looped(
            8,
            2,
            vec![Op::looped(
                9,
                2,
                vec![Op::work(9, Costs::cycles(unit_cycles))],
            )],
        )],
    );
    b.entry(p_m);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_built_cct_matches_fig2a() {
        let (exp, n) = experiment();
        let incl = exp.inclusive_col(MetricId(0));
        let excl = exp.exclusive_col(MetricId(0));
        let check = |node: NodeId, i: f64, e: f64, label: &str| {
            assert_eq!(exp.columns.get(incl, node.0), i, "{label} inclusive");
            assert_eq!(exp.columns.get(excl, node.0), e, "{label} exclusive");
        };
        check(n.m, 10.0, 0.0, "m");
        check(n.f, 7.0, 1.0, "f");
        check(n.g1, 6.0, 1.0, "g1");
        check(n.g2, 5.0, 1.0, "g2");
        check(n.g3, 3.0, 3.0, "g3");
        check(n.h, 4.0, 4.0, "h");
        check(n.l1, 4.0, 0.0, "l1");
        check(n.l2, 4.0, 4.0, "l2");
    }

    #[test]
    fn runnable_program_validates() {
        let p = program(10);
        assert!(p.validate().is_ok());
        assert_eq!(p.procs.len(), 4);
    }
}
