//! The recovery pass: binary image → static structure tree.

use callpath_profiler::{Addr, Binary, InstrKind, LineInfo};

/// A recovered static scope inside a procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum Scope {
    /// A loop discovered from a backward branch. `header` is the source
    /// location of the loop (taken from the branch instruction's line-map
    /// entry, which the compiler points at the loop header).
    Loop {
        /// Source location of the loop (from the branch's line-map entry).
        header: LineInfo,
    },
    /// An inlined procedure body.
    Inline {
        /// Name of the inlined procedure.
        callee_name: String,
        /// Its defining file index.
        callee_file: usize,
        /// Its first definition line.
        callee_def_line: u32,
        /// Where it was inlined into the host.
        call_site: LineInfo,
    },
}

/// A node in a procedure's scope tree. Ranges are half-open `[lo, hi)` and
/// properly nested; children are stored by index into
/// [`ProcStructure::nodes`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeNode {
    /// What the scope is.
    pub scope: Scope,
    /// First covered address (inclusive).
    pub lo: Addr,
    /// End of the covered range (exclusive).
    pub hi: Addr,
    /// Nested scopes, by index into [`ProcStructure::nodes`].
    pub children: Vec<usize>,
}

/// Recovered structure of one procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcStructure {
    /// Procedure name.
    pub name: String,
    /// Defining file index.
    pub file: usize,
    /// First source line of the definition.
    pub def_line: u32,
    /// Entry address (inclusive).
    pub lo: Addr,
    /// End address (exclusive).
    pub hi: Addr,
    /// False for binary-only routines.
    pub has_source: bool,
    /// Load module name; `None` = the main module.
    pub module: Option<String>,
    /// All scope nodes of this procedure.
    pub nodes: Vec<ScopeNode>,
    /// Indices of top-level scopes (directly inside the procedure).
    pub top: Vec<usize>,
}

impl ProcStructure {
    /// The scopes containing `addr`, outermost first, found as the
    /// iterator advances: the correlator's per-sample walk.
    pub fn scopes_at(&self, addr: Addr) -> impl Iterator<Item = usize> + '_ {
        let mut level = &self.top;
        std::iter::from_fn(move || {
            let i = *level.iter().find(|&&i| {
                let n = &self.nodes[i];
                n.lo <= addr && addr < n.hi
            })?;
            level = &self.nodes[i].children;
            Some(i)
        })
    }

    /// Scope chain containing `addr`, outermost first.
    pub fn scope_chain(&self, addr: Addr) -> Vec<usize> {
        self.scopes_at(addr).collect()
    }
}

/// Recovered structure of a whole load module.
#[derive(Debug, Clone, PartialEq)]
pub struct Structure {
    /// Main load-module name.
    pub module: String,
    /// Source file names, index = file id.
    pub files: Vec<String>,
    /// Per-procedure recovered structure, ascending address order.
    pub procs: Vec<ProcStructure>,
    /// Copy of the binary's line map (structure files ship the line map to
    /// the correlation tool).
    pub line_map: Vec<LineInfo>,
}

impl Structure {
    /// Line-map entry of the instruction at `addr`.
    pub fn line_of(&self, addr: Addr) -> LineInfo {
        self.line_map[addr as usize]
    }

    /// Procedure containing `addr` (bounds are sorted and disjoint).
    pub fn proc_at(&self, addr: Addr) -> Option<usize> {
        let i = self.procs.partition_point(|p| p.hi <= addr);
        (i < self.procs.len() && self.procs[i].lo <= addr).then_some(i)
    }

    /// Scope chain (outermost first) of the scopes containing `addr`, as
    /// `(proc index, node indices within that proc)`.
    pub fn scope_chain(&self, addr: Addr) -> Option<(usize, Vec<usize>)> {
        let p = self.proc_at(addr)?;
        Some((p, self.procs[p].scope_chain(addr)))
    }
}

/// Half-recovered interval, before tree construction.
#[derive(Debug, Clone)]
struct Interval {
    lo: Addr,
    hi: Addr,
    scope: Scope,
    /// When a loop range and an inline range have identical bounds, the
    /// inline splice wrapped a body that ends with its own loop's branch,
    /// so the inline is the *outer* scope: inlines get priority 0, loops
    /// 1, and the sort puts the inline outside.
    priority: u8,
}

/// Recover static structure from a binary image.
///
/// Loops: every `Branch { target }` instruction at address `a` with
/// `target <= a` closes a loop spanning `[target, a]`; each back edge is
/// one loop (our lowering emits exactly one branch per counted loop).
///
/// The recovered intervals (loops + inline ranges) must be properly
/// nested; crossing ranges indicate a corrupt image and are reported as an
/// error.
pub fn recover(binary: &Binary) -> Result<Structure, String> {
    let mut procs = Vec::with_capacity(binary.procs.len());
    for bp in &binary.procs {
        let mut intervals: Vec<Interval> = Vec::new();
        // Loop discovery from backward branches. Each back edge closes one
        // loop spanning [target, branch]. Nested loops whose bodies start
        // at the same instruction share a target address; they stay
        // distinct loops (with identical `lo` and different `hi`), which
        // the containment sort below nests correctly.
        for a in bp.lo..bp.hi {
            if let InstrKind::Branch { target, .. } = binary.instr(a).kind {
                intervals.push(Interval {
                    lo: target,
                    hi: a + 1,
                    scope: Scope::Loop {
                        header: binary.instr(a).loc,
                    },
                    priority: 1,
                });
            }
        }
        // Inline ranges within this procedure.
        for r in &binary.inline_ranges {
            if r.lo >= bp.lo && r.hi <= bp.hi {
                intervals.push(Interval {
                    lo: r.lo,
                    hi: r.hi,
                    scope: Scope::Inline {
                        callee_name: r.callee_name.clone(),
                        callee_file: r.callee_file,
                        callee_def_line: r.callee_def_line,
                        call_site: r.call_site,
                    },
                    priority: 0,
                });
            }
        }
        // Sort outermost-first: by lo ascending, then size descending,
        // then inline-before-loop for equal ranges.
        intervals.sort_by(|x, y| {
            x.lo.cmp(&y.lo)
                .then((y.hi - y.lo).cmp(&(x.hi - x.lo)))
                .then(x.priority.cmp(&y.priority))
        });
        // Stack-based nesting.
        let mut nodes: Vec<ScopeNode> = Vec::with_capacity(intervals.len());
        let mut top: Vec<usize> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for iv in intervals {
            while let Some(&t) = stack.last() {
                if iv.lo >= nodes[t].hi {
                    stack.pop();
                } else if iv.hi > nodes[t].hi {
                    return Err(format!(
                        "crossing scope ranges in {}: [{},{}) vs [{},{})",
                        bp.name, iv.lo, iv.hi, nodes[t].lo, nodes[t].hi
                    ));
                } else {
                    break;
                }
            }
            let idx = nodes.len();
            nodes.push(ScopeNode {
                scope: iv.scope,
                lo: iv.lo,
                hi: iv.hi,
                children: Vec::new(),
            });
            match stack.last() {
                Some(&parent) => nodes[parent].children.push(idx),
                None => top.push(idx),
            }
            stack.push(idx);
        }
        procs.push(ProcStructure {
            name: bp.name.clone(),
            file: bp.file,
            def_line: bp.def_line,
            lo: bp.lo,
            hi: bp.hi,
            has_source: bp.has_source,
            module: bp.module.clone(),
            nodes,
            top,
        });
    }
    Ok(Structure {
        module: binary.module.clone(),
        files: binary.files.clone(),
        procs,
        line_map: binary.code.iter().map(|i| i.loc).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_profiler::{lower, Costs, Op, ProgramBuilder};

    fn recover_program(build: impl FnOnce(&mut ProgramBuilder)) -> (Binary, Structure) {
        let mut b = ProgramBuilder::new("app");
        build(&mut b);
        let bin = lower(&b.build());
        let s = recover(&bin).expect("recovery");
        (bin, s)
    }

    #[test]
    fn recovers_nested_loops() {
        let (_bin, s) = recover_program(|b| {
            let f = b.file("file2.c");
            let h = b.declare("h", f, 7);
            b.body(
                h,
                vec![Op::looped(
                    8,
                    2,
                    vec![Op::looped(9, 4, vec![Op::work(9, Costs::cycles(1))])],
                )],
            );
            b.entry(h);
        });
        let p = &s.procs[0];
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.top.len(), 1);
        let outer = &p.nodes[p.top[0]];
        assert!(matches!(outer.scope, Scope::Loop { header } if header.line == 8));
        assert_eq!(outer.children.len(), 1);
        let inner = &p.nodes[outer.children[0]];
        assert!(matches!(inner.scope, Scope::Loop { header } if header.line == 9));
        assert!(inner.lo >= outer.lo && inner.hi <= outer.hi);
    }

    #[test]
    fn scope_chain_is_outermost_first() {
        let (bin, s) = recover_program(|b| {
            let f = b.file("a.c");
            let h = b.declare("h", f, 7);
            b.body(
                h,
                vec![Op::looped(
                    8,
                    2,
                    vec![Op::looped(9, 4, vec![Op::work(10, Costs::cycles(1))])],
                )],
            );
            b.entry(h);
        });
        // The work instruction is the first one of proc 0.
        let work_addr = bin.procs[0].lo;
        let (p, chain) = s.scope_chain(work_addr).unwrap();
        assert_eq!(p, 0);
        assert_eq!(chain.len(), 2);
        let lines: Vec<u32> = chain
            .iter()
            .map(|&i| match s.procs[0].nodes[i].scope {
                Scope::Loop { header } => header.line,
                _ => 0,
            })
            .collect();
        assert_eq!(lines, vec![8, 9]);
    }

    #[test]
    fn recovers_inline_tree_inside_loop() {
        let (bin, s) = recover_program(|b| {
            let f1 = b.file("mesh.cc");
            let f2 = b.file("stl_tree.h");
            let cmp = b.declare("SequenceCompare", f2, 300);
            let find = b.declare("rb_find", f2, 200);
            let get = b.declare("get_coords", f1, 680);
            b.body(cmp, vec![Op::work(301, Costs::memory(20, 5))]);
            b.body(
                find,
                vec![Op::looped(201, 8, vec![Op::call_inline(202, cmp)])],
            );
            b.body(
                get,
                vec![Op::looped(685, 100, vec![Op::call_inline(686, find)])],
            );
            b.entry(get);
        });
        let get_idx = s.procs.iter().position(|p| p.name == "get_coords").unwrap();
        let p = &s.procs[get_idx];
        // Top scope: the loop at 685; inside it the inlined rb_find; inside
        // that the inlined search loop at 201; inside that SequenceCompare.
        assert_eq!(p.top.len(), 1);
        let l = &p.nodes[p.top[0]];
        assert!(matches!(l.scope, Scope::Loop { header } if header.line == 685));
        let inl_find = &p.nodes[l.children[0]];
        assert!(
            matches!(&inl_find.scope, Scope::Inline { callee_name, .. } if callee_name == "rb_find")
        );
        let search_loop = &p.nodes[inl_find.children[0]];
        assert!(matches!(search_loop.scope, Scope::Loop { header } if header.line == 201));
        let inl_cmp = &p.nodes[search_loop.children[0]];
        assert!(
            matches!(&inl_cmp.scope, Scope::Inline { callee_name, .. } if callee_name == "SequenceCompare")
        );
        let _ = bin;
    }

    #[test]
    fn straight_line_proc_has_no_scopes() {
        let (_bin, s) = recover_program(|b| {
            let f = b.file("a.c");
            let m = b.declare("m", f, 1);
            b.body(m, vec![Op::work(2, Costs::cycles(5))]);
            b.entry(m);
        });
        assert_eq!(s.procs[0].nodes.len(), 0);
    }

    #[test]
    fn line_map_is_preserved() {
        let (bin, s) = recover_program(|b| {
            let f = b.file("a.c");
            let m = b.declare("m", f, 1);
            b.body(m, vec![Op::work(42, Costs::cycles(5))]);
            b.entry(m);
        });
        let work_addr = bin.procs[0].lo;
        assert_eq!(s.line_of(work_addr).line, 42);
        assert_eq!(s.line_map.len(), bin.code.len());
    }

    #[test]
    fn proc_lookup_matches_binary() {
        let (bin, s) = recover_program(|b| {
            let f = b.file("a.c");
            let m = b.declare("m", f, 1);
            let g = b.declare("g", f, 10);
            b.body(m, vec![Op::call(2, g)]);
            b.body(g, vec![Op::work(11, Costs::cycles(1))]);
            b.entry(m);
        });
        for a in 0..bin.code.len() as Addr {
            assert_eq!(s.proc_at(a), bin.proc_at(a), "addr {a}");
        }
    }

    #[test]
    fn call_inside_loop_is_detectable() {
        // The paper's Fig. 3 point: call sites nested within loops.
        let (bin, s) = recover_program(|b| {
            let f = b.file("integrate_erk.f90");
            let rhsf = b.declare("rhsf", f, 200);
            let main = b.declare("integrate", f, 80);
            b.body(rhsf, vec![Op::work(201, Costs::cycles(10))]);
            b.body(main, vec![Op::looped(82, 5, vec![Op::call(83, rhsf)])]);
            b.entry(main);
        });
        // Find the call instruction.
        let call_addr = (0..bin.code.len() as Addr)
            .find(|&a| matches!(bin.instr(a).kind, InstrKind::Call { .. }))
            .unwrap();
        let (p, chain) = s.scope_chain(call_addr).unwrap();
        assert_eq!(s.procs[p].name, "integrate");
        assert_eq!(chain.len(), 1, "the call sits inside one loop");
        assert!(
            matches!(s.procs[p].nodes[chain[0]].scope, Scope::Loop { header } if header.line == 82)
        );
    }
}
