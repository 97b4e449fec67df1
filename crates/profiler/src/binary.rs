//! The lowered "binary" image: what the simulated compiler produces and
//! what both the CPU interpreter executes and `callpath-structure`
//! analyzes.
//!
//! An image is a dense instruction stream (address = index), a line map
//! (one source location per instruction), procedure bounds, and DWARF-like
//! inline records. Loops are *not* recorded explicitly — like a real
//! binary, they exist only as backward branches, and structure recovery
//! must rediscover them (Section III-D's "information gleaned from the
//! line map of an executable" plus control flow).

use crate::counters::Costs;
use crate::program::{FileIdx, ProcIdx};

/// An instruction address: an index into [`Binary::code`].
pub type Addr = u64;

/// Source location of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineInfo {
    /// Source file index (into [`Binary::files`]).
    pub file: FileIdx,
    /// 1-based source line; 0 = unknown.
    pub line: u32,
}

/// One simulated machine instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrKind {
    /// Straight-line work consuming hardware events. Non-`scalable` work
    /// ignores the engine's per-rank `work_scale` (a serial section).
    Work {
        /// Hardware events consumed.
        costs: Costs,
        /// False = serial section (ignores the per-rank scale).
        scalable: bool,
    },
    /// Call the procedure `callee`. `max_active` bounds recursion (the
    /// simulated program's termination condition); when the callee already
    /// has that many active frames the call falls through.
    Call {
        /// Target procedure index.
        callee: ProcIdx,
        /// Recursion bound: skip the call when this many frames of the
        /// callee are already active.
        max_active: Option<u32>,
    },
    /// Backward branch closing a counted loop: control returns to `target`
    /// until the loop has executed `trips` times.
    /// Backward branch closing a counted loop: control returns to
    /// `target` until the body has run `trips` times.
    Branch {
        /// Loop header address.
        target: Addr,
        /// Total body executions.
        trips: u32,
    },
    /// SPMD synchronization point.
    /// SPMD synchronization point.
    Barrier {
        /// Barrier identity (paired across ranks by id + occurrence).
        id: u32,
    },
    /// Return from the current procedure.
    Ret,
}

/// An instruction plus its line-map entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// What the instruction does.
    pub kind: InstrKind,
    /// Source location from the line map.
    pub loc: LineInfo,
}

/// Procedure bounds within the image.
#[derive(Debug, Clone, PartialEq)]
pub struct BinProc {
    /// Procedure name.
    pub name: String,
    /// Defining file index.
    pub file: FileIdx,
    /// First source line of the definition.
    pub def_line: u32,
    /// Entry address (inclusive).
    pub lo: Addr,
    /// End address (exclusive).
    pub hi: Addr,
    /// False for binary-only routines (no line map).
    pub has_source: bool,
    /// Load module name; `None` = the image's main module.
    pub module: Option<String>,
}

/// A DWARF-style inline record: instructions in `[lo, hi)` originate from
/// `callee_name`, inlined at `call_site`. Nested inlining produces nested
/// (properly contained) ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineRange {
    /// First spliced address (inclusive).
    pub lo: Addr,
    /// End of the splice (exclusive).
    pub hi: Addr,
    /// Name of the inlined procedure.
    pub callee_name: String,
    /// Its defining file index.
    pub callee_file: FileIdx,
    /// Its first definition line.
    pub callee_def_line: u32,
    /// Where it was inlined into the host.
    pub call_site: LineInfo,
}

/// A lowered load module.
#[derive(Debug, Clone, PartialEq)]
pub struct Binary {
    /// Main load-module name.
    pub module: String,
    /// Source file names, index = file id.
    pub files: Vec<String>,
    /// Procedure bounds, in ascending address order.
    pub procs: Vec<BinProc>,
    /// The instruction stream; address = index.
    pub code: Vec<Instr>,
    /// DWARF-style inline records (properly nested).
    pub inline_ranges: Vec<InlineRange>,
    /// Index of the entry procedure.
    pub entry: ProcIdx,
}

impl Binary {
    /// The instruction at `addr`.
    pub fn instr(&self, addr: Addr) -> &Instr {
        &self.code[addr as usize]
    }

    /// The procedure containing `addr`, by bounds lookup. Procedures are
    /// laid out in ascending, non-overlapping ranges, so binary search
    /// applies.
    pub fn proc_at(&self, addr: Addr) -> Option<ProcIdx> {
        let i = self.procs.partition_point(|p| p.hi <= addr);
        (i < self.procs.len() && self.procs[i].lo <= addr).then_some(i)
    }

    /// Entry address of procedure `proc`.
    pub fn entry_addr(&self, proc: ProcIdx) -> Addr {
        self.procs[proc].lo
    }

    /// The innermost-to-outermost chain of inline ranges containing `addr`.
    pub fn inline_chain_at(&self, addr: Addr) -> Vec<&InlineRange> {
        let mut chain: Vec<&InlineRange> = self
            .inline_ranges
            .iter()
            .filter(|r| r.lo <= addr && addr < r.hi)
            .collect();
        // Innermost = smallest range first.
        chain.sort_by_key(|r| r.hi - r.lo);
        chain
    }

    /// Sanity checks: addresses dense, proc ranges ordered and disjoint,
    /// branches backward within their procedure, rets present.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev_hi = 0;
        for (i, p) in self.procs.iter().enumerate() {
            if p.lo < prev_hi {
                return Err(format!("proc {i} overlaps its predecessor"));
            }
            if p.lo >= p.hi {
                return Err(format!("proc {i} ({}) is empty", p.name));
            }
            if p.hi as usize > self.code.len() {
                return Err(format!("proc {i} extends past code end"));
            }
            if !matches!(self.code[p.hi as usize - 1].kind, InstrKind::Ret) {
                return Err(format!("proc {i} ({}) does not end in Ret", p.name));
            }
            prev_hi = p.hi;
        }
        for (a, instr) in self.code.iter().enumerate() {
            if let InstrKind::Branch { target, .. } = instr.kind {
                if target > a as Addr {
                    return Err(format!("forward branch at {a}"));
                }
                let pa = self.proc_at(a as Addr);
                let pt = self.proc_at(target);
                if pa != pt {
                    return Err(format!("branch at {a} crosses procedure bounds"));
                }
            }
        }
        for r in &self.inline_ranges {
            if r.lo >= r.hi {
                return Err("empty inline range".to_owned());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::program::{Op, ProgramBuilder};

    fn sample_binary() -> Binary {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("app.c");
        let main = b.declare("main", f, 1);
        let work = b.declare("work", f, 10);
        b.body(main, vec![Op::work(2, Costs::cycles(5)), Op::call(3, work)]);
        b.body(
            work,
            vec![Op::looped(11, 3, vec![Op::work(12, Costs::cycles(10))])],
        );
        b.entry(main);
        lower(&b.build())
    }

    #[test]
    fn proc_lookup_by_address() {
        let bin = sample_binary();
        assert!(bin.validate().is_ok());
        for p in 0..bin.procs.len() {
            let bp = &bin.procs[p];
            assert_eq!(bin.proc_at(bp.lo), Some(p));
            assert_eq!(bin.proc_at(bp.hi - 1), Some(p));
        }
        assert_eq!(bin.proc_at(bin.code.len() as Addr), None);
    }

    #[test]
    fn procs_end_in_ret() {
        let bin = sample_binary();
        for p in &bin.procs {
            assert!(matches!(bin.instr(p.hi - 1).kind, InstrKind::Ret));
        }
    }

    #[test]
    fn loops_become_backward_branches() {
        let bin = sample_binary();
        let branches: Vec<(Addr, &Instr)> = bin
            .code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i.kind, InstrKind::Branch { .. }))
            .map(|(a, i)| (a as Addr, i))
            .collect();
        assert_eq!(branches.len(), 1);
        let (addr, instr) = branches[0];
        if let InstrKind::Branch { target, trips } = instr.kind {
            assert!(target < addr);
            assert_eq!(trips, 3);
        }
    }
}
