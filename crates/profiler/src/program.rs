//! High-level program models: the "source code" our simulated applications
//! are written in.
//!
//! A [`Program`] is a set of procedures whose bodies are sequences of
//! [`Op`]s — work chunks, loops, calls (possibly inlined, possibly
//! guarded recursion) and synchronization barriers. The lowering pass
//! (`crate::lower`) compiles a program to a linear instruction stream with
//! addresses, a line map and inline records, exactly the artifacts a real
//! binary gives `hpcstruct`.

use crate::counters::Costs;

/// Index of a procedure within its program.
pub type ProcIdx = usize;
/// Index of a source file within its program.
pub type FileIdx = usize;

/// One operation in a procedure body.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A chunk of straight-line work at a source line. `scalable` work
    /// shrinks/grows with the per-rank `work_scale` (domain-decomposed
    /// computation); non-scalable work is a serial section that costs the
    /// same on every rank — the classic strong-scaling bottleneck.
    Work {
        /// Source line of the statement.
        line: u32,
        /// Hardware events consumed.
        costs: Costs,
        /// False = serial section (ignores the per-rank work scale).
        scalable: bool,
    },
    /// A counted loop: the body executes `trips` times (`trips >= 1`).
    Loop {
        /// Loop header line.
        line: u32,
        /// Iteration count (>= 1).
        trips: u32,
        /// Loop body.
        body: Vec<Op>,
    },
    /// A procedure call. `inline` splices the callee's body into the
    /// caller at lowering time (the call disappears from the dynamic call
    /// chain, as with `_intel_fast_memset`-style compiler inlining the
    /// paper's Fig. 5 dissects). `max_active` bounds recursion: the call
    /// is skipped when the callee already has that many active frames.
    Call {
        /// Call-site line.
        line: u32,
        /// Target procedure.
        callee: ProcIdx,
        /// Compiler-inlined: the callee's body is spliced at lowering.
        inline: bool,
        /// Recursion bound: skip while this many frames are active.
        max_active: Option<u32>,
    },
    /// A synchronization barrier (SPMD executions only): ranks wait here
    /// for each other; waiting time becomes IDLENESS (Section VI-C).
    /// A synchronization barrier (SPMD executions only): ranks wait here
    /// for each other; waiting time becomes IDLENESS (Section VI-C).
    Barrier {
        /// Source line of the barrier call.
        line: u32,
        /// Barrier identity.
        id: u32,
    },
}

impl Op {
    /// Scalable straight-line work at `line`.
    pub fn work(line: u32, costs: Costs) -> Op {
        Op::Work {
            line,
            costs,
            scalable: true,
        }
    }

    /// A serial section: ignores the per-rank work scale.
    pub fn work_fixed(line: u32, costs: Costs) -> Op {
        Op::Work {
            line,
            costs,
            scalable: false,
        }
    }

    /// A plain call.
    pub fn call(line: u32, callee: ProcIdx) -> Op {
        Op::Call {
            line,
            callee,
            inline: false,
            max_active: None,
        }
    }

    /// A compiler-inlined call (no dynamic frame).
    pub fn call_inline(line: u32, callee: ProcIdx) -> Op {
        Op::Call {
            line,
            callee,
            inline: true,
            max_active: None,
        }
    }

    /// A recursion-bounded call: skipped while `max_active` frames of the
    /// callee are live.
    pub fn call_recursive(line: u32, callee: ProcIdx, max_active: u32) -> Op {
        Op::Call {
            line,
            callee,
            inline: false,
            max_active: Some(max_active),
        }
    }

    /// A counted loop.
    pub fn looped(line: u32, trips: u32, body: Vec<Op>) -> Op {
        Op::Loop { line, trips, body }
    }
}

/// A procedure definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcDef {
    /// Procedure name.
    pub name: String,
    /// Defining source file.
    pub file: FileIdx,
    /// First source line of the definition.
    pub def_line: u32,
    /// The operations the procedure executes, in order.
    pub body: Vec<Op>,
    /// Procedures without source (binary-only runtime routines) render in
    /// plain black in the navigation pane.
    pub has_source: bool,
    /// Load module housing the procedure; `None` = the program's main
    /// module. Library routines (libm, libirc, MPI) live in their own
    /// modules, and the Flat View groups them accordingly.
    pub module: Option<String>,
}

/// A whole program: one load module.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Load module name.
    pub name: String,
    /// Source file names, index = file id.
    pub files: Vec<String>,
    /// Procedure definitions, index = procedure id.
    pub procs: Vec<ProcDef>,
    /// Index of the start procedure.
    pub entry: ProcIdx,
}

impl Program {
    /// Structural validation: indices in range, loop trip counts positive,
    /// no *unguarded* call cycles (guarded recursion is fine), and no
    /// inline cycles at all (inlining a cycle would not terminate).
    pub fn validate(&self) -> Result<(), String> {
        if self.entry >= self.procs.len() {
            return Err(format!("entry {} out of range", self.entry));
        }
        for (pi, p) in self.procs.iter().enumerate() {
            if p.file >= self.files.len() {
                return Err(format!("proc {} ({}): bad file index", pi, p.name));
            }
            Self::validate_body(&p.body, pi, self.procs.len())?;
        }
        // Inline cycles: DFS over inline edges only.
        let mut state = vec![0u8; self.procs.len()]; // 0=unvisited 1=active 2=done
        for pi in 0..self.procs.len() {
            self.check_inline_cycles(pi, &mut state)?;
        }
        // Unguarded call cycles.
        let mut state = vec![0u8; self.procs.len()];
        for pi in 0..self.procs.len() {
            self.check_call_cycles(pi, &mut state)?;
        }
        Ok(())
    }

    fn validate_body(body: &[Op], proc: ProcIdx, n_procs: usize) -> Result<(), String> {
        for op in body {
            match op {
                Op::Work { costs, .. } => {
                    if costs.is_zero() {
                        return Err(format!("proc {proc}: zero-cost work op"));
                    }
                }
                Op::Loop { trips, body, .. } => {
                    if *trips == 0 {
                        return Err(format!("proc {proc}: loop with zero trips"));
                    }
                    Self::validate_body(body, proc, n_procs)?;
                }
                Op::Call { callee, .. } => {
                    if *callee >= n_procs {
                        return Err(format!("proc {proc}: callee {callee} out of range"));
                    }
                }
                Op::Barrier { .. } => {}
            }
        }
        Ok(())
    }

    fn check_inline_cycles(&self, pi: ProcIdx, state: &mut [u8]) -> Result<(), String> {
        match state[pi] {
            1 => {
                return Err(format!(
                    "inline cycle through procedure {} ({})",
                    pi, self.procs[pi].name
                ))
            }
            2 => return Ok(()),
            _ => {}
        }
        state[pi] = 1;
        let mut stack = vec![&self.procs[pi].body];
        let mut callees = Vec::new();
        while let Some(body) = stack.pop() {
            for op in body {
                match op {
                    Op::Loop { body, .. } => stack.push(body),
                    Op::Call {
                        callee,
                        inline: true,
                        ..
                    } => callees.push(*callee),
                    _ => {}
                }
            }
        }
        for c in callees {
            self.check_inline_cycles(c, state)?;
        }
        state[pi] = 2;
        Ok(())
    }

    fn check_call_cycles(&self, pi: ProcIdx, state: &mut [u8]) -> Result<(), String> {
        match state[pi] {
            1 => {
                return Err(format!(
                    "unguarded call cycle through procedure {} ({}); \
                     use Op::call_recursive with a depth bound",
                    pi, self.procs[pi].name
                ))
            }
            2 => return Ok(()),
            _ => {}
        }
        state[pi] = 1;
        let mut stack = vec![&self.procs[pi].body];
        let mut callees = Vec::new();
        while let Some(body) = stack.pop() {
            for op in body {
                match op {
                    Op::Loop { body, .. } => stack.push(body),
                    Op::Call {
                        callee,
                        max_active: None,
                        ..
                    } => callees.push(*callee),
                    _ => {}
                }
            }
        }
        for c in callees {
            self.check_call_cycles(c, state)?;
        }
        state[pi] = 2;
        Ok(())
    }
}

/// Fluent builder for programs, used heavily by `callpath-workloads`.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    files: Vec<String>,
    procs: Vec<ProcDef>,
    entry: Option<ProcIdx>,
}

impl ProgramBuilder {
    /// Start building a program named `name` (also its main load module).
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Intern a source file name.
    pub fn file(&mut self, name: &str) -> FileIdx {
        if let Some(i) = self.files.iter().position(|f| f == name) {
            return i;
        }
        self.files.push(name.to_owned());
        self.files.len() - 1
    }

    /// Declare a procedure with an empty body; fill it later with
    /// [`ProgramBuilder::body`]. Declaration-before-use lets mutually
    /// referencing procedures be wired up.
    pub fn declare(&mut self, name: &str, file: FileIdx, def_line: u32) -> ProcIdx {
        self.procs.push(ProcDef {
            name: name.to_owned(),
            file,
            def_line,
            body: Vec::new(),
            has_source: true,
            module: None,
        });
        self.procs.len() - 1
    }

    /// Declare a procedure housed in a shared library / separate load
    /// module (e.g. `libm.so`). The Flat View groups it under that module.
    pub fn declare_in_module(
        &mut self,
        name: &str,
        module: &str,
        file: FileIdx,
        def_line: u32,
    ) -> ProcIdx {
        let idx = self.declare(name, file, def_line);
        self.procs[idx].module = Some(module.to_owned());
        idx
    }

    /// Declare a binary-only procedure (no source link; rendered in plain
    /// black by the viewer, like the `main` wrapper in Fig. 3).
    pub fn declare_binary_only(&mut self, name: &str) -> ProcIdx {
        let file = self.file("<unknown>");
        let idx = self.declare(name, file, 0);
        self.procs[idx].has_source = false;
        idx
    }

    /// Set a declared procedure's body.
    pub fn body(&mut self, proc: ProcIdx, body: Vec<Op>) -> &mut Self {
        self.procs[proc].body = body;
        self
    }

    /// Move a procedure into a named load module.
    pub fn set_module(&mut self, proc: ProcIdx, module: &str) -> &mut Self {
        self.procs[proc].module = Some(module.to_owned());
        self
    }

    /// Select the start procedure.
    pub fn entry(&mut self, proc: ProcIdx) -> &mut Self {
        self.entry = Some(proc);
        self
    }

    /// Validate and produce the program; panics if invalid (see
    /// [`ProgramBuilder::try_build`] for the fallible form).
    pub fn build(self) -> Program {
        match self.try_build() {
            Ok(p) => p,
            Err(e) => panic!("invalid program: {e}"),
        }
    }

    /// Non-panicking build, for untrusted inputs (e.g. the text DSL).
    pub fn try_build(self) -> Result<Program, String> {
        let program = Program {
            name: self.name,
            files: self.files,
            procs: self.procs,
            entry: self.entry.ok_or("entry procedure not set")?,
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Costs;

    fn two_proc_program() -> Program {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("app.c");
        let main = b.declare("main", f, 1);
        let work = b.declare("work", f, 10);
        b.body(main, vec![Op::call(3, work)]);
        b.body(work, vec![Op::work(11, Costs::cycles(100))]);
        b.entry(main);
        b.build()
    }

    #[test]
    fn builder_produces_valid_program() {
        let p = two_proc_program();
        assert_eq!(p.procs.len(), 2);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn file_interning_in_builder() {
        let mut b = ProgramBuilder::new("x");
        let a = b.file("a.c");
        let a2 = b.file("a.c");
        let c = b.file("c.c");
        assert_eq!(a, a2);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_zero_trip_loop() {
        let mut p = two_proc_program();
        p.procs[1].body = vec![Op::looped(11, 0, vec![Op::work(12, Costs::cycles(1))])];
        assert!(p.validate().unwrap_err().contains("zero trips"));
    }

    #[test]
    fn rejects_zero_cost_work() {
        let mut p = two_proc_program();
        p.procs[1].body = vec![Op::work(11, Costs::ZERO)];
        assert!(p.validate().unwrap_err().contains("zero-cost"));
    }

    #[test]
    fn rejects_out_of_range_callee() {
        let mut p = two_proc_program();
        p.procs[0].body = vec![Op::call(3, 99)];
        assert!(p.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn rejects_unguarded_recursion() {
        let mut p = two_proc_program();
        p.procs[1].body = vec![
            Op::work(11, Costs::cycles(1)),
            Op::call(12, 1), // work calls itself, unguarded
        ];
        assert!(p.validate().unwrap_err().contains("unguarded call cycle"));
    }

    #[test]
    fn accepts_guarded_recursion() {
        let mut p = two_proc_program();
        p.procs[1].body = vec![Op::work(11, Costs::cycles(1)), Op::call_recursive(12, 1, 4)];
        assert!(p.validate().is_ok());
    }

    #[test]
    fn rejects_inline_cycle() {
        let mut p = two_proc_program();
        p.procs[0].body = vec![Op::call_inline(3, 1)];
        p.procs[1].body = vec![Op::call_inline(11, 0)];
        assert!(p.validate().unwrap_err().contains("inline cycle"));
    }

    #[test]
    fn binary_only_procs_have_no_source() {
        let mut b = ProgramBuilder::new("x");
        let rt = b.declare_binary_only("__libc_start");
        let f = b.file("m.c");
        let main = b.declare("main", f, 1);
        b.body(main, vec![Op::work(2, Costs::cycles(1))]);
        b.body(rt, vec![Op::call(0, main)]);
        b.entry(rt);
        let p = b.build();
        assert!(!p.procs[rt].has_source);
        assert!(p.procs[main].has_source);
    }

    #[test]
    #[should_panic(expected = "invalid program")]
    fn build_panics_on_invalid() {
        let mut b = ProgramBuilder::new("x");
        let f = b.file("a.c");
        let main = b.declare("main", f, 1);
        b.body(main, vec![Op::call(2, main)]); // unguarded self-recursion
        b.entry(main);
        let _ = b.build();
    }
}
