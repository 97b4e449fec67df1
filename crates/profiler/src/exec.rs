//! The simulated CPU: executes a lowered [`Binary`] with a virtual clock
//! and hardware event counters, taking asynchronous statistical samples —
//! the `hpcrun` substitute.
//!
//! Sampling works the way hardware counter overflow interrupts do: each
//! sampled counter has a period; whenever the accumulated event count
//! crosses a period boundary, the engine records one sample attributing
//! the *current* call path (the stack of call-site addresses) and the
//! current instruction pointer. Work chunks are atomic, so a chunk that
//! crosses several boundaries yields several samples at its address —
//! matching how an interrupt lands on the instruction that overflowed the
//! counter.
//!
//! Each sample also charges a configurable tool overhead
//! (`sample_cost_cycles`), which `tests/pipeline_end_to_end.rs` uses to
//! check the paper's "only a few percent overhead" claim for asynchronous
//! sampling (E8).

use crate::binary::{Addr, Binary, InstrKind};
use crate::counters::{Costs, Counter};
use crate::program::ProcIdx;
use crate::rawprofile::{RawProfile, NO_CALL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Sampling period per counter; 0 disables sampling of that counter.
    pub periods: [u64; Counter::COUNT],
    /// Multiplier applied to every Work cost (per-rank load imbalance).
    pub work_scale: f64,
    /// Randomize each counter's initial phase within one period. Keeps
    /// periodic loops from aliasing with the sampling clock. `None` means
    /// phase = period exactly (fully deterministic placement).
    pub jitter_seed: Option<u64>,
    /// Tool overhead charged per recorded sample (cycles).
    pub sample_cost_cycles: u64,
    /// Safety bound on executed instructions.
    pub max_steps: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            periods: {
                let mut p = [0; Counter::COUNT];
                p[Counter::Cycles as usize] = 1009; // prime periods resist aliasing
                p[Counter::FpOps as usize] = 1013;
                p[Counter::L1DcMisses as usize] = 211;
                p
            },
            work_scale: 1.0,
            jitter_seed: Some(0x5EED),
            sample_cost_cycles: 3,
            max_steps: 500_000_000,
        }
    }
}

impl ExecConfig {
    /// Sample only `counter` with the given period.
    pub fn single(counter: Counter, period: u64) -> Self {
        let mut c = ExecConfig {
            periods: [0; Counter::COUNT],
            ..Default::default()
        };
        c.periods[counter as usize] = period;
        c
    }
}

/// A rank's arrival at a synchronization barrier: virtual time plus the
/// full calling context, so idleness can later be attributed in context.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierArrival {
    /// Barrier identity.
    pub id: u32,
    /// Arrival order within this rank's execution (barriers execute in
    /// program order; the pairing across ranks is by (id, occurrence)).
    pub occurrence: u32,
    /// The rank's own-work cycle count at arrival.
    pub time_cycles: u64,
    /// Call path: (call address, callee) outermost-first.
    pub path: Vec<(Addr, ProcIdx)>,
    /// Address of the barrier instruction.
    pub addr: Addr,
}

/// Result of one simulated execution.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// The sampled call path profile.
    pub profile: RawProfile,
    /// Ground-truth event totals (what a perfect profiler would report).
    pub totals: Costs,
    /// Barrier arrivals, in program order.
    pub barrier_arrivals: Vec<BarrierArrival>,
    /// Number of samples recorded.
    pub samples_taken: u64,
    /// Total tool overhead in cycles (samples × per-sample cost).
    pub overhead_cycles: u64,
    /// Dynamically executed instruction count (simulator steps).
    pub steps: u64,
    /// Exact call-arc counts `(caller, callee) -> calls`, the equivalent of
    /// gprof's `mcount` instrumentation (used by `callpath-baseline`).
    pub call_arcs: std::collections::HashMap<(ProcIdx, ProcIdx), u64>,
}

impl ExecResult {
    /// Measurement overhead as a fraction of application cycles.
    pub fn overhead_fraction(&self) -> f64 {
        let app = self.totals[Counter::Cycles] as f64;
        if app == 0.0 {
            0.0
        } else {
            self.overhead_cycles as f64 / app
        }
    }
}

struct Frame {
    /// Address of the call instruction (NO_CALL for the entry frame).
    call_addr: Addr,
    callee: ProcIdx,
    ret: Option<Addr>,
    /// Active counted loops in this frame: (branch address, remaining
    /// repeats).
    loops: Vec<(Addr, u32)>,
}

/// Execute `binary` under `config`.
pub fn execute(binary: &Binary, config: &ExecConfig) -> Result<ExecResult, String> {
    let mut rng = config.jitter_seed.map(StdRng::seed_from_u64);
    let mut acc = Costs::ZERO;
    let mut next_threshold = [u64::MAX; Counter::COUNT];
    for c in Counter::ALL {
        let period = config.periods[c as usize];
        if period > 0 {
            let phase = match &mut rng {
                Some(r) => r.gen_range(1..=period),
                None => period,
            };
            next_threshold[c as usize] = phase;
        }
    }

    let mut profile = RawProfile::new();
    let mut barrier_arrivals: Vec<BarrierArrival> = Vec::new();
    let mut barrier_occurrence: std::collections::HashMap<u32, u32> =
        std::collections::HashMap::new();
    let mut samples_taken: u64 = 0;
    let mut steps: u64 = 0;
    let mut call_arcs: std::collections::HashMap<(ProcIdx, ProcIdx), u64> =
        std::collections::HashMap::new();

    let mut active = vec![0u32; binary.procs.len()];
    let mut stack: Vec<Frame> = vec![Frame {
        call_addr: NO_CALL,
        callee: binary.entry,
        ret: None,
        loops: Vec::new(),
    }];
    active[binary.entry] = 1;
    // Cache of the raw-profile node for the current stack, rebuilt only on
    // push/pop: keeps per-sample cost O(1).
    let mut trie_path: Vec<crate::rawprofile::RawNodeId> = Vec::new();
    let first = profile.frame(profile.root(), NO_CALL, binary.entry);
    trie_path.push(first);

    let mut pc: Addr = binary.entry_addr(binary.entry);

    while !stack.is_empty() {
        steps += 1;
        if steps > config.max_steps {
            return Err(format!("execution exceeded {} steps", config.max_steps));
        }
        let instr = binary.instr(pc);
        match &instr.kind {
            InstrKind::Work { costs, scalable } => {
                let scaled = if *scalable {
                    costs.scaled(config.work_scale)
                } else {
                    *costs
                };
                for c in Counter::ALL {
                    let events = scaled[c];
                    if events == 0 {
                        continue;
                    }
                    acc[c] += events;
                    let period = config.periods[c as usize];
                    if period == 0 {
                        continue;
                    }
                    let node = *trie_path.last().unwrap();
                    while acc[c] >= next_threshold[c as usize] {
                        profile.add_samples(node, pc, c, 1.0);
                        samples_taken += 1;
                        next_threshold[c as usize] =
                            next_threshold[c as usize].saturating_add(period);
                    }
                }
                pc += 1;
            }
            InstrKind::Call { callee, max_active } => {
                let blocked = matches!(max_active, Some(limit) if active[*callee] >= *limit);
                if blocked {
                    pc += 1;
                } else {
                    let caller = stack.last().expect("call outside any frame").callee;
                    *call_arcs.entry((caller, *callee)).or_insert(0) += 1;
                    active[*callee] += 1;
                    stack.push(Frame {
                        call_addr: pc,
                        callee: *callee,
                        ret: Some(pc + 1),
                        loops: Vec::new(),
                    });
                    let parent = *trie_path.last().unwrap();
                    trie_path.push(profile.frame(parent, pc, *callee));
                    pc = binary.entry_addr(*callee);
                }
            }
            InstrKind::Branch { target, trips } => {
                let frame = stack.last_mut().expect("branch outside any frame");
                match frame.loops.last_mut() {
                    Some((addr, remaining)) if *addr == pc => {
                        if *remaining > 0 {
                            *remaining -= 1;
                            pc = *target;
                        } else {
                            frame.loops.pop();
                            pc += 1;
                        }
                    }
                    _ => {
                        // First arrival: the body has run once already.
                        if *trips > 1 {
                            frame.loops.push((pc, trips - 2));
                            pc = *target;
                        } else {
                            pc += 1;
                        }
                    }
                }
            }
            InstrKind::Barrier { id } => {
                let occurrence = barrier_occurrence.entry(*id).or_insert(0);
                let path: Vec<(Addr, ProcIdx)> =
                    stack.iter().map(|f| (f.call_addr, f.callee)).collect();
                barrier_arrivals.push(BarrierArrival {
                    id: *id,
                    occurrence: *occurrence,
                    time_cycles: acc[Counter::Cycles],
                    path,
                    addr: pc,
                });
                *occurrence += 1;
                pc += 1;
            }
            InstrKind::Ret => {
                let frame = stack.pop().expect("ret outside any frame");
                active[frame.callee] -= 1;
                trie_path.pop();
                match frame.ret {
                    Some(ret) => pc = ret,
                    None => break, // entry frame returned: halt
                }
            }
        }
    }

    Ok(ExecResult {
        profile,
        totals: acc,
        barrier_arrivals,
        samples_taken,
        overhead_cycles: samples_taken * config.sample_cost_cycles,
        steps,
        call_arcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::program::{Op, ProgramBuilder};

    fn simple_binary(work_cycles: u64) -> Binary {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let main = b.declare("main", f, 1);
        let work = b.declare("work", f, 10);
        b.body(main, vec![Op::call(2, work)]);
        b.body(work, vec![Op::work(11, Costs::cycles(work_cycles))]);
        b.entry(main);
        lower(&b.build())
    }

    #[test]
    fn totals_are_exact_ground_truth() {
        let bin = simple_binary(12_345);
        let res = execute(&bin, &ExecConfig::default()).unwrap();
        assert_eq!(res.totals[Counter::Cycles], 12_345);
        assert_eq!(res.totals[Counter::Instructions], 12_345);
    }

    #[test]
    fn sample_count_matches_period() {
        let bin = simple_binary(100_000);
        let cfg = ExecConfig {
            jitter_seed: None,
            ..ExecConfig::single(Counter::Cycles, 1000)
        };
        let res = execute(&bin, &cfg).unwrap();
        assert_eq!(res.samples_taken, 100, "100k cycles / 1k period");
        assert_eq!(res.profile.total_samples(Counter::Cycles), 100.0);
    }

    #[test]
    fn jitter_changes_phase_not_rate() {
        let bin = simple_binary(1_000_000);
        let base = ExecConfig::single(Counter::Cycles, 997);
        let a = execute(
            &bin,
            &ExecConfig {
                jitter_seed: Some(1),
                ..base.clone()
            },
        )
        .unwrap();
        let b = execute(
            &bin,
            &ExecConfig {
                jitter_seed: Some(2),
                ..base
            },
        )
        .unwrap();
        let expect = 1_000_000 / 997;
        assert!((a.samples_taken as i64 - expect as i64).abs() <= 1);
        assert!((b.samples_taken as i64 - expect as i64).abs() <= 1);
    }

    #[test]
    fn loop_executes_exactly_trips_times() {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let main = b.declare("main", f, 1);
        b.body(
            main,
            vec![Op::looped(2, 7, vec![Op::work(3, Costs::cycles(10))])],
        );
        b.entry(main);
        let bin = lower(&b.build());
        let res = execute(&bin, &ExecConfig::default()).unwrap();
        assert_eq!(res.totals[Counter::Cycles], 70);
    }

    #[test]
    fn nested_loops_multiply() {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let main = b.declare("main", f, 1);
        b.body(
            main,
            vec![Op::looped(
                2,
                3,
                vec![Op::looped(3, 5, vec![Op::work(4, Costs::cycles(2))])],
            )],
        );
        b.entry(main);
        let bin = lower(&b.build());
        let res = execute(&bin, &ExecConfig::default()).unwrap();
        assert_eq!(res.totals[Counter::Cycles], 3 * 5 * 2);
    }

    #[test]
    fn single_trip_loop_runs_once() {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let main = b.declare("main", f, 1);
        b.body(
            main,
            vec![Op::looped(2, 1, vec![Op::work(3, Costs::cycles(5))])],
        );
        b.entry(main);
        let bin = lower(&b.build());
        let res = execute(&bin, &ExecConfig::default()).unwrap();
        assert_eq!(res.totals[Counter::Cycles], 5);
    }

    #[test]
    fn guarded_recursion_terminates_with_bounded_depth() {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let g = b.declare("g", f, 2);
        b.body(
            g,
            vec![Op::work(3, Costs::cycles(10)), Op::call_recursive(4, g, 3)],
        );
        b.entry(g);
        let bin = lower(&b.build());
        let res = execute(&bin, &ExecConfig::default()).unwrap();
        assert_eq!(res.totals[Counter::Cycles], 30, "three activations");
    }

    #[test]
    fn samples_attribute_to_the_correct_context() {
        let bin = simple_binary(50_000);
        let cfg = ExecConfig {
            jitter_seed: None,
            ..ExecConfig::single(Counter::Cycles, 500)
        };
        let res = execute(&bin, &cfg).unwrap();
        // All samples must sit in the frame main -> work at the work
        // instruction.
        let root = res.profile.root();
        let mains: Vec<_> = res.profile.children(root).collect();
        assert_eq!(mains.len(), 1);
        let works: Vec<_> = res.profile.children(mains[0]).collect();
        assert_eq!(works.len(), 1);
        let leaves = res.profile.leaves(works[0]);
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].counts[Counter::Cycles as usize], 100.0);
        // No samples attributed to main itself.
        assert!(res.profile.leaves(mains[0]).is_empty());
    }

    #[test]
    fn work_scale_inflates_cost() {
        let bin = simple_binary(1000);
        let res = execute(
            &bin,
            &ExecConfig {
                work_scale: 2.5,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(res.totals[Counter::Cycles], 2500);
    }

    #[test]
    fn barriers_record_context_and_time() {
        let mut b = ProgramBuilder::new("app");
        let f = b.file("a.c");
        let main = b.declare("main", f, 1);
        let step = b.declare("step", f, 10);
        b.body(main, vec![Op::looped(2, 3, vec![Op::call(3, step)])]);
        b.body(
            step,
            vec![
                Op::work(11, Costs::cycles(100)),
                Op::Barrier { line: 12, id: 0 },
            ],
        );
        b.entry(main);
        let bin = lower(&b.build());
        let res = execute(&bin, &ExecConfig::default()).unwrap();
        assert_eq!(res.barrier_arrivals.len(), 3);
        assert_eq!(res.barrier_arrivals[0].time_cycles, 100);
        assert_eq!(res.barrier_arrivals[2].time_cycles, 300);
        assert_eq!(res.barrier_arrivals[0].occurrence, 0);
        assert_eq!(res.barrier_arrivals[2].occurrence, 2);
        // Context is main -> step.
        assert_eq!(res.barrier_arrivals[0].path.len(), 2);
    }

    #[test]
    fn overhead_scales_inversely_with_period() {
        let bin = simple_binary(1_000_000);
        let coarse = execute(
            &bin,
            &ExecConfig {
                jitter_seed: None,
                sample_cost_cycles: 5,
                ..ExecConfig::single(Counter::Cycles, 10_000)
            },
        )
        .unwrap();
        let fine = execute(
            &bin,
            &ExecConfig {
                jitter_seed: None,
                sample_cost_cycles: 5,
                ..ExecConfig::single(Counter::Cycles, 100)
            },
        )
        .unwrap();
        assert!(fine.overhead_cycles > 50 * coarse.overhead_cycles);
        assert!(
            coarse.overhead_fraction() < 0.01,
            "coarse sampling is cheap"
        );
    }

    #[test]
    fn runaway_execution_is_bounded() {
        let bin = simple_binary(10);
        let res = execute(
            &bin,
            &ExecConfig {
                max_steps: 2,
                ..ExecConfig::default()
            },
        );
        assert!(res.is_err());
    }

    #[test]
    fn inlined_callee_cost_lands_in_host_frame() {
        let mut b = ProgramBuilder::new("app");
        let f1 = b.file("host.c");
        let f2 = b.file("lib.c");
        let main = b.declare("main", f1, 1);
        let memset = b.declare("fast_memset", f2, 100);
        b.body(memset, vec![Op::work(101, Costs::cycles(10_000))]);
        b.body(main, vec![Op::call_inline(5, memset)]);
        b.entry(main);
        let bin = lower(&b.build());
        let cfg = ExecConfig {
            jitter_seed: None,
            ..ExecConfig::single(Counter::Cycles, 100)
        };
        let res = execute(&bin, &cfg).unwrap();
        // Only one frame (main) in the profile: the inline call pushed
        // nothing.
        let mains: Vec<_> = res.profile.children(res.profile.root()).collect();
        assert_eq!(mains.len(), 1);
        assert_eq!(res.profile.children(mains[0]).count(), 0);
        assert_eq!(res.profile.total_samples(Counter::Cycles), 100.0);
    }
}
