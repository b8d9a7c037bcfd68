//! Programs: the executable form of a schedule.
//!
//! A [`Program`] fixes, per processor, the *order* in which node instances
//! run — exactly what a compiler would emit for an asynchronous MIMD
//! machine (the per-processor subloops of the paper's Figure 7(e) and
//! Figure 10, with sends/receives implied by cross-processor edges). Actual
//! start times are then a *consequence*: each processor runs its next
//! instance as soon as the previous one finished and all operands have
//! arrived.
//!
//! [`static_times`] computes those start times under the machine's fixed
//! cost estimates; the `kn-sim` crate re-executes the same program under
//! fluctuating costs (the paper's §4 `mm` experiments). Both are the same
//! fixpoint [`sweep`] over the program's dense [`StartTable`], differing
//! only in what a message costs.

use crate::dense::StartTable;
use crate::machine::{Cycle, MachineConfig};
use kn_ddg::{Ddg, Edge, EdgeId, InstanceId};

/// Per-processor instance sequences for `iters` iterations of a loop.
#[derive(Clone, Debug)]
pub struct Program {
    /// `seqs[p]` is the ordered list of instances processor `p` executes.
    pub seqs: Vec<Vec<InstanceId>>,
    /// Number of loop iterations covered (instances have `iter < iters`).
    pub iters: u32,
}

impl Program {
    /// Number of processors (including idle ones).
    pub fn processors(&self) -> usize {
        self.seqs.len()
    }

    /// Total number of instances across all processors.
    pub fn len(&self) -> usize {
        self.seqs.iter().map(Vec::len).sum()
    }

    /// True if no instance is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of processors that execute at least one instance.
    pub fn used_processors(&self) -> usize {
        self.seqs.iter().filter(|s| !s.is_empty()).count()
    }

    /// Check that the program covers each instance of `g`'s nodes for
    /// iterations `0..iters` exactly once. Returns the set sizes on failure.
    /// To check *and* time a program off one index build, use
    /// [`static_times_complete`].
    pub fn check_complete(&self, g: &Ddg) -> Result<(), ProgramError> {
        StartTable::for_program(self, g)?.check_complete(self, g)
    }
}

/// Errors from program construction / timing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The same instance appears twice.
    DuplicateInstance,
    /// Not every instance of the iteration range is covered.
    IncompleteCover { have: usize, want: usize },
    /// An instance references a node/iteration outside the program's range
    /// (the first such instance in program order).
    ForeignInstance(InstanceId),
    /// The per-processor orders deadlock: a dependence points "backwards"
    /// (processor A waits for an instance that sits *behind* another
    /// instance of A in its own sequence, transitively).
    Deadlock { timed: usize, total: usize },
    /// A caller-installed certification hook rejected the timed program.
    Certify(String),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::DuplicateInstance => write!(f, "instance scheduled twice"),
            ProgramError::IncompleteCover { have, want } => {
                write!(f, "program covers {have} instances, expected {want}")
            }
            ProgramError::ForeignInstance(i) => write!(f, "foreign instance {i}"),
            ProgramError::Deadlock { timed, total } => {
                write!(
                    f,
                    "program deadlocks after timing {timed}/{total} instances"
                )
            }
            ProgramError::Certify(msg) => {
                write!(f, "schedule certification failed: {msg}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// The result of timing a program: start cycles per instance plus makespan.
#[derive(Clone, Debug)]
pub struct TimedProgram {
    /// Start cycle and processor of every instance.
    pub start: StartTable,
    /// Completion time of the whole program.
    pub makespan: Cycle,
}

impl TimedProgram {
    /// Start cycle of an instance, if present.
    pub fn start_of(&self, inst: InstanceId) -> Option<Cycle> {
        self.start.start_of(inst)
    }

    /// Processor of an instance, if present.
    pub fn proc_of(&self, inst: InstanceId) -> Option<usize> {
        self.start.proc_of(inst)
    }
}

/// The asynchronous execution of `prog`, as the least fixpoint of its
/// dataflow constraints: every processor executes its sequence in order,
/// starting each instance at `max(previous finish on this processor,
/// operand-ready times)`. This is the one timing sweep in the workspace —
/// [`static_times`] runs it with the machine's estimated message costs,
/// `kn_sim::simulate` with fluctuating ones.
///
/// `start` is the program's table as [`StartTable::for_program`] built it
/// (every instance assigned, none timed). `message_cost(edge id, edge,
/// consumer iteration)` prices one cross-processor message; it is invoked
/// every time a head instance's operands are examined, so an instance that
/// is examined, found blocked on a later operand and examined again prices
/// its earlier messages again (callers that count invocations inherit the
/// simulator's long-standing message accounting).
///
/// Returns the filled table and each processor's finish cycle.
pub fn sweep(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    mut start: StartTable,
    mut message_cost: impl FnMut(EdgeId, &Edge, u32) -> u32,
) -> Result<(StartTable, Vec<Cycle>), ProgramError> {
    let total = prog.len();
    let mut head = vec![0usize; prog.processors()];
    let mut clock = vec![0 as Cycle; prog.processors()];

    // Round-robin sweep: time any processor whose head instance has all
    // operands timed. Terminates in at most `total` productive rounds.
    loop {
        let mut progress = false;
        for (p, seq) in prog.seqs.iter().enumerate() {
            // A processor may become ready again immediately; drain greedily.
            'drain: while let Some(&inst) = seq.get(head[p]) {
                let mut ready: Cycle = clock[p];
                for (eid, e) in g.in_edges(inst.node) {
                    if e.distance > inst.iter {
                        continue;
                    }
                    let pred = InstanceId {
                        node: e.src,
                        iter: inst.iter - e.distance,
                    };
                    match start.lookup(pred) {
                        // Not in the program: ready at 0.
                        None => {}
                        Some((_, None)) => break 'drain,
                        Some((sp, Some(st))) => {
                            let fin = m.finish(st, g.latency(pred.node));
                            let r = if sp == p {
                                m.local_ready(fin)
                            } else {
                                m.remote_ready(fin, message_cost(eid, e, inst.iter))
                            };
                            ready = ready.max(r);
                        }
                    }
                }
                start.set_start(inst, ready);
                clock[p] = m.finish(ready, g.latency(inst.node));
                head[p] += 1;
                progress = true;
            }
        }
        if start.len() == total {
            return Ok((start, clock));
        }
        if !progress {
            return Err(ProgramError::Deadlock {
                timed: start.len(),
                total,
            });
        }
    }
}

/// [`sweep`] under the machine's *estimated* costs, on a table already
/// built for `prog`.
fn time_table(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    table: StartTable,
) -> Result<TimedProgram, ProgramError> {
    let (start, finish) = sweep(prog, g, m, table, |_, e, _| m.edge_cost(e))?;
    Ok(TimedProgram {
        start,
        makespan: finish.into_iter().max().unwrap_or(0),
    })
}

/// Compute start times for a program under the machine's *estimated* costs:
/// every processor executes its sequence in order, starting each instance at
/// `max(previous finish on this processor, operand-ready times)`.
///
/// Operands come from dependence edges `(u → v, d)`: instance `(v, i)` waits
/// for `(u, i - d)` whenever `i ≥ d` **and** that instance is part of the
/// program. Dependences on instances outside the program (e.g. Flow-in
/// producers when timing a Cyclic-only program) are treated as ready at
/// cycle 0, which matches the paper's practice of measuring the Cyclic core
/// in isolation (§3 footnote 16).
pub fn static_times(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
) -> Result<TimedProgram, ProgramError> {
    time_table(prog, g, m, StartTable::for_program(prog, g)?)
}

/// [`Program::check_complete`] followed by [`static_times`], off a single
/// index build — what the schedulers run on every program they emit.
pub fn static_times_complete(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
) -> Result<TimedProgram, ProgramError> {
    let table = StartTable::for_program(prog, g)?;
    table.check_complete(prog, g)?;
    time_table(prog, g, m, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::{DdgBuilder, NodeId};

    fn inst(node: u32, iter: u32) -> InstanceId {
        InstanceId {
            node: NodeId(node),
            iter,
        }
    }

    /// x -> y intra, one iteration, both on P0.
    #[test]
    fn sequential_chain_times() {
        let mut b = DdgBuilder::new();
        let x = b.node_lat("x", 2);
        let y = b.node_lat("y", 3);
        b.dep(x, y);
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 2);
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(1, 0)]],
            iters: 1,
        };
        prog.check_complete(&g).unwrap();
        let t = static_times(&prog, &g, &m).unwrap();
        assert_eq!(t.start_of(inst(0, 0)), Some(0));
        assert_eq!(t.start_of(inst(1, 0)), Some(2));
        assert_eq!(t.makespan, 5);
        let _ = (x, y);
    }

    #[test]
    fn cross_processor_adds_comm_delay() {
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        b.dep(NodeId(0), NodeId(1));
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 3);
        let prog = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(1, 0)]],
            iters: 1,
        };
        let t = static_times(&prog, &g, &m).unwrap();
        // x finishes at 1; remote ready = 1 + 3 - 1 = 3.
        assert_eq!(t.start_of(inst(1, 0)), Some(3));
    }

    #[test]
    fn carried_dependence_across_iterations() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        b.carried(x, x);
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(0, 1), inst(0, 2)]],
            iters: 3,
        };
        let t = static_times(&prog, &g, &m).unwrap();
        assert_eq!(t.start_of(inst(0, 2)), Some(2));
        assert_eq!(t.makespan, 3);
    }

    #[test]
    fn deadlock_detected() {
        // y before x on the same processor, but x -> y forces x first…
        // on one processor that's fine (x ready at 0 — no wait, y needs x
        // which is *behind* it). Deadlock.
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        b.dep(NodeId(0), NodeId(1));
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![inst(1, 0), inst(0, 0)]],
            iters: 1,
        };
        let err = static_times(&prog, &g, &m).unwrap_err();
        assert_eq!(err, ProgramError::Deadlock { timed: 0, total: 2 });
    }

    #[test]
    fn missing_pred_treated_as_ready() {
        // Program contains only y; its pred x is absent -> ready at 0.
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        b.dep(NodeId(0), NodeId(1));
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![inst(1, 0)]],
            iters: 1,
        };
        let t = static_times(&prog, &g, &m).unwrap();
        assert_eq!(t.start_of(inst(1, 0)), Some(0));
    }

    #[test]
    fn completeness_check() {
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        let g = b.build().unwrap();
        let ok = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(1, 0)]],
            iters: 1,
        };
        ok.check_complete(&g).unwrap();
        let dup = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(0, 0)]],
            iters: 1,
        };
        assert_eq!(
            dup.check_complete(&g).unwrap_err(),
            ProgramError::DuplicateInstance
        );
        let incomplete = Program {
            seqs: vec![vec![inst(0, 0)]],
            iters: 1,
        };
        assert!(matches!(
            incomplete.check_complete(&g).unwrap_err(),
            ProgramError::IncompleteCover { .. }
        ));
        let foreign = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(5, 0)]],
            iters: 1,
        };
        assert!(matches!(
            foreign.check_complete(&g).unwrap_err(),
            ProgramError::ForeignInstance(_)
        ));
    }

    #[test]
    fn foreign_instance_report_is_the_first_in_program_order() {
        // Two foreign instances and the right instance count: the report
        // must name the first in program order (P0 before P1, front to
        // back), not whichever a hash iteration yields.
        let mut b = DdgBuilder::new();
        let _x = b.node("x");
        let _y = b.node("y");
        let g = b.build().unwrap();
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(7, 0)], vec![inst(1, 3), inst(1, 0)]],
            iters: 2,
        };
        for _ in 0..8 {
            assert_eq!(
                prog.check_complete(&g).unwrap_err(),
                ProgramError::ForeignInstance(inst(7, 0))
            );
            assert_eq!(
                static_times_complete(&prog, &g, &MachineConfig::new(2, 1)).unwrap_err(),
                ProgramError::ForeignInstance(inst(7, 0))
            );
        }
    }

    #[test]
    fn used_processors_counts_nonempty() {
        let prog = Program {
            seqs: vec![vec![inst(0, 0)], vec![], vec![inst(1, 0)]],
            iters: 1,
        };
        assert_eq!(prog.processors(), 3);
        assert_eq!(prog.used_processors(), 2);
    }
}
