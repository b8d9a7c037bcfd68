#![forbid(unsafe_code)]
//! # kn-sim — simulated asynchronous MIMD multiprocessor
//!
//! The evaluation substrate for the paper's §4 experiments. Processors
//! execute their program sequences asynchronously: each instance starts as
//! soon as (a) the previous instance on the same processor finished and
//! (b) every operand has arrived. Communication is **fully overlapped**
//! (sends never block) and every message's actual cost fluctuates between
//! the compile-time estimate and `estimate + mm - 1` cycles — the paper's
//! `mm` traffic model ("the run time cost of each communication link varied
//! between k and k+mm-1", §4). `mm = 1` reproduces the static schedule
//! exactly; `mm = 5` under-estimates communication by up to 2.3× (the
//! paper's "very unstable asynchronous traffic").
//!
//! Fluctuation is sampled *per message* by hashing `(seed, edge, iteration)`
//! so results are deterministic and independent of event-processing order.
//!
//! Neither engine owns any per-instance storage scheme of its own: both
//! build the program's [`kn_sched::StartTable`] (flat, `node * iters +
//! iter`, no hashing) and hand it back as [`SimResult::start`] unconverted.
//! [`simulate`] is `kn_sched::sweep` — the very fixpoint sweep behind
//! `kn_sched::static_times` — with a message cost that fluctuates; the
//! [`event`] engine fills the same table from its event loop.

#[cfg(test)]
mod dense;
pub mod event;

pub use event::{simulate_event, simulate_event_with, EventEngine, LinkModel};

use kn_ddg::{Ddg, EdgeId, InstanceId};
use kn_sched::{Cycle, MachineConfig, Program, ProgramError, StartTable};

/// Run-time communication traffic model.
#[derive(Clone, Copy, Debug)]
pub struct TrafficModel {
    /// Fluctuation factor: actual message cost is
    /// `estimate + (0 .. mm-1)`. `mm = 1` means no fluctuation.
    pub mm: u32,
    /// Seed for the per-message hash.
    pub seed: u64,
}

impl TrafficModel {
    /// The paper's three experimental settings.
    pub fn stable(seed: u64) -> Self {
        Self { mm: 1, seed }
    }

    /// Deterministic per-message fluctuation in `0..mm`.
    #[inline]
    pub fn fluctuation(&self, edge: EdgeId, iter: u32) -> u32 {
        if self.mm <= 1 {
            return 0;
        }
        // SplitMix64-style mix of (seed, edge, iter): uniform enough for a
        // traffic model and perfectly reproducible.
        let mut z = self
            .seed
            .wrapping_add((edge.0 as u64) << 32)
            .wrapping_add(iter as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z % self.mm as u64) as u32
    }
}

/// How to execute a program: interconnect capacity plus the event-queue
/// engine driving the discrete-event simulator. The single knob the
/// experiment drivers, CLI, and bench harness all plumb through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Interconnect capacity model.
    pub link: LinkModel,
    /// Event-queue implementation (only consulted when the event engine
    /// runs; see [`SimOptions::run`]).
    pub engine: EventEngine,
}

impl SimOptions {
    /// One-message-at-a-time links with the default (calendar) engine.
    pub fn contended() -> Self {
        Self {
            link: LinkModel::SingleMessage,
            ..Self::default()
        }
    }

    /// Execute `prog` under these options. [`LinkModel::Unlimited`]
    /// dispatches to the fixpoint simulator ([`simulate`]) — the event
    /// engine reproduces it cycle for cycle (tested), and the fixpoint
    /// sweep is the cheaper of the two; [`LinkModel::SingleMessage`] runs
    /// the event engine with the chosen queue. Use [`simulate_event_with`]
    /// directly to force the event engine on uncontended links.
    pub fn run(
        &self,
        prog: &kn_sched::Program,
        g: &Ddg,
        m: &MachineConfig,
        traffic: &TrafficModel,
    ) -> Result<SimResult, ProgramError> {
        match self.link {
            LinkModel::Unlimited => simulate(prog, g, m, traffic),
            LinkModel::SingleMessage => {
                simulate_event_with(prog, g, m, traffic, self.link, self.engine)
            }
        }
    }
}

/// Per-processor execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycles spent executing instances.
    pub busy: Cycle,
    /// Completion time of the processor's last instance.
    pub finish: Cycle,
    /// Number of instances executed.
    pub executed: usize,
}

/// Result of a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Start cycle and processor per instance.
    pub start: StartTable,
    /// Completion time of the whole program.
    pub makespan: Cycle,
    /// Cross-processor messages delivered.
    pub messages: u64,
    /// Total actual communication cycles across all messages.
    pub comm_cycles: u64,
    /// Per-processor statistics.
    pub procs: Vec<ProcStats>,
}

impl SimResult {
    /// Start cycle of an instance.
    pub fn start_of(&self, inst: InstanceId) -> Option<Cycle> {
        self.start.start_of(inst)
    }

    /// Processor of an instance.
    pub fn proc_of(&self, inst: InstanceId) -> Option<usize> {
        self.start.proc_of(inst)
    }

    /// Machine utilization: busy cycles over (processors × makespan).
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.procs.is_empty() {
            return 0.0;
        }
        let busy: Cycle = self.procs.iter().map(|p| p.busy).sum();
        busy as f64 / (self.makespan as f64 * self.procs.len() as f64)
    }
}

/// Sequential execution time: one processor, no communication — the `s` of
/// the paper's percentage-parallelism metric.
pub fn sequential_time(g: &Ddg, iters: u32) -> Cycle {
    g.body_latency() * iters as u64
}

/// Execute `prog` on the simulated multiprocessor.
///
/// ```
/// use kn_ddg::{DdgBuilder, InstanceId};
/// use kn_sched::{MachineConfig, Program};
/// use kn_sim::{simulate, TrafficModel};
///
/// let mut b = DdgBuilder::new();
/// let x = b.node("x");
/// let y = b.node("y");
/// b.dep(x, y);
/// let g = b.build().unwrap();
///
/// // y runs on another processor: one message, k = 3.
/// let m = MachineConfig::new(2, 3);
/// let prog = Program {
///     seqs: vec![
///         vec![InstanceId { node: x, iter: 0 }],
///         vec![InstanceId { node: y, iter: 0 }],
///     ],
///     iters: 1,
/// };
/// let r = simulate(&prog, &g, &m, &TrafficModel::stable(0)).unwrap();
/// assert_eq!(r.messages, 1);
/// assert_eq!(r.makespan, 4); // x: [0,1), message, y starts at 3
/// ```
///
/// This is `kn_sched::static_times`' fixpoint sweep (`kn_sched::sweep`)
/// with each message's cost being the estimate plus the traffic model's
/// fluctuation. Start times are the least fixpoint of the dataflow
/// constraints; the result is therefore *the* asynchronous execution (it
/// does not depend on any event ordering).
pub fn simulate(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
    traffic: &TrafficModel,
) -> Result<SimResult, ProgramError> {
    let mut messages = 0u64;
    let mut comm_cycles = 0u64;
    let table = StartTable::for_program(prog, g)?;
    let (start, finish) = kn_sched::sweep(prog, g, m, table, |eid, e, iter| {
        let cost = m.edge_cost(e) + traffic.fluctuation(eid, iter);
        messages += 1;
        comm_cycles += cost as u64;
        cost
    })?;
    let procs = prog
        .seqs
        .iter()
        .zip(&finish)
        .map(|(seq, &finish)| ProcStats {
            busy: seq.iter().map(|i| g.latency(i.node) as Cycle).sum(),
            finish,
            executed: seq.len(),
        })
        .collect();
    Ok(SimResult {
        start,
        makespan: finish.into_iter().max().unwrap_or(0),
        messages,
        comm_cycles,
        procs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::DdgBuilder;
    use kn_sched::{cyclic_schedule, static_times, CyclicOptions, Placement, ScheduleTable};

    fn figure7() -> Ddg {
        let mut b = DdgBuilder::new();
        let a = b.node("A");
        let bb = b.node("B");
        let c = b.node("C");
        let d = b.node("D");
        let e = b.node("E");
        b.carried(a, a);
        b.carried(e, a);
        b.dep(a, bb);
        b.dep(bb, c);
        b.carried(d, d);
        b.carried(c, d);
        b.dep(d, e);
        b.build().unwrap()
    }

    fn figure7_program(m: &MachineConfig, iters: u32) -> (Ddg, Program) {
        let g = figure7();
        let out = cyclic_schedule(&g, m, &CyclicOptions::default()).unwrap();
        let table = ScheduleTable::new(out.instantiate(iters));
        let prog = table.to_program(iters);
        (g, prog)
    }

    #[test]
    fn stable_traffic_reproduces_static_schedule_exactly() {
        // The pinning invariant: with mm = 1 (actual = estimated), the
        // asynchronous execution of the scheduled program gives exactly the
        // start times the scheduler computed.
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 12);
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(7)).unwrap();
        let stat = static_times(&prog, &g, &m).unwrap();
        assert_eq!(sim.makespan, stat.makespan);
        assert_eq!(sim.start, stat.start);
    }

    #[test]
    fn fluctuation_only_delays() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 16);
        let base = simulate(&prog, &g, &m, &TrafficModel::stable(1)).unwrap();
        for mm in [2u32, 3, 5] {
            let noisy = simulate(&prog, &g, &m, &TrafficModel { mm, seed: 42 }).unwrap();
            assert!(
                noisy.makespan >= base.makespan,
                "mm={mm}: {} < {}",
                noisy.makespan,
                base.makespan
            );
            // Every instance starts no earlier than in the stable run
            // (monotonicity of the dataflow fixpoint).
            for p in base.start.iter() {
                assert!(noisy.start_of(p.inst).unwrap() >= p.start);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 10);
        let a = simulate(&prog, &g, &m, &TrafficModel { mm: 5, seed: 9 }).unwrap();
        let b = simulate(&prog, &g, &m, &TrafficModel { mm: 5, seed: 9 }).unwrap();
        assert_eq!(a.makespan, b.makespan);
        let c = simulate(&prog, &g, &m, &TrafficModel { mm: 5, seed: 10 }).unwrap();
        // Different seed: allowed to differ (and virtually always does).
        let _ = c;
    }

    #[test]
    fn message_accounting() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        let m = MachineConfig::new(2, 3);
        let prog = Program {
            seqs: vec![
                vec![InstanceId { node: x, iter: 0 }],
                vec![InstanceId { node: y, iter: 0 }],
            ],
            iters: 1,
        };
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(0)).unwrap();
        assert_eq!(sim.messages, 1);
        assert_eq!(sim.comm_cycles, 3);
        // y starts at remote_ready(1, 3) = 3.
        assert_eq!(sim.start_of(InstanceId { node: y, iter: 0 }), Some(3));
    }

    #[test]
    fn utilization_bounds() {
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 20);
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(3)).unwrap();
        let u = sim.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn doacross_program_simulates() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = kn_doacross::doacross_schedule(&g, &m, 8, &Default::default()).unwrap();
        let sim = simulate(&s.program, &g, &m, &TrafficModel::stable(1)).unwrap();
        assert_eq!(sim.makespan, s.makespan());
        // Fluctuating traffic degrades DOACROSS too.
        let noisy = simulate(&s.program, &g, &m, &TrafficModel { mm: 5, seed: 1 }).unwrap();
        assert!(noisy.makespan >= sim.makespan);
    }

    #[test]
    fn sequential_time_is_body_latency_times_iters() {
        let g = figure7();
        assert_eq!(sequential_time(&g, 10), 50);
    }

    #[test]
    fn deadlock_detected() {
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        b.dep(x, y);
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let prog = Program {
            seqs: vec![vec![
                InstanceId { node: y, iter: 0 },
                InstanceId { node: x, iter: 0 },
            ]],
            iters: 1,
        };
        assert!(matches!(
            simulate(&prog, &g, &m, &TrafficModel::stable(0)),
            Err(ProgramError::Deadlock { .. })
        ));
    }

    #[test]
    fn fluctuation_is_bounded_and_stable() {
        let t = TrafficModel { mm: 5, seed: 123 };
        for e in 0..20u32 {
            for i in 0..50u32 {
                let f = t.fluctuation(EdgeId(e), i);
                assert!(f < 5);
                assert_eq!(f, t.fluctuation(EdgeId(e), i), "deterministic");
            }
        }
        let stable = TrafficModel::stable(9);
        assert_eq!(stable.fluctuation(EdgeId(0), 0), 0);
    }

    #[test]
    fn pattern_schedule_stays_valid_under_mm_one() {
        // End-to-end: instantiate, convert to program, simulate, validate
        // the observed placement as a schedule.
        let m = MachineConfig::new(2, 2);
        let (g, prog) = figure7_program(&m, 8);
        let sim = simulate(&prog, &g, &m, &TrafficModel::stable(2)).unwrap();
        let placements: Vec<Placement> = sim.start.iter().collect();
        ScheduleTable::new(placements).validate(&g, &m).unwrap();
    }
}
