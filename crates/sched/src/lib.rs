#![forbid(unsafe_code)]
//! # kn-sched — pattern-based loop scheduling for MIMD machines
//!
//! The primary contribution of Kim & Nicolau (ICPP 1990), implemented in
//! full:
//!
//! * [`machine`] — the asynchronous-MIMD timing model (processors,
//!   communication bound `k`, arrival conventions);
//! * [`cyclic`] — `Cyclic-sched` (paper Fig. 4): greedy, communication-aware
//!   list scheduling of the infinitely unwound Cyclic subgraph, with online
//!   pattern detection;
//! * [`state`] / [`window`] — the two pattern detectors (canonical
//!   scheduler state; the paper's sliding configuration window);
//! * [`pattern`] — patterns (prologue + repeating kernel), block fallback,
//!   instantiation to finite schedules;
//! * [`flow`] — `Flow-in-sched` / `Flow-out-sched` (paper Fig. 5) and the
//!   §3 idle-processor merge heuristic;
//! * [`full`] — the complete pipeline (paper Fig. 6): classify, schedule
//!   the Cyclic core, attach the non-Cyclic subsets;
//! * [`program`] / [`table`] — executable per-processor programs, static
//!   timing, schedule tables, and validity checking;
//! * [`dense`] — the per-instance index (`node * iters + iter`) and the flat
//!   `(proc, start)` table every timing consumer in the workspace reads;
//! * [`codegen`] — the transformed-loop pretty printer (the PARBEGIN/PAREND
//!   forms of the paper's Figures 7(e) and 10);
//! * [`mod@reference`] — the retained map-based scheduler, kept as the
//!   executable specification and benchmark baseline for the arena core.
//!
//! # Performance notes
//!
//! The scheduler hot path is allocation-free in steady state and uses only
//! dense, index-addressed storage. The load-bearing invariant is:
//!
//! **Ring-buffer invariant.** [`cyclic_schedule`] requires distances
//! normalized to `{0, 1}` (`kn_ddg::normalize_distances`; enforced up
//! front). When instance `(v, i)` is scheduled, every operand it reads is
//! an instance of iteration `i` or `i − 1`, and every successor obligation
//! it creates is at iteration `i` or `i + 1`. The live-placement and
//! partially-satisfied tables are therefore addressed by
//! `(node, iter & mask)` in per-node ring buffers of capacity 2. The FIFO
//! queue is not strictly iteration-synchronous — a self-advancing node can
//! run several iterations ahead of a consumer stuck behind a longer chain
//! — so a ring slot can still be occupied by an older, still-needed
//! iteration when a new one arrives; slots are tagged with their exact
//! iteration and the rings double on such a collision. Growth changes
//! speed, never placements.
//!
//! Other hot-path measures, each verified placement-for-placement
//! identical to [`mod@reference`] (the enumeration order is load-bearing for
//! pattern emergence, paper §2.2 footnote 7):
//!
//! * the per-step operand scratch buffer is hoisted onto the scheduler and
//!   reused across steps;
//! * the default detector hashes the canonical scheduler state into a
//!   64-bit fingerprint per anchor (sequential mixing for ordered
//!   components, commutative summation for the set-valued tables) instead
//!   of allocating + sorting a [`state::CanonState`]; full states are
//!   materialized only on fingerprint hits, and every hit is confirmed by
//!   replay before a pattern is returned ([`state::FingerprintDictionary`]);
//! * every per-instance store between a [`Program`] and a response is one
//!   [`StartTable`]: a flat vector addressed by [`InstanceIndex`]
//!   (`node * iters + iter`; a compact map only for degenerate hand-built
//!   programs). [`Program::check_complete`], [`static_times`],
//!   [`TimedProgram::start`], `kn_sim::SimResult::start`, both simulators,
//!   `kn_runtime::run_threaded` and `kn-verify`'s certifiers read it — no
//!   `HashMap<InstanceId, _>` is built on the request path;
//! * there is one timing sweep, [`sweep`], parameterised by what a message
//!   costs: [`static_times`] prices messages at the machine's estimate,
//!   `kn_sim::simulate` adds the traffic model's fluctuation and counts
//!   them. [`schedule_loop`] and `kn_doacross::doacross_schedule` check
//!   completeness and time each program off a single index build
//!   ([`static_times_complete`]);
//! * `kn-core`'s experiment drivers fan independent (workload, machine)
//!   cells out across threads and reduce in deterministic seed order.
//!
//! `kn-bench` (the `kn-bench` binary) records the arena-vs-reference ratio
//! per workload in `BENCH_sched.json` so regressions are visible PR over
//! PR.

pub mod codegen;
pub mod cyclic;
pub mod dense;
pub mod flow;
pub mod full;
pub mod machine;
pub mod pattern;
pub mod program;
pub mod reference;
pub mod state;
pub mod stats;
pub mod table;
pub mod window;

pub use cyclic::{
    cyclic_schedule, enumeration_order, greedy_finite, greedy_unbounded, CyclicError,
    CyclicOptions, DetectorKind,
};
pub use dense::{InstanceIndex, StartTable};
pub use full::{
    schedule_loop, CertifyHook, FlowDecision, FullOptions, LoopSchedule, SchedLoopError,
};
pub use machine::{ArrivalConvention, Cycle, MachineConfig};
pub use pattern::{BlockSchedule, Pattern, PatternOutcome};
pub use program::{
    static_times, static_times_complete, sweep, Program, ProgramError, TimedProgram,
};
pub use stats::{pattern_stats, PatternStats, ProcLoad};
pub use table::{Placement, ScheduleError, ScheduleTable};
