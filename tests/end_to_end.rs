//! End-to-end pipeline tests over the whole workload corpus: schedule →
//! validate → simulate → execute on real threads → compare values.

use mimd_loop_par::prelude::*;
use mimd_loop_par::runtime::{run_sequential, run_threaded, Semantics};
use mimd_loop_par::sim;
use mimd_loop_par::workloads as wl;

fn corpus() -> Vec<wl::Workload> {
    vec![
        wl::figure3(),
        wl::figure7(),
        wl::cytron86(),
        wl::livermore18(),
        wl::elliptic(),
        wl::doall(),
        wl::rate_gap(),
    ]
}

#[test]
fn every_workload_schedules_and_validates() {
    let iters = 24;
    for w in corpus() {
        let m = MachineConfig::new(w.procs, w.k);
        let s = schedule_loop(&w.graph, &m, iters, &Default::default()).expect(w.name);
        s.program.check_complete(&w.graph).expect(w.name);
        let table = ScheduleTable::from_timed(&s.timing);
        table.validate(&w.graph, &m).expect(w.name);
        assert_eq!(
            table.len(),
            w.graph.node_count() * iters as usize,
            "{}",
            w.name
        );
    }
}

#[test]
fn stable_simulation_equals_static_timing_everywhere() {
    // The scheduler promises times under estimated costs; the simulator
    // must reproduce them exactly when actual = estimated (mm = 1).
    let iters = 20;
    for w in corpus() {
        let m = MachineConfig::new(w.procs, w.k);
        let s = schedule_loop(&w.graph, &m, iters, &Default::default()).expect(w.name);
        let simres =
            sim::simulate(&s.program, &w.graph, &m, &TrafficModel::stable(1)).expect(w.name);
        assert_eq!(simres.makespan, s.timing.makespan, "{}", w.name);
        assert_eq!(simres.start, s.timing.start, "{}", w.name);
    }
}

#[test]
fn fluctuating_traffic_never_speeds_things_up() {
    let iters = 20;
    for w in corpus() {
        let m = MachineConfig::new(w.procs, w.k);
        let s = schedule_loop(&w.graph, &m, iters, &Default::default()).expect(w.name);
        let base = sim::simulate(&s.program, &w.graph, &m, &TrafficModel::stable(1))
            .unwrap()
            .makespan;
        for mm in [2u32, 5] {
            let noisy = sim::simulate(&s.program, &w.graph, &m, &TrafficModel { mm, seed: 7 })
                .unwrap()
                .makespan;
            assert!(noisy >= base, "{} mm={mm}: {noisy} < {base}", w.name);
        }
    }
}

#[test]
fn threaded_execution_matches_sequential_for_all_workloads() {
    let iters = 40;
    for w in corpus() {
        let m = MachineConfig::new(w.procs, w.k);
        let s = schedule_loop(&w.graph, &m, iters, &Default::default()).expect(w.name);
        let sem = Semantics::hashing(&w.graph);
        let par = run_threaded(&w.graph, &sem, &s.program).expect(w.name);
        let seq = run_sequential(&w.graph, &sem, iters);
        assert_eq!(par, seq, "{}", w.name);
    }
}

#[test]
fn doacross_baseline_schedules_and_validates_everywhere() {
    let iters = 16;
    for w in corpus() {
        let m = MachineConfig::new(4, w.k);
        let s = doacross_schedule(&w.graph, &m, iters, &Default::default()).expect(w.name);
        ScheduleTable::from_timed(&s.timing)
            .validate(&w.graph, &m)
            .expect(w.name);
        // DOACROSS runs every iteration serially: per-processor makespan is
        // at least (#iterations on that proc) * body latency.
        let per_proc = iters as u64 / 4 * w.graph.body_latency();
        assert!(s.makespan() >= per_proc, "{}", w.name);
    }
}

#[test]
fn doall_control_reaches_full_processor_speedup() {
    let w = wl::doall();
    let iters = 32;
    let m = MachineConfig::new(4, w.k);
    let ours = schedule_loop(&w.graph, &m, iters, &Default::default()).unwrap();
    let da = doacross_schedule(&w.graph, &m, iters, &Default::default()).unwrap();
    let s = sim::sequential_time(&w.graph, iters);
    // Both techniques parallelize a DOALL loop perfectly (no carried deps,
    // 4 independent chains over 4 procs).
    assert_eq!(da.makespan(), s / 4);
    assert!(
        ours.makespan() <= s / 2,
        "ours {} vs seq {s}",
        ours.makespan()
    );
}

#[test]
fn unrolled_loops_schedule_through_the_facade() {
    // Distance-3 self-recurrence: normalization unrolls by 3, after which
    // three copies run concurrently.
    let mut b = DdgBuilder::new();
    let x = b.node_lat("x", 2);
    b.dep_dist(x, x, 3);
    let g = b.build().unwrap();
    let m = MachineConfig::new(4, 1);
    let r = mimd_loop_par::parallelize(&g, &m, 30, &Default::default()).unwrap();
    assert_eq!(r.unroll_factor, 3);
    let table = ScheduleTable::from_timed(&r.schedule.timing);
    table.validate(&r.normalized, &m).unwrap();
    // Steady state: 3 chains of II 2 in parallel -> 2 cycles per
    // super-iteration, i.e. 2/3 cycle per original iteration.
    let ii = r.schedule.cyclic_ii().unwrap();
    assert!(ii <= 2.0 + 1e-9, "ii = {ii}");
}
