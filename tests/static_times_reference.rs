//! Differential test of the dense timing path: `kn_sched::static_times`
//! (one `StartTable` index build + the shared fixpoint `sweep`) against the
//! map-based implementation it replaced, kept here — and only here — as a
//! test-local reference. Random programs from all three program builders,
//! plus the mutations the dense index has a dedicated answer for: a
//! duplicated instance, a deadlocking order, a foreign instance, and a
//! far-out iteration that trips the sparse fallback. Start tables,
//! makespans and error variants must be equal.

use mimd_loop_par::ddg::{classify, intra_topo_order, Ddg, InstanceId};
use mimd_loop_par::doacross::doacross_program;
use mimd_loop_par::prelude::*;
use mimd_loop_par::sched::{
    static_times, static_times_complete, Cycle, Program, ProgramError, TimedProgram,
};
use mimd_loop_par::workloads::{random_cyclic_loop, random_loop, RandomLoopConfig};
use proptest::prelude::*;
use std::collections::HashMap;

type Starts = HashMap<InstanceId, (usize, Cycle)>;

/// The pre-dense `static_times`, verbatim in structure: two hash maps of
/// `nodes × iters` entries and the round-robin sweep over processor heads.
fn reference_static_times(
    prog: &Program,
    g: &Ddg,
    m: &MachineConfig,
) -> Result<(Starts, Cycle), ProgramError> {
    let mut assign: HashMap<InstanceId, usize> = HashMap::new();
    for (p, seq) in prog.seqs.iter().enumerate() {
        for &inst in seq {
            if assign.insert(inst, p).is_some() {
                return Err(ProgramError::DuplicateInstance);
            }
        }
    }
    let total = prog.len();
    let mut start: Starts = HashMap::with_capacity(total);
    let mut head = vec![0usize; prog.processors()];
    let mut clock = vec![0 as Cycle; prog.processors()];
    let mut makespan = 0;
    loop {
        let mut progress = false;
        for p in 0..prog.processors() {
            'drain: while head[p] < prog.seqs[p].len() {
                let inst = prog.seqs[p][head[p]];
                let mut ready = clock[p];
                for (_, e) in g.in_edges(inst.node) {
                    if e.distance > inst.iter {
                        continue;
                    }
                    let pred = InstanceId {
                        node: e.src,
                        iter: inst.iter - e.distance,
                    };
                    if !assign.contains_key(&pred) {
                        continue; // not in the program: ready at 0
                    }
                    let Some(&(sp, st)) = start.get(&pred) else {
                        break 'drain;
                    };
                    let fin = m.finish(st, g.latency(pred.node));
                    ready = ready.max(if sp == p {
                        m.local_ready(fin)
                    } else {
                        m.remote_ready(fin, m.edge_cost(e))
                    });
                }
                start.insert(inst, (p, ready));
                clock[p] = m.finish(ready, g.latency(inst.node));
                makespan = makespan.max(clock[p]);
                head[p] += 1;
                progress = true;
            }
        }
        if start.len() == total {
            return Ok((start, makespan));
        }
        if !progress {
            return Err(ProgramError::Deadlock {
                timed: start.len(),
                total,
            });
        }
    }
}

fn as_map(t: TimedProgram) -> (Starts, Cycle) {
    let starts: Starts = t
        .start
        .iter()
        .map(|p| (p.inst, (p.proc, p.start)))
        .collect();
    assert_eq!(starts.len(), t.start.len());
    (starts, t.makespan)
}

fn cfg(nodes: usize) -> RandomLoopConfig {
    RandomLoopConfig {
        nodes,
        lcds: nodes / 2,
        sds: nodes / 2,
        min_latency: 1,
        max_latency: 3,
    }
}

/// A random program: pattern-instantiated Cyclic core, the Cyclic-only
/// subset of a full loop (Flow-in producers absent, so ready at 0), or
/// DOACROSS.
fn base_program(
    builder: u8,
    seed: u64,
    nodes: usize,
    m: &MachineConfig,
    iters: u32,
) -> (Ddg, Program) {
    match builder {
        0 => {
            let g = random_cyclic_loop(seed, &cfg(nodes));
            let out = cyclic_schedule(&g, m, &CyclicOptions::default()).unwrap();
            let prog = ScheduleTable::new(out.instantiate(iters)).to_program(iters);
            (g, prog)
        }
        1 => {
            let g = random_loop(seed, &cfg(nodes));
            let cyclic = classify(&g).cyclic;
            let mut prog = schedule_loop(&g, m, iters, &Default::default())
                .unwrap()
                .program;
            for seq in &mut prog.seqs {
                seq.retain(|i| cyclic.contains(&i.node));
            }
            (g, prog)
        }
        _ => {
            let g = random_loop(seed, &cfg(nodes));
            let order = intra_topo_order(&g).unwrap();
            let prog = doacross_program(&order, m.processors, iters);
            (g, prog)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_static_times_match_the_map_based_reference(
        builder in 0u8..3, mutation in 0u8..5, seed in 0u64..4000,
        nodes in 4usize..12, k in 0u32..4, procs in 1usize..6, iters in 1u32..14,
    ) {
        let m = MachineConfig::new(procs, k);
        let (g, mut prog) = base_program(builder, seed, nodes, &m, iters);
        // The busiest processor takes the mutation.
        let target = (0..prog.processors()).max_by_key(|&p| prog.seqs[p].len()).unwrap();
        let last = prog.seqs[target].last().copied();
        let mut foreign = None;
        match (mutation, last) {
            (1, Some(_)) => {
                let dup = prog.seqs[0].first().copied().or(last).unwrap();
                prog.seqs[target].push(dup);
            }
            (2, _) => prog.seqs.iter_mut().for_each(|s| s.reverse()),
            (3, Some(l)) => {
                // Same count, one instance moved past the iteration range.
                let f = InstanceId { node: l.node, iter: iters + 5 };
                *prog.seqs[target].last_mut().unwrap() = f;
                foreign = Some(f);
            }
            (4, Some(l)) => {
                let far = InstanceId { node: l.node, iter: 1 << 24 };
                *prog.seqs[target].last_mut().unwrap() = far;
                foreign = Some(far);
            }
            _ => {}
        }

        let want = reference_static_times(&prog, &g, &m);
        let got = static_times(&prog, &g, &m);
        if mutation == 4 && last.is_some() {
            prop_assert!(!got.as_ref().unwrap().start.index().is_dense(), "sparse fallback");
        } else if let Ok(t) = &got {
            prop_assert!(t.start.index().is_dense());
        }
        prop_assert_eq!(got.map(as_map), want.clone());

        // Checking completeness off the same index build changes nothing
        // but the verdict on incomplete and foreign programs.
        let complete = static_times_complete(&prog, &g, &m).map(as_map);
        let covers = prog.len() == g.node_count() * iters as usize;
        match (&want, foreign) {
            (Err(ProgramError::DuplicateInstance), _) => prop_assert_eq!(complete, want),
            (_, _) if !covers => prop_assert!(
                matches!(complete, Err(ProgramError::IncompleteCover { .. })),
                "{complete:?}"
            ),
            (_, Some(f)) => prop_assert_eq!(complete, Err(ProgramError::ForeignInstance(f))),
            _ => prop_assert_eq!(complete, want),
        }
    }
}
