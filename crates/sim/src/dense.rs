//! The dense per-instance index, seen from the simulators.
//!
//! The index itself — [`kn_sched::InstanceIndex`] / [`kn_sched::StartTable`],
//! `node * iters + iter` with a compact-map fallback for degenerate
//! programs — lives in `kn_sched::dense`, shared with the schedulers, the
//! runtime and the certifiers, and is unit-tested there. This module holds
//! the simulator-level guarantee: every engine produces the same
//! [`crate::SimResult`] whether the program's table is dense or tripped the
//! sparse fallback, and `SimResult: PartialEq` means "same starts" across
//! the two forms.

mod tests {
    use crate::{simulate, simulate_event_with, EventEngine, LinkModel, TrafficModel};
    use kn_ddg::{DdgBuilder, InstanceId, NodeId};
    use kn_sched::{MachineConfig, Program, StartTable};

    fn inst(node: u32, iter: u32) -> InstanceId {
        InstanceId {
            node: NodeId(node),
            iter,
        }
    }

    #[test]
    fn sparse_and_dense_indexing_yield_identical_sim_results() {
        // The same degenerate program, straddling the sparse threshold
        // from both sides: the graph's node count sets the rectangle size,
        // so padding the graph with isolated (never instantiated) nodes
        // pushes the identical program from the dense index into the
        // sparse fallback without changing its semantics. Every engine
        // must produce identical `SimResult`s on both.
        let build_graph = |pads: usize| {
            let mut b = DdgBuilder::new();
            let x = b.node("x");
            let y = b.node("y");
            b.dep(x, y);
            for i in 0..pads {
                b.node(format!("pad{i}"));
            }
            b.build().unwrap()
        };
        // len = 2, iters = 41 -> sparse iff nodes * 41 > 2 * 8 + 4096.
        let dense_g = build_graph(98); // 100 * 41 = 4100 <= 4112
        let sparse_g = build_graph(99); // 101 * 41 = 4141 > 4112
        let prog = Program {
            seqs: vec![vec![inst(0, 40)], vec![inst(1, 40)]],
            iters: 41,
        };
        let is_dense = |g| {
            StartTable::for_program(&prog, g)
                .unwrap()
                .index()
                .is_dense()
        };
        assert!(is_dense(&dense_g) && !is_dense(&sparse_g));

        let m = MachineConfig::new(2, 3);
        let t = TrafficModel { mm: 3, seed: 17 };
        let a = simulate(&prog, &dense_g, &m, &t).unwrap();
        let b = simulate(&prog, &sparse_g, &m, &t).unwrap();
        assert_eq!(a, b, "fixpoint: dense vs sparse");
        assert!(a.makespan > 0 && a.messages == 1);
        assert_eq!(a.start.len(), 2);
        for link in [LinkModel::Unlimited, LinkModel::SingleMessage] {
            for engine in [EventEngine::Heap, EventEngine::Calendar] {
                let a = simulate_event_with(&prog, &dense_g, &m, &t, link, engine).unwrap();
                let b = simulate_event_with(&prog, &sparse_g, &m, &t, link, engine).unwrap();
                assert_eq!(a, b, "event {link:?} {engine:?}: dense vs sparse");
            }
        }
        // `==` still tells different starts apart across the two forms.
        let c = simulate(&prog, &sparse_g, &MachineConfig::new(2, 9), &t).unwrap();
        assert_ne!(a.start, c.start, "a longer link delays y");
    }
}
