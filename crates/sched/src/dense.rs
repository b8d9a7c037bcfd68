//! Dense per-instance storage: the one index every per-instance table in
//! the workspace is addressed through, and the flat `(processor, start)`
//! table built on it.
//!
//! A [`Program`] normally covers a rectangular instance space — every
//! instance is `(node, iter)` with bounds discoverable in one pass — so a
//! per-instance table is a flat `Vec` whose slot is *computed*,
//! `node * iters + iter`, never hashed. [`InstanceIndex`] is that
//! computation; [`StartTable`] is the table the schedulers, both
//! simulators, the threaded runtime and the certifiers read: one
//! `(proc, start)` cell per instance, filled in by the timing sweep
//! ([`crate::program::sweep`]) or the event engine.
//!
//! Hand-built programs are not obliged to be rectangular, though: a single
//! instance at iteration 10⁹ would stretch the rectangle to `nodes × 10⁹`
//! slots. When the rectangle is much larger than the instance count the
//! index falls back to a compact map handing out slots in insertion order,
//! so degenerate programs stay cheap instead of aborting on allocation.
//! Both forms answer every query identically (tested here and, through the
//! simulators, in `kn-sim`).

use crate::machine::Cycle;
use crate::program::{Program, ProgramError};
use crate::table::Placement;
use kn_ddg::{Ddg, InstanceId, NodeId};
use std::collections::HashMap;

/// When the `nodes × iters` rectangle exceeds this many times the expected
/// instance count (plus slack for tiny programs), use the sparse fallback.
const SPARSE_FACTOR: usize = 8;
const SPARSE_SLACK: usize = 4096;

/// Sparse fallback: slots are handed out `0..len` in insertion order, so
/// parallel tables stay instance-count-sized and iterate deterministically.
#[derive(Clone, Default)]
struct Sparse {
    slot_of: HashMap<InstanceId, u32>,
    insts: Vec<InstanceId>,
}

/// Maps an instance to its slot in a flat per-instance table.
#[derive(Clone)]
pub struct InstanceIndex {
    nodes: usize,
    iters: u32,
    /// `None`: the slot is `node * iters + iter`.
    sparse: Option<Sparse>,
}

impl InstanceIndex {
    fn new(nodes: usize, iters: u32, expected: usize) -> Self {
        let rectangle = nodes.saturating_mul(iters as usize);
        let sparse = (rectangle > expected.saturating_mul(SPARSE_FACTOR) + SPARSE_SLACK)
            .then(Sparse::default);
        Self {
            nodes,
            iters,
            sparse,
        }
    }

    /// True when slots are computed (`node * iters + iter`) rather than
    /// looked up in the sparse fallback.
    pub fn is_dense(&self) -> bool {
        self.sparse.is_none()
    }

    /// Length a parallel per-instance table must have.
    #[inline]
    pub fn table_len(&self) -> usize {
        match &self.sparse {
            None => self.nodes * self.iters as usize,
            Some(s) => s.insts.len(),
        }
    }

    /// Slot of `inst`, or `None` when it lies outside the index (beyond
    /// the rectangle, or never inserted into the sparse fallback). A dense
    /// index has a slot for every point of the rectangle, including
    /// instances that are not part of the program.
    #[inline]
    pub fn slot(&self, inst: InstanceId) -> Option<usize> {
        match &self.sparse {
            None => ((inst.node.0 as usize) < self.nodes && inst.iter < self.iters)
                .then(|| inst.node.0 as usize * self.iters as usize + inst.iter as usize),
            Some(s) => s.slot_of.get(&inst).map(|&i| i as usize),
        }
    }

    /// The instance a slot belongs to (inverse of [`Self::slot`]).
    #[inline]
    pub fn inst_at(&self, slot: usize) -> InstanceId {
        match &self.sparse {
            None => InstanceId {
                node: NodeId((slot / self.iters as usize) as u32),
                iter: (slot % self.iters as usize) as u32,
            },
            Some(s) => s.insts[slot],
        }
    }

    /// Slot of `inst`, handing out a fresh one in the sparse fallback.
    /// Panics on an instance outside a dense rectangle.
    fn slot_or_insert(&mut self, inst: InstanceId) -> usize {
        let Some(s) = &mut self.sparse else {
            return self.slot(inst).unwrap_or_else(|| {
                panic!(
                    "instance {inst} outside the {} x {} table",
                    self.nodes, self.iters
                )
            });
        };
        let next = s.insts.len() as u32;
        let slot = *s.slot_of.entry(inst).or_insert(next);
        if slot == next {
            s.insts.push(inst);
        }
        slot as usize
    }
}

/// Processor marking "this slot holds no instance of the program".
const ABSENT: u32 = u32::MAX;
/// Start cycle marking "assigned to a processor, not timed yet".
const UNTIMED: Cycle = Cycle::MAX;

/// Flat `(processor, start cycle)` table over an [`InstanceIndex`].
///
/// An instance is in one of three states: absent (not part of the
/// program), assigned (its processor is known, its start is not — the
/// state [`StartTable::for_program`] leaves every instance in), or timed.
/// [`get`](Self::get), [`iter`](Self::iter), [`len`](Self::len) and `==`
/// see timed instances only, so two tables compare equal exactly when they
/// hold the same starts, whichever index form backs them.
#[derive(Clone)]
pub struct StartTable {
    index: InstanceIndex,
    cells: Vec<(u32, Cycle)>,
    timed: usize,
}

impl StartTable {
    /// An empty table for instances `(node < nodes, iter < iters)`, of
    /// which about `expected` will be inserted.
    pub fn with_bounds(nodes: usize, iters: u32, expected: usize) -> Self {
        let index = InstanceIndex::new(nodes, iters, expected);
        let cells = if index.is_dense() {
            vec![(ABSENT, UNTIMED); index.table_len()]
        } else {
            Vec::with_capacity(expected)
        };
        Self {
            index,
            cells,
            timed: 0,
        }
    }

    /// One pass over the program: find the bounds, assign every instance
    /// its processor (untimed), and reject duplicate instances. The bounds
    /// stretch to cover instances outside `g`'s nodes or `prog.iters`, so
    /// foreign instances are representable (and found by
    /// [`Self::check_complete`]).
    pub fn for_program(prog: &Program, g: &Ddg) -> Result<Self, ProgramError> {
        let mut nodes = g.node_count();
        let mut iters = prog.iters;
        for inst in prog.seqs.iter().flatten() {
            nodes = nodes.max(inst.node.0 as usize + 1);
            iters = iters.max(inst.iter.saturating_add(1));
        }
        let mut table = Self::with_bounds(nodes, iters, prog.len());
        for (p, seq) in prog.seqs.iter().enumerate() {
            for &inst in seq {
                let slot = table.claim(inst);
                if table.cells[slot].0 != ABSENT {
                    return Err(ProgramError::DuplicateInstance);
                }
                table.cells[slot].0 = p as u32;
            }
        }
        Ok(table)
    }

    /// Slot of `inst`, growing the cell vector alongside a sparse index.
    fn claim(&mut self, inst: InstanceId) -> usize {
        let slot = self.index.slot_or_insert(inst);
        if slot == self.cells.len() {
            self.cells.push((ABSENT, UNTIMED));
        }
        slot
    }

    /// Check that `prog` — the program this table was built for — covers
    /// each instance of `g`'s nodes for iterations `0..prog.iters` exactly
    /// once. A foreign instance is reported as the first one in program
    /// order (processor by processor, each sequence front to back).
    pub fn check_complete(&self, prog: &Program, g: &Ddg) -> Result<(), ProgramError> {
        // Duplicates were rejected at build time, so `prog.len()` counts
        // distinct instances.
        let want = g.node_count() * prog.iters as usize;
        if prog.len() != want {
            return Err(ProgramError::IncompleteCover {
                have: prog.len(),
                want,
            });
        }
        // The bounds only ever stretch past the graph to cover a foreign
        // instance; unstretched bounds prove there is none.
        if self.index.nodes > g.node_count() || self.index.iters > prog.iters {
            let foreign = prog
                .seqs
                .iter()
                .flatten()
                .find(|i| i.node.index() >= g.node_count() || i.iter >= prog.iters);
            if let Some(&inst) = foreign {
                return Err(ProgramError::ForeignInstance(inst));
            }
        }
        Ok(())
    }

    /// The index addressing this table (for parallel per-instance tables).
    pub fn index(&self) -> &InstanceIndex {
        &self.index
    }

    /// Processor and, once timed, start cycle of `inst`; `None` when the
    /// instance is not part of the program (including instances outside
    /// the bounds, e.g. a successor `iter + distance` past the last
    /// iteration).
    #[inline]
    pub fn lookup(&self, inst: InstanceId) -> Option<(usize, Option<Cycle>)> {
        let (p, t) = self.cells[self.index.slot(inst)?];
        (p != ABSENT).then(|| (p as usize, (t != UNTIMED).then_some(t)))
    }

    /// Processor and start cycle of a timed instance.
    pub fn get(&self, inst: InstanceId) -> Option<(usize, Cycle)> {
        match self.lookup(inst)? {
            (p, Some(t)) => Some((p, t)),
            _ => None,
        }
    }

    /// Start cycle of a timed instance.
    pub fn start_of(&self, inst: InstanceId) -> Option<Cycle> {
        self.get(inst).map(|(_, t)| t)
    }

    /// Processor of an instance of the program (timed or not).
    #[inline]
    pub fn proc_of(&self, inst: InstanceId) -> Option<usize> {
        self.lookup(inst).map(|(p, _)| p)
    }

    /// Record the start cycle of an assigned, not yet timed instance.
    #[inline]
    pub fn set_start(&mut self, inst: InstanceId, start: Cycle) {
        let slot = self.index.slot(inst).expect("instance of the program");
        let cell = &mut self.cells[slot];
        debug_assert!(cell.0 != ABSENT && cell.1 == UNTIMED && start != UNTIMED);
        cell.1 = start;
        self.timed += 1;
    }

    /// Place `p.inst` on `p.proc` at `p.start`, returning the placement it
    /// replaces, if any. Panics if the instance lies outside the bounds the
    /// table was created with.
    pub fn insert(&mut self, p: Placement) -> Option<Placement> {
        let slot = self.claim(p.inst);
        let (proc, start) = std::mem::replace(&mut self.cells[slot], (p.proc as u32, p.start));
        if proc != ABSENT && start != UNTIMED {
            return Some(Placement {
                inst: p.inst,
                proc: proc as usize,
                start,
            });
        }
        self.timed += 1;
        None
    }

    /// Number of timed instances.
    pub fn len(&self) -> usize {
        self.timed
    }

    /// True when no instance is timed.
    pub fn is_empty(&self) -> bool {
        self.timed == 0
    }

    /// Timed instances in slot order: node-major then by iteration for a
    /// dense table, insertion order for the sparse fallback — never a
    /// per-process hash order.
    pub fn iter(&self) -> impl Iterator<Item = Placement> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, &(p, t))| p != ABSENT && t != UNTIMED)
            .map(|(slot, &(p, t))| Placement {
                inst: self.index.inst_at(slot),
                proc: p as usize,
                start: t,
            })
    }
}

impl PartialEq for StartTable {
    fn eq(&self, other: &Self) -> bool {
        self.timed == other.timed
            && self
                .iter()
                .all(|p| other.get(p.inst) == Some((p.proc, p.start)))
    }
}

impl Eq for StartTable {}

impl std::fmt::Debug for StartTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|p| (p.inst, (p.proc, p.start))))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::DdgBuilder;

    fn inst(node: u32, iter: u32) -> InstanceId {
        InstanceId {
            node: NodeId(node),
            iter,
        }
    }

    fn two_node_graph() -> Ddg {
        let mut b = DdgBuilder::new();
        b.node("x");
        b.node("y");
        b.build().unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(0, 1)], vec![inst(1, 0)]],
            iters: 2,
        };
        let d = StartTable::for_program(&prog, &g).unwrap();
        assert_eq!(d.proc_of(inst(0, 0)), Some(0));
        assert_eq!(d.proc_of(inst(0, 1)), Some(0));
        assert_eq!(d.proc_of(inst(1, 0)), Some(1));
        assert_eq!(d.proc_of(inst(1, 1)), None, "in bounds but absent");
        assert_eq!(d.proc_of(inst(1, 7)), None, "iteration out of bounds");
        assert_eq!(d.proc_of(inst(9, 0)), None, "node out of bounds");
        assert_eq!(
            d.index().inst_at(d.index().slot(inst(1, 0)).unwrap()),
            inst(1, 0)
        );
    }

    #[test]
    fn duplicates_rejected() {
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(0, 0)], vec![inst(0, 0)]],
            iters: 1,
        };
        assert!(matches!(
            StartTable::for_program(&prog, &g),
            Err(ProgramError::DuplicateInstance)
        ));
    }

    #[test]
    fn bounds_cover_instances_beyond_declared_iters() {
        // Hand-built programs may exceed `prog.iters`; the table stretches.
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(1, 5)]],
            iters: 1,
        };
        let d = StartTable::for_program(&prog, &g).unwrap();
        assert_eq!(d.proc_of(inst(1, 5)), Some(0));
        assert_eq!(d.proc_of(inst(1, 4)), None);
    }

    #[test]
    fn export_skips_unstarted() {
        // The public view (`get`, `iter`, `len`) sees timed instances only.
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(0, 0), inst(1, 0)]],
            iters: 1,
        };
        let mut d = StartTable::for_program(&prog, &g).unwrap();
        assert!(d.is_empty());
        d.set_start(inst(0, 0), 3);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(inst(0, 0)), Some((0, 3)));
        assert_eq!(d.get(inst(1, 0)), None);
        assert_eq!(d.lookup(inst(1, 0)), Some((0, None)));
        let all: Vec<Placement> = d.iter().collect();
        assert_eq!(
            all,
            vec![Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 3
            }]
        );
    }

    #[test]
    fn degenerate_high_iteration_uses_sparse_fallback() {
        // One instance at iteration 2^31: the rectangle would be ~2 * 2^31
        // cells (tens of GB); the sparse index keeps it at one entry each.
        let g = two_node_graph();
        let prog = Program {
            seqs: vec![vec![inst(1, 1 << 31)], vec![inst(0, 0)]],
            iters: 1,
        };
        let d = StartTable::for_program(&prog, &g).unwrap();
        assert!(!d.index().is_dense());
        assert_eq!(d.index().table_len(), 2);
        assert_eq!(d.proc_of(inst(1, 1 << 31)), Some(0));
        assert_eq!(d.proc_of(inst(0, 0)), Some(1));
        assert_eq!(d.proc_of(inst(0, 7)), None);
        // Slots are distinct and within the table.
        let (a, b) = (
            d.index().slot(inst(1, 1 << 31)).unwrap(),
            d.index().slot(inst(0, 0)).unwrap(),
        );
        assert!(a != b && a < 2 && b < 2);
        // Duplicates still rejected in sparse mode.
        let dup = Program {
            seqs: vec![vec![inst(1, 1 << 31)], vec![inst(1, 1 << 31)]],
            iters: 1,
        };
        assert!(matches!(
            StartTable::for_program(&dup, &g),
            Err(ProgramError::DuplicateInstance)
        ));
        // The very last iteration does not overflow the bounds pass.
        let last = Program {
            seqs: vec![vec![inst(0, u32::MAX)]],
            iters: 1,
        };
        let d = StartTable::for_program(&last, &g).unwrap();
        assert_eq!(d.proc_of(inst(0, u32::MAX)), Some(0));
    }

    #[test]
    fn dense_and_sparse_tables_of_the_same_starts_compare_equal() {
        // Same placements, one table sized so the rectangle is dense, one
        // so it trips the fallback: `==`, `len`, `get` agree; only the
        // iteration order (slot order) differs.
        let pl = [(inst(1, 40), 1, 9), (inst(0, 40), 0, 4)];
        let mut dense = StartTable::with_bounds(100, 41, 2);
        let mut sparse = StartTable::with_bounds(101, 41, 2);
        assert!(dense.index().is_dense() && !sparse.index().is_dense());
        for &(inst, proc, start) in &pl {
            let p = Placement { inst, proc, start };
            assert_eq!(dense.insert(p), None);
            assert_eq!(sparse.insert(p), None);
        }
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        let order = |t: &StartTable| t.iter().map(|p| p.inst).collect::<Vec<_>>();
        assert_eq!(order(&dense), vec![inst(0, 40), inst(1, 40)], "slot order");
        assert_eq!(order(&sparse), vec![inst(1, 40), inst(0, 40)], "insertion");
        // Re-inserting replaces and reports the previous placement.
        let moved = Placement {
            inst: inst(0, 40),
            proc: 1,
            start: 5,
        };
        let prev = sparse.insert(moved).unwrap();
        assert_eq!((prev.proc, prev.start), (0, 4));
        assert_eq!(sparse.len(), 2);
        assert_ne!(dense, sparse);
        assert_eq!(dense.insert(moved).map(|p| p.start), Some(4));
        assert_eq!(dense, sparse);
    }
}
