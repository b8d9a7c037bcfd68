//! Dependence analysis: flow / anti / output dependences with constant
//! distances (Padua 1979, the analysis the paper's model assumes).
//!
//! For array accesses with affine indices `I + c`, the element written by
//! statement `s` at offset `c1` is read by statement `t` at offset `c2`
//! exactly `c1 - c2` iterations later; a positive difference is a
//! loop-carried dependence, zero is intra-iteration (direction given by
//! statement order), negative flips the direction (and shows up when the
//! pair is visited in the other order).
//!
//! Scalars are a single memory location touched every iteration. By
//! default the analysis applies **scalar expansion** (privatization) to
//! scalars that are always written before being read within an iteration —
//! the predicates introduced by if-conversion are the canonical case —
//! eliminating their spurious loop-carried anti/output dependences. This
//! mirrors what any production parallelizer does before building the DDG;
//! disable it with [`AnalysisOptions::scalar_expansion`] to see the
//! serialized behaviour.

use crate::ifconv::{effective_reads, GuardedAssign};
use crate::stmt::Target;
use std::collections::{BTreeMap, BTreeSet};

/// Kind of dependence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DependenceKind {
    /// Read after write (true dependence).
    Flow,
    /// Write after read.
    Anti,
    /// Write after write.
    Output,
}

/// A dependence between two body statements (indices into the flat body).
/// Ordered by `(src, dst, distance, kind, var)` — the order
/// [`analyze_dependences`] reports them in.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Dependence {
    pub src: usize,
    pub dst: usize,
    pub distance: u32,
    pub kind: DependenceKind,
    /// The variable (array or scalar) carrying the dependence.
    pub var: String,
}

/// Options for [`analyze_dependences`].
#[derive(Clone, Copy, Debug)]
pub struct AnalysisOptions {
    /// Privatize scalars that are defined before use in every iteration.
    pub scalar_expansion: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            scalar_expansion: true,
        }
    }
}

/// One access to a location class.
#[derive(Clone, Debug)]
struct Access {
    stmt: usize,
    /// Array offset (0 for scalars).
    offset: i32,
    is_write: bool,
}

/// Compute all dependences of a flat (if-converted) body.
pub fn analyze_dependences(body: &[GuardedAssign], opts: &AnalysisOptions) -> Vec<Dependence> {
    // Group accesses by variable.
    let mut accesses: BTreeMap<String, Vec<Access>> = BTreeMap::new();
    let mut scalar_vars: BTreeSet<String> = BTreeSet::new();
    for (i, ga) in body.iter().enumerate() {
        let (arrays, scalars) = effective_reads(ga);
        for (a, off) in arrays {
            accesses.entry(a).or_default().push(Access {
                stmt: i,
                offset: off,
                is_write: false,
            });
        }
        for s in scalars {
            scalar_vars.insert(s.clone());
            accesses.entry(s).or_default().push(Access {
                stmt: i,
                offset: 0,
                is_write: false,
            });
        }
        match &ga.assign.target {
            Target::Array { array, offset } => {
                accesses.entry(array.clone()).or_default().push(Access {
                    stmt: i,
                    offset: *offset,
                    is_write: true,
                })
            }
            Target::Scalar(s) => {
                scalar_vars.insert(s.clone());
                accesses.entry(s.clone()).or_default().push(Access {
                    stmt: i,
                    offset: 0,
                    is_write: true,
                });
            }
        }
    }

    let mut deps: BTreeSet<Dependence> = BTreeSet::new();
    for (var, accs) in &accesses {
        let is_scalar = scalar_vars.contains(var);
        let privatized = is_scalar && opts.scalar_expansion && {
            // Written before read in iteration order: the first access
            // must be a write. Within one statement the RHS/guard reads
            // happen before the write, so reads rank first on ties —
            // `acc = acc + A[I]` reads acc first and must NOT privatize.
            accs.iter()
                .min_by_key(|a| (a.stmt, a.is_write))
                .map(|first| first.is_write)
                .unwrap_or(false)
        };
        for def in accs.iter().filter(|a| a.is_write) {
            for other in accs {
                if std::ptr::eq(def, other) {
                    continue;
                }
                if other.is_write {
                    // Output dependence def -> other (earlier write first).
                    push_dep(
                        &mut deps,
                        def,
                        other,
                        def.offset - other.offset,
                        DependenceKind::Output,
                        var,
                        is_scalar,
                        privatized,
                    );
                } else {
                    // Flow def -> use.
                    push_dep(
                        &mut deps,
                        def,
                        other,
                        def.offset - other.offset,
                        DependenceKind::Flow,
                        var,
                        is_scalar,
                        privatized,
                    );
                    // Anti use -> def.
                    push_dep(
                        &mut deps,
                        other,
                        def,
                        other.offset - def.offset,
                        DependenceKind::Anti,
                        var,
                        is_scalar,
                        privatized,
                    );
                }
            }
        }
    }
    deps.into_iter().collect()
}

#[allow(clippy::too_many_arguments)]
fn push_dep(
    deps: &mut BTreeSet<Dependence>,
    src: &Access,
    dst: &Access,
    delta: i32,
    kind: DependenceKind,
    var: &str,
    is_scalar: bool,
    privatized: bool,
) {
    // Self-pairs on the same statement: an array statement never touches
    // the same element as itself in the same iteration unless delta != 0;
    // a scalar statement overwrites itself every iteration.
    let (distance, valid) = if delta > 0 {
        (delta as u32, true)
    } else if delta == 0 {
        if src.stmt < dst.stmt {
            (0, true)
        } else if is_scalar {
            // Same location every iteration: a textually later (or equal)
            // source reaches the next iteration.
            (1, true)
        } else {
            (0, false) // direction flips; covered by the symmetric visit
        }
    } else {
        (0, false) // negative: covered by the symmetric visit
    };
    if !valid {
        return;
    }
    // Privatized scalars keep only intra-iteration flow dependences.
    if privatized && is_scalar && (distance > 0 || kind != DependenceKind::Flow) {
        return;
    }
    if src.stmt == dst.stmt && distance == 0 {
        return; // degenerate self intra edge
    }
    deps.insert(Dependence {
        src: src.stmt,
        dst: dst.stmt,
        distance,
        kind,
        var: var.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use crate::ifconv::if_convert;
    use crate::stmt::*;

    fn flat(stmts: Vec<Stmt>) -> Vec<GuardedAssign> {
        if_convert(&LoopBody::new(stmts))
    }

    fn has(
        deps: &[Dependence],
        src: usize,
        dst: usize,
        distance: u32,
        kind: DependenceKind,
    ) -> bool {
        deps.iter()
            .any(|d| d.src == src && d.dst == dst && d.distance == distance && d.kind == kind)
    }

    #[test]
    fn figure7_flow_dependences() {
        // A: A[I] = A[I-1] * E[I-1]
        // B: B[I] = A[I]
        // C: C[I] = B[I]
        // D: D[I] = D[I-1] * C[I-1]
        // E: E[I] = D[I]
        let body = flat(vec![
            assign(
                "A",
                "A",
                0,
                binop(BinOp::Mul, arr_at("A", -1), arr_at("E", -1)),
            ),
            assign("B", "B", 0, arr("A")),
            assign("C", "C", 0, arr("B")),
            assign(
                "D",
                "D",
                0,
                binop(BinOp::Mul, arr_at("D", -1), arr_at("C", -1)),
            ),
            assign("E", "E", 0, arr("D")),
        ]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        assert!(has(&deps, 0, 0, 1, DependenceKind::Flow), "A -> A carried");
        assert!(has(&deps, 4, 0, 1, DependenceKind::Flow), "E -> A carried");
        assert!(has(&deps, 0, 1, 0, DependenceKind::Flow), "A -> B intra");
        assert!(has(&deps, 1, 2, 0, DependenceKind::Flow), "B -> C intra");
        assert!(has(&deps, 3, 3, 1, DependenceKind::Flow), "D -> D carried");
        assert!(has(&deps, 2, 3, 1, DependenceKind::Flow), "C -> D carried");
        assert!(has(&deps, 3, 4, 0, DependenceKind::Flow), "D -> E intra");
    }

    #[test]
    fn anti_dependence_detected() {
        // S0 reads A[I+1]; S1 writes A[I]: S1 at iteration i+1 overwrites
        // what S0 read at iteration i: anti S0 -> S1 distance 1.
        let body = flat(vec![
            assign("S0", "B", 0, arr_at("A", 1)),
            assign("S1", "A", 0, c(0)),
        ]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        assert!(has(&deps, 0, 1, 1, DependenceKind::Anti), "{deps:?}");
    }

    #[test]
    fn output_dependence_detected() {
        // S0 writes A[I]; S1 writes A[I-1]: element e written by S1 at
        // iteration e+1, by S0 at e: output S0 -> S1 distance 1.
        let body = flat(vec![
            assign("S0", "A", 0, c(1)),
            assign("S1", "A", -1, c(2)),
        ]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        assert!(has(&deps, 0, 1, 1, DependenceKind::Output), "{deps:?}");
        // And intra output S0 -> S1? Different elements in one iteration —
        // only the distance-1 pair exists.
        assert!(!has(&deps, 0, 1, 0, DependenceKind::Output));
    }

    #[test]
    fn intra_flow_respects_statement_order() {
        // Use before def of the same element: no intra flow, but an intra
        // anti (read then write).
        let body = flat(vec![
            assign("S0", "B", 0, arr("A")),
            assign("S1", "A", 0, c(0)),
        ]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        assert!(!has(&deps, 1, 0, 0, DependenceKind::Flow));
        assert!(has(&deps, 0, 1, 0, DependenceKind::Anti));
    }

    #[test]
    fn distance_two_dependence() {
        let body = flat(vec![assign("S0", "A", 0, arr_at("A", -2))]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        assert!(has(&deps, 0, 0, 2, DependenceKind::Flow), "{deps:?}");
    }

    #[test]
    fn privatized_predicate_has_no_carried_deps() {
        // IF A[I-1] > 0 THEN B[I] = 1 ELSE B[I] = 2:
        // p0 is written then read each iteration -> privatized.
        let body = flat(vec![if_stmt(
            binop(BinOp::Gt, arr_at("A", -1), c(0)),
            vec![assign("Bt", "B", 0, c(1))],
            vec![assign("Be", "B", 0, c(2))],
        )]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        for d in deps.iter().filter(|d| d.var == "p0") {
            assert_eq!(d.distance, 0, "privatized scalar carries nothing: {d:?}");
            assert_eq!(d.kind, DependenceKind::Flow);
        }
    }

    #[test]
    fn unexpanded_scalar_serializes() {
        let body = flat(vec![if_stmt(
            binop(BinOp::Gt, arr_at("A", -1), c(0)),
            vec![assign("Bt", "B", 0, c(1))],
            vec![],
        )]);
        let opts = AnalysisOptions {
            scalar_expansion: false,
        };
        let deps = analyze_dependences(&body, &opts);
        assert!(
            deps.iter().any(|d| d.var == "p0" && d.distance == 1),
            "without expansion the predicate location carries: {deps:?}"
        );
    }

    #[test]
    fn self_accumulating_scalar_not_privatized() {
        // acc = acc + A[I]: the read of acc happens before the write in
        // the same statement, so acc carries across iterations — the
        // distance-1 self flow is the recurrence reduction rewriting kills.
        let body = flat(vec![assign_scalar(
            "S0",
            "acc",
            binop(BinOp::Add, scalar("acc"), arr("A")),
        )]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        assert!(
            has(&deps, 0, 0, 1, DependenceKind::Flow),
            "carried self flow on acc: {deps:?}"
        );
    }

    #[test]
    fn live_scalar_not_privatized() {
        // s is read before written: carries across iterations even with
        // expansion enabled.
        let body = flat(vec![
            assign("S0", "B", 0, scalar("s")),
            assign_scalar("S1", "s", arr("B")),
        ]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        assert!(
            has(&deps, 1, 0, 1, DependenceKind::Flow),
            "s flows to next iter: {deps:?}"
        );
    }

    #[test]
    fn guarded_assign_depends_on_old_target() {
        // IF p THEN A[I] = 1: conditional update reads A[I]'s old value —
        // which for offset-0 targets of the same statement means nothing
        // intra, but a flow from any other def. Use two branches writing
        // the same array to see def-def and def-use interplay.
        let body = flat(vec![if_stmt(
            binop(BinOp::Gt, arr_at("A", -1), c(0)),
            vec![assign("At", "A", 0, c(1))],
            vec![assign("Ae", "A", 0, c(2))],
        )]);
        let deps = analyze_dependences(&body, &AnalysisOptions::default());
        // Both guarded writes to A[I] conflict: output dep between them.
        assert!(has(&deps, 1, 2, 0, DependenceKind::Output), "{deps:?}");
        // And the carried flow A[I-1] -> p0's reads appears as p0 dep on A.
        assert!(deps
            .iter()
            .any(|d| d.var == "A" && d.distance == 1 && d.kind == DependenceKind::Flow));
    }
}
