//! Static schedule certification.
//!
//! Given a DDG and a machine model, check that a produced schedule is
//! *provably* correct:
//!
//! * **coverage** — every instance `(node, iter < iters)` is placed
//!   exactly once (KN032);
//! * **resource feasibility** — no two instances overlap on one processor
//!   (KN031), and (advisory) no more messages are in flight per cycle
//!   than the machine has processors (KN033);
//! * **dependence satisfaction** — for every edge `(u → v, d)` and every
//!   iteration `i ≥ d`, the consumer `(v, i)` starts no earlier than the
//!   producer `(u, i−d)` finishes, plus the link latency when they sit on
//!   different processors (KN030).
//!
//! Concrete tables ([`certify_placements`]) are checked instance by
//! instance. Periodic [`Pattern`] kernels are certified **symbolically**
//! ([`certify_pattern`]): one boundary window (prologue, the first kernel
//! occurrences, and the wraparound overlap between adjacent occurrences)
//! is checked concretely, and the steady state is discharged once for all
//! occurrences by an occurrence-independent inequality — never by
//! instantiating 100k iterations.
//!
//! Producers outside the schedule (e.g. Flow-in nodes when certifying a
//! Cyclic-only pattern) are treated as ready at cycle 0, matching
//! [`kn_sched::static_times`] and the paper's §3 practice of measuring
//! the Cyclic core in isolation.

use crate::diag::{Code, Diagnostic, Report};
use crate::mii::{lint_ii, mii_bounds};
use kn_ddg::{Ddg, InstanceId};
use kn_sched::{
    Cycle, LoopSchedule, MachineConfig, Pattern, PatternOutcome, Placement, ScheduleTable,
    StartTable, TimedProgram,
};
use std::collections::HashMap;

/// Knobs for [`certify_loop`] and friends.
#[derive(Clone, Copy, Debug)]
pub struct CertifyOptions {
    /// KN034 slack factor: flag schedules whose achieved II exceeds
    /// `ii_slack × MII`.
    pub ii_slack: f64,
    /// Emit the advisory KN033 link-pressure warning.
    pub check_links: bool,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        Self {
            ii_slack: 2.0,
            check_links: true,
        }
    }
}

/// At most this many findings per code before the rest are summarized —
/// a broken 100k-instance schedule must not produce 100k diagnostics.
const MAX_PER_CODE: usize = 8;

/// Report sink that caps per-code volume (see [`MAX_PER_CODE`]).
struct Sink {
    report: Report,
    counts: HashMap<Code, usize>,
}

impl Sink {
    fn new() -> Self {
        Self {
            report: Report::new(),
            counts: HashMap::new(),
        }
    }

    fn push(&mut self, d: Diagnostic) {
        let c = self.counts.entry(d.code).or_insert(0);
        *c += 1;
        if *c <= MAX_PER_CODE {
            self.report.push(d);
        }
    }

    fn finish(mut self) -> Report {
        let mut suppressed: Vec<(Code, usize)> = self
            .counts
            .iter()
            .filter(|(_, &n)| n > MAX_PER_CODE)
            .map(|(&code, &n)| (code, n - MAX_PER_CODE))
            .collect();
        suppressed.sort_by_key(|(code, _)| code.as_str());
        for (code, extra) in suppressed {
            self.report.push(Diagnostic::new(
                code,
                format!("{extra} additional {code} finding(s) suppressed"),
            ));
        }
        self.report
    }
}

/// Certify concrete placements against `g` and `m` for `iters`
/// iterations. `subset`, when given, restricts coverage and dependence
/// obligations to those nodes (others are external, ready at cycle 0).
///
/// The placements are gathered into a dense [`StartTable`] over the
/// `nodes × iters` rectangle, and every later pass walks that table in
/// slot order — findings (capped per code) come out in the same order on
/// every run.
fn certify_placements_impl(
    g: &Ddg,
    m: &MachineConfig,
    placements: &[Placement],
    iters: u32,
    subset: Option<&[bool]>,
    check_links: bool,
) -> Report {
    let mut sink = Sink::new();
    let in_subset = |v: kn_ddg::NodeId| subset.is_none_or(|s| s[v.index()]);

    // --- Coverage (KN032): each in-scope instance exactly once. ---
    let mut by_inst = StartTable::with_bounds(g.node_count(), iters, placements.len());
    for &p in placements {
        if p.inst.node.index() >= g.node_count() || p.inst.iter >= iters {
            sink.push(
                Diagnostic::new(
                    Code::Kn032,
                    format!(
                        "foreign instance {} (outside the graph/iteration range)",
                        p.inst
                    ),
                )
                .with_nodes([p.inst.node]),
            );
            continue;
        }
        if let Some(prev) = by_inst.insert(p) {
            sink.push(
                Diagnostic::new(
                    Code::Kn032,
                    format!(
                        "instance {} placed twice (p{} @ {} and p{} @ {})",
                        p.inst, prev.proc, prev.start, p.proc, p.start
                    ),
                )
                .with_nodes([p.inst.node]),
            );
        }
    }
    for v in g.node_ids() {
        if !in_subset(v) {
            continue;
        }
        for i in 0..iters {
            let inst = InstanceId { node: v, iter: i };
            if by_inst.get(inst).is_none() {
                sink.push(
                    Diagnostic::new(
                        Code::Kn032,
                        format!(
                            "instance {inst} ({:?}, iteration {i}) is not scheduled",
                            g.name(v)
                        ),
                    )
                    .with_nodes([v]),
                );
            }
        }
    }

    // --- Resource feasibility (KN031): per-processor overlap. ---
    let mut by_proc: Vec<Placement> = by_inst.iter().collect();
    by_proc.sort_unstable_by_key(|p| (p.proc, p.start, p.inst.iter, p.inst.node.0));
    for w in by_proc.windows(2) {
        let (a, b) = (w[0], w[1]);
        let fin = m.finish(a.start, g.latency(a.inst.node));
        if a.proc == b.proc && fin > b.start {
            sink.push(
                Diagnostic::new(
                    Code::Kn031,
                    format!(
                        "processor {} oversubscribed: {} runs cycles {}..{} but {} starts at {}",
                        a.proc, a.inst, a.start, fin, b.inst, b.start
                    ),
                )
                .with_nodes([a.inst.node, b.inst.node]),
            );
        }
    }

    // --- Dependence satisfaction (KN030) + link pressure (KN033). ---
    let mut msgs: Vec<(Cycle, Cycle)> = Vec::new();
    for c in by_inst.iter() {
        if !in_subset(c.inst.node) {
            continue;
        }
        for (eid, e) in g.in_edges(c.inst.node) {
            if e.distance > c.inst.iter || !in_subset(e.src) {
                continue;
            }
            let pred = InstanceId {
                node: e.src,
                iter: c.inst.iter - e.distance,
            };
            let Some((p_proc, p_start)) = by_inst.get(pred) else {
                continue; // already a KN032 coverage finding
            };
            let fin = m.finish(p_start, g.latency(e.src));
            let ready = if p_proc == c.proc {
                m.local_ready(fin)
            } else {
                m.remote_ready(fin, m.edge_cost(e))
            };
            if c.start < ready {
                sink.push(
                    Diagnostic::new(
                        Code::Kn030,
                        format!(
                            "dependence {:?} -> {:?} (edge {eid}, dist {}) violated for \
                             iterations ({}, {}): producer {} on p{} is ready at cycle \
                             {ready}, consumer {} on p{} starts at {}",
                            g.name(e.src),
                            g.name(e.dst),
                            e.distance,
                            pred.iter,
                            c.inst.iter,
                            pred,
                            p_proc,
                            c.inst,
                            c.proc,
                            c.start
                        ),
                    )
                    .with_nodes([e.src, e.dst])
                    .with_edges([eid]),
                );
            }
            if check_links && p_proc != c.proc {
                msgs.push((fin, ready.max(fin)));
            }
        }
    }
    if check_links && !msgs.is_empty() {
        let peak = peak_overlap(&mut msgs);
        if peak > m.processors {
            sink.push(Diagnostic::new(
                Code::Kn033,
                format!(
                    "link pressure: up to {peak} messages in flight in one cycle \
                     on a {}-processor machine",
                    m.processors
                ),
            ));
        }
    }

    sink.finish()
}

/// Max number of half-open intervals `(start, end)` covering one point.
fn peak_overlap(msgs: &mut [(Cycle, Cycle)]) -> usize {
    let mut events: Vec<(Cycle, i32)> = Vec::with_capacity(msgs.len() * 2);
    for &mut (s, e) in msgs.iter_mut() {
        if e > s {
            events.push((s, 1));
            events.push((e, -1));
        }
    }
    events.sort_unstable();
    let mut cur = 0i32;
    let mut peak = 0i32;
    for (_, d) in events {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

/// Certify a concrete placement list for `iters` iterations of `g`.
pub fn certify_placements(
    g: &Ddg,
    m: &MachineConfig,
    placements: &[Placement],
    iters: u32,
) -> Report {
    certify_placements_impl(g, m, placements, iters, None, true)
}

/// Certify a [`ScheduleTable`].
pub fn certify_table(g: &Ddg, m: &MachineConfig, table: &ScheduleTable, iters: u32) -> Report {
    certify_placements(g, m, table.placements(), iters)
}

/// Certify a [`TimedProgram`] (e.g. DOACROSS or `static_times` output)
/// for `iters` iterations.
pub fn certify_timed(g: &Ddg, m: &MachineConfig, t: &TimedProgram, iters: u32) -> Report {
    let placements: Vec<Placement> = t.start.iter().collect();
    certify_placements(g, m, &placements, iters)
}

/// Certify a periodic [`Pattern`] symbolically: kernel well-formedness
/// (KN035), one concrete boundary window (prologue + first occurrences +
/// wraparound), and an occurrence-independent steady-state inequality per
/// kernel dependence.
pub fn certify_pattern(g: &Ddg, m: &MachineConfig, p: &Pattern) -> Report {
    let mut report = Report::new();
    let d = p.iters_per_period;
    let t = p.cycles_per_period;
    if p.kernel.is_empty() {
        report.push(Diagnostic::new(Code::Kn035, "pattern has an empty kernel"));
        return report;
    }
    if d == 0 || t == 0 {
        report.push(Diagnostic::new(
            Code::Kn035,
            format!("degenerate kernel period: {d} iterations / {t} cycles"),
        ));
        return report;
    }

    // The node subset this pattern schedules; everything else (Flow-in /
    // Flow-out) is external.
    let mut in_pat = vec![false; g.node_count()];
    for pl in p.kernel.iter().chain(&p.prologue) {
        if pl.inst.node.index() < g.node_count() {
            in_pat[pl.inst.node.index()] = true;
        }
    }

    // KN035: each scheduled node's kernel entries must cover every
    // residue class mod `d` exactly once — otherwise successive
    // occurrences skip or double iterations.
    let mut residues: HashMap<kn_ddg::NodeId, Vec<u32>> = HashMap::new();
    for pl in &p.kernel {
        residues
            .entry(pl.inst.node)
            .or_default()
            .push(pl.inst.iter % d);
    }
    let mut kernel_nodes: Vec<kn_ddg::NodeId> = residues.keys().copied().collect();
    kernel_nodes.sort_unstable();
    for v in &kernel_nodes {
        let mut rs = residues[v].clone();
        rs.sort_unstable();
        let want: Vec<u32> = (0..d).collect();
        if rs != want {
            report.push(
                Diagnostic::new(
                    Code::Kn035,
                    format!(
                        "kernel covers iteration residues {rs:?} (mod {d}) for node {:?}, \
                         expected every residue exactly once",
                        g.name(*v)
                    ),
                )
                .with_nodes([*v]),
            );
        }
    }
    if report.has_errors() {
        return report; // residue breakage makes the steady-state check moot
    }

    // --- Steady state, discharged symbolically. For consumer kernel
    // entry c and producer kernel entry q of edge (u -> v, δ) with
    // q.iter ≡ c.iter − δ (mod d), *every* occurrence instantiates the
    // same inequality shifted by a multiple of T:
    //     c.start + rT ≥ ready(q.start + sT + lat, comm) + rT
    // so checking it once at occurrence offset s covers all r.
    let kernel_index: HashMap<(kn_ddg::NodeId, u32), Placement> = p
        .kernel
        .iter()
        .map(|pl| ((pl.inst.node, pl.inst.iter % d), *pl))
        .collect();
    for c in &p.kernel {
        for (eid, e) in g.in_edges(c.inst.node) {
            if !in_pat[e.src.index()] {
                continue;
            }
            let delta = e.distance;
            // Producer residue class of iteration c.iter − δ (mod d).
            let want = ((c.inst.iter as i64 - delta as i64).rem_euclid(d as i64)) as u32;
            let Some(q) = kernel_index.get(&(e.src, want)) else {
                // Producer node is in the pattern but has no kernel entry
                // for this residue — residue check above would have fired;
                // be defensive anyway.
                report.push(
                    Diagnostic::new(
                        Code::Kn032,
                        format!(
                            "no kernel producer for dependence {:?} -> {:?} at residue {want}",
                            g.name(e.src),
                            g.name(e.dst)
                        ),
                    )
                    .with_edges([eid]),
                );
                continue;
            };
            // Occurrence shift s: q.iter + s·d = c.iter − δ.
            let s = (c.inst.iter as i64 - delta as i64 - q.inst.iter as i64) / d as i64;
            let fin = m.finish(q.start, g.latency(e.src));
            let ready0 = if q.proc == c.proc {
                m.local_ready(fin)
            } else {
                m.remote_ready(fin, m.edge_cost(e))
            };
            let required = ready0 as i128 + t as i128 * s as i128;
            if (c.start as i128) < required {
                report.push(
                    Diagnostic::new(
                        Code::Kn030,
                        format!(
                            "steady-state dependence {:?} -> {:?} (edge {eid}, dist {delta}) \
                             violated: for every occurrence r, consumer ({}, {}+{d}r) starts \
                             at cycle {}+{t}r but producer ({}, {}+{d}r) is ready at {}+{t}r",
                            g.name(e.src),
                            g.name(e.dst),
                            g.name(c.inst.node),
                            c.inst.iter,
                            c.start,
                            g.name(e.src),
                            c.inst.iter as i64 - delta as i64,
                            required
                        ),
                    )
                    .with_nodes([e.src, e.dst])
                    .with_edges([eid]),
                );
            }
        }
    }

    // --- Boundary window: prologue, the prologue→kernel hand-off, and
    // enough kernel occurrences to witness every wraparound overlap
    // between occupied occurrences. The window size depends only on the
    // pattern's shape, never on the requested iteration count.
    let span: Cycle = {
        let lo = p.kernel.iter().map(|pl| pl.start).min().unwrap_or(0);
        let hi = p
            .kernel
            .iter()
            .map(|pl| m.finish(pl.start, g.latency(pl.inst.node)))
            .max()
            .unwrap_or(0);
        hi.saturating_sub(lo)
    };
    let overlap_occurrences = (span / t) as u32 + 2;
    let prologue_iters = p
        .prologue
        .iter()
        .map(|pl| pl.inst.iter + 1)
        .max()
        .unwrap_or(0);
    let window_iters = prologue_iters
        .saturating_add(d.saturating_mul(overlap_occurrences))
        .saturating_add(g.max_distance())
        .saturating_add(d)
        .min(4096); // hard cap keeps adversarial patterns cheap
    let window = p.instantiate(window_iters);
    report.merge(certify_placements_impl(
        g,
        m,
        &window,
        window_iters,
        Some(&in_pat),
        false,
    ));

    report
}

/// Certify a [`PatternOutcome`]: a found pattern symbolically, a block
/// fallback as the periodic schedule it tiles.
pub fn certify_outcome(g: &Ddg, m: &MachineConfig, o: &PatternOutcome) -> Report {
    match o {
        PatternOutcome::Found(p) => certify_pattern(g, m, p),
        PatternOutcome::CapFallback(b) => {
            // A block schedule is a pattern with an empty prologue.
            let as_pattern = Pattern {
                prologue: Vec::new(),
                kernel: b.block.clone(),
                iters_per_period: b.block_iters,
                cycles_per_period: b.period,
            };
            certify_pattern(g, m, &as_pattern)
        }
    }
}

/// Certify a complete [`LoopSchedule`] (the Figure 6 pipeline output):
/// the concrete program timing, each Cyclic pattern symbolically, and the
/// KN034 II-vs-MII quality lint.
pub fn certify_loop_with(
    g: &Ddg,
    m: &MachineConfig,
    s: &LoopSchedule,
    opts: &CertifyOptions,
) -> Report {
    let placements: Vec<Placement> = s.timing.start.iter().collect();
    let mut report = certify_placements_impl(g, m, &placements, s.iters, None, opts.check_links);
    for o in &s.cyclic_outcomes {
        report.merge(certify_outcome(g, m, o));
    }
    if let Some(ii) = s.cyclic_ii() {
        let bounds = mii_bounds(g, m);
        lint_ii(&mut report, &bounds, ii, opts.ii_slack);
    }
    report
}

/// [`certify_loop_with`] under default options.
pub fn certify_loop(g: &Ddg, m: &MachineConfig, s: &LoopSchedule) -> Report {
    certify_loop_with(g, m, s, &CertifyOptions::default())
}

/// `debug_assert`-style hook for [`kn_sched::FullOptions::certify`]:
/// errors (never warnings) fail the schedule.
pub fn certify_loop_hook(g: &Ddg, m: &MachineConfig, s: &LoopSchedule) -> Result<(), String> {
    let report = certify_loop(g, m, s);
    match report.first_error() {
        Some(d) => Err(d.to_string()),
        None => Ok(()),
    }
}

/// `debug_assert`-style hook for `DoacrossOptions::certify` (iteration
/// count inferred from the timed program).
pub fn certify_timed_hook(g: &Ddg, m: &MachineConfig, t: &TimedProgram) -> Result<(), String> {
    let iters = t.start.iter().map(|p| p.inst.iter + 1).max().unwrap_or(0);
    let report = certify_timed(g, m, t, iters);
    match report.first_error() {
        Some(d) => Err(d.to_string()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::{DdgBuilder, NodeId};
    use kn_sched::{schedule_loop, FullOptions};

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

    #[test]
    fn certifies_figure7_loop_schedule() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 20, &FullOptions::default()).unwrap();
        let r = certify_loop(&g, &m, &s);
        assert!(!r.has_errors(), "{}", r.render_human());
    }

    #[test]
    fn symbolic_pattern_check_is_iteration_count_independent() {
        // Certifying the pattern touches a bounded window regardless of
        // how many iterations the service would instantiate.
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 12, &FullOptions::default()).unwrap();
        for o in &s.cyclic_outcomes {
            let r = certify_outcome(&g, &m, o);
            assert!(!r.has_errors(), "{}", r.render_human());
        }
    }

    #[test]
    fn mutation_swapped_slots_rejected() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 16, &FullOptions::default()).unwrap();
        let mut pl = ScheduleTable::from_timed(&s.timing).placements().to_vec();
        // Swap the start cycles of a dependent producer/consumer pair.
        let a = pl
            .iter()
            .position(|p| {
                p.inst
                    == InstanceId {
                        node: NodeId(0),
                        iter: 3,
                    }
            })
            .unwrap();
        let b = pl
            .iter()
            .position(|p| {
                p.inst
                    == InstanceId {
                        node: NodeId(1),
                        iter: 3,
                    }
            })
            .unwrap();
        let (sa, sb) = (pl[a].start, pl[b].start);
        pl[a].start = sb;
        pl[b].start = sa;
        let r = certify_placements(&g, &m, &pl, 16);
        assert!(r.has_errors(), "swap must be caught");
        let d = r.first_error().unwrap();
        assert!(
            matches!(d.code, Code::Kn030 | Code::Kn031),
            "expected a dependence/overlap error, got {}",
            d
        );
        assert!(!d.nodes.is_empty(), "finding must name the offenders");
    }

    #[test]
    fn mutation_dropped_comm_delay_rejected() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 16, &FullOptions::default()).unwrap();
        let mut pl = ScheduleTable::from_timed(&s.timing).placements().to_vec();
        // Find a cross-processor dependence and move the consumer up to
        // the producer's raw finish — as if the message were free.
        let by_inst: HashMap<InstanceId, Placement> = pl.iter().map(|p| (p.inst, *p)).collect();
        let mut mutated = false;
        'outer: for p in pl.iter_mut() {
            for (_, e) in g.in_edges(p.inst.node) {
                if e.distance > p.inst.iter {
                    continue;
                }
                let pred = InstanceId {
                    node: e.src,
                    iter: p.inst.iter - e.distance,
                };
                if let Some(q) = by_inst.get(&pred) {
                    let fin = m.finish(q.start, g.latency(e.src));
                    let ready = m.remote_ready(fin, m.edge_cost(e));
                    if q.proc != p.proc && p.start >= ready && ready > fin {
                        p.start = fin.saturating_sub(1);
                        mutated = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(mutated, "figure7 on 4 procs must have a cross-proc edge");
        let r = certify_placements(&g, &m, &pl, 16);
        assert!(r.has_errors());
        let kn030 = r.with_code(Code::Kn030).next();
        let kn031 = r.with_code(Code::Kn031).next();
        assert!(kn030.is_some() || kn031.is_some(), "{}", r.render_human());
        if let Some(d) = kn030 {
            assert!(!d.edges.is_empty(), "KN030 must name the edge");
        }
    }

    #[test]
    fn mutation_shrunk_ii_rejected() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 16, &FullOptions::default()).unwrap();
        let p = s.cyclic_outcomes[0]
            .pattern()
            .expect("figure7 finds a pattern");
        let mut shrunk = p.clone();
        shrunk.cycles_per_period -= 1;
        let r = certify_pattern(&g, &m, &shrunk);
        assert!(
            r.has_errors(),
            "shrinking the II must break a dependence or overlap:\n{}",
            r.render_human()
        );
    }

    #[test]
    fn mutation_dropped_instance_rejected() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 10, &FullOptions::default()).unwrap();
        let mut pl = ScheduleTable::from_timed(&s.timing).placements().to_vec();
        pl.remove(pl.len() / 2);
        let r = certify_placements(&g, &m, &pl, 10);
        assert_eq!(r.first_error().unwrap().code, Code::Kn032);
    }

    #[test]
    fn degenerate_kernels_are_kn035() {
        let g = figure7();
        let m = MachineConfig::new(2, 1);
        let empty = Pattern {
            prologue: Vec::new(),
            kernel: Vec::new(),
            iters_per_period: 1,
            cycles_per_period: 1,
        };
        assert_eq!(certify_pattern(&g, &m, &empty).diags[0].code, Code::Kn035);
        let zero_period = Pattern {
            prologue: Vec::new(),
            kernel: vec![Placement {
                inst: InstanceId {
                    node: NodeId(0),
                    iter: 0,
                },
                proc: 0,
                start: 0,
            }],
            iters_per_period: 1,
            cycles_per_period: 0,
        };
        assert_eq!(
            certify_pattern(&g, &m, &zero_period).diags[0].code,
            Code::Kn035
        );
    }

    #[test]
    fn broken_residue_cover_is_kn035() {
        // Kernel claims 2 iterations per period but only schedules
        // residue 0 for the node.
        let mut b = DdgBuilder::new();
        let x = b.node("x");
        b.carried(x, x);
        let g = b.build().unwrap();
        let m = MachineConfig::new(1, 1);
        let p = Pattern {
            prologue: Vec::new(),
            kernel: vec![
                Placement {
                    inst: InstanceId { node: x, iter: 0 },
                    proc: 0,
                    start: 0,
                },
                Placement {
                    inst: InstanceId { node: x, iter: 2 },
                    proc: 0,
                    start: 1,
                },
            ],
            iters_per_period: 2,
            cycles_per_period: 2,
        };
        let r = certify_pattern(&g, &m, &p);
        assert_eq!(r.first_error().unwrap().code, Code::Kn035);
    }

    #[test]
    fn hook_rejects_mutants_and_accepts_genuine() {
        let g = figure7();
        let m = MachineConfig::new(4, 2);
        let s = schedule_loop(&g, &m, 12, &FullOptions::default()).unwrap();
        assert!(certify_loop_hook(&g, &m, &s).is_ok());
        let mut broken = s.clone();
        broken.iters += 1; // claims one more iteration than it schedules
        let err = certify_loop_hook(&g, &m, &broken).unwrap_err();
        assert!(err.contains("KN032"), "{err}");
    }
}
