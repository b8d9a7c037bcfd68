//! The traced pass: where does a request's time go, layer by layer?
//!
//! Spans are recorded from this file, around calls into each layer's
//! public API (spans *inside* the product are a later change). For the
//! requests that follow the warm-up in the workload's stream, up to 256
//! distinct ones, single-threaded:
//!
//! 1. **layered** — every distinct request goes through a replica of
//!    `service::execute` built from the layers' own entry points, in
//!    pipeline order, each call inside a span:
//!    `wire::parse_request_line` → file read → `kn_verify::lint_text` →
//!    `kn_ddg::parse_text` / `kn_workloads::by_name` →
//!    `kn_xform::transform_loop` → `kn_sched::schedule_loop` (or
//!    `kn_doacross::doacross_schedule`) → `SimOptions::run` →
//!    `wire::response_json`. The rendered line must equal the reference.
//!    Calls the pipeline makes internally (`classify`, `cyclic_schedule`,
//!    `instantiate`, `static_times`, `analyze_dependences`, `lower_flat`,
//!    `check_equivalence`) and `certify_loop` are re-run on the same
//!    inputs as **replica** spans, children of the span they explain.
//! 2. **core** — each request, right after its layered run, through
//!    `service::execute`, untraced.
//! 3. **service** — the whole sample, repeats included, through a fresh
//!    in-process `Service` (warmed like the server), one outstanding.
//! 4. **net** — the same over TCP through `NetServer`, one outstanding,
//!    alternating with step 3 request by request.
//!
//! Steps 3 and 4 run three times and the fastest repetition is kept.
//! Each boundary's time minus the next inner one is that layer's
//! overhead; `*.share` divides every layer's part of the mean TCP round
//! trip by their sum.

use crate::alloc;
use crate::check::{xform_options, Expected};
use crate::client::Conn;
use crate::gen::{Inputs, WARMUP_REQUESTS};
use crate::server::service_config;
use crate::stats::{geomean, mean, median};
use kn_core::service::net::{NetConfig, NetServer};
use kn_core::service::{
    self, wire, DrainPolicy, LoopOutcome, LoopRequest, LoopSource, ScheduleRequest,
    ScheduleResponse, SchedulerChoice, Service, ServiceError, SubmitOptions, SubmitOutcome,
    TransformMode, TransformSummary,
};
use kn_sched::{MachineConfig, PatternOutcome};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Stop sampling the stream at this many distinct requests ...
const MAX_DISTINCT: usize = 256;
/// ... or this many requests, whichever comes first.
const MAX_SAMPLE: usize = 4096;

#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the request within the sample's distinct requests.
    pub req: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Re-run of a call the parent span made internally.
    pub replica: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, req: u32, parent: Option<u32>, name: &'static str, replica: bool) -> u32 {
        let id = self.spans.len() as u32;
        let (allocs, alloc_bytes) = alloc::snapshot();
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            replica,
            start_ns: 0,
            end_ns: 0,
            allocs,
            alloc_bytes,
        });
        // The clock is read last so the bookkeeping above is outside.
        self.spans[id as usize].start_ns = self.t0.elapsed().as_nanos() as u64;
        id
    }

    fn end(&mut self, id: u32) {
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::snapshot();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = bytes - s.alloc_bytes;
    }

    fn time<T>(&mut self, at: (u32, u32), name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(at.0, Some(at.1), name, false);
        let out = f();
        self.end(id);
        out
    }

    fn replica<T>(&mut self, at: (u32, u32), name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(at.0, Some(at.1), name, true);
        let out = f();
        self.end(id);
        out
    }
}

/// Counts made at the layer boundaries.
#[derive(Default)]
struct Facts {
    nodes_parsed: u64,
    passes_attempted: u64,
    passes_applied: u64,
    transformed_requests: u64,
    pieces: u64,
    components: u64,
    patterns_found: u64,
    ii_over_mii: Vec<f64>,
    program_instances: Vec<f64>,
    sim_instances: u64,
    messages: Vec<f64>,
}

/// The replica of `service::execute`'s loop path, span by span.
fn layered_execute(
    tr: &mut Tracer,
    at: (u32, u32),
    r: &LoopRequest,
    facts: &mut Facts,
) -> Result<ScheduleResponse, ServiceError> {
    let bad = ServiceError::BadRequest;
    let (name, graph, defaults) = match &r.source {
        LoopSource::Corpus(cname) => {
            let w = tr
                .time(at, "workloads.by_name", || kn_workloads::by_name(cname))
                .ok_or_else(|| bad(format!("unknown corpus workload {cname:?}")))?;
            (w.name.to_string(), w.graph, (w.procs, w.k))
        }
        LoopSource::DdgFile(path) => {
            let text = tr
                .time(at, "ddg.read", || std::fs::read_to_string(path))
                .map_err(|e| bad(format!("cannot read {path}: {e}")))?;
            // Admission lint: in the service this runs before the queue.
            let lint = tr.time(at, "verify.lint", || kn_verify::lint_text(&text));
            if let Some(d) = lint.as_ref().ok().and_then(|l| l.report.first_error()) {
                return Err(ServiceError::InvalidDdg {
                    code: d.code.as_str().to_string(),
                    message: d.message.clone(),
                });
            }
            let g = tr
                .time(at, "ddg.parse", || kn_ddg::parse_text(&text))
                .map_err(|e| bad(format!("DDG parse error: {e}")))?;
            facts.nodes_parsed += g.node_count() as u64;
            (path.clone(), g, (8, 3))
        }
        _ => return Err(bad("not a wire source".into())),
    };

    let xform = match (r.transform, &r.source) {
        (TransformMode::Off, _) => None,
        (mode, LoopSource::Corpus(cname)) => {
            let body = tr
                .time(at, "workloads.body", || kn_workloads::body_by_name(cname))
                .ok_or_else(|| bad("graph-only workload".into()))?;
            let opts = xform_options(mode);
            let span = tr.begin(at.0, Some(at.1), "xform.transform", false);
            let out = kn_xform::transform_loop(&name, &body, &opts);
            tr.end(span);
            let out = out.map_err(|e| ServiceError::Sched(format!("transform: {e}")))?;
            // What transform_loop spent its time on, re-run in isolation.
            let under = (at.0, span);
            let flat = kn_ir::if_convert(&body);
            let analysis = kn_ir::AnalysisOptions::default();
            std::hint::black_box(tr.replica(under, "ir.analyze", || {
                kn_ir::analyze_dependences(&flat, &analysis)
            }));
            let _ = std::hint::black_box(
                tr.replica(under, "ir.lower", || kn_ir::lower_flat(&flat, &analysis)),
            );
            if out.changed() {
                let eq = kn_xform::EquivOptions::default();
                let verdict = tr.replica(under, "xform.certify", || {
                    kn_xform::check_equivalence(&flat, &out.transformed, &eq)
                });
                if let Err(m) = verdict {
                    return Err(ServiceError::Sched(format!("transform: {m}")));
                }
            }
            for status in [out.report.reduce, out.report.fission] {
                facts.passes_attempted += 1;
                facts.passes_applied += u64::from(status.applied());
            }
            Some(out)
        }
        _ => return Err(bad("transform= needs a corpus source".into())),
    };

    let procs = r.procs.unwrap_or(defaults.0);
    if procs == 0 {
        return Err(bad("procs must be at least 1".into()));
    }
    let m = MachineConfig::new(procs, r.k.unwrap_or(defaults.1));
    // `execute` copies the graph(s) it schedules; so does this replica,
    // and a 160-node graph makes that copy visible.
    let piece_graphs: Vec<kn_ddg::Ddg> = tr.time(at, "ddg.clone", || match &xform {
        Some(out) if out.changed() => out
            .transformed
            .pieces
            .iter()
            .map(|p| p.graph.clone())
            .collect(),
        _ => vec![graph.clone()],
    });
    if xform.is_some() {
        facts.transformed_requests += 1;
        facts.pieces += piece_graphs.len() as u64;
    }

    let mut programs = Vec::with_capacity(piece_graphs.len());
    for g in &piece_graphs {
        programs.push(layered_schedule(tr, at, g, &m, r, facts)?);
    }

    let (mut makespan, mut messages, mut comm_cycles, mut processors_used) = (0, 0, 0, 0);
    for ((program, _), g) in programs.iter().zip(&piece_graphs) {
        // The result's per-instance table is freed inside the span, as it
        // is inside `execute`'s simulate phase.
        let sim = tr
            .time(at, "sim.run", || {
                r.sim
                    .run(program, g, &m, &r.traffic)
                    .map(|s| (s.makespan, s.messages, s.comm_cycles))
            })
            .map_err(|e| ServiceError::Sched(e.to_string()))?;
        facts.sim_instances += program.len() as u64;
        facts.messages.push(sim.1 as f64);
        makespan += sim.0;
        messages += sim.1;
        comm_cycles += sim.2;
        processors_used = processors_used.max(program.used_processors());
    }
    let seq_time = tr.time(at, "sim.seq_time", || {
        kn_sim::sequential_time(&graph, r.iters)
    });
    let outcome = LoopOutcome {
        name,
        scheduler: r.scheduler,
        processors_used,
        seq_time,
        makespan,
        sp: kn_metrics::percentage_parallelism_clamped(seq_time, makespan),
        messages,
        comm_cycles,
        ii: if programs.len() == 1 {
            programs[0].1
        } else {
            None
        },
        transform: xform.as_ref().map(|out| TransformSummary {
            reduce: out.report.reduce.render(),
            fission: out.report.fission.render(),
            pieces: piece_graphs.len(),
            mii_before: out.report.mii_before,
            mii_after: out.report.mii_after,
        }),
    };
    // Freeing the graphs, programs and transform output is part of what
    // `execute` costs; without a span it would be time no layer owns.
    tr.time(at, "core.release", || {
        drop((programs, piece_graphs, graph, xform))
    });
    Ok(ScheduleResponse::Loop(outcome))
}

fn layered_schedule(
    tr: &mut Tracer,
    at: (u32, u32),
    g: &kn_ddg::Ddg,
    m: &MachineConfig,
    r: &LoopRequest,
    facts: &mut Facts,
) -> Result<(kn_sched::Program, Option<f64>), ServiceError> {
    if r.scheduler != SchedulerChoice::Cyclic {
        let reorder = match r.scheduler {
            SchedulerChoice::DoacrossBest => kn_doacross::Reorder::Best {
                exhaustive_cap: 5040,
            },
            _ => kn_doacross::Reorder::Natural,
        };
        let opts = kn_doacross::DoacrossOptions {
            reorder,
            ..Default::default()
        };
        let mut s = tr
            .time(at, "doacross.schedule", || {
                kn_doacross::doacross_schedule(g, m, r.iters, &opts)
            })
            .map_err(|e| ServiceError::Sched(e.to_string()))?;
        facts.program_instances.push(s.program.len() as f64);
        let program = std::mem::replace(&mut s.program, empty_program());
        tr.time(at, "sched.release", || drop(s));
        return Ok((program, None));
    }

    let opts = kn_sched::FullOptions::default();
    let span = tr.begin(at.0, Some(at.1), "sched.schedule_loop", false);
    let s = kn_sched::schedule_loop(g, m, r.iters, &opts);
    tr.end(span);
    let mut s = s.map_err(|e| ServiceError::Sched(e.to_string()))?;
    facts.program_instances.push(s.program.len() as f64);

    // What schedule_loop did inside, re-run step by step on its inputs.
    let under = (at.0, span);
    let classification = tr.replica(under, "ddg.classify", || kn_ddg::classify(g));
    if !classification.cyclic.is_empty() {
        let (cyclic_sub, _) = g.induced_subgraph(&classification.cyclic);
        for (comp, _) in kn_ddg::split_components(&cyclic_sub) {
            let outcome = tr
                .replica(under, "sched.cyclic", || {
                    kn_sched::cyclic_schedule(&comp, m, &opts.cyclic)
                })
                .map_err(|e| ServiceError::Sched(e.to_string()))?;
            facts.components += 1;
            facts.patterns_found += u64::from(matches!(outcome, PatternOutcome::Found(_)));
            // The component's own bounds: the whole loop's resource bound
            // would count Flow-in/Flow-out work the core never executes.
            let bound = kn_verify::mii_bounds(&comp, m).bound();
            if bound > 0.0 {
                facts.ii_over_mii.push(outcome.steady_ii() / bound);
            }
            std::hint::black_box(
                tr.replica(under, "sched.instantiate", || outcome.instantiate(r.iters)),
            );
        }
    }
    let _ = std::hint::black_box(tr.replica(under, "sched.static_times", || {
        kn_sched::static_times(&s.program, g, m)
    }));
    let report = tr.replica(under, "verify.certify", || {
        kn_verify::certify_loop(g, m, &s)
    });
    if let Some(d) = report.first_error() {
        return Err(ServiceError::Sched(format!("certify_loop: {d}")));
    }
    // `execute` keeps the program and frees the rest of the schedule (its
    // timing table above all) before it simulates.
    let ii = s.cyclic_ii();
    let program = std::mem::replace(&mut s.program, empty_program());
    tr.time(at, "sched.release", || drop(s));
    Ok((program, ii))
}

fn empty_program() -> kn_sched::Program {
    kn_sched::Program {
        seqs: Vec::new(),
        iters: 0,
    }
}

/// The stream positions the traced pass works on: the requests that follow
/// the warm-up, repeats included, as pool indices.
fn stream_sample(inputs: &Inputs) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    let mut sample = Vec::new();
    for n in 0..MAX_SAMPLE.min(inputs.stream.len()) {
        let idx = inputs.at(WARMUP_REQUESTS + n);
        if seen.len() == MAX_DISTINCT && !seen.contains(&idx) {
            break;
        }
        seen.insert(idx);
        sample.push(idx);
    }
    sample
}

pub struct Traced {
    /// Per-layer metrics this pass can compute (the load phases add more).
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// The sample's distinct request lines, in first-appearance order
    /// (`Span::req` indexes them).
    pub lines: Vec<String>,
}

fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| s.dur() as f64)
}

fn median_of(spans: &[Span], name: &str) -> f64 {
    median(&durations(spans, name).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn sum_of(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).sum()
}

/// The boundary pass is repeated this often and the fastest repetition is
/// kept whole (its times and its counters belong together): host
/// interference only ever adds (see `stats`).
const BOUNDARY_REPEATS: usize = 3;

/// What steps 3 and 4 measured over the sample.
struct Boundaries {
    /// In-process submit-to-collected time per request, ns.
    svc_ns: Vec<f64>,
    /// The in-process worker's `exec_ns` over the sample.
    exec_ns: f64,
    /// TCP round trip per request, ns.
    rtt_ns: Vec<f64>,
    request_bytes: usize,
    response_bytes: usize,
    mismatches: u64,
}

impl Boundaries {
    fn total(&self) -> f64 {
        self.svc_ns.iter().chain(&self.rtt_ns).sum()
    }
}

/// Steps 3 and 4, request by request: each request goes first through a
/// fresh in-process `Service`, then over TCP through a second fresh
/// `Service` behind `NetServer`, one outstanding on either. Alternating
/// keeps the two boundaries in the same weather — measured one after the
/// other, a slow spell of the host during one of them read as hundreds of
/// microseconds of "network". Both services see the warm-up first.
fn boundary_pass(
    inputs: &Inputs,
    expected: &Expected,
    warm: &[usize],
    sample: &[usize],
) -> Result<Boundaries, String> {
    let local = Service::with_config(service_config());
    let remote = Arc::new(Service::with_config(service_config()));
    let server = NetServer::bind(Arc::clone(&remote), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::open(server.local_addr())?;
    let mut out = Boundaries {
        svc_ns: Vec::with_capacity(sample.len()),
        exec_ns: 0.0,
        rtt_ns: Vec::with_capacity(sample.len()),
        request_bytes: 0,
        response_bytes: 0,
        mismatches: 0,
    };
    let mut line = String::new();
    let mut exec_before = 0;
    for (seq, &idx) in warm.iter().chain(sample).enumerate() {
        let timed = seq >= warm.len();
        if seq == warm.len() {
            exec_before = local.stats().exec_ns;
        }
        let text = &inputs.pool[idx].line;
        let req = ScheduleRequest::Loop(crate::check::parse_loop(text));
        let t = Instant::now();
        match local.submit_opts(req, SubmitOptions::default()) {
            SubmitOutcome::Accepted(id) => {
                std::hint::black_box(local.collect_detailed(&[id], None));
            }
            // a seeded-invalid file, refused at admission
            SubmitOutcome::Rejected(_) => {}
            other => return Err(format!("in-process submit: {other:?}")),
        }
        let svc = t.elapsed();
        let t = Instant::now();
        if !conn.round_trip(text, &mut line)? {
            return Err("connection lost in the traced TCP step".into());
        }
        let rtt = t.elapsed();
        if timed {
            out.svc_ns.push(svc.as_nanos() as f64);
            out.rtt_ns.push(rtt.as_nanos() as f64);
            out.request_bytes += text.len() + 1;
            out.response_bytes += line.len();
        }
        out.mismatches += u64::from(!expected.matches(idx, seq as u64, &line));
    }
    out.exec_ns = (local.stats().exec_ns - exec_before) as f64;
    drop(conn);
    server.shutdown(DrainPolicy::Finish);
    local.shutdown(DrainPolicy::Finish);
    Ok(out)
}

/// Run the four steps over `inputs`' stream sample.
pub fn run(inputs: &Inputs, expected: &Expected) -> Result<Traced, String> {
    let warm: Vec<usize> = (0..WARMUP_REQUESTS).map(|n| inputs.at(n)).collect();
    let sample = stream_sample(inputs);
    let mut slot_of: HashMap<usize, u32> = HashMap::new();
    let mut distinct = Vec::new();
    for &idx in &sample {
        slot_of.entry(idx).or_insert_with(|| {
            distinct.push(idx);
            distinct.len() as u32 - 1
        });
    }
    let slots = distinct.len();
    let n = sample.len() as f64;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- 1 + 2. layered, and right after it service::execute untraced ----
    // Adjacent in time, so that a slow spell of the host hits both.
    alloc::enable();
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::with_capacity(slots * 96),
    };
    let mut facts = Facts::default();
    let mut mismatches = 0u64;
    let mut roots = Vec::with_capacity(slots);
    let mut execute_ns = vec![0f64; slots];
    let (mut exec_allocs, mut exec_bytes) = (0u64, 0u64);
    for (slot, &idx) in distinct.iter().enumerate() {
        let line = &inputs.pool[idx].line;
        let root = tr.begin(slot as u32, None, "request", false);
        let at = (slot as u32, root);
        let parsed = tr.time(at, "wire.parse", || wire::parse_request_line(line));
        let Ok(Some(wire::ParsedRequest {
            req: ScheduleRequest::Loop(req),
            ..
        })) = parsed
        else {
            return Err(format!("{line:?} does not parse"));
        };
        let result = layered_execute(&mut tr, at, &req, &mut facts);
        let rendered = tr.time(at, "wire.render", || {
            wire::response_json(slot as u64, &result)
        });
        tr.end(root);
        roots.push(root);
        mismatches += u64::from(!expected.matches(idx, slot as u64, &rendered));

        // `execute` knows nothing of admission lint: skip the invalid files.
        if inputs.pool[idx].invalid.is_none() {
            let req = ScheduleRequest::Loop(req);
            let (a0, b0) = alloc::snapshot();
            let t = Instant::now();
            let out = service::execute(&req);
            execute_ns[slot] = t.elapsed().as_nanos() as f64;
            let (a1, b1) = alloc::snapshot();
            exec_allocs += a1 - a0;
            exec_bytes += b1 - b0;
            std::hint::black_box(out).map_err(|e| format!("execute: {e}"))?;
        }
    }
    let spans = tr.spans;

    // Per distinct request: time inside the execute-equivalent layers,
    // time in replicas, and the wire/lint parts that sit outside execute.
    let (mut layers, mut replicas) = (vec![0f64; slots], vec![0f64; slots]);
    let (mut wire_ns, mut lint_ns) = (vec![0f64; slots], vec![0f64; slots]);
    for s in &spans {
        let slot = s.req as usize;
        match (s.name, s.replica) {
            ("request", _) => {}
            (_, true) => replicas[slot] += s.dur() as f64,
            ("wire.parse" | "wire.render", _) => wire_ns[slot] += s.dur() as f64,
            ("verify.lint", _) => lint_ns[slot] += s.dur() as f64,
            _ => layers[slot] += s.dur() as f64,
        }
    }
    let valid: Vec<usize> = (0..slots)
        .filter(|&s| inputs.pool[distinct[s]].invalid.is_none())
        .collect();
    let over_valid =
        |per_slot: &[f64]| -> Vec<f64> { valid.iter().map(|&s| per_slot[s]).collect() };
    let traced_wall: Vec<f64> = roots
        .iter()
        .map(|&r| {
            let slot = spans[r as usize].req as usize;
            spans[r as usize].dur() as f64 - replicas[slot] - wire_ns[slot] - lint_ns[slot]
        })
        .collect();
    let execute_valid = over_valid(&execute_ns);
    let layers_valid = over_valid(&layers);
    let execute_total: f64 = execute_valid.iter().sum();
    let traced_total: f64 = over_valid(&traced_wall).iter().sum();

    // ---- 3 + 4. the service and net boundaries ---------------------------
    let mut best = boundary_pass(inputs, expected, &warm, &sample)?;
    mismatches += best.mismatches;
    for _ in 1..BOUNDARY_REPEATS {
        let pass = boundary_pass(inputs, expected, &warm, &sample)?;
        mismatches += pass.mismatches;
        if pass.total() < best.total() {
            best = pass;
        }
    }
    let Boundaries {
        svc_ns,
        exec_ns: svc_exec_ns,
        rtt_ns,
        request_bytes,
        response_bytes,
        ..
    } = best;
    // A request is a cache hit when the same line came earlier in the
    // warm-up or the sample (one outstanding: nothing coalesces).
    let mut seen: std::collections::HashSet<usize> = warm.iter().copied().collect();
    let is_hit: Vec<bool> = sample.iter().map(|&idx| !seen.insert(idx)).collect();

    // ---- per-layer numbers ---------------------------------------------
    let per_call = |name: &str| median_of(&spans, name);
    let mean_allocs = |name: &str| {
        mean(
            &spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.allocs as f64)
                .collect::<Vec<_>>(),
        )
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    metrics.insert("wire.parse_ns", per_call("wire.parse"));
    metrics.insert("wire.render_ns", per_call("wire.render"));
    metrics.insert("wire.request_bytes", request_bytes as f64 / n);
    metrics.insert("wire.response_bytes", response_bytes as f64 / n);
    metrics.insert("verify.lint_ns", per_call("verify.lint"));
    metrics.insert("verify.certify_ns", per_call("verify.certify"));
    metrics.insert("ddg.read_ns", per_call("ddg.read"));
    metrics.insert("ddg.parse_ns", per_call("ddg.parse"));
    metrics.insert(
        "ddg.parse_nodes_per_s",
        ratio(facts.nodes_parsed as f64 * 1e9, sum_of(&spans, "ddg.parse")),
    );
    metrics.insert("ddg.classify_ns", per_call("ddg.classify"));
    metrics.insert("workloads.by_name_ns", per_call("workloads.by_name"));
    metrics.insert("ir.analyze_ns", per_call("ir.analyze"));
    metrics.insert("ir.lower_ns", per_call("ir.lower"));
    metrics.insert("xform.transform_ns", per_call("xform.transform"));
    metrics.insert("xform.certify_ns", per_call("xform.certify"));
    metrics.insert(
        "xform.applied_share",
        ratio(facts.passes_applied as f64, facts.passes_attempted as f64),
    );
    metrics.insert(
        "xform.pieces_mean",
        ratio(facts.pieces as f64, facts.transformed_requests as f64),
    );
    metrics.insert("sched.cyclic_ns", per_call("sched.cyclic"));
    metrics.insert("sched.instantiate_ns", per_call("sched.instantiate"));
    metrics.insert("sched.static_times_ns", per_call("sched.static_times"));
    metrics.insert("sched.schedule_loop_ns", per_call("sched.schedule_loop"));
    // schedule_loop minus the steps re-run beneath it (certify_loop is not
    // something schedule_loop does in a release build).
    let mut explained: HashMap<u32, f64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.replica && s.name != "verify.certify")
    {
        *explained
            .entry(s.parent.expect("replicas have parents"))
            .or_default() += s.dur() as f64;
    }
    let flow_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sched.schedule_loop")
        .map(|s| (s.dur() as f64 - explained.get(&s.id).copied().unwrap_or(0.0)).max(0.0))
        .collect();
    metrics.insert("sched.flow_self_ns", median(&flow_self).unwrap_or(0.0));
    metrics.insert(
        "sched.pattern_found_share",
        ratio(facts.patterns_found as f64, facts.components as f64),
    );
    metrics.insert(
        "sched.ii_over_mii",
        geomean(facts.ii_over_mii.iter().copied()),
    );
    metrics.insert("sched.program_instances", mean(&facts.program_instances));
    metrics.insert("sched.allocs_per_call", mean_allocs("sched.schedule_loop"));
    metrics.insert("doacross.schedule_ns", per_call("doacross.schedule"));
    metrics.insert("sim.run_ns", per_call("sim.run"));
    metrics.insert(
        "sim.instances_per_s",
        ratio(facts.sim_instances as f64 * 1e9, sum_of(&spans, "sim.run")),
    );
    metrics.insert("sim.messages_mean", mean(&facts.messages));
    metrics.insert("sim.allocs_per_call", mean_allocs("sim.run"));
    metrics.insert("core.execute_ns", median(&execute_valid).unwrap_or(0.0));
    metrics.insert("core.layers_sum_ns", median(&layers_valid).unwrap_or(0.0));
    metrics.insert(
        "core.coverage",
        ratio(layers_valid.iter().sum(), execute_total),
    );
    let valid_n = valid.len().max(1) as f64;
    metrics.insert("core.allocs_per_request", exec_allocs as f64 / valid_n);
    metrics.insert("core.alloc_bytes_per_request", exec_bytes as f64 / valid_n);
    metrics.insert(
        "trace.overhead_share",
        ratio(traced_total - execute_total, execute_total),
    );
    metrics.insert("trace.requests", n);
    metrics.insert("trace.distinct", slots as f64);
    metrics.insert("trace.spans", spans.len() as f64);
    metrics.insert("trace.replica_mismatches", mismatches as f64);

    // ---- outside-in: what each boundary adds ---------------------------
    let rtt_mean = mean(&rtt_ns);
    let svc_mean = mean(&svc_ns);
    let exec_mean = svc_exec_ns / n;
    let per_stream = |per_slot: &[f64]| {
        sample
            .iter()
            .map(|idx| per_slot[slot_of[idx] as usize])
            .sum::<f64>()
            / n
    };
    let wire_mean = per_stream(&wire_ns);
    let lint_mean = per_stream(&lint_ns);
    let hit_ns: Vec<f64> = svc_ns
        .iter()
        .zip(&is_hit)
        .filter_map(|(&t, &hit)| hit.then_some(t))
        .collect();
    let misses = (sample.len() - hit_ns.len()).max(1) as f64;
    let miss_total: f64 = svc_ns.iter().sum::<f64>() - hit_ns.iter().sum::<f64>();
    metrics.insert("net.rtt1_us", median(&rtt_ns).unwrap_or(0.0) / 1e3);
    metrics.insert("net.overhead_us", (rtt_mean - svc_mean) / 1e3);
    metrics.insert(
        "service.overhead_us",
        (miss_total - svc_exec_ns) / misses / 1e3,
    );
    metrics.insert("cache.hit_path_us", median(&hit_ns).unwrap_or(0.0) / 1e3);

    let cache_part = hit_ns.iter().sum::<f64>() / n;
    let group = |names: &[&str]| names.iter().map(|name| sum_of(&spans, name)).sum::<f64>();
    let classify = sum_of(&spans, "ddg.classify");
    let weights = [
        (
            "ddg.share",
            group(&["ddg.read", "ddg.parse", "ddg.clone", "workloads.by_name"]) + classify,
        ),
        ("xform.share", group(&["workloads.body", "xform.transform"])),
        (
            "sched.share",
            group(&["sched.schedule_loop", "doacross.schedule", "sched.release"]) - classify,
        ),
        ("sim.share", group(&["sim.run", "sim.seq_time"])),
    ];
    let weight_sum: f64 = weights.iter().map(|w| w.1).sum();
    let mut parts = vec![
        ("net.share", rtt_mean - svc_mean - wire_mean),
        ("wire.share", wire_mean),
        ("cache.share", cache_part),
        (
            "service.share",
            svc_mean - cache_part - exec_mean - lint_mean,
        ),
        ("verify.share", lint_mean),
    ];
    for (name, w) in weights {
        parts.push((name, exec_mean * ratio(w, weight_sum)));
    }
    let total: f64 = parts.iter().map(|p| p.1.max(0.0)).sum();
    for (name, part) in parts {
        metrics.insert(name, ratio(part.max(0.0), total));
    }

    Ok(Traced {
        metrics,
        spans,
        lines: distinct
            .iter()
            .map(|&idx| inputs.pool[idx].line.clone())
            .collect(),
    })
}

/// One JSON object per span, in recording order.
pub fn to_jsonl(t: &Traced) -> String {
    let mut out = String::new();
    for s in &t.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"request\": {}, \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \"replica\": {}, \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}",
            s.req, s.id, s.name, s.replica, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
        );
        if s.parent.is_none() {
            let line = crate::json::esc(&t.lines[s.req as usize]);
            let _ = write!(out, ", \"line\": \"{line}\"");
        }
        out.push_str("}\n");
    }
    out
}
