//! What a response must be, established without the server.
//!
//! * **Reference bodies** — every pool line is parsed with
//!   `wire::parse_request_line` and executed in-process with
//!   `service::execute` (fresh scratch, no cache, no pool, no socket); a
//!   seeded-invalid file's expected response is built from the lint
//!   finding the generator aimed for. The server's line must equal
//!   `{"id": <n>, ` + body byte for byte.
//! * **Certification sample** — one request per distinct (loop, machine,
//!   scheduler) is re-scheduled through the public scheduler API,
//!   certified with `kn_verify::certify_loop` / `certify_timed`, and its
//!   program is executed on real threads (`kn_runtime::run_threaded`)
//!   against `run_sequential`. This does not go through `service` at all.
//! * **Golden digest** — SHA-256 over the reference bodies; the seed-1
//!   digests are committed under `benchmark/expected/`.

use crate::gen::{Inputs, Request};
use crate::sha256::Sha256;
use kn_core::service::{
    self, wire, LoopRequest, LoopSource, ScheduleRequest, ScheduleResponse, SchedulerChoice,
    ServiceError, TransformMode,
};
use kn_runtime::{run_sequential, run_threaded, Semantics};
use kn_sched::MachineConfig;
use std::collections::BTreeMap;

const ID_PREFIX_OF_ZERO: &str = "{\"id\": 0, ";

pub struct Expected {
    /// Response line minus its `{"id": N, ` prefix, per pool entry.
    pub bodies: Vec<String>,
    /// `seq_time / makespan` per pool entry with an OK loop response.
    pub speedups: Vec<Option<f64>>,
}

impl Expected {
    /// Does `line`, the `seq`-th response of a connection, answer pool
    /// entry `idx` correctly?
    pub fn matches(&self, idx: usize, seq: u64, line: &str) -> bool {
        let line = line.strip_suffix('\n').unwrap_or(line);
        let Some(rest) = line.strip_prefix("{\"id\": ") else {
            return false;
        };
        let Some((id, body)) = rest.split_once(", ") else {
            return false;
        };
        id.parse() == Ok(seq) && body == self.bodies[idx]
    }

    /// SHA-256 over the bodies in pool order.
    pub fn digest(&self) -> String {
        let mut h = Sha256::default();
        for b in &self.bodies {
            h.update(b.as_bytes());
            h.update(b"\n");
        }
        h.finish()
    }
}

pub fn parse_loop(line: &str) -> LoopRequest {
    match wire::parse_request_line(line) {
        Ok(Some(p)) => match p.req {
            ScheduleRequest::Loop(r) => r,
            _ => unreachable!("the wire format produces loop requests"),
        },
        other => panic!("generated line {line:?} does not parse: {other:?}"),
    }
}

/// Expected `(body, speedup)` of one request.
fn reference_one(
    r: &Request,
    files: &BTreeMap<&str, &str>,
) -> Result<(String, Option<f64>), String> {
    let req = parse_loop(&r.line);
    let result = match r.invalid {
        Some(code) => {
            let LoopSource::DdgFile(path) = &req.source else {
                return Err(format!("{}: invalid marker on a non-file request", r.line));
            };
            let text = files.get(path.as_str()).ok_or("unknown file")?;
            let lint = kn_verify::lint_text(text).map_err(|e| e.to_string())?;
            let diag = lint
                .report
                .first_error()
                .ok_or_else(|| format!("{path}: generated as {code} but lints clean"))?;
            if diag.code.as_str() != code {
                return Err(format!(
                    "{path}: generated as {code} but lint says {}",
                    diag.code.as_str()
                ));
            }
            Err(ServiceError::InvalidDdg {
                code: code.to_string(),
                message: diag.message.clone(),
            })
        }
        None => service::execute(&ScheduleRequest::Loop(req)),
    };
    let speedup = match &result {
        Ok(ScheduleResponse::Loop(out)) if out.makespan > 0 => {
            Some(out.seq_time as f64 / out.makespan as f64)
        }
        _ => None,
    };
    if r.invalid.is_none() && result.is_err() {
        return Err(format!("{}: reference failed: {result:?}", r.line));
    }
    let line = wire::response_json(0, &result);
    let body = line
        .strip_prefix(ID_PREFIX_OF_ZERO)
        .expect("responses start with their id")
        .to_string();
    Ok((body, speedup))
}

/// Compute the reference for the whole pool, on every available core (the
/// server child is idle while this runs). `.ddg` files must be on disk.
pub fn reference(inputs: &Inputs) -> Result<Expected, String> {
    let files: BTreeMap<&str, &str> = inputs
        .files
        .iter()
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = inputs.pool.len().div_ceil(threads).max(1);
    let parts: Vec<Result<Vec<_>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .pool
            .chunks(chunk)
            .map(|reqs| {
                let files = &files;
                s.spawn(move || reqs.iter().map(|r| reference_one(r, files)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut expected = Expected {
        bodies: Vec::with_capacity(inputs.pool.len()),
        speedups: Vec::with_capacity(inputs.pool.len()),
    };
    for part in parts {
        for (body, speedup) in part? {
            expected.bodies.push(body);
            expected.speedups.push(speedup);
        }
    }
    Ok(expected)
}

/// The passes a `transform=` value turns on (the service's own mapping is
/// private to it).
pub fn xform_options(mode: TransformMode) -> kn_xform::TransformOptions {
    kn_xform::TransformOptions {
        fission: matches!(mode, TransformMode::Fission | TransformMode::All),
        reduce: matches!(mode, TransformMode::Reduce | TransformMode::All),
    }
}

/// The graphs a request schedules: the transformed pieces when a pass
/// fired, else the resolved graph; plus the machine.
pub fn resolve(req: &LoopRequest) -> Result<(Vec<kn_ddg::Ddg>, MachineConfig), String> {
    let (graph, defaults) = match &req.source {
        LoopSource::Corpus(name) => {
            let w = kn_workloads::by_name(name).ok_or("unknown corpus workload")?;
            (w.graph, (w.procs, w.k))
        }
        LoopSource::DdgFile(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            (
                kn_ddg::parse_text(&text).map_err(|e| e.to_string())?,
                (8, 3),
            )
        }
        _ => return Err("the wire format has no other sources".into()),
    };
    let m = MachineConfig::new(req.procs.unwrap_or(defaults.0), req.k.unwrap_or(defaults.1));
    let graphs = match (req.transform, &req.source) {
        (TransformMode::Off, _) => vec![graph],
        (mode, LoopSource::Corpus(name)) => {
            let body = kn_workloads::body_by_name(name).ok_or("graph-only workload")?;
            let out = kn_xform::transform_loop(name, &body, &xform_options(mode))
                .map_err(|e| e.to_string())?;
            if out.changed() {
                out.transformed
                    .pieces
                    .into_iter()
                    .map(|p| p.graph)
                    .collect()
            } else {
                vec![graph]
            }
        }
        _ => return Err("transform= needs a corpus source".into()),
    };
    Ok((graphs, m))
}

/// Certify and really execute one schedule per distinct shape of the
/// pool. Returns how many shapes were checked.
pub fn certify_sample(inputs: &Inputs) -> Result<usize, String> {
    let mut shapes: BTreeMap<&str, &Request> = BTreeMap::new();
    for r in inputs.pool.iter().filter(|r| r.invalid.is_none()) {
        let shape = r
            .line
            .rsplit_once(" seed=")
            .map_or(r.line.as_str(), |x| x.0);
        shapes.entry(shape).or_insert(r);
    }
    for (shape, r) in &shapes {
        let req = parse_loop(&r.line);
        // Real execution spawns a thread per processor and moves every
        // value through a channel; a short run checks the same orderings.
        let iters = req.iters.min(24);
        let (graphs, m) = resolve(&req).map_err(|e| format!("{shape}: {e}"))?;
        for g in &graphs {
            let program = match req.scheduler {
                SchedulerChoice::Cyclic => {
                    let s = kn_sched::schedule_loop(g, &m, iters, &Default::default())
                        .map_err(|e| format!("{shape}: {e}"))?;
                    if let Some(d) = kn_verify::certify_loop(g, &m, &s).first_error() {
                        return Err(format!("{shape}: certify_loop: {d}"));
                    }
                    s.program
                }
                _ => {
                    let s = kn_doacross::doacross_schedule(g, &m, iters, &Default::default())
                        .map_err(|e| format!("{shape}: {e}"))?;
                    if let Some(d) = kn_verify::certify_timed(g, &m, &s.timing, iters).first_error()
                    {
                        return Err(format!("{shape}: certify_timed: {d}"));
                    }
                    s.program
                }
            };
            let sem = Semantics::hashing(g);
            let threaded = run_threaded(g, &sem, &program).map_err(|e| format!("{shape}: {e}"))?;
            if threaded != run_sequential(g, &sem, iters) {
                return Err(format!(
                    "{shape}: threaded execution differs from sequential"
                ));
            }
        }
    }
    Ok(shapes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_checks_id_and_body() {
        let e = Expected {
            bodies: vec!["\"status\": \"ok\"}".into()],
            speedups: vec![None],
        };
        assert!(e.matches(0, 12, "{\"id\": 12, \"status\": \"ok\"}\n"));
        assert!(e.matches(0, 12, "{\"id\": 12, \"status\": \"ok\"}"));
        assert!(!e.matches(0, 13, "{\"id\": 12, \"status\": \"ok\"}\n"));
        assert!(!e.matches(0, 12, "{\"id\": 12, \"status\": \"ok\" }\n"));
        assert!(!e.matches(0, 12, "garbage\n"));
        assert!(!e.matches(0, 12, ""));
    }
}
