//! One workload run: set-up, reference, `sat`, `paced`, tear-down, and
//! the end-to-end metrics computed from them.

use crate::check::{self, Expected};
use crate::client::{self, Conn, PacedReport, SatReport, Session, Tally};
use crate::gen::{self, Inputs, Workload, WARMUP_REQUESTS};
use crate::server::{pin, Mark, ServerChild, Side};
use crate::sha256;
use crate::stats::{geomean, percentile, quiet_estimate, tail_mean, Best};
use crate::trace::{self, Traced};
use std::time::{Duration, Instant};

/// An untraced run sets up this often before the timed part and as often
/// again after it, and reports the fastest of them all: a set-up is short,
/// so one sample would be mostly noise; interference only adds time; and a
/// slow spell of the host outlasts any number of set-ups done in a row.
const SETUP_REPEATS: usize = 3;
/// The timed part of a run alternates `sat` and `paced` this many times.
const ROUNDS: usize = 4;
/// The generator ran late on more than this share of a segment's requests:
/// the segment measures the generator, not the server, and is dropped.
pub const MAX_LATE_SHARE: f64 = 0.10;
/// `latency_tail_us` is the mean of this share of a segment's slowest
/// requests.
const TAIL_SHARE: f64 = 0.5;

pub struct RunOptions {
    pub seed: u64,
    pub seconds: u64,
    /// Corrupt one expected body after the reference is computed
    /// (`--self-test`): the run must then report a failure.
    pub corrupt_expected: bool,
    /// Run the traced pass (after the reference, before the timed phases)
    /// and set up once instead of [`SETUP_REPEATS`] times.
    pub trace: bool,
}

/// Where a workload's generated files live, relative to the repository
/// root (the benchmark's working directory).
pub fn out_dir(workload: &str, seed: u64) -> String {
    format!("benchmark/out/{workload}-seed{seed}")
}

/// The request file and the `.ddg` files, as `(path, content)`.
fn input_files(inputs: &Inputs, dir: &str) -> Vec<(String, String)> {
    let mut files = vec![(format!("{dir}/requests.txt"), inputs.request_file())];
    files.extend(inputs.files.iter().cloned());
    files
}

fn write_inputs(inputs: &Inputs, dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    for (path, content) in input_files(inputs, dir) {
        std::fs::write(&path, content).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

struct Ready {
    inputs: Inputs,
    server: ServerChild,
    conn: Conn,
    warmup_lines: Vec<String>,
    setup: Duration,
}

/// Everything a user waits for before the first timed request: input
/// generation, file writes, server start, connect, warm-up.
fn set_up(w: &Workload, seed: u64) -> Result<Ready, String> {
    let t0 = Instant::now();
    let dir = out_dir(w.name, seed);
    let inputs = gen::generate(w.name, seed, &dir);
    write_inputs(&inputs, &dir)?;
    let server = ServerChild::spawn()?;
    let conn = Conn::open(server.addr)?;
    let mut session = Session::new(conn, &inputs);
    session.warm_up(WARMUP_REQUESTS)?;
    let Session {
        conn, warmup_lines, ..
    } = session;
    Ok(Ready {
        inputs,
        server,
        conn,
        warmup_lines,
        setup: t0.elapsed(),
    })
}

/// A metric that could not be resolved: too few valid segments.
#[derive(Debug)]
pub struct Unresolved {
    pub metric: &'static str,
    pub valid_segments: usize,
}

pub struct LoadResult {
    pub sat: SatReport,
    pub paced: PacedReport,
    pub tally: Tally,
    pub speedup_geomean: f64,
    pub setup_s: f64,
    pub files: Vec<(String, String)>,
    pub digest: String,
    pub certified_shapes: usize,
    pub pool: usize,
    /// The server's cumulative counters after the last timed request.
    pub final_mark: Mark,
    pub traced: Option<Traced>,
}

/// Run one workload end to end against a fresh server child.
pub fn load(w: &Workload, opts: &RunOptions) -> Result<LoadResult, String> {
    // Set-up, several times over; the last one is kept and measured on,
    // and the rest of them follow the timed part.
    let (before, after) = if opts.trace {
        (1, 0)
    } else {
        (SETUP_REPEATS, SETUP_REPEATS)
    };
    pin(Side::Client);
    let mut setups = Vec::with_capacity(before + after);
    let mut ready = set_up(w, opts.seed)?;
    setups.push(ready.setup.as_secs_f64());
    for _ in 1..before {
        drop(ready.conn);
        ready.server.stop()?;
        ready = set_up(w, opts.seed)?;
        setups.push(ready.setup.as_secs_f64());
    }
    let Ready {
        inputs,
        mut server,
        conn,
        warmup_lines,
        ..
    } = ready;
    // Fingerprinting the inputs is bookkeeping, not set-up: done here.
    let files = input_files(&inputs, &out_dir(w.name, opts.seed))
        .into_iter()
        .map(|(path, content)| (path, sha256::hex_digest(content.as_bytes())))
        .collect();

    // The reference, computed while the server idles.
    pin(Side::Anywhere);
    let mut expected = check::reference(&inputs)?;
    let digest = expected.digest();
    let certified_shapes = check::certify_sample(&inputs)?;
    let traced = opts
        .trace
        .then(|| trace::run(&inputs, &expected))
        .transpose()?;
    if opts.corrupt_expected {
        corrupt(&mut expected, &inputs);
    }

    pin(Side::Client);
    let mut session = Session::new(conn, &inputs);
    session.cursor = inputs.next_block(warmup_lines.len());
    session.warmup_lines = warmup_lines;
    let mut tally = session.check_warm_up(&expected);

    // 40 % of the run saturated, 60 % paced (the paced phase needs the
    // requests: a 200-per-second workload sends 2400 in twelve seconds),
    // in alternating rounds: a slow spell of the host then has to last the
    // whole run, not one phase of it, to leave a metric no quiet segments.
    let round = opts.seconds as f64 / ROUNDS as f64;
    let (mut sat, mut paced) = (SatReport::default(), PacedReport::default());
    for _ in 0..ROUNDS {
        sat.absorb(client::sat(
            &mut session,
            &mut server,
            &expected,
            Duration::from_secs_f64(round * 0.4),
            w.segment_requests,
        )?);
        paced.absorb(client::paced(
            &mut session,
            &mut server,
            &expected,
            w.paced_rps,
            Duration::from_secs_f64(round * 0.6),
        )?);
    }
    tally.add(sat.tally);
    tally.add(paced.tally);

    let final_mark = server.mark()?;
    let speedup_geomean = geomean(
        session
            .answered
            .iter()
            .zip(&expected.speedups)
            .filter_map(|(&ok, s)| s.filter(|_| ok)),
    );
    drop(session);
    server.stop()?;
    for _ in 0..after {
        let again = set_up(w, opts.seed)?;
        setups.push(again.setup.as_secs_f64());
        drop(again.conn);
        again.server.stop()?;
    }
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    Ok(LoadResult {
        sat,
        paced,
        tally,
        speedup_geomean,
        setup_s,
        files,
        digest,
        certified_shapes,
        pool: inputs.pool.len(),
        final_mark,
        traced,
    })
}

/// Flip one byte of the expected body of the first request the `sat` phase
/// will send, so the corruption is certain to be exercised.
fn corrupt(expected: &mut Expected, inputs: &Inputs) {
    let idx = inputs.at(inputs.next_block(WARMUP_REQUESTS));
    let body = &mut expected.bodies[idx];
    let last = body.pop().expect("bodies are never empty");
    body.push(if last == '}' { ']' } else { '}' });
}

pub struct EndToEnd {
    pub throughput_rps: f64,
    pub cpu_us_per_req: f64,
    pub latency_p50_us: f64,
    pub latency_tail_us: f64,
}

/// Quiet-segment estimates of the four timing metrics.
pub fn end_to_end(r: &LoadResult) -> Result<EndToEnd, Unresolved> {
    let all_valid = vec![true; r.sat.segments.len()];
    let per_sat = |f: &dyn Fn(&client::SatSegment) -> f64| -> Vec<f64> {
        r.sat.segments.iter().map(f).collect()
    };
    let resolve = |metric, values: &[f64], valid: &[bool], best| {
        quiet_estimate(values, valid, best).map_err(|valid_segments| Unresolved {
            metric,
            valid_segments,
        })
    };
    let throughput = per_sat(&|s| s.correct as f64 / s.wall.as_secs_f64());
    let cpu = per_sat(&|s| s.cpu_ns as f64 / 1e3 / s.responses.max(1) as f64);
    let paced_valid: Vec<bool> = r
        .paced
        .segments
        .iter()
        .map(|s| s.late_share <= MAX_LATE_SHARE)
        .collect();
    let per_paced = |f: &dyn Fn(&[f64]) -> Option<f64>| -> Vec<f64> {
        r.paced
            .segments
            .iter()
            .map(|s| f(&s.latency_us).unwrap_or(f64::INFINITY))
            .collect()
    };
    let p50 = per_paced(&|l| percentile(l, 50.0));
    let tail = per_paced(&|l| tail_mean(l, TAIL_SHARE));
    Ok(EndToEnd {
        throughput_rps: resolve("throughput_rps", &throughput, &all_valid, Best::Highest)?,
        cpu_us_per_req: resolve("cpu_us_per_req", &cpu, &all_valid, Best::Lowest)?,
        latency_p50_us: resolve("latency_p50_us", &p50, &paced_valid, Best::Lowest)?,
        latency_tail_us: resolve("latency_tail_us", &tail, &paced_valid, Best::Lowest)?,
    })
}
