//! `kn-benchmark` — the repository's end-to-end benchmark. See
//! `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! kn-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! kn-benchmark --seed N [--seconds S]                          all workloads + traced pass, benchmark/out/results.json
//! kn-benchmark --compare A.json B.json                         bound check between two result files
//! kn-benchmark --self-test                                     corrupt one expectation; must exit non-zero
//! ```

mod alloc;
mod check;
mod client;
mod gen;
mod json;
mod metrics;
mod report;
mod rng;
mod run;
mod server;
mod sha256;
mod stats;
mod trace;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use std::process::ExitCode;

/// Exit codes. `FAILED`: a response was wrong or missing, or a golden
/// digest drifted. `UNRESOLVED`: too few valid segments to report a
/// metric. `BROKEN`: the benchmark itself could not run.
const FAILED: u8 = 1;
const BROKEN: u8 = 2;
const UNRESOLVED: u8 = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => out.trace = value()? != "0",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    server::init_cpus();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => args
            .get(1)
            .and_then(|m| m.parse().ok())
            .ok_or_else(|| "serve: missing CPU mask (spawned by the benchmark only)".to_string())
            .and_then(server::serve_main)
            .map(|()| 0),
        Some("--compare") => match &args[1..] {
            [a, b] => report::compare(a, b),
            _ => Err("usage: --compare A.json B.json".into()),
        },
        Some("--self-test") => report::self_test(),
        _ => parse_args(&args).and_then(|a| {
            if !std::path::Path::new("benchmark/Cargo.toml").exists() {
                return Err("run from the repository root (benchmark/Cargo.toml not found)".into());
            }
            match &a.workload {
                Some(w) => report::one_workload(w, a.seed, a.seconds, a.trace),
                None => report::all_workloads(a.seed, a.seconds),
            }
        }),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("kn-benchmark: {e}");
            ExitCode::from(BROKEN)
        }
    }
}
