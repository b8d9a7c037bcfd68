//! The command's faces: one workload (the result line a driver reads), all
//! workloads (`benchmark/out/results.json`), `--compare`, `--self-test`.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{self, LoadResult, RunOptions};
use crate::stats::percentile;
use crate::{gen, FAILED, UNRESOLVED};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const GOLDEN_FILE: &str = "benchmark/expected/seed1.json";
const RESULTS_FILE: &str = "benchmark/out/results.json";

/// JSON has no infinity; a latency percentile that landed on a failed
/// response is reported as this (and the run is incorrect anyway).
const INFINITE: f64 = 1e300;

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        INFINITE
    }
}

/// How `digest` compares with the committed seed-1 digest of `workload`'s
/// expected responses: `match`, `drift`, or `none` (no golden for this seed).
fn golden_status(workload: &str, seed: u64, digest: &str) -> &'static str {
    let golden = (seed == 1)
        .then(|| std::fs::read_to_string(GOLDEN_FILE).ok())
        .flatten()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| Some(doc.get(workload)?.str()?.to_string()));
    match golden {
        Some(g) if g == digest => "match",
        Some(_) => "drift",
        None => "none",
    }
}

fn end_to_end_values(r: &LoadResult) -> Result<Vec<f64>, run::Unresolved> {
    let e = run::end_to_end(r)?;
    Ok(END_TO_END
        .iter()
        .map(|m| match m.name {
            "throughput_rps" => e.throughput_rps,
            "cpu_us_per_req" => e.cpu_us_per_req,
            "latency_p50_us" => e.latency_p50_us,
            "latency_tail_us" => e.latency_tail_us,
            "speedup_geomean" => r.speedup_geomean,
            "peak_rss_mb" => r.final_mark.get("hwm_kb") as f64 / 1024.0,
            "setup_s" => r.setup_s,
            other => unreachable!("no source for {other}"),
        })
        .collect())
}

/// Per-layer metrics: the traced pass's, plus what the load phases and
/// the server's counters add.
fn per_layer_values(r: &LoadResult) -> Vec<f64> {
    let traced = r.traced.as_ref().expect("a traced run");
    let mut m: BTreeMap<&str, f64> = traced.metrics.clone();
    let fin = &r.final_mark;
    let sat_wall: f64 = r.sat.segments.iter().map(|s| s.wall.as_secs_f64()).sum();
    m.insert("service.busy_share", r.sat.exec_ns as f64 / 1e9 / sat_wall);
    m.insert(
        "service.queue_depth_mean",
        r.paced.depth_sum as f64 / r.paced.depth_n.max(1) as f64,
    );
    for (name, key) in [
        ("service.retries", "retries"),
        ("service.rejected", "rejected"),
        ("service.overloaded", "overloaded"),
        ("service.expired", "expired"),
        ("service.replaced_workers", "replaced_workers"),
        ("cache.hits", "cache_hits"),
        ("cache.misses", "cache_misses"),
        ("cache.coalesced", "cache_coalesced"),
        ("cache.evictions", "cache_evictions"),
    ] {
        m.insert(name, fin.get(key) as f64);
    }
    let served = fin.get("cache_hits") + fin.get("cache_coalesced");
    let lookups = served + fin.get("cache_misses");
    m.insert("cache.hit_ratio", served as f64 / lookups.max(1) as f64);
    m.insert("verify.lint_rejects", r.tally.lint_rejects as f64);
    m.insert("verify.lint_expected", r.tally.invalid_sent as f64);
    let late = &r.paced.late_us;
    m.insert(
        "gen.late_share",
        late.iter()
            .filter(|&&l| l > r.paced.late_threshold_us)
            .count() as f64
            / late.len().max(1) as f64,
    );
    m.insert("gen.late_p99_us", percentile(late, 99.0).unwrap_or(0.0));
    let pooled: Vec<f64> = r
        .paced
        .segments
        .iter()
        .flat_map(|s| s.latency_us.iter().copied())
        .collect();
    for (name, q) in [
        ("client.latency_p95_us", 95.0),
        ("client.latency_p99_us", 99.0),
    ] {
        m.insert(name, percentile(&pooled, q).unwrap_or(0.0));
    }
    m.insert("client.requests", r.tally.attempted as f64);
    PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            *m.get(name)
                .unwrap_or_else(|| panic!("no source for per-layer metric {name}"))
        })
        .collect()
}

/// Is the run correct? Every response matched the reference, the
/// certification sample passed (it would have aborted the run otherwise),
/// lint rejected exactly the invalid requests, and the traced replica
/// agreed with the reference.
fn is_correct(r: &LoadResult) -> bool {
    let replica_ok = r
        .traced
        .as_ref()
        .is_none_or(|t| t.metrics.get("trace.replica_mismatches") == Some(&0.0));
    r.tally.failed == 0 && r.tally.lint_rejects == r.tally.invalid_sent && replica_ok
}

fn write_manifest(workload: &str, seed: u64, r: &LoadResult, golden: &str) -> Result<(), String> {
    let mut doc = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"pool\": {},\n  \"certified_shapes\": {},\n  \"digest\": \"{}\",\n  \"golden\": \"{golden}\",\n  \"files\": [\n",
        r.pool, r.certified_shapes, r.digest
    );
    for (i, (path, sha)) in r.files.iter().enumerate() {
        let comma = if i + 1 < r.files.len() { "," } else { "" };
        let _ = writeln!(
            doc,
            "    {{\"path\": \"{}\", \"sha256\": \"{sha}\"}}{comma}",
            json::esc(path)
        );
    }
    doc.push_str("  ]\n}\n");
    let path = format!("{}/manifest.json", run::out_dir(workload, seed));
    std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))
}

/// `--workload W --seed N --seconds S --trace T`: run, print every metric
/// by name with its unit, then the result object on the last line.
pub fn one_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<u8, String> {
    let w = gen::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let r = run::load(
        w,
        &RunOptions {
            seed,
            seconds,
            corrupt_expected: false,
            trace,
        },
    )?;
    let golden = golden_status(name, seed, &r.digest);
    write_manifest(name, seed, &r, golden)?;
    if golden == "drift" {
        eprintln!(
            "kn-benchmark: {name}: expected responses differ from the committed seed-1 digest ({GOLDEN_FILE})"
        );
    }

    let named: Vec<(&str, &str, f64)> = if trace {
        let traced = r.traced.as_ref().expect("a traced run");
        let path = format!("benchmark/out/trace-{name}.jsonl");
        std::fs::write(&path, crate::trace::to_jsonl(traced))
            .map_err(|e| format!("{path}: {e}"))?;
        PER_LAYER
            .iter()
            .zip(per_layer_values(&r))
            .map(|(&(n, u, _), v)| (n, u, v))
            .collect()
    } else {
        let values = match end_to_end_values(&r) {
            Ok(v) => v,
            Err(u) => {
                eprintln!(
                    "kn-benchmark: {name}: {} is unresolved: {} segments valid, {} needed (generator late on more than {}% of a segment's requests)",
                    u.metric,
                    u.valid_segments,
                    crate::stats::MIN_VALID_SEGMENTS,
                    run::MAX_LATE_SHARE * 100.0
                );
                eprintln!(
                    "kn-benchmark: {name}: send lateness p50 {:.0} us, p99 {:.0} us, threshold {:.0} us; late share per segment {:?}",
                    percentile(&r.paced.late_us, 50.0).unwrap_or(0.0),
                    percentile(&r.paced.late_us, 99.0).unwrap_or(0.0),
                    r.paced.late_threshold_us,
                    r.paced.segments.iter().map(|s| s.late_share).collect::<Vec<_>>()
                );
                return Ok(UNRESOLVED);
            }
        };
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };

    let correct = is_correct(&r);
    println!(
        "# {name} seed={seed} seconds={seconds} trace={} pool={} certified_shapes={} golden={golden} cpus={}",
        u8::from(trace),
        r.pool,
        r.certified_shapes,
        crate::server::cpus(),
    );
    let mut fields = Vec::with_capacity(named.len());
    for (n, u, v) in named {
        let v = finite(v);
        println!("{n:32} {v:>16.4} {u}");
        fields.push(format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.attempted,
        r.tally.failed,
        fields.join(", ")
    );
    Ok(0)
}

/// Run `--workload name` in a fresh child process of this binary and
/// return its result object.
fn child_run(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} (trace={trace}) exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{name}: bad result line: {e}"))
}

/// Print a child run's metrics and return them as the fields of a JSON
/// object (`"name": value, ...`).
fn print_metrics(result: &Value) -> String {
    let mut fields = Vec::new();
    for (name, m) in result.get("metrics").map_or(&[][..], Value::obj) {
        let value = m.get("value").and_then(Value::num).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::str).unwrap_or("");
        println!("{name:32} {value:>16.4} {unit}");
        fields.push(format!("\"{name}\": {value}"));
    }
    fields.join(", ")
}

/// No `--workload`: every workload in a fresh child process (cold caches,
/// its own peak RSS), untraced and then traced; print everything and
/// write `benchmark/out/results.json`.
pub fn all_workloads(seed: u64, seconds: u64) -> Result<u8, String> {
    let mut doc = format!(
        "{{\n  \"schema\": \"kn-benchmark-results-v1\",\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"cpus\": {},\n  \"workloads\": {{\n",
        crate::server::cpus()
    );
    let mut all_ok = true;
    for (i, w) in gen::WORKLOADS.iter().enumerate() {
        let plain = child_run(w.name, seed, seconds, false)?;
        let traced = child_run(w.name, seed, seconds, true)?;
        let manifest_path = format!("{}/manifest.json", run::out_dir(w.name, seed));
        let manifest =
            std::fs::read_to_string(&manifest_path).map_err(|e| format!("{manifest_path}: {e}"))?;
        let golden = json::parse(&manifest)?
            .get("golden")
            .and_then(Value::str)
            .unwrap_or("none")
            .to_string();
        let correct = [&plain, &traced]
            .iter()
            .all(|r| r.get("correct") == Some(&Value::Bool(true)));
        all_ok &= correct && golden != "drift";
        let count = |key| plain.get(key).and_then(Value::num).unwrap_or(0.0);
        let (attempted, failed) = (count("attempted"), count("failed"));

        println!(
            "== {} ({}) — correct={correct} golden={golden} attempted={attempted} failed={failed}",
            w.name, w.why,
        );
        let e2e = print_metrics(&plain);
        let layers = print_metrics(&traced);
        let comma = if i + 1 < gen::WORKLOADS.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            doc,
            "    \"{}\": {{\n      \"correct\": {correct},\n      \"attempted\": {attempted},\n      \"failed\": {failed},\n      \"end_to_end\": {{{e2e}}},\n      \"per_layer\": {{{layers}}},\n      \"inputs\": {}\n    }}{comma}\n",
            w.name,
            manifest.trim_end().replace('\n', "\n      "),
        );
    }
    doc.push_str("  }\n}\n");
    std::fs::write(RESULTS_FILE, doc).map_err(|e| format!("{RESULTS_FILE}: {e}"))?;
    println!("wrote {RESULTS_FILE}");
    Ok(if all_ok { 0 } else { FAILED })
}

/// `--compare A.json B.json`: per workload and end-to-end metric, both
/// values, how much worse B is than A as a share of A, and the bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<u8, String> {
    let load = |p: &str| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut exceeded = 0;
    println!(
        "{:12} {:16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, wa) in a.get("workloads").ok_or("A has no workloads")?.obj() {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("B has no workload {name}"))?;
        for m in &END_TO_END {
            let value = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Value::num)
                    .ok_or_else(|| format!("{name}: no {}", m.name))
            };
            let (va, vb) = (value(wa)?, value(wb)?);
            let worse_by = if m.better == "lower" {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let over = worse_by > m.bound;
            exceeded += u32::from(over);
            println!(
                "{name:12} {:16} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {}",
                m.name,
                worse_by * 100.0,
                m.bound * 100.0,
                if over { "REGRESSION" } else { "ok" }
            );
        }
        let failed = |w: &Value| w.get("failed").and_then(Value::num).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            exceeded += 1;
            println!(
                "{name:12} {:16} {:>14} {:>14}                    REGRESSION",
                "failed",
                failed(wa),
                failed(wb)
            );
        }
    }
    println!("{exceeded} bound(s) exceeded");
    Ok(if exceeded == 0 { 0 } else { FAILED })
}

/// `--self-test`: corrupt one expected response and run a short
/// `paper_mix`. The checker must notice, and this command must exit
/// non-zero *because* it noticed (exit 1); exit 2 means it did not.
pub fn self_test() -> Result<u8, String> {
    let w = gen::workload("paper_mix").expect("paper_mix exists");
    let r = run::load(
        w,
        &RunOptions {
            seed: 1,
            seconds: 2,
            corrupt_expected: true,
            trace: false,
        },
    )?;
    if r.tally.failed == 0 {
        return Err("self-test: a corrupted expectation went unnoticed".into());
    }
    println!(
        "self-test: the corrupted expectation was caught ({} of {} responses failed); exiting {FAILED} as designed",
        r.tally.failed, r.tally.attempted
    );
    Ok(FAILED)
}
