//! Workload generator: every request line and every `.ddg` file is a pure
//! function of `(workload, --seed)`.
//!
//! A workload is a **pool** of distinct request lines plus a **stream** of
//! pool indices the client replays (cyclically) during warm-up and the two
//! timed phases. Cold pools are built of **blocks**: every block holds each
//! (loop, machine, scheduler, traffic) shape exactly once, in shuffled
//! order, with its own traffic seed. The seed therefore moves the order of
//! requests, the traffic seeds and the random graphs, never the mix — and a
//! segment made of whole blocks is the same work as every other segment.
//! On the four cold workloads the pool is twice the response cache (1024
//! entries, LRU), so a cyclic replay never hits it.

use crate::rng::{SplitMix64, Zipf};
use kn_workloads::{random_loop, RandomLoopConfig};

/// One traffic mix. `paced_rps` and `segment_requests` are constants of
/// the benchmark: identical on every commit it compares.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Open-loop rate of the `paced` phase, requests per second: about 30 %
    /// of the `sat` throughput measured when the benchmark was defined,
    /// then frozen (see README, "parameters fixed by measurement").
    pub paced_rps: u32,
    /// Requests per `sat` segment: whole blocks, 40-150 ms of work. Short,
    /// so that a slow spell of the host leaves some of them alone.
    pub segment_requests: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_mix",
        why: "the paper's loops at paper defaults, every request distinct: schedule+simulate cost, cache only inserts and evicts",
        paced_rps: 700,
        segment_requests: 192,
    },
    Workload {
        name: "long_loops",
        why: "same loops, many iterations on contended links: instantiate, static_times and the event engine are all the work",
        paced_rps: 200,
        segment_requests: 96,
    },
    Workload {
        name: "random_ddg",
        why: "ddg= files of 40-160 random nodes, 1 in 16 invalid: lint, parse, classify and pattern detection on large graphs",
        paced_rps: 600,
        segment_requests: 192,
    },
    Workload {
        name: "zipf_hot",
        why: "64 distinct requests drawn Zipf(1): >99% cache hits, so wire, cache and socket are the whole cost",
        paced_rps: 10000,
        segment_requests: 512,
    },
    Workload {
        name: "xform_mix",
        why: "transform=all on the ten body-sourced loops: differential certification in kn-xform dominates, bypassed elsewhere",
        paced_rps: 400,
        segment_requests: 100,
    },
];

/// Requests sent (closed loop, window 4) before anything is timed.
pub const WARMUP_REQUESTS: usize = 200;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const PAPER_LOOPS: [&str; 8] = [
    "figure3",
    "figure7",
    "cytron86",
    "livermore18",
    "elliptic",
    "livermore5",
    "livermore23",
    "rate_gap",
];
/// `scheduler` cyclic 3 : doacross 1.
const SCHEDULERS: [&str; 4] = ["cyclic", "cyclic", "cyclic", "doacross"];
const LINKS: [&str; 2] = ["unlimited", "single"];
const MMS: [u32; 3] = [1, 3, 5];
const XFORM_LOOPS: [&str; 10] = [
    "fissionable/twophase",
    "fissionable/islands",
    "fissionable/storage",
    "reduction/sum",
    "reduction/max",
    "reduction/scan",
    "reduction/nonassoc",
    "figure7",
    "livermore5",
    "livermore23",
];

/// Iterations per `long_loops` request (see README, "parameters fixed by
/// measurement").
pub const LONG_ITERS: u32 = 400;
/// Response-cache capacity of the server under test (`kn serve` default).
pub const CACHE_CAPACITY: usize = 1024;
/// Smallest pool of a cold workload: over twice the cache, so that every
/// one of its 16 shards sees more distinct keys than it can hold.
const MIN_COLD_POOL: usize = 2 * CACHE_CAPACITY + 1;

pub const RANDOM_FILES: usize = 192;
const RANDOM_NODES: [usize; 3] = [40, 80, 160];
/// One file in 16 is invalid.
const INVALID_EVERY: usize = 16;
pub const ZIPF_KEYS: usize = 64;
const ZIPF_STREAM: usize = 1 << 16;

/// The lint codes the invalid-file generator aims for, in rotation.
pub const INVALID_CODES: [&str; 5] = ["KN001", "KN002", "KN003", "KN004", "KN005"];

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub line: String,
    /// `Some(code)`: the line names a seeded-invalid file whose expected
    /// response is that lint rejection.
    pub invalid: Option<&'static str>,
}

pub struct Inputs {
    pub pool: Vec<Request>,
    /// One cycle of the request stream, as indices into `pool`.
    pub stream: Vec<u32>,
    /// `(path, content)` of every `.ddg` file the pool names.
    pub files: Vec<(String, String)>,
    /// Requests per block (1 when the stream is a random draw).
    pub block: usize,
}

impl Inputs {
    /// The request file: one cycle of the stream, one line per request,
    /// replayable with `kn serve --listen ADDR --requests FILE`.
    pub fn request_file(&self) -> String {
        let mut out = String::new();
        for &i in &self.stream {
            out.push_str(&self.pool[i as usize].line);
            out.push('\n');
        }
        out
    }

    /// Pool index of the `n`-th request of the (cyclic) stream.
    pub fn at(&self, n: usize) -> usize {
        self.stream[n % self.stream.len()] as usize
    }

    /// The first stream position at or after `n` where a block starts.
    pub fn next_block(&self, n: usize) -> usize {
        n.div_ceil(self.block) * self.block
    }
}

/// Distinct traffic seeds for one shape.
fn unique_seeds(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let s = rng.below(1_000_000_000);
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// Blocks of `shapes.len()` lines: each block holds every shape once, in
/// its own shuffled order, each line with a `seed=` value unique to its
/// shape.
fn stratified(shapes: &[(String, Option<&'static str>)], rng: &mut SplitMix64) -> Vec<Request> {
    let blocks = MIN_COLD_POOL.div_ceil(shapes.len());
    let seeds: Vec<Vec<u64>> = shapes.iter().map(|_| unique_seeds(rng, blocks)).collect();
    let mut pool = Vec::with_capacity(shapes.len() * blocks);
    for b in 0..blocks {
        let start = pool.len();
        for ((shape, invalid), seeds) in shapes.iter().zip(&seeds) {
            pool.push(Request {
                line: format!("{shape} seed={}", seeds[b]),
                invalid: *invalid,
            });
        }
        rng.shuffle(&mut pool[start..]);
    }
    pool
}

fn paper_shapes(iters: u32, links: &[&str], mms: &[u32]) -> Vec<(String, Option<&'static str>)> {
    let mut shapes = Vec::new();
    for name in PAPER_LOOPS {
        for link in links {
            for sched in SCHEDULERS {
                for mm in mms {
                    shapes.push((
                        format!(
                            "corpus={name} iters={iters} link={link} scheduler={sched} mm={mm}"
                        ),
                        None,
                    ));
                }
            }
        }
    }
    shapes
}

/// Turn a valid rendered graph into one `lint_text` rejects with `code`.
/// Every edit is appended or in place, so the rest of the file still
/// parses and the finding is the file's first error.
fn corrupt(text: &str, code: &str) -> String {
    match code {
        // a zero-latency node
        "KN001" => {
            let (first, rest) = text.split_once('\n').expect("a node line");
            let name = first.split_whitespace().nth(1).expect("node name");
            format!("node {name} lat=0\n{rest}")
        }
        // a second node named like the first
        "KN002" => format!("{text}node v0\n"),
        // an edge to a node nobody declared
        "KN003" => format!("{text}edge v0 -> ghost\n"),
        // a zero-distance self-dependence
        "KN004" => format!("{text}edge v0 -> v0\n"),
        // a cycle in the distance-0 subgraph
        "KN005" => format!("{text}edge v0 -> v1\nedge v1 -> v0\n"),
        other => panic!("no generator for {other}"),
    }
}

fn random_ddg(rng: &mut SplitMix64, dir: &str) -> Inputs {
    let mut files = Vec::with_capacity(RANDOM_FILES);
    let mut shapes = Vec::with_capacity(RANDOM_FILES);
    let (mut valid_made, mut invalid_made) = (0, 0);
    for i in 0..RANDOM_FILES {
        let nodes = RANDOM_NODES[i % RANDOM_NODES.len()];
        let cfg = RandomLoopConfig {
            nodes,
            lcds: nodes / 2,
            sds: nodes / 2,
            ..RandomLoopConfig::default()
        };
        // The valid graphs are a fixed corpus — generator seeds 1, 2, 3, ...
        // as in the paper's Table 1 — so the schedule quality they yield
        // does not move with `--seed`; the invalid ones, their position and
        // everything about the request stream do.
        let invalid = (i % INVALID_EVERY == INVALID_EVERY / 2).then(|| {
            invalid_made += 1;
            INVALID_CODES[(invalid_made - 1) % INVALID_CODES.len()]
        });
        let text = match invalid {
            Some(code) => corrupt(
                &kn_ddg::render_text(&random_loop(rng.next_u64(), &cfg)),
                code,
            ),
            None => {
                valid_made += 1;
                kn_ddg::render_text(&random_loop(valid_made, &cfg))
            }
        };
        let path = format!("{dir}/g{i:03}.ddg");
        shapes.push((format!("ddg={path} procs=8 k=3 iters=8"), invalid));
        files.push((path, text));
    }
    cold(&shapes, rng, files)
}

fn zipf_hot(rng: &mut SplitMix64) -> Inputs {
    let shapes = paper_shapes(100, &["single"], &[3]);
    let per_shape = ZIPF_KEYS / shapes.len();
    let mut pool = Vec::with_capacity(ZIPF_KEYS);
    for (shape, _) in &shapes {
        for s in unique_seeds(rng, per_shape) {
            pool.push(Request {
                line: format!("{shape} seed={s}"),
                invalid: None,
            });
        }
    }
    assert_eq!(pool.len(), ZIPF_KEYS);
    // The shuffle decides which request gets which popularity rank.
    rng.shuffle(&mut pool);
    let zipf = Zipf::new(ZIPF_KEYS);
    let stream = (0..ZIPF_STREAM).map(|_| zipf.draw(rng) as u32).collect();
    Inputs {
        pool,
        stream,
        files: Vec::new(),
        block: 1,
    }
}

/// A cold workload: the stream is the block-structured pool, in order.
fn cold(
    shapes: &[(String, Option<&'static str>)],
    rng: &mut SplitMix64,
    files: Vec<(String, String)>,
) -> Inputs {
    let pool = stratified(shapes, rng);
    Inputs {
        stream: (0..pool.len() as u32).collect(),
        pool,
        files,
        block: shapes.len(),
    }
}

/// Generate `workload`'s inputs for `seed`. `dir` is where its `.ddg`
/// files will live (it appears in `ddg=` fields and therefore in
/// responses, so it must be the same on every run that is compared).
pub fn generate(workload: &str, seed: u64, dir: &str) -> Inputs {
    let mut rng = SplitMix64::fork(seed, workload);
    match workload {
        "paper_mix" => cold(&paper_shapes(100, &LINKS, &MMS), &mut rng, Vec::new()),
        "long_loops" => cold(
            &paper_shapes(LONG_ITERS, &["single"], &MMS),
            &mut rng,
            Vec::new(),
        ),
        "random_ddg" => random_ddg(&mut rng, dir),
        "zipf_hot" => zipf_hot(&mut rng),
        "xform_mix" => {
            let shapes: Vec<_> = XFORM_LOOPS
                .iter()
                .map(|l| (format!("corpus={l} iters=100 transform=all"), None))
                .collect();
            cold(&shapes, &mut rng, Vec::new())
        }
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_request_and_ddg_files() {
        for w in &WORKLOADS {
            let a = generate(w.name, 5, "d");
            let b = generate(w.name, 5, "d");
            assert_eq!(a.request_file(), b.request_file(), "{}", w.name);
            assert_eq!(a.files, b.files, "{}", w.name);
            let c = generate(w.name, 6, "d");
            assert_ne!(a.request_file(), c.request_file(), "{}", w.name);
        }
    }

    #[test]
    fn every_line_parses_and_cold_pools_are_distinct_and_outsize_the_cache() {
        for w in &WORKLOADS {
            let inp = generate(w.name, 1, "d");
            let lines: HashSet<&str> = inp.pool.iter().map(|r| r.line.as_str()).collect();
            assert_eq!(lines.len(), inp.pool.len(), "{}: duplicate lines", w.name);
            for r in &inp.pool {
                let parsed = kn_core::service::wire::parse_request_line(&r.line);
                assert!(matches!(parsed, Ok(Some(_))), "{}: {parsed:?}", r.line);
            }
            if w.name == "zipf_hot" {
                assert_eq!(inp.pool.len(), ZIPF_KEYS);
                assert!(inp.stream.iter().all(|&i| (i as usize) < ZIPF_KEYS));
            } else {
                assert!(inp.pool.len() >= MIN_COLD_POOL, "{}", w.name);
                assert_eq!(inp.stream.len(), inp.pool.len());
            }
        }
    }

    #[test]
    fn every_sat_segment_of_a_cold_workload_is_the_same_mix() {
        let shape = |line: &str| line.rsplit_once(" seed=").unwrap().0.to_string();
        for w in WORKLOADS.iter().filter(|w| w.name != "zipf_hot") {
            let mix = |seed: u64, segment: usize| {
                let inp = generate(w.name, seed, "d");
                assert_eq!(w.segment_requests % inp.block, 0, "{}", w.name);
                assert_eq!(inp.pool.len() % inp.block, 0, "{}", w.name);
                let start = inp.next_block(WARMUP_REQUESTS) + segment * w.segment_requests;
                let mut m = std::collections::BTreeMap::new();
                for n in 0..w.segment_requests {
                    // the stream continues cyclically past the pool's end
                    let r = &inp.pool[inp.at(start + n)];
                    *m.entry(shape(&r.line)).or_insert(0usize) += 1;
                }
                m
            };
            let first = mix(1, 0);
            for segment in [1, 7, 40] {
                assert_eq!(first, mix(1, segment), "{} segment {segment}", w.name);
            }
            assert_eq!(
                first,
                mix(2, 3),
                "{}: the seed does not move the mix",
                w.name
            );
        }
    }

    #[test]
    fn each_invalid_file_is_rejected_by_lint_with_the_intended_code() {
        let inp = generate("random_ddg", 3, "d");
        assert_eq!(inp.files.len(), RANDOM_FILES);
        let mut codes = HashSet::new();
        let mut invalid_files = 0;
        for (path, text) in &inp.files {
            let intended = inp
                .pool
                .iter()
                .find(|r| r.line.contains(path.as_str()))
                .expect("every file is named by the pool")
                .invalid;
            let lint = kn_verify::lint_text(text).expect("generated files parse");
            let got = lint.report.first_error().map(|d| d.code.as_str());
            assert_eq!(got, intended, "{path}");
            if let Some(code) = intended {
                codes.insert(code);
                invalid_files += 1;
            }
        }
        assert_eq!(invalid_files, RANDOM_FILES / INVALID_EVERY);
        assert_eq!(codes.len(), INVALID_CODES.len(), "every code is exercised");
        let invalid_requests = inp.pool.iter().filter(|r| r.invalid.is_some()).count();
        assert_eq!(invalid_requests * INVALID_EVERY, inp.pool.len());
    }
}
