//! The system under test, in a process of its own.
//!
//! `kn-benchmark serve` (spawned by the benchmark, never by hand) starts
//! `kn_core::service::Service` — 1 worker, `cache_capacity` 1024 as
//! `kn serve` does, everything else default — behind
//! `service::net::NetServer` on `127.0.0.1:0` and prints the port. The
//! client lives in the parent process, so the child's CPU time and peak
//! RSS are the server's alone, and the client reaches it only through the
//! socket, as any client would.
//!
//! A side channel on the child's stdin/stdout answers `mark` with one line
//! of `key=value` counters (process CPU time, `ServiceStats`, queue-depth
//! samples, `VmHWM`). It carries measurements, never requests.

use kn_core::service::net::{NetConfig, NetServer};
use kn_core::service::{DrainPolicy, Service, ServiceConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        cache_capacity: crate::gen::CACHE_CAPACITY,
        ..ServiceConfig::default()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Which side of the socket a thread belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The load generator and checker: CPU 0.
    Client,
    /// The system under test: every CPU but 0.
    Server,
    /// No restriction (the reference computation uses every core).
    Anywhere,
}

/// CPUs this process may use, counted once before anything is pinned
/// (`available_parallelism` answers from the current affinity mask).
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(64)))
}

fn cpu_mask(side: Side) -> u64 {
    let all = if cpus() == 64 {
        u64::MAX
    } else {
        (1u64 << cpus()) - 1
    };
    match side {
        Side::Client => 1,
        Side::Server => all & !1,
        Side::Anywhere => all,
    }
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to `mask`'s CPUs.
fn set_affinity(mask: u64) {
    // SAFETY: `mask` is a valid 8-byte CPU set, the size passed says so,
    // and pid 0 means the calling thread; the call reads the mask and
    // writes nothing. A refusal (e.g. a restricted cpuset) leaves placement
    // to the kernel, which is what happened before.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Put the calling thread on its side's CPUs. With placement left to the
/// kernel, a run in which the generator happened to share a CPU with the
/// server's worker sent 70 % of its requests late and one in which it did
/// not sent 1 %; which one a run got was luck. On a single-CPU machine
/// this does nothing. Call [`init_cpus`] first.
pub fn pin(side: Side) {
    if cpus() >= 2 {
        set_affinity(cpu_mask(side));
    }
}

/// Count the CPUs while the process is still unpinned.
pub fn init_cpus() {
    cpus();
}

/// User + system CPU time of this process, all threads, in nanoseconds.
/// `/proc/self/stat` has the same quantity in 10 ms ticks, too coarse for a
/// one-second segment.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this benchmark runs on), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process in KiB (`VmHWM`).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// How often the child samples `Service::health()` for the queue depth.
const HEALTH_SAMPLE: Duration = Duration::from_millis(100);

/// Child entry point: serve until stdin says `quit` or closes. `mask` is
/// the CPU set the parent chose for the server (the child inherits the
/// client's pinning and could not count the CPUs itself); 0 = leave it.
pub fn serve_main(mask: u64) -> Result<(), String> {
    if mask != 0 {
        set_affinity(mask);
    }
    let svc = Arc::new(Service::with_config(service_config()));
    let server = NetServer::bind(Arc::clone(&svc), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "port={}", server.local_addr().port()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let stop = Arc::new(AtomicBool::new(false));
    let depth_sum = Arc::new(AtomicU64::new(0));
    let depth_n = Arc::new(AtomicU64::new(0));
    let sampler = {
        let (svc, stop) = (Arc::clone(&svc), Arc::clone(&stop));
        let (sum, n) = (Arc::clone(&depth_sum), Arc::clone(&depth_n));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let h = svc.health();
                sum.fetch_add(h.queued.iter().sum::<u64>(), Ordering::Relaxed);
                n.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(HEALTH_SAMPLE);
            }
        })
    };

    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "mark" => {
                let s = svc.stats();
                writeln!(
                    out,
                    "cpu_ns={} hwm_kb={} submitted={} completed={} errors={} retries={} expired={} rejected={} overloaded={} replaced_workers={} cache_hits={} cache_misses={} cache_coalesced={} cache_evictions={} exec_ns={} depth_sum={} depth_n={}",
                    process_cpu_ns(),
                    vm_hwm_kb(),
                    s.submitted,
                    s.completed,
                    s.errors,
                    s.retries,
                    s.expired,
                    s.rejected,
                    s.overloaded,
                    s.replaced_workers,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_coalesced,
                    s.cache_evictions,
                    s.exec_ns,
                    depth_sum.load(Ordering::Relaxed),
                    depth_n.load(Ordering::Relaxed),
                )
                .and_then(|()| out.flush())
                .map_err(|e| e.to_string())?;
            }
            "quit" => break,
            _ => {}
        }
    }
    stop.store(true, Ordering::Relaxed);
    sampler.join().map_err(|_| "sampler panicked")?;
    server.shutdown(DrainPolicy::Finish);
    Ok(())
}

/// Cumulative counters of the server child at one instant.
#[derive(Clone, Debug, Default)]
pub struct Mark(HashMap<String, u64>);

impl Mark {
    pub fn get(&self, key: &str) -> u64 {
        *self
            .0
            .get(key)
            .unwrap_or_else(|| panic!("mark has no {key}"))
    }

    /// `self - earlier` for a monotone counter.
    pub fn since(&self, earlier: &Mark, key: &str) -> u64 {
        self.get(key) - earlier.get(key)
    }
}

/// Parent-side handle on the server child. Dropping it kills and reaps the
/// child, so no exit path leaves a process behind.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerChild {
    pub fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(
                if cpus() >= 2 {
                    cpu_mask(Side::Server)
                } else {
                    0
                }
                .to_string(),
            )
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let port = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("port=")?.parse::<u16>().ok());
        let mut me = Self {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], port.unwrap_or(0))),
        };
        if port.is_none() {
            me.kill();
            return Err(format!("server child did not report a port: {line:?}"));
        }
        Ok(me)
    }

    pub fn mark(&mut self) -> Result<Mark, String> {
        let stdin = self.stdin.as_mut().ok_or("server child already stopped")?;
        stdin
            .write_all(b"mark\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("mark: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("mark: {e}"))?;
        let fields: HashMap<String, u64> = line
            .split_whitespace()
            .filter_map(|f| {
                let (k, v) = f.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect();
        if fields.is_empty() {
            return Err("server child answered an empty mark (did it die?)".into());
        }
        Ok(Mark(fields))
    }

    /// Graceful stop: ask, close the pipe, wait for the exit status.
    pub fn stop(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server child exited with {status}"))
        }
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // After `stop` the child is reaped and both calls are no-ops.
        self.kill();
    }
}
