//! The load generator: one TCP connection speaking the `wire` line format
//! exactly as a client would.
//!
//! * **closed loop** (`warm_up`, `sat`): a window of [`WINDOW`]
//!   outstanding requests; the next request goes out when a response comes
//!   back, so a slow server receives less load.
//! * **open loop** (`paced`): requests leave on a fixed schedule whatever
//!   the server does, and each is timed from the instant it was *due*, so
//!   a stall is charged to every request it delays. How late the
//!   generator itself ran is measured and reported.
//!
//! The client sets `TCP_NODELAY` on its side and does not otherwise work
//! around the server (which leaves Nagle on for accepted sockets).

use crate::check::Expected;
use crate::gen::Inputs;
use crate::server::ServerChild;
use crate::stats::split_even;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Outstanding requests in a closed loop.
pub const WINDOW: usize = 4;
/// A response later than this after the last byte was sent is missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Requests sent so far = the id the server gives the next one.
    pub sent: u64,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = writer.try_clone().map_err(|e| e.to_string())?;
        read_half
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            writer,
            reader: BufReader::new(read_half),
            sent: 0,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        // One write per request, newline included: a request is one
        // segment on the wire, as a line-buffered client would send it.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        self.sent += 1;
        Ok(())
    }

    /// One request, one response, nothing else outstanding.
    pub fn round_trip(&mut self, line: &str, response: &mut String) -> Result<bool, String> {
        self.send(line)?;
        Ok(self.recv(response))
    }

    /// Read one response line into `buf` (cleared first). `false`: the
    /// server closed the connection or went silent.
    fn recv(&mut self, buf: &mut String) -> bool {
        buf.clear();
        matches!(self.reader.read_line(buf), Ok(n) if n > 0 && buf.ends_with('\n'))
    }
}

/// What one phase saw: requests sent, and responses that were missing,
/// malformed or different from the expected response.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Responses carrying a lint code (`"code": "KN...`).
    pub lint_rejects: u64,
    /// Requests sent that name a seeded-invalid file.
    pub invalid_sent: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lint_rejects += other.lint_rejects;
        self.invalid_sent += other.invalid_sent;
    }
}

/// The part of a run that survives across phases: the connection, where
/// the stream stands, and which pool entries have been answered correctly.
pub struct Session<'a> {
    pub conn: Conn,
    pub inputs: &'a Inputs,
    /// Stream position of the next request.
    pub cursor: usize,
    pub answered: Vec<bool>,
    /// Responses of the warm-up, kept until the reference exists.
    pub warmup_lines: Vec<String>,
}

impl<'a> Session<'a> {
    pub fn new(conn: Conn, inputs: &'a Inputs) -> Self {
        Self {
            conn,
            inputs,
            cursor: 0,
            answered: vec![false; inputs.pool.len()],
            warmup_lines: Vec::new(),
        }
    }

    fn send_next(&mut self) -> Result<usize, String> {
        let idx = self.inputs.at(self.cursor);
        self.cursor += 1;
        self.conn.send(&self.inputs.pool[idx].line)?;
        Ok(idx)
    }

    /// Closed loop over `n` requests, responses stored unchecked: the
    /// reference is computed after set-up, so that set-up time is the
    /// system's and not the checker's.
    pub fn warm_up(&mut self, n: usize) -> Result<(), String> {
        let mut line = String::new();
        let mut outstanding = 0;
        let mut sent = 0;
        while self.warmup_lines.len() < n {
            while outstanding < WINDOW && sent < n {
                self.send_next()?;
                sent += 1;
                outstanding += 1;
            }
            if !self.conn.recv(&mut line) {
                return Err("connection lost during warm-up".into());
            }
            outstanding -= 1;
            self.warmup_lines.push(line.clone());
        }
        Ok(())
    }

    /// Check the stored warm-up responses against the reference.
    pub fn check_warm_up(&mut self, expected: &Expected) -> Tally {
        let mut tally = Tally::default();
        for (n, line) in std::mem::take(&mut self.warmup_lines).iter().enumerate() {
            let idx = self.inputs.at(n);
            self.judge(expected, idx, n as u64, Some(line), &mut tally);
        }
        tally
    }

    fn judge(
        &mut self,
        expected: &Expected,
        idx: usize,
        seq: u64,
        line: Option<&str>,
        tally: &mut Tally,
    ) -> bool {
        tally.attempted += 1;
        if self.inputs.pool[idx].invalid.is_some() {
            tally.invalid_sent += 1;
        }
        let ok = line.is_some_and(|l| {
            if l.contains("\"code\": \"KN") {
                tally.lint_rejects += 1;
            }
            expected.matches(idx, seq, l)
        });
        if ok {
            self.answered[idx] = true;
        } else {
            tally.failed += 1;
        }
        ok
    }
}

/// One segment of the `sat` phase, delimited by two marks.
#[derive(Clone, Debug)]
pub struct SatSegment {
    pub responses: u64,
    pub correct: u64,
    pub wall: Duration,
    /// Server-process CPU time spent in the segment.
    pub cpu_ns: u64,
}

/// What the `sat` rounds of a run saw, all rounds together.
#[derive(Default)]
pub struct SatReport {
    pub segments: Vec<SatSegment>,
    pub tally: Tally,
    /// `ServiceStats.exec_ns` spent inside the segments.
    pub exec_ns: u64,
}

impl SatReport {
    pub fn absorb(&mut self, round: SatReport) {
        self.segments.extend(round.segments);
        self.tally.add(round.tally);
        self.exec_ns += round.exec_ns;
    }
}

/// Fewest segments a `sat` round runs, however slow the machine.
const MIN_SAT_SEGMENTS: usize = 3;

/// Closed loop, window [`WINDOW`]: whole segments of `segment_requests`
/// consecutive requests, one after the other, until `duration` has passed.
/// A mark (server CPU clock) is taken each time a segment's last response
/// is read; a segment's throughput is its correct responses over the wall
/// time between its two marks.
pub fn sat(
    s: &mut Session,
    server: &mut ServerChild,
    expected: &Expected,
    duration: Duration,
    segment_requests: usize,
) -> Result<SatReport, String> {
    // Segments are whole blocks; a `paced` round may have stopped inside one.
    s.cursor = s.inputs.next_block(s.cursor);
    let mut tally = Tally::default();
    let mut segments = Vec::new();
    let mut pending: std::collections::VecDeque<usize> = Default::default();
    let mut line = String::new();

    let first = server.mark()?;
    let t0 = Instant::now();
    let (mut seg_start, mut seg_mark) = (t0, first.clone());
    let (mut seg_responses, mut seg_correct) = (0u64, 0u64);
    let mut stopping = false;
    loop {
        while pending.len() < WINDOW && !stopping {
            pending.push_back(s.send_next()?);
        }
        let Some(idx) = pending.pop_front() else {
            break;
        };
        let got = s.conn.recv(&mut line);
        let seq = s.conn.sent - pending.len() as u64 - 1;
        let ok = s.judge(expected, idx, seq, got.then_some(line.as_str()), &mut tally);
        if !got {
            return Err("connection lost during the sat phase".into());
        }
        if stopping {
            continue; // draining the window: checked, in no segment
        }
        seg_responses += 1;
        seg_correct += u64::from(ok);
        if seg_responses as usize == segment_requests {
            let mark = server.mark()?;
            let now = Instant::now();
            segments.push(SatSegment {
                responses: seg_responses,
                correct: seg_correct,
                wall: now - seg_start,
                cpu_ns: mark.since(&seg_mark, "cpu_ns"),
            });
            (seg_start, seg_mark) = (now, mark);
            (seg_responses, seg_correct) = (0, 0);
            stopping = segments.len() >= MIN_SAT_SEGMENTS && now - t0 >= duration;
        }
    }
    // The window's last requests ran past the final segment; skip ahead
    // so the next phase starts on a block boundary again.
    s.cursor = s.inputs.next_block(s.cursor);
    Ok(SatReport {
        segments,
        tally,
        exec_ns: seg_mark.since(&first, "exec_ns"),
    })
}

/// One segment of the `paced` phase: a run of consecutive requests.
#[derive(Clone, Debug)]
pub struct PacedSegment {
    /// Due-time to response-read, microseconds; `+inf` for a failed or
    /// wrong response.
    pub latency_us: Vec<f64>,
    /// Share of the segment's requests the generator sent late.
    pub late_share: f64,
}

/// What the `paced` rounds of a run saw, all rounds together.
#[derive(Default)]
pub struct PacedReport {
    pub segments: Vec<PacedSegment>,
    pub tally: Tally,
    /// Send lateness of every request, microseconds after due.
    pub late_us: Vec<f64>,
    pub late_threshold_us: f64,
    /// Queue-depth samples the server took during the rounds, and their sum.
    pub depth_n: u64,
    pub depth_sum: u64,
}

impl PacedReport {
    pub fn absorb(&mut self, round: PacedReport) {
        self.segments.extend(round.segments);
        self.tally.add(round.tally);
        self.late_us.extend(round.late_us);
        self.late_threshold_us = round.late_threshold_us;
        self.depth_n += round.depth_n;
        self.depth_sum += round.depth_sum;
    }
}

/// Requests in a `paced` segment: its slower half is 25 samples. Many
/// short segments beat few long ones, because the quietest tenth is a
/// better pick among many: over twelve runs of each workload the estimate
/// of the mean of the slowest quarter spread (IQR / median) 8-20 % with 25
/// segments a run and 5-6 % with segments of 50 requests, however many
/// that makes (`zipf_hot`: one every 5 ms, so that a stall of the host
/// spoils few of them).
const SEGMENT_SAMPLES: usize = 50;

/// A request is late when it left more than this after it was due.
pub fn late_threshold(gap: Duration) -> Duration {
    Duration::from_micros(200).max(gap / 10)
}

/// What the polling loop of the `paced` phase saw.
struct Polled {
    t0: Instant,
    sent_at: Vec<Instant>,
    recv_at: Vec<Option<Instant>>,
    lines_ok: Vec<bool>,
    lint_rejects: u64,
}

/// The polling loop of [`paced`]. Leaves the socket non-blocking.
fn poll_paced(
    s: &Session,
    expected: &Expected,
    indices: &[usize],
    first_seq: u64,
    gap: Duration,
) -> Result<Polled, String> {
    let n = indices.len();
    let mut stream = &s.conn.writer;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let alone = crate::server::cpus() >= 2;
    let mut sent_at = Vec::with_capacity(n);
    let mut recv_at: Vec<Option<Instant>> = vec![None; n];
    let mut lines_ok = vec![false; n];
    let mut lint_rejects = 0;
    // Bytes of the current request not yet accepted by the socket, and
    // bytes received that do not yet end in a newline.
    let (mut out, mut out_at) = (Vec::new(), 0);
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut received = 0;

    // Start a little in the future so request 0 is not born late.
    let t0 = Instant::now() + Duration::from_millis(2);
    let give_up = t0 + gap.mul_f64(n as f64) + RESPONSE_TIMEOUT;
    while received < n {
        let now = Instant::now();
        if out_at == out.len() && sent_at.len() < n && now >= t0 + gap.mul_f64(sent_at.len() as f64)
        {
            out.clear();
            out.extend_from_slice(s.inputs.pool[indices[sent_at.len()]].line.as_bytes());
            out.push(b'\n');
            out_at = 0;
            // The generator is late by how long after the due time it
            // *starts* the write; the write itself is transport.
            sent_at.push(now);
        }
        if out_at < out.len() {
            match stream.write(&out[out_at..]) {
                Ok(k) => out_at += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("paced send: {e}")),
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let at = Instant::now();
                inbuf.extend_from_slice(&chunk[..k]);
                let mut from = 0;
                while let Some(nl) = inbuf[from..].iter().position(|&b| b == b'\n') {
                    // Compared here, while the line is at hand; tallied by
                    // the caller. The newline is part of the line, as in
                    // `read_line`.
                    let line = std::str::from_utf8(&inbuf[from..=from + nl]).unwrap_or("");
                    from += nl + 1;
                    if received == n {
                        break;
                    }
                    recv_at[received] = Some(at);
                    lines_ok[received] =
                        expected.matches(indices[received], first_seq + received as u64, line);
                    if line.contains("\"code\": \"KN") {
                        lint_rejects += 1;
                    }
                    received += 1;
                }
                inbuf.drain(..from);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if now > give_up {
                    break;
                }
                if !alone {
                    // One CPU for client and server: let the server run.
                    std::thread::yield_now();
                }
            }
            Err(_) => break,
        }
    }
    // Every request counts as sent, on time or never: a request the loop
    // gave up before sending gets the give-up instant.
    sent_at.resize(n, give_up);
    Ok(Polled {
        t0,
        sent_at,
        recv_at,
        lines_ok,
        lint_rejects,
    })
}

/// Open loop at `rps` for `duration`: request `i` is due at `t0 + i/rps`.
/// One thread does everything, without ever sleeping: it polls the clock
/// and the (non-blocking) socket in turn, sends a request the moment it is
/// due and stamps a response the moment its line is complete. The client
/// has CPU 0 to itself, so nothing on its side waits for the scheduler; a
/// sender thread that slept and spun beside a blocking reader on the same
/// CPU made the reader wait for the sender's time slice every so often,
/// and the tail of ten runs of one commit spread 25 %. The request count
/// is fixed by `rps * duration`, and the phase is cut into runs of
/// consecutive requests.
pub fn paced(
    s: &mut Session,
    server: &mut ServerChild,
    expected: &Expected,
    rps: u32,
    duration: Duration,
) -> Result<PacedReport, String> {
    let n = (f64::from(rps) * duration.as_secs_f64()).round() as usize;
    let gap = Duration::from_secs_f64(1.0 / f64::from(rps));
    let threshold_us = late_threshold(gap).as_secs_f64() * 1e6;
    let indices: Vec<usize> = (0..n).map(|i| s.inputs.at(s.cursor + i)).collect();
    s.cursor += n;
    let first_seq = s.conn.sent;

    let first = server.mark()?;
    let polled = poll_paced(s, expected, &indices, first_seq, gap);
    s.conn
        .writer
        .set_nonblocking(false)
        .map_err(|e| e.to_string())?;
    let Polled {
        t0,
        sent_at,
        recv_at,
        lines_ok,
        lint_rejects,
    } = polled?;
    let due = |i: usize| t0 + gap.mul_f64(i as f64);
    let mut tally = Tally {
        lint_rejects,
        ..Tally::default()
    };
    s.conn.sent += n as u64;
    let last = server.mark()?;

    let mut late_us = Vec::with_capacity(n);
    let mut latency = Vec::with_capacity(n);
    for i in 0..n {
        tally.attempted += 1;
        if s.inputs.pool[indices[i]].invalid.is_some() {
            tally.invalid_sent += 1;
        }
        late_us.push(sent_at[i].saturating_duration_since(due(i)).as_secs_f64() * 1e6);
        match recv_at[i] {
            Some(t) if lines_ok[i] => {
                s.answered[indices[i]] = true;
                latency.push(t.saturating_duration_since(due(i)).as_secs_f64() * 1e6);
            }
            _ => {
                tally.failed += 1;
                latency.push(f64::INFINITY);
            }
        }
    }
    let parts = (n / SEGMENT_SAMPLES).max(1);
    let segments = split_even(n, parts)
        .into_iter()
        .map(|r| PacedSegment {
            latency_us: latency[r.clone()].to_vec(),
            late_share: late_us[r.clone()]
                .iter()
                .filter(|&&l| l > threshold_us)
                .count() as f64
                / r.len().max(1) as f64,
        })
        .collect();
    if recv_at.last().is_some_and(|t| t.is_none()) {
        return Err("connection lost during the paced phase".into());
    }
    Ok(PacedReport {
        segments,
        tally,
        late_us,
        late_threshold_us: threshold_us,
        depth_n: last.since(&first, "depth_n"),
        depth_sum: last.since(&first, "depth_sum"),
    })
}
