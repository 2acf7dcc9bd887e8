//! The open-loop load generator: each request has a due time from a
//! seeded arrival schedule and is timed from that due time, so a stall
//! that delays later requests is charged to them (no coordinated
//! omission). One connection at a time, reopened every
//! `per_connection` requests, so accepting connections stays in the
//! mix.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::fnv1a64;

// The generator keeps one connection at a time. With two keep-alive
// connections the server's accept loop decides the outcome by a race:
// it serves each accepted batch of connections until all of them
// close, so a connection that reopens while the other is open waits
// out the other's whole life (256 requests, ~0.5 s at 500 req/s). On a
// 2-core host that made the fixed-rate p99 read either ~5 ms or
// ~510 ms from run to run at 1000 req/s. Opening a connection per
// request instead avoids the race but wraps the ephemeral port range
// within seconds at saturation.

const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One planned request: an index into the target list and its due
/// time in nanoseconds after the load's origin.
pub type Shot = (u32, u64);

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Answered, and the answer matched the expected bytes (or there
    /// was nothing to compare it with yet).
    Ok,
    /// Answered with another status or body than expected.
    Wrong,
    /// Connect, write or read failed.
    Transport,
}

/// What the generator saw for one request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub target: u32,
    /// Connection id (unique within one load) and the request's
    /// position on that connection.
    pub conn: u32,
    pub seq: u32,
    pub verdict: Verdict,
    pub status: u16,
    pub body_hash: u64,
    pub body_len: u32,
    pub due_ns: u64,
    pub done_ns: u64,
    /// How late the generator itself woke for a request it was idle
    /// before; `None` when the thread was still busy at the due time.
    pub own_late_ns: Option<u64>,
}

impl Sample {
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// A load against one server address.
#[derive(Debug)]
pub struct Load<'a> {
    pub addr: SocketAddr,
    pub targets: &'a [String],
    /// Expected `(status, body)` per target; when given, every answer
    /// is compared byte for byte.
    pub expected: Option<&'a [(u16, Vec<u8>)]>,
    /// Requests sent on one connection before it is closed and
    /// reopened.
    pub per_connection: u32,
    /// Busy-wait for due times and answers instead of sleeping in the
    /// kernel, keeping the generator's own wake-ups out of the timings.
    /// Costs one core for the load's duration.
    pub spin: bool,
    /// Stop sending once set (requests already sent complete).
    pub stop: Option<&'a AtomicBool>,
    /// Stop sending once this many nanoseconds have passed.
    pub deadline_ns: Option<u64>,
}

impl Load<'_> {
    /// Sends `shots` on schedule from `origin`, on the calling thread,
    /// and returns one sample per request sent.
    pub fn run(&self, shots: &[Shot], origin: Instant) -> Vec<Sample> {
        tighten_timer_slack();
        let mut samples = Vec::with_capacity(shots.len());
        let mut conn: Option<Conn> = None;
        let mut opened = 0u32;
        for &(target, due_ns) in shots {
            if self.stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                break;
            }
            let now = elapsed_ns(origin);
            if self.deadline_ns.is_some_and(|d| now > d) {
                break;
            }
            let mut own_late_ns = None;
            if now < due_ns {
                if self.spin {
                    while elapsed_ns(origin) < due_ns {
                        std::hint::spin_loop();
                    }
                } else {
                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                }
                own_late_ns = Some(elapsed_ns(origin).saturating_sub(due_ns));
            }
            let target_str = &self.targets[target as usize];
            let answer = exchange(&mut conn, self, target_str, &mut opened);
            let done_ns = elapsed_ns(origin);
            let (id, seq) = conn.as_ref().map_or((u32::MAX, 0), |c| (c.id, c.sent));
            let mut sample = Sample {
                target,
                conn: id,
                seq,
                verdict: Verdict::Transport,
                status: 0,
                body_hash: 0,
                body_len: 0,
                due_ns,
                done_ns,
                own_late_ns,
            };
            if let (Some(c), Some(status)) = (conn.as_mut(), answer) {
                self.judge(&mut sample, c, status);
            }
            if conn.as_ref().is_some_and(|c| c.sent >= self.per_connection) {
                conn = None;
            }
            samples.push(sample);
        }
        samples
    }

    /// Sends `targets` with up to `depth` requests outstanding on each
    /// connection (HTTP/1.1 pipelining), as fast as the answers come
    /// back; every request is due at `origin`. Returns one sample per
    /// request; after a transport error the rest of that connection's
    /// requests count as transport failures.
    pub fn run_pipelined(&self, targets: &[u32], depth: usize, origin: Instant) -> Vec<Sample> {
        let mut samples = Vec::with_capacity(targets.len());
        let mut opened = 0u32;
        for chunk in targets.chunks(self.per_connection.max(1) as usize) {
            if self.deadline_ns.is_some_and(|d| elapsed_ns(origin) > d) {
                break;
            }
            opened += 1;
            let mut conn = Conn::open(self.addr, opened, self.spin);
            let mut sent = 0;
            for (k, &target) in chunk.iter().enumerate() {
                let mut sample = Sample {
                    target,
                    conn: opened,
                    seq: k as u32 + 1,
                    verdict: Verdict::Transport,
                    status: 0,
                    body_hash: 0,
                    body_len: 0,
                    due_ns: 0,
                    done_ns: 0,
                    own_late_ns: None,
                };
                if let Some(c) = conn.as_mut() {
                    while sent < chunk.len() && sent < k + depth.max(1) {
                        let last = sent + 1 == chunk.len();
                        if c.send_request(&self.targets[chunk[sent] as usize], last)
                            .is_none()
                        {
                            break;
                        }
                        sent += 1;
                    }
                    match (sent > k).then(|| c.read_answer()).flatten() {
                        Some(status) => self.judge(&mut sample, c, status),
                        None => conn = None,
                    }
                }
                sample.done_ns = elapsed_ns(origin);
                samples.push(sample);
            }
        }
        samples
    }

    /// Fills in `sample` from the answer in `conn`'s buffer, compares
    /// it with the expected bytes, and consumes it.
    fn judge(&self, sample: &mut Sample, conn: &mut Conn, status: u16) {
        let body = conn.body();
        sample.status = status;
        sample.body_hash = fnv1a64(body);
        sample.body_len = body.len() as u32;
        sample.verdict = match self.expected {
            Some(expected) => {
                let (want_status, want_body) = &expected[sample.target as usize];
                if status == *want_status && body == want_body.as_slice() {
                    Verdict::Ok
                } else {
                    Verdict::Wrong
                }
            }
            None => Verdict::Ok,
        };
        conn.consume();
    }
}

/// Asks the kernel to wake this thread's sleeps within 1 ns of their
/// deadline instead of the default 50 µs slack; on this benchmark's
/// 2-core reference host it cut the median sleep overshoot from 66 µs
/// to 18 µs, which the due-time latencies would otherwise include.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // changes only the calling thread's timer slack; no memory is
    // passed to the kernel.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sends one request on the pooled connection, reconnecting once when
/// the pooled connection went stale. Returns the status with the body
/// left in the connection's buffer, or `None` after a transport error
/// (the connection is then dropped).
fn exchange(
    conn: &mut Option<Conn>,
    load: &Load<'_>,
    target: &str,
    opened: &mut u32,
) -> Option<u16> {
    for _ in 0..2 {
        if conn.is_none() {
            *opened += 1;
            *conn = Conn::open(load.addr, *opened, load.spin);
        }
        let c = conn.as_mut()?;
        let last = c.sent + 1 >= load.per_connection;
        if let Some(status) = c.request(target, last) {
            return Some(status);
        }
        *conn = None;
    }
    None
}

/// One keep-alive client connection with a receive buffer.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Non-blocking socket polled in a busy loop.
    spin: bool,
    id: u32,
    sent: u32,
    buf: Vec<u8>,
    body: (usize, usize),
}

impl Conn {
    fn open(addr: SocketAddr, id: u32, spin: bool) -> Option<Conn> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(READ_TIMEOUT)).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_nonblocking(spin).ok()?;
        Some(Conn {
            stream,
            spin,
            id,
            sent: 0,
            buf: Vec::with_capacity(64 * 1024),
            body: (0, 0),
        })
    }

    /// Sends one request and reads its answer.
    fn request(&mut self, target: &str, last: bool) -> Option<u16> {
        self.send_request(target, last)?;
        self.read_answer()
    }

    /// Sends one request. The connection's `last` request asks the
    /// server to close, so the server never waits on an idle
    /// connection.
    fn send_request(&mut self, target: &str, last: bool) -> Option<()> {
        let connection = if last { "close" } else { "keep-alive" };
        let head = format!("GET {target} HTTP/1.1\r\nConnection: {connection}\r\n\r\n");
        self.send(head.as_bytes())?;
        self.sent += 1;
        Some(())
    }

    /// Reads the next answer, leaving its body in the buffer until
    /// [`consume`](Conn::consume).
    fn read_answer(&mut self) -> Option<u16> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).ok()?;
        let status = head.split(' ').nth(1)?.parse().ok()?;
        let length: usize = head.lines().find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.body = (head_end, head_end + length);
        Some(status)
    }

    fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    fn consume(&mut self) {
        self.buf.drain(..self.body.1);
        self.body = (0, 0);
    }

    fn send(&mut self, mut bytes: &[u8]) -> Option<()> {
        let started = Instant::now();
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return None,
                Ok(n) => bytes = &bytes[n..],
                Err(e) if self.retry(&e, started) => std::hint::spin_loop(),
                Err(_) => return None,
            }
        }
        Some(())
    }

    fn fill(&mut self) -> Option<()> {
        let mut chunk = [0u8; 16 * 1024];
        let started = Instant::now();
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Some(());
                }
                Err(e) if self.retry(&e, started) => std::hint::spin_loop(),
                Err(_) => return None,
            }
        }
    }

    /// Whether a failed socket call should be retried: interrupted, or
    /// not ready on a polled socket within the read timeout.
    fn retry(&self, e: &std::io::Error, started: Instant) -> bool {
        match e.kind() {
            ErrorKind::Interrupted => true,
            ErrorKind::WouldBlock => self.spin && started.elapsed() < READ_TIMEOUT,
            _ => false,
        }
    }
}

/// Polls `GET /healthz` until it answers 200; how a set-up knows the
/// server is answering.
pub fn wait_healthy(addr: SocketAddr, timeout: Duration) -> bool {
    let started = Instant::now();
    while started.elapsed() < timeout {
        if let Some(mut conn) = Conn::open(addr, 0, false) {
            if conn.request("/healthz", true) == Some(200) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}
