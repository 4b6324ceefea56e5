//! Load generator: one connection per request (the server answers one
//! request per connection), an open loop on a schedule fixed in advance
//! from the seed, and a closed loop for saturation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// SplitMix64: the benchmark's own seeded generator, so schedules do not
/// depend on any library's stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One prepared request: its full wire bytes, built once before the load.
#[derive(Debug, Clone)]
pub struct Request {
    wire: Vec<u8>,
}

impl Request {
    pub fn post(target: &str, body: &[u8]) -> Self {
        let mut wire = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        Self { wire }
    }

    pub fn get(target: &str) -> Self {
        Self { wire: format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes() }
    }
}

/// An open-loop schedule: one queue of `(due, request)` pairs in due
/// order, drained by `senders` threads, the next request going to
/// whichever is free.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenPlan {
    pub queue: Vec<(Duration, usize)>,
    pub senders: usize,
}
/// Per sender, the requests it sends back to back.
pub type ClosedPlan = Vec<Vec<usize>>;

/// Checks an answer as it arrives: `(request, status, body) -> right?`.
pub type Check<'a> = &'a (dyn Fn(usize, u16, &[u8]) -> bool + Sync);

/// What one request got back, and when.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// HTTP status; 0 when the connection or exchange failed.
    pub status: u16,
    /// Whether the answer was right.
    pub ok: bool,
    /// Time sent minus time due (0 in a closed loop).
    pub late_ms: f64,
    /// Client `connect` time.
    pub connect_ms: f64,
    /// Completion minus time due (in a closed loop: minus time sent).
    pub latency_ms: f64,
}

/// A response's status and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub connect_ms: f64,
}

/// Sends `req` on a fresh connection and reads the response to EOF.
pub fn exchange(
    addr: SocketAddr,
    req: &Request,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    request_id: u64,
) -> Reply {
    let failed = |connect_ms| Reply { status: 0, body: Vec::new(), connect_ms };
    let t0 = Instant::now();
    let connect_span = tracer.map(|t| t.span("loadgen.connect", parent, Some(request_id)));
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return failed(t0.elapsed().as_secs_f64() * 1e3);
    };
    drop(connect_span);
    let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _xfer = tracer.map(|t| t.span("loadgen.exchange", parent, Some(request_id)));
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(Duration::from_secs(20))).is_err()
        || stream.write_all(&req.wire).is_err()
    {
        return failed(connect_ms);
    }
    let mut raw = Vec::new();
    if stream.read_to_end(&mut raw).is_err() {
        return failed(connect_ms);
    }
    match parse_response(&raw) {
        Some((status, body)) => Reply { status, body: body.to_vec(), connect_ms },
        None => failed(connect_ms),
    }
}

/// Splits a raw HTTP/1.1 response into status and body.
pub fn parse_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, &raw[head_end + 4..]))
}

/// Arrival offsets of a Poisson process at `rate_per_s` over
/// `duration_s`, fixed by `seed`.
pub fn poisson_arrivals(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

impl Outcome {
    fn new(req: usize, reply: Reply, check: Check<'_>) -> Self {
        let ok = check(req, reply.status, &reply.body);
        let connect_ms = reply.connect_ms;
        Self { status: reply.status, ok, late_ms: 0.0, connect_ms, latency_ms: 0.0 }
    }
}

/// Lead time before the first arrival, so every sender is running when
/// the schedule starts.
const LEAD: Duration = Duration::from_millis(20);

/// Sleeps until shortly before `at`, then spins (yielding the CPU to any
/// runnable thread) until `at`. A plain sleep wakes up to a millisecond
/// late on a virtual machine whose CPU has halted; the spin keeps the
/// sender on time, which is what an open loop's latency is measured from.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if at > now + SPIN {
        std::thread::sleep(at - now - SPIN);
    }
    while Instant::now() < at {
        std::thread::yield_now();
    }
}

/// Runs an open loop over `plan`: each sender takes the next request of
/// the queue, waits until it is due, and times it from then.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    plan: &OpenPlan,
    check: Check<'_>,
    tracer: Option<&Tracer>,
) -> Vec<Outcome> {
    let start = Instant::now() + LEAD;
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.senders)
            .map(|_| {
                let (list, cursor) = (&plan.queue, &cursor);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let Some(&(due, req)) = list.get(cursor.fetch_add(1, Ordering::Relaxed))
                        else {
                            return out;
                        };
                        let due_at = start + due;
                        wait_until(due_at);
                        let sent = Instant::now();
                        let id = req as u64;
                        let span = tracer.map(|t| t.span("loadgen.request", None, Some(id)));
                        let reply = exchange(
                            addr,
                            &requests[req],
                            tracer,
                            span.as_ref().map(|s| s.id()),
                            id,
                        );
                        drop(span);
                        let done = Instant::now();
                        let ms =
                            |t: Instant| t.saturating_duration_since(due_at).as_secs_f64() * 1e3;
                        out.push(Outcome {
                            late_ms: ms(sent),
                            latency_ms: ms(done),
                            ..Outcome::new(req, reply, check)
                        });
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("open-loop sender panicked")).collect()
    })
}

/// What a closed loop produced.
pub struct ClosedRun {
    /// Wrong answers.
    pub wrong: Vec<Outcome>,
    /// Right answers; only counted, so a long phase does not grow the
    /// benchmark's memory.
    pub ok: usize,
    /// From start to the last completion.
    pub wall_s: f64,
    /// CPU time the senders used.
    pub cpu_s: f64,
}

/// Runs a closed loop: sender `i` sends `plan[i]` back to back, one
/// request in flight per sender, until `duration` has passed or its list
/// ends.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    plan: &[Vec<usize>],
    duration: Duration,
    check: Check<'_>,
    tracer: Option<&Tracer>,
) -> ClosedRun {
    let start = Instant::now();
    let deadline = start + duration;
    let per_sender: Vec<(Vec<Outcome>, usize, Instant, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|list| {
                s.spawn(move || {
                    let cpu0 = crate::common::cpu_secs(true);
                    let (mut out, mut ok) = (Vec::new(), 0);
                    let mut last = Instant::now();
                    for &req in list {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let sent = Instant::now();
                        let id = req as u64;
                        let span = tracer.map(|t| t.span("loadgen.request", None, Some(id)));
                        let reply = exchange(
                            addr,
                            &requests[req],
                            tracer,
                            span.as_ref().map(|s| s.id()),
                            id,
                        );
                        drop(span);
                        last = Instant::now();
                        let o = Outcome {
                            latency_ms: last.duration_since(sent).as_secs_f64() * 1e3,
                            ..Outcome::new(req, reply, check)
                        };
                        if o.ok {
                            ok += 1;
                        } else {
                            out.push(o);
                        }
                    }
                    (out, ok, last, crate::common::cpu_secs(true) - cpu0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop sender panicked")).collect()
    });
    let end = per_sender.iter().map(|(_, _, t, _)| *t).max().unwrap_or(start);
    ClosedRun {
        wall_s: end.duration_since(start).as_secs_f64(),
        cpu_s: per_sender.iter().map(|(_, _, _, c)| c).sum(),
        ok: per_sender.iter().map(|(_, k, _, _)| k).sum(),
        wrong: per_sender.into_iter().flat_map(|(o, _, _, _)| o).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_the_seed() {
        let a = poisson_arrivals(7, 1000.0, 2.0);
        let b = poisson_arrivals(7, 1000.0, 2.0);
        let c = poisson_arrivals(8, 1000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are in due order");
        assert!(a.iter().all(|d| d.as_secs_f64() < 2.0));
        // 2000 expected arrivals; a Poisson count has sd ≈ 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            let x = a.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(a.below(7) < 7);
            b.next_f64();
            b.below(7);
        }
        let (mut x, mut y): (Vec<u32>, Vec<u32>) = ((0..50).collect(), (0..50).collect());
        a.shuffle(&mut x);
        b.shuffle(&mut y);
        assert_eq!(x, y);
        assert_ne!(x, (0..50).collect::<Vec<_>>());
        x.sort_unstable();
        assert_eq!(x, (0..50).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 422 Unprocessable Entity\r\nContent-Length: 3\r\n\r\nbad";
        assert_eq!(parse_response(raw), Some((422, &b"bad"[..])));
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
