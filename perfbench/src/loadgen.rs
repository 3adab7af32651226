//! Load generation over keep-alive, pipelined connections.
//!
//! Open loop: each generator thread owns a few connections and a fixed arrival
//! schedule: request `k` of thread `t` (of `T`) is due at
//! `start + (k·T + t) / rate`. The schedule never waits for a reply.
//! A due request waits in a local backlog only while every connection
//! already has [`MAX_IN_FLIGHT`] requests outstanding; it is sent as
//! soon as one frees up. Every request is timed from when it was *due*,
//! not from when it was sent (the wrk2 correction for coordinated
//! omission), and how late each send ran is recorded as generator lag.
//!
//! Closed loop (a phase with a `window`): each thread keeps `window`
//! requests outstanding and sends the next as soon as one completes, so
//! the server sets the pace; every request is timed from when it was
//! sent. This measures how much the server completes per second.
//!
//! A [`Mix`] decides what each due request is and interprets each
//! response. A response may schedule a follow-up (an analysis poll, the
//! next page of a cursor walk); follow-ups either continue the timing
//! of the request that started them or start their own.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::scrape::Scrape;
use crate::wire::ResponseReader;

/// Pipelining depth per connection.
pub const MAX_IN_FLIGHT: usize = 32;
/// How long a phase may run past its end to collect outstanding replies;
/// whatever is still unanswered then counts as failed.
const DRAIN: Duration = Duration::from_secs(5);

/// The request classes latency is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `GET /v1/hypergraphs/{id}` of a hot or recently written id.
    Read,
    /// `GET /v1/hypergraphs/{id}` of a uniformly drawn id, mostly its
    /// first touch.
    ColdRead,
    /// `GET /v1/hypergraphs?…`.
    List,
    /// `POST /v1/query`.
    Query,
    /// `POST`/`PUT`/`DELETE /v1/hypergraphs`.
    Write,
    /// `POST /v1/analyses` until a poll sees a terminal result.
    Analysis,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 6] = [
        Class::Read,
        Class::ColdRead,
        Class::List,
        Class::Query,
        Class::Write,
        Class::Analysis,
    ];

    /// The class's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::ColdRead => "cold_read",
            Class::List => "list",
            Class::Query => "query",
            Class::Write => "write",
            Class::Analysis => "analysis",
        }
    }
}

/// One request to send.
pub struct Req<T> {
    /// The class the request's latency counts toward.
    pub class: Class,
    /// The full request bytes.
    pub bytes: Vec<u8>,
    /// What the mix needs back with the response.
    pub tag: T,
}

/// How a mix reads one response.
pub struct Reply<T> {
    /// `Some(ok)` when this response completes a timed request; `ok` is
    /// false for a refused or failed answer.
    pub done: Option<bool>,
    /// Names an answer the mix checks, so that a wrong one can be told
    /// apart among the samples afterwards.
    pub ticket: Option<u64>,
    /// A request to send `after` this response arrived. With
    /// `continues` it completes the timing of the request that started
    /// it; otherwise it is timed on its own from when it is due.
    pub follow: Option<(Duration, Req<T>, bool)>,
}

impl<T> Reply<T> {
    /// A response that completes its request.
    pub fn done(ok: bool) -> Reply<T> {
        Reply {
            done: Some(ok),
            ticket: None,
            follow: None,
        }
    }

    /// An answer that completes its request and is checked under `ticket`.
    pub fn answered(ticket: u64) -> Reply<T> {
        Reply {
            done: Some(true),
            ticket: Some(ticket),
            follow: None,
        }
    }
}

/// A traffic mix: what each due request is, and what each answer means.
pub trait Mix: Send {
    /// Per-request context carried to the response.
    type Tag: Send;
    /// The request for the next schedule slot.
    fn next(&mut self) -> Req<Self::Tag>;
    /// Interprets one response (`status` 0: the connection failed).
    fn on_response(&mut self, tag: Self::Tag, status: u16, body: Vec<u8>) -> Reply<Self::Tag>;
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Its class.
    pub class: Class,
    /// From due time to the completing response.
    pub latency: Duration,
    /// When it completed (or failed).
    pub at: Instant,
    /// Answered without refusal or failure.
    pub ok: bool,
    /// The answer's check ticket, if the mix checks it.
    pub ticket: Option<u64>,
}

/// What one generator thread measured in a phase.
#[derive(Debug, Default)]
pub struct ThreadResult {
    /// Timed requests.
    pub samples: Vec<Sample>,
    /// Send time − due time of every scheduled request, in µs.
    pub lag_us: Vec<f64>,
    /// `/metrics` scrapes taken during the phase (gauge sampling).
    pub scrapes: Vec<Scrape>,
}

/// Phase settings shared by every generator thread.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// The server (or router) address.
    pub addr: SocketAddr,
    /// Offered rate over all threads, requests per second (open loop).
    pub rate: f64,
    /// Closed loop instead: requests each thread keeps outstanding.
    pub window: Option<usize>,
    /// When the first request is due.
    pub start: Instant,
    /// No request is due at or after this instant.
    pub end: Instant,
    /// Connections per thread.
    pub conns: usize,
    /// Scrape `/metrics` this often on a side connection (thread 0 only).
    pub scrape_every: Option<Duration>,
}

/// Runs `mixes.len()` generator threads through one phase and returns
/// each mix (for its deferred checks) with what its thread measured.
pub fn run_phase<M: Mix>(phase: Phase, mixes: Vec<M>) -> io::Result<Vec<(M, ThreadResult)>> {
    let threads = mixes.len();
    // Connections open one after another, each thread's as a block: a
    // server that deals accepted connections round-robin over its event
    // loops then gives every thread the same share of every loop.
    let mut conns = Vec::with_capacity(threads);
    for t in 0..threads {
        let mut own: Vec<Conn<M::Tag>> = (0..phase.conns)
            .map(|_| Conn::open(phase.addr))
            .collect::<io::Result<_>>()?;
        if t == 0 && phase.scrape_every.is_some() {
            own.push(Conn::open(phase.addr)?);
        }
        conns.push(own);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(t, (mix, conns))| {
                let scrape = if t == 0 { phase.scrape_every } else { None };
                scope.spawn(move || drive(mix, conns, phase, t, threads, scrape))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

enum Tag<T> {
    Mix(T),
    Scrape,
}

struct InFlight<T> {
    origin: Instant,
    class: Class,
    tag: Tag<T>,
}

struct Conn<T> {
    stream: TcpStream,
    reader: ResponseReader,
    out: Vec<u8>,
    out_pos: usize,
    in_flight: VecDeque<InFlight<T>>,
    /// Send instants of requests whose bytes are still in `out`, with
    /// their due time, for lag accounting once written.
    unsent: VecDeque<(usize, Instant)>,
}

impl<T> Conn<T> {
    fn open(addr: SocketAddr) -> io::Result<Conn<T>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            reader: ResponseReader::new(),
            out: Vec::new(),
            out_pos: 0,
            in_flight: VecDeque::new(),
            unsent: VecDeque::new(),
        })
    }

    /// Writes as much buffered output as the socket takes; records the
    /// lag of each request whose last byte went out.
    fn flush(&mut self, lag_us: &mut Vec<f64>) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        while let Some(&(end, due)) = self.unsent.front() {
            if end > self.out_pos {
                break;
            }
            self.unsent.pop_front();
            lag_us.push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            self.unsent.clear();
        }
        Ok(())
    }
}

struct Pending<T> {
    due: Instant,
    seq: u64,
    origin: Option<Instant>,
    req: Req<T>,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Thin FFI shim over `ppoll(2)`, whose nanosecond timeout lets the
/// generator sleep until the next due instant without `poll`'s
/// millisecond rounding. The symbol resolves against the C library std
/// already links.
mod sys {
    use std::ffi::c_void;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> i32;
    }
}

/// Waits until one of `fds` is ready or `timeout` passes.
fn wait(fds: &mut [sys::PollFd], timeout: Duration) -> io::Result<()> {
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd structs and its length is passed alongside; `ts` outlives
    // the call; a null sigmask means "leave the signal mask alone".
    let rc = unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

const SCRAPE_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n";

fn drive<M: Mix>(
    mut mix: M,
    mut conns: Vec<Conn<M::Tag>>,
    phase: Phase,
    thread: usize,
    threads: usize,
    scrape_every: Option<Duration>,
) -> io::Result<(M, ThreadResult)> {
    // The scrape connection, when present, is the last one.
    let scrape_conn = scrape_every.map(|_| conns.len() - 1);
    let load_conns = phase.conns;
    let mut result = ThreadResult::default();
    let due_at = |k: u64| {
        phase.start
            + Duration::from_secs_f64((k as f64 * threads as f64 + thread as f64) / phase.rate)
    };
    let mut k = 0u64;
    // A closed loop has no schedule: nothing is ever due by the clock.
    let mut next_due = if phase.window.is_some() {
        phase.end
    } else {
        due_at(0)
    };
    let mut next_scrape = phase.start;
    let mut backlog: VecDeque<(Instant, Option<Instant>, Req<M::Tag>)> = VecDeque::new();
    let mut follow: BinaryHeap<Reverse<Pending<M::Tag>>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Where the search for a connection starts, so that requests rotate
    // over connections that are equally busy.
    let mut rotate = 0usize;
    let mut fds: Vec<sys::PollFd> = Vec::with_capacity(conns.len());
    let mut scratch = vec![0u8; 64 * 1024];
    let deadline = phase.end + DRAIN;

    loop {
        let now = Instant::now();
        while next_due <= now && next_due < phase.end {
            backlog.push_back((next_due, None, mix.next()));
            k += 1;
            next_due = due_at(k);
        }
        if let Some(window) = phase.window {
            let mut outstanding = backlog.len()
                + follow.len()
                + conns
                    .iter()
                    .take(load_conns)
                    .map(|c| c.in_flight.len())
                    .sum::<usize>();
            while now < phase.end && outstanding < window {
                backlog.push_back((now, None, mix.next()));
                outstanding += 1;
            }
        }
        while follow.peek().is_some_and(|p| p.0.due <= now) {
            let Reverse(p) = follow.pop().expect("peeked");
            backlog.push_back((p.due, p.origin, p.req));
        }
        // Send the backlog in due order while any connection has room.
        while let Some((due, origin, _)) = backlog.front() {
            let (due, origin) = (*due, *origin);
            let Some(c) = (0..load_conns)
                .map(|j| (rotate + j) % load_conns)
                .filter(|&i| conns[i].in_flight.len() < MAX_IN_FLIGHT)
                .min_by_key(|&i| conns[i].in_flight.len())
            else {
                break;
            };
            rotate = c + 1;
            let (_, _, req) = backlog.pop_front().expect("front exists");
            let conn = &mut conns[c];
            conn.out.extend_from_slice(&req.bytes);
            conn.unsent.push_back((conn.out.len(), due));
            conn.in_flight.push_back(InFlight {
                origin: origin.unwrap_or(due),
                class: req.class,
                tag: Tag::Mix(req.tag),
            });
            if conn.flush(&mut result.lag_us).is_err() {
                fail_conn(&mut conns[c], &mut mix, &mut result, phase.addr)?;
            }
        }
        if let (Some(every), Some(s)) = (scrape_every, scrape_conn) {
            if now >= next_scrape && now < phase.end && conns[s].in_flight.is_empty() {
                next_scrape = now + every;
                let conn = &mut conns[s];
                conn.out.extend_from_slice(SCRAPE_REQUEST);
                conn.in_flight.push_back(InFlight {
                    origin: now,
                    class: Class::Read,
                    tag: Tag::Scrape,
                });
                let mut ignored = Vec::new();
                conn.flush(&mut ignored)?;
            }
        }

        let outstanding = backlog.len()
            + follow.len()
            + conns
                .iter()
                .take(load_conns)
                .map(|c| c.in_flight.len())
                .sum::<usize>();
        if now >= phase.end && outstanding == 0 {
            break;
        }
        if now >= deadline {
            break;
        }

        let mut wake = if next_due < phase.end {
            next_due
        } else {
            now + Duration::from_millis(5)
        };
        if let Some(p) = follow.peek() {
            wake = wake.min(p.0.due);
        }
        if scrape_every.is_some() && now < phase.end {
            wake = wake.min(next_scrape.max(now));
        }
        fds.clear();
        for conn in &conns {
            let mut events = sys::POLLIN;
            if conn.out_pos < conn.out.len() {
                events |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        if !backlog.is_empty() {
            // Every connection is full: nothing goes out until a reply
            // frees a slot, which wakes the poll.
            wake = wake.max(now + Duration::from_millis(5));
        }
        wait(&mut fds, wake.saturating_duration_since(Instant::now()))?;

        for i in 0..conns.len() {
            let revents = fds[i].revents;
            if revents == 0 {
                continue;
            }
            if revents & sys::POLLOUT != 0 && conns[i].flush(&mut result.lag_us).is_err() {
                fail_conn(&mut conns[i], &mut mix, &mut result, phase.addr)?;
                continue;
            }
            if revents & !sys::POLLOUT == 0 {
                continue;
            }
            let mut closed = false;
            loop {
                match conns[i].stream.read(&mut scratch) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => conns[i].reader.feed(&scratch[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            let at = Instant::now();
            loop {
                let response = match conns[i].reader.next_response() {
                    Ok(Some(r)) => r,
                    Ok(None) => break,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                };
                let Some(flight) = conns[i].in_flight.pop_front() else {
                    closed = true;
                    break;
                };
                match flight.tag {
                    Tag::Scrape => {
                        if let Ok(text) = std::str::from_utf8(&response.body) {
                            result.scrapes.push(Scrape::parse(text));
                        }
                    }
                    Tag::Mix(tag) => {
                        let reply = mix.on_response(tag, response.status, response.body);
                        absorb(
                            reply,
                            flight.origin,
                            flight.class,
                            at,
                            &mut result,
                            &mut follow,
                            &mut seq,
                        );
                    }
                }
            }
            if closed {
                fail_conn(&mut conns[i], &mut mix, &mut result, phase.addr)?;
            }
        }
    }
    // Whatever is still outstanding at the drain deadline failed.
    let end = Instant::now();
    for (due, origin, req) in backlog.drain(..) {
        let _ = mix.on_response(req.tag, 0, Vec::new());
        let origin = origin.unwrap_or(due);
        result.samples.push(Sample {
            class: req.class,
            latency: end.saturating_duration_since(origin),
            at: end,
            ok: false,
            ticket: None,
        });
    }
    for Reverse(p) in follow.drain() {
        let _ = mix.on_response(p.req.tag, 0, Vec::new());
        result.samples.push(Sample {
            class: p.req.class,
            latency: end.saturating_duration_since(p.origin.unwrap_or(p.due)),
            at: end,
            ok: false,
            ticket: None,
        });
    }
    for conn in conns.iter_mut().take(load_conns) {
        for flight in conn.in_flight.drain(..) {
            if let Tag::Mix(tag) = flight.tag {
                let _ = mix.on_response(tag, 0, Vec::new());
                result.samples.push(Sample {
                    class: flight.class,
                    latency: end.saturating_duration_since(flight.origin),
                    at: end,
                    ok: false,
                    ticket: None,
                });
            }
        }
    }
    Ok((mix, result))
}

fn absorb<T>(
    reply: Reply<T>,
    origin: Instant,
    class: Class,
    at: Instant,
    result: &mut ThreadResult,
    follow: &mut BinaryHeap<Reverse<Pending<T>>>,
    seq: &mut u64,
) {
    if let Some(ok) = reply.done {
        result.samples.push(Sample {
            class,
            latency: at.saturating_duration_since(origin),
            at,
            ok,
            ticket: reply.ticket,
        });
    }
    if let Some((after, req, continues)) = reply.follow {
        *seq += 1;
        follow.push(Reverse(Pending {
            due: at + after,
            seq: *seq,
            origin: continues.then_some(origin),
            req,
        }));
    }
}

/// Fails every request outstanding on a broken connection and reopens it.
fn fail_conn<M: Mix>(
    conn: &mut Conn<M::Tag>,
    mix: &mut M,
    result: &mut ThreadResult,
    addr: SocketAddr,
) -> io::Result<()> {
    let at = Instant::now();
    for flight in conn.in_flight.drain(..) {
        if let Tag::Mix(tag) = flight.tag {
            let _ = mix.on_response(tag, 0, Vec::new());
            result.samples.push(Sample {
                class: flight.class,
                latency: at.saturating_duration_since(flight.origin),
                at,
                ok: false,
                ticket: None,
            });
        }
    }
    *conn = Conn::open(addr)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::net::TcpListener;

    /// Always asks for the same tiny resource.
    struct Ping;

    impl Mix for Ping {
        type Tag = ();
        fn next(&mut self) -> Req<()> {
            Req {
                class: Class::Read,
                bytes: b"GET /ping HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
                tag: (),
            }
        }
        fn on_response(&mut self, _: (), status: u16, _: Vec<u8>) -> Reply<()> {
            Reply::done(status == 200)
        }
    }

    /// A stub server answering every request at once, except that it
    /// stops reading for `stall` once, after its `stall_after`-th request.
    fn stub(stall_after: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let served = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let served = std::sync::Arc::clone(&served);
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        let n = match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => n,
                        };
                        buf.extend_from_slice(&chunk[..n]);
                        while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            buf.drain(..end + 4);
                            let n = served.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            if n == stall_after {
                                std::thread::sleep(stall);
                            }
                            let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                            if stream.write_all(reply).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
        });
        addr
    }

    fn measure(addr: SocketAddr) -> (f64, f64) {
        let start = Instant::now() + Duration::from_millis(20);
        let phase = Phase {
            addr,
            rate: 2000.0,
            window: None,
            start,
            end: start + Duration::from_millis(1500),
            conns: 1,
            scrape_every: None,
        };
        let out = run_phase(phase, vec![Ping]).unwrap();
        let (_, result) = &out[0];
        assert!(result.samples.iter().all(|s| s.ok));
        let lat: Vec<f64> = result
            .samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e6)
            .collect();
        (percentile(&lat, 0.99), percentile(&result.lag_us, 0.99))
    }

    #[test]
    fn a_server_stall_shows_in_p99_and_in_generator_lag() {
        let stall = Duration::from_millis(300);
        let (p99, lag_p99) = measure(stub(1000, stall));
        // 300 ms at 2000/s is 600 late requests, 20% of the run: the p99
        // lands inside the stall, and since one connection holds at
        // most MAX_IN_FLIGHT outstanding requests, the rest wait in the
        // generator's backlog and go out late.
        assert!(p99 > 100_000.0, "p99 {p99} µs does not show the stall");
        assert!(
            lag_p99 > 50_000.0,
            "lag p99 {lag_p99} µs does not show the stall"
        );
        let (calm_p99, calm_lag) = measure(stub(usize::MAX, stall));
        assert!(calm_p99 < 50_000.0, "control p99 {calm_p99} µs");
        assert!(calm_lag < 50_000.0, "control lag p99 {calm_lag} µs");
    }

    #[test]
    fn a_closed_loop_waits_for_the_server_and_times_from_the_send() {
        let stall = Duration::from_millis(300);
        let start = Instant::now() + Duration::from_millis(20);
        let phase = Phase {
            addr: stub(100, stall),
            rate: 0.0,
            window: Some(2),
            start,
            end: start + Duration::from_millis(1000),
            conns: 1,
            scrape_every: None,
        };
        let out = run_phase(phase, vec![Ping]).unwrap();
        let samples = &out[0].1.samples;
        assert!(samples.iter().all(|s| s.ok));
        // Nothing new goes out while the server stalls, so only the two
        // outstanding requests wait; a closed loop cannot see the wait
        // of requests it never sent, which is why latency is measured
        // open-loop and the closed loop only counts completions.
        let slow = samples
            .iter()
            .filter(|s| s.latency >= Duration::from_millis(250))
            .count();
        assert!((1..=2).contains(&slow), "{slow} requests saw the stall");
        let stalled = samples
            .iter()
            .filter(|s| {
                let since = s.at.saturating_duration_since(start);
                since > Duration::from_millis(150) && since < Duration::from_millis(250)
            })
            .count();
        assert_eq!(stalled, 0, "requests completed mid-stall");
        assert!(samples.len() > 100, "only {} completions", samples.len());
    }
}
