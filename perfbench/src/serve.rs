//! `serve` and `serve_tcp`: classification traffic against `pe_serve`.
//!
//! Both draw a seeded uniform mix over the 20 Table-I model keys from the
//! models' held-out test samples; every reply must equal
//! `ModelEntry::predict_int` on the quantized input. An error reply, or a
//! reply still missing when the run's drain deadline passes, counts as a
//! failed request; nothing waits unboundedly.
//!
//! * `serve`: an in-process `Service` with the default `ServiceConfig`, fed
//!   by one closed-loop generator thread that keeps [`WINDOW`] tickets
//!   outstanding. It measures saturation throughput, bypassing sockets.
//! * `serve_tcp`: the same mix through `Server` on loopback, from one thread
//!   holding two non-blocking `TCP_NODELAY` connections. Arrivals are
//!   open-loop Poisson at [`TCP_RATE`] requests per second; each request
//!   line goes out in a single write, and latency runs from the request's
//!   due time to its reply. After the measured window, a deep-pipeline
//!   check writes [`BURST`] lines at once on a connection of its own; every one
//!   must be answered.

use crate::{stats, Outcome};
use pe_serve::protocol::{format_classify, parse_request, Request as WireRequest};
use pe_serve::registry::admit_netlist;
use pe_serve::{ModelKey, ModelRegistry, Server, Service, ServiceConfig, Ticket};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct requests in the seeded pool; the generators cycle through it.
const POOL: usize = 16_384;

/// Tickets the closed-loop generator keeps outstanding.
const WINDOW: usize = 1024;

/// Offered load of the open-loop runs, requests per second: below the knee
/// where queueing sets in. Every batch costs a full slab sweep however few
/// requests it carries, so the median grows with the rate (on a 2-core host,
/// over 8 s: 5.9 ms at 1k req/s, 7.1 ms at 2.5k, 10.5 ms at 5k), and
/// queueing magnifies every change in host speed.
const TCP_RATE: f64 = 2_000.0;

/// Unmeasured traffic before every measured window. Latency is still
/// settling one second after the first request; three are enough.
const WARMUP: Duration = Duration::from_secs(3);

/// How long replies may trail the end of sending before they count as lost.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Longest idle pause of the generator loops. Each wake-up takes a core from
/// the service's two workers on a 2-core host, so the loops wake rarely; a
/// reply waits at most this long (plus timer slack) to be read.
const POLL: Duration = Duration::from_micros(100);

/// Request lines the deep-pipeline check writes at once on one connection:
/// more than twice the front end's per-connection pipeline cap of 256.
const BURST: usize = 600;

/// One pooled request.
struct Request {
    key: ModelKey,
    /// The key's index in `ModelKey::table1_grid()`.
    model: usize,
    x: Vec<f64>,
    expected: usize,
    /// The wire form, newline included.
    line: Vec<u8>,
}

/// The seeded request mix: uniform over model keys, then uniform over the
/// key's held-out test samples.
fn request_pool(registry: &ModelRegistry, seed: u64) -> Vec<Request> {
    let entries: Vec<_> = ModelKey::table1_grid().into_iter().map(|k| registry.get(k)).collect();
    let mut rng = stats::Rng::new(seed, 0x5e7e);
    (0..POOL)
        .map(|_| {
            let model = rng.below(entries.len());
            let e = &entries[model];
            let test = &e.prepared.test;
            let x = test.sample(rng.below(test.len())).0.to_vec();
            let expected = e.predict_int(&e.quantize_input(&x));
            let mut line = format_classify(e.key, &x).into_bytes();
            line.push(b'\n');
            Request { key: e.key, model, x, expected, line }
        })
        .collect()
}

/// Poisson arrival times at a fixed mean rate.
struct Arrivals {
    rng: stats::Rng,
    next: Instant,
    mean_gap_s: f64,
}

impl Arrivals {
    fn new(seed: u64, stream: u64, start: Instant, rate: f64) -> Self {
        Arrivals { rng: stats::Rng::new(seed, stream), next: start, mean_gap_s: 1.0 / rate }
    }

    /// The due time of the next request; advances the schedule.
    fn pop(&mut self) -> Instant {
        let due = self.next;
        self.next += Duration::from_secs_f64(-self.rng.unit().ln() * self.mean_gap_s);
        due
    }
}

/// Counts and samples of one generator phase.
#[derive(Debug, Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Correct replies to requests inside the measured window.
    measured_ok: u64,
    /// Latencies of measured requests, seconds.
    latencies_s: Vec<f64>,
    /// How late each measured request left the generator, seconds.
    late_s: Vec<f64>,
    /// `Service::submit` call times, seconds (traced closed loop only).
    submit_s: Vec<f64>,
    errors: Vec<String>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.fail_many(1, why);
    }

    fn fail_many(&mut self, n: usize, why: String) {
        self.failed += n as u64;
        if n > 0 && self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Accounts one reply to a request that was due at `due`.
    fn reply(
        &mut self,
        got: Result<usize, String>,
        expected: usize,
        measured: bool,
        due: Instant,
        now: Instant,
    ) {
        match got {
            Ok(class) if class == expected => {
                if measured {
                    self.measured_ok += 1;
                    self.latencies_s.push(now.saturating_duration_since(due).as_secs_f64());
                }
            }
            Ok(class) => self.fail(format!("class {class}, expected {expected}")),
            Err(e) => self.fail(e),
        }
    }

    /// Adds this phase's counts, failures and latency samples to `out`.
    fn merge_into(self, out: &mut Outcome) {
        if out.latencies_s.is_empty() {
            out.latencies_s = self.latencies_s; // moved, not copied
        } else {
            out.latencies_s.extend(self.latencies_s);
        }
        out.attempted += self.attempted;
        out.failed += self.failed;
        for e in self.errors {
            out.note(format!("failed request: {e}"));
        }
    }
}

/// Sums of the per-model batch counters.
#[derive(Debug, Clone, Copy, Default)]
struct BatchTotals {
    batches: u64,
    lanes: u64,
    sweep_capacity: u64,
}

fn batch_totals(svc: &Service) -> BatchTotals {
    let snaps = svc.metrics_store().model_snapshots(svc.config().batch_max);
    snaps.iter().fold(BatchTotals::default(), |t, (_, s)| BatchTotals {
        batches: t.batches + s.batches,
        lanes: t.lanes + s.batch_lanes,
        sweep_capacity: t.sweep_capacity + s.sweep_capacity,
    })
}

/// One in-flight in-process request.
struct Flight {
    ticket: Ticket,
    due: Instant,
    expected: usize,
    measured: bool,
}

/// Drives the service in-process until `end`, either closed-loop (keep
/// [`WINDOW`] tickets outstanding) or open-loop (submit at `arrivals`).
/// Requests due at or after `measure_from` are measured.
fn inproc_phase(
    svc: &Service,
    pool: &[Request],
    cursor: &mut usize,
    mut arrivals: Option<Arrivals>,
    measure_from: Instant,
    end: Instant,
    time_submit: bool,
) -> Phase {
    let mut phase = Phase::default();
    // One queue per model, polled at its head: the service batches a
    // model's requests in submission order, so the heads find the replies
    // without scanning the whole window, which would take CPU from the
    // service's workers. A batch that the other worker steals can finish
    // before its predecessor; its replies are then read with the
    // predecessor's, a little late.
    let mut flights: Vec<VecDeque<Flight>> =
        ModelKey::table1_grid().iter().map(|_| VecDeque::new()).collect();
    let mut outstanding = 0;
    loop {
        let now = Instant::now();
        if now < end {
            loop {
                let due = match &mut arrivals {
                    None if outstanding < WINDOW => Instant::now(),
                    Some(a) if a.next <= now && a.next < end => a.pop(),
                    _ => break,
                };
                let req = &pool[*cursor % pool.len()];
                *cursor += 1;
                phase.attempted += 1;
                let measured = due >= measure_from;
                let t0 = Instant::now();
                let submitted = svc.submit(req.key, &req.x);
                if time_submit && measured {
                    phase.submit_s.push(t0.elapsed().as_secs_f64());
                }
                match submitted {
                    Ok(ticket) => {
                        flights[req.model].push_back(Flight {
                            ticket,
                            due,
                            expected: req.expected,
                            measured,
                        });
                        outstanding += 1;
                    }
                    Err(e) => phase.fail(format!("submit: {e}")),
                }
            }
        } else if outstanding == 0 || now > end + DRAIN_GRACE {
            break;
        }
        let done = Instant::now();
        let mut progressed = false;
        for queue in &mut flights {
            while let Some(reply) = queue.front().and_then(|f| f.ticket.try_wait()) {
                let f = queue.pop_front().expect("the head just answered");
                outstanding -= 1;
                let measured = f.measured && (arrivals.is_some() || done <= end);
                phase.reply(reply.map_err(|e| e.to_string()), f.expected, measured, f.due, done);
                progressed = true;
            }
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
    let missing = outstanding;
    phase
        .fail_many(missing, format!("{missing} requests unanswered {DRAIN_GRACE:?} after the end"));
    phase
}

/// `serve`: closed-loop saturation of the in-process service.
pub fn run_inproc(
    registry: &Arc<ModelRegistry>,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> Outcome {
    let mut out = Outcome { latency_of: "one request, submit to reply", ..Outcome::default() };
    let pool = request_pool(registry, seed);
    let svc = Service::start(Arc::clone(registry), ServiceConfig::default());
    let mut cursor = 0;
    let t = Instant::now();
    inproc_phase(&svc, &pool, &mut cursor, None, t + WARMUP, t + WARMUP, false)
        .merge_into(&mut out);
    let before = batch_totals(&svc);
    let start = Instant::now();
    let mut phase = inproc_phase(&svc, &pool, &mut cursor, None, start, start + seconds, trace);
    let after = batch_totals(&svc);
    svc.shutdown();
    out.ops_per_s = phase.measured_ok as f64 / seconds.as_secs_f64();
    out.note(format!(
        "serve_rps {:.1} (closed loop, window {WINDOW}, {} requests answered in {:.1} s)",
        out.ops_per_s,
        phase.measured_ok,
        seconds.as_secs_f64()
    ));
    let submit_s = std::mem::take(&mut phase.submit_s);
    phase.merge_into(&mut out);
    if trace {
        let batches = after.batches - before.batches;
        let lanes = after.lanes - before.lanes;
        let batch_max = svc.config().batch_max;
        out.layer("pe-serve.submit_us", stats::median(&submit_s) * 1e6);
        out.layer("pe-serve.batches", batches as f64);
        out.layer("pe-serve.batch_fill", lanes as f64 / (batches * batch_max as u64).max(1) as f64);
        out.layer(
            "pe-serve.lane_fill",
            lanes as f64 / (after.sweep_capacity - before.sweep_capacity).max(1) as f64,
        );
        let fill = ((lanes as f64 / batches.max(1) as f64).round() as usize).clamp(1, batch_max);
        warm_batch_replay(registry, &pool, fill, &mut out);
        lint_replay(registry, &mut out);
    }
    out
}

/// Replays `WarmSimulator::run_batch` on batches of the observed fill, per
/// model, and reports the mean over models of each model's median call.
fn warm_batch_replay(registry: &ModelRegistry, pool: &[Request], fill: usize, out: &mut Outcome) {
    const REPS: usize = 25;
    let mut per_model = Vec::new();
    for key in ModelKey::table1_grid() {
        let entry = registry.get(key);
        let mine: Vec<&Request> = pool.iter().filter(|r| r.key == key).take(fill).collect();
        let vectors: Vec<Vec<i64>> = mine.iter().map(|r| entry.quantize_input(&r.x)).collect();
        let mut warm = entry.simulator().warm();
        let mut calls = Vec::with_capacity(REPS);
        for rep in 0..=REPS {
            let t0 = Instant::now();
            let result = warm.run_batch(&entry.netlist, &vectors, entry.cycles_per_vector, "class");
            if rep > 0 {
                calls.push(t0.elapsed().as_secs_f64());
            }
            out.attempted += 1;
            let wrong = result.outputs.iter().zip(&mine).any(|(&g, r)| g as usize != r.expected);
            if wrong || result.outputs.len() != mine.len() {
                out.failed += 1;
                out.note(format!("warm batch on {} disagrees with predict_int", key.token()));
            }
        }
        per_model.push(stats::median(&calls));
    }
    let mean = per_model.iter().sum::<f64>() / per_model.len() as f64;
    out.layer("pe-sim.warm_batch_us", mean * 1e6);
    out.note(format!("warm batch replay: {fill} vectors per batch, mean {:.1} us", mean * 1e6));
}

/// Replays admission linting over the 20 admitted netlists.
fn lint_replay(registry: &ModelRegistry, out: &mut Outcome) {
    let mut total = 0.0;
    for key in ModelKey::table1_grid() {
        let entry = registry.get(key);
        let t0 = Instant::now();
        let admitted = admit_netlist(&entry.netlist);
        total += t0.elapsed().as_secs_f64();
        out.attempted += 1;
        if admitted.is_err() {
            out.failed += 1;
            out.note(format!("{} no longer passes admission lint", key.token()));
        }
    }
    out.layer("pe-lint.lint_s", total);
}

/// One client connection of the open-loop TCP generator.
struct Conn {
    stream: TcpStream,
    /// Bytes the socket has not taken yet.
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    inflight: VecDeque<(Instant, usize, bool)>,
    closed: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            inflight: VecDeque::new(),
            closed: false,
        })
    }

    /// Sends one request line with a single write when nothing is queued
    /// ahead of it; whatever the socket does not take waits in `wbuf`.
    fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        if self.wbuf.is_empty() {
            match self.stream.write(line) {
                Ok(n) => self.wbuf.extend_from_slice(&line[n..]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    self.wbuf.extend_from_slice(line);
                }
                Err(e) => return Err(e),
            }
            Ok(())
        } else {
            self.wbuf.extend_from_slice(line);
            self.flush().map(|_| ())
        }
    }

    fn flush(&mut self) -> std::io::Result<bool> {
        let mut progressed = false;
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(n) => {
                    self.wbuf.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(progressed)
    }

    /// Reads what has arrived and accounts every complete reply line.
    fn receive(&mut self, now: Instant, phase: &mut Phase) -> std::io::Result<bool> {
        let mut buf = [0u8; 16 * 1024];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut start = 0;
        while let Some(len) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.rbuf[start..start + len]).into_owned();
            start += len + 1;
            let Some((due, expected, measured)) = self.inflight.pop_front() else {
                phase.fail(format!("unsolicited reply {line:?}"));
                continue;
            };
            let got = match line.strip_prefix("ok ").map(str::parse::<usize>) {
                Some(Ok(class)) => Ok(class),
                _ => Err(format!("reply {line:?}")),
            };
            phase.reply(got, expected, measured, due, now);
        }
        self.rbuf.drain(..start);
        Ok(progressed)
    }
}

/// Sends on the `arrivals` schedule over `conns` until `end`, then waits for
/// the outstanding replies; requests due at or after `measure_from` are
/// measured.
fn tcp_phase(
    conns: &mut [Conn],
    pool: &[Request],
    cursor: &mut usize,
    mut arrivals: Arrivals,
    measure_from: Instant,
    end: Instant,
) -> Phase {
    let mut phase = Phase::default();
    let mut io_error = None;
    'run: loop {
        let now = Instant::now();
        let mut progressed = false;
        while arrivals.next <= now && arrivals.next < end {
            let due = arrivals.pop();
            let req = &pool[*cursor % pool.len()];
            let conn = &mut conns[*cursor % conns.len()];
            *cursor += 1;
            phase.attempted += 1;
            let measured = due >= measure_from;
            if measured {
                phase.late_s.push(now.saturating_duration_since(due).as_secs_f64());
            }
            if let Err(e) = conn.send(&req.line) {
                io_error = Some(format!("send: {e}"));
                break 'run;
            }
            conn.inflight.push_back((due, req.expected, measured));
            progressed = true;
        }
        let now = Instant::now();
        for conn in conns.iter_mut() {
            let step = conn.flush().and_then(|sent| Ok((sent, conn.receive(now, &mut phase)?)));
            match step {
                Ok((sent, received)) => progressed |= sent | received,
                Err(e) => {
                    io_error = Some(format!("socket: {e}"));
                    break 'run;
                }
            }
            if conn.closed {
                io_error = Some("server closed the connection".to_owned());
                break 'run;
            }
        }
        let idle = conns.iter().all(|c| c.inflight.is_empty());
        if arrivals.next >= end && (idle || now > end + DRAIN_GRACE) {
            break;
        }
        if !progressed {
            let until_due = arrivals.next.saturating_duration_since(Instant::now());
            std::thread::sleep(until_due.min(POLL));
        }
    }
    if let Some(e) = io_error {
        phase.fail(e);
    }
    for (c, conn) in conns.iter_mut().enumerate() {
        let missing = conn.inflight.len();
        conn.inflight.clear();
        phase.fail_many(
            missing,
            format!(
                "{missing} requests on connection {c} unanswered {DRAIN_GRACE:?} after the end"
            ),
        );
    }
    phase
}

/// A counter from the `metrics` exposition.
fn exposition_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `serve_tcp`: open-loop traffic through the TCP front end.
pub fn run_tcp(
    registry: &Arc<ModelRegistry>,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> Outcome {
    let mut out = Outcome { latency_of: "one request, due time to reply", ..Outcome::default() };
    let pool = request_pool(registry, seed);
    let svc = Service::start(Arc::clone(registry), ServiceConfig::default());
    let mut cursor = 0;
    // The traced run first measures the same offered load in-process, so
    // the front end's share of the median shows as a difference.
    let window = if trace { seconds / 2 } else { seconds };
    let mut inproc_p50 = None;
    if trace {
        let start = Instant::now();
        let arrivals = Arrivals::new(seed, 0xa11, start, TCP_RATE);
        let (from, end) = (start + WARMUP, start + WARMUP + window);
        let mut phase = inproc_phase(&svc, &pool, &mut cursor, Some(arrivals), from, end, false);
        let lat = std::mem::take(&mut phase.latencies_s);
        if !lat.is_empty() {
            let p50 = stats::median(&lat);
            inproc_p50 = Some(p50);
            out.note(format!(
                "in-process open loop at {TCP_RATE} req/s: p50 {:.4} ms over {} requests",
                p50 * 1e3,
                lat.len()
            ));
        }
        phase.merge_into(&mut out);
    }

    let server = match Server::bind("127.0.0.1:0", Arc::clone(&svc)) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.note(format!("bind failed: {e}"));
            svc.shutdown();
            return out;
        }
    };
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.run());
    let mut conns = Vec::new();
    for _ in 0..2 {
        match Conn::open(addr) {
            Ok(c) => conns.push(c),
            Err(e) => out.note(format!("connect failed: {e}")),
        }
    }
    let start = Instant::now();
    let (from, end) = (start + WARMUP, start + WARMUP + window);
    let mut phase = Phase::default();
    let mut idle_frac = 0.0;
    if conns.len() == 2 {
        let arrivals = Arrivals::new(seed, 0x7c9, start, TCP_RATE);
        let poll_counters = || {
            let text = svc.metrics_text();
            let passes = exposition_value(&text, "pe_poll_passes_total");
            (passes, exposition_value(&text, "pe_poll_idle_total"))
        };
        let (passes0, idle0) = poll_counters();
        phase = tcp_phase(&mut conns, &pool, &mut cursor, arrivals, from, end);
        let (passes1, idle1) = poll_counters();
        idle_frac = (idle1 - idle0) / (passes1 - passes0).max(1.0);
    } else {
        phase.attempted += 1;
        phase.fail("could not open two connections".to_owned());
    }
    drop(conns);
    let burst = deep_pipeline_burst(addr, &pool, &mut cursor);
    stop.store(true, std::sync::atomic::Ordering::Release);
    if server_thread.join().is_err() {
        phase.fail("server thread panicked".to_owned());
    }
    svc.shutdown();
    burst.merge_into(&mut out);

    out.ops_per_s = phase.measured_ok as f64 / window.as_secs_f64();
    out.note(format!(
        "serve_tcp_rps {:.1} achieved of {TCP_RATE} offered (2 connections, open loop, {:.1} s)",
        out.ops_per_s,
        window.as_secs_f64()
    ));
    let mut late = std::mem::take(&mut phase.late_s);
    if !late.is_empty() {
        late.sort_by(f64::total_cmp);
        let (label, late_tail) = stats::tail(&late);
        out.note(format!(
            "generator lateness: p50 {:.4} ms, {label} {:.4} ms",
            stats::median_of_sorted(&late) * 1e3,
            late_tail * 1e3
        ));
        if trace {
            out.note(format!("serve_tcp.generator_late_ms {}", late_tail * 1e3));
        }
    }
    phase.merge_into(&mut out);
    if trace {
        out.note(format!("pe-serve.poll_idle_frac {idle_frac}"));
        if let (Some(inproc), false) = (inproc_p50, out.latencies_s.is_empty()) {
            let tcp_p50 = stats::median(&out.latencies_s);
            out.note(format!("serve_tcp.frontend_p50_ms {}", (tcp_p50 - inproc) * 1e3));
        }
        protocol_replay(&pool, &mut out);
    }
    out
}

/// Writes [`BURST`] pooled request lines at once on a fresh connection,
/// outside the timed window, and waits up to [`DRAIN_GRACE`] for every
/// reply. A missing or wrong reply is a failed request.
fn deep_pipeline_burst(addr: SocketAddr, pool: &[Request], cursor: &mut usize) -> Phase {
    let mut phase = Phase { attempted: BURST as u64, ..Phase::default() };
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            phase.fail_many(BURST, format!("deep-pipeline burst: connect failed: {e}"));
            return phase;
        }
    };
    let sent = Instant::now();
    for _ in 0..BURST {
        let req = &pool[*cursor % pool.len()];
        *cursor += 1;
        conn.wbuf.extend_from_slice(&req.line);
        conn.inflight.push_back((sent, req.expected, false));
    }
    while !conn.inflight.is_empty() && !conn.closed && sent.elapsed() < DRAIN_GRACE {
        let step = conn.flush().and_then(|w| Ok(w | conn.receive(Instant::now(), &mut phase)?));
        match step {
            Ok(true) => {}
            Ok(false) => std::thread::sleep(POLL),
            Err(e) => {
                phase.fail(format!("deep-pipeline burst: socket: {e}"));
                break;
            }
        }
    }
    let missing = conn.inflight.len();
    phase.fail_many(
        missing,
        format!(
            "deep-pipeline burst: {missing} of {BURST} requests unanswered after {DRAIN_GRACE:?}"
        ),
    );
    phase
}

/// Replays `protocol::format_classify` and `protocol::parse_request` over the
/// pooled requests; every parse must give back the request. Prints each
/// call's mean time.
fn protocol_replay(pool: &[Request], out: &mut Outcome) {
    let t0 = Instant::now();
    let lines: Vec<String> = pool.iter().map(|r| format_classify(r.key, &r.x)).collect();
    let format_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parsed: Vec<_> = lines.iter().map(|l| parse_request(l)).collect();
    let parse_s = t0.elapsed().as_secs_f64();
    for (req, p) in pool.iter().zip(parsed) {
        out.attempted += 1;
        let same = matches!(p, Ok(WireRequest::Classify { key, ref features }) if key == req.key && *features == req.x);
        if !same {
            out.failed += 1;
            out.note(format!("wire round trip changed a {} request", req.key.token()));
        }
    }
    out.note(format!("pe-serve.format_us {}", format_s / pool.len() as f64 * 1e6));
    out.note(format!("pe-serve.parse_us {}", parse_s / pool.len() as f64 * 1e6));
}
