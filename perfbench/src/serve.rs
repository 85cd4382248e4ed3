//! The serving side of a workload: a resident `ServeState` behind the
//! HTTP transport on loopback, driven by an open-loop generator with the
//! Zipf(s=1) request mix of `serve_bench`, and checked against a
//! single-threaded in-process `ServeHandle` reference.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ens_dropcatch::{Dataset, REPORT_SECTIONS};
use ens_serve::http::Server;
use ens_serve::{Request, ServeHandle, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::dist::CumulativeTable;

use crate::stats::quantile;
use crate::trace::Tracer;
use crate::THREADS;

pub const QUERY_TYPES: [&str; 4] = [
    "name-risk",
    "address-forensics",
    "loss-findings",
    "report-slice",
];

/// How long the generator waits for one reply before counting it as a
/// transport error.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Every SAMPLE_EVERY-th reply is also compared byte for byte, on top of
/// the per-request digest.
const SAMPLE_EVERY: usize = 64;

/// A running daemon: state, handle and listener.
pub struct Daemon {
    pub handle: ServeHandle,
    pub server: Server,
}

/// `.ensc` on disk → `Dataset::load` → `ServeState::build` → listener
/// bound on an OS-assigned loopback port.
pub fn start(store: &Path, tracer: &Tracer) -> Result<Daemon, String> {
    tracer.span("serve", || {
        let dataset = tracer
            .span("serve.load", || Dataset::load(store))
            .map_err(|e| format!("serve load failed: {e}"))?;
        let state = tracer.span("serve.build", || ServeState::build(dataset, THREADS));
        let handle = ServeHandle::new(Arc::new(state));
        let server = tracer
            .span("serve.bind", || {
                Server::start(handle.clone(), "127.0.0.1:0", THREADS)
            })
            .map_err(|e| format!("bind failed: {e}"))?;
        Ok(Daemon { handle, server })
    })
}

/// One generated request: its type (an index into [`QUERY_TYPES`]), the
/// typed request and the same request as HTTP bytes.
pub struct Planned {
    pub kind: usize,
    pub request: Request,
    pub wire: Vec<u8>,
}

/// The seeded request stream over the state's own names and addresses:
/// ~50% name-risk, ~25% address-forensics, ~15% loss-findings, ~10%
/// report-slice, each pool Zipf(s=1)-skewed, with a few unknown names,
/// uncrawled addresses, inverted windows and unknown sections mixed in
/// (typed 4xx replies, which are correct answers).
pub fn plan_requests(state: &ServeState, seed: u64, count: usize) -> Vec<Planned> {
    let names: Vec<String> = state
        .dataset
        .domains
        .iter()
        .filter_map(|d| d.name.as_ref().map(|n| n.to_full()))
        .collect();
    let addrs: Vec<String> = state
        .dataset
        .transactions
        .keys()
        .map(|a| a.to_hex())
        .collect();
    let victims: Vec<String> = state
        .index
        .reregistrations()
        .iter()
        .map(|r| r.prev_wallet.to_hex())
        .collect();
    let end = state.dataset.observation_end.0;
    let mid = end / 2;
    let name_zipf = zipf(names.len());
    let addr_zipf = zipf(addrs.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_be4c);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let roll: f64 = rng.gen();
        let (kind, request) = if roll < 0.50 {
            let name = if names.is_empty() || rng.gen::<f64>() < 0.02 {
                format!("never-crawled-{i}.eth")
            } else {
                names[name_zipf.sample(&mut rng)].clone()
            };
            (0, Request::NameRisk { name })
        } else if roll < 0.75 {
            let address = if addrs.is_empty() || rng.gen::<f64>() < 0.02 {
                "0x00000000000000000000000000000000000000aa".to_string()
            } else {
                addrs[addr_zipf.sample(&mut rng)].clone()
            };
            let (from, to) = match rng.gen_range(0..4u8) {
                0 => (None, None),
                1 => (Some(0), Some(mid)),
                2 => (Some(mid), Some(end)),
                _ => (Some(end), Some(mid)), // inverted: a typed 400
            };
            (1, Request::AddressForensics { address, from, to })
        } else if roll < 0.90 {
            let victim = if victims.is_empty() || rng.gen::<f64>() < 0.10 {
                "0x00000000000000000000000000000000000000bb".to_string()
            } else {
                victims[rng.gen_range(0..victims.len())].clone()
            };
            (2, Request::LossFindings { victim })
        } else {
            let section = match REPORT_SECTIONS.get(rng.gen_range(0..7usize)) {
                Some(s) => s.to_string(),
                None => "appendix-z".to_string(),
            };
            (3, Request::ReportSlice { section })
        };
        let wire = format!(
            "GET {} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
            target_of(&request)
        )
        .into_bytes();
        out.push(Planned {
            kind,
            request,
            wire,
        });
    }
    out
}

fn zipf(n: usize) -> CumulativeTable {
    let weights: Vec<f64> = (0..n.max(1)).map(|rank| 1.0 / (rank + 1) as f64).collect();
    CumulativeTable::new(&weights)
}

fn target_of(request: &Request) -> String {
    match request {
        Request::NameRisk { name } => format!("/name-risk?name={}", escape(name)),
        Request::AddressForensics { address, from, to } => {
            let mut t = format!("/address-forensics?address={}", escape(address));
            if let Some(f) = from {
                t.push_str(&format!("&from={f}"));
            }
            if let Some(to) = to {
                t.push_str(&format!("&to={to}"));
            }
            t
        }
        Request::LossFindings { victim } => format!("/loss-findings?victim={}", escape(victim)),
        Request::ReportSlice { section } => format!("/report-slice?section={}", escape(section)),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// FNV-1a over the status and the body.
pub fn digest(status: u16, body: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in status.to_le_bytes().iter().chain(body) {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The reference: each request answered in process, one at a time, with
/// its latency through `ServeHandle::query` and the status the HTTP
/// transport gives that answer.
pub struct Reference {
    pub digests: Vec<u64>,
    /// Byte-exact replies of every SAMPLE_EVERY-th request.
    pub samples: Vec<(u16, String)>,
    pub query_ns: Vec<u64>,
}

pub fn reference(handle: &ServeHandle, planned: &[Planned]) -> Reference {
    let mut digests = Vec::with_capacity(planned.len());
    let mut samples = Vec::new();
    let mut query_ns = Vec::with_capacity(planned.len());
    for (i, p) in planned.iter().enumerate() {
        let start = Instant::now();
        let reply = handle.query(&p.request);
        query_ns.push(start.elapsed().as_nanos() as u64);
        let (status, body) = match reply {
            Ok(body) => (200, body),
            Err(e) => (
                if e.is_not_found() { 404 } else { 400 },
                ServeHandle::error_body(&e),
            ),
        };
        digests.push(digest(status, body.as_bytes()));
        if i.is_multiple_of(SAMPLE_EVERY) {
            samples.push((status, body));
        }
    }
    Reference {
        digests,
        samples,
        query_ns,
    }
}

/// Steal and total ticks of the host's CPU line in `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

pub fn steal_ticks() -> u64 {
    cpu_ticks().map_or(0, |(steal, _)| steal)
}

/// One open-loop stretch at a fixed rate, with the CPU ticks the host
/// stole from this guest meanwhile.
pub struct Window {
    pub samples: Vec<Sample>,
    pub stolen_ticks: u64,
}

impl Window {
    pub fn run(
        addr: SocketAddr,
        planned: &[Planned],
        reference: &Reference,
        first: usize,
        count: usize,
        rate: f64,
        corrupt: bool,
    ) -> Window {
        let before = steal_ticks();
        let samples = open_loop(addr, planned, reference, first, count, rate, corrupt);
        Window {
            samples,
            stolen_ticks: steal_ticks().saturating_sub(before),
        }
    }
}

/// One request as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Position in the step's schedule.
    pub index: usize,
    pub kind: usize,
    /// Index into the planned requests.
    pub request: usize,
    /// Send time minus due time.
    pub late_ns: u64,
    /// Reply time minus due time; `None` for a transport error.
    pub latency_ns: Option<u64>,
    /// Reply time minus send time.
    pub service_ns: u64,
    /// The reply matched the reference.
    pub correct: bool,
}

/// Generator lateness past which a step is abandoned: the offered rate
/// is far beyond capacity and the rest of the step would only queue.
const ABANDON_LATE: Duration = Duration::from_millis(50);

/// Sends `count` requests, starting at `first` and wrapping around
/// `planned`, at `rate` requests per second from `THREADS` threads (so
/// at most `THREADS` requests are in flight). Each request is timed from
/// the moment it was due.
pub fn open_loop(
    addr: SocketAddr,
    planned: &[Planned],
    reference: &Reference,
    first: usize,
    count: usize,
    rate: f64,
    corrupt: bool,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(count));
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut local = Vec::new();
                let mut buf = Vec::with_capacity(1 << 16);
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= count {
                        break;
                    }
                    let i = (first + k) % planned.len();
                    let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                    // Yield rather than sleep: a sleeping thread wakes
                    // late on a shared host, and that lateness would read
                    // as the server's backlog.
                    while Instant::now() < due {
                        std::thread::yield_now();
                    }
                    let sent = Instant::now();
                    let reply = fetch(addr, &planned[i].wire, &mut buf);
                    let done = Instant::now();
                    let correct = match reply {
                        Ok(body_at) => {
                            if corrupt && k == 0 && body_at < buf.len() {
                                buf[body_at] ^= 1;
                            }
                            check(&buf, body_at, i, reference)
                        }
                        Err(_) => false,
                    };
                    let late = sent.saturating_duration_since(due);
                    local.push(Sample {
                        index: k,
                        kind: planned[i].kind,
                        request: i,
                        late_ns: late.as_nanos() as u64,
                        latency_ns: reply
                            .is_ok()
                            .then(|| done.saturating_duration_since(due).as_nanos() as u64),
                        service_ns: (done - sent).as_nanos() as u64,
                        correct,
                    });
                    if late > ABANDON_LATE {
                        next.store(count, Ordering::Relaxed);
                    }
                }
                out.lock().expect("sample lock").extend(local);
            });
        }
    });
    let mut samples = out.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.index);
    samples
}

/// One GET over a fresh connection; returns the offset of the body in
/// `buf`, which holds the whole response.
fn fetch(addr: SocketAddr, wire: &[u8], buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.write_all(wire)?;
    buf.clear();
    stream.read_to_end(buf)?;
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))
}

/// Status parsed from the response line, body digest compared with the
/// reference, and sampled requests compared byte for byte.
fn check(buf: &[u8], body_at: usize, i: usize, reference: &Reference) -> bool {
    let status = buf
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse::<u16>().ok());
    let Some(status) = status else {
        return false;
    };
    let body = &buf[body_at..];
    if digest(status, body) != reference.digests[i] {
        return false;
    }
    if i.is_multiple_of(SAMPLE_EVERY) {
        let (s, b) = &reference.samples[i / SAMPLE_EVERY];
        return *s == status && b.as_bytes() == body;
    }
    true
}

/// Latency summary of one rate step.
#[derive(Clone, Debug)]
pub struct Step {
    pub rate: f64,
    pub requests: usize,
    pub errors: usize,
    pub wrong: usize,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// p90 of service time (send to last reply byte).
    pub service_p90_us: f64,
    pub late_p99_us: f64,
    /// Median lateness over the step's last quarter minus its first: a
    /// growing backlog.
    pub late_growth_us: f64,
    pub met: bool,
    /// The rate the step sustained: its offered rate when it met the
    /// limit, else the rate its replies came back at (never above the
    /// offered rate). Past capacity an open loop with a capped number in
    /// flight completes requests at the rate the server sustains.
    pub sustained_rps: f64,
}

/// Latencies of `samples` in µs, transport errors as +∞ so they miss any
/// limit and stay in the sample.
pub fn latencies_us(samples: &[Sample], kind: Option<usize>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.latency_ns.map_or(f64::INFINITY, |ns| ns as f64 / 1e3))
        .collect()
}

/// Service times of `samples` in µs (send to last reply byte), transport
/// errors as +∞.
pub fn service_us(samples: &[Sample], kind: Option<usize>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| match s.latency_ns {
            Some(_) => s.service_ns as f64 / 1e3,
            None => f64::INFINITY,
        })
        .collect()
}

pub fn summarize(rate: f64, samples: &[Sample]) -> Step {
    let lat = latencies_us(samples, None);
    let late: Vec<f64> = samples.iter().map(|s| s.late_ns as f64 / 1e3).collect();
    let quarter = (late.len() / 4).max(1).min(late.len());
    let head = quantile(&late[..quarter], 0.5).unwrap_or(0.0);
    let tail = quantile(&late[late.len() - quarter..], 0.5).unwrap_or(0.0);
    let service_p90 = quantile(&service_us(samples, None), 0.90).unwrap_or(f64::INFINITY);
    let growth = tail - head;
    let errors = samples.iter().filter(|s| s.latency_ns.is_none()).count();
    let met = service_p90 <= LIMIT_US && growth <= LIMIT_US && errors == 0;
    // Request k was due k/rate seconds after the step began.
    let last_reply_s = samples
        .iter()
        .filter_map(|s| {
            s.latency_ns
                .map(|ns| s.index as f64 / rate + ns as f64 / 1e9)
        })
        .fold(0.0, f64::max);
    let answered = samples.len() - errors;
    Step {
        rate,
        requests: samples.len(),
        errors,
        wrong: samples.iter().filter(|s| !s.correct).count(),
        p50_us: quantile(&lat, 0.5).unwrap_or(f64::INFINITY),
        p90_us: quantile(&lat, 0.90).unwrap_or(f64::INFINITY),
        p99_us: quantile(&lat, 0.99).unwrap_or(f64::INFINITY),
        service_p90_us: service_p90,
        late_p99_us: quantile(&late, 0.99).unwrap_or(0.0),
        late_growth_us: growth,
        met,
        sustained_rps: if met {
            rate
        } else {
            (answered as f64 / last_reply_s.max(1e-9)).min(rate)
        },
    }
}

/// The limit a rate step must meet: p90 service time, and growth of the
/// generator's backlog (its lateness) across the step. A rate beyond
/// capacity fails the second however fast each reply is.
pub const LIMIT_US: f64 = 2000.0;

/// An up-down staircase over offered rates: a step that meets
/// [`LIMIT_US`] without a growing backlog raises the next step's rate, a
/// step that misses lowers it, unless the host stole CPU time during it.
/// The rates it visits settle around the highest rate the server
/// sustains.
pub struct Staircase {
    rate: f64,
    pub steps: Vec<Step>,
    /// The sustained rate of every step from the first reversal on,
    /// except misses while the host stole CPU time.
    sustained: Vec<f64>,
}

impl Staircase {
    /// Coarse steps until the first reversal, fine steps after it.
    const COARSE: f64 = 1.15;
    const FINE: f64 = 1.05;

    pub fn new(from: f64) -> Staircase {
        Staircase {
            rate: from,
            steps: Vec::new(),
            sustained: Vec::new(),
        }
    }

    /// Runs one step of `step_s` seconds at the current rate.
    pub fn step(
        &mut self,
        addr: SocketAddr,
        planned: &[Planned],
        reference: &Reference,
        first: &mut usize,
        step_s: f64,
    ) {
        let count = (self.rate * step_s) as usize;
        let window = Window::run(addr, planned, reference, *first, count, self.rate, false);
        *first += count;
        let step = summarize(self.rate, &window.samples);
        // Once the staircase has reversed, every step differs from some
        // earlier one.
        let settled = self.steps.iter().any(|s| s.met != step.met);
        let factor = if settled { Self::FINE } else { Self::COARSE };
        // A miss while the host stole CPU time says nothing about the
        // server: the rate stays and the step is not counted. A met step
        // stands either way.
        let stolen = window.stolen_ticks > 0;
        if step.met {
            self.rate *= factor;
        } else if !stolen {
            self.rate /= factor;
        }
        if settled && (step.met || !stolen) {
            self.sustained.push(step.sustained_rps);
        }
        self.steps.push(step);
    }

    /// The median sustained rate of the counted steps from the first
    /// reversal on (of every step, if it never reversed). The staircase
    /// oscillates around the highest rate the server sustains; the rates
    /// its steps sustained, taken over the whole run, are steadier than
    /// its best step, which a single quiet moment on the host sets, or
    /// the offered rates alone, which move in 5% jumps on a single miss.
    pub fn rps_max(&self) -> f64 {
        let rates = if self.sustained.is_empty() {
            self.steps.iter().map(|s| s.sustained_rps).collect()
        } else {
            self.sustained.clone()
        };
        crate::stats::median(&rates).unwrap_or(0.0)
    }
}
