//! The repository's benchmark: one command per workload, from seed to
//! reply. See `perfbench/README.md` for the workloads, the metrics and how
//! to run it.

mod pipeline;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use pipeline::{Shape, Sources, StudyRun};
use serve::{Reference, Sample, Step};
use stats::{median, quantile, scaling_exponent};
use trace::Tracer;

/// Worker threads for crawl, index, study and serve, and the generator's
/// thread and in-flight cap: sized for a 2-core host.
pub const THREADS: usize = 2;

/// The offered rate, below capacity, at which latency is reported.
const REFERENCE_RATE: f64 = 4000.0;
/// Requests per reference window (0.3 s at the reference rate); latency
/// figures are medians over windows.
const WINDOW_REQUESTS: usize = 1200;
/// Where the `rps_max` staircase starts.
const SEARCH_FROM: f64 = 10_000.0;
/// Length of one staircase step.
const STAIR_STEP_S: f64 = 0.2;
/// One reference window plus one staircase step, roughly.
const SLICE_S: f64 = 0.5;
/// Requests generated per run; the generator wraps around them.
const PLANNED_REQUESTS: usize = 40_000;
/// Rounds per untraced run, each with one timed set-up; `setup_s` is
/// their median.
const ROUNDS: usize = 3;
/// The traced run's second size, for scaling exponents.
const SMALL_DIVISOR: usize = 4;

/// The study-side stages, each a span around one public call.
const STAGES: [&str; 14] = [
    "world.plan",
    "world.execute",
    "sources.subgraph",
    "sources.etherscan",
    "crawl.collect",
    "store.encode",
    "store.decode",
    "index.build",
    "study.overview",
    "study.features",
    "study.losses",
    "study.resale",
    "study.countermeasures",
    "report.render",
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    StudyDense,
    StudySparseChaos,
    ServeZipf,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "study-dense" => Workload::StudyDense,
            "study-sparse-chaos" => Workload::StudySparseChaos,
            "serve-zipf" => Workload::ServeZipf,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::StudyDense => "study-dense",
            Workload::StudySparseChaos => "study-sparse-chaos",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::StudyDense => Shape {
                paper_scale: false,
                names: 20_000,
                chaos: false,
            },
            Workload::StudySparseChaos => Shape {
                paper_scale: true,
                names: 60_000,
                chaos: true,
            },
            Workload::ServeZipf => Shape {
                paper_scale: false,
                names: 20_000,
                chaos: false,
            },
        }
    }

    /// The share of `--seconds` the study loop gets; serving gets the rest.
    fn study_share(self) -> f64 {
        match self {
            Workload::ServeZipf => 0.3,
            _ => 0.6,
        }
    }

    /// `setup_s` times the serving set-up (`.ensc` → state → listener)
    /// for the serving workload and the world set-up for the others.
    fn serve_setup_is_timed(self) -> bool {
        self == Workload::ServeZipf
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Corrupt {
    Report,
    Reply,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Divides every workload size (tests run tiny workloads).
    divisor: usize,
    corrupt: Option<Corrupt>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload study-dense|study-sparse-chaos|serve-zipf \
         --seed N --seconds S --trace 0|1 [--divisor D] [--corrupt report|reply]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut divisor = 1;
    let mut corrupt = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--divisor" => {
                divisor = value
                    .parse()
                    .ok()
                    .filter(|d| *d >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--corrupt" => {
                corrupt = Some(match value.as_str() {
                    "report" => Corrupt::Report,
                    "reply" => Corrupt::Reply,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            divisor,
            corrupt,
        },
        _ => usage(),
    }
}

/// What a run reports: metrics in order, operations attempted and
/// failed, a line per failure, and the rate steps it ran.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    steps: Vec<(&'static str, Step)>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one operation; `Some(problem)` counts it as failed.
    fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Counts a rate step's requests; a transport error or a reply that
    /// differs from the reference is a failed operation.
    fn step(&mut self, phase: &'static str, step: Step) {
        self.attempted += step.requests as u64;
        self.failed += (step.errors + step.wrong) as u64;
        if step.errors + step.wrong > 0 {
            self.problems.push(format!(
                "{phase} step at {:.0} req/s: {} transport errors, {} replies differ \
                 from the reference",
                step.rate, step.errors, step.wrong
            ));
        }
        self.steps.push((phase, step));
    }
}

/// The run's scratch directory (the `.ensc` and checkpoint files),
/// removed when the run ends, also by a panic.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() {
    let args = parse_args();
    let scratch = Scratch(PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("cannot create {}: {e}", scratch.0.display());
        std::process::exit(1);
    }
    let dir = &scratch.0;
    println!("{}", provenance(&args));
    let cpu_before = serve::cpu_ticks();
    let result = if args.trace {
        traced(&args, dir)
    } else {
        measured(&args, dir)
    };
    drop(scratch);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (phase, s) in &outcome.steps {
        eprintln!(
            "{phase:>9} {:>6.0} req/s: {:>6} requests, from due p50 {:>6.0} p90 {:>6.0} \
             p99 {:>6.0} us, service p90 {:>6.0} us, gen_late p99 {:>6.0} us, \
             late growth {:>6.0} us, met {}, sustained {:.0} req/s",
            s.rate,
            s.requests,
            s.p50_us,
            s.p90_us,
            s.p99_us,
            s.service_p90_us,
            s.late_p99_us,
            s.late_growth_us,
            s.met,
            s.sustained_rps
        );
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:>36} {value:>14.4} {unit}");
    }
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, serve::cpu_ticks()) {
        eprintln!(
            "host steal during the run: {:.1}% of CPU time (other guests on the host)",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    for p in &outcome.problems {
        eprintln!("FAILED: {p}");
    }
    let correct = outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// JSON has no infinities: a latency that could not be measured (every
/// request failed) is reported as the largest finite value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Host, build and input facts, as one JSON line ahead of the result.
fn provenance(args: &Args) -> String {
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let shape = args.workload.shape();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"names\": {}, \"preset\": \"{}\", \"chaos\": {}, \
         \"threads\": {THREADS}, \"available_parallelism\": {}, \"git_commit\": \"{}\", \
         \"rustc\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        shape.names / args.divisor,
        if shape.paper_scale {
            "paper_scale"
        } else {
            "default"
        },
        if shape.chaos { "\"mixed\"" } else { "null" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        // Only this checkout's own history: a checkout without `.git`
        // must not report the commit of a repository around it.
        Path::new(".git")
            .exists()
            .then(|| output("git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "unknown".to_string()),
        output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
    )
}

/// One timed set-up or study pass, with the CPU ticks the host stole from
/// this guest meanwhile.
struct Timed {
    seconds: f64,
    stolen_ticks: u64,
}

impl Timed {
    fn run<R>(f: impl FnOnce() -> R) -> (R, Timed) {
        let before = serve::steal_ticks();
        let t = Instant::now();
        let out = f();
        let seconds = t.elapsed().as_secs_f64();
        let stolen_ticks = serve::steal_ticks().saturating_sub(before);
        (
            out,
            Timed {
                seconds,
                stolen_ticks,
            },
        )
    }
}

/// The samples taken while the host stole the least CPU time from this
/// guest: those at or below the median steal rate (all of them when none
/// was stolen). Steal stops every thread of the guest at once, so it
/// only ever adds time; the quieter half shows the program's own.
fn quiet<T>(samples: &[T], stolen_per_s: impl Fn(&T) -> f64) -> Vec<&T> {
    let rates: Vec<f64> = samples.iter().map(&stolen_per_s).collect();
    let cut = median(&rates).unwrap_or(0.0);
    samples.iter().filter(|s| stolen_per_s(s) <= cut).collect()
}

/// The median time of the quieter half of `samples`.
fn quiet_median(samples: &[Timed]) -> f64 {
    let seconds: Vec<f64> = quiet(samples, |t| t.stolen_ticks as f64 / t.seconds.max(1e-9))
        .iter()
        .map(|t| t.seconds)
        .collect();
    median(&seconds).unwrap_or(0.0)
}

/// How many serving slices the run's serving share of `--seconds` holds.
fn serve_slices(args: &Args) -> usize {
    (args.seconds * (1.0 - args.workload.study_share()) / SLICE_S).round() as usize
}

/// The untraced run: every end-to-end metric. The run is split into
/// rounds, each with its own set-up, and within a round study passes
/// alternate with serving slices (one reference window and one staircase
/// step), so every metric's samples spread over the whole run and a
/// passing stall on the host moves a few samples of each, not a whole
/// metric.
fn measured(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let workload = args.workload;
    let shape = workload.shape();
    let world = shape.world(args.seed, args.divisor);
    let serve_timed = workload.serve_setup_is_timed();
    let store = dir.join("dataset.ensc");
    let study_budget = args.seconds * workload.study_share();
    let slices = serve_slices(args).max(ROUNDS);
    let mut out = Outcome::default();

    let mut setup_times: Vec<Timed> = Vec::new();
    let mut serve_times: Vec<Timed> = Vec::new();
    let mut study_times: Vec<Timed> = Vec::new();
    let mut sources: Option<Sources> = None;
    let mut last: Option<StudyRun> = None;
    let mut daemon: Option<serve::Daemon> = None;
    let mut planned = Vec::new();
    let mut reference: Option<Reference> = None;
    let mut stairs = serve::Staircase::new(SEARCH_FROM);
    let mut windows: Vec<serve::Window> = Vec::new();
    let mut first = 0;
    let mut peak_rss_mb = 0.0;

    for round in 0..ROUNDS {
        if sources.is_none() || !serve_timed {
            drop(last.take());
            drop(sources.take());
            let (built, timed) = Timed::run(|| pipeline::setup(&world, &off));
            sources = Some(built?);
            setup_times.push(timed);
            out.check(None);
        }
        let src = sources.as_ref().expect("set up above");
        let mut study_pass = |out: &mut Outcome, times: &mut Vec<Timed>| -> Result<(), String> {
            drop(last.take());
            let (run, timed) = Timed::run(|| pipeline::study(src, &shape, args.seed, dir, &off));
            last = Some(run?);
            times.push(timed);
            out.check(None);
            Ok(())
        };
        study_pass(&mut out, &mut study_times)?;
        if daemon.is_none() || serve_timed {
            if let Some(d) = daemon.take() {
                d.server.shutdown();
            }
            let (started, timed) = Timed::run(|| serve::start(&store, &off));
            serve_times.push(timed);
            let started = started?;
            out.check(None);
            daemon = Some(started);
        }
        let d = daemon.as_ref().expect("started above");
        let reference = reference.get_or_insert_with(|| {
            planned = serve::plan_requests(d.handle.state(), args.seed, PLANNED_REQUESTS);
            serve::reference(&d.handle, &planned)
        });
        let addr = d.server.local_addr();
        let until = study_budget * (round + 1) as f64 / ROUNDS as f64;
        let mut slices_left = slices * (round + 1) / ROUNDS - slices * round / ROUNDS;
        loop {
            if slices_left > 0 {
                let corrupt = args.corrupt == Some(Corrupt::Reply) && windows.is_empty();
                windows.push(serve::Window::run(
                    addr,
                    &planned,
                    reference,
                    first,
                    WINDOW_REQUESTS,
                    REFERENCE_RATE,
                    corrupt,
                ));
                first += WINDOW_REQUESTS;
                stairs.step(addr, &planned, reference, &mut first, STAIR_STEP_S);
                slices_left -= 1;
                // By now the run has held a world, a study pass and the
                // daemon's state at once; later passes repeat that work,
                // and their high-water mark would add only allocator
                // fragmentation, which varies with the interleaving.
                if windows.len() == 1 {
                    peak_rss_mb = vm_hwm_kb()? as f64 / 1024.0;
                }
            }
            let study_left = study_times.iter().map(|t| t.seconds).sum::<f64>() < until;
            if study_left {
                study_pass(&mut out, &mut study_times)?;
            } else if slices_left == 0 {
                break;
            }
        }
    }
    if let Some(d) = daemon.take() {
        d.server.shutdown();
    }
    let sources = sources.expect("at least one set-up");
    let mut run = last.expect("at least one study pass");
    let crawl = &run.loaded.crawl_report;
    let pages = crawl.subgraph.pages + crawl.txlist.pages + crawl.market.pages;
    let ok_pct = 100.0 * pages as f64 / (pages + crawl.gaps.len()).max(1) as f64;

    let rps_max = stairs.rps_max();
    for step in stairs.steps {
        out.step("staircase", step);
    }
    for window in &windows {
        out.step(
            "reference",
            serve::summarize(REFERENCE_RATE, &window.samples),
        );
    }

    if args.corrupt == Some(Corrupt::Report) {
        run.report.crawl.transactions += 1;
    }
    study_gates(&mut out, &run, &sources, &shape, args.seed, dir);

    let timed_setups = if serve_timed {
        &serve_times
    } else {
        &setup_times
    };
    // Each latency figure is the median over the quieter half of the
    // reference windows of that window's quantile of service time (send
    // to last reply byte). Timed from due time, a host stall is charged
    // to every request due during it; service time charges it only to the
    // requests in flight, and generator lateness is reported on its own
    // in the traced run.
    let counted = quiet(&windows, |w| w.stolen_ticks as f64);
    let at = |kind: Option<usize>, q: f64| {
        let per_window: Vec<f64> = counted
            .iter()
            .map(|w| quantile(&serve::service_us(&w.samples, kind), q).unwrap_or(f64::INFINITY))
            .collect();
        median(&per_window).unwrap_or(f64::INFINITY)
    };
    out.metric("setup_s", quiet_median(timed_setups), "s");
    out.metric("study_s", quiet_median(&study_times), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.metric("ok_pct", ok_pct, "%");
    out.metric("serve.rps_max", rps_max, "1/s");
    out.metric("serve.p50_us", at(None, 0.5), "us");
    out.metric("serve.p90_us", at(None, 0.9), "us");
    out.metric("serve.forensics_p90_us", at(Some(1), 0.9), "us");
    out.metric("serve.name_risk_p90_us", at(Some(0), 0.9), "us");
    let list = |v: &[Timed]| {
        v.iter()
            .map(|t| format!("{:.3} ({} stolen ticks)", t.seconds, t.stolen_ticks))
            .collect::<Vec<_>>()
            .join(", ")
    };
    eprintln!("world set-ups (s): {}", list(&setup_times));
    eprintln!("serving set-ups (s): {}", list(&serve_times));
    eprintln!("study passes (s): {}", list(&study_times));
    for w in &windows {
        let us = serve::service_us(&w.samples, None);
        eprintln!(
            "window service p50 {:.1} p90 {:.1} us, {} stolen ticks",
            quantile(&us, 0.5).unwrap_or(0.0),
            quantile(&us, 0.9).unwrap_or(0.0),
            w.stolen_ticks
        );
    }
    eprintln!(
        "latency from the {} of {} reference windows with the least host steal",
        counted.len(),
        windows.len()
    );
    Ok(out)
}

/// The study's correctness gates: indexed == naive, re-encode == bytes.
fn study_gates(
    out: &mut Outcome,
    run: &StudyRun,
    sources: &Sources,
    shape: &Shape,
    seed: u64,
    dir: &Path,
) {
    out.check(pipeline::gate_naive(run, sources, shape, seed));
    out.check(pipeline::gate_reencode(run, dir));
}

/// The traced run: traced passes at full and quarter size, untraced
/// passes for the tracing overhead, and every per-layer metric.
fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let shape = workload.shape();
    let mut out = Outcome::default();

    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let sources = pipeline::setup(&shape.world(args.seed, args.divisor), &tracer)?;
    out.check(None);
    // Untraced and traced passes alternate; the last traced one is kept.
    let mut plain_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut run = None;
    for _ in 0..2 {
        drop(run.take());
        let t = Instant::now();
        let plain = pipeline::study(&sources, &shape, args.seed, dir, &off)?;
        plain_times.push(t.elapsed().as_secs_f64());
        drop(plain);
        let t = Instant::now();
        run = Some(pipeline::study(&sources, &shape, args.seed, dir, &tracer)?);
        traced_times.push(t.elapsed().as_secs_f64());
        out.check(None);
        out.check(None);
    }
    let mut run = run.expect("a traced pass");

    let daemon = serve::start(&dir.join("dataset.ensc"), &tracer)?;
    out.check(None);
    let planned = serve::plan_requests(daemon.handle.state(), args.seed, PLANNED_REQUESTS);
    let reference = serve::reference(&daemon.handle, &planned);
    let mut samples = Vec::new();
    for window in 0..serve_slices(args).max(1) {
        let window = serve::open_loop(
            daemon.server.local_addr(),
            &planned,
            &reference,
            window * WINDOW_REQUESTS,
            WINDOW_REQUESTS,
            REFERENCE_RATE,
            args.corrupt == Some(Corrupt::Reply) && window == 0,
        );
        out.step("reference", serve::summarize(REFERENCE_RATE, &window));
        samples.extend(window);
    }
    daemon.server.shutdown();

    let small = pipeline::setup(
        &shape.world(args.seed, args.divisor * SMALL_DIVISOR),
        &tracer,
    )?;
    let small_dir = dir.join("small");
    std::fs::create_dir_all(&small_dir)
        .map_err(|e| format!("cannot create the quarter-size scratch directory: {e}"))?;
    let small_run = pipeline::study(&small, &shape, args.seed, &small_dir, &tracer)?;
    out.check(None);
    drop((small_run, small));

    if args.corrupt == Some(Corrupt::Report) {
        run.report.crawl.transactions += 1;
    }
    study_gates(&mut out, &run, &sources, &shape, args.seed, dir);
    out.check(pipeline::gate_assembled(&run, &sources, &shape, args.seed));

    let spans = tracer.spans();
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("cannot write the trace: {e}"))?;
    let trace_path = format!(
        ".bench_out/{}-seed{}.trace.json",
        workload.name(),
        args.seed
    );
    std::fs::write(&trace_path, trace::to_json(&spans))
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    eprintln!("spans written to {trace_path}");

    let roots = |name: &str| -> Vec<usize> {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.parent.is_none())
            .map(|(i, _)| i)
            .collect()
    };
    let (setups, studies, serves) = (roots("setup"), roots("study"), roots("serve"));
    // Traced roots in order: set-up, two studies and serve at full size,
    // then set-up and study at a quarter.
    let full = [setups[0], studies[1], serves[0]];
    let small = [setups[1], studies[2]];
    // The gate covers the workload's own roots; the quarter-size pass only
    // times stages for the exponents, and its roots are short enough that
    // a host stall between two spans would read as an untracked stage.
    let mut coverage = 1.0f64;
    for &root in &full {
        let (share, untracked) = trace::coverage(&spans, root);
        coverage = coverage.min(share);
        out.check((share < 0.95).then(|| {
            format!(
                "span coverage {:.1}% < 95%: {}",
                share * 100.0,
                untracked.unwrap_or_default()
            )
        }));
    }

    let seconds = |name: &str, roots: &[usize]| -> f64 {
        roots
            .iter()
            .map(|&r| trace::seconds_in(&spans, r, name))
            .sum()
    };
    let counters = run.metrics.snapshot();
    let sum = |suffix: &str| -> u64 {
        ["subgraph", "txlist", "market"]
            .iter()
            .map(|src| counters.counter(&format!("crawl/{src}/{suffix}")))
            .sum()
    };
    let retries: u64 = counters
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("crawl/") && k.contains("/retries/"))
        .map(|(_, v)| *v)
        .sum();
    let (pages, gaps) = (sum("pages"), sum("gaps"));
    let store_bytes = std::fs::metadata(dir.join("dataset.ensc")).map_or(0, |m| m.len());
    let transactions = run.loaded.crawl_report.transactions.max(1);

    for stage in &STAGES[..4] {
        out.metric(format!("{stage}.s"), seconds(stage, &full), "s");
    }
    out.metric(
        "world.txs",
        sources.executed.chain.transaction_count() as f64,
        "count",
    );
    out.metric("crawl.collect.s", seconds("crawl.collect", &full), "s");
    out.metric("crawl.pages", pages as f64, "count");
    out.metric("crawl.retries", retries as f64, "count");
    out.metric("crawl.gaps", gaps as f64, "count");
    out.metric(
        "crawl.useful_ratio",
        pages as f64 / (pages + retries + gaps).max(1) as f64,
        "ratio",
    );
    out.metric(
        "checkpoint.writes",
        counters.counter("checkpoint/writes") as f64,
        "count",
    );
    out.metric(
        "error_pct",
        100.0 * gaps as f64 / (pages + gaps).max(1) as f64,
        "%",
    );
    out.metric("store.encode.s", seconds("store.encode", &full), "s");
    out.metric("store.decode.s", seconds("store.decode", &full), "s");
    out.metric(
        "store.bytes_per_tx",
        store_bytes as f64 / transactions as f64,
        "B",
    );
    out.metric("index.build.s", seconds("index.build", &full), "s");
    out.metric(
        "index.transfers",
        run.index.indexed_transfers() as f64,
        "count",
    );
    for stage in &STAGES[8..] {
        out.metric(format!("{stage}.s"), seconds(stage, &full), "s");
    }
    out.metric("serve.load.s", seconds("serve.load", &full), "s");
    out.metric("serve.build.s", seconds("serve.build", &full), "s");
    for (kind, name) in serve::QUERY_TYPES.iter().enumerate() {
        let us: Vec<f64> = planned
            .iter()
            .zip(&reference.query_ns)
            .filter(|(p, _)| p.kind == kind)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            out.metric(
                format!("serve.query.{name}.{label}_us"),
                quantile(&us, q).unwrap_or(0.0),
                "us",
            );
        }
    }
    let at = |kind: Option<usize>, q: f64| {
        quantile(&serve::latencies_us(&samples, kind), q).unwrap_or(f64::INFINITY)
    };
    out.metric("serve.p99_us", at(None, 0.99), "us");
    out.metric("serve.forensics_p99_us", at(Some(1), 0.99), "us");
    out.metric("serve.name_risk_p99_us", at(Some(0), 0.99), "us");
    out.metric(
        "serve.http_overhead.p50_us",
        http_overhead_p50_us(&samples, &reference),
        "us",
    );
    let late: Vec<f64> = samples.iter().map(|s| s.late_ns as f64 / 1e3).collect();
    out.metric(
        "serve.gen_late.p99_us",
        quantile(&late, 0.99).unwrap_or(0.0),
        "us",
    );
    // Best of each: the spans cost microseconds, far below a pass's noise.
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (plain, traced) = (best(&plain_times), best(&traced_times));
    out.metric(
        "trace_overhead_pct",
        100.0 * (traced - plain) / plain.max(f64::MIN_POSITIVE),
        "%",
    );
    out.metric("trace.coverage_pct", 100.0 * coverage, "%");
    for stage in STAGES {
        out.metric(
            format!("{stage}.exp"),
            scaling_exponent(
                seconds(stage, &small),
                seconds(stage, &full),
                SMALL_DIVISOR as f64,
            ),
            "exponent",
        );
    }
    Ok(out)
}

/// Median over the reference requests of HTTP service time (send to
/// reply) minus the same request's in-process query time.
fn http_overhead_p50_us(samples: &[Sample], reference: &Reference) -> f64 {
    let diffs: Vec<f64> = samples
        .iter()
        .filter(|s| s.latency_ns.is_some())
        .map(|s| (s.service_ns as f64 - reference.query_ns[s.request] as f64) / 1e3)
        .collect();
    median(&diffs).unwrap_or(0.0)
}

/// The process's peak resident set (`VmHWM`), in kB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
