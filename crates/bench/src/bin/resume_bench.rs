//! Prices crash-safe crawling: sweeps the checkpoint cadence against an
//! uncheckpointed baseline (at a modeled per-page service time — see
//! `ens_bench::resume` for why), runs one kill/resume cycle through the
//! full pipeline, and writes `BENCH_resume.json`.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin resume_bench -- \
//!     --names 4000 --seed 48879 --out BENCH_resume.json
//! ```
//!
//! Exits non-zero if any run's output diverges from the baseline, or if
//! the default-cadence overhead exceeds `--max-overhead-pct` (when given).

use ens_bench::run_resume_bench;

struct Args {
    names: usize,
    seed: u64,
    out: Option<String>,
    cadences: Vec<usize>,
    repeats: usize,
    service_time_us: u64,
    max_overhead_pct: Option<f64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        names: 4_000,
        seed: 0xBEEF,
        out: None,
        cadences: vec![1, 4, 16, 64, 256, 1024],
        repeats: 3,
        service_time_us: 2_000,
        max_overhead_pct: None,
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--names" => parsed.names = next(&mut args, "--names").parse().expect("--names"),
            "--seed" => parsed.seed = next(&mut args, "--seed").parse().expect("--seed"),
            "--out" => parsed.out = Some(next(&mut args, "--out")),
            "--repeats" => {
                parsed.repeats = next(&mut args, "--repeats").parse().expect("--repeats")
            }
            "--service-time-us" => {
                parsed.service_time_us = next(&mut args, "--service-time-us")
                    .parse()
                    .expect("--service-time-us")
            }
            "--max-overhead-pct" => {
                parsed.max_overhead_pct = Some(
                    next(&mut args, "--max-overhead-pct")
                        .parse()
                        .expect("--max-overhead-pct"),
                )
            }
            "--cadences" => {
                parsed.cadences = next(&mut args, "--cadences")
                    .split(',')
                    .map(|t| t.parse().expect("--cadences takes e.g. 1,16,256"))
                    .collect()
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: resume_bench [--names N] [--seed S] [--out PATH] \
                     [--cadences 1,16,256] [--repeats R] [--service-time-us US] \
                     [--max-overhead-pct X]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let scratch = std::env::temp_dir().join(format!("ens-resume-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    eprintln!(
        "sweeping checkpoint cadences {:?} over a {}-name world \
         (seed {}, {} repeats, {} us/page service time)...",
        args.cadences, args.names, args.seed, args.repeats, args.service_time_us
    );
    let report = run_resume_bench(
        args.names,
        args.seed,
        &args.cadences,
        args.repeats,
        args.service_time_us,
        &scratch,
    );

    let json = report.to_json();
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).expect("write bench json");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }

    let sweep = &report.sweep;
    eprintln!(
        "baseline: {:.1} ms for {} pages at {} us/page ({:.1} ms raw, latency model off)",
        sweep.baseline_ms, sweep.pages, sweep.page_service_time_us, sweep.raw_baseline_ms
    );
    for run in &sweep.runs {
        eprintln!(
            "  every {:>5}: {:.1} ms ({:+.2}%), raw {:.1} ms ({:+.1}%), {} segments, \
             identical: {}",
            run.every,
            run.crawl_ms,
            run.overhead_pct,
            run.raw_crawl_ms,
            run.raw_overhead_pct,
            run.checkpoint_writes,
            run.identical
        );
    }
    eprintln!(
        "kill/resume: died at page {} of {} in {:.1} ms, resumed in {:.1} ms \
         splicing {} pages, identical: {}",
        report.resume.killed_after_pages,
        report.resume.total_pages,
        report.resume.killed_attempt_ms,
        report.resume.resume_ms,
        report.resume.pages_spliced,
        report.resume.identical
    );

    if !report.outputs_identical {
        eprintln!("FAIL: a checkpointed or resumed crawl diverged from the baseline");
        std::process::exit(1);
    }
    if let Some(max) = args.max_overhead_pct {
        let got = report.default_overhead_pct;
        // NaN (default cadence missing from --cadences) must also fail.
        if got.is_nan() || got > max {
            eprintln!(
                "FAIL: default cadence (every {}) overhead {got:.2}% exceeds {max:.2}% \
                 (is {} in --cadences?)",
                report.default_every, report.default_every
            );
            std::process::exit(1);
        }
        eprintln!("default cadence overhead {got:.2}% <= required {max:.2}%");
    }
    std::fs::remove_dir_all(&scratch).ok();
}
