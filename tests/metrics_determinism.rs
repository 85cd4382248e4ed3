//! The observability layer's headline guarantee, under chaos: the
//! *deterministic* section of the metrics snapshot (counters, histograms,
//! span call counts and virtual durations) is byte-identical at any worker
//! thread count, its counters reconcile exactly with the `CrawlReport`'s
//! own accounting, and instrumentation never changes the dataset or the
//! rendered study report.

use ens_dropcatch_suite::analysis::{
    run_study_on_metered, CrawlConfig, DataSources, Dataset, FailurePolicy, Metrics, StudyConfig,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::FaultProfile;
use ens_dropcatch_suite::workload::WorldConfig;

fn mixed_profile() -> FaultProfile {
    FaultProfile::named("mixed", 4242).expect("mixed is a named profile")
}

fn chaotic_config(threads: usize) -> CrawlConfig {
    CrawlConfig {
        chaos: Some(mixed_profile()),
        failure: FailurePolicy::degrade(),
        subgraph_page_size: 32,
        txlist_page_size: 16,
        market_page_size: 8,
        ..CrawlConfig::with_threads(threads)
    }
}

/// Collects under chaos and runs the full metered study; returns the
/// dataset JSON, the rendered report, and the metrics snapshot.
fn metered_study(threads: usize) -> (String, String, ens_dropcatch_suite::obs::MetricsSnapshot) {
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let metrics = Metrics::new();
    let (ds, _) = Dataset::try_collect_metered(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &chaotic_config(threads),
        &metrics,
    )
    .expect("degrade policy completes under chaos");
    let sources = DataSources {
        subgraph: &sg,
        etherscan: &scan,
        opensea: world.opensea(),
        oracle: world.oracle(),
        observation_end: world.observation_end(),
        crawl: chaotic_config(threads),
    };
    let config = StudyConfig {
        threads,
        ..StudyConfig::default()
    };
    let report = run_study_on_metered(&ds, &sources, &config, &metrics);
    (
        ds.to_json().expect("dataset serializes"),
        report.render(),
        metrics.snapshot(),
    )
}

#[test]
fn deterministic_snapshot_is_byte_identical_across_thread_counts() {
    let (_, _, sequential) = metered_study(1);
    let baseline = sequential.deterministic_json();
    assert!(baseline.contains("\"counters\""));
    for threads in [2, 8] {
        let (_, _, snap) = metered_study(threads);
        assert_eq!(
            baseline,
            snap.deterministic_json(),
            "deterministic metrics diverge at {threads} threads"
        );
    }
}

#[test]
fn counters_reconcile_with_the_crawl_report() {
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let metrics = Metrics::new();
    let (ds, _) = Dataset::try_collect_metered(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &chaotic_config(4),
        &metrics,
    )
    .expect("degrade policy completes under chaos");
    let snap = metrics.snapshot();
    let report = &ds.crawl_report;

    // Per-source page/item/backoff accounting matches the report exactly.
    for (name, stats) in [
        ("subgraph", &report.subgraph),
        ("txlist", &report.txlist),
        ("market", &report.market),
    ] {
        assert_eq!(
            snap.counter(&format!("crawl/{name}/pages")),
            stats.pages as u64,
            "{name} pages"
        );
        assert_eq!(
            snap.counter(&format!("crawl/{name}/items")),
            stats.items as u64,
            "{name} items"
        );
        assert_eq!(
            snap.counter(&format!("crawl/{name}/backoff_virtual_ms")),
            stats.backoff_virtual_ms,
            "{name} virtual backoff"
        );
        // Retries by kind match the typed counters.
        for (suffix, count) in [
            ("rate_limited", stats.retries_by_kind.rate_limited),
            ("timeout", stats.retries_by_kind.timeout),
            ("server_error", stats.retries_by_kind.server_error),
            ("malformed", stats.retries_by_kind.malformed),
        ] {
            assert_eq!(
                snap.counter(&format!("crawl/{name}/retries/{suffix}")),
                count as u64,
                "{name} retries/{suffix}"
            );
        }
    }

    // Gap and loss accounting: per-source counts sum to the merged report.
    let gap_total: u64 = ["subgraph", "txlist", "market"]
        .iter()
        .map(|n| snap.counter(&format!("crawl/{n}/gaps")))
        .sum();
    assert_eq!(gap_total, report.gaps.len() as u64);
    assert!(gap_total > 0, "the mixed profile has a hole");
    let lost_total: u64 = ["subgraph", "txlist", "market"]
        .iter()
        .map(|n| snap.counter(&format!("crawl/{n}/lost_items_estimate")))
        .sum();
    assert_eq!(lost_total, report.lost_items_estimate as u64);

    // Collection-level summary counters mirror the report's headline rows.
    assert_eq!(snap.counter("collect/domains"), report.domains as u64);
    assert_eq!(
        snap.counter("collect/transactions"),
        report.transactions as u64
    );
    assert_eq!(
        snap.counter("collect/addresses_crawled"),
        report.addresses_crawled as u64
    );
    assert_eq!(snap.counter("collect/gaps"), report.gaps.len() as u64);

    // The collect span exists and carries the crawl's virtual backoff.
    let collect = snap
        .spans
        .iter()
        .find(|s| s.path == "collect")
        .expect("collect span recorded");
    assert_eq!(collect.calls, 1);
    let span_backoff: u64 = snap
        .spans
        .iter()
        .filter(|s| s.path.starts_with("collect/crawl/"))
        .map(|s| s.virtual_ms)
        .sum();
    assert_eq!(span_backoff, report.backoff_virtual_ms());
}

#[test]
fn index_query_counters_count_each_public_call_exactly_once() {
    let (_, _, snap) = metered_study(1);
    // Pinned totals for the 400-name / seed-88 chaotic fixture. Before
    // the overcount fix, `unique_senders` routed through the public
    // `incoming` accessor internally, inflating `index/queries/incoming`
    // by exactly the `unique_senders` total (to 1496 here); each public
    // query must bump exactly one counter. `incoming` is 36 calls from
    // the loss pass plus one per scored registration (356) from the
    // countermeasure pass, which walks each tenure once for all four
    // policies: 36 + 356 = 392 (it was 36 + 4 x 356 = 1460 when each
    // policy rescanned every tenure).
    assert_eq!(snap.counter("index/queries/incoming"), 392);
    assert_eq!(snap.counter("index/queries/income"), 201);
    assert_eq!(snap.counter("index/queries/unique_senders"), 36);
}

#[test]
fn pipeline_histograms_expose_underflow_explicitly() {
    let (_, _, snap) = metered_study(1);
    assert!(
        !snap.histograms.is_empty(),
        "the metered pipeline records histograms"
    );
    for (name, h) in &snap.histograms {
        // Every pipeline histogram starts its edges at 0, so no u64
        // observation can underflow — but the counter must exist and be
        // serialized, so out-of-range samples can never silently fold
        // into bucket 0 again.
        assert_eq!(h.edges[0], 0, "{name} edges start at 0");
        assert_eq!(h.underflow, 0, "{name} has no underflow");
        assert_eq!(
            h.total(),
            h.counts.iter().sum::<u64>() + h.underflow,
            "{name} total accounts for underflow"
        );
    }
    assert!(
        snap.deterministic_json().contains("\"underflow\": 0"),
        "the deterministic snapshot serializes the underflow counter"
    );
}

#[test]
fn instrumentation_never_changes_dataset_or_report() {
    let (metered_json, metered_render, _) = metered_study(2);

    // Same collection + study with the disabled handle (the unmetered
    // public entry points): byte-identical dataset and rendered report.
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let (ds, _) = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &chaotic_config(2),
    )
    .expect("degrade policy completes under chaos");
    let sources = DataSources {
        subgraph: &sg,
        etherscan: &scan,
        opensea: world.opensea(),
        oracle: world.oracle(),
        observation_end: world.observation_end(),
        crawl: chaotic_config(2),
    };
    let config = StudyConfig {
        threads: 2,
        ..StudyConfig::default()
    };
    let report = ens_dropcatch_suite::analysis::run_study_on(&ds, &sources, &config);
    assert_eq!(metered_json, ds.to_json().unwrap());
    assert_eq!(metered_render, report.render());
}

#[test]
fn disabled_metrics_record_nothing() {
    let metrics = Metrics::disabled();
    metrics.add("x", 7);
    metrics.observe("h", 3);
    let _span = metrics.span("s");
    let snap = metrics.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.spans.is_empty());
    assert_eq!(
        snap.deterministic_json(),
        Metrics::new().snapshot().deterministic_json()
    );
}
