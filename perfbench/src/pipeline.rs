//! The batch side of a workload: seed → world → sources (set-up), then
//! sources → crawl → `.ensc` → load → index → §4 passes → rendered report
//! (the study). Every call below is a public function of the layer it
//! names, wrapped in a span of that name.

use std::path::Path;

use ens_dropcatch::{
    analyze_losses_with, analyze_resales, compare_features_with,
    countermeasures::evaluate_countermeasure_with, overview_from, run_study_on_naive,
    run_study_with_index, AnalysisIndex, CheckpointSpec, CrawlConfig, DataSources, Dataset,
    FailurePolicy, Format, Metrics, StudyConfig, StudyReport, DEFAULT_CHECKPOINT_EVERY,
};
use ens_subgraph::{Subgraph, SubgraphConfig};
use ens_types::{FaultProfile, Timestamp};
use etherscan_sim::Etherscan;
use workload::engine::{execute_consuming, Executed};
use workload::{build_plan, NameTruth, WorldConfig};

use crate::trace::Tracer;
use crate::THREADS;

/// The world and crawl shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// `WorldConfig::paper_scale()` (sparse, ~3 transactions per name)
    /// instead of the default preset (~25 per name, custodial hubs).
    pub paper_scale: bool,
    pub names: usize,
    /// The `mixed` fault profile under `FailurePolicy::Degrade`, with
    /// checkpointing at the default cadence; otherwise clean sources and
    /// fail-fast.
    pub chaos: bool,
}

impl Shape {
    pub fn world(&self, seed: u64, divisor: usize) -> WorldConfig {
        let preset = if self.paper_scale {
            WorldConfig::paper_scale()
        } else {
            WorldConfig::default()
        };
        preset
            .with_names((self.names / divisor).max(1))
            .with_seed(seed)
    }

    fn crawl(&self, seed: u64) -> CrawlConfig {
        let mut crawl = CrawlConfig::with_threads(THREADS);
        if self.chaos {
            crawl.chaos = FaultProfile::named("mixed", seed);
            crawl.failure = FailurePolicy::degrade();
        }
        crawl
    }
}

/// What set-up produces: the executed world and the two crawlable views.
pub struct Sources {
    pub executed: Executed,
    /// Held only so that its drop falls outside the timed window.
    #[allow(dead_code)]
    pub truth: Vec<NameTruth>,
    pub subgraph: Subgraph,
    pub etherscan: Etherscan,
    pub observation_end: Timestamp,
}

/// Seed → `World`, `Subgraph` and `Etherscan` ready.
pub fn setup(config: &WorldConfig, tracer: &Tracer) -> Result<Sources, String> {
    tracer.span("setup", || {
        let plan = tracer.span("world.plan", || build_plan(config));
        let (executed, truth) = tracer
            .span("world.execute", || execute_consuming(config, plan))
            .map_err(|e| format!("world execution failed: {e}"))?;
        let subgraph = tracer.span("sources.subgraph", || {
            Subgraph::index(executed.ens.events(), SubgraphConfig::default())
        });
        let etherscan = tracer.span("sources.etherscan", || {
            Etherscan::index(&executed.chain, executed.labels.clone())
        });
        Ok(Sources {
            executed,
            truth,
            subgraph,
            etherscan,
            observation_end: config.observation_end,
        })
    })
}

/// Everything one study pass leaves behind, kept so its drop happens
/// outside the timed window and the gates can inspect it.
pub struct StudyRun {
    /// Held only so that its drop falls outside the timed window.
    #[allow(dead_code)]
    pub collected: Dataset,
    pub loaded: Dataset,
    pub index: AnalysisIndex,
    pub report: StudyReport,
    pub rendered: String,
    /// Live when tracing (crawl and checkpoint counters), else disabled.
    pub metrics: Metrics,
}

fn data_sources<'a>(src: &'a Sources, crawl: CrawlConfig) -> DataSources<'a> {
    DataSources {
        subgraph: &src.subgraph,
        etherscan: &src.etherscan,
        opensea: &src.executed.opensea,
        oracle: &src.executed.oracle,
        observation_end: src.observation_end,
        crawl,
    }
}

fn study_config() -> StudyConfig {
    StudyConfig {
        threads: THREADS,
        ..StudyConfig::default()
    }
}

/// Sources → rendered report: collect, save and load the `.ensc` through
/// `dir`, build the index, run each §4 pass and render.
pub fn study(
    src: &Sources,
    shape: &Shape,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
) -> Result<StudyRun, String> {
    let metrics = if tracer.enabled() {
        Metrics::new()
    } else {
        Metrics::disabled()
    };
    let sources = data_sources(src, shape.crawl(seed));
    let store = dir.join("dataset.ensc");
    let config = study_config();
    tracer.span("study", || {
        let (collected, _) = tracer.span("crawl.collect", || {
            let collected = if shape.chaos {
                let spec =
                    CheckpointSpec::new(dir.join("crawl.ckpt")).every(DEFAULT_CHECKPOINT_EVERY);
                sources.try_collect_checkpointed(&metrics, &spec, None)
            } else {
                sources.try_collect_metered(&metrics)
            };
            collected.map_err(|e| format!("collection failed: {e}"))
        })?;
        tracer
            .span("store.encode", || collected.save(&store, Format::Columnar))
            .map_err(|e| format!("save failed: {e}"))?;
        let loaded = tracer
            .span("store.decode", || Dataset::load(&store))
            .map_err(|e| format!("load failed: {e}"))?;
        let index = tracer.span("index.build", || {
            AnalysisIndex::build_with_threads(&loaded, sources.oracle, THREADS)
        });
        let report = passes(&loaded, &sources, &config, &index, tracer);
        let rendered = tracer.span("report.render", || report.render());
        Ok(StudyRun {
            collected,
            loaded,
            index,
            report,
            rendered,
            metrics,
        })
    })
}

/// The §4 passes called one by one, assembled the way
/// `run_study_with_index` assembles them.
fn passes(
    dataset: &Dataset,
    sources: &DataSources<'_>,
    config: &StudyConfig,
    index: &AnalysisIndex,
    tracer: &Tracer,
) -> StudyReport {
    let overview = tracer.span("study.overview", || {
        overview_from(
            &dataset.domains,
            dataset.observation_end,
            index.reregistrations().to_vec(),
        )
    });
    let features = tracer.span("study.features", || {
        compare_features_with(dataset, config.control_seed, index, config.threads)
    });
    let losses = tracer.span("study.losses", || {
        analyze_losses_with(dataset, sources.oracle, index, config.threads)
    });
    let resale = tracer.span("study.resale", || {
        analyze_resales(&overview.reregistrations, &dataset.market)
    });
    let countermeasures = tracer.span("study.countermeasures", || {
        evaluate_countermeasure_with(&losses, dataset, index, config.warning_window)
    });
    StudyReport {
        crawl: dataset.crawl_report.clone(),
        overview,
        features,
        losses,
        resale,
        countermeasures,
    }
}

// The study's correctness gates, run outside the timed window. Each
// returns a description of the divergence, if any.

/// The indexed report equals the naive baseline's on the loaded dataset,
/// byte for byte as JSON and as rendered text.
pub fn gate_naive(run: &StudyRun, src: &Sources, shape: &Shape, seed: u64) -> Option<String> {
    let sources = data_sources(src, shape.crawl(seed));
    let naive = run_study_on_naive(&run.loaded, &sources, &study_config());
    if run.rendered != naive.render() {
        return Some("rendered report differs from the naive baseline's".to_string());
    }
    same_json("indexed report vs naive baseline", &run.report, &naive)
}

/// The report assembled from the single passes equals
/// `run_study_with_index`'s.
pub fn gate_assembled(run: &StudyRun, src: &Sources, shape: &Shape, seed: u64) -> Option<String> {
    let sources = data_sources(src, shape.crawl(seed));
    let whole = run_study_with_index(&run.loaded, &sources, &study_config(), &run.index);
    same_json(
        "assembled report vs run_study_with_index",
        &run.report,
        &whole,
    )
}

/// Re-encoding the decoded dataset gives the bytes on disk.
pub fn gate_reencode(run: &StudyRun, dir: &Path) -> Option<String> {
    let on_disk = match std::fs::read(dir.join("dataset.ensc")) {
        Ok(bytes) => bytes,
        Err(e) => return Some(format!("cannot re-read the .ensc: {e}")),
    };
    match run.loaded.to_bytes(Format::Columnar) {
        Ok(bytes) if bytes == on_disk => None,
        Ok(bytes) => Some(format!(
            "re-encoded .ensc differs ({} bytes vs {} on disk)",
            bytes.len(),
            on_disk.len()
        )),
        Err(e) => Some(format!("re-encode failed: {e}")),
    }
}

fn same_json(what: &str, a: &StudyReport, b: &StudyReport) -> Option<String> {
    match (serde_json::to_string(a), serde_json::to_string(b)) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(a), Ok(b)) => {
            let at = a
                .bytes()
                .zip(b.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or(a.len().min(b.len()));
            Some(format!("{what}: JSON differs from byte {at}"))
        }
        (Err(e), _) | (_, Err(e)) => Some(format!("{what}: serialization failed: {e}")),
    }
}
