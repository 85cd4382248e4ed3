//! The assembled study dataset: domain histories + per-address transaction
//! lists + the crawled marketplace events, with the observation window.
//!
//! # Ownership
//!
//! The dataset *owns* everything the analyses read, so a serialized export
//! is self-contained and an offline `analyze` run needs no simulator. The
//! two pieces of backend state that used to be deep-cloned on every
//! collection — the explorer's label directory and the subgraph's
//! reverse-claim history — are now shared snapshots (`Arc`): the sources
//! hand out an owned handle once and collection never copies them.
//!
//! # Failure handling
//!
//! Collection is fallible: every endpoint crawl can fail past its retry
//! budget, and [`Dataset::try_collect_with`] propagates that as a
//! [`CollectError`]. Under a `Degrade` [`FailurePolicy`] the crawl records
//! [`CrawlGap`](crate::crawl::CrawlGap)s instead of aborting, the report is
//! marked `degraded`, and [`CrawlConfig::min_recovery`] gates whether a
//! lossy dataset is still acceptable for the study. A [`FaultProfile`]
//! in [`CrawlConfig::chaos`] wraps every endpoint in a deterministic
//! [`ChaosSource`] — the chaos harness used by tests, the CI chaos job and
//! the `--chaos` CLI flag.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use ens_obs::Metrics;
use ens_subgraph::{DomainRecord, Subgraph, SubgraphConfig};
use ens_types::paged::{ChaosSource, FaultProfile, KillSwitch, ShardKey};
use ens_types::{Address, Timestamp, UsdCents};
use etherscan_sim::{Etherscan, LabelService};
use opensea_sim::{MarketEvent, OpenSea};
use price_oracle::PriceOracle;
use serde::{Deserialize, Serialize};
use sim_chain::{Transaction, TxKind};

use crate::checkpoint::{
    config_fingerprint, load_for_resume, CheckpointJournal, CheckpointLoad, CheckpointSpec,
    CrawlCheckpoint,
};
use crate::crawl::{
    relevant_addresses, CrawlError, CrawlReport, CrawlTimings, Crawled, Crawler, FailurePolicy,
    KeyedCrawl, RetryPolicy,
};

/// Knobs for one collection run — thread count, retry/failure policies, the
/// minimum acceptable recovery rate, an optional chaos profile, and the
/// page size used against each endpoint (each endpoint additionally
/// enforces its own server-side cap).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrawlConfig {
    /// Worker threads for the sharded crawls (and nothing else); `1` is
    /// fully sequential. Any value produces a byte-identical dataset.
    pub threads: usize,
    /// Retry schedule per page.
    pub retry: RetryPolicy,
    /// What to do when a page stays unfetchable: abort (`FailFast`) or
    /// record a gap and continue (`Degrade`).
    pub failure: FailurePolicy,
    /// Minimum acceptable item recovery rate in `[0, 1]`. A degraded crawl
    /// whose [`CrawlReport::item_recovery_rate`] falls below this fails
    /// collection with [`CollectError::RecoveryBelowMinimum`]. `0.0`
    /// accepts any completed crawl.
    pub min_recovery: f64,
    /// Optional fault-injection profile. When set, every endpoint is
    /// wrapped in a [`ChaosSource`] seeded per source (and per address for
    /// the `txlist` crawl), so runs are deterministically faulty.
    pub chaos: Option<FaultProfile>,
    /// Page size against the subgraph (server cap 1000).
    pub subgraph_page_size: usize,
    /// Page size against the explorer `txlist` (server cap 10,000).
    pub txlist_page_size: usize,
    /// Page size against the marketplace event stream (server cap 50).
    pub market_page_size: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            threads: 1,
            retry: RetryPolicy::default(),
            failure: FailurePolicy::FailFast,
            min_recovery: 0.0,
            chaos: None,
            subgraph_page_size: 1000,
            txlist_page_size: 10_000,
            market_page_size: opensea_sim::MAX_EVENTS_PAGE,
        }
    }
}

impl CrawlConfig {
    /// A default configuration with the given thread count.
    pub fn with_threads(threads: usize) -> CrawlConfig {
        CrawlConfig {
            threads,
            ..CrawlConfig::default()
        }
    }

    fn crawler(&self, page_size: usize) -> Crawler {
        Crawler {
            page_size,
            threads: self.threads,
            retry: self.retry,
            failure: self.failure,
        }
    }
}

/// Why a collection run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CollectError {
    /// A crawl gave up (retry budget exhausted under `FailFast`, or a
    /// `Degrade` loss budget was exceeded). An injected process death
    /// ([`FaultKind::Killed`](ens_types::FaultKind::Killed)) also lands
    /// here — the checkpoint file, if any, stays on disk for `--resume`.
    Crawl(CrawlError),
    /// A checkpointed collection could not persist its resume state
    /// (serialization or atomic-write failure). The crawl itself may have
    /// been healthy; the durability guarantee was not.
    Checkpoint(String),
    /// The crawl completed, but recovered too little of the data.
    RecoveryBelowMinimum {
        /// The recovery the crawl achieved.
        achieved: f64,
        /// The configured [`CrawlConfig::min_recovery`].
        required: f64,
        /// Estimated items lost across all gaps.
        lost_items: usize,
    },
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Crawl(e) => write!(f, "collection failed: {e}"),
            CollectError::Checkpoint(msg) => write!(f, "checkpointing failed: {msg}"),
            CollectError::RecoveryBelowMinimum {
                achieved,
                required,
                lost_items,
            } => write!(
                f,
                "collection recovered too little: {:.4} < required {:.4} (~{lost_items} items lost)",
                achieved, required
            ),
        }
    }
}

impl std::error::Error for CollectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectError::Crawl(e) => Some(e),
            CollectError::Checkpoint(_) | CollectError::RecoveryBelowMinimum { .. } => None,
        }
    }
}

impl From<CrawlError> for CollectError {
    fn from(e: CrawlError) -> Self {
        CollectError::Crawl(e)
    }
}

/// The dataset every analysis module reads.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// All crawled domain records.
    pub domains: Vec<DomainRecord>,
    /// Per-address transaction histories (in and out, chain order), keyed
    /// in address order so iteration and serialization are deterministic.
    pub transactions: BTreeMap<Address, Vec<Transaction>>,
    /// End of the observation window.
    pub observation_end: Timestamp,
    /// Address labels pulled from the explorer (custodial exchange and
    /// Coinbase sets — the paper's 558 + 25 addresses). A shared snapshot
    /// of the explorer's directory, not a copy.
    pub labels: Arc<LabelService>,
    /// Primary-name (reverse) claim history per address, a shared snapshot
    /// of the subgraph's history.
    pub reverse_claims: Arc<HashMap<Address, Vec<(Timestamp, String)>>>,
    /// The marketplace, rebuilt from the crawled event stream — this is
    /// what makes §4.2's resale join reproducible from the export alone.
    pub market: OpenSea,
    /// What the crawl recovered.
    pub crawl_report: CrawlReport,
}

impl Dataset {
    /// Runs the full collection pipeline of the paper's Fig 1 against the
    /// data sources, single-threaded with default page sizes.
    ///
    /// # Panics
    ///
    /// Panics if a crawl fails — with the default fail-fast config and no
    /// chaos profile the simulated endpoints are infallible, so this is
    /// the convenience entry point for clean runs. Fallible collection
    /// (chaos, degrade policies, recovery gates) goes through
    /// [`Dataset::try_collect_with`].
    pub fn collect(
        subgraph: &Subgraph,
        etherscan: &Etherscan,
        opensea: &OpenSea,
        observation_end: Timestamp,
    ) -> Dataset {
        Dataset::try_collect_with(
            subgraph,
            etherscan,
            opensea,
            observation_end,
            &CrawlConfig::default(),
        )
        .expect("clean endpoints with fail-fast defaults cannot fail")
        .0
    }

    /// [`Dataset::collect`] with explicit crawl knobs.
    ///
    /// # Panics
    ///
    /// Panics if a crawl fails; use [`Dataset::try_collect_with`] when the
    /// config can fail (chaos profiles, loss budgets, recovery gates).
    pub fn collect_with(
        subgraph: &Subgraph,
        etherscan: &Etherscan,
        opensea: &OpenSea,
        observation_end: Timestamp,
        config: &CrawlConfig,
    ) -> (Dataset, CrawlTimings) {
        Dataset::try_collect_with(subgraph, etherscan, opensea, observation_end, config)
            .expect("collection failed")
    }

    /// Fallible collection: runs the full pipeline of the paper's Fig 1,
    /// propagating crawl failures and enforcing the configured minimum
    /// recovery rate. Also returns the per-source wall-clock timings
    /// (which are *not* part of the dataset — see [`CrawlTimings`]).
    pub fn try_collect_with(
        subgraph: &Subgraph,
        etherscan: &Etherscan,
        opensea: &OpenSea,
        observation_end: Timestamp,
        config: &CrawlConfig,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        Dataset::try_collect_metered(
            subgraph,
            etherscan,
            opensea,
            observation_end,
            config,
            &Metrics::disabled(),
        )
    }

    /// [`Dataset::try_collect_with`] under a `collect` span, recording
    /// per-source crawl accounting and collection totals into `metrics`.
    /// Instrumentation never changes the dataset: the serialized JSON is
    /// byte-identical with or without a live metrics handle, and the
    /// recorded deterministic section is identical at any thread count.
    pub fn try_collect_metered(
        subgraph: &Subgraph,
        etherscan: &Etherscan,
        opensea: &OpenSea,
        observation_end: Timestamp,
        config: &CrawlConfig,
        metrics: &Metrics,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        let span = metrics.span("collect");
        // Each endpoint gets its own derived chaos profile (and each
        // address its own, for the keyed txlist crawl) so injected faults
        // never land in lockstep across sources.
        let crawled = match &config.chaos {
            None => config
                .crawler(config.subgraph_page_size)
                .crawl_metered(subgraph, metrics)?,
            Some(p) => config
                .crawler(config.subgraph_page_size)
                .crawl_metered(&ChaosSource::new(subgraph, p.derive("subgraph")), metrics)?,
        };
        let domains = crawled.items;

        let addresses = relevant_addresses(&domains);
        let tx_crawl = match &config.chaos {
            None => {
                let tx_sources: Vec<_> = addresses
                    .iter()
                    .map(|&a| (a, etherscan.txlist_source(a)))
                    .collect();
                config
                    .crawler(config.txlist_page_size)
                    .crawl_keyed_metered(&tx_sources, metrics)?
            }
            Some(p) => {
                let tx_sources: Vec<_> = addresses
                    .iter()
                    .map(|&a| {
                        (
                            a,
                            ChaosSource::new(
                                etherscan.txlist_source(a),
                                p.derive_keyed("txlist", a.shard_hash()),
                            ),
                        )
                    })
                    .collect();
                config
                    .crawler(config.txlist_page_size)
                    .crawl_keyed_metered(&tx_sources, metrics)?
            }
        };
        let transactions = tx_crawl.map;

        let market_crawl = match &config.chaos {
            None => config
                .crawler(config.market_page_size)
                .crawl_metered(opensea, metrics)?,
            Some(p) => config
                .crawler(config.market_page_size)
                .crawl_metered(&ChaosSource::new(opensea, p.derive("market")), metrics)?,
        };
        let result = assemble_dataset(
            subgraph,
            etherscan,
            observation_end,
            config,
            metrics,
            Crawled {
                items: domains,
                stats: crawled.stats,
                gaps: crawled.gaps,
                elapsed: crawled.elapsed,
            },
            KeyedCrawl {
                map: transactions,
                stats: tx_crawl.stats,
                gaps: tx_crawl.gaps,
                elapsed: tx_crawl.elapsed,
            },
            market_crawl,
            addresses.len(),
        );
        drop(span);
        result
    }

    /// [`Dataset::try_collect_metered`] with crash-safe checkpointing: the
    /// run persists its resume watermark — every fully-committed shard of
    /// every phase — to `spec.path` at the configured page cadence (atomic
    /// temp-file + rename, so a crash never leaves a torn file), and when
    /// `spec.resume` is set, a valid checkpoint with a matching
    /// [`config_fingerprint`] is *spliced*: committed shards are restored
    /// from disk instead of refetched, and the final dataset and
    /// [`CrawlReport`] are byte-identical to an uninterrupted run at any
    /// thread count. A corrupt or stale checkpoint is discarded (counted in
    /// `checkpoint/corrupt_fallback` / `checkpoint/stale_fallback`) and the
    /// crawl starts clean — never a panic, never a mis-splice.
    ///
    /// `kill` optionally injects a deterministic process death
    /// ([`FaultKind::Killed`](ens_types::FaultKind::Killed)) after the
    /// switch's page budget, shared across *all* endpoints of the run —
    /// the crash-recovery test harness. When a kill (or any other crawl
    /// failure) aborts collection, the checkpoint file keeps its last
    /// committed state for a later `--resume`; nothing is flushed at the
    /// moment of death, exactly like a real crash.
    ///
    /// On success the checkpoint and its staging sibling are deleted: a
    /// completed run needs no resume point.
    #[allow(clippy::too_many_arguments)]
    pub fn try_collect_checkpointed(
        subgraph: &Subgraph,
        etherscan: &Etherscan,
        opensea: &OpenSea,
        observation_end: Timestamp,
        config: &CrawlConfig,
        metrics: &Metrics,
        spec: &CheckpointSpec,
        kill: Option<Arc<KillSwitch>>,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        let span = metrics.span("collect");
        let fingerprint = config_fingerprint(config, observation_end, spec.fingerprint_extra);
        let resumed = if spec.resume {
            match load_for_resume(&spec.path, fingerprint) {
                CheckpointLoad::Fresh => CrawlCheckpoint::new(fingerprint),
                CheckpointLoad::Resumed(ckpt) => {
                    metrics.incr("checkpoint/loads");
                    metrics.add("checkpoint/skipped_pages", ckpt.committed_pages());
                    *ckpt
                }
                CheckpointLoad::DiscardedCorrupt(_) => {
                    metrics.incr("checkpoint/corrupt_fallback");
                    CrawlCheckpoint::new(fingerprint)
                }
                CheckpointLoad::DiscardedStale => {
                    metrics.incr("checkpoint/stale_fallback");
                    CrawlCheckpoint::new(fingerprint)
                }
            }
        } else {
            CrawlCheckpoint::new(fingerprint)
        };
        let journal = CheckpointJournal::new(spec, fingerprint, &resumed)
            .map_err(|e| CollectError::Checkpoint(e.to_string()))?;
        let CrawlCheckpoint {
            subgraph: done_subgraph,
            txlist: done_txlist,
            market: done_market,
            ..
        } = resumed;
        // A kill switch needs a `ChaosSource` host even when no chaos was
        // asked for; an all-zero profile injects nothing, so wrapping is
        // byte-transparent.
        let profile = config
            .chaos
            .clone()
            .or_else(|| kill.as_ref().map(|_| FaultProfile::new(0)));

        let crawler = config.crawler(config.subgraph_page_size);
        let crawled = match &profile {
            None => crawler.crawl_resumable_metered(
                subgraph,
                done_subgraph,
                |shard, c| {
                    journal.commit_subgraph(shard, c);
                },
                metrics,
            )?,
            Some(p) => crawler.crawl_resumable_metered(
                &ChaosSource::with_kill_switch(subgraph, p.derive("subgraph"), kill.clone()),
                done_subgraph,
                |shard, c| {
                    journal.commit_subgraph(shard, c);
                },
                metrics,
            )?,
        };
        journal.flush();
        if let Some(msg) = journal.take_error() {
            return Err(CollectError::Checkpoint(msg));
        }

        let addresses = relevant_addresses(&crawled.items);
        let crawler = config.crawler(config.txlist_page_size);
        let tx_crawl = match &profile {
            None => {
                let tx_sources: Vec<_> = addresses
                    .iter()
                    .map(|&a| (a, etherscan.txlist_source(a)))
                    .collect();
                crawler.crawl_keyed_resumable_metered(
                    &tx_sources,
                    done_txlist,
                    |addr, c| {
                        journal.commit_txlist(*addr, c);
                    },
                    metrics,
                )?
            }
            Some(p) => {
                let tx_sources: Vec<_> = addresses
                    .iter()
                    .map(|&a| {
                        (
                            a,
                            ChaosSource::with_kill_switch(
                                etherscan.txlist_source(a),
                                p.derive_keyed("txlist", a.shard_hash()),
                                kill.clone(),
                            ),
                        )
                    })
                    .collect();
                crawler.crawl_keyed_resumable_metered(
                    &tx_sources,
                    done_txlist,
                    |addr, c| {
                        journal.commit_txlist(*addr, c);
                    },
                    metrics,
                )?
            }
        };
        journal.flush();
        if let Some(msg) = journal.take_error() {
            return Err(CollectError::Checkpoint(msg));
        }

        let crawler = config.crawler(config.market_page_size);
        let market_crawl = match &profile {
            None => crawler.crawl_resumable_metered(
                opensea,
                done_market,
                |shard, c| {
                    journal.commit_market(shard, c);
                },
                metrics,
            )?,
            Some(p) => crawler.crawl_resumable_metered(
                &ChaosSource::with_kill_switch(opensea, p.derive("market"), kill.clone()),
                done_market,
                |shard, c| {
                    journal.commit_market(shard, c);
                },
                metrics,
            )?,
        };
        if let Some(msg) = journal.take_error() {
            return Err(CollectError::Checkpoint(msg));
        }
        metrics.add("checkpoint/writes", journal.writes());
        // Every phase completed: the resume point is obsolete. Best-effort
        // cleanup — a leftover chain would only ever be discarded as stale.
        crate::checkpoint::remove_chain(&spec.path);

        let addresses_crawled = addresses.len();
        let result = assemble_dataset(
            subgraph,
            etherscan,
            observation_end,
            config,
            metrics,
            crawled,
            tx_crawl,
            market_crawl,
            addresses_crawled,
        );
        drop(span);
        result
    }

    /// Incoming value transfers to `address` (mints and contract payments
    /// excluded), optionally bounded to `[from, to)`.
    pub fn incoming(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> impl Iterator<Item = &Transaction> {
        self.transactions
            .get(&address)
            .into_iter()
            .flatten()
            .filter(move |tx| {
                tx.to == address
                    && tx.from != address
                    && matches!(tx.kind, TxKind::Transfer)
                    && window.is_none_or(|(a, b)| tx.timestamp >= a && tx.timestamp < b)
            })
    }

    /// Total USD received by `address` in a window, valued at the day of
    /// each transaction (the paper's income definition).
    pub fn income_usd(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
        oracle: &PriceOracle,
    ) -> UsdCents {
        self.incoming(address, window)
            .map(|tx| oracle.to_usd(tx.value, tx.timestamp))
            .sum()
    }

    /// The primary name `address` had claimed as of time `t`.
    pub fn primary_name_at(&self, address: Address, t: Timestamp) -> Option<&str> {
        primary_name_in(self.reverse_claims_of(address), t)
    }

    /// `address`'s reverse-claim history (empty if it never claimed a
    /// primary name) — one map lookup that callers asking about many
    /// times for the same address hoist out of their loop.
    pub(crate) fn reverse_claims_of(&self, address: Address) -> &[(Timestamp, String)] {
        self.reverse_claims.get(&address).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct senders to `address` in a window.
    pub fn unique_senders(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> usize {
        let mut senders: Vec<Address> = self.incoming(address, window).map(|t| t.from).collect();
        senders.sort_unstable();
        senders.dedup();
        senders.len()
    }

    /// JSON export of the whole dataset (the paper releases its dataset;
    /// so do we). Byte-identical for any [`CrawlConfig::threads`].
    ///
    /// JSON is the *interchange* form; the native on-disk form is the
    /// columnar container (see [`crate::storage`]). File-level consumers
    /// should go through the format-dispatching [`Dataset::save`] /
    /// [`Dataset::load`] seam in [`crate::export`] rather than calling
    /// either serializer directly.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Inverse of [`Dataset::to_json`]. Streaming and linear in input
    /// size: deserialization is driven from parser events (no
    /// intermediate `Value` tree), so multi-GB paper-scale exports
    /// ingest at memory-bandwidth-bound rates (~250 MB/s; see
    /// `json_bench` / `BENCH_json.json`). For files of unknown format,
    /// prefer [`Dataset::load`], which auto-detects columnar vs JSON.
    pub fn from_json(s: &str) -> serde_json::Result<Dataset> {
        serde_json::from_str(s)
    }
}

/// The primary name a reverse-claim history (see
/// [`Dataset::reverse_claims_of`]) had in force as of time `t`.
pub(crate) fn primary_name_in(claims: &[(Timestamp, String)], t: Timestamp) -> Option<&str> {
    claims
        .iter()
        .rfind(|(at, _)| *at <= t)
        .map(|(_, name)| name.as_str())
}

/// The shared tail of every collection path: concatenate gaps, build the
/// [`CrawlReport`], record collection totals, enforce the recovery gate
/// and assemble the dataset. Checkpointed and plain collection must agree
/// byte-for-byte, so they agree by construction — both end here.
#[allow(clippy::too_many_arguments)]
fn assemble_dataset(
    subgraph: &Subgraph,
    etherscan: &Etherscan,
    observation_end: Timestamp,
    config: &CrawlConfig,
    metrics: &Metrics,
    crawled: Crawled<DomainRecord>,
    tx_crawl: KeyedCrawl<Address, Transaction>,
    market_crawl: Crawled<MarketEvent>,
    addresses_crawled: usize,
) -> Result<(Dataset, CrawlTimings), CollectError> {
    let domains = crawled.items;
    let transactions = tx_crawl.map;
    let market = OpenSea::from_events(market_crawl.items);

    // Gaps concatenate in collection order (subgraph, txlist, market)
    // — deterministic because each crawl's gaps already merge in
    // canonical shard/key order.
    let mut gaps = crawled.gaps;
    gaps.extend(tx_crawl.gaps);
    gaps.extend(market_crawl.gaps);
    let lost_items_estimate = gaps.iter().map(|g| g.lost_estimate).sum();

    let stats = subgraph.stats();
    let crawl_report = CrawlReport {
        domains: domains.len(),
        unrecoverable_names: stats.unrecoverable_names,
        subdomains: stats.subdomains,
        addresses_crawled,
        transactions: transactions.values().map(Vec::len).sum(),
        subgraph: crawled.stats,
        txlist: tx_crawl.stats,
        market: market_crawl.stats,
        degraded: !gaps.is_empty(),
        gaps,
        lost_items_estimate,
    };
    if metrics.is_enabled() {
        metrics.add("collect/domains", crawl_report.domains as u64);
        metrics.add(
            "collect/unrecoverable_names",
            crawl_report.unrecoverable_names as u64,
        );
        metrics.add(
            "collect/addresses_crawled",
            crawl_report.addresses_crawled as u64,
        );
        metrics.add("collect/transactions", crawl_report.transactions as u64);
        metrics.add("collect/gaps", crawl_report.gaps.len() as u64);
        metrics.add(
            "collect/lost_items_estimate",
            crawl_report.lost_items_estimate as u64,
        );
    }
    if crawl_report.item_recovery_rate() < config.min_recovery {
        return Err(CollectError::RecoveryBelowMinimum {
            achieved: crawl_report.item_recovery_rate(),
            required: config.min_recovery,
            lost_items: crawl_report.lost_items_estimate,
        });
    }
    let timings = CrawlTimings {
        subgraph: crawled.elapsed,
        txlist: tx_crawl.elapsed,
        market: market_crawl.elapsed,
    };
    let dataset = Dataset {
        domains,
        transactions,
        observation_end,
        labels: etherscan.labels_snapshot(),
        reverse_claims: subgraph.reverse_history_snapshot(),
        market,
        crawl_report,
    };
    Ok((dataset, timings))
}

/// Convenience bundle of borrowed data sources for one-call studies.
pub struct DataSources<'a> {
    /// The ENS subgraph endpoint.
    pub subgraph: &'a Subgraph,
    /// The transaction explorer.
    pub etherscan: &'a Etherscan,
    /// The NFT marketplace.
    pub opensea: &'a OpenSea,
    /// The ETH-USD price series.
    pub oracle: &'a PriceOracle,
    /// End of the observation window.
    pub observation_end: Timestamp,
    /// Collection knobs (threads, retry/failure policies, chaos profile,
    /// page sizes). Any thread count yields a byte-identical dataset.
    pub crawl: CrawlConfig,
}

impl DataSources<'_> {
    /// Collects the dataset from these sources.
    ///
    /// # Panics
    ///
    /// Panics if collection fails; use [`DataSources::try_collect`] when
    /// the crawl config can fail.
    pub fn collect(&self) -> Dataset {
        self.try_collect().expect("collection failed").0
    }

    /// Fallible collection from these sources.
    pub fn try_collect(&self) -> Result<(Dataset, CrawlTimings), CollectError> {
        self.try_collect_metered(&Metrics::disabled())
    }

    /// [`DataSources::try_collect`] recording into `metrics` — see
    /// [`Dataset::try_collect_metered`].
    pub fn try_collect_metered(
        &self,
        metrics: &Metrics,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        Dataset::try_collect_metered(
            self.subgraph,
            self.etherscan,
            self.opensea,
            self.observation_end,
            &self.crawl,
            metrics,
        )
    }

    /// Crash-safe collection from these sources — see
    /// [`Dataset::try_collect_checkpointed`].
    pub fn try_collect_checkpointed(
        &self,
        metrics: &Metrics,
        spec: &CheckpointSpec,
        kill: Option<Arc<KillSwitch>>,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        Dataset::try_collect_checkpointed(
            self.subgraph,
            self.etherscan,
            self.opensea,
            self.observation_end,
            &self.crawl,
            metrics,
            spec,
            kill,
        )
    }
}

/// Builds a subgraph with the paper's default loss model from raw events —
/// a convenience for examples.
pub fn default_subgraph(events: &[ens_registry::EnsEvent]) -> Subgraph {
    Subgraph::index(events, SubgraphConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::FailurePolicy;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn dataset() -> (workload::World, Dataset) {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let ds = Dataset::collect(&sg, &scan, world.opensea(), world.observation_end());
        (world, ds)
    }

    #[test]
    fn collect_produces_a_complete_dataset() {
        let (world, ds) = dataset();
        assert_eq!(ds.domains.len(), 200);
        assert!(ds.crawl_report.transactions > 500);
        // Lossless subgraph: only the hash-only legacy residue is missing.
        assert!(ds.crawl_report.recovery_rate() > 0.95);
        assert_eq!(ds.observation_end, world.observation_end());
        // The marketplace came through the paged crawl intact.
        assert_eq!(ds.market.event_count(), world.opensea().event_count());
        assert_eq!(ds.crawl_report.market.items, ds.market.event_count());
        // A clean crawl is not degraded and recovered everything.
        assert!(!ds.crawl_report.degraded);
        assert!(ds.crawl_report.gaps.is_empty());
        assert_eq!(ds.crawl_report.item_recovery_rate(), 1.0);
    }

    #[test]
    fn collection_matches_direct_endpoint_queries() {
        // The paged crawl must reproduce exactly what naive, unpaged
        // queries against each endpoint return.
        let (world, ds) = dataset();
        let scan = world.etherscan();
        for (addr, txs) in &ds.transactions {
            assert_eq!(txs, &scan.txlist(*addr, 1, 10_000), "txs for {addr:?}");
        }
        let sg = world.subgraph(SubgraphConfig::lossless());
        let direct = sg.domains(ens_subgraph::PageRequest::first(1000));
        assert_eq!(ds.domains, direct.items);
    }

    #[test]
    fn threaded_collection_is_byte_identical() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let collect = |threads| {
            Dataset::collect_with(
                &sg,
                &scan,
                world.opensea(),
                world.observation_end(),
                &CrawlConfig::with_threads(threads),
            )
            .0
        };
        let a = collect(1).to_json().unwrap();
        let b = collect(4).to_json().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaotic_degraded_collection_reports_gaps() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let config = CrawlConfig {
            chaos: Some(FaultProfile::new(77).with_hole(16, 48)),
            failure: FailurePolicy::degrade(),
            subgraph_page_size: 16,
            ..CrawlConfig::default()
        };
        let (ds, _) = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &config,
        )
        .unwrap();
        assert!(ds.crawl_report.degraded);
        assert!(!ds.crawl_report.gaps.is_empty());
        assert!(ds.crawl_report.lost_items_estimate > 0);
        assert!(ds.crawl_report.item_recovery_rate() < 1.0);
        assert!(ds.domains.len() < 200, "the hole cost some domains");
    }

    #[test]
    fn min_recovery_gates_lossy_collections() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let config = CrawlConfig {
            chaos: Some(FaultProfile::new(77).with_hole(0, 128)),
            failure: FailurePolicy::degrade(),
            min_recovery: 0.9999,
            subgraph_page_size: 16,
            ..CrawlConfig::default()
        };
        let err = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &config,
        )
        .unwrap_err();
        match err {
            CollectError::RecoveryBelowMinimum {
                achieved, required, ..
            } => {
                assert!(achieved < required);
            }
            other => panic!("expected RecoveryBelowMinimum, got {other:?}"),
        }
    }

    #[test]
    fn chaotic_fail_fast_surfaces_the_crawl_error() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let config = CrawlConfig {
            chaos: Some(FaultProfile::new(77).with_hole(16, 48)),
            subgraph_page_size: 16,
            ..CrawlConfig::default()
        };
        let err = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &config,
        )
        .unwrap_err();
        match err {
            CollectError::Crawl(e) => {
                assert_eq!(e.source, "subgraph");
                assert!(e.stats.pages > 0, "partial stats attached");
            }
            other => panic!("expected Crawl, got {other:?}"),
        }
    }

    #[test]
    fn income_is_positive_for_organic_owners_and_counts_no_mints() {
        let (world, ds) = dataset();
        let rich = world
            .truth()
            .iter()
            .find(|t| t.first_income_usd > 1_000.0)
            .expect("some name earns over $1k");
        let owner = rich.periods[0].owner;
        let income = ds.income_usd(owner, None, world.oracle());
        assert!(!income.is_zero());
        // Mints (from the zero address) are excluded from income.
        for tx in ds.incoming(owner, None) {
            assert_ne!(tx.from, Address::ZERO);
        }
    }

    #[test]
    fn unique_senders_window_bounds_apply() {
        let (world, ds) = dataset();
        let t = world
            .truth()
            .iter()
            .find(|t| t.first_income_usd > 0.0)
            .unwrap();
        let owner = t.periods[0].owner;
        let all = ds.unique_senders(owner, None);
        let none = ds.unique_senders(owner, Some((Timestamp(0), Timestamp(1))));
        assert!(all >= 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn json_round_trip() {
        let (_, ds) = dataset();
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.domains.len(), ds.domains.len());
        assert_eq!(back.crawl_report, ds.crawl_report);
        assert_eq!(back.market.event_count(), ds.market.event_count());
        assert_eq!(back.labels.len(), ds.labels.len());
    }
}
