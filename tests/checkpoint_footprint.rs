//! The checkpoint's on-disk footprint. Shard blobs are written by the
//! dataset's own column encoders, so the segment chain of a whole crawl
//! stays close to the `.ensc` file of the same data: at most 1.5× (JSON
//! blobs made it about 3×).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ens_dropcatch_suite::analysis::checkpoint::{
    load_for_resume, remove_chain, CheckpointJournal, CheckpointLoad, CrawlCheckpoint,
};
use ens_dropcatch_suite::analysis::{
    relevant_addresses, CheckpointSpec, CrawlConfig, Crawler, Dataset,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::WorldConfig;

/// Total bytes of the segment chain rooted at `path`.
fn chain_bytes(path: &Path) -> u64 {
    (0..)
        .map(|idx| match idx {
            0 => path.to_path_buf(),
            k => PathBuf::from(format!("{}.{k}", path.display())),
        })
        .map_while(|seg| std::fs::metadata(seg).ok())
        .map(|m| m.len())
        .sum()
}

/// Crawls all three phases of `world` into a checkpoint journal at the
/// default cadence and returns `(chain bytes, .ensc bytes)`.
fn footprint(world: WorldConfig, tag: &str) -> (u64, u64) {
    let world = world.build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let config = CrawlConfig::default();
    let (ds, _) = Dataset::collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &config,
    );
    let ensc = ds.to_columnar().expect("encodes").len() as u64;

    let dir = std::env::temp_dir().join(format!("ens-ckpt-footprint-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chain.ckpt");
    let journal = CheckpointJournal::new(&CheckpointSpec::new(&path), 1, &CrawlCheckpoint::new(1))
        .expect("journal initializes");
    let crawled = Crawler::with_page_size(config.subgraph_page_size)
        .crawl_resumable(&sg, BTreeMap::new(), |shard, c| {
            journal.commit_subgraph(shard, c);
        })
        .expect("clean crawl");
    let sources: Vec<_> = relevant_addresses(&crawled.items)
        .into_iter()
        .map(|a| (a, scan.txlist_source(a)))
        .collect();
    Crawler::with_page_size(config.txlist_page_size)
        .crawl_keyed_resumable(&sources, BTreeMap::new(), |addr, c| {
            journal.commit_txlist(*addr, c);
        })
        .expect("clean crawl");
    Crawler::with_page_size(config.market_page_size)
        .crawl_resumable(world.opensea(), BTreeMap::new(), |shard, c| {
            journal.commit_market(shard, c);
        })
        .expect("clean crawl");
    journal.flush();
    assert!(journal.take_error().is_none(), "checkpoint save failed");

    let chain = chain_bytes(&path);
    match load_for_resume(&path, 1) {
        CheckpointLoad::Resumed(ckpt) => {
            assert_eq!(ckpt.txlist.len(), sources.len(), "every txlist shard saved");
            let domains: usize = ckpt.subgraph.values().map(|c| c.items.len()).sum();
            assert_eq!(domains, ds.domains.len(), "every domain saved");
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    remove_chain(&path);
    std::fs::remove_dir_all(&dir).ok();
    (chain, ensc)
}

#[test]
fn a_full_checkpoint_chain_is_at_most_one_and_a_half_times_its_ensc() {
    // The default preset measures 1.14x.
    let (chain, ensc) = footprint(WorldConfig::small().with_seed(5), "default");
    let ratio = chain as f64 / ensc as f64;
    assert!(
        ratio <= 1.5,
        "checkpoint chain {chain} B is {ratio:.2}x the {ensc} B .ensc"
    );
}

#[test]
fn a_sparse_world_chain_stays_well_under_the_json_footprint() {
    // At ~3 transactions per txlist shard, each shard's own pools, JSON
    // stats trailer and framing weigh as much as its rows: this preset
    // measures 1.58x at 2K names (1.57x at 60K). JSON blobs were ~3x.
    let world = WorldConfig::paper_scale().with_names(2_000).with_seed(5);
    let (chain, ensc) = footprint(world, "paper-scale");
    let ratio = chain as f64 / ensc as f64;
    assert!(
        ratio <= 2.0,
        "checkpoint chain {chain} B is {ratio:.2}x the {ensc} B .ensc"
    );
}
