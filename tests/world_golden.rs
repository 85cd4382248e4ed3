//! Frozen-world golden digests.
//!
//! `world.rs::deterministic_end_to_end` only compares two runs of the same
//! code, so it cannot notice a change that alters the synthesized world
//! itself. These pins can: each world is reduced to three `checksum64`
//! digests — the columnar bytes of the collected dataset, the JSON of the
//! chain's transaction log and the JSON of the ENS event log — and the
//! digests are fixed constants. A pure performance change to world
//! synthesis (planning, execution, source construction) must leave all of
//! them untouched; a change that is meant to alter the world must update
//! them and say why.

use ens_dropcatch_suite::analysis::Dataset;
use ens_dropcatch_suite::columnar::checksum64;
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::WorldConfig;

/// The three digests of one world, in the order: dataset columnar bytes,
/// transaction-log JSON, ENS-event-log JSON.
fn digests(cfg: WorldConfig) -> [u64; 3] {
    let world = cfg.build();
    let sg = world.subgraph(SubgraphConfig::default());
    let ds = Dataset::collect(
        &sg,
        &world.etherscan(),
        world.opensea(),
        world.observation_end(),
    );
    let cols = ds.to_columnar().expect("columnar export");
    let txs = serde_json::to_vec(world.chain().transactions()).expect("tx json");
    let events = serde_json::to_vec(world.ens().events()).expect("event json");
    [checksum64(&cols), checksum64(&txs), checksum64(&events)]
}

fn assert_digests(cfg: WorldConfig, want: [u64; 3]) {
    let got = digests(cfg);
    assert_eq!(
        got, want,
        "world bytes changed: got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn default_preset_world_is_frozen() {
    assert_digests(
        WorldConfig::default().with_names(2_000).with_seed(1),
        [
            0x1ca8_9d4a_3043_d3eb,
            0xc4bd_5860_924f_9dce,
            0xe8ec_f6d7_9a16_8312,
        ],
    );
}

#[test]
fn paper_scale_world_is_frozen() {
    assert_digests(
        WorldConfig::paper_scale().with_names(2_000).with_seed(2),
        [
            0xa40d_5d9c_e697_cfdf,
            0xc04a_b8a9_5904_f962,
            0xab64_1561_a146_ae59,
        ],
    );
}
