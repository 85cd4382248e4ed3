//! World planning must not panic when a catch lands within an hour of the
//! end of the misdirect window: misdirected sends start an hour after the
//! catch, so such a window has no room for them and the catch plans none.
//! Before the fix, these two seeds panicked with `cannot sample empty range`.

use ens_dropcatch_suite::workload::{build_plan, WorldConfig};

fn assert_plans(cfg: WorldConfig, names: usize) {
    let plan = build_plan(&cfg);
    assert_eq!(plan.truth.len(), names);
    assert!(
        plan.truth.iter().any(|t| !t.misdirected.is_empty()),
        "other catches still plan misdirected sends"
    );
}

#[test]
fn default_preset_seed_13_plans_without_panicking() {
    assert_plans(
        WorldConfig::default().with_names(20_000).with_seed(13),
        20_000,
    );
}

#[test]
fn paper_scale_seed_14_plans_without_panicking() {
    assert_plans(
        WorldConfig::paper_scale().with_names(60_000).with_seed(14),
        60_000,
    );
}
