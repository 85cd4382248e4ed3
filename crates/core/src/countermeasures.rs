//! The wallet study of Appendix B (Table 2) and the countermeasure
//! evaluation of §6 — extended beyond the paper.
//!
//! The paper can only *propose* the expired/re-registered warning. With the
//! whole ecosystem simulated, this module measures two things the paper
//! could not:
//!
//! 1. **Interception** — how much misdirected value each warning policy
//!    would have flagged at the moment of the send; and
//! 2. **Annoyance** (false positives) — how often the same policy fires on
//!    perfectly legitimate sends, which is what actually decides whether a
//!    wallet vendor ships the warning.
//!
//! Four policies are scored in one pass: the paper's recent-registration/
//! expiry warning, its history-aware variant, a forward-and-back (reverse
//! record) check that exploits how rarely dropcatchers claim primary names,
//! and the first and third combined.

use std::collections::HashSet;

use ens_types::{Address, Duration, Timestamp};
use serde::{Deserialize, Serialize};
use wallet_sim::{production_wallets, ResolutionContext, WarningPolicy};

use crate::dataset::{primary_name_in, Dataset};
use crate::index::AnalysisIndex;
use crate::losses::LossReport;

/// One row of Table 2.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Wallet name.
    pub wallet: String,
    /// Version/date tested.
    pub version: String,
    /// Does it display a warning on an expired/re-registered name?
    pub displays_warning: bool,
}

/// Interception + annoyance for one policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Misdirected transactions evaluated.
    pub misdirected_txs: usize,
    /// Misdirected transactions the policy flags.
    pub flagged_txs: usize,
    /// Misdirected USD evaluated.
    pub misdirected_usd: f64,
    /// Misdirected USD flagged.
    pub flagged_usd: f64,
    /// Legitimate transactions evaluated.
    pub legit_txs: usize,
    /// Legitimate transactions the policy (wrongly) flags.
    pub false_positive_txs: usize,
}

impl PolicyOutcome {
    /// Fraction of misdirected value intercepted.
    pub fn interception_rate(&self) -> f64 {
        if self.misdirected_usd == 0.0 {
            return 0.0;
        }
        self.flagged_usd / self.misdirected_usd
    }

    /// Fraction of legitimate sends that trigger a (spurious) warning.
    pub fn annoyance_rate(&self) -> f64 {
        if self.legit_txs == 0 {
            return 0.0;
        }
        self.false_positive_txs as f64 / self.legit_txs as f64
    }
}

/// Table 2 plus the countermeasure evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CountermeasureReport {
    /// Table 2, evaluated against a canonical expired-name context.
    pub table2: Vec<Table2Row>,
    /// A naive freshness warning: any *registration* younger than the
    /// window (what a wallet can do with on-chain state alone).
    pub risk_policy: PolicyOutcome,
    /// The history-aware warning: only *re-registrations* (ownership
    /// changes through expiry) younger than the window — what the paper
    /// actually proposes, implementable with a subgraph query.
    pub rereg_policy: PolicyOutcome,
    /// The forward-and-back (reverse record) check.
    pub reverse_policy: PolicyOutcome,
    /// Both combined.
    pub combined_policy: PolicyOutcome,
    /// The window used for the "recently registered" warning.
    pub warning_window_days: u64,
    /// Misdirected transactions evaluated (risk policy; kept at the top
    /// level for report rendering).
    pub misdirected_txs: usize,
    /// Misdirected transactions flagged (risk policy).
    pub flagged_txs: usize,
}

impl CountermeasureReport {
    /// Fraction of misdirected value the paper's warning would intercept.
    pub fn interception_rate(&self) -> f64 {
        self.risk_policy.interception_rate()
    }
}

/// Evaluates Table 2 the way the paper does: resolve a name that is past
/// expiry (and later freshly re-registered) in each production wallet and
/// record whether a warning appears.
pub fn table2(expired_ctx: &ResolutionContext) -> Vec<Table2Row> {
    production_wallets()
        .into_iter()
        .map(|w| Table2Row {
            wallet: w.name.to_string(),
            version: w.version.to_string(),
            displays_warning: w.displays_warning(expired_ctx),
        })
        .collect()
}

/// A canonical "expired but still resolving" context for Table 2.
pub fn canonical_expired_context() -> ResolutionContext {
    let registered_at = Timestamp::from_ymd(2021, 1, 1);
    let expiry = Timestamp::from_ymd(2022, 1, 1);
    ResolutionContext {
        resolved: Some(ens_types::Address::derive(b"previous-owner")),
        expiry: Some(expiry),
        registered_at: Some(registered_at),
        owner_changed_at: None,
        reverse_matches: Some(false),
        now: expiry + Duration::from_days(30),
    }
}

/// The four policies in report order: naive freshness, history-aware
/// re-registration, reverse check, and the first and third combined.
fn policies(window: Duration) -> [WarningPolicy; 4] {
    [
        WarningPolicy::WarnOnRisk {
            recent_window: window,
        },
        WarningPolicy::WarnOnRecentOwnerChange {
            recent_window: window,
        },
        WarningPolicy::WarnOnReverseMismatch,
        WarningPolicy::WarnOnRiskOrReverseMismatch {
            recent_window: window,
        },
    ]
}

/// Scores every policy against every misdirected transaction (interception)
/// and every legitimate incoming transaction (annoyance) in one walk: each
/// transaction's [`ResolutionContext`] is built once, each tenure scanned
/// and each reverse-claim history looked up once per registration. USD sums
/// accumulate in finding → sender → transfer order, as one run per policy
/// would. With an [`AnalysisIndex`] the annoyance loop's tenure scans are
/// binary-search slices; without one they are the seed's full-vector
/// filters (kept as the equivalence baseline).
fn evaluate_policies(
    losses: &LossReport,
    dataset: &Dataset,
    index: Option<&AnalysisIndex>,
    policies: &[WarningPolicy; 4],
) -> [PolicyOutcome; 4] {
    let mut outcomes = [PolicyOutcome::default(); 4];
    // `Some(usd)` scores a misdirected send, `None` a legitimate one.
    let mut score = |ctx: &ResolutionContext, misdirected_usd: Option<f64>| {
        for (policy, outcome) in policies.iter().zip(&mut outcomes) {
            let warns = policy.evaluate(ctx).is_some();
            match misdirected_usd {
                Some(usd) => {
                    outcome.misdirected_txs += 1;
                    outcome.misdirected_usd += usd;
                    if warns {
                        outcome.flagged_txs += 1;
                        outcome.flagged_usd += usd;
                    }
                }
                None => {
                    outcome.legit_txs += 1;
                    outcome.false_positive_txs += usize::from(warns);
                }
            }
        }
    };

    // --- Interception over the flagged misdirected transfers. ---
    let mut flagged_set: HashSet<(Address, u64)> = HashSet::new();
    for finding in &losses.findings {
        let name = finding.name.as_deref();
        let claims = dataset.reverse_claims_of(finding.new_owner);
        for sender in &finding.senders {
            if sender.kind == crate::losses::SenderKind::OtherCustodial {
                continue;
            }
            for &(send_time, usd) in &sender.transfers_to_new {
                flagged_set.insert((sender.sender, send_time.0));
                let ctx = ResolutionContext {
                    resolved: Some(finding.new_owner),
                    expiry: None,
                    registered_at: Some(finding.caught_at),
                    // Misdirected sends by definition follow a catch.
                    owner_changed_at: Some(finding.caught_at),
                    reverse_matches: name.map(|n| primary_name_in(claims, send_time) == Some(n)),
                    now: send_time,
                };
                score(&ctx, Some(usd));
            }
        }
    }

    // --- Annoyance over legitimate sends: every incoming transaction to a
    //     current registrant during their tenure, minus the flagged set. ---
    for domain in &dataset.domains {
        let name = domain.name.as_ref().map(|n| n.to_full());
        for (idx, reg) in domain.registrations.iter().enumerate() {
            let Some(expiry) = domain.expiry_of_registration(idx) else {
                continue;
            };
            let window_end = expiry.min(dataset.observation_end);
            if reg.registered_at >= window_end {
                continue;
            }
            // Did this registration change the name's owner (a dropcatch)?
            let owner_changed_at = (idx > 0
                && crate::registrations::effective_owner_at_expiry(domain, idx - 1)
                    != Some(reg.owner))
            .then_some(reg.registered_at);
            let claims = dataset.reverse_claims_of(reg.owner);
            let mut eval_tx = |from: Address, at: Timestamp| {
                if flagged_set.contains(&(from, at.0)) {
                    return;
                }
                let ctx = ResolutionContext {
                    resolved: Some(reg.owner),
                    expiry: Some(expiry),
                    registered_at: Some(reg.registered_at),
                    owner_changed_at,
                    reverse_matches: name
                        .as_deref()
                        .map(|n| primary_name_in(claims, at) == Some(n)),
                    now: at,
                };
                score(&ctx, None);
            };
            let tenure = Some((reg.registered_at, window_end));
            match index {
                Some(ix) => {
                    for tx in ix.incoming(reg.owner, tenure) {
                        eval_tx(tx.from, tx.timestamp);
                    }
                }
                None => {
                    for tx in dataset.incoming(reg.owner, tenure) {
                        eval_tx(tx.from, tx.timestamp);
                    }
                }
            }
        }
    }

    outcomes
}

/// Evaluates the proposed countermeasure (and the reverse-check variant)
/// against a loss report, on the naive scan path.
pub fn evaluate_countermeasure(
    losses: &LossReport,
    dataset: &Dataset,
    window: Duration,
) -> CountermeasureReport {
    evaluate_countermeasure_inner(losses, dataset, None, window)
}

/// [`evaluate_countermeasure`] on the analysis substrate — identical
/// output, with the annoyance loop's tenure scans served by the index.
pub fn evaluate_countermeasure_with(
    losses: &LossReport,
    dataset: &Dataset,
    index: &AnalysisIndex,
    window: Duration,
) -> CountermeasureReport {
    evaluate_countermeasure_inner(losses, dataset, Some(index), window)
}

fn evaluate_countermeasure_inner(
    losses: &LossReport,
    dataset: &Dataset,
    index: Option<&AnalysisIndex>,
    window: Duration,
) -> CountermeasureReport {
    let [risk_policy, rereg_policy, reverse_policy, combined_policy] =
        evaluate_policies(losses, dataset, index, &policies(window));
    CountermeasureReport {
        table2: table2(&canonical_expired_context()),
        misdirected_txs: risk_policy.misdirected_txs,
        flagged_txs: risk_policy.flagged_txs,
        risk_policy,
        rereg_policy,
        reverse_policy,
        combined_policy,
        warning_window_days: window.as_days(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::FailurePolicy;
    use crate::dataset::{CrawlConfig, Dataset};
    use crate::losses::analyze_losses;
    use ens_subgraph::SubgraphConfig;
    use ens_types::FaultProfile;
    use wallet_sim::WalletProfile;
    use workload::WorldConfig;

    fn setup() -> (Dataset, LossReport) {
        let world = WorldConfig::default().with_seed(80).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let ds = Dataset::collect(&sg, &scan, world.opensea(), world.observation_end());
        let losses = analyze_losses(&ds, world.oracle());
        (ds, losses)
    }

    fn wallet_with(policy: WarningPolicy) -> WalletProfile {
        WalletProfile {
            policy,
            ..production_wallets().remove(0)
        }
    }

    /// The one-policy-per-run evaluator the fused pass replaced, kept as
    /// the reference it must reproduce exactly.
    fn evaluate_policy(
        losses: &LossReport,
        dataset: &Dataset,
        index: Option<&AnalysisIndex>,
        policy: WarningPolicy,
    ) -> PolicyOutcome {
        let wallet = wallet_with(policy);
        let mut outcome = PolicyOutcome::default();

        let mut flagged_set: HashSet<(Address, u64)> = HashSet::new();
        for finding in &losses.findings {
            let name = finding.name.as_deref();
            for sender in &finding.senders {
                if sender.kind == crate::losses::SenderKind::OtherCustodial {
                    continue;
                }
                for &(send_time, usd) in &sender.transfers_to_new {
                    flagged_set.insert((sender.sender, send_time.0));
                    let reverse_matches = name
                        .map(|n| dataset.primary_name_at(finding.new_owner, send_time) == Some(n));
                    let ctx = ResolutionContext {
                        resolved: Some(finding.new_owner),
                        expiry: None,
                        registered_at: Some(finding.caught_at),
                        owner_changed_at: Some(finding.caught_at),
                        reverse_matches,
                        now: send_time,
                    };
                    outcome.misdirected_txs += 1;
                    outcome.misdirected_usd += usd;
                    if wallet.displays_warning(&ctx) {
                        outcome.flagged_txs += 1;
                        outcome.flagged_usd += usd;
                    }
                }
            }
        }

        for domain in &dataset.domains {
            let name = domain.name.as_ref().map(|n| n.to_full());
            for (idx, reg) in domain.registrations.iter().enumerate() {
                let Some(expiry) = domain.expiry_of_registration(idx) else {
                    continue;
                };
                let window_end = expiry.min(dataset.observation_end);
                if reg.registered_at >= window_end {
                    continue;
                }
                let owner_changed_at = (idx > 0
                    && crate::registrations::effective_owner_at_expiry(domain, idx - 1)
                        != Some(reg.owner))
                .then_some(reg.registered_at);
                let mut eval_tx = |from: Address, at: Timestamp| {
                    if flagged_set.contains(&(from, at.0)) {
                        return;
                    }
                    let reverse_matches = name
                        .as_deref()
                        .map(|n| dataset.primary_name_at(reg.owner, at) == Some(n));
                    let ctx = ResolutionContext {
                        resolved: Some(reg.owner),
                        expiry: Some(expiry),
                        registered_at: Some(reg.registered_at),
                        owner_changed_at,
                        reverse_matches,
                        now: at,
                    };
                    outcome.legit_txs += 1;
                    if wallet.displays_warning(&ctx) {
                        outcome.false_positive_txs += 1;
                    }
                };
                let tenure = Some((reg.registered_at, window_end));
                match index {
                    Some(ix) => {
                        for tx in ix.incoming(reg.owner, tenure) {
                            eval_tx(tx.from, tx.timestamp);
                        }
                    }
                    None => {
                        for tx in dataset.incoming(reg.owner, tenure) {
                            eval_tx(tx.from, tx.timestamp);
                        }
                    }
                }
            }
        }

        outcome
    }

    #[test]
    fn fused_pass_equals_one_run_per_policy() {
        let world = WorldConfig::small().with_seed(81).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let collect = |config: &CrawlConfig| {
            Dataset::try_collect_with(&sg, &scan, world.opensea(), world.observation_end(), config)
                .expect("degrade policy completes under chaos")
                .0
        };
        let clean = collect(&CrawlConfig::default());
        let chaotic = collect(&CrawlConfig {
            chaos: FaultProfile::named("mixed", 42),
            failure: FailurePolicy::degrade(),
            subgraph_page_size: 32,
            txlist_page_size: 16,
            market_page_size: 8,
            ..CrawlConfig::default()
        });
        assert!(chaotic.crawl_report.degraded);
        for ds in [&clean, &chaotic] {
            let losses = analyze_losses(ds, world.oracle());
            assert!(!losses.findings.is_empty());
            let index = AnalysisIndex::build(ds, world.oracle());
            for days in [0, 30, 90, 365] {
                let window = Duration::from_days(days);
                for ix in [None, Some(&index)] {
                    let fused = evaluate_policies(&losses, ds, ix, &policies(window));
                    let separate = policies(window).map(|p| evaluate_policy(&losses, ds, ix, p));
                    // Debug formatting tells apart every f64 bit pattern
                    // that `==` would conflate (0.0 vs -0.0).
                    assert_eq!(
                        format!("{fused:?}"),
                        format!("{separate:?}"),
                        "{days}-day window, indexed: {}",
                        ix.is_some()
                    );
                    assert!(fused[0].legit_txs > 0 && fused[0].misdirected_txs > 0);
                }
            }
        }
    }

    #[test]
    fn table2_reproduces_the_all_no_column() {
        let rows = table2(&canonical_expired_context());
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(
                !row.displays_warning,
                "{} should not warn (paper Table 2)",
                row.wallet
            );
        }
        let names: Vec<&str> = rows.iter().map(|r| r.wallet.as_str()).collect();
        assert!(names.contains(&"Metamask"));
        assert!(names.contains(&"Coinbase"));
    }

    #[test]
    fn risk_policy_interception_scales_with_window() {
        let (ds, losses) = setup();
        assert!(!losses.findings.is_empty());

        let year = evaluate_countermeasure(&losses, &ds, Duration::from_days(365));
        assert!(year.risk_policy.misdirected_txs > 0);
        assert!(
            year.interception_rate() > 0.95,
            "interception {}",
            year.interception_rate()
        );

        let month = evaluate_countermeasure(&losses, &ds, Duration::from_days(30));
        assert!(month.interception_rate() < year.interception_rate());

        let none = evaluate_countermeasure(&losses, &ds, Duration::ZERO);
        assert_eq!(none.risk_policy.flagged_txs, 0);
    }

    #[test]
    fn risk_policy_annoyance_is_low_but_nonzero() {
        let (ds, losses) = setup();
        let report = evaluate_countermeasure(&losses, &ds, Duration::from_days(90));
        let annoyance = report.risk_policy.annoyance_rate();
        assert!(report.risk_policy.legit_txs > 10_000);
        // Legit sends to freshly registered names do trigger the warning —
        // that is the real cost of the countermeasure.
        assert!(annoyance > 0.01, "annoyance {annoyance}");
        assert!(annoyance < 0.5, "annoyance {annoyance}");
    }

    #[test]
    fn history_aware_policy_has_far_lower_annoyance_at_equal_interception() {
        let (ds, losses) = setup();
        let report = evaluate_countermeasure(&losses, &ds, Duration::from_days(365));
        // Same (or better) interception than the naive freshness warning...
        assert!(
            report.rereg_policy.interception_rate() >= report.risk_policy.interception_rate() * 0.9
        );
        // ...at a small fraction of the false positives: legitimate new
        // names never changed hands, so they never warn.
        assert!(
            report.rereg_policy.annoyance_rate() < report.risk_policy.annoyance_rate() * 0.5,
            "rereg {} vs naive {}",
            report.rereg_policy.annoyance_rate(),
            report.risk_policy.annoyance_rate()
        );
    }

    #[test]
    fn reverse_policy_catches_most_misdirections_but_annoys_more() {
        let (ds, losses) = setup();
        let report = evaluate_countermeasure(&losses, &ds, Duration::from_days(90));
        // Catchers claim reverse records only ~5% of the time → very high
        // interception.
        assert!(
            report.reverse_policy.interception_rate() > 0.80,
            "reverse interception {}",
            report.reverse_policy.interception_rate()
        );
        // But most honest owners never claim one either → a much larger
        // false-positive rate. This is the quantified trade-off.
        assert!(
            report.reverse_policy.annoyance_rate() > report.risk_policy.annoyance_rate(),
            "reverse {} vs risk {}",
            report.reverse_policy.annoyance_rate(),
            report.risk_policy.annoyance_rate()
        );
        // Combined policy intercepts at least as much as either alone.
        assert!(
            report.combined_policy.interception_rate()
                >= report
                    .risk_policy
                    .interception_rate()
                    .max(report.reverse_policy.interception_rate())
                    - 1e-9
        );
    }
}
