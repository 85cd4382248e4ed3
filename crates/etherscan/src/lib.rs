//! # etherscan-sim
//!
//! A simulation of the Etherscan API surface the paper crawls (§3.2): a
//! per-address transaction index with `txlist`-style pagination, plus the
//! address **label service** the financial-loss analysis depends on — the
//! paper sources 558 non-Coinbase custodial exchange addresses and 25
//! Coinbase addresses from Etherscan's labels to filter common senders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use ens_types::{Address, FastMap, PageError, PagedBatch, PagedSource};
use serde::{Deserialize, Serialize};
use sim_chain::{Chain, Transaction};

/// Maximum transactions returned per `txlist` page (Etherscan's cap).
pub const MAX_TXLIST_PAGE: usize = 10_000;

/// The category a labelled address belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelKind {
    /// A custodial exchange hot wallet (non-Coinbase).
    CustodialExchange,
    /// A Coinbase hot wallet — the only ENS-resolving exchange at the time
    /// of the paper, so it gets its own category.
    Coinbase,
    /// A known smart contract (e.g. "Gnosis: Active Treasury Management").
    Contract,
}

/// A public name tag attached to an address.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressLabel {
    /// The tagged address.
    pub address: Address,
    /// Display name ("Binance 14", "Coinbase 3", ...).
    pub name: String,
    /// Category.
    pub kind: LabelKind,
}

/// The label directory.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LabelService {
    labels: HashMap<Address, AddressLabel>,
}

impl LabelService {
    /// An empty directory.
    pub fn new() -> LabelService {
        LabelService::default()
    }

    /// Adds (or replaces) a label.
    pub fn add(&mut self, label: AddressLabel) {
        self.labels.insert(label.address, label);
    }

    /// Convenience: tag an address as a non-Coinbase custodial exchange.
    pub fn add_custodial(&mut self, address: Address, name: impl Into<String>) {
        self.add(AddressLabel {
            address,
            name: name.into(),
            kind: LabelKind::CustodialExchange,
        });
    }

    /// Convenience: tag an address as a Coinbase wallet.
    pub fn add_coinbase(&mut self, address: Address, name: impl Into<String>) {
        self.add(AddressLabel {
            address,
            name: name.into(),
            kind: LabelKind::Coinbase,
        });
    }

    /// The label for `address`, if tagged.
    pub fn label(&self, address: Address) -> Option<&AddressLabel> {
        self.labels.get(&address)
    }

    /// True if the address is custodial at all (exchange or Coinbase).
    pub fn is_custodial(&self, address: Address) -> bool {
        matches!(
            self.labels.get(&address).map(|l| l.kind),
            Some(LabelKind::CustodialExchange) | Some(LabelKind::Coinbase)
        )
    }

    /// True if the address is a Coinbase wallet.
    pub fn is_coinbase(&self, address: Address) -> bool {
        matches!(
            self.labels.get(&address).map(|l| l.kind),
            Some(LabelKind::Coinbase)
        )
    }

    /// True if the address is a non-Coinbase custodial exchange.
    pub fn is_non_coinbase_custodial(&self, address: Address) -> bool {
        matches!(
            self.labels.get(&address).map(|l| l.kind),
            Some(LabelKind::CustodialExchange)
        )
    }

    /// All addresses with a given kind, sorted for determinism.
    pub fn addresses_of_kind(&self, kind: LabelKind) -> Vec<Address> {
        let set: BTreeSet<Address> = self
            .labels
            .values()
            .filter(|l| l.kind == kind)
            .map(|l| l.address)
            .collect();
        set.into_iter().collect()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if no labels exist.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// The indexed explorer.
#[derive(Clone, Debug)]
pub struct Etherscan {
    /// All transactions in chain order, shared with the chain.
    transactions: Arc<Vec<Transaction>>,
    /// address → its slot in `starts`.
    by_address: FastMap<Address, u32>,
    /// Slot `s`'s history is `history[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Per address, the indices of the transactions where it is sender or
    /// receiver, in chain order; one flat array instead of a `Vec` per
    /// address.
    history: Vec<u32>,
    /// Shared so that dataset assembly can take an owned snapshot without
    /// deep-copying the whole directory.
    labels: Arc<LabelService>,
}

impl Etherscan {
    /// Indexes the full transaction log of a chain.
    pub fn index(chain: &Chain, labels: LabelService) -> Etherscan {
        let transactions = chain.transactions_snapshot();
        // Each transaction adds at most two history entries and two
        // addresses, so this bound keeps every slot, position and index
        // below `NONE`.
        assert!(
            transactions.len() < (u32::MAX / 2) as usize,
            "the explorer indexes fewer than 2^31 transactions"
        );
        // Pass 1: give each address a slot, count its transactions, and
        // note the slot of each transaction's sender and receiver
        // (`NONE` for the receiver of a self-transfer, indexed once).
        const NONE: u32 = u32::MAX;
        let mut by_address: FastMap<Address, u32> = FastMap::default();
        let mut counts: Vec<u32> = Vec::new();
        let mut touches: Vec<[u32; 2]> = Vec::with_capacity(transactions.len());
        let mut slot_of = |a: Address| {
            let next = counts.len() as u32;
            let slot = *by_address.entry(a).or_insert(next);
            if slot == next {
                counts.push(0);
            }
            counts[slot as usize] += 1;
            slot
        };
        for tx in transactions.iter() {
            let from = slot_of(tx.from);
            let to = if tx.to != tx.from {
                slot_of(tx.to)
            } else {
                NONE
            };
            touches.push([from, to]);
        }
        // Pass 2: lay the histories out back to back, in chain order.
        let mut starts = Vec::with_capacity(counts.len() + 1);
        starts.push(0u32);
        for &count in &counts {
            starts.push(starts[starts.len() - 1] + count);
        }
        // The next free position of each slot's history.
        let mut next = starts[..counts.len()].to_vec();
        let mut history = vec![0u32; starts[counts.len()] as usize];
        for (i, sides) in touches.iter().enumerate() {
            for &slot in sides.iter().filter(|&&s| s != NONE) {
                history[next[slot as usize] as usize] = i as u32;
                next[slot as usize] += 1;
            }
        }
        Etherscan {
            transactions,
            by_address,
            starts,
            history,
            labels: Arc::new(labels),
        }
    }

    /// The indices of the transactions touching `address`, in chain order.
    fn history(&self, address: Address) -> &[u32] {
        match self.by_address.get(&address) {
            Some(&slot) => {
                let s = slot as usize;
                &self.history[self.starts[s] as usize..self.starts[s + 1] as usize]
            }
            None => &[],
        }
    }

    /// The label directory.
    pub fn labels(&self) -> &LabelService {
        &self.labels
    }

    /// An owned, shared snapshot of the label directory. Cloning the
    /// returned handle is a reference-count bump, not a deep copy.
    pub fn labels_snapshot(&self) -> Arc<LabelService> {
        Arc::clone(&self.labels)
    }

    /// `txlist`: all transactions touching `address` (in or out), paged.
    /// `page` is 1-based like the real API; `offset` is the page size,
    /// capped at [`MAX_TXLIST_PAGE`]. `page == 0` is out of range and
    /// returns an empty page rather than aliasing page 1 — a caller with an
    /// off-by-one would otherwise double-fetch the first page silently.
    pub fn txlist(&self, address: Address, page: usize, offset: usize) -> Vec<Transaction> {
        if page == 0 {
            return Vec::new();
        }
        let offset = offset.clamp(1, MAX_TXLIST_PAGE);
        let start = (page - 1) * offset;
        self.history(address)
            .iter()
            .skip(start)
            .take(offset)
            .map(|&i| self.transactions[i as usize].clone())
            .collect()
    }

    /// Offset-based variant of [`Etherscan::txlist`]: up to `limit`
    /// transactions touching `address`, starting at the `start`-th entry of
    /// its chain-ordered history. `limit` is capped at [`MAX_TXLIST_PAGE`].
    pub fn txlist_window(&self, address: Address, start: usize, limit: usize) -> Vec<Transaction> {
        let limit = limit.clamp(1, MAX_TXLIST_PAGE);
        self.history(address)
            .iter()
            .skip(start)
            .take(limit)
            .map(|&i| self.transactions[i as usize].clone())
            .collect()
    }

    /// Total transactions touching `address`.
    pub fn tx_count(&self, address: Address) -> usize {
        self.history(address).len()
    }

    /// The transaction history of one address as a generic paged source —
    /// what the sharded crawler pulls page by page.
    pub fn txlist_source(&self, address: Address) -> TxListSource<'_> {
        TxListSource {
            scan: self,
            address,
        }
    }

    /// Total transactions indexed.
    pub fn total_transactions(&self) -> usize {
        self.transactions.len()
    }
}

/// One address's `txlist` history viewed as a paged source (items are
/// [`Transaction`]s in chain order; the total is the explorer's `tx_count`,
/// so per-address crawls need no guaranteed-empty probe page at the end).
#[derive(Clone, Copy, Debug)]
pub struct TxListSource<'a> {
    scan: &'a Etherscan,
    address: Address,
}

impl PagedSource for TxListSource<'_> {
    type Item = Transaction;

    fn source_name(&self) -> &'static str {
        "txlist"
    }

    fn total_hint(&self) -> Option<usize> {
        Some(self.scan.tx_count(self.address))
    }

    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<Transaction>, PageError> {
        if limit == 0 {
            // A zero-limit request can never make progress; surface it as a
            // typed malformed-request fault instead of looping forever.
            return Err(PageError::malformed(
                self.source_name(),
                offset,
                "zero-limit page request",
            ));
        }
        let items = self.scan.txlist_window(self.address, offset, limit);
        let has_more = offset + items.len() < self.scan.tx_count(self.address);
        Ok(PagedBatch { items, has_more })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Timestamp, Wei};
    use sim_chain::TxKind;

    fn addr(s: &str) -> Address {
        Address::derive(s.as_bytes())
    }

    fn chain_with_traffic() -> Chain {
        let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
        chain.mint(addr("a"), Wei::from_eth(100));
        for i in 0..5 {
            chain
                .transfer(addr("a"), addr("b"), Wei::from_eth(1 + i), TxKind::Transfer)
                .unwrap();
        }
        chain
            .transfer(addr("b"), addr("c"), Wei::from_eth(2), TxKind::Transfer)
            .unwrap();
        chain
    }

    #[test]
    fn txlist_returns_in_and_out_transactions() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        // b received 5 and sent 1.
        assert_eq!(scan.tx_count(addr("b")), 6);
        let txs = scan.txlist(addr("b"), 1, 100);
        assert_eq!(txs.len(), 6);
        // Chain order is preserved.
        for w in txs.windows(2) {
            assert!(w[0].block <= w[1].block);
        }
    }

    #[test]
    fn txlist_pages_like_the_real_api() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        let p1 = scan.txlist(addr("b"), 1, 4);
        let p2 = scan.txlist(addr("b"), 2, 4);
        let p3 = scan.txlist(addr("b"), 3, 4);
        assert_eq!(p1.len(), 4);
        assert_eq!(p2.len(), 2);
        assert!(p3.is_empty());
        // No overlap between pages.
        assert!(p1.iter().all(|t| p2.iter().all(|u| u.hash != t.hash)));
    }

    #[test]
    fn txlist_page_zero_is_out_of_range_not_page_one() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        // `page` is 1-based; 0 must not alias page 1 (a caller iterating
        // from 0 would double-fetch the first page without noticing).
        assert!(scan.txlist(addr("b"), 0, 4).is_empty());
        assert_eq!(scan.txlist(addr("b"), 1, 4).len(), 4);
    }

    #[test]
    fn unknown_address_has_no_transactions() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        assert!(scan.txlist(addr("nobody"), 1, 10).is_empty());
        assert_eq!(scan.tx_count(addr("nobody")), 0);
    }

    #[test]
    fn label_service_categories() {
        let mut labels = LabelService::new();
        labels.add_custodial(addr("binance"), "Binance 14");
        labels.add_coinbase(addr("coinbase"), "Coinbase 3");
        labels.add(AddressLabel {
            address: addr("gnosis"),
            name: "Gnosis: Active Treasury Management".into(),
            kind: LabelKind::Contract,
        });

        assert!(labels.is_custodial(addr("binance")));
        assert!(labels.is_custodial(addr("coinbase")));
        assert!(!labels.is_custodial(addr("gnosis")));
        assert!(labels.is_coinbase(addr("coinbase")));
        assert!(!labels.is_coinbase(addr("binance")));
        assert!(labels.is_non_coinbase_custodial(addr("binance")));
        assert!(!labels.is_non_coinbase_custodial(addr("coinbase")));
        assert!(!labels.is_custodial(addr("random-user")));
        assert_eq!(labels.addresses_of_kind(LabelKind::Coinbase).len(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Every address's history is exactly the transactions touching
        /// it, in chain order, self-transfers once — checked against a
        /// scan of the whole log, through every read path.
        #[test]
        fn histories_equal_a_scan_of_the_log(
            moves in proptest::collection::vec((0u64..6, 0u64..6, 1u64..4), 0..80),
        ) {
            let who = |i: u64| Address::derive_indexed("user", i);
            let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
            for i in 0..6 {
                chain.mint(who(i), Wei::from_eth(1_000));
            }
            for (from, to, eth) in moves {
                chain
                    .transfer(who(from), who(to), Wei::from_eth(eth), TxKind::Transfer)
                    .unwrap();
            }
            let scan = Etherscan::index(&chain, LabelService::new());
            for i in 0..7 {
                let a = who(i);
                let want: Vec<Transaction> = chain
                    .transactions()
                    .iter()
                    .filter(|tx| tx.from == a || tx.to == a)
                    .cloned()
                    .collect();
                proptest::prop_assert_eq!(scan.tx_count(a), want.len());
                proptest::prop_assert_eq!(&scan.txlist(a, 1, MAX_TXLIST_PAGE), &want);
                let paged: Vec<Transaction> = (1..=want.len().div_ceil(3).max(1))
                    .flat_map(|page| scan.txlist(a, page, 3))
                    .collect();
                proptest::prop_assert_eq!(&paged, &want);
                let tail = want.get(2..).unwrap_or(&[]);
                proptest::prop_assert_eq!(&scan.txlist_window(a, 2, 100), tail);
            }
        }
    }

    #[test]
    fn self_transfers_are_indexed_once() {
        let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
        chain.mint(addr("a"), Wei::from_eth(5));
        chain
            .transfer(addr("a"), addr("a"), Wei::from_eth(1), TxKind::Transfer)
            .unwrap();
        let scan = Etherscan::index(&chain, LabelService::new());
        // mint + self-transfer = 2 entries, not 3.
        assert_eq!(scan.tx_count(addr("a")), 2);
    }
}
