//! Transactions recorded by the simulated ledger.

use ens_types::{Address, BlockNumber, Hash32, Timestamp, TxHash, Wei};
use serde::{Deserialize, Serialize};

/// Why a transfer happened — the ledger itself does not interpret this, but
/// downstream analytics (and tests) use it as ground truth to validate the
/// paper's *inference-only* pipeline, which never gets to see it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxKind {
    /// A plain value transfer between externally-owned accounts.
    Transfer,
    /// A payment into a contract, labelled with the contract's short name
    /// (e.g. `"ens-controller"`, `"opensea"`).
    ContractPayment {
        /// Short identifier of the receiving contract.
        contract: String,
    },
    /// Funds minted at genesis / by a faucet (no real sender).
    Mint,
}

/// A confirmed transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Unique transaction hash.
    pub hash: TxHash,
    /// Block in which the transaction was included.
    pub block: BlockNumber,
    /// Block timestamp.
    pub timestamp: Timestamp,
    /// Sender address ([`Address::ZERO`] for mints).
    pub from: Address,
    /// Recipient address.
    pub to: Address,
    /// Value moved, in wei.
    pub value: Wei,
    /// Ground-truth category (invisible to the measurement pipeline).
    pub kind: TxKind,
}

impl Transaction {
    /// Derives the deterministic hash for the `nonce`-th transaction.
    pub(crate) fn derive_hash(nonce: u64, from: Address, to: Address, value: Wei) -> TxHash {
        let mut seed = [0u8; 8 + 20 + 20 + 16];
        seed[..8].copy_from_slice(&nonce.to_be_bytes());
        seed[8..28].copy_from_slice(&from.0);
        seed[28..48].copy_from_slice(&to.0);
        seed[48..].copy_from_slice(&value.0.to_be_bytes());
        TxHash(Hash32(ens_types::keccak256(&seed)))
    }
}
