//! The reverse registrar: `address → primary name` records.
//!
//! On mainnet, a user can claim `<addr>.addr.reverse` and point it at their
//! name, making the name their *primary name*; forward-and-back agreement
//! (`resolve(name) == addr` **and** `reverse(addr) == name`) is the
//! integrity check well-behaved dApps perform. Dropcatchers rarely bother
//! claiming reverse records for caught names — which makes the reverse
//! check a natural *additional* countermeasure beyond the expiry warning
//! the paper proposes; `ens-dropcatch::countermeasures` evaluates both.

use ens_types::{Address, EnsName, FastMap};
use serde::{Deserialize, Serialize};

/// address → primary name registrations.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReverseRegistrar {
    records: FastMap<Address, EnsName>,
}

impl ReverseRegistrar {
    /// Creates an empty reverse registrar.
    pub fn new() -> ReverseRegistrar {
        ReverseRegistrar::default()
    }

    /// The primary name claimed by `addr`, if any.
    pub fn primary_name(&self, addr: Address) -> Option<&EnsName> {
        self.records.get(&addr)
    }

    /// Sets `addr`'s primary name. On chain, only `addr` itself can do
    /// this (the reverse node is derived from the caller), so there is no
    /// ownership parameter to check — the caller *is* the owner.
    pub(crate) fn set_primary_name(&mut self, addr: Address, name: EnsName) {
        self.records.insert(addr, name);
    }

    /// Clears `addr`'s primary name.
    pub(crate) fn clear(&mut self, addr: Address) {
        self.records.remove(&addr);
    }

    /// Number of claimed reverse records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_and_clear_round_trip() {
        let mut rev = ReverseRegistrar::new();
        let alice = Address::derive(b"alice");
        let name = EnsName::parse("gold.eth").unwrap();
        assert_eq!(rev.primary_name(alice), None);
        rev.set_primary_name(alice, name.clone());
        assert_eq!(rev.primary_name(alice), Some(&name));
        rev.clear(alice);
        assert_eq!(rev.primary_name(alice), None);
        assert!(rev.is_empty());
    }
}
