//! Ethereum account addresses.

use std::fmt;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::hash::prefixed_hex;
use crate::keccak::{keccak256, Keccak256};

/// A 20-byte Ethereum address.
///
/// Addresses are the join key of the whole study: ENS domains resolve to
/// addresses, transactions move value between addresses, and the financial
/// loss heuristic of the paper's §4.4 is a pattern over (sender, receiver)
/// address pairs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Serialize for Address {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_hex())
    }
}

impl<'de> Deserialize<'de> for Address {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Address::from_hex(&s).ok_or_else(|| serde::de::Error::custom("invalid 20-byte hex"))
    }
}

impl Address {
    /// The zero address (used as "nobody" / burn).
    pub const ZERO: Address = Address([0u8; 20]);

    /// Deterministically derives an address from a seed — the simulators use
    /// this instead of real key generation, keccak-hashing the seed exactly
    /// like Ethereum derives addresses from public keys (last 20 bytes).
    pub fn derive(seed: &[u8]) -> Address {
        Address::from_digest(keccak256(seed))
    }

    /// The last 20 bytes of a keccak digest, as Ethereum takes an address
    /// from a public-key hash.
    fn from_digest(h: [u8; 32]) -> Address {
        let mut out = [0u8; 20];
        out.copy_from_slice(&h[12..]);
        Address(out)
    }

    /// Derives the `n`-th address in a named family, e.g. `("sender", 42)`.
    pub fn derive_indexed(family: &str, n: u64) -> Address {
        let mut h = Keccak256::new();
        h.update(family.as_bytes());
        h.update(b"/");
        h.update(&n.to_be_bytes());
        Address::from_digest(h.finalize())
    }

    /// Lower-case hex with `0x` prefix (no EIP-55 checksum).
    pub fn to_hex(self) -> String {
        prefixed_hex(&self.0)
    }

    /// EIP-55 mixed-case checksum encoding.
    pub fn to_checksum_hex(self) -> String {
        let lower: String = self.to_hex()[2..].to_string();
        let digest = keccak256(lower.as_bytes());
        let mut out = String::with_capacity(42);
        out.push_str("0x");
        for (i, c) in lower.chars().enumerate() {
            let nibble = (digest[i / 2] >> (4 * (1 - i % 2))) & 0x0f;
            if c.is_ascii_alphabetic() && nibble >= 8 {
                out.push(c.to_ascii_uppercase());
            } else {
                out.push(c);
            }
        }
        out
    }

    /// Parses a `0x`-prefixed (or bare) 40-digit hex string, case-insensitive.
    pub fn from_hex(s: &str) -> Option<Address> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.len() != 40 {
            return None;
        }
        let mut out = [0u8; 20];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(Address(out))
    }

    /// True for the zero address.
    pub fn is_zero(self) -> bool {
        self == Address::ZERO
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({})", self.to_hex())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn to_hex_matches_per_byte_format(bytes in proptest::collection::vec(any::<u8>(), 20)) {
            let mut raw = [0u8; 20];
            raw.copy_from_slice(&bytes);
            let a = Address(raw);
            let digits: String = raw.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert_eq!(a.to_hex(), format!("0x{digits}"));
            prop_assert_eq!(Address::from_hex(&a.to_hex()), Some(a));
        }
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let a = Address::derive(b"alice");
        let b = Address::derive(b"alice");
        let c = Address::derive(b"bob");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_zero());
    }

    #[test]
    fn derive_indexed_distinguishes_family_and_index() {
        assert_ne!(
            Address::derive_indexed("sender", 1),
            Address::derive_indexed("sender", 2)
        );
        assert_ne!(
            Address::derive_indexed("sender", 1),
            Address::derive_indexed("owner", 1)
        );
        // The separator prevents ("ab", 1) from colliding with ("a", ...)
        // style ambiguity.
        assert_ne!(
            Address::derive_indexed("ab", 0x2f01),
            Address::derive_indexed("ab/", 0x01)
        );
    }

    #[test]
    fn hex_round_trip() {
        let a = Address::derive(b"round-trip");
        assert_eq!(Address::from_hex(&a.to_hex()), Some(a));
        assert_eq!(Address::from_hex(&a.to_checksum_hex()), Some(a));
    }

    #[test]
    fn eip55_known_vector() {
        // Vector from EIP-55.
        let a = Address::from_hex("0x5aaeb6053f3e94c9b9a09f33669435e7ef1beaed").unwrap();
        assert_eq!(
            a.to_checksum_hex(),
            "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed"
        );
    }

    #[test]
    fn from_hex_rejects_bad_lengths() {
        assert_eq!(Address::from_hex("0x1234"), None);
        assert_eq!(Address::from_hex(&"0".repeat(41)), None);
    }
}
