//! Fixed-size hash newtypes shared across the workspace.

use std::fmt;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Lower-case hex digits by nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `bytes` as lower-case hex with a `0x` prefix: two table lookups per
/// byte, one allocation per string.
pub(crate) fn prefixed_hex(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(2 + 2 * bytes.len());
    out.extend_from_slice(b"0x");
    for &b in bytes {
        out.push(HEX_DIGITS[usize::from(b >> 4)]);
        out.push(HEX_DIGITS[usize::from(b & 0x0f)]);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// A 32-byte hash value (keccak-256 output).
///
/// Serializes as a `0x`-prefixed hex string so it can be used as a JSON
/// map key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash32(pub [u8; 32]);

impl Serialize for Hash32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_hex())
    }
}

impl<'de> Deserialize<'de> for Hash32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Hash32::from_hex(&s).ok_or_else(|| serde::de::Error::custom("invalid 32-byte hex"))
    }
}

impl Hash32 {
    /// The all-zero hash, used by ENS as the root node.
    pub const ZERO: Hash32 = Hash32([0u8; 32]);

    /// Lower-case hex with `0x` prefix.
    pub fn to_hex(self) -> String {
        prefixed_hex(&self.0)
    }

    /// Parses a `0x`-prefixed (or bare) 64-digit hex string.
    pub fn from_hex(s: &str) -> Option<Hash32> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(Hash32(out))
    }

    /// The first 8 bytes interpreted as a big-endian integer — handy for
    /// deterministic pseudo-random derivations in the simulators.
    pub fn prefix_u64(self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("slice is 8 bytes"))
    }
}

impl fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash32({})", self.to_hex())
    }
}

impl fmt::Display for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash32 {
    fn from(v: [u8; 32]) -> Self {
        Hash32(v)
    }
}

macro_rules! hash_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub Hash32);

        impl $name {
            /// Lower-case hex with `0x` prefix.
            pub fn to_hex(self) -> String {
                self.0.to_hex()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0.to_hex())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl From<Hash32> for $name {
            fn from(h: Hash32) -> Self {
                $name(h)
            }
        }
    };
}

hash_newtype! {
    /// keccak-256 of a single label, e.g. `keccak256("gold")`.
    LabelHash
}

hash_newtype! {
    /// The recursive ENS namehash of a full name, e.g. `namehash("gold.eth")`.
    NameHash
}

hash_newtype! {
    /// An Ethereum transaction hash.
    TxHash
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte `format!` encoding the table replaced.
    fn formatted_hex(bytes: &[u8]) -> String {
        let digits: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        format!("0x{digits}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn to_hex_matches_per_byte_format(bytes in proptest::collection::vec(any::<u8>(), 32)) {
            let mut raw = [0u8; 32];
            raw.copy_from_slice(&bytes);
            let hash = Hash32(raw);
            prop_assert_eq!(hash.to_hex(), formatted_hex(&raw));
            prop_assert_eq!(Hash32::from_hex(&hash.to_hex()), Some(hash));
        }
    }

    #[test]
    fn to_hex_covers_every_byte_value() {
        for b in 0..=255u8 {
            assert_eq!(Hash32([b; 32]).to_hex(), formatted_hex(&[b; 32]));
        }
    }

    #[test]
    fn hex_round_trip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let h = Hash32(bytes);
        assert_eq!(Hash32::from_hex(&h.to_hex()), Some(h));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Hash32::from_hex("0x1234"), None);
        assert_eq!(Hash32::from_hex(&"zz".repeat(32)), None);
    }

    #[test]
    fn from_hex_accepts_bare_hex() {
        let h = Hash32([0xab; 32]);
        let bare = h.to_hex().trim_start_matches("0x").to_string();
        assert_eq!(Hash32::from_hex(&bare), Some(h));
    }

    #[test]
    fn zero_is_root_node() {
        assert_eq!(Hash32::ZERO.to_hex(), format!("0x{}", "00".repeat(32)));
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut bytes = [0u8; 32];
        bytes[7] = 1;
        assert_eq!(Hash32(bytes).prefix_u64(), 1);
        bytes[0] = 1;
        assert_eq!(Hash32(bytes).prefix_u64(), (1 << 56) + 1);
    }
}
