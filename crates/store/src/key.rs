//! Canonical row-key encoding.
//!
//! The lock manager and the shard router need a uniform, order-preserving
//! byte representation of every table's primary key. [`KeyCodec`] provides
//! it: `encode_into` must be injective per table, and the byte ordering
//! must agree with the key's `Ord` (so range/ordering reasoning carries
//! over). [`EncodedKey`] is the owned form the lock manager works with:
//! small keys (integers, id+short-name tuples) live inline with no heap
//! allocation, so cloning one into a lock table is a memcpy.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A type usable as a table primary key.
///
/// Implementations must guarantee that `a < b ⇔ a.encode() < b.encode()`
/// (lexicographic byte order), which the provided implementations do by
/// using big-endian integers and length-prefix-free suffix strings.
pub trait KeyCodec: Ord + Clone + 'static {
    /// Appends the order-preserving, injective byte encoding of the key.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Order-preserving, injective byte encoding of the key.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// This key as a row id — its address in a table created by
    /// [`Db::create_id_table`](crate::Db::create_id_table). Only `u64`
    /// keys are ids.
    #[inline]
    fn row_id(&self) -> Option<u64> {
        None
    }

    /// The key whose [`row_id`](KeyCodec::row_id) is `id`.
    #[inline]
    fn from_row_id(_id: u64) -> Option<Self> {
        None
    }
}

impl KeyCodec for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }

    #[inline]
    fn row_id(&self) -> Option<u64> {
        Some(*self)
    }

    #[inline]
    fn from_row_id(id: u64) -> Option<Self> {
        Some(id)
    }
}

impl KeyCodec for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl KeyCodec for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl KeyCodec for (u64, String) {
    /// Big-endian id then the string; ordering matches the tuple `Ord`
    /// because the fixed-width prefix compares first.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_be_bytes());
        out.extend_from_slice(self.1.as_bytes());
    }
}

impl KeyCodec for (u64, u64) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_be_bytes());
        out.extend_from_slice(&self.1.to_be_bytes());
    }
}

/// One interned name: the text plus its precomputed comparison prefix.
///
/// Leaked once per distinct name by whoever owns the vocabulary (the
/// namespace's component interner; tests call [`NameEntry::leak`]), so a
/// [`NameKey`] can point at it with a thin reference.
#[derive(Debug)]
pub struct NameEntry {
    prefix: u64,
    text: &'static str,
}

impl NameEntry {
    /// Leaks a new entry for `name`. Every call allocates: deduplicating
    /// equal names is the caller's business (equal text compares equal
    /// across entries regardless).
    #[must_use]
    pub fn leak(name: &str) -> &'static NameEntry {
        let text: &'static str = Box::leak(name.into());
        Box::leak(Box::new(NameEntry { prefix: name_prefix(text), text }))
    }

    /// The name text.
    #[must_use]
    pub fn text(&self) -> &'static str {
        self.text
    }

    /// This name as an `(id, name)` row-key suffix.
    #[must_use]
    pub fn key(&'static self) -> NameKey {
        NameKey { prefix: self.prefix, entry: self }
    }
}

/// The first eight bytes of `name`, big-endian, zero-padded: comparing two
/// of these as integers compares those bytes lexicographically.
fn name_prefix(name: &str) -> u64 {
    let bytes = name.as_bytes();
    let mut head = [0u8; 8];
    let n = bytes.len().min(8);
    head[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(head)
}

/// A `Copy` name suffix for `(id, name)` row keys: the name's first eight
/// bytes inline plus a thin reference to its interned [`NameEntry`], so a
/// children-index row key is 24 bytes with no heap box, cloning one is a
/// memcpy, and ordering two keys reads no memory outside them unless
/// their first eight bytes tie.
///
/// Equality, ordering and hashing are by **content**, exactly like the
/// `String` this stands in for: two `NameKey`s built from different
/// entries with equal text still collide — interning is a memory
/// optimization, never a correctness requirement.
///
/// Ordering compares the prefixes first. Zero is the smallest byte, so
/// padding a short name with zeros orders it where `str` does whenever
/// the prefixes differ. Equal prefixes decide nothing — `"a"` and `"a\0"`
/// share one — so they always fall through to the full `str` comparison
/// (skipped when both keys point at the same entry).
#[derive(Clone, Copy)]
pub struct NameKey {
    prefix: u64,
    entry: &'static NameEntry,
}

impl NameKey {
    /// The smallest key (`""`): the start bound for `ls`-style range scans
    /// over one parent id, `(dir, NameKey::MIN)..(dir + 1, NameKey::MIN)`.
    pub const MIN: NameKey = NameKey { prefix: 0, entry: &NameEntry { prefix: 0, text: "" } };

    /// The name text.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.entry.text
    }
}

impl PartialEq for NameKey {
    fn eq(&self, other: &Self) -> bool {
        self.prefix == other.prefix
            && (std::ptr::eq(self.entry, other.entry) || self.entry.text == other.entry.text)
    }
}

impl Eq for NameKey {}

impl Ord for NameKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.prefix.cmp(&other.prefix) {
            Ordering::Equal if std::ptr::eq(self.entry, other.entry) => Ordering::Equal,
            Ordering::Equal => self.entry.text.cmp(other.entry.text),
            decided => decided,
        }
    }
}

impl PartialOrd for NameKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for NameKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entry.text.hash(state);
    }
}

impl fmt::Debug for NameKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("NameKey").field(&self.entry.text).finish()
    }
}

impl fmt::Display for NameKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.entry.text)
    }
}

impl KeyCodec for (u64, NameKey) {
    /// Byte-identical to the `(u64, String)` encoding of the same text, so
    /// migrating a table's key type moves no row to a different shard and
    /// reorders no lock acquisition.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_be_bytes());
        out.extend_from_slice(self.1.entry.text.as_bytes());
    }
}

/// Bytes a key may occupy before spilling to the heap: covers `u64`,
/// `(u64, u64)`, and `(u64, name)` keys with names up to 14 bytes — every
/// key the metadata schema produces for typical component names — while
/// keeping the whole [`EncodedKey`] at 24 bytes (23 would pad the enum out
/// to 32).
const INLINE_KEY: usize = 22;

/// An owned, encoded row key with small-key optimization.
///
/// Equality, ordering, and hashing are all over the encoded bytes, so they
/// agree with the source key's `Ord` per the [`KeyCodec`] contract
/// regardless of representation.
#[derive(Clone)]
pub enum EncodedKey {
    /// Key bytes stored inline (the common case).
    Inline {
        /// Number of meaningful bytes in `buf`.
        len: u8,
        /// Inline storage; only `buf[..len]` is the key.
        buf: [u8; INLINE_KEY],
    },
    /// Key too large for the inline buffer.
    Heap(Box<[u8]>),
}

impl EncodedKey {
    /// Wraps already-encoded key bytes.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> EncodedKey {
        if bytes.len() <= INLINE_KEY {
            let mut buf = [0u8; INLINE_KEY];
            buf[..bytes.len()].copy_from_slice(bytes);
            EncodedKey::Inline { len: bytes.len() as u8, buf }
        } else {
            EncodedKey::Heap(bytes.into())
        }
    }

    /// Encodes a key directly, reusing `scratch` as the staging buffer.
    #[must_use]
    pub fn encode<K: KeyCodec>(key: &K, scratch: &mut Vec<u8>) -> EncodedKey {
        scratch.clear();
        key.encode_into(scratch);
        EncodedKey::from_slice(scratch)
    }

    /// The encoded key bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            EncodedKey::Inline { len, buf } => &buf[..usize::from(*len)],
            EncodedKey::Heap(bytes) => bytes,
        }
    }
}

impl PartialEq for EncodedKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for EncodedKey {}

impl Ord for EncodedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for EncodedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for EncodedKey {
    /// The length, then the bytes a little-endian word at a time (the last
    /// word zero-padded): a [`MixHasher`] mixes every word it is given.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let bytes = self.as_slice();
        state.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            state.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            state.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// Integer-keyed hasher: a splitmix64 round per word written. The cache's
/// child map hashes one packed `u64` per trie step, inode ids and request
/// ids one or two words, the lock table's [`EncodedKey`]s a few words, so
/// no SipHash runs on those paths. Not collision-resistant: only for keys
/// the program itself builds.
#[derive(Debug, Default, Clone)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for keys that are not words (unused on the hot paths).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let mut x = x ^ self.0;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

/// `BuildHasher` for maps keyed by program-built integers and keys (inode
/// ids, trie slots, request ids, transaction ids, waiter tokens, row locks).
pub type MixBuild = BuildHasherDefault<MixHasher>;

impl fmt::Debug for EncodedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x?}", self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_encoding_preserves_order() {
        let mut values = [0u64, 1, 255, 256, u64::MAX, 42, 1 << 40];
        values.sort_unstable();
        let encoded: Vec<Vec<u8>> = values.iter().map(KeyCodec::encode).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn tuple_encoding_preserves_order() {
        let mut keys = [(1u64, "b".to_string()),
            (1, "a".to_string()),
            (2, "".to_string()),
            (1, "ab".to_string()),
            (0, "zzz".to_string())];
        keys.sort();
        let encoded: Vec<Vec<u8>> = keys.iter().map(KeyCodec::encode).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted);

        // The `NameKey` form of the same keys sorts the same way and
        // encodes to the same bytes (lock keys and shard routing hang off
        // them).
        let mut name_keys: Vec<(u64, NameKey)> =
            keys.iter().rev().map(|(id, name)| (*id, NameEntry::leak(name).key())).collect();
        name_keys.sort();
        let name_encoded: Vec<Vec<u8>> = name_keys.iter().map(KeyCodec::encode).collect();
        assert_eq!(name_encoded, encoded);
    }

    #[test]
    fn name_keys_stay_two_words() {
        assert_eq!(std::mem::size_of::<NameKey>(), 16);
        assert_eq!(std::mem::size_of::<(u64, NameKey)>(), 24);
    }

    #[test]
    fn encodings_are_injective_within_a_table() {
        assert_ne!((1u64, "ab".to_string()).encode(), (1u64, "ac".to_string()).encode());
        assert_ne!(5u64.encode(), 6u64.encode());
        assert_ne!((1u64, 2u64).encode(), (2u64, 1u64).encode());
    }

    #[test]
    fn encoded_key_agrees_with_raw_bytes_across_representations() {
        let mut scratch = Vec::new();
        let short = EncodedKey::encode(&7u64, &mut scratch);
        assert!(matches!(short, EncodedKey::Inline { .. }));
        assert_eq!(short.as_slice(), 7u64.encode().as_slice());

        let long_name = "a-deliberately-long-component-name".to_string();
        let long = EncodedKey::encode(&(9u64, long_name.clone()), &mut scratch);
        assert!(matches!(long, EncodedKey::Heap(_)));
        assert_eq!(long.as_slice(), (9u64, long_name).encode().as_slice());

        // Ordering and equality are representation-independent.
        let mut keys = [long.clone(), short.clone(), EncodedKey::from_slice(b"")];
        keys.sort();
        assert_eq!(keys[0].as_slice(), b"");
        assert_eq!(short, EncodedKey::from_slice(&7u64.encode()));
    }
}
