//! Stable structural hashing of pipeline artifacts.
//!
//! Cache keys must be identical across processes, platforms and runs, so
//! hashing cannot go through `std::hash` (whose `Hasher` values are
//! explicitly not portable and whose `HashMap` seeds are randomized).
//! [`StableHasher`] is a dependency-free dual-lane FNV-1a over a
//! *tagged* byte encoding: every write is prefixed with a type tag, and
//! variable-length payloads carry their length, so distinct structures
//! can never collide by concatenation (`["ab","c"]` vs `["a","bc"]`).
//!
//! The two 64-bit lanes differ in offset basis and input whitening and
//! are concatenated into a 128-bit [`Key`], making accidental collisions
//! across a repository-sized artifact population negligible.
//!
//! Byte-serial FNV costs about 20 ns per hashed `f64`, so bulk numeric
//! content (a training set of a million values) goes through
//! [`StableHasher::write_words`] instead: four independent
//! multiply/xor-shift lanes take one 64-bit word each in turn (about one
//! cycle per word), and only their 128-bit digest and the word count
//! enter the FNV lanes.
//!
//! Every hash stream is seeded with the cache schema version
//! ([`crate::SCHEMA`]) and a caller-chosen *domain* string (e.g.
//! `"ml.tree.fit"`), so artifacts of different kinds — or of different
//! cache generations — can never alias.

use serde::Value;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset whitening for the second lane (golden-ratio constant).
const LANE_B_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

/// Type tags; one byte precedes every logical write.
mod tag {
    pub const BYTES: u8 = 0x01;
    pub const U64: u8 = 0x02;
    pub const I64: u8 = 0x03;
    pub const F64: u8 = 0x04;
    pub const STR: u8 = 0x05;
    pub const BOOL: u8 = 0x06;
    pub const SEQ: u8 = 0x07;
    pub const OPT_NONE: u8 = 0x08;
    pub const OPT_SOME: u8 = 0x09;
    pub const NULL: u8 = 0x0a;
    pub const OBJECT: u8 = 0x0b;
    pub const WORDS: u8 = 0x0c;
}

/// Seeds of [`StableHasher::write_words`]' four word lanes (digits of pi).
const WORD_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Odd multiplier of the word lanes.
const WORD_MUL: u64 = 0x9fb2_1c65_1e98_df25;

/// One word-lane step: a bijection of `lane` for a fixed `word` and of
/// `word` for a fixed `lane`, so a single changed word always changes its
/// lane's final state.
fn word_step(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(WORD_MUL);
    x ^ (x >> 29)
}

/// The murmur3 64-bit finalizer: a full-avalanche bijection.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A 128-bit content digest, rendered as 32 lowercase hex characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub [u8; 16]);

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Deterministic structural hasher producing [`Key`]s.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl StableHasher {
    /// Starts a hash stream bound to the cache schema version and an
    /// artifact `domain`.
    pub fn new(domain: &str) -> Self {
        let mut h = StableHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ LANE_B_TWEAK,
        };
        h.write_str(crate::SCHEMA);
        h.write_str(domain);
        h
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        // Second lane sees whitened input so the lanes decorrelate.
        self.b = (self.b ^ u64::from(x ^ 0xa5)).wrapping_mul(FNV_PRIME);
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.byte(x);
        }
    }

    /// Hashes a raw byte string (length-prefixed).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.byte(tag::BYTES);
        self.raw(&(bytes.len() as u64).to_le_bytes());
        self.raw(bytes);
    }

    /// Hashes an unsigned integer.
    pub fn write_u64(&mut self, x: u64) {
        self.byte(tag::U64);
        self.raw(&x.to_le_bytes());
    }

    /// Hashes a `usize` (as `u64`; keys are platform-independent).
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Hashes a signed integer.
    pub fn write_i64(&mut self, x: i64) {
        self.byte(tag::I64);
        self.raw(&x.to_le_bytes());
    }

    /// Hashes a float by exact bit pattern (`-0.0` and `0.0` differ; every
    /// NaN payload is distinct — artifacts never contain NaN).
    pub fn write_f64(&mut self, x: f64) {
        self.byte(tag::F64);
        self.raw(&x.to_bits().to_le_bytes());
    }

    /// Hashes a string (length-prefixed UTF-8).
    pub fn write_str(&mut self, s: &str) {
        self.byte(tag::STR);
        self.raw(&(s.len() as u64).to_le_bytes());
        self.raw(s.as_bytes());
    }

    /// Hashes a bool.
    pub fn write_bool(&mut self, x: bool) {
        self.byte(tag::BOOL);
        self.byte(u8::from(x));
    }

    /// Announces a sequence of `len` elements (call before hashing them).
    pub fn write_seq_len(&mut self, len: usize) {
        self.byte(tag::SEQ);
        self.raw(&(len as u64).to_le_bytes());
    }

    /// Hashes a sequence of 64-bit words in one pass, at about one cycle
    /// per word instead of [`write_u64`](Self::write_u64)'s 18 FNV steps.
    ///
    /// Word `i` enters lane `i % 4`; the lanes are then folded, with the
    /// word count, into a 128-bit digest that both FNV lanes absorb. The
    /// count is also written, so appending a `0` word changes the key.
    /// The words carry no framing of their own: a caller hashing nested
    /// data writes each inner length as a word before its items.
    pub fn write_words(&mut self, words: impl IntoIterator<Item = u64>) {
        self.byte(tag::WORDS);
        // Rotating the lanes keeps all four in registers: the word that
        // updates a lane arrives four steps after its previous update.
        let (lanes, n) = words
            .into_iter()
            .fold((WORD_SEEDS, 0u64), |([a, b, c, d], n), w| {
                ([b, c, d, word_step(a, w)], n + 1)
            });
        let (mut lo, mut hi) = (fmix64(n), fmix64(n ^ LANE_B_TWEAK));
        for lane in lanes {
            lo = fmix64(lo ^ lane);
            hi = fmix64(hi.wrapping_add(lane).rotate_left(31));
        }
        self.raw(&n.to_le_bytes());
        self.raw(&lo.to_le_bytes());
        self.raw(&hi.to_le_bytes());
    }

    /// Finishes the stream into a 128-bit key.
    pub fn finish(&self) -> Key {
        // One final avalanche round per lane so short inputs still spread
        // across all 128 bits.
        let (a, b) = (fmix64(self.a), fmix64(self.b));
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        Key(out)
    }
}

/// Types with a canonical, process-independent hash encoding.
pub trait Hashable {
    /// Feeds `self`'s canonical encoding into `h`.
    fn stable_hash(&self, h: &mut StableHasher);
}

macro_rules! impl_hashable_uint {
    ($($t:ty),*) => {$(
        impl Hashable for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}
impl_hashable_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_hashable_int {
    ($($t:ty),*) => {$(
        impl Hashable for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_i64(i64::from(*self));
            }
        }
    )*};
}
impl_hashable_int!(i8, i16, i32, i64);

impl Hashable for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(*self);
    }
}

impl Hashable for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bool(*self);
    }
}

impl Hashable for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl Hashable for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: Hashable + ?Sized> Hashable for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (*self).stable_hash(h);
    }
}

impl<T: Hashable> Hashable for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_seq_len(self.len());
        for x in self {
            x.stable_hash(h);
        }
    }
}

impl<T: Hashable> Hashable for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: Hashable> Hashable for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.byte(tag::OPT_NONE),
            Some(x) => {
                h.byte(tag::OPT_SOME);
                x.stable_hash(h);
            }
        }
    }
}

/// Tuples hash their elements in order with no framing, so a tuple key
/// equals the same writes made one by one on a [`StableHasher`].
macro_rules! impl_hashable_tuple {
    ($($t:ident),+) => {
        impl<$($t: Hashable),+> Hashable for ($($t,)+) {
            #[allow(non_snake_case)]
            fn stable_hash(&self, h: &mut StableHasher) {
                let ($($t,)+) = self;
                $($t.stable_hash(h);)+
            }
        }
    };
}
impl_hashable_tuple!(A, B);
impl_hashable_tuple!(A, B, C);
impl_hashable_tuple!(A, B, C, D);
impl_hashable_tuple!(A, B, C, D, E);

impl Hashable for Value {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Value::Null => h.byte(tag::NULL),
            Value::Bool(b) => h.write_bool(*b),
            Value::UInt(n) => h.write_u64(*n),
            Value::Int(n) => h.write_i64(*n),
            Value::Float(x) => h.write_f64(*x),
            Value::Str(s) => h.write_str(s),
            Value::Array(items) => {
                h.write_seq_len(items.len());
                for v in items {
                    v.stable_hash(h);
                }
            }
            Value::Object(fields) => {
                h.byte(tag::OBJECT);
                h.write_seq_len(fields.len());
                for (k, v) in fields {
                    h.write_str(k);
                    v.stable_hash(h);
                }
            }
        }
    }
}

/// Keys an artifact in `domain` by its [`Hashable`] encoding.
pub fn key_for<T: Hashable + ?Sized>(domain: &str, artifact: &T) -> Key {
    let mut h = StableHasher::new(domain);
    artifact.stable_hash(&mut h);
    h.finish()
}

/// Keys any [`serde::Serialize`] artifact through its canonical JSON
/// [`Value`] tree — the generic fallback when a hand-written
/// [`Hashable`] impl is not worth the code.
pub fn key_for_serialized<T: serde::Serialize + ?Sized>(domain: &str, artifact: &T) -> Key {
    key_for(domain, &artifact.to_value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_domain_separated() {
        let k1 = key_for("a", &42u64);
        let k2 = key_for("a", &42u64);
        let k3 = key_for("b", &42u64);
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn concatenation_cannot_alias() {
        let ab_c = key_for("t", &vec!["ab".to_string(), "c".to_string()]);
        let a_bc = key_for("t", &vec!["a".to_string(), "bc".to_string()]);
        assert_ne!(ab_c, a_bc);
        // Nested vs flat sequences differ too.
        let flat = key_for("t", &vec![1u64, 2, 3]);
        let nested = key_for("t", &vec![vec![1u64, 2], vec![3]]);
        assert_ne!(flat, nested);
    }

    #[test]
    fn float_hash_is_bit_exact() {
        assert_ne!(key_for("t", &0.0f64), key_for("t", &-0.0f64));
        assert_eq!(key_for("t", &0.1f64), key_for("t", &0.1f64));
    }

    #[test]
    fn tuples_add_no_framing() {
        let mut h = StableHasher::new("t");
        h.write_str("app");
        h.write_u64(7);
        h.write_f64(0.5);
        h.write_usize(3);
        h.write_bool(true);
        assert_eq!(
            key_for("t", &("app", 7u64, 0.5f64, 3usize, true)),
            h.finish()
        );
    }

    fn words_key(words: &[u64]) -> Key {
        let mut h = StableHasher::new("t");
        h.write_words(words.iter().copied());
        h.finish()
    }

    /// Rows encoded the way `Dataset` keys them: each row's length, then
    /// its values' bit patterns.
    fn rows_key(rows: &[&[f64]]) -> Key {
        let mut h = StableHasher::new("t");
        h.write_words(rows.iter().flat_map(|row| {
            std::iter::once(row.len() as u64).chain(row.iter().map(|v| v.to_bits()))
        }));
        h.finish()
    }

    /// Eleven distinct words: not a multiple of the four lanes.
    fn sample_words() -> Vec<u64> {
        (0..11u64)
            .map(|i| (i as f64 * 0.37 - 1.5).to_bits() ^ (i << 7))
            .collect()
    }

    #[test]
    fn every_flipped_word_bit_moves_the_key() {
        let words = sample_words();
        let base = words_key(&words);
        let last = words.len() - 1;
        for pos in (0..5).chain([last]) {
            for bit in [0, 31, 52, 63] {
                let mut flipped = words.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(words_key(&flipped), base, "bit {bit} of word {pos}");
            }
        }
    }

    #[test]
    fn word_order_count_and_rows_move_the_key() {
        let words = sample_words();
        let base = words_key(&words);
        for i in 0..words.len() - 1 {
            let mut swapped = words.clone();
            swapped.swap(i, i + 1);
            assert_ne!(words_key(&swapped), base, "swap of words {i} and {}", i + 1);
        }
        let mut longer = words.clone();
        longer.push(0);
        assert_ne!(words_key(&longer), base);
        assert_ne!(words_key(&[]), words_key(&[0]));

        let (a, b, c) = (0.5, -1.25, 3.0);
        assert_ne!(rows_key(&[&[a, b], &[c]]), rows_key(&[&[a], &[b, c]]));
        assert_ne!(rows_key(&[&[0.0]]), rows_key(&[&[-0.0]]));
        assert_eq!(rows_key(&[&[a, b], &[c]]), rows_key(&[&[a, b], &[c]]));
    }

    #[test]
    fn word_writer_is_framed_apart_from_scalar_writes() {
        let mut scalar = StableHasher::new("t");
        scalar.write_u64(7);
        assert_ne!(words_key(&[7]), scalar.finish());
    }

    #[test]
    fn display_is_32_hex_chars() {
        let hex = key_for("t", &7u64).to_string();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn value_and_direct_hashing_agree_for_scalars() {
        // `Value` hashing reuses the scalar writers, so a `Value::UInt`
        // sequence matches the equivalent direct writes.
        let via_value = key_for("t", &Value::Array(vec![Value::UInt(1), Value::UInt(2)]));
        let direct = key_for("t", &vec![1u64, 2u64]);
        assert_eq!(via_value, direct);
    }
}
