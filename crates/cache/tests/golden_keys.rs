//! Golden cache keys: pinned hex digests of representative keys.
//!
//! A cache key is a contract with every store a user has on disk. These
//! pins fix the digest of each writer and each `Hashable` encoding of
//! this crate: if one moves, every key built on it moves and stored
//! artifacts silently stop matching. A new encoding is added as a new
//! writer with a new pin (as `write_words` was), never by editing a
//! pinned one. `cache::SCHEMA` is bumped when a stored value's encoding
//! or a producer's meaning changes.

use cache::{key_for, StableHasher};

fn hex(key: cache::Key) -> String {
    key.to_string()
}

#[test]
fn schema_tag_is_pinned() {
    assert_eq!(cache::SCHEMA, "cache-v1");
}

#[test]
fn writer_surface_digests_are_pinned() {
    // One key exercising every writer; drifts if any encoding changes.
    let mut h = StableHasher::new("golden.writers");
    h.write_bytes(b"raw");
    h.write_u64(42);
    h.write_usize(7);
    h.write_i64(-3);
    h.write_f64(1.5);
    h.write_str("printed-ml");
    h.write_bool(true);
    h.write_seq_len(4);
    assert_eq!(hex(h.finish()), "f5c5ad6ed26d30ffda61357b5a8e7e5b");

    // Domain separation: same writes, different domain, different key.
    let mut h = StableHasher::new("golden.writers2");
    h.write_bytes(b"raw");
    h.write_u64(42);
    h.write_usize(7);
    h.write_i64(-3);
    h.write_f64(1.5);
    h.write_str("printed-ml");
    h.write_bool(true);
    h.write_seq_len(4);
    assert_eq!(hex(h.finish()), "17cd0ed94d3dcca86369a9b9924ae28a");
}

/// The bulk word writer on the encoding `Dataset` keys use: a row
/// length, the row's `f64` bit patterns, then labels.
fn golden_words() -> StableHasher {
    let mut h = StableHasher::new("golden.words");
    h.write_words([
        2,
        0.25f64.to_bits(),
        (-1.0f64).to_bits(),
        1,
        3.5f64.to_bits(),
        0,
        1,
    ]);
    h
}

#[test]
fn word_writer_digest_is_pinned() {
    assert_eq!(
        hex(golden_words().finish()),
        "64deea7fab8696e4a44f36bd70d71b15"
    );
}

#[test]
fn hashable_digests_are_pinned() {
    assert_eq!(
        hex(key_for("golden.u64", &42u64)),
        "95cc3eb557b8f47b2744a4c9ac9e5bce"
    );
    assert_eq!(
        hex(key_for("golden.str", &"cardio")),
        "51469daa2ac3004a513478b10bb3e51c"
    );
    assert_eq!(
        hex(key_for("golden.floats", &vec![0.25f64, -1.0, 3.5])),
        "a24b2e27e72230410d2f975ebb4ce809"
    );
    assert_eq!(
        hex(key_for("golden.tuple", &(4usize, "har", 1e-4f64))),
        "471816bb774ccf636727890d10a5cf8b"
    );
    assert_eq!(
        hex(key_for("golden.option", &(Some(1u32), Option::<u32>::None))),
        "61bd799671b1cfeaf12e496b3a098aa0"
    );
}

#[test]
fn serialized_value_digest_is_pinned() {
    let v = serde::Value::Object(vec![
        ("epochs".to_string(), serde::Value::UInt(100)),
        ("l2".to_string(), serde::Value::Float(1e-5)),
        ("name".to_string(), serde::Value::Str("svm".to_string())),
    ]);
    assert_eq!(
        hex(cache::key_for_serialized("golden.value", &v)),
        "29e924fc67bae29441305355b69f1ee4"
    );
}

#[test]
fn float_keys_are_bit_exact() {
    // -0.0 and 0.0 are different bit patterns and must key differently:
    // the cache trades hash collisions on "equal" floats for never
    // conflating two computations whose inputs differ at the bit level.
    let a = key_for("golden.float", &0.0f64);
    let b = key_for("golden.float", &(-0.0f64));
    assert_ne!(a, b);
    // NaN keys equal itself (payload bits are hashed, not compared).
    let n1 = key_for("golden.float", &f64::NAN);
    let n2 = key_for("golden.float", &f64::NAN);
    assert_eq!(n1, n2);
}

#[test]
fn seq_and_str_framing_do_not_collide() {
    // Length framing: ["ab","c"] vs ["a","bc"] must differ.
    let a = key_for("golden.frame", &vec!["ab".to_string(), "c".to_string()]);
    let b = key_for("golden.frame", &vec!["a".to_string(), "bc".to_string()]);
    assert_ne!(a, b);
}

/// Prints the current digests; run with `--nocapture` to re-pin after an
/// intentional schema bump.
#[test]
fn print_current_digests() {
    let mut h = StableHasher::new("golden.writers");
    h.write_bytes(b"raw");
    h.write_u64(42);
    h.write_usize(7);
    h.write_i64(-3);
    h.write_f64(1.5);
    h.write_str("printed-ml");
    h.write_bool(true);
    h.write_seq_len(4);
    println!("PIN_WRITERS = {}", hex(h.finish()));
    let mut h = StableHasher::new("golden.writers2");
    h.write_bytes(b"raw");
    h.write_u64(42);
    h.write_usize(7);
    h.write_i64(-3);
    h.write_f64(1.5);
    h.write_str("printed-ml");
    h.write_bool(true);
    h.write_seq_len(4);
    println!("PIN_WRITERS2 = {}", hex(h.finish()));
    println!("PIN_WORDS = {}", hex(golden_words().finish()));
    println!("PIN_U64 = {}", hex(key_for("golden.u64", &42u64)));
    println!("PIN_STR = {}", hex(key_for("golden.str", &"cardio")));
    println!(
        "PIN_FLOATS = {}",
        hex(key_for("golden.floats", &vec![0.25f64, -1.0, 3.5]))
    );
    println!(
        "PIN_TUPLE = {}",
        hex(key_for("golden.tuple", &(4usize, "har", 1e-4f64)))
    );
    println!(
        "PIN_OPTION = {}",
        hex(key_for("golden.option", &(Some(1u32), Option::<u32>::None)))
    );
    let v = serde::Value::Object(vec![
        ("epochs".to_string(), serde::Value::UInt(100)),
        ("l2".to_string(), serde::Value::Float(1e-5)),
        ("name".to_string(), serde::Value::Str("svm".to_string())),
    ]);
    println!(
        "PIN_VALUE = {}",
        hex(cache::key_for_serialized("golden.value", &v))
    );
}
