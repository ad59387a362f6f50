//! Self-describing values and the record of what the benchmark wrote, so
//! every read can be checked.
//!
//! A value carries its key id and a per-key version in a 16-byte header,
//! followed by filler derived from both, so a read that returns another
//! key's value, a stale version or damaged bytes is caught. Each key has a
//! single writer thread, so versions reach the engine in increasing order
//! and "the last write acked before a read began" is well defined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bolt_ycsb::key_name;

const HEADER: usize = 16;

fn filler_word(id: u64, version: u64) -> u64 {
    // splitmix64 of the (id, version) pair.
    let mut z = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ version.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `len`-byte value for version `version` of key `id`.
pub fn encode(id: u64, version: u64, len: usize) -> Vec<u8> {
    assert!(len >= HEADER, "values hold a {HEADER}-byte header");
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let word = filler_word(id, version).to_le_bytes();
    while v.len() < len {
        let take = (len - v.len()).min(word.len());
        v.extend_from_slice(&word[..take]);
    }
    v
}

/// `(id, version)` of a value written by [`encode`] with length `len`, or
/// `None` if the bytes are not such a value.
pub fn decode(value: &[u8], len: usize) -> Option<(u64, u64)> {
    if value.len() != len || len < HEADER {
        return None;
    }
    let id = u64::from_le_bytes(value[..8].try_into().ok()?);
    let version = u64::from_le_bytes(value[8..16].try_into().ok()?);
    let word = filler_word(id, version).to_le_bytes();
    let intact = value[HEADER..]
        .chunks(word.len())
        .all(|c| c == &word[..c.len()]);
    intact.then_some((id, version))
}

/// Per-key write record: the highest version issued and the highest acked.
#[derive(Debug)]
pub struct Keyspace {
    value_len: usize,
    issued: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
}

impl Keyspace {
    /// Room for ids `0..capacity`, none written yet.
    pub fn new(capacity: usize, value_len: usize) -> Keyspace {
        Keyspace {
            value_len,
            issued: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of ids this keyspace can hold.
    pub fn capacity(&self) -> usize {
        self.issued.len()
    }

    /// The next version of `id` and its value. Only `id`'s one writer calls
    /// this.
    pub fn next_write(&self, id: u64) -> (u64, Vec<u8>) {
        let version = self.issued[id as usize].fetch_add(1, Ordering::SeqCst) + 1;
        (version, encode(id, version, self.value_len))
    }

    /// Record that the engine acked `version` of `id`.
    pub fn ack(&self, id: u64, version: u64) {
        self.acked[id as usize].fetch_max(version, Ordering::SeqCst);
    }

    /// The highest acked version of `id` (0: never acked).
    pub fn acked(&self, id: u64) -> u64 {
        self.acked[id as usize].load(Ordering::SeqCst)
    }

    /// The highest version of `id` ever handed to the engine.
    pub fn issued(&self, id: u64) -> u64 {
        self.issued[id as usize].load(Ordering::SeqCst)
    }

    /// Check a read of `id` that began when its acked version was `floor`:
    /// the value must be one the benchmark wrote for `id`, no older than
    /// `floor`.
    pub fn check(&self, id: u64, floor: u64, value: Option<&[u8]>) -> Result<(), String> {
        let key = String::from_utf8_lossy(&key_name(id)).into_owned();
        let Some(value) = value else {
            return Err(format!("{key} (id {id}) missing; acked version {floor}"));
        };
        let Some((got_id, version)) = decode(value, self.value_len) else {
            return Err(format!(
                "{key} (id {id}) returned bytes the benchmark never wrote"
            ));
        };
        if got_id != id {
            return Err(format!("{key} (id {id}) returned the value of id {got_id}"));
        }
        if version < floor || version > self.issued(id) {
            return Err(format!(
                "{key} (id {id}) returned version {version}; acked {floor}, issued {}",
                self.issued(id)
            ));
        }
        Ok(())
    }
}

/// Collects correctness violations from every client thread.
#[derive(Debug, Default)]
pub struct Checker {
    violations: AtomicU64,
    first: Mutex<Option<String>>,
}

impl Checker {
    /// Record `result` if it is a violation.
    pub fn record(&self, result: Result<(), String>) {
        if let Err(msg) = result {
            self.violations.fetch_add(1, Ordering::SeqCst);
            self.first
                .lock()
                .expect("checker poisoned")
                .get_or_insert(msg);
        }
    }

    /// Number of violations so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::SeqCst)
    }

    /// The first violation, if any.
    pub fn first(&self) -> Option<String> {
        self.first.lock().expect("checker poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_damage() {
        let v = encode(7, 3, 1024);
        assert_eq!(decode(&v, 1024), Some((7, 3)));
        let mut bad = v.clone();
        bad[900] ^= 1;
        assert_eq!(decode(&bad, 1024), None);
        assert_eq!(decode(&v[..1000], 1024), None);
        assert_ne!(encode(7, 4, 1024)[16..], v[16..]);
    }

    #[test]
    fn check_enforces_the_acked_floor() {
        let ks = Keyspace::new(4, 64);
        let (v1, val1) = ks.next_write(2);
        ks.ack(2, v1);
        let (_, val2) = ks.next_write(2);
        assert!(ks.check(2, 1, Some(&val1)).is_ok());
        assert!(
            ks.check(2, 1, Some(&val2)).is_ok(),
            "in-flight write may be seen"
        );
        assert!(ks.check(2, 2, Some(&val1)).is_err(), "older than the floor");
        assert!(ks.check(3, 0, Some(&val1)).is_err(), "another key's value");
        assert!(ks.check(2, 1, None).is_err());
    }
}
