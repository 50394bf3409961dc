//! Deterministic integer hashing for simulator-assigned id tables.
//!
//! The simulation hits hash tables on every asynchronous event: the
//! [`TimeQueue`](crate::queue::TimeQueue)'s live and cancelled sequence
//! sets on every push and pop, the browser's pending-event and channel
//! maps, and the kernel's equeue token map and worker tables. All of those
//! keys are sequential integers the simulator assigns itself (queue
//! sequence numbers, event tokens, worker and thread ids, …), never
//! attacker-controlled data, so the standard library's DoS-resistant
//! SipHash — by far the dominant cost of a small `HashMap` operation —
//! buys nothing here. [`FastHasher`] replaces it with one multiply-rotate
//! round per word (the Fx/rustc-hash recipe).
//!
//! Two properties matter beyond speed:
//!
//! * **Deterministic**: no per-process random seed, so table behaviour is
//!   identical across runs and `JSK_JOBS` settings. (No simulation output
//!   may depend on iteration order regardless — the maps are only
//!   iterated for order-insensitive folds or into an explicit sort.)
//! * **Not collision-resistant**: do not use for keys a page or a wire
//!   schedule can choose (URLs, messages, SharedArrayBuffer cell
//!   indices); those stay on the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply-rotate round per written word; see the module docs for
/// when this is (and is not) an appropriate hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

/// The Fx multiplier: a random odd 64-bit constant with good bit mixing.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` on [`FastHasher`] — for kernel-assigned integer keys only.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` on [`FastHasher`] — for kernel-assigned integer keys only.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
    }

    #[test]
    fn sequential_keys_spread() {
        // Sequential ids (the kernel's key distribution) must not collide
        // in the low bits HashMap actually indexes with.
        let mut low7 = HashSet::new();
        for i in 0..128u64 {
            low7.insert(hash_of(&i) & 0x7f);
        }
        assert!(
            low7.len() > 96,
            "only {} distinct low-7 buckets",
            low7.len()
        );
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let a = hash_of(&b"abcdefghij".as_slice());
        assert_eq!(a, hash_of(&b"abcdefghij".as_slice()));
        assert_ne!(a, hash_of(&b"abcdefghik".as_slice()));
    }

    #[test]
    fn fast_map_and_set_work() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
