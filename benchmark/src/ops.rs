//! Seed-derived op order and the digest that proves two runs replayed the
//! same list.
//!
//! Every workload's op *set* is fixed and only its *order* comes from
//! `--seed`. Solve cost varies a hundredfold across testkit seeds (1 ms to
//! 400 ms for the same family) and a run fits only a few hundred solves, so
//! a seed-dependent set would put 7–10 % of seed-to-seed spread on every
//! metric — as much as the bound a regression is judged by. With a fixed
//! set, runs on different seeds measure the same work in a different order,
//! and the committed expected outputs cover every seed.

use ttw_netsim::rng::SplitMix64;

/// The ops in the order `seed` picks (Fisher–Yates over SplitMix64 — the
/// generator the testkit and the link simulator use).
pub fn shuffled<T>(mut ops: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed ^ 0x6f70_5f6f_7264_6572);
    for i in (1..ops.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        ops.swap(i, j);
    }
    ops
}

/// Order-sensitive FNV-1a digest of the op identifiers of a lap.
pub fn digest<'a>(ids: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for byte in id.bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let ops: Vec<usize> = (0..100).collect();
        let a = shuffled(ops.clone(), 1);
        assert_eq!(a, shuffled(ops.clone(), 1));
        assert_ne!(a, shuffled(ops.clone(), 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ops);
        assert!(shuffled(Vec::<usize>::new(), 1).is_empty());
    }

    #[test]
    fn digest_sees_order_and_boundaries() {
        assert_eq!(digest(["a", "b"]), digest(["a", "b"]));
        assert_ne!(digest(["a", "b"]), digest(["b", "a"]));
        assert_ne!(digest(["ab"]), digest(["a", "b"]));
    }
}
