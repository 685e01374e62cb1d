//! Deterministic seed derivation.
//!
//! Every stochastic component of the simulation (server workload, each
//! client, each query) draws from its own [`rand::rngs::StdRng`] seeded
//! through [`SeedSequence`], so that experiment runs are exactly
//! reproducible from a single root seed and independent of the number or
//! scheduling of clients.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives statistically independent child seeds from a root seed using
/// the SplitMix64 finalizer.
///
/// # Example
/// ```
/// use bpush_types::seed::SeedSequence;
/// let seq = SeedSequence::new(42);
/// let a = seq.derive(&["server"]);
/// let b = seq.derive(&["client", "0"]);
/// assert_ne!(a, b);
/// assert_eq!(a, SeedSequence::new(42).derive(&["server"]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `root`.
    pub const fn new(root: u64) -> Self {
        SeedSequence { root }
    }

    /// The root seed.
    pub const fn root(self) -> u64 {
        self.root
    }

    /// Derives a child seed from a path of labels.
    pub fn derive(self, path: &[&str]) -> u64 {
        let mut state = splitmix64(self.root ^ 0x9e37_79b9_7f4a_7c15);
        for label in path {
            for &b in label.as_bytes() {
                state = splitmix64(state ^ u64::from(b));
            }
            state = splitmix64(state ^ 0xff51_afd7_ed55_8ccd);
        }
        state
    }

    /// Derives a ready-to-use RNG for a labelled component.
    pub fn rng(self, path: &[&str]) -> StdRng {
        StdRng::seed_from_u64(self.derive(path))
    }
}

/// The SplitMix64 output function; a strong 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        let a = SeedSequence::new(7).derive(&["x", "y"]);
        let b = SeedSequence::new(7).derive(&["x", "y"]);
        assert_eq!(a, b);
        assert_eq!(SeedSequence::new(7).root(), 7);
    }

    #[test]
    fn different_paths_give_different_seeds() {
        let seq = SeedSequence::new(1);
        let seeds: Vec<u64> = vec![
            seq.derive(&[]),
            seq.derive(&["a"]),
            seq.derive(&["b"]),
            seq.derive(&["a", "b"]),
            seq.derive(&["ab"]),
            seq.derive(&["b", "a"]),
        ];
        let set: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), seeds.len(), "all derived seeds distinct");
    }

    #[test]
    fn different_roots_give_different_seeds() {
        assert_ne!(
            SeedSequence::new(1).derive(&["s"]),
            SeedSequence::new(2).derive(&["s"])
        );
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut r1 = SeedSequence::new(99).rng(&["client", "3"]);
        let mut r2 = SeedSequence::new(99).rng(&["client", "3"]);
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn splitmix_avalanche_smoke() {
        // flipping one input bit should flip roughly half the output bits
        let a = splitmix64(0);
        let b = splitmix64(1);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "weak diffusion: {flipped}");
    }
}
