//! Property tests for the workload and statistics substrate.

#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::disallowed_types,
    reason = "tests are exempt from library lints"
)]
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use bpush_types::seed::SeedSequence;
use bpush_types::stats::{Ratio, Summary};
use bpush_types::zipf::{AccessPattern, ZipfSampler};
use bpush_types::ItemId;

proptest! {
    /// The Zipf pmf is a proper, monotonically decreasing distribution
    /// for any valid (n, θ).
    #[test]
    fn zipf_is_a_distribution(n in 1usize..300, theta in 0.0f64..2.0) {
        let z = ZipfSampler::new(n, theta).expect("valid");
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        for i in 1..n {
            prop_assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    /// Samples always fall in range, and the pattern's offset is a pure
    /// rotation: access probabilities are a permutation of the pmf.
    #[test]
    fn pattern_offset_is_a_rotation(
        range in 1u32..200,
        theta in 0.0f64..1.5,
        offset in 0u32..500,
        seed in 0u64..1000,
    ) {
        let p = AccessPattern::new(range, theta, offset).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(p.sample(&mut rng).index() < range);
        }
        let total: f64 = (0..range).map(|i| p.access_probability(ItemId::new(i))).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        // the hottest item carries the rank-0 mass
        let z = ZipfSampler::new(range as usize, theta).expect("valid");
        prop_assert!((p.access_probability(p.hottest()) - z.pmf(0)).abs() < 1e-12);
    }

    /// `sample_distinct` returns exactly-n distinct in-range items for
    /// any feasible n.
    #[test]
    fn sample_distinct_properties(
        range in 1u32..64,
        theta in 0.0f64..1.5,
        frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = ((f64::from(range) * frac) as usize).max(1).min(range as usize);
        let p = AccessPattern::new(range, theta, 0).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let items = p.sample_distinct(&mut rng, n);
        prop_assert_eq!(items.len(), n);
        let set: std::collections::HashSet<_> = items.iter().collect();
        prop_assert_eq!(set.len(), n);
        prop_assert!(items.iter().all(|x| x.index() < range));
    }

    /// Summary::merge is associative-enough: merging any split equals the
    /// sequential summary (mean/variance/extremes).
    #[test]
    fn summary_merge_equals_sequential(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let whole: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..split].iter().copied().collect();
        let right: Summary = xs[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (left.variance() - whole.variance()).abs()
                <= 1e-5 * (1.0 + whole.variance().abs())
        );
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    /// Ratio bookkeeping is exact under merging.
    #[test]
    fn ratio_merge_is_exact(
        a in proptest::collection::vec(proptest::bool::ANY, 0..100),
        b in proptest::collection::vec(proptest::bool::ANY, 0..100),
    ) {
        let mut ra = Ratio::new();
        for &x in &a { ra.record(x); }
        let mut rb = Ratio::new();
        for &x in &b { rb.record(x); }
        ra.merge(&rb);
        let hits = a.iter().chain(&b).filter(|&&x| x).count() as u64;
        prop_assert_eq!(ra.hits(), hits);
        prop_assert_eq!(ra.total(), (a.len() + b.len()) as u64);
    }

    /// Seed derivation: distinct paths (under a shared root) never
    /// collide in practice, and derivation is stable.
    #[test]
    fn seed_paths_do_not_collide(root in 0u64..10_000, a in 0u32..500, b in 0u32..500) {
        prop_assume!(a != b);
        let seq = SeedSequence::new(root);
        let sa = seq.derive(&["client", &a.to_string()]);
        let sb = seq.derive(&["client", &b.to_string()]);
        prop_assert_ne!(sa, sb);
        prop_assert_eq!(sa, SeedSequence::new(root).derive(&["client", &a.to_string()]));
    }
}
