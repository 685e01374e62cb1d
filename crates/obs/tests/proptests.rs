//! Property tests for the observability primitives.

#![allow(clippy::unwrap_used, reason = "tests are exempt from library lints")]
use proptest::collection::vec;
use proptest::prelude::*;

use bpush_obs::{Log2Histogram, RingBuffer};

proptest! {
    /// Merging two histograms is indistinguishable from recording the
    /// concatenation of their input streams: buckets, count, sum,
    /// min and max all agree exactly.
    #[test]
    fn merge_equals_concatenated_recording(
        left in vec(0u64..u64::MAX, 0..200),
        right in vec(0u64..u64::MAX, 0..200),
    ) {
        let mut a = Log2Histogram::new();
        for &v in &left {
            a.record(v);
        }
        let mut b = Log2Histogram::new();
        for &v in &right {
            b.record(v);
        }
        let mut whole = Log2Histogram::new();
        for &v in left.iter().chain(right.iter()) {
            whole.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    /// Every sample lands in exactly one bucket whose bounds contain it,
    /// and bucket totals always reconcile with the sample count.
    #[test]
    fn buckets_partition_the_value_space(samples in vec(0u64..u64::MAX, 1..200)) {
        let mut h = Log2Histogram::new();
        for &v in &samples {
            let k = Log2Histogram::bucket_of(v);
            prop_assert!(Log2Histogram::bucket_floor(k) <= v);
            prop_assert!(v <= Log2Histogram::bucket_ceil(k));
            h.record(v);
        }
        let total: u64 = h.buckets().iter().sum();
        prop_assert_eq!(total, h.count());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// The ring buffer keeps exactly the newest `capacity` entries and
    /// accounts for every eviction.
    #[test]
    fn ring_keeps_the_newest_suffix(
        capacity in 1usize..32,
        values in vec(0u64..1000, 0..100),
    ) {
        let mut r = RingBuffer::new(capacity);
        for &v in &values {
            r.push(v);
        }
        let kept: Vec<u64> = r.iter().copied().collect();
        let start = values.len().saturating_sub(capacity);
        prop_assert_eq!(&kept[..], &values[start..]);
        prop_assert_eq!(r.dropped(), start as u64);
    }
}
