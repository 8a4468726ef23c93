//! Property tests pinning the [`QuantileSketch`] determinism contract:
//! merge is bitwise associative and commutative, merging shards equals a
//! sequential feed, bucketing is order-invariant, and reported quantiles
//! stay within the documented rank/relative-error bound of the exact
//! order statistics.

use abacus_metrics::QuantileSketch;
use proptest::prelude::*;

fn feed(vals: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in vals {
        s.record(v);
    }
    s
}

/// Observation values spanning the sketch's full dynamic range, including
/// zeros (underflow) and values past the top octave (overflow).
fn obs() -> impl Strategy<Value = f64> {
    prop_oneof![1e-3..5_000.0f64, Just(0.0), 1.5e6..1e9f64, 1e-8..1e-6f64,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative_and_commutative(
        a in proptest::collection::vec(obs(), 0..80),
        b in proptest::collection::vec(obs(), 0..80),
        c in proptest::collection::vec(obs(), 0..80),
    ) {
        let (sa, sb, sc) = (feed(&a), feed(&b), feed(&c));

        // (a ⊎ b) ⊎ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊎ (b ⊎ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // b ⊎ a == a ⊎ b
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
    }

    #[test]
    fn merged_shards_equal_sequential_feed(
        vals in proptest::collection::vec(obs(), 1..200),
        split in 0usize..200,
    ) {
        let cut = split.min(vals.len());
        let mut sharded = feed(&vals[..cut]);
        sharded.merge(&feed(&vals[cut..]));
        prop_assert_eq!(&sharded, &feed(&vals));
    }

    #[test]
    fn order_invariant(vals in proptest::collection::vec(obs(), 0..150)) {
        let mut rev = vals.clone();
        rev.reverse();
        prop_assert_eq!(&feed(&vals), &feed(&rev));
    }

    #[test]
    fn quantile_within_rank_error(
        vals in proptest::collection::vec(1e-3..10_000.0f64, 1..200),
        p in 0.0..100.0f64,
    ) {
        let s = feed(&vals);
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        let exact = sorted[rank - 1];
        let est = s.quantile(p);
        prop_assert!(est >= exact, "p{}: {} < exact {}", p, est, exact);
        prop_assert!(
            est <= exact * (1.0 + QuantileSketch::RELATIVE_ERROR),
            "p{}: {} overshoots exact {}", p, est, exact
        );
    }
}
