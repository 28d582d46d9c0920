//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition on integer per-mille
//! arithmetic, so `p99.9` of 1,000 samples is exactly the 999th value and
//! no floating-point rounding can move a rank.

/// Percentiles a tail may be reported at, highest first (per mille).
const TAIL_CANDIDATES: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the highest candidate percentile that still has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in per mille (`990` is p99).
    pub per_mille: u64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// How many samples there were in all.
    pub samples: usize,
}

impl Tail {
    /// The percentile as a label such as `p99` or `p99.9`.
    pub fn label(&self) -> String {
        if self.per_mille.is_multiple_of(10) {
            format!("p{}", self.per_mille / 10)
        } else {
            format!("p{}.{}", self.per_mille / 10, self.per_mille % 10)
        }
    }
}

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(per_mille: u64, n: usize) -> usize {
    let r = (per_mille * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `per_mille` percentile, `None` for no samples.
pub fn percentile(samples: &[f64], per_mille: u64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(v[rank(per_mille, v.len()) - 1])
}

/// The median (nearest-rank p50), `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 500)
}

/// The tail rule: the highest of p99.9, p99, p95, p90, p75 and p50 that
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it. Never a
/// percentile below the median; `None` when even p50 has too few
/// samples beyond it (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_CANDIDATES.iter().find_map(|&pm| {
        let r = rank(pm, n.max(1));
        let beyond = n.saturating_sub(r);
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            per_mille: pm,
            value: v[r - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn eighteen_samples_have_no_tail() {
        // Eighteen samples once produced a "tail" below the median; with
        // fewer than ten samples beyond p50 no tail may be reported.
        let samples = [
            387.0, 301.0, 410.0, 395.0, 290.0, 388.0, 402.0, 377.0, 385.0, 391.0, 399.0, 301.5,
            386.0, 389.0, 392.0, 380.0, 379.0, 400.0,
        ];
        assert_eq!(samples.len(), 18);
        assert_eq!(tail(&samples), None);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn twenty_samples_fall_back_to_the_median() {
        let t = tail(&ramp(20)).unwrap();
        assert_eq!(
            (t.per_mille, t.value, t.beyond, t.samples),
            (500, 10.0, 10, 20)
        );
        assert_eq!(median(&ramp(20)), Some(10.0));
    }

    #[test]
    fn picks_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(152)).unwrap();
        assert_eq!((t.label().as_str(), t.value, t.beyond), ("p90", 137.0, 15));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.label().as_str(), t.value, t.beyond), ("p99", 990.0, 10));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!(
            (t.label().as_str(), t.value, t.beyond),
            ("p99.9", 9990.0, 10)
        );
    }

    #[test]
    fn tail_is_never_below_the_median() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in 20..300 {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as f64
                })
                .collect();
            let t = tail(&samples).unwrap();
            assert!(t.value >= median(&samples).unwrap());
            assert!(t.beyond >= TAIL_MIN_BEYOND);
        }
    }

    #[test]
    fn percentiles_are_order_independent() {
        let mut v = ramp(101);
        v.reverse();
        assert_eq!(percentile(&v, 500), Some(51.0));
        assert_eq!(percentile(&v, 990), Some(100.0));
        assert_eq!(percentile(&[], 500), None);
    }
}
