//! The benchmark's own arithmetic: percentiles under the tail rule and
//! ratios with explicit bases. Everything here is pure so the unit tests
//! below can pin it.

/// Nearest-rank percentile (`q` in [0, 1]) of an unsorted sample set;
/// 0.0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_percentile(&sorted, q)
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted_percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Percentiles the tail rule may report, highest first.
const TAIL_LEVELS: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// A tail timing: which percentile the rule chose, its value, and how
/// many samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub level: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile that still has at least ten samples beyond its
/// nearest rank. Below 20 samples no level qualifies and the median is
/// reported (its `level` says so).
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let level = TAIL_LEVELS
        .into_iter()
        .find(|&q| n >= rank(n, q) + 10)
        .unwrap_or(0.5);
    Tail {
        level,
        value: sorted_percentile(&sorted, level),
        samples: n,
    }
}

/// `part / base`, or `empty` when the base is zero (a ratio's value when
/// nothing it counts happened).
pub fn ratio(part: f64, base: f64, empty: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_chosen_level() {
        let seq = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let t = tail(&seq(1000));
        assert_eq!((t.level, t.value, t.samples), (0.99, 990.0, 1000));
        // 200 samples: p95 (rank 190) leaves 10; p99 leaves 2.
        assert_eq!(tail(&seq(200)).level, 0.95);
        assert_eq!(tail(&seq(199)).level, 0.90);
        // 40 samples: p75 (rank 30) leaves 10.
        let t = tail(&seq(40));
        assert_eq!((t.level, t.value), (0.75, 30.0));
        // Fewer than 20: nothing qualifies, the median stands in.
        let t = tail(&seq(5));
        assert_eq!((t.level, t.value, t.samples), (0.5, 3.0, 5));
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank_and_order_free() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        // A rejected request counts as missing every limit: it sorts last.
        assert_eq!(percentile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
    }

    #[test]
    fn ratios_state_their_empty_value() {
        assert_eq!(ratio(3.0, 4.0, 0.0), 0.75);
        assert_eq!(ratio(0.0, 0.0, 1.0), 1.0);
        assert_eq!(ratio(5.0, 0.0, 0.0), 0.0);
    }
}
