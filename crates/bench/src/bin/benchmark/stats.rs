//! Summary statistics and the output check.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (its default "exclusive" method), so the
/// spreads printed here match the ones an outside checker computes.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let (n, m) = (4, ld + 1);
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    let (q1, q3) = quartiles(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Percentile levels a tail latency may be reported at.
const TAIL_LEVELS: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// The highest of [`TAIL_LEVELS`] that has at least ten samples beyond it,
/// with its value (the `⌈q·n⌉`-th order statistic of the **sorted**
/// `samples`). `None` when fewer than 20 samples leave even the median
/// without ten beyond it.
pub fn tail_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    TAIL_LEVELS
        .iter()
        .rev()
        .map(|&q| (q, ((q * n as f64).ceil() as usize).max(1)))
        .find(|&(_, rank)| rank <= n && n - rank >= 10)
        .map(|(q, rank)| (q, sorted[rank - 1]))
}

/// Order-independent digest of a key multiset: length, wrapping sum and
/// xor. A sorter that drops, duplicates or corrupts a key changes it,
/// which a plain sortedness check cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    len: usize,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    pub fn of(keys: &[u64]) -> Self {
        keys.iter().fold(
            Fingerprint {
                len: keys.len(),
                sum: 0,
                xor: 0,
            },
            |f, &k| Fingerprint {
                sum: f.sum.wrapping_add(k),
                xor: f.xor ^ k,
                ..f
            },
        )
    }
}

/// Check that `out` is sorted and holds exactly the keys of the input
/// whose fingerprint is `input`.
pub fn check_output(input: Fingerprint, out: &[u64]) -> Result<(), String> {
    if let Some(i) = out.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("output not sorted at index {i}"));
    }
    let got = Fingerprint::of(out);
    if got.len != input.len {
        return Err(format!("output has {} keys, input {}", got.len, input.len));
    }
    if got != input {
        return Err("output keys differ from the input's (fingerprint mismatch)".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 is the 90th value with 10 beyond; p95 would leave only 5.
        assert_eq!(tail_percentile(&v), Some((0.9, 90)));
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_percentile(&v), Some((0.95, 190)));
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v), Some((0.99, 990)));
        let v: Vec<u64> = (1..=40).collect();
        assert_eq!(tail_percentile(&v), Some((0.75, 30)));
        assert_eq!(tail_percentile(&(1..=19).collect::<Vec<u64>>()), None);
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn fingerprint_catches_dropped_and_duplicated_keys() {
        let input = [5u64, 1, 9, 3, 7];
        let fp = Fingerprint::of(&input);
        assert_eq!(check_output(fp, &[1, 3, 5, 7, 9]), Ok(()));
        // A dropped key.
        assert!(check_output(fp, &[1, 3, 5, 9]).is_err());
        // A duplicated key in place of another: same length, still sorted.
        assert!(check_output(fp, &[1, 3, 5, 5, 9]).is_err());
        // Dropped and duplicated together, still the same length.
        assert!(check_output(fp, &[1, 1, 3, 5, 7]).is_err());
        // Unsorted.
        assert!(check_output(fp, &[1, 5, 3, 7, 9]).is_err());
    }
}
