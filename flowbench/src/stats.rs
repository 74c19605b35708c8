//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! quartile spreads and the Table 3 mean ratio. Kept free of I/O so the
//! unit tests below pin every definition the README states.

/// Median of `values` (mean of the middle two for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// [`median`], with 0 for no values.
pub fn median0(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// The nearest-rank `q`-quantile of `values` (`0 < q < 1`), reported
/// only when at least `min_beyond` samples lie strictly beyond its rank —
/// a percentile with fewer samples past it is a single slow request,
/// not a tail. With `n` samples the rank is `ceil(q * n)`, so p90 with
/// ten samples beyond needs `n >= 100`.
pub fn tail_percentile(values: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || rank > n || n - rank < min_beyond {
        return None;
    }
    Some(v[rank - 1])
}

/// The smallest sample count for which [`tail_percentile`] reports the
/// `q`-quantile with `min_beyond` samples beyond it.
pub fn samples_needed(q: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).max(1);
            n - rank >= min_beyond
        })
        .expect("some sample count leaves room beyond any q < 1")
}

/// Quartiles `[Q1, Q2, Q3]` by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns. Needs two or more
/// values; one value yields itself three times.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quartile spread as a share of the median: `(Q3 - Q1) / median`.
/// `None` when there are too few values or the median is 0.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Mean over benchmarks of `ours / baseline` — the Table 3 comparison as
/// a ratio. It equals `1 + Average / 100` where `Average` is the mean of
/// the per-benchmark percentage changes Table 3 prints.
pub fn mean_ratio(pairs: &[(f64, f64)]) -> f64 {
    assert!(!pairs.is_empty(), "mean ratio of an empty table");
    assert!(
        pairs.iter().all(|&(base, _)| base > 0.0),
        "baseline values must be positive"
    );
    pairs.iter().map(|&(base, ours)| ours / base).sum::<f64>() / pairs.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.9, 10), 100);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank ceil(90) = 90: the 90th value, with 91..=100 beyond it.
        assert_eq!(tail_percentile(&v, 0.9, 10), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.9, 10), None);
        // The 14-class mix: 8 rounds (112 samples) is the first whole
        // number of rounds that qualifies.
        assert!(tail_percentile(&vec![1.0; 98], 0.9, 10).is_none());
        assert!(tail_percentile(&vec![1.0; 112], 0.9, 10).is_some());
        assert_eq!(samples_needed(0.5, 10), 20);
        assert_eq!(tail_percentile(&[5.0, 1.0, 3.0], 0.5, 0), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4)
        //   == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some([15.0, 40.0, 120.0])
        );
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0; 10]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn mean_ratio_is_one_plus_table3_average_row() {
        // LUT and MUX-length columns of a full-size `table3` run
        // (LOPASS/HLPower per benchmark) and the Average row it printed:
        // dLUT 6.53 %, dLen 7.4 %.
        let luts = [
            (11293.0, 12455.0),
            (3855.0, 3983.0),
            (3368.0, 3756.0),
            (2776.0, 2754.0),
            (1914.0, 1898.0),
            (4850.0, 5753.0),
            (1886.0, 1954.0),
        ];
        let mux_len = [
            (570.0, 638.0),
            (201.0, 209.0),
            (135.0, 161.0),
            (136.0, 133.0),
            (81.0, 80.0),
            (243.0, 279.0),
            (81.0, 85.0),
        ];
        assert!((mean_ratio(&luts) - 1.0653).abs() < 5e-5);
        assert!((mean_ratio(&mux_len) - 1.074).abs() < 5e-4);
        // The paper's own power column: Average -19.28 % -> 0.8072.
        let paper_power = [
            (1602.3, 1468.6),
            (709.1, 405.8),
            (658.7, 534.1),
            (351.3, 208.7),
            (232.7, 192.9),
            (729.6, 690.6),
            (161.5, 158.5),
        ];
        assert!((mean_ratio(&paper_power) - 0.8072).abs() < 5e-5);
        // A mean of ratios, not a ratio of sums: one benchmark doubling
        // and one halving average to 1.25, where the sums give 0.8.
        assert_eq!(mean_ratio(&[(1.0, 2.0), (4.0, 2.0)]), 1.25);
    }
}
