//! Order statistics used for every reported metric: the median and the
//! first/third quartiles, computed the way Python's
//! `statistics.median` and `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) compute them, so spreads printed here
//! match spreads computed from the bench's output with the standard
//! library.

/// Median, interpolating between the two middle values of an even count.
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method. A single sample is
/// its own quartiles; an empty slice gives NaNs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = ld as i64 + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                // Negative for the outer quartiles of very small samples,
                // which then extrapolate, exactly as Python does.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0).
pub fn rel_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.5]), 7.5));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!(close(q1, 1.5) && close(q3, 4.5), "{q1} {q3}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[10.0, 20.0, 40.0]);
        assert!(close(q1, 10.0) && close(q3, 40.0), "{q1} {q3}");
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(rel_spread(&v), (8.25 - 2.75) / 5.5));
        assert_eq!(rel_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }
}
