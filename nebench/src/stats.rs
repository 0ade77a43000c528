//! Order statistics for the reported figures.

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First quartile, median and third quartile, by the method of
/// Python's `statistics.quantiles(xs, n=4)` ("exclusive").
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        len => {
            let m = len as i64 + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                // Negative for two samples: Python extrapolates there too.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            })
        }
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`; the maximum when there are ten or fewer.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    match v.len() {
        0 => (0.0, 0.0),
        len if len <= 10 => (v[len - 1], 100.0),
        len => (v[len - 11], 100.0 * (len - 10) as f64 / len as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        let (value, pct) = tail(&xs);
        assert_eq!(value, 11.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 100.0 * 11.0 / 21.0).abs() < 1e-12);
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
