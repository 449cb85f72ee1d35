//! Samples, medians and quartile spreads, and the metric records the
//! benchmark reports.

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(values, n=4)`); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// One reported metric: its unit and every sample taken in the run.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name: name.to_owned(),
            unit,
            samples,
        }
    }

    /// A metric with a single, exact value (a count or a derived ratio).
    pub fn exact(name: &str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    /// Interquartile range over the median; 0 for fewer than two samples.
    pub fn spread(&self) -> f64 {
        match quartiles(&self.samples) {
            Some((q1, q3)) if self.value() != 0.0 => (q3 - q1) / self.value().abs(),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
