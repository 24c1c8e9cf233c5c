//! Percentiles, and the metric records the benchmark prints.

/// Nearest-rank percentile of `values` (need not be sorted), with the
/// number of samples strictly beyond it. `None` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let idx = rank.min(v.len()) - 1;
    Some((v[idx], v.len() - idx - 1))
}

/// Median (nearest-rank p50) of `values`, or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).map_or(0.0, |(v, _)| v)
}

/// Arithmetic mean, or 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises, when it is a statistic.
    pub samples: Option<usize>,
    /// For a percentile: how many samples lie beyond it.
    pub beyond: Option<usize>,
}

impl Metric {
    /// A plain value.
    pub fn value(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: None,
            beyond: None,
        }
    }

    /// A value summarising `samples` samples.
    pub fn counted(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            samples: Some(samples),
            ..Metric::value(name, unit, value)
        }
    }

    /// Percentile `p` of `values` (0 when empty).
    pub fn percentile(name: &str, unit: &'static str, values: &[f64], p: f64) -> Metric {
        let (v, beyond) = percentile(values, p).unwrap_or((0.0, 0));
        Metric {
            name: name.to_string(),
            unit,
            value: v,
            samples: Some(values.len()),
            beyond: (p > 50.0).then_some(beyond),
        }
    }

    /// One human-readable report line.
    pub fn line(&self) -> String {
        let mut s = format!("  {:<34} {:>14.4} {:<8}", self.name, self.value, self.unit);
        if let Some(n) = self.samples {
            s.push_str(&format!(" n={n}"));
        }
        if let Some(b) = self.beyond {
            s.push_str(&format!(" beyond={b}"));
            if b < MIN_BEYOND {
                s.push_str(" (too few samples beyond this percentile)");
            }
        }
        s
    }
}

/// Render the result object: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
