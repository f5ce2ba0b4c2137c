//! Percentiles that never overstate their support.
//!
//! A percentile `q` is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; asking for more than the sample supports is an
//! error, never a silently reported maximum.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples that support percentile `q`.
pub fn min_samples(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
}

/// Nearest-rank percentile `q` of `values`, or an error naming the
/// shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it. The
/// median needs only one sample.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    if values.is_empty() {
        return Err("no samples".into());
    }
    if q > 0.5 && values.len() < min_samples(q) {
        return Err(format!(
            "p{} needs {} samples ({MIN_BEYOND} beyond it), have {}",
            q * 100.0,
            min_samples(q),
            values.len()
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Ok(v[rank - 1])
}

/// Percentile `q` per window of `window` consecutive samples (in the
/// order they were taken), and the median of those per-window values
/// with the number of windows. Windows start every `window / 10`
/// samples, so the median runs over many window positions even in a
/// short run; a short tail is dropped. A stall of the host that lands in one window
/// moves that window's value, not the result. Fewer than `window`
/// samples is an error, as in [`percentile`].
pub fn windowed(values: &[f64], q: f64, window: usize) -> Result<(f64, usize), String> {
    if values.len() < window {
        return Err(format!(
            "p{} over windows of {window} needs {window} samples, have {}",
            q * 100.0,
            values.len()
        ));
    }
    let stride = (window / 10).max(1);
    let per: Vec<f64> = (0..=values.len() - window)
        .step_by(stride)
        .map(|s| percentile(&values[s..s + window], q))
        .collect::<Result<_, _>>()?;
    Ok((median(&per), per.len()))
}

/// Events per second: the median over `windows` equal slices of
/// `[start, end]` of the events (given as offsets from `start`, in
/// seconds) that fall in each slice.
pub fn rate(times: &[f64], span: f64, windows: usize) -> f64 {
    let w = span / windows as f64;
    let mut counts = vec![0usize; windows];
    for &t in times {
        if t >= 0.0 && t < span {
            counts[((t / w) as usize).min(windows - 1)] += 1;
        }
    }
    let per: Vec<f64> = counts.iter().map(|&c| c as f64 / w).collect();
    median(&per)
}

/// Median (nearest rank); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(
            percentile(&v, 0.99).is_err(),
            "999 samples cannot support p99"
        );
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99).unwrap(), 989.0);
        assert_eq!(percentile(&v, 0.5).unwrap(), 499.0);
    }
}
