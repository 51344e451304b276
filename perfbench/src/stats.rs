//! Sample statistics and the `Stats`-reply field parser.

/// Nearest-rank percentile `p` (0–100) of samples sorted ascending.
///
/// Returns `None` unless at least ten samples lie beyond the percentile:
/// a p99 needs 1000 samples, a median 20. Below that the figure is one
/// or two outliers, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted slice (mean of the middle pair for even
/// lengths); `None` when empty. For a handful of repeated measurements,
/// where [`percentile`]'s sample rule does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Quantile `q` (0–1) of a handful of values, interpolating linearly
/// between the two nearest ranks; `None` when empty. For figures taken
/// once per round, where [`percentile`]'s sample rule does not apply.
fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let v = sorted(values.to_vec());
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (at - lo as f64))
}

/// Sort samples ascending in place and return them.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The first numeric value of `"key":<number>` in a `Stats` reply (a
/// flat JSON object per shard with nested kernel-counter objects).
/// Keys inside the nested objects repeat across them, so callers ask
/// only for top-level keys, which are unique.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples: rank 990, ten beyond it.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples leave only nine beyond rank 990.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // A median needs 20 samples.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 101.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(200);
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 90.0), Some(180.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 0.75), Some(4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.25), Some(1.25));
        assert_eq!(quantile(&[7.0], 0.25), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn json_number_reads_top_level_fields() {
        let s = "{\"shard\":0,\"epoch\":785,\"overloaded\":0,\"live_points\":16384,\
                 \"ready\":true,\"ingest_kernel\":{\"tests\":12,\"filter_hits\":11},\
                 \"query_kernel\":{\"tests\":7}}";
        assert_eq!(json_number(s, "epoch"), Some(785.0));
        assert_eq!(json_number(s, "overloaded"), Some(0.0));
        assert_eq!(json_number(s, "live_points"), Some(16384.0));
        // Nested keys: the first occurrence wins.
        assert_eq!(json_number(s, "tests"), Some(12.0));
        // Non-numeric and missing fields.
        assert_eq!(json_number(s, "ready"), None);
        assert_eq!(json_number(s, "rebuilds"), None);
        // A key that is a suffix of another key does not match it.
        assert_eq!(json_number(s, "points"), None);
    }
}
