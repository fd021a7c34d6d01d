//! Benchmark harness for the subvt Monte-Carlo workloads: see
//! `perfbench/README.md` for the workloads, the metrics and how to run
//! it.

pub mod bench;
mod corpus;
mod json;
mod layers;
mod metrics;
pub mod trace;
pub mod workloads;

/// Median of `values` (sorted in place). `NaN` for an empty slice.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The `q` quantile of `values`, interpolating between order
/// statistics; 0 for an empty slice (no chunk was observed).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The repository root, for tests that read committed files.
#[cfg(test)]
pub(crate) fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
