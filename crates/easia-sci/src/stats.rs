//! Field statistics — the data-reducing "summary" operation: turn a
//! multi-megabyte dataset into a few numbers shipped back to the user.

use crate::edf::{EdfError, EdfReader};

/// Summary statistics of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldStats {
    /// Number of elements.
    pub count: u64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Root-mean-square of fluctuations about the mean.
    pub rms: f64,
}

/// Compute statistics over a dataset in an encoded EDF file, folding
/// over its values as they are decoded: memory stays constant
/// regardless of dataset size.
pub fn dataset_stats(bytes: &[u8], name: &str) -> Result<FieldStats, EdfError> {
    let reader = EdfReader::open(bytes)?;
    let total = reader.meta(name)?.element_count()?;
    let mut count = 0u64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0f64;
    let mut sumsq = 0.0f64;
    for v in reader.values(bytes, name, 0, total)? {
        count += 1;
        min = min.min(v);
        max = max.max(v);
        sum += v;
        sumsq += v * v;
    }
    if count == 0 {
        return Err(EdfError::Malformed(format!("{name} is empty")));
    }
    let mean = sum / count as f64;
    let var = (sumsq / count as f64 - mean * mean).max(0.0);
    Ok(FieldStats {
        count,
        min,
        max,
        mean,
        rms: var.sqrt(),
    })
}

/// Turbulent kinetic energy `0.5 * (u'^2 + v'^2 + w'^2)` averaged over
/// the grid — the headline scalar a turbulence researcher checks first —
/// from the statistics of `u`, `v` and `w`.
pub fn kinetic_energy(u: &FieldStats, v: &FieldStats, w: &FieldStats) -> f64 {
    [u, v, w].iter().fold(0.0, |e, s| e + 0.5 * s.rms * s.rms)
}

/// Render stats as the text report the operation returns to the browser.
pub fn stats_report(name: &str, s: &FieldStats) -> String {
    format!(
        "dataset {name}: count={} min={:.6} max={:.6} mean={:.6} rms={:.6}",
        s.count, s.min, s.max, s.mean, s.rms
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::{timestep_file, EdfFile};
    use crate::field::{FieldSpec, TurbulenceField};

    #[test]
    fn known_values() {
        let bytes = EdfFile::new()
            .with_dataset("x", &[4], vec![1.0, 2.0, 3.0, 4.0])
            .encode();
        let s = dataset_stats(&bytes, "x").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.rms - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn chunked_equals_direct() {
        let n = 100_000u64;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let bytes = EdfFile::new()
            .with_dataset("s", &[n], data.clone())
            .encode();
        let s = dataset_stats(&bytes, "s").unwrap();
        let mean: f64 = data.iter().sum::<f64>() / n as f64;
        assert!((s.mean - mean).abs() < 1e-9);
        assert_eq!(s.count, n);
    }

    #[test]
    fn missing_dataset() {
        let bytes = EdfFile::new().with_dataset("x", &[1], vec![0.0]).encode();
        assert!(matches!(
            dataset_stats(&bytes, "y").unwrap_err(),
            EdfError::NoSuchDataset(_)
        ));
    }

    #[test]
    fn turbulence_energy_positive() {
        let f = TurbulenceField::generate(&FieldSpec::small(9), 0.0);
        let bytes = timestep_file(&f, "S1", 0).encode();
        let [u, v, w] = ["u", "v", "w"].map(|c| dataset_stats(&bytes, c).unwrap());
        let e = kinetic_energy(&u, &v, &w);
        assert!(e > 0.0, "non-trivial turbulent kinetic energy: {e}");
    }

    #[test]
    fn report_format() {
        let s = FieldStats {
            count: 2,
            min: -1.0,
            max: 1.0,
            mean: 0.0,
            rms: 1.0,
        };
        let r = stats_report("u", &s);
        assert!(r.contains("dataset u") && r.contains("count=2"));
    }
}
