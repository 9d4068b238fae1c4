//! Plane extraction from 3-D datasets — the paper's data-reduction
//! operation ("Select the slice you wish to visualise: x0=0.0,
//! x1=0.1015625, ...").

use crate::edf::{EdfError, EdfReader};

/// Axis normal to the extracted plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Plane of constant x.
    X,
    /// Plane of constant y.
    Y,
    /// Plane of constant z.
    Z,
}

impl Axis {
    /// Parse `"x"`, `"y"`, `"z"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Axis> {
        match s.to_ascii_lowercase().as_str() {
            "x" => Some(Axis::X),
            "y" => Some(Axis::Y),
            "z" => Some(Axis::Z),
            _ => None,
        }
    }
}

/// A 2-D plane extracted from a 3-D dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    /// First in-plane dimension length.
    pub rows: usize,
    /// Second in-plane dimension length.
    pub cols: usize,
    /// Row-major values (`cols` fastest).
    pub values: Vec<f64>,
}

/// Extract the plane `axis = index` of 3-D dataset `name` from an
/// encoded EDF file, decoding only the values the plane holds straight
/// into it.
///
/// Dataset layout is `x` fastest: index `x + nx*(y + ny*z)`.
/// * `Axis::Z` planes are one contiguous range,
/// * `Axis::Y` planes are `nz` row ranges,
/// * `Axis::X` planes are every `nx`-th element of one range, skipped
///   over without decoding — still only `ny·nz` values are read.
pub fn extract_plane(
    bytes: &[u8],
    name: &str,
    axis: Axis,
    index: usize,
) -> Result<Plane, EdfError> {
    let reader = EdfReader::open(bytes)?;
    let meta = reader.meta(name)?;
    let &[nx, ny, nz] = meta.dims.as_slice() else {
        return Err(EdfError::Malformed(format!(
            "{name} is {}-dimensional, slicing needs 3",
            meta.dims.len()
        )));
    };
    // The reader checked that the bytes hold every element, so a
    // non-empty dataset's dimensions and their products fit a `usize`;
    // an empty one has no planes to loop over.
    let total = meta.element_count()?;
    if total == 0 {
        return Err(EdfError::Malformed(format!("{name} is empty")));
    }
    let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);
    let bound = match axis {
        Axis::X => nx,
        Axis::Y => ny,
        Axis::Z => nz,
    };
    if index >= bound {
        return Err(EdfError::Malformed(format!(
            "slice index {index} out of range 0..{bound}"
        )));
    }
    let (rows, cols) = match axis {
        Axis::Z => (ny, nx),
        Axis::Y => (nz, nx),
        Axis::X => (nz, ny),
    };
    let mut values = Vec::with_capacity(rows * cols);
    match axis {
        // Contiguous nx*ny block at z=index.
        Axis::Z => {
            values.extend(reader.values(bytes, name, (index * nx * ny) as u64, (nx * ny) as u64)?)
        }
        // For each z: contiguous run of nx at (y=index, z).
        Axis::Y => {
            for z in 0..nz {
                let start = (nx * (index + ny * z)) as u64;
                values.extend(reader.values(bytes, name, start, nx as u64)?);
            }
        }
        // Every nx-th element from (x=index, y=0, z=0) on.
        Axis::X => values.extend(
            reader
                .values(bytes, name, index as u64, total - index as u64)?
                .step_by(nx),
        ),
    }
    Ok(Plane { rows, cols, values })
}

/// Bytes of the source dataset a plane extraction actually reads,
/// versus the full dataset size — the data-reduction factor EASIA's
/// server-side operations exist to exploit.
pub fn reduction_factor(dims: &[u64]) -> f64 {
    assert_eq!(dims.len(), 3);
    let total: u64 = dims.iter().product();
    let plane = dims[0] * dims[1]; // representative z-plane
    total as f64 / plane as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::EdfFile;

    /// 3-D ramp dataset where value = x + 10y + 100z.
    fn ramp(nx: usize, ny: usize, nz: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    data.push(x as f64 + 10.0 * y as f64 + 100.0 * z as f64);
                }
            }
        }
        EdfFile::new()
            .with_dataset("f", &[nx as u64, ny as u64, nz as u64], data)
            .encode()
    }

    #[test]
    fn z_plane() {
        let bytes = ramp(4, 3, 2);
        let p = extract_plane(&bytes, "f", Axis::Z, 1).unwrap();
        assert_eq!((p.rows, p.cols), (3, 4));
        // All values have z=1 → +100.
        assert!(p.values.iter().all(|v| *v >= 100.0 && *v < 200.0));
        assert_eq!(p.values[0], 100.0);
        assert_eq!(p.values[4 * 3 - 1], 100.0 + 3.0 + 20.0);
    }

    #[test]
    fn y_plane() {
        let bytes = ramp(4, 3, 2);
        let p = extract_plane(&bytes, "f", Axis::Y, 2).unwrap();
        assert_eq!((p.rows, p.cols), (2, 4));
        assert!(p.values.iter().all(|v| (*v / 10.0) as i64 % 10 == 2));
    }

    #[test]
    fn x_plane() {
        let bytes = ramp(4, 3, 2);
        let p = extract_plane(&bytes, "f", Axis::X, 3).unwrap();
        assert_eq!((p.rows, p.cols), (2, 3));
        assert!(p.values.iter().all(|v| *v % 10.0 == 3.0));
    }

    #[test]
    fn index_bounds_checked() {
        let bytes = ramp(4, 3, 2);
        assert!(extract_plane(&bytes, "f", Axis::Z, 2).is_err());
        assert!(extract_plane(&bytes, "f", Axis::X, 4).is_err());
        assert!(extract_plane(&bytes, "g", Axis::Z, 0).is_err());
    }

    #[test]
    fn non_3d_rejected() {
        let bytes = EdfFile::new()
            .with_dataset("flat", &[6], vec![0.0; 6])
            .encode();
        assert!(extract_plane(&bytes, "flat", Axis::Z, 0).is_err());
    }

    /// A zero dimension makes the others free to be huge: an empty
    /// dataset is refused before any loop over them.
    #[test]
    fn an_empty_dataset_has_no_planes() {
        let mut bytes = EdfFile::new()
            .with_dataset("f", &[0, 1, 1], vec![])
            .encode();
        let dims = bytes.len() - 24;
        for (i, d) in [0u64, 1 << 40, 1 << 40].iter().enumerate() {
            bytes[dims + 8 * i..dims + 8 * i + 8].copy_from_slice(&d.to_le_bytes());
        }
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            assert!(matches!(
                extract_plane(&bytes, "f", axis, 0),
                Err(EdfError::Malformed(m)) if m == "f is empty"
            ));
        }
    }

    #[test]
    fn axis_parsing() {
        assert_eq!(Axis::parse("X"), Some(Axis::X));
        assert_eq!(Axis::parse("z"), Some(Axis::Z));
        assert_eq!(Axis::parse("t"), None);
    }

    #[test]
    fn reduction_factor_matches_dims() {
        assert_eq!(reduction_factor(&[64, 64, 64]), 64.0);
        assert_eq!(reduction_factor(&[128, 128, 64]), 64.0);
    }
}
