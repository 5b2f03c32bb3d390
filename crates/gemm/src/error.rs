//! Error type shared by the distributed GeMM algorithms.

use std::error::Error;
use std::fmt;

use meshslice_mesh::MeshError;

/// Why an algorithm cannot run a given problem on a given mesh.
#[derive(Clone, Debug, PartialEq)]
pub enum GemmError {
    /// A matrix dimension is not divisible as the algorithm requires.
    Indivisible {
        /// Which quantity failed to divide (e.g. `"K/Pc by S*B"`).
        what: String,
        /// The dimension value.
        dim: usize,
        /// The required divisor.
        by: usize,
    },
    /// The mesh shape is unsupported (e.g. Cannon on a non-square mesh).
    UnsupportedMesh {
        /// Human-readable requirement.
        requirement: String,
    },
    /// The dataflow is unsupported by this algorithm.
    UnsupportedDataflow {
        /// The algorithm's name.
        algorithm: String,
    },
    /// An input shard grid does not match the layout the problem expects.
    ShardLayout {
        /// Which input is malformed and how.
        what: String,
        /// The dimensions found, `(rows, cols)`.
        found: (usize, usize),
        /// The dimensions the layout requires, `(rows, cols)`.
        expected: (usize, usize),
    },
    /// The mesh shape, view, or coordinate itself is invalid.
    Mesh(MeshError),
}

impl fmt::Display for GemmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemmError::Indivisible { what, dim, by } => {
                write!(f, "{what}: {dim} is not divisible by {by}")
            }
            GemmError::UnsupportedMesh { requirement } => {
                write!(f, "unsupported mesh shape: {requirement}")
            }
            GemmError::UnsupportedDataflow { algorithm } => {
                write!(f, "dataflow not supported by {algorithm}")
            }
            GemmError::ShardLayout {
                what,
                found,
                expected,
            } => {
                write!(
                    f,
                    "{what}: found {}x{}, expected {}x{}",
                    found.0, found.1, expected.0, expected.1
                )
            }
            GemmError::Mesh(err) => write!(f, "invalid mesh: {err}"),
        }
    }
}

impl From<MeshError> for GemmError {
    fn from(err: MeshError) -> Self {
        GemmError::Mesh(err)
    }
}

impl Error for GemmError {}

/// Checks divisibility, producing a [`GemmError::Indivisible`] otherwise.
/// `what` is formatted only on failure, so passing `format_args!` keeps
/// the check allocation-free.
pub(crate) fn ensure_divides(
    what: impl fmt::Display,
    dim: usize,
    by: usize,
) -> Result<usize, GemmError> {
    if by == 0 || !dim.is_multiple_of(by) {
        Err(GemmError::Indivisible {
            what: what.to_string(),
            dim,
            by,
        })
    } else {
        Ok(dim / by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_divides_ok() {
        assert_eq!(ensure_divides("K by P", 12, 4), Ok(3));
    }

    #[test]
    fn ensure_divides_err_message() {
        let err = ensure_divides("K by P", 10, 4).unwrap_err();
        assert_eq!(err.to_string(), "K by P: 10 is not divisible by 4");
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(ensure_divides("x", 10, 0).is_err());
    }
}
