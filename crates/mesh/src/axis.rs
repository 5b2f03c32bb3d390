//! Named mesh axes.

use std::fmt;

use crate::MeshError;

/// A short, inline, copyable axis name (`"x"`, `"y"`, `"z"`, `"dp"`, …).
///
/// Names are 1 to 8 characters of `[A-Za-z0-9_]`, stored
/// inline so shapes and coordinates stay `Copy` and hashable with no global
/// interner. Ordering is lexicographic and deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AxisName {
    // `bytes` precedes `len` so the derived `Ord` is lexicographic over the
    // zero-padded name (the pad byte 0 sorts before every legal character).
    bytes: [u8; Self::MAX_LEN],
    len: u8,
}

impl AxisName {
    /// Maximum name length in bytes.
    pub(crate) const MAX_LEN: usize = 8;

    /// The conventional first (row) axis, `"x"`.
    pub const X: AxisName = AxisName::lit(b"x");
    /// The conventional second (column) axis, `"y"`.
    pub const Y: AxisName = AxisName::lit(b"y");
    /// The conventional third axis of a 3D pod, `"z"`.
    pub const Z: AxisName = AxisName::lit(b"z");
    /// The conventional fourth axis, `"w"`.
    pub const W: AxisName = AxisName::lit(b"w");

    /// Default axis names by position: `x, y, z, w`.
    pub(crate) const DEFAULTS: [AxisName; crate::MAX_AXES] =
        [AxisName::X, AxisName::Y, AxisName::Z, AxisName::W];

    const fn lit(s: &[u8]) -> AxisName {
        assert!(!s.is_empty() && s.len() <= Self::MAX_LEN);
        let mut bytes = [0u8; Self::MAX_LEN];
        let mut i = 0;
        while i < s.len() {
            bytes[i] = s[i];
            i += 1;
        }
        AxisName {
            bytes,
            len: s.len() as u8,
        }
    }

    /// Creates a validated axis name.
    ///
    /// # Errors
    ///
    /// [`MeshError::BadAxisName`] when the name is empty, longer than 8
    /// characters, or contains characters outside `[A-Za-z0-9_]`.
    pub fn new(name: &str) -> Result<AxisName, MeshError> {
        let ok_len = !name.is_empty() && name.len() <= Self::MAX_LEN;
        let ok_chars = name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
        if !(ok_len && ok_chars) {
            return Err(MeshError::BadAxisName { name: name.into() });
        }
        Ok(Self::lit(name.as_bytes()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        // Construction only admits ASCII, so the prefix is valid UTF-8.
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("axis names are ASCII")
    }
}

impl fmt::Debug for AxisName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for AxisName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_orders_lexically() {
        let a = AxisName::new("dp").unwrap();
        assert_eq!(a.as_str(), "dp");
        assert_eq!(a.to_string(), "dp");
        assert!(AxisName::new("a").unwrap() < AxisName::new("ab").unwrap());
        assert!(AxisName::new("ab").unwrap() < AxisName::new("b").unwrap());
        assert_eq!(AxisName::X.as_str(), "x");
    }

    #[test]
    fn rejects_bad_names() {
        assert!(AxisName::new("").is_err());
        assert!(AxisName::new("toolongname").is_err());
        assert!(AxisName::new("a b").is_err());
        assert!(AxisName::new("ünicode").is_err());
        assert!(AxisName::new("ok_name8").is_ok());
    }
}
