//! Flat vector arena.
//!
//! All vectors of a repository (or of a query column) live in one contiguous
//! `Vec<f32>`, indexed by [`VectorId`]. This keeps the hot verification loop
//! cache-friendly and avoids per-vector allocations (see the perf-book notes
//! on heap allocation).

use crate::error::{PexesoError, Result};

/// Handle to a vector inside a [`VectorStore`]. u32 keeps candidate
/// structures small; 4 G vectors per store is far beyond the target scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VectorId(pub u32);

/// A dense arena of equal-dimensional f32 vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorStore {
    dim: usize,
    data: Vec<f32>,
}

impl AsRef<VectorStore> for VectorStore {
    fn as_ref(&self) -> &VectorStore {
        self
    }
}

impl VectorStore {
    /// Create an empty store of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Pre-allocate for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a vector, returning its id.
    pub fn push(&mut self, v: &[f32]) -> Result<VectorId> {
        if v.len() != self.dim {
            return Err(PexesoError::DimensionMismatch {
                expected: self.dim,
                got: v.len(),
            });
        }
        let id = VectorId(self.len() as u32);
        self.data.extend_from_slice(v);
        Ok(id)
    }

    /// Borrow a vector by id.
    #[inline]
    pub fn get(&self, id: VectorId) -> &[f32] {
        let start = id.0 as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Borrow a vector by raw index.
    #[inline]
    pub fn get_raw(&self, idx: usize) -> &[f32] {
        let start = idx * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Iterate over all vectors in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// L2-normalise every vector in place (zero vectors stay zero), the
    /// precondition for the paper's ratio-based τ specification.
    pub fn normalize_all(&mut self) {
        for chunk in self.data.chunks_exact_mut(self.dim) {
            let norm_sq: f32 = chunk.iter().map(|x| x * x).sum();
            if norm_sq > 0.0 {
                let inv = norm_sq.sqrt().recip();
                for x in chunk {
                    *x *= inv;
                }
            }
        }
    }

    /// Raw flat data (persistence).
    pub fn raw_data(&self) -> &[f32] {
        &self.data
    }

    /// Rebuild from flat data (persistence).
    pub fn from_raw(dim: usize, data: Vec<f32>) -> Result<Self> {
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(PexesoError::Corrupt(format!(
                "flat data length {} not a multiple of dim {dim}",
                data.len()
            )));
        }
        Ok(Self { dim, data })
    }

    /// True if any stored component is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Reject a query column holding a NaN or infinite component with
    /// [`PexesoError::NonFiniteQuery`] naming the first such row.
    pub fn ensure_finite(&self) -> Result<()> {
        match self.data.iter().position(|x| !x.is_finite()) {
            None => Ok(()),
            Some(at) => Err(PexesoError::NonFiniteQuery { row: at / self.dim }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut s = VectorStore::new(3);
        let a = s.push(&[1.0, 2.0, 3.0]).unwrap();
        let b = s.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), &[1.0, 2.0, 3.0]);
        assert_eq!(s.get(b), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut s = VectorStore::new(3);
        assert!(matches!(
            s.push(&[1.0]),
            Err(PexesoError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn normalize_all_unit_norm() {
        let mut s = VectorStore::new(2);
        s.push(&[3.0, 4.0]).unwrap();
        s.push(&[0.0, 0.0]).unwrap();
        s.normalize_all();
        let v = s.get(VectorId(0));
        assert!((v[0] - 0.6).abs() < 1e-6 && (v[1] - 0.8).abs() < 1e-6);
        assert_eq!(s.get(VectorId(1)), &[0.0, 0.0]);
    }

    #[test]
    fn iter_visits_in_order() {
        let mut s = VectorStore::new(1);
        for i in 0..5 {
            s.push(&[i as f32]).unwrap();
        }
        let collected: Vec<f32> = s.iter().map(|v| v[0]).collect();
        assert_eq!(collected, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(VectorStore::from_raw(3, vec![0.0; 7]).is_err());
        let s = VectorStore::from_raw(3, vec![0.0; 9]).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "dimensionality must be positive")]
    fn zero_dim_store_rejected() {
        VectorStore::new(0);
    }

    #[test]
    #[should_panic(expected = "dimensionality must be positive")]
    fn zero_dim_with_capacity_rejected() {
        VectorStore::with_capacity(0, 4);
    }

    #[test]
    fn zero_dim_from_raw_rejected() {
        // Even with empty data (0 is a multiple of everything), dim 0 is
        // corrupt: it would make every length/index computation divide by
        // zero downstream.
        assert!(VectorStore::from_raw(0, vec![]).is_err());
        assert!(VectorStore::from_raw(0, vec![1.0]).is_err());
    }

    #[test]
    fn non_finite_detection() {
        let mut s = VectorStore::new(2);
        s.push(&[1.0, 2.0]).unwrap();
        assert!(!s.has_non_finite());
        assert!(s.ensure_finite().is_ok());
        s.push(&[0.0, f32::INFINITY]).unwrap();
        s.push(&[f32::NAN, 0.0]).unwrap();
        assert!(s.has_non_finite());
        // The first offending row is named, whichever component it is.
        assert!(matches!(
            s.ensure_finite(),
            Err(PexesoError::NonFiniteQuery { row: 1 })
        ));
    }
}
