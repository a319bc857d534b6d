//! Sparse feature vectors and the vector-space algebra used throughout the
//! engine: dot products for the SVM decision function, cosine similarity
//! for the local search engine, and the usual norms and combinations.

use serde::{Deserialize, Serialize};

/// A sparse vector: `(feature index, weight)` pairs sorted by index with
/// no duplicates and no explicit zeros.
///
/// ```
/// use bingo_textproc::SparseVector;
/// let a = SparseVector::from_pairs(vec![(0, 1.0), (3, 2.0)]);
/// let b = SparseVector::from_pairs(vec![(3, 4.0), (7, 1.0)]);
/// assert_eq!(a.dot(&b), 8.0);
/// assert!((a.normalized().norm() - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(u32, f32)>,
}

impl SparseVector {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted pairs; duplicate indices are summed and zero
    /// weights dropped.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut entries: Vec<(u32, f32)> = Vec::with_capacity(pairs.len());
        for (i, w) in pairs {
            match entries.last_mut() {
                Some(&mut (li, ref mut lw)) if li == i => *lw += w,
                _ => entries.push((i, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        SparseVector { entries }
    }

    /// Entries as a sorted slice.
    pub fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Weight at `index` (0.0 when absent).
    pub fn get(&self, index: u32) -> f32 {
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Dot product via sorted-merge; O(nnz(a) + nnz(b)).
    pub fn dot(&self, other: &SparseVector) -> f32 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        let mut sum = 0.0f32;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f32>().sqrt()
    }

    /// Cosine similarity; 0.0 when either vector is zero.
    pub fn cosine(&self, other: &SparseVector) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Scale all weights in place.
    pub fn scale(&mut self, factor: f32) {
        if factor == 0.0 {
            self.entries.clear();
            return;
        }
        for (_, w) in &mut self.entries {
            *w *= factor;
        }
    }

    /// Return a unit-norm copy (unchanged when zero).
    pub fn normalized(&self) -> SparseVector {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.scale(1.0 / n);
        out
    }

    /// `self + factor * other`, merged in O(nnz(a)+nnz(b)).
    pub fn add_scaled(&self, other: &SparseVector, factor: f32) -> SparseVector {
        let (a, b) = (&self.entries, &other.entries);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&(ia, wa)), Some(&(ib, wb))) => match ia.cmp(&ib) {
                    std::cmp::Ordering::Less => {
                        i += 1;
                        (ia, wa)
                    }
                    std::cmp::Ordering::Greater => {
                        j += 1;
                        (ib, factor * wb)
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                        (ia, wa + factor * wb)
                    }
                },
                (Some(&(ia, wa)), None) => {
                    i += 1;
                    (ia, wa)
                }
                (None, Some(&(ib, wb))) => {
                    j += 1;
                    (ib, factor * wb)
                }
                (None, None) => unreachable!(),
            };
            if next.1 != 0.0 {
                out.push(next);
            }
        }
        SparseVector { entries: out }
    }

    /// Keep only entries whose index passes `keep`. Used to project a
    /// document vector onto a selected feature set.
    pub fn filter_indices<F: Fn(u32) -> bool>(&self, keep: F) -> SparseVector {
        SparseVector {
            entries: self
                .entries
                .iter()
                .copied()
                .filter(|&(i, _)| keep(i))
                .collect(),
        }
    }

    /// Remap every index through `map`, dropping entries mapped to `None`.
    /// The map must be injective over the retained indices; used to move a
    /// vector into a compact selected-feature space.
    pub fn remap<F: Fn(u32) -> Option<u32>>(&self, map: F) -> SparseVector {
        SparseVector::from_pairs(
            self.entries
                .iter()
                .filter_map(|&(i, w)| map(i).map(|ni| (ni, w)))
                .collect(),
        )
    }

    /// Squared Euclidean distance.
    pub fn distance_sq(&self, other: &SparseVector) -> f32 {
        // |a-b|^2 = |a|^2 + |b|^2 - 2 a.b
        let na = self.norm();
        let nb = other.norm();
        (na * na + nb * nb - 2.0 * self.dot(other)).max(0.0)
    }
}

impl FromIterator<(u32, f32)> for SparseVector {
    fn from_iter<I: IntoIterator<Item = (u32, f32)>>(iter: I) -> Self {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_dedups_drops_zero() {
        let x = v(&[(3, 1.0), (1, 2.0), (3, 2.0), (5, 0.0)]);
        assert_eq!(x.entries(), &[(1, 2.0), (3, 3.0)]);
    }

    #[test]
    fn dot_product() {
        let a = v(&[(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = v(&[(2, 4.0), (5, 1.0), (7, 9.0)]);
        assert_eq!(a.dot(&b), 11.0);
        assert_eq!(a.dot(&SparseVector::new()), 0.0);
    }

    #[test]
    fn cosine_bounds() {
        let a = v(&[(1, 1.0), (2, 1.0)]);
        let b = v(&[(1, 2.0), (2, 2.0)]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
        let c = v(&[(9, 1.0)]);
        assert_eq!(a.cosine(&c), 0.0);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn add_scaled_merges() {
        let a = v(&[(1, 1.0), (3, 1.0)]);
        let b = v(&[(2, 2.0), (3, 1.0)]);
        let c = a.add_scaled(&b, 2.0);
        assert_eq!(c.entries(), &[(1, 1.0), (2, 4.0), (3, 3.0)]);
    }

    #[test]
    fn add_scaled_cancellation_removes_zero() {
        let a = v(&[(1, 1.0)]);
        let b = v(&[(1, 1.0)]);
        let c = a.add_scaled(&b, -1.0);
        assert!(c.is_empty());
    }

    #[test]
    fn normalized_is_unit() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-6);
        assert!(SparseVector::new().normalized().is_empty());
    }

    #[test]
    fn distance_sq_matches_direct() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(1, 1.0), (2, 2.0)]);
        // diff = (1, 1, -2) over indices 0,1,2 => 1 + 1 + 4 = 6
        assert!((a.distance_sq(&b) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn get_and_filter() {
        let a = v(&[(2, 5.0), (8, 1.0)]);
        assert_eq!(a.get(2), 5.0);
        assert_eq!(a.get(3), 0.0);
        let f = a.filter_indices(|i| i < 5);
        assert_eq!(f.entries(), &[(2, 5.0)]);
    }

    #[test]
    fn remap_compacts() {
        let a = v(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        let m = a.remap(|i| if i == 20 { None } else { Some(i / 10) });
        assert_eq!(m.entries(), &[(1, 1.0), (3, 3.0)]);
    }
}
