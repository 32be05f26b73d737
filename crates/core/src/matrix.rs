//! Dense matrix algebra over GF(2^8).
//!
//! [`GfMatrix`] is the batch form of what the decoders do incrementally
//! ([C|I] inversion + the Eq. 1-style multiplication) and serves as ground
//! truth when validating them and the GPU kernels.

use crate::error::Error;
use nc_gf256::region;
use nc_gf256::scalar;
use rand::Rng;

/// A dense, row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct GfMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl GfMatrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> GfMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        GfMatrix { rows, cols, data: vec![0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> GfMatrix {
        let mut m = GfMatrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `rows` is empty or rows have uneven
    /// lengths.
    pub fn from_rows(rows: &[&[u8]]) -> Result<GfMatrix, Error> {
        let Some(first) = rows.first() else {
            return Err(Error::DimensionMismatch { op: "from_rows (empty)" });
        };
        let cols = first.len();
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return Err(Error::DimensionMismatch { op: "from_rows (ragged)" });
        }
        // lint: allow(vec-capacity) — dense matrix assembly for rank analysis, not a coding hot path.
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(GfMatrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<u8>) -> Result<GfMatrix, Error> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(Error::DimensionMismatch { op: "from_flat" });
        }
        Ok(GfMatrix { rows, cols, data })
    }

    /// Fills an `n × n` matrix with dense random non-zero entries (the
    /// paper's benchmark matrices).
    pub fn random_dense(n: usize, rng: &mut impl Rng) -> GfMatrix {
        let mut m = GfMatrix::zeros(n, n);
        for v in m.data.iter_mut() {
            *v = rng.gen_range(1..=255);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u8] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[u8] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// The whole product is one [`region::matrix_mul_add`] call:
    /// `out[i] ^= Σ_j a[i][j] · rhs[j]` with `rhs`'s rows as the sources.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] unless `self.cols == rhs.rows`.
    pub fn mul(&self, rhs: &GfMatrix) -> Result<GfMatrix, Error> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch { op: "matrix multiply" });
        }
        let mut out = GfMatrix::zeros(self.rows, rhs.cols);
        let sources: Vec<&[u8]> = rhs.data.chunks_exact(rhs.cols).collect();
        let coeffs: Vec<&[u8]> = self.data.chunks_exact(self.cols).collect();
        let mut out_rows: Vec<&mut [u8]> = out.data.chunks_exact_mut(rhs.cols).collect();
        region::matrix_mul_add(&mut out_rows, &sources, &coeffs);
        Ok(out)
    }

    /// Transforms the matrix in place to reduced row-echelon form via
    /// Gauss-Jordan elimination and returns its rank.
    pub fn gauss_jordan(&mut self) -> usize {
        let mut pivot_row = 0usize;
        for col in 0..self.cols {
            if pivot_row == self.rows {
                break;
            }
            // Find a row at or below pivot_row with a non-zero entry in col.
            let Some(found) = (pivot_row..self.rows).find(|&r| self.data[r * self.cols + col] != 0)
            else {
                continue;
            };
            self.swap_rows(pivot_row, found);
            // Normalize the pivot row so the leading entry is 1.
            let pivot = self.data[pivot_row * self.cols + col];
            if pivot != 1 {
                let inv = scalar::inv(pivot);
                region::mul_assign(self.row_mut(pivot_row), inv);
            }
            // Eliminate the column from every other row (Jordan step).
            for r in 0..self.rows {
                if r == pivot_row {
                    continue;
                }
                let factor = self.data[r * self.cols + col];
                if factor != 0 {
                    let (pr, rr) = self.two_rows_mut(pivot_row, r);
                    region::mul_add_assign(rr, pr, factor);
                }
            }
            pivot_row += 1;
        }
        pivot_row
    }

    /// The matrix rank (non-destructive).
    pub fn rank(&self) -> usize {
        self.clone().gauss_jordan()
    }

    /// Inverts a square matrix via Gauss-Jordan elimination on `[C | I]` —
    /// stage 1 of the paper's multi-segment decoding (Sec. 5.2).
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] for non-square inputs and
    /// [`Error::SingularMatrix`] when no inverse exists.
    pub fn invert(&self) -> Result<GfMatrix, Error> {
        if self.rows != self.cols {
            return Err(Error::DimensionMismatch { op: "invert (non-square)" });
        }
        let n = self.rows;
        // Build the augmented [C | I].
        let mut aug = GfMatrix::zeros(n, 2 * n);
        for r in 0..n {
            aug.row_mut(r)[..n].copy_from_slice(self.row(r));
            aug.row_mut(r)[n + r] = 1;
        }
        aug.gauss_jordan();
        // The augmented identity columns guarantee full *row* rank, so the
        // rank of [C | I] alone proves nothing. C is invertible iff the
        // left half reduced to the identity (every pivot fell in C).
        for r in 0..n {
            for c in 0..n {
                if aug.row(r)[c] != u8::from(r == c) {
                    return Err(Error::SingularMatrix);
                }
            }
        }
        let mut inv = GfMatrix::zeros(n, n);
        for r in 0..n {
            inv.row_mut(r).copy_from_slice(&aug.row(r)[n..]);
        }
        Ok(inv)
    }

    /// Whether this is the identity matrix.
    pub fn is_identity(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.data.iter().enumerate().all(|(idx, &v)| {
            let (r, c) = (idx / self.cols, idx % self.cols);
            v == if r == c { 1 } else { 0 }
        })
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(b * self.cols);
        top[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    /// Disjoint mutable borrows of rows `a` and `b` (`a != b`).
    fn two_rows_mut(&mut self, a: usize, b: usize) -> (&[u8], &mut [u8]) {
        debug_assert_ne!(a, b);
        let cols = self.cols;
        if a < b {
            let (top, bottom) = self.data.split_at_mut(b * cols);
            (&top[a * cols..(a + 1) * cols], &mut bottom[..cols])
        } else {
            let (top, bottom) = self.data.split_at_mut(a * cols);
            (&bottom[..cols], &mut top[b * cols..(b + 1) * cols])
        }
    }
}

impl core::fmt::Debug for GfMatrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "GfMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(16) {
                write!(f, "{:02x} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 16 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn identity_multiplication() {
        let mut r = rng();
        let a = GfMatrix::random_dense(8, &mut r);
        let i = GfMatrix::identity(8);
        assert_eq!(a.mul(&i).unwrap(), a);
        assert_eq!(i.mul(&a).unwrap(), a);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let mut r = rng();
        for n in [1usize, 2, 3, 8, 32] {
            // Dense random GF(2^8) matrices are invertible w.h.p.; retry a
            // few seeds to make the test deterministic even if unlucky.
            let a = loop {
                let cand = GfMatrix::random_dense(n, &mut r);
                if cand.rank() == n {
                    break cand;
                }
            };
            let inv = a.invert().unwrap();
            assert!(a.mul(&inv).unwrap().is_identity(), "n={n}");
            assert!(inv.mul(&a).unwrap().is_identity(), "n={n}");
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let mut a = GfMatrix::zeros(3, 3);
        a.set(0, 0, 5);
        a.set(1, 0, 7); // rows 1 and 2 dependent on row 0 / zero
        assert_eq!(a.invert().unwrap_err(), Error::SingularMatrix);
        assert!(a.rank() < 3);
    }

    #[test]
    fn rank_of_duplicated_rows() {
        let r1 = [1u8, 2, 3, 4];
        let r2 = [5u8, 6, 7, 8];
        // Third row = 2*r1 + r2 in GF arithmetic.
        let mut r3 = [0u8; 4];
        region::mul_add_assign(&mut r3, &r1, 2);
        region::mul_add_assign(&mut r3, &r2, 1);
        let m = GfMatrix::from_rows(&[&r1, &r2, &r3]).unwrap();
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn gauss_jordan_produces_rref() {
        let mut r = rng();
        let mut a = GfMatrix::random_dense(6, &mut r);
        let rank = a.gauss_jordan();
        assert_eq!(rank, 6);
        assert!(a.is_identity());
    }

    #[test]
    fn rref_of_rectangular_system() {
        // [C | X] with invertible C reduces to [I | C^-1 X] — the identity
        // the progressive decoder relies on.
        let mut r = rng();
        let n = 5;
        let k = 11;
        let c = loop {
            let cand = GfMatrix::random_dense(n, &mut r);
            if cand.rank() == n {
                break cand;
            }
        };
        let mut x = GfMatrix::zeros(n, k);
        for v in x.data.iter_mut() {
            *v = r.gen();
        }
        let mut aug = GfMatrix::zeros(n, n + k);
        for row in 0..n {
            aug.row_mut(row)[..n].copy_from_slice(c.row(row));
            aug.row_mut(row)[n..].copy_from_slice(x.row(row));
        }
        assert_eq!(aug.gauss_jordan(), n);
        let want = c.invert().unwrap().mul(&x).unwrap();
        for row in 0..n {
            assert_eq!(&aug.row(row)[n..], want.row(row));
            // Left part must be the identity row.
            for col in 0..n {
                assert_eq!(aug.row(row)[col], if col == row { 1 } else { 0 });
            }
        }
    }

    #[test]
    fn from_rows_validates() {
        assert!(GfMatrix::from_rows(&[]).is_err());
        let r1 = [1u8, 2];
        let r2 = [3u8];
        assert!(GfMatrix::from_rows(&[&r1, &r2]).is_err());
    }

    #[test]
    fn mul_dimension_check() {
        let a = GfMatrix::zeros(2, 3);
        let b = GfMatrix::zeros(2, 3);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn associativity_of_multiplication() {
        let mut r = rng();
        let a = GfMatrix::random_dense(4, &mut r);
        let b = GfMatrix::random_dense(4, &mut r);
        let c = GfMatrix::random_dense(4, &mut r);
        let ab_c = a.mul(&b).unwrap().mul(&c).unwrap();
        let a_bc = a.mul(&b.mul(&c).unwrap()).unwrap();
        assert_eq!(ab_c, a_bc);
    }
}
