//! Row-major dense matrix.
//!
//! [`Matrix`] stores `rows × cols` values contiguously. Rain's models keep
//! feature sets as one `Matrix` (one example per row), so the hot operations
//! are row access, `matvec` (`A·x`), `matvec_t` (`Aᵀ·x`), and rank-one
//! accumulation `A += α·x·yᵀ`.

use crate::vecops;

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec: shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices (all must have equal length).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Append one row in amortised O(cols): the backing buffer grows
    /// geometrically, so pushing `n` rows one at a time copies O(n · cols)
    /// values in total.
    ///
    /// # Panics
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "Matrix::push_row: width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reserve room for `additional` more rows, so a batch of
    /// [`Matrix::push_row`] calls grows the buffer at most once.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
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

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over rows as slices — `rows` of them, empty ones when the
    /// matrix has no columns.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        let cols = self.cols;
        (0..self.rows).map(move |i| &self.data[i * cols..(i + 1) * cols])
    }

    /// Matrix–vector product `A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        self.iter_rows().map(|r| vecops::dot(r, x)).collect()
    }

    /// Transposed matrix–vector product `Aᵀ·x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &xi) in self.iter_rows().zip(x) {
            vecops::axpy(xi, r, &mut out);
        }
        out
    }

    /// Matrix–matrix product `A·B`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for (k, &aik) in self.row(i).iter().enumerate() {
                if aik != 0.0 {
                    let brow = b.row(k);
                    vecops::axpy(aik, brow, out.row_mut(i));
                }
            }
        }
        out
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Rank-one update `self += alpha * x yᵀ`.
    pub fn add_outer(&mut self, alpha: f64, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.rows, "add_outer: row mismatch");
        assert_eq!(y.len(), self.cols, "add_outer: col mismatch");
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                vecops::axpy(alpha * xi, y, self.row_mut(i));
            }
        }
    }

    /// Select a subset of rows into a new matrix.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(idx.len(), self.cols, data)
    }

    /// Delete the rows at the strictly ascending positions `gone`, in
    /// place: each run of kept rows moves up once (`copy_within`), and the
    /// allocation is kept.
    pub fn remove_rows(&mut self, gone: &[usize]) {
        let c = self.cols;
        let (mut read, mut write) = (0, 0);
        for &g in gone.iter().chain(std::iter::once(&self.rows)) {
            assert!(
                read <= g && g <= self.rows,
                "remove_rows: positions must ascend and be in range"
            );
            if write != read {
                self.data.copy_within(read * c..g * c, write * c);
            }
            write += g - read;
            read = g + 1;
        }
        self.rows = write;
        self.data.truncate(write * c);
    }

    /// Stack another matrix below this one (column counts must match).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        vecops::norm2(&self.data)
    }

    /// Solve the symmetric positive-definite system `A x = b` by Cholesky
    /// factorization. Returns `None` when the matrix is not SPD (a
    /// non-positive pivot appears).
    ///
    /// O(n³), so callers keep `n` small: the debug driver's narrow models
    /// (their dense Hessian, for the influence solve and the Newton steps
    /// of a retrain), small exact computations, and the tests that
    /// cross-check the iterative conjugate-gradient solver.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve_spd: matrix must be square");
        assert_eq!(b.len(), self.rows, "solve_spd: rhs mismatch");
        let n = self.rows;
        // Cholesky: A = L Lᵀ, lower triangle stored in `l`.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Forward substitution L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        // Back substitution Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn push_row_matches_from_rows() {
        let mut m = Matrix::zeros(0, 2);
        m.reserve_rows(2);
        m.push_row(&[1.0, -0.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m, Matrix::from_rows(&[&[1.0, -0.0], &[3.0, 4.0]]));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_row_checks_width() {
        Matrix::zeros(1, 2).push_row(&[1.0]);
    }

    #[test]
    fn remove_rows_keeps_the_complement_in_order() {
        let m = Matrix::from_vec(6, 2, (0..12).map(f64::from).collect());
        for gone in [vec![], vec![0], vec![5], vec![1, 2, 4], (0..6).collect()] {
            let keep: Vec<usize> = (0..6).filter(|i| !gone.contains(i)).collect();
            let mut compacted = m.clone();
            compacted.remove_rows(&gone);
            assert_eq!(compacted, m.select_rows(&keep), "{gone:?}");
        }
        let mut narrow = Matrix::zeros(3, 0);
        narrow.remove_rows(&[1]);
        assert_eq!(narrow.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "positions must ascend")]
    fn remove_rows_rejects_unordered_positions() {
        Matrix::zeros(3, 1).remove_rows(&[2, 1]);
    }

    #[test]
    fn zero_width_matrix_still_has_its_rows() {
        let m = Matrix::zeros(3, 0);
        assert_eq!(m.iter_rows().len(), 3);
        assert!(m.iter_rows().all(<[f64]>::is_empty));
        assert_eq!(m.matvec(&[]), vec![0.0, 0.0, 0.0]);
        assert_eq!(m.matvec_t(&[1.0, 2.0, 3.0]), Vec::<f64>::new());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i3 = Matrix::identity(3);
        let x = [1.0, -2.0, 5.0];
        assert_eq!(i3.matvec(&x), x.to_vec());
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, -1.0];
        assert_eq!(m.matvec_t(&x), m.transpose().matvec(&x));
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 0.0], &[0.0, 3.0]);
        assert_eq!(m, Matrix::from_rows(&[&[0.0, 6.0], &[0.0, 0.0]]));
    }

    #[test]
    fn select_and_stack() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let sel = m.select_rows(&[2, 0]);
        assert_eq!(sel, Matrix::from_rows(&[&[3.0], &[1.0]]));
        let stacked = sel.vstack(&m);
        assert_eq!(stacked.rows(), 5);
        assert_eq!(stacked.row(4), &[3.0]);
    }

    #[test]
    fn cholesky_solves_spd() {
        // A = Bᵀ B + I is SPD.
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut a = b.transpose().matmul(&b);
        for i in 0..2 {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        let rhs = [1.0, 2.0];
        let x = a.solve_spd(&rhs).expect("SPD solve");
        let back = a.matvec(&x);
        assert!(crate::vecops::approx_eq(&back, &rhs, 1e-9));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(a.solve_spd(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn empty_matrix_iteration() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(m.iter_rows().count(), 0);
    }
}
