use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use deepsecure_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// assert_eq!(a.matmul(&b)[(0, 0)], 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds from column vectors.
    ///
    /// # Panics
    ///
    /// Panics on ragged input.
    pub fn from_columns(cols: &[Vec<f64>]) -> Matrix {
        let c = cols.len();
        let r = cols.first().map_or(0, Vec::len);
        let mut m = Matrix::zeros(r, c);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), r, "ragged columns");
            for (i, v) in col.iter().enumerate() {
                m[(i, j)] = *v;
            }
        }
        m
    }

    /// Builds element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` out.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// The orthogonal projector onto the column space:
    /// `W = Q Qᵀ` where `Q` is an orthonormal basis (Prop 3.1's `UUᵀ`).
    pub fn projector(&self) -> Matrix {
        let q = qr_thin(self).0;
        q.matmul(&q.transpose())
    }
}

/// Thin QR by modified Gram-Schmidt: `A = Q·R` with `Q` having orthonormal
/// columns. Rank-deficient columns are dropped from `Q` (and their `R` rows
/// zeroed), so `Q` spans exactly the column space.
fn qr_thin(a: &Matrix) -> (Matrix, Matrix) {
    let m = a.rows();
    let n = a.cols();
    let mut q_cols: Vec<Vec<f64>> = Vec::new();
    let mut r = Matrix::zeros(n, n);
    let tol = 1e-10 * a.frobenius_norm().max(1.0);
    for j in 0..n {
        let mut v = a.col(j);
        for (qi, qcol) in q_cols.iter().enumerate() {
            let dot: f64 = qcol.iter().zip(&v).map(|(x, y)| x * y).sum();
            r[(qi, j)] = dot;
            for (vk, qk) in v.iter_mut().zip(qcol) {
                *vk -= dot * qk;
            }
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > tol && q_cols.len() < n.min(m) {
            r[(q_cols.len(), j)] = norm;
            q_cols.push(v.iter().map(|x| x / norm).collect());
        }
    }
    if q_cols.is_empty() {
        return (Matrix::zeros(m, 0), r);
    }
    (Matrix::from_columns(&q_cols), r)
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
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

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // xorshift-based deterministic fill.
        let state = std::cell::Cell::new(seed | 1);
        Matrix::from_fn(rows, cols, |_, _| {
            let mut s = state.get();
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            state.set(s);
            (s % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        let c = Matrix::from_columns(&[vec![1.0, 4.0], vec![2.0, 5.0], vec![3.0, 6.0]]);
        assert_eq!(m, c);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let x = vec![1.0, -2.0, 0.5];
        let via_mat = m.matmul(&Matrix::from_columns(std::slice::from_ref(&x)));
        let direct = m.matvec(&x);
        for i in 0..4 {
            assert!((via_mat[(i, 0)] - direct[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn projector_is_idempotent_and_symmetric() {
        let d = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 1.0],
        ]);
        let w = d.projector();
        assert!(w.sub(&w.matmul(&w)).frobenius_norm() < 1e-10, "idempotent");
        assert!(w.sub(&w.transpose()).frobenius_norm() < 1e-12, "symmetric");
        // W fixes columns of D.
        let wd = w.matmul(&d);
        assert!(wd.sub(&d).frobenius_norm() < 1e-10, "fixes range");
    }

    #[test]
    fn projector_depends_only_on_column_space() {
        // Prop. 3.1: mixing D's columns with an invertible M gives a very
        // different dictionary with the same W, so the public W cannot
        // determine D.
        let d = random_matrix(12, 4, 1);
        let mix = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 3.0, 0.0],
            vec![1.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0, 5.0],
        ]);
        let d_mixed = d.matmul(&mix);
        assert!(d.sub(&d_mixed).frobenius_norm() > 1.0, "D ≠ D·M");
        let w = d.projector();
        assert!(w.sub(&d_mixed.projector()).frobenius_norm() < 1e-8, "one W");
    }

    #[test]
    fn different_column_spaces_have_different_projectors() {
        let w1 = random_matrix(10, 3, 3).projector();
        let w2 = random_matrix(10, 3, 4).projector();
        assert!(w1.sub(&w2).frobenius_norm() > 1e-3, "new span, new W");
    }

    #[test]
    fn qr_orthonormal_and_reconstructs() {
        let a = random_matrix(6, 4, 11);
        let (q, r) = qr_thin(&a);
        let qtq = q.transpose().matmul(&q);
        assert!(
            qtq.sub(&Matrix::identity(q.cols())).frobenius_norm() < 1e-9,
            "QᵀQ = I"
        );
        let qr = q.matmul(&r);
        assert!(a.sub(&qr).frobenius_norm() < 1e-9, "A = QR");
    }

    #[test]
    fn qr_handles_rank_deficiency() {
        // Third column is the sum of the first two.
        let mut a = random_matrix(5, 3, 13);
        for i in 0..5 {
            a[(i, 2)] = a[(i, 0)] + a[(i, 1)];
        }
        let (q, _) = qr_thin(&a);
        assert_eq!(q.cols(), 2, "rank-2 input yields 2 basis vectors");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_checks_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
