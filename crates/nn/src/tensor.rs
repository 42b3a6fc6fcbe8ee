/// A minimal dense `f32` tensor with a runtime shape.
///
/// Layouts are row-major; images use `(channels, height, width)`.
///
/// # Example
///
/// ```
/// use deepsecure_nn::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "tensor volume mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A flat (1-D) tensor.
    pub fn from_flat(data: Vec<f32>) -> Tensor {
        Tensor {
            shape: vec![data.len()],
            data,
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Reshapes in place (volume must match).
    ///
    /// # Panics
    ///
    /// Panics on volume mismatch.
    pub fn reshape(&mut self, shape: &[usize]) {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape volume mismatch"
        );
        self.shape = shape.to_vec();
    }

    /// Element at `(c, y, x)` of a 3-D tensor.
    pub fn at3(&self, c: usize, y: usize, x: usize) -> f32 {
        let (_, h, w) = self.dims3();
        self.data[(c * h + y) * w + x]
    }

    /// Mutable element at `(c, y, x)` of a 3-D tensor.
    pub fn at3_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        let (_, h, w) = self.dims3();
        &mut self.data[(c * h + y) * w + x]
    }

    /// The `(channels, height, width)` dimensions.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 3-D.
    pub fn dims3(&self) -> (usize, usize, usize) {
        assert_eq!(self.shape.len(), 3, "expected a 3-D tensor");
        (self.shape[0], self.shape[1], self.shape[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_access() {
        let mut t = Tensor::zeros(&[2, 2, 3]);
        *t.at3_mut(1, 0, 2) = 5.0;
        assert_eq!(t.at3(1, 0, 2), 5.0);
        assert_eq!(t.at3(0, 0, 2), 0.0);
        assert_eq!(t.dims3(), (2, 2, 3));
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_flat(vec![1.0, 2.0, 3.0, 4.0]);
        t.reshape(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "volume mismatch")]
    fn reshape_checks_volume() {
        let mut t = Tensor::from_flat(vec![1.0; 5]);
        t.reshape(&[2, 3]);
    }
}
