use std::fmt;

/// A dense multi-dimensional array of `f64` in row-major order.
///
/// Dense tensors serve two roles in this project: as the reference oracle
/// against which compiled sparse kernels are checked, and as the dense
/// operands/results of kernels such as the MTTKRP with dense output
/// (Figure 9 of the paper).
///
/// # Example
///
/// ```
/// use taco_tensor::DenseTensor;
///
/// let mut t = DenseTensor::zeros(vec![2, 3]);
/// t.set(&[1, 2], 5.0);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.get(&[0, 0]), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// Creates a zero-filled dense tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "dense tensor must have at least one mode");
        let len = shape.iter().product();
        DenseTensor { shape, data: vec![0.0; len] }
    }

    /// Creates a dense tensor from a shape and row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of the dimensions.
    pub fn from_data(shape: Vec<usize>, data: Vec<f64>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(len, data.len(), "data length must match shape volume");
        DenseTensor { shape, data }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of modes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Row-major linear offset of a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate rank or any coordinate is out of bounds.
    pub fn offset(&self, coord: &[usize]) -> usize {
        assert_eq!(coord.len(), self.shape.len(), "coordinate rank mismatch");
        let mut off = 0;
        for (c, d) in coord.iter().zip(&self.shape) {
            assert!(c < d, "coordinate {c} out of bounds for dimension {d}");
            off = off * d + c;
        }
        off
    }

    /// Reads the component at `coord`.
    pub fn get(&self, coord: &[usize]) -> f64 {
        self.data[self.offset(coord)]
    }

    /// Writes the component at `coord`.
    pub fn set(&mut self, coord: &[usize], value: f64) {
        let off = self.offset(coord);
        self.data[off] = value;
    }

    /// Adds `value` to the component at `coord`.
    pub fn add(&mut self, coord: &[usize], value: f64) {
        let off = self.offset(coord);
        self.data[off] += value;
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the tensor and returns its row-major data.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Number of stored components (the shape volume).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor stores no components.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of components with nonzero value.
    pub fn count_nonzeros(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Iterates over `(coordinate, value)` pairs of the *nonzero* components
    /// in row-major (lexicographic) coordinate order.
    pub fn iter_nonzeros(&self) -> impl Iterator<Item = (Vec<usize>, f64)> + '_ {
        let shape = self.shape.clone();
        self.data.iter().enumerate().filter(|(_, v)| **v != 0.0).map(move |(off, v)| {
            let mut coord = vec![0; shape.len()];
            let mut rem = off;
            for (k, d) in shape.iter().enumerate().rev() {
                coord[k] = rem % d;
                rem /= d;
            }
            (coord, *v)
        })
    }

    /// True if every component differs from `other` by at most `tol`.
    ///
    /// Shapes must match exactly; returns `false` otherwise.
    pub fn approx_eq(&self, other: &DenseTensor, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl fmt::Display for DenseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseTensor{:?} [", self.shape)?;
        let show = self.data.len().min(16);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > show {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut t = DenseTensor::zeros(vec![3, 4]);
        assert_eq!(t.len(), 12);
        t.set(&[2, 3], 7.0);
        t.add(&[2, 3], 1.0);
        assert_eq!(t.get(&[2, 3]), 8.0);
        assert_eq!(t.get(&[0, 0]), 0.0);
    }

    #[test]
    fn offsets_row_major() {
        let t = DenseTensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        DenseTensor::zeros(vec![2, 2]).get(&[0, 2]);
    }

    #[test]
    fn iter_nonzeros_in_order() {
        let mut t = DenseTensor::zeros(vec![2, 2]);
        t.set(&[1, 0], 3.0);
        t.set(&[0, 1], 2.0);
        let nz: Vec<_> = t.iter_nonzeros().collect();
        assert_eq!(nz, vec![(vec![0, 1], 2.0), (vec![1, 0], 3.0)]);
    }

    #[test]
    fn approx_eq_tolerates_roundoff() {
        let a = DenseTensor::from_data(vec![2], vec![1.0, 2.0]);
        let b = DenseTensor::from_data(vec![2], vec![1.0 + 1e-12, 2.0]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
        let c = DenseTensor::from_data(vec![1, 2], vec![1.0, 2.0]);
        assert!(!a.approx_eq(&c, 1.0), "shape mismatch must not compare equal");
    }

    #[test]
    fn count_nonzeros() {
        let t = DenseTensor::from_data(vec![4], vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(t.count_nonzeros(), 2);
    }
}
