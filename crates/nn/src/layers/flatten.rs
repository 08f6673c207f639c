//! Flattening between convolutional and dense stages.

use super::{Layer, Param};
use crate::Tensor;

/// Flattens `[N, C, H, W]` to `[N, C·H·W]`; backward restores the shape.
///
/// ```
/// use ganopc_nn::{layers::{Flatten, Layer}, Tensor};
/// let mut f = Flatten::new();
/// let y = f.forward(&Tensor::zeros(&[2, 3, 4, 4]), true);
/// assert_eq!(y.shape(), &[2, 48]);
/// ```
#[derive(Debug, Default)]
pub struct Flatten {
    cache_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cache_shape: None }
    }

    /// Records the pre-flatten shape (reusing the cached vector) and
    /// returns the flattened `[N, rest]` dimensions.
    fn cache(&mut self, shape: &[usize]) -> (usize, usize) {
        assert!(shape.len() >= 2, "flatten needs a batch dimension");
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        match &mut self.cache_shape {
            Some(v) => {
                v.clear();
                v.extend_from_slice(shape);
            }
            None => self.cache_shape = Some(shape.to_vec()),
        }
        (n, rest)
    }
}

impl Layer for Flatten {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        out.copy_from(input);
        self.forward_inplace(out, train);
    }

    // lint: hot-path
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        match grad_in {
            Some(gi) => {
                gi.copy_from(grad_out);
                self.backward_inplace(gi);
            }
            None => assert!(self.cache_shape.is_some(), "backward before forward"),
        }
    }

    // lint: hot-path
    fn forward_inplace(&mut self, x: &mut Tensor, _train: bool) -> bool {
        let (n, rest) = self.cache(x.shape());
        x.set_shape(&[n, rest]);
        true
    }

    // lint: hot-path
    fn backward_inplace(&mut self, g: &mut Tensor) -> bool {
        // PANIC: Layer contract — backward runs only after forward cached state.
        let shape = self.cache_shape.as_ref().expect("backward before forward");
        g.set_shape(shape);
        true
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        "Flatten".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_data() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(&[2, 2, 1, 3], (0..12).map(|i| i as f32).collect());
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 6]);
        assert_eq!(y.as_slice(), x.as_slice());
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut f = Flatten::new();
        let _ = f.backward(&Tensor::zeros(&[1, 4]));
    }
}
