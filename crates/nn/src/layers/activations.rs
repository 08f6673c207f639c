//! Element-wise activations.
//!
//! Every activation here caches its **output** in a persistent buffer and
//! derives the backward pass from it: sigmoid has a closed-form derivative
//! in the output, and the (leaky) ReLU derivative only needs the sign of
//! the input, which the output preserves. Caching the output is what makes
//! the in-place pass possible — the input no longer exists once the buffer
//! has been transformed. That in-place pass is each activation's one body:
//! `forward_into`/`backward_into` copy into the destination and run it.

use super::{Layer, Param};
use crate::Tensor;

/// Copies the freshly computed activation output into the persistent cache,
/// reusing its capacity after the first call.
fn cache_output(cache: &mut Option<Tensor>, out: &Tensor) {
    match cache {
        Some(c) => c.copy_from(out),
        None => *cache = Some(out.clone()),
    }
}

macro_rules! activation_layer {
    ($(#[$doc:meta])* $name:ident, fwd: $fwd:expr, bwd_from_out: $bwd:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            cache: Option<Tensor>,
        }

        impl $name {
            /// Creates the activation.
            pub fn new() -> Self {
                Self { cache: None }
            }
        }

        impl Layer for $name {
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
                    None => assert!(self.cache.is_some(), "backward before forward"),
                }
            }

            // lint: hot-path
            fn forward_inplace(&mut self, x: &mut Tensor, _train: bool) -> bool {
                let fwd: fn(f32) -> f32 = $fwd;
                for v in x.as_mut_slice() {
                    *v = fwd(*v);
                }
                cache_output(&mut self.cache, x);
                true
            }

            // lint: hot-path
            fn backward_inplace(&mut self, g: &mut Tensor) -> bool {
                // PANIC: Layer contract — backward runs only after forward cached state.
                let cached = self.cache.as_ref().expect("backward before forward");
                assert_eq!(cached.shape(), g.shape(), "activation grad shape mismatch");
                let bwd: fn(f32) -> f32 = $bwd;
                for (gv, &c) in g.as_mut_slice().iter_mut().zip(cached.as_slice()) {
                    *gv *= bwd(c);
                }
                true
            }

            fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

            fn describe(&self) -> String {
                stringify!($name).to_string()
            }
        }
    };
}

activation_layer!(
    /// Rectified linear unit `max(0, x)`.
    Relu,
    fwd: |x| if x > 0.0 { x } else { 0.0 },
    // The output preserves the input's positivity, so the derivative can be
    // read off the cached output: y > 0 ⟺ x > 0.
    bwd_from_out: |y| if y > 0.0 { 1.0 } else { 0.0 }
);

activation_layer!(
    /// Logistic sigmoid `1/(1+e^{-x})` — output nonlinearity of both the
    /// generator (mask pixels) and the discriminator (probability).
    Sigmoid,
    fwd: |x| 1.0 / (1.0 + (-x).exp()),
    bwd_from_out: |y| y * (1.0 - y)
);

/// Leaky ReLU with configurable negative slope (GAN discriminators
/// conventionally use 0.2).
#[derive(Debug)]
pub struct LeakyRelu {
    slope: f32,
    cache: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU; `slope` is the gradient for negative inputs.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= slope < 1`.
    pub fn new(slope: f32) -> Self {
        assert!((0.0..1.0).contains(&slope), "slope {slope} out of [0,1)");
        LeakyRelu { slope, cache: None }
    }
}

impl Default for LeakyRelu {
    fn default() -> Self {
        LeakyRelu::new(0.2)
    }
}

impl Layer for LeakyRelu {
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
            None => assert!(self.cache.is_some(), "backward before forward"),
        }
    }

    // lint: hot-path
    fn forward_inplace(&mut self, x: &mut Tensor, _train: bool) -> bool {
        let s = self.slope;
        for v in x.as_mut_slice() {
            if *v <= 0.0 {
                *v *= s;
            }
        }
        cache_output(&mut self.cache, x);
        true
    }

    // lint: hot-path
    fn backward_inplace(&mut self, g: &mut Tensor) -> bool {
        // Scaling by a slope in [0, 1) preserves the sign of negative
        // inputs (and maps them to ±0 for slope 0), so `y > 0 ⟺ x > 0`
        // and the cached output decides the branch exactly as the input
        // would have.
        // PANIC: Layer contract — backward runs only after forward cached state.
        let cached = self.cache.as_ref().expect("backward before forward");
        assert_eq!(cached.shape(), g.shape(), "activation grad shape mismatch");
        let s = self.slope;
        for (gv, &y) in g.as_mut_slice().iter_mut().zip(cached.as_slice()) {
            if y <= 0.0 {
                *gv *= s;
            }
        }
        true
    }

    fn describe(&self) -> String {
        format!("LeakyRelu({})", self.slope)
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck;
    use super::*;
    use crate::init;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(&[4], vec![-1.0, 0.0, 0.5, 2.0]), true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_vec(&[3], vec![-10.0, 0.0, 10.0]), true);
        assert!(y.as_slice()[0] < 1e-4);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-4);
    }

    #[test]
    fn leaky_scales_negative_side() {
        let mut l = LeakyRelu::new(0.1);
        let y = l.forward(&Tensor::from_vec(&[2], vec![-2.0, 2.0]), true);
        assert_eq!(y.as_slice(), &[-0.2, 2.0]);
    }

    #[test]
    fn all_gradients_check_out() {
        // Probe away from the ReLU kink (uniform over ±1 rarely lands on 0).
        let x = init::uniform(&[2, 3, 4, 4], -1.0, 1.0, 20);
        gradcheck::check_input_gradient(&mut Relu::new(), &x, 0.05);
        gradcheck::check_input_gradient(&mut Sigmoid::new(), &x, 0.02);
        gradcheck::check_input_gradient(&mut LeakyRelu::new(0.2), &x, 0.05);
    }

    #[test]
    fn inplace_paths_match_allocating_paths() {
        let x = init::uniform(&[2, 3, 4, 4], -1.0, 1.0, 21);
        let g = init::uniform(&[2, 3, 4, 4], -1.0, 1.0, 22);
        let mut a = LeakyRelu::new(0.2);
        let mut b = LeakyRelu::new(0.2);
        let y = a.forward(&x, true);
        let gi = a.backward(&g);
        let mut buf = x.clone();
        assert!(b.forward_inplace(&mut buf, true));
        assert_eq!(buf, y);
        let mut gbuf = g.clone();
        assert!(b.backward_inplace(&mut gbuf));
        assert_eq!(gbuf, gi);
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn leaky_rejects_bad_slope() {
        let _ = LeakyRelu::new(1.5);
    }
}
