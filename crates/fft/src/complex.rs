//! Single-precision complex arithmetic.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A single-precision complex number `re + i·im`.
///
/// The layout is `#[repr(C)]` so buffers of [`Complex`] can be reinterpreted
/// as interleaved `f32` pairs when exchanging data with raw image buffers.
///
/// ```
/// use ganopc_fft::Complex;
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a * b, Complex::new(5.0, 5.0));
/// assert!((a.abs() - 5f32.sqrt()).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f32) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` — the unit phasor at angle `theta` (radians).
    ///
    /// ```
    /// use ganopc_fft::Complex;
    /// let c = Complex::cis(std::f32::consts::FRAC_PI_2);
    /// assert!(c.re.abs() < 1e-6 && (c.im - 1.0).abs() < 1e-6);
    /// ```
    #[inline]
    pub fn cis(theta: f32) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f32) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }

    /// Fused multiply-add `self + a * b`, the inner-loop primitive of the
    /// convolution kernels.
    #[inline]
    pub fn mul_add(self, a: Complex, b: Complex) -> Self {
        Complex { re: self.re + a.re * b.re - a.im * b.im, im: self.im + a.re * b.im + a.im * b.re }
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Mul<f32> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f32) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f32> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f32) -> Complex {
        Complex { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl From<f32> for Complex {
    #[inline]
    fn from(re: f32) -> Complex {
        Complex::from_real(re)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, c| acc + c)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6
    }

    #[test]
    fn constants() {
        assert_eq!(Complex::ZERO + Complex::ONE, Complex::ONE);
        assert_eq!(Complex::I * Complex::I, -Complex::ONE);
    }

    #[test]
    #[allow(clippy::neg_multiply)] // spells out the (a+bi)(c+di) expansion
    fn mul_matches_expansion() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(-1.0, 4.0);
        assert!(close(a * b, Complex::new(2.0 * -1.0 - 3.0 * 4.0, 2.0 * 4.0 + 3.0 * -1.0)));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(0.7, -1.3);
        let b = Complex::new(2.5, 0.4);
        assert!(close((a * b) / b, a));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex::new(3.0, -4.0);
        assert_eq!(a.conj(), Complex::new(3.0, 4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        let prod = a * a.conj();
        assert!(close(prod, Complex::from_real(25.0)));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let theta = k as f32 * std::f32::consts::PI / 8.0;
            let c = Complex::cis(theta);
            assert!((c.abs() - 1.0).abs() < 1e-6);
            assert!(close(c, Complex::new(theta.cos(), theta.sin())));
        }
    }

    #[test]
    fn mul_add_accumulates() {
        let acc = Complex::new(1.0, 1.0);
        let out = acc.mul_add(Complex::new(2.0, 0.0), Complex::new(0.0, 3.0));
        assert!(close(out, Complex::new(1.0, 7.0)));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f32, 1.0)).sum();
        assert!(close(total, Complex::new(6.0, 4.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
