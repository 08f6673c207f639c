//! The lithography forward model and its adjoint (ILT) gradient.

use crate::optics::OpticalConfig;
use crate::socs::SocsKernels;
use crate::{Field, LithoError};
use ganopc_fft::spectrum::{self, KernelSpectrum};
use ganopc_fft::{Arena, Complex, RealFft2d};
use ganopc_nn::pool;
use ganopc_obs as obs;

/// Real and imaginary component fields `(p_k, q_k)` of one kernel
/// convolution; `None` where the kernel component was dropped as
/// numerically zero.
type KernelFields = (Option<Vec<f32>>, Option<Vec<f32>>);

thread_local! {
    /// Per-thread slot list for per-kernel convolved fields. The slots are
    /// reused across every aerial/gradient evaluation on this thread (the
    /// field buffers themselves come from the model's arena), so the hot
    /// paths materialize no per-call job or result vectors. Thread-local
    /// because pre-training runs whole gradient evaluations concurrently on
    /// pool workers, each needing its own slot list.
    static FIELD_SLOTS: std::cell::RefCell<Vec<KernelFields>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's kernel-field slot list sized to `n` empty
/// slots.
fn with_field_slots<R>(n: usize, f: impl FnOnce(&mut Vec<KernelFields>) -> R) -> R {
    FIELD_SLOTS.with(|cell| {
        let mut slots = cell.borrow_mut();
        slots.clear();
        if slots.capacity() < n {
            // ALLOC: one-time growth of the persistent per-thread slot list
            // (one entry per SOCS kernel, ~24).
            slots.reserve(n);
        }
        slots.resize_with(n, || (None, None));
        f(&mut slots)
    })
}

/// The scratch argument [`RealFft2d::forward`] and [`RealFft2d::inverse`]
/// take and never read: an empty `Vec`, which they never grow.
// lint: hot-path
fn unused_scratch() -> Vec<Complex> {
    // ALLOC: `Vec::new` does not allocate, and the transforms never grow it.
    Vec::new()
}

/// A planned lithography simulator for one frame size.
///
/// Holds the SOCS kernel stack embedded as frame-sized packed half-spectra,
/// the real-FFT plan, a scratch-buffer [`Arena`] shared by the worker pool,
/// the calibrated resist threshold `I_th` and the sigmoid steepness `α` of
/// Eq. (12). After a warm-up call on each entry point, aerial-image and
/// gradient evaluations perform zero heap allocation for scratch (see
/// [`LithoModel::scratch_allocations`]).
///
/// ```
/// use ganopc_litho::{Field, LithoModel};
/// # fn main() -> Result<(), ganopc_litho::LithoError> {
/// let model = LithoModel::iccad2013_like(64)?;
/// let wafer = model.print_nominal(&Field::zeros(64, 64));
/// assert_eq!(wafer.sum(), 0.0); // dark mask prints nothing
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LithoModel {
    cfg: OpticalConfig,
    height: usize,
    width: usize,
    rfft: RealFft2d,
    /// `(w_k, half-spectra of h_k)` pairs.
    spectra: Vec<(f32, KernelSpectrum)>,
    /// Freelist of frame-sized scratch buffers shared by all pool workers.
    arena: Arena,
    threshold: f32,
    sigmoid_alpha: f32,
    dose_delta: f32,
}

impl LithoModel {
    /// Steepness `α` of the relaxed resist model (Eq. (12)). The paper does
    /// not publish its value; 50 on a unit-normalized intensity scale gives
    /// a resist transition ≈ 4 % of the open-field intensity wide.
    pub const DEFAULT_SIGMOID_ALPHA: f32 = 50.0;
    /// Dose excursion for the process-variability band (paper: ±2 %).
    pub const DEFAULT_DOSE_DELTA: f32 = 0.02;

    /// Builds a model on a square `size × size` frame emulating the
    /// ICCAD-2013 setup: the frame represents a 2048 nm clip, so the pixel
    /// pitch is `2048 / size` nm.
    ///
    /// # Errors
    ///
    /// Propagates [`LithoModel::new`] errors.
    pub fn iccad2013_like(size: usize) -> Result<Self, LithoError> {
        let pixel_nm = 2048.0 / size as f64;
        let cfg = OpticalConfig::default_32nm(pixel_nm);
        LithoModel::new(cfg, size, size)
    }

    /// Cached variant of [`LithoModel::iccad2013_like`] (see
    /// [`LithoModel::new_cached`]).
    ///
    /// # Errors
    ///
    /// Propagates [`LithoModel::new`] errors.
    pub fn iccad2013_like_cached(size: usize) -> Result<Self, LithoError> {
        let pixel_nm = 2048.0 / size as f64;
        let cfg = OpticalConfig::default_32nm(pixel_nm);
        LithoModel::new_cached(cfg, size, size)
    }

    /// Like [`LithoModel::new`] but loads the SOCS kernel stack through the
    /// on-disk cache ([`crate::cache`]), skipping the TCC eigendecomposition
    /// when this configuration has been derived before.
    ///
    /// # Errors
    ///
    /// Same as [`LithoModel::new`].
    pub fn new_cached(cfg: OpticalConfig, height: usize, width: usize) -> Result<Self, LithoError> {
        Self::build(cfg, height, width, true)
    }

    /// Builds a model for an arbitrary configuration and frame.
    ///
    /// Kernel supports larger than the frame are clamped (kept odd). The
    /// resist threshold is calibrated so that an isolated 80 nm line prints
    /// at its drawn width (see `calibrate_threshold`).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidFrame`] for non-power-of-two frames and
    /// [`LithoError::Calibration`] when threshold calibration cannot bracket
    /// the line edge (degenerate configurations).
    pub fn new(cfg: OpticalConfig, height: usize, width: usize) -> Result<Self, LithoError> {
        Self::build(cfg, height, width, false)
    }

    fn build(
        mut cfg: OpticalConfig,
        height: usize,
        width: usize,
        cached: bool,
    ) -> Result<Self, LithoError> {
        cfg.validate().map_err(LithoError::InvalidFrame)?;
        if !ganopc_fft::is_power_of_two(height) || !ganopc_fft::is_power_of_two(width) {
            return Err(LithoError::InvalidFrame(format!(
                "frame {height}x{width} must have power-of-two sides"
            )));
        }
        let max_k = height.min(width) - 1;
        if cfg.kernel_size > max_k {
            cfg.kernel_size = if max_k.is_multiple_of(2) { max_k - 1 } else { max_k };
        }
        if cfg.kernel_size < 3 {
            return Err(LithoError::InvalidFrame(format!(
                "frame {height}x{width} too small for any kernel support"
            )));
        }
        let stack = if cached {
            crate::cache::load_or_derive(&cfg, &crate::cache::default_cache_dir())
        } else {
            SocsKernels::from_config(&cfg)
        };
        let rfft = RealFft2d::new(height, width)?;
        let spectra = stack
            .kernels()
            .iter()
            .map(|k| {
                KernelSpectrum::new(&k.taps, stack.kernel_size(), height, width)
                    .map(|s| (k.weight, s))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut model = LithoModel {
            cfg,
            height,
            width,
            rfft,
            spectra,
            arena: Arena::new(),
            threshold: 0.3,
            sigmoid_alpha: Self::DEFAULT_SIGMOID_ALPHA,
            dose_delta: Self::DEFAULT_DOSE_DELTA,
        };
        model.threshold = model.calibrate_threshold()?;
        Ok(model)
    }

    /// Chooses `I_th` as the aerial intensity at the drawn edge of an
    /// isolated 80 nm (minimum-CD) vertical line, so minimum features print
    /// on size. Mirrors how constant-threshold resist models are calibrated
    /// against a reference structure.
    fn calibrate_threshold(&self) -> Result<f32, LithoError> {
        let cd_px = (80.0 / self.cfg.pixel_nm).max(1.0);
        let cx = self.width as f64 / 2.0;
        let (x0, x1) = (cx - cd_px / 2.0, cx + cd_px / 2.0);
        let mut mask = Field::zeros(self.height, self.width);
        for y in 0..self.height {
            for x in 0..self.width {
                // Area-weighted coverage of the line over this pixel column.
                let lo = (x as f64).max(x0);
                let hi = ((x + 1) as f64).min(x1);
                let cov = (hi - lo).max(0.0);
                if cov > 0.0 {
                    mask.set(y, x, cov as f32);
                }
            }
        }
        let aerial = self.aerial_image(&mask);
        // Intensity profile along the middle row; sample at the drawn edge.
        let row = self.height / 2;
        let edge = x1 - 0.5; // pixel-center coordinate of the right edge
        let xe0 = edge.floor() as usize;
        let xe1 = (xe0 + 1).min(self.width - 1);
        let t = (edge - xe0 as f64) as f32;
        let i_edge = aerial.get(row, xe0) * (1.0 - t) + aerial.get(row, xe1) * t;
        let peak = aerial.get(row, self.width / 2);
        if !(i_edge.is_finite() && i_edge > 0.0 && i_edge < peak) {
            return Err(LithoError::Calibration(format!(
                "edge intensity {i_edge} outside (0, peak={peak})"
            )));
        }
        Ok(i_edge)
    }

    /// Frame `(height, width)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// The optical configuration the model was built with.
    #[inline]
    pub fn config(&self) -> &OpticalConfig {
        &self.cfg
    }

    /// The calibrated resist threshold `I_th`.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The resist-sigmoid steepness `α` (Eq. (12)).
    #[inline]
    pub fn sigmoid_alpha(&self) -> f32 {
        self.sigmoid_alpha
    }

    /// Overrides the resist-sigmoid steepness.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0`.
    pub fn set_sigmoid_alpha(&mut self, alpha: f32) {
        assert!(alpha > 0.0, "sigmoid steepness must be positive");
        self.sigmoid_alpha = alpha;
    }

    /// The PVB dose excursion (fraction, default 0.02).
    #[inline]
    pub fn dose_delta(&self) -> f32 {
        self.dose_delta
    }

    /// Simulation pixel pitch, nm.
    #[inline]
    pub fn pixel_nm(&self) -> f64 {
        self.cfg.pixel_nm
    }

    /// Number of SOCS kernels in use.
    #[inline]
    pub fn num_kernels(&self) -> usize {
        self.spectra.len()
    }

    fn check_shape(&self, field: &Field) -> Result<(), LithoError> {
        if field.shape() != (self.height, self.width) {
            return Err(LithoError::ShapeMismatch {
                expected: (self.height, self.width),
                actual: field.shape(),
            });
        }
        Ok(())
    }

    /// Forward real FFT of a frame-sized `real` field into the packed
    /// half-spectrum `half`.
    // lint: hot-path
    fn rfft_forward(&self, real: &[f32], half: &mut [Complex]) {
        // PANIC: every caller sizes its buffers from this plan.
        self.rfft.forward(real, half, &mut unused_scratch()).expect("planned size");
    }

    /// Inverse real FFT of the packed half-spectrum `half` (destroyed) into
    /// the frame-sized `real` field.
    // lint: hot-path
    fn rfft_inverse(&self, half: &mut [Complex], real: &mut [f32]) {
        // PANIC: every caller sizes its buffers from this plan.
        self.rfft.inverse(half, real, &mut unused_scratch()).expect("planned size");
    }

    /// Packed half-spectrum of a real mask, reused across kernels. The
    /// returned buffer belongs to the arena; callers put it back when done.
    // lint: hot-path
    fn mask_half(&self, mask: &Field) -> Vec<Complex> {
        let mut out = self.arena.take_complex(self.rfft.spectrum_len());
        self.rfft_forward(mask.as_slice(), &mut out);
        out
    }

    /// One real component of a kernel convolution: `c2r(mask_half ⊙ comp)`.
    /// All working storage comes from (and returns to) the arena except the
    /// returned field, which the caller releases.
    // lint: hot-path
    fn component_field(&self, mask_half: &[Complex], comp: &[Complex]) -> Vec<f32> {
        let mut prod = self.arena.take_complex(self.rfft.spectrum_len());
        spectrum::mul_into(&mut prod, mask_half, comp);
        let mut out = self.arena.take_real(self.height * self.width);
        self.rfft_inverse(&mut prod, &mut out);
        self.arena.put_complex(prod);
        out
    }

    /// Per-kernel convolved fields `A_k = M ⊗ h_k` from a precomputed mask
    /// half-spectrum, split into real and imaginary parts `(p_k, q_k)` —
    /// `None` where the kernel component vanishes. Kernel indices fan out
    /// over the shared worker pool (capped by `GANOPC_THREADS`) through the
    /// allocation-free [`pool::run_chunks`] path; slot `k` of `fields`
    /// receives kernel `k`'s components, so downstream reductions walk the
    /// slots in kernel order regardless of the worker count.
    // lint: hot-path
    fn convolved_fields_into(&self, mask_half: &[Complex], fields: &mut [KernelFields]) {
        debug_assert_eq!(fields.len(), self.spectra.len());
        let slots = pool::DisjointMut::new(fields);
        pool::run_chunks(self.spectra.len(), |kernels| {
            for ki in kernels {
                let ks = &self.spectra[ki].1;
                let p = ks.re_spectrum().map(|r| self.component_field(mask_half, r));
                let q = ks.im_spectrum().map(|i| self.component_field(mask_half, i));
                // SAFETY: run_chunks kernel ranges partition the slot list,
                // so slot ki is written by exactly this chunk.
                *unsafe { slots.index_mut(ki) } = (p, q);
            }
        });
    }

    /// Accumulates `Σ_k w_k (p_k² + q_k²)` into `intensity`, serially in
    /// kernel order so the result does not depend on the worker count.
    // lint: hot-path
    fn accumulate_intensity(&self, fields: &[KernelFields], intensity: &mut [f32]) {
        for ((w, _), (p, q)) in self.spectra.iter().zip(fields) {
            for comp in [p, q].into_iter().flatten() {
                for (acc, &v) in intensity.iter_mut().zip(comp.iter()) {
                    *acc += w * v * v;
                }
            }
        }
    }

    /// Returns convolved-field buffers to the arena, emptying the slots.
    fn release_fields(&self, fields: &mut [KernelFields]) {
        for (p, q) in fields {
            for comp in [p.take(), q.take()].into_iter().flatten() {
                self.arena.put_real(comp);
            }
        }
    }

    /// Number of scratch-arena freelist misses since the model was built.
    /// Constant across repeated hot-path calls once the arena is warm — the
    /// zero-allocation regression tests assert on this.
    pub fn scratch_allocations(&self) -> usize {
        self.arena.fresh_allocations()
    }

    /// Reserves the worst-case concurrent scratch footprint in the arena.
    ///
    /// How many pool chunks run *simultaneously* (and therefore how many
    /// transient FFT buffers are outstanding at once) depends on scheduling,
    /// so warm-up calls alone cannot guarantee the freelist ever reaches its
    /// high-water mark. Reserving the bound up front makes "warm arena
    /// never misses" deterministic. Steady-state calls find the freelist
    /// already full, so this is two short lock/scan sections per evaluation.
    // lint: hot-path
    fn prime_arena(&self) {
        let kernels = self.spectra.len();
        let lanes = if pool::in_worker() { 1 } else { pool::max_threads().min(kernels.max(1)) };
        // Complex peak: the gradient stage holds 2 spectra per active chunk
        // (w_spec/tmp); the convolve stage holds the mask spectrum plus
        // `prod` per chunk — 2·lanes covers both for lanes ≥ 1.
        self.arena.reserve_complex(2 * lanes, self.rfft.spectrum_len());
        // Real peak: 2 component fields per kernel + intensity/g + one
        // per-chunk product buffer.
        self.arena.reserve_real(2 * kernels + 2 + lanes, self.height * self.width);
    }

    /// Aerial image `I = Σ_k w_k |M ⊗ h_k|²` at nominal dose (Eq. (2)).
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not match the model frame (use
    /// [`LithoModel::aerial_image_into`] for a fallible variant).
    pub fn aerial_image(&self, mask: &Field) -> Field {
        // The intensity buffer is the returned Field's storage — the only
        // allocation on this path.
        let mut intensity = vec![0.0f32; self.height * self.width];
        // PANIC: documented above — the fallible variant is aerial_image_into.
        self.aerial_image_into(mask, &mut intensity).expect("mask shape mismatch");
        Field::from_vec(self.height, self.width, intensity)
    }

    /// Writes the aerial image into a caller-owned buffer (overwritten, not
    /// accumulated). With a warm arena this performs zero heap allocation —
    /// the entry point for PVB-metric callers that re-evaluate intensity per
    /// process corner and for [`LithoModel::process_window`].
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when `mask` has the wrong shape
    /// and [`LithoError::Fft`] when `intensity` has the wrong length.
    // lint: hot-path
    pub fn aerial_image_into(&self, mask: &Field, intensity: &mut [f32]) -> Result<(), LithoError> {
        let _sp = obs::span(obs::Span::LithoAerial);
        obs::counter_add(obs::Counter::LithoAerialCalls, 1);
        self.check_shape(mask)?;
        let n = self.height * self.width;
        if intensity.len() != n {
            return Err(LithoError::Fft(ganopc_fft::FftError::SizeMismatch {
                expected: n,
                actual: intensity.len(),
            }));
        }
        self.prime_arena();
        let mask_half = self.mask_half(mask);
        with_field_slots(self.spectra.len(), |fields| {
            self.convolved_fields_into(&mask_half, fields);
            self.arena.put_complex(mask_half);
            intensity.fill(0.0);
            self.accumulate_intensity(fields, intensity);
            self.release_fields(fields);
        });
        Ok(())
    }

    /// Binary wafer image at a given dose: `Z = [dose · I ≥ I_th]`
    /// (Eq. (3)).
    pub fn print(&self, mask: &Field, dose: f32) -> Field {
        let aerial = self.aerial_image(mask);
        aerial.map(|i| if dose * i >= self.threshold { 1.0 } else { 0.0 })
    }

    /// Binary wafer image at nominal dose.
    pub fn print_nominal(&self, mask: &Field) -> Field {
        self.print(mask, 1.0)
    }

    /// Prints at `1−δ`, `1`, `1+δ` dose — inputs to the PVB metric. One
    /// aerial simulation and a single fused sweep writing all three dose
    /// prints per element; the intensity lives in the arena, so the only
    /// allocations are the three returned fields' storage.
    pub fn process_window(&self, mask: &Field) -> [Field; 3] {
        let n = self.height * self.width;
        let mut aerial = self.arena.take_real(n);
        // PANIC: documented panic contract shared with aerial_image; the
        // buffer was sized to the frame two lines above.
        self.aerial_image_into(mask, &mut aerial).expect("mask shape mismatch");
        let th = self.threshold;
        let (lo, hi) = (1.0 - self.dose_delta, 1.0 + self.dose_delta);
        // ALLOC: the three print buffers are the returned fields' storage.
        let mut inner = vec![0.0f32; n];
        let mut nominal = vec![0.0f32; n];
        let mut outer = vec![0.0f32; n];
        for (((&i, pi), pn), po) in
            aerial.iter().zip(inner.iter_mut()).zip(nominal.iter_mut()).zip(outer.iter_mut())
        {
            *pi = if lo * i >= th { 1.0 } else { 0.0 };
            *pn = if i >= th { 1.0 } else { 0.0 };
            *po = if hi * i >= th { 1.0 } else { 0.0 };
        }
        self.arena.put_real(aerial);
        [
            Field::from_vec(self.height, self.width, inner),
            Field::from_vec(self.height, self.width, nominal),
            Field::from_vec(self.height, self.width, outer),
        ]
    }

    /// Relaxed wafer image `Z = σ(α(I − I_th))` of Eq. (12) from an aerial
    /// image.
    pub fn relax(&self, aerial: &Field) -> Field {
        let a = self.sigmoid_alpha;
        let th = self.threshold;
        aerial.map(|i| 1.0 / (1.0 + (-a * (i - th)).exp()))
    }

    /// Lithography error and gradient (Eq. (11) + Eq. (14) without the mask
    /// sigmoid chain) at `dose`: given a relaxed mask `M_b ∈ [0,1]` and a
    /// binary target, writes `∂E/∂M_b` into `grad` (overwritten, not
    /// accumulated) and returns the error `E = ‖Z − Z_t‖²` on the relaxed
    /// wafer `Z = σ(α(dose·I − I_th))` of Eq. (12). The gradient includes the
    /// resist-sigmoid chain factor `2α·dose·Z(1−Z)` but **not** the
    /// mask-sigmoid factor `β·M_b(1−M_b)`, which the caller that owns the
    /// mask parametrization applies. Doses other than 1 serve
    /// process-window-aware ILT, which averages corners — the strategy of
    /// MOSAIC [7 in the paper].
    ///
    /// With a warm arena this performs zero heap allocation — the entry
    /// point for the ILT iteration loop and the per-sample pre-training
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when `mask`/`target` disagree
    /// with the frame and [`LithoError::Fft`] when `grad` has the wrong
    /// length.
    ///
    /// # Panics
    ///
    /// Panics unless `dose > 0`.
    // lint: hot-path
    pub fn gradient_into(
        &self,
        mask: &Field,
        target: &Field,
        dose: f32,
        grad: &mut [f32],
    ) -> Result<f64, LithoError> {
        let n = self.height * self.width;
        if grad.len() != n {
            return Err(LithoError::Fft(ganopc_fft::FftError::SizeMismatch {
                expected: n,
                actual: grad.len(),
            }));
        }
        let _sp = obs::span(obs::Span::LithoGradient);
        obs::counter_add(obs::Counter::LithoGradientCalls, 1);
        self.check_shape(mask)?;
        self.check_shape(target)?;
        assert!(dose > 0.0, "dose must be positive");
        let slen = self.rfft.spectrum_len();

        self.prime_arena();
        let mask_half = self.mask_half(mask);
        with_field_slots(self.spectra.len(), |fields| {
            self.convolved_fields_into(&mask_half, fields);
            self.arena.put_complex(mask_half);

            // Aerial image, then the error and the chain factor
            // g = 2α·dose (Z − Z_t) ⊙ Z ⊙ (1 − Z) of the relaxed wafer
            // `Z = σ(α(dose·I − I_th))`.
            let mut intensity = self.arena.take_real(n);
            self.accumulate_intensity(fields, &mut intensity);
            let mut g = self.arena.take_real(n);
            let alpha = self.sigmoid_alpha;
            let th = self.threshold;
            let chain = 2.0 * alpha * dose;
            let mut error = 0.0f64;
            for ((gi, &ii), &ti) in g.iter_mut().zip(intensity.iter()).zip(target.as_slice()) {
                let zv = 1.0 / (1.0 + (-alpha * (dose * ii - th)).exp());
                let d = zv - ti;
                error += (d as f64) * (d as f64);
                *gi = chain * d * zv * (1.0 - zv);
            }

            // grad = Σ_k w_k · 2 Re[ IFFT( FFT(g ⊙ A_k) ⊙ conj(H_k) ) ]. With
            // A_k = p + i·q and H_k = R + i·I (half-spectra of the kernel's real
            // components), the real part collapses to a single Hermitian inverse:
            // grad_k = 2 w_k · c2r( P ⊙ conj(R) + Q ⊙ conj(I) ), P = r2c(g⊙p),
            // Q = r2c(g⊙q) — one c2r per kernel instead of a full complex
            // round-trip. Kernel indices fan out over the pool through the
            // allocation-free run_chunks path; each job consumes its slot's
            // convolved fields and leaves the kernel's gradient contribution in
            // the slot, reduced below in kernel order so the gradient bits do
            // not depend on how many workers ran.
            let g_ref = &g;
            let slots = pool::DisjointMut::new(&mut fields[..]);
            pool::run_chunks(self.spectra.len(), |kernels| {
                for ki in kernels {
                    // SAFETY: run_chunks kernel ranges partition the slot list,
                    // so slot ki is owned by exactly this chunk.
                    let slot = unsafe { slots.index_mut(ki) };
                    let (p, q) = (slot.0.take(), slot.1.take());
                    let ks = &self.spectra[ki].1;
                    let mut w_spec = self.arena.take_complex(slen);
                    let mut tmp = self.arena.take_complex(slen);
                    let mut u = self.arena.take_real(n);
                    let mut wrote = false;
                    for (comp, half) in [(&p, ks.re_spectrum()), (&q, ks.im_spectrum())] {
                        let (Some(field), Some(half)) = (comp, half) else { continue };
                        for ((ui, &fi), &gi) in u.iter_mut().zip(field.iter()).zip(g_ref.iter()) {
                            *ui = gi * fi;
                        }
                        self.rfft_forward(&u, &mut tmp);
                        if wrote {
                            spectrum::mul_conj_add_into(&mut w_spec, &tmp, half);
                        } else {
                            spectrum::mul_conj_into(&mut w_spec, &tmp, half);
                            wrote = true;
                        }
                    }
                    for comp in [p, q].into_iter().flatten() {
                        self.arena.put_real(comp);
                    }
                    self.arena.put_complex(tmp);
                    slot.0 = if wrote {
                        let mut gk = u; // reuse as the real output buffer
                        self.rfft_inverse(&mut w_spec, &mut gk);
                        Some(gk)
                    } else {
                        self.arena.put_real(u);
                        None
                    };
                    self.arena.put_complex(w_spec);
                }
            });
            grad.fill(0.0);
            for ((w, _), slot) in self.spectra.iter().zip(fields.iter_mut()) {
                let Some(gk) = slot.0.take() else { continue };
                let s = 2.0 * w;
                for (go, &c) in grad.iter_mut().zip(gk.iter()) {
                    *go += s * c;
                }
                self.arena.put_real(gk);
            }
            self.arena.put_real(g);
            self.arena.put_real(intensity);
            Ok(error)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> LithoModel {
        let mut cfg = OpticalConfig::default_32nm(16.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 8;
        LithoModel::new(cfg, 64, 64).unwrap()
    }

    fn line_mask(h: usize, w: usize, x0: usize, x1: usize, y0: usize, y1: usize) -> Field {
        let mut m = Field::zeros(h, w);
        for y in y0..y1 {
            for x in x0..x1 {
                m.set(y, x, 1.0);
            }
        }
        m
    }

    #[test]
    fn rejects_non_power_of_two_frame() {
        let cfg = OpticalConfig::default_32nm(16.0);
        assert!(matches!(LithoModel::new(cfg, 96, 96), Err(LithoError::InvalidFrame(_))));
    }

    #[test]
    fn dark_mask_prints_nothing_open_mask_prints_everything() {
        let model = small_model();
        let dark = model.print_nominal(&Field::zeros(64, 64));
        assert_eq!(dark.sum(), 0.0);
        let open = model.print_nominal(&Field::filled(64, 64, 1.0));
        assert_eq!(open.sum(), (64 * 64) as f32);
    }

    #[test]
    fn minimum_line_prints_near_drawn_width() {
        // 80 nm at 16 nm/px = 5 px; the calibrated threshold should print it
        // within ±1 px of drawn CD at mid-height.
        let model = small_model();
        let mask = line_mask(64, 64, 30, 35, 8, 56);
        let wafer = model.print_nominal(&mask);
        let row: usize = 32;
        let printed: f32 = (0..64).map(|x| wafer.get(row, x)).sum();
        assert!((4.0..=7.0).contains(&printed), "printed CD {printed} px, expected ~5");
    }

    #[test]
    fn corners_round_line_ends_pull_back() {
        // Proximity effect: the printed wire should be shorter than drawn.
        let model = small_model();
        let mask = line_mask(64, 64, 30, 35, 16, 48);
        let wafer = model.print_nominal(&mask);
        let col = 32;
        let printed_len: f32 = (0..64).map(|y| wafer.get(y, col)).sum();
        assert!(printed_len > 0.0, "line vanished entirely");
        assert!(printed_len < 32.0, "no line-end pullback: {printed_len} px");
    }

    #[test]
    fn higher_dose_prints_larger() {
        let model = small_model();
        let mask = line_mask(64, 64, 28, 36, 8, 56);
        let [inner, nominal, outer] = model.process_window(&mask);
        assert!(inner.sum() <= nominal.sum());
        assert!(nominal.sum() <= outer.sum());
        assert!(outer.sum() > inner.sum(), "dose sensitivity collapsed");
    }

    #[test]
    fn relax_approaches_binary_for_steep_sigmoid() {
        let mut model = small_model();
        let mask = line_mask(64, 64, 28, 36, 8, 56);
        let aerial = model.aerial_image(&mask);
        model.set_sigmoid_alpha(500.0);
        let z = model.relax(&aerial);
        let binary = model.print_nominal(&mask);
        let mismatch: f32 =
            z.as_slice().iter().zip(binary.as_slice()).map(|(&a, &b)| (a - b).abs()).sum();
        // Soft and hard wafers agree except in the thin transition band.
        assert!(mismatch < 64.0, "relaxation too soft: {mismatch}");
    }

    /// Error and gradient through the production entry point at nominal
    /// dose.
    fn grad_and_error(model: &LithoModel, mask: &Field, target: &Field) -> (Vec<f32>, f64) {
        let mut grad = vec![0.0f32; mask.len()];
        let error = model.gradient_into(mask, target, 1.0, &mut grad).unwrap();
        (grad, error)
    }

    /// A soft blob, away from binarization plateaus.
    fn soft_blob() -> Field {
        let mut m = Field::zeros(64, 64);
        for y in 24..40 {
            for x in 24..40 {
                m.set(y, x, 0.6);
            }
        }
        m
    }

    #[test]
    fn aerial_shape_mismatch_is_error() {
        let model = small_model();
        let bad = Field::zeros(32, 32);
        let mut intensity = vec![0.0f32; 32 * 32];
        assert!(matches!(
            model.aerial_image_into(&bad, &mut intensity),
            Err(LithoError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let (grad, _) = grad_and_error(&model, &mask, &target);

        // Directional finite difference: aggregate over the whole field so
        // f32 forward-model rounding averages out. Direction = deterministic
        // pseudo-random unit vector.
        let mut dir = vec![0.0f32; 64 * 64];
        let mut state = 0xdead_beef_u64;
        for d in dir.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *d = ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
        let norm = dir.iter().map(|d| d * d).sum::<f32>().sqrt();
        for d in dir.iter_mut() {
            *d /= norm;
        }
        let eps = 1e-2f32;
        let shifted = |sign: f32| {
            Field::from_vec(
                64,
                64,
                mask.as_slice().iter().zip(&dir).map(|(&m, &d)| m + sign * eps * d).collect(),
            )
        };
        let ep = grad_and_error(&model, &shifted(1.0), &target).1;
        let em = grad_and_error(&model, &shifted(-1.0), &target).1;
        let fd = (ep - em) / (2.0 * eps as f64);
        let analytic: f64 = grad.iter().zip(&dir).map(|(&g, &d)| g as f64 * d as f64).sum();
        let denom = fd.abs().max(analytic.abs()).max(1e-6);
        assert!(
            (fd - analytic).abs() / denom < 0.02,
            "directional derivative: fd {fd} vs analytic {analytic}"
        );
    }

    #[test]
    fn gradient_pointwise_matches_on_strong_pixels() {
        // Per-pixel check restricted to pixels where the gradient is large
        // enough to rise above f32 forward-model noise.
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let (grad, error) = grad_and_error(&model, &mask, &target);
        // A pre-filled buffer is overwritten, not accumulated into.
        let mut garbage = vec![7.0f32; 64 * 64];
        assert_eq!(model.gradient_into(&mask, &target, 1.0, &mut garbage).unwrap(), error);
        assert_eq!(garbage, grad);

        let grad = Field::from_vec(64, 64, grad);
        let (py, px) = {
            let mut best = (0, 0);
            let mut mag = 0.0f32;
            for y in 0..64 {
                for x in 0..64 {
                    if grad.get(y, x).abs() > mag {
                        mag = grad.get(y, x).abs();
                        best = (y, x);
                    }
                }
            }
            best
        };
        let eps = 5e-3f32;
        let mut plus = mask.clone();
        plus.set(py, px, plus.get(py, px) + eps);
        let mut minus = mask.clone();
        minus.set(py, px, minus.get(py, px) - eps);
        let ep = grad_and_error(&model, &plus, &target).1;
        let em = grad_and_error(&model, &minus, &target).1;
        let fd = ((ep - em) / (2.0 * eps as f64)) as f32;
        let an = grad.get(py, px);
        assert!(
            (fd - an).abs() / an.abs().max(1e-6) < 0.05,
            "pixel ({py},{px}): fd {fd} vs analytic {an}"
        );
    }

    #[test]
    fn gradient_error_decreases_along_negative_gradient() {
        let model = small_model();
        let target = line_mask(64, 64, 28, 36, 16, 48);
        let mask = Field::filled(64, 64, 0.4);
        let (grad, e0) = grad_and_error(&model, &mask, &target);
        let step = 1e-2f32;
        let moved = Field::from_vec(
            64,
            64,
            mask.as_slice()
                .iter()
                .zip(&grad)
                .map(|(&m, &g)| (m - step * g).clamp(0.0, 1.0))
                .collect(),
        );
        let (_, e1) = grad_and_error(&model, &moved, &target);
        assert!(e1 < e0, "descent failed: {e0} -> {e1}");
    }

    #[test]
    fn threshold_is_sane() {
        let model = small_model();
        let th = model.threshold();
        assert!(th > 0.01 && th < 1.0, "threshold {th}");
    }

    #[test]
    fn kernel_count_respects_config() {
        let model = small_model();
        assert!(model.num_kernels() <= 8);
        assert!(model.num_kernels() >= 4);
    }

    #[test]
    fn gradient_into_rejects_bad_buffer() {
        let model = small_model();
        let mask = Field::zeros(64, 64);
        let mut short = vec![0.0f32; 16];
        assert!(matches!(
            model.gradient_into(&mask, &mask, 1.0, &mut short),
            Err(LithoError::Fft(_))
        ));
    }

    #[test]
    fn hot_paths_do_not_allocate_when_warm() {
        let model = small_model();
        let mask = line_mask(64, 64, 28, 36, 16, 48);
        let target = line_mask(64, 64, 30, 34, 18, 46);
        let mut grad = vec![0.0f32; 64 * 64];
        // Warm-up (small_model's threshold calibration already primed the
        // aerial path; the gradient path fills in the rest).
        let _ = model.aerial_image(&mask);
        model.gradient_into(&mask, &target, 1.0, &mut grad).unwrap();
        let warm = model.scratch_allocations();
        for _ in 0..5 {
            let _ = model.aerial_image(&mask);
            model.gradient_into(&mask, &target, 1.02, &mut grad).unwrap();
            model.gradient_into(&mask, &target, 0.98, &mut grad).unwrap();
        }
        assert_eq!(
            model.scratch_allocations(),
            warm,
            "steady-state hot paths must not miss the scratch arena"
        );
    }
}
