//! On-disk caching of derived SOCS kernel stacks.
//!
//! Deriving a kernel stack means assembling and eigendecomposing the TCC —
//! the dominant cost of [`crate::LithoModel`] construction (seconds at the
//! default pupil grid). The stack depends only on the [`OpticalConfig`] and
//! the derivation code, so it is cached to disk keyed by a hash of both;
//! experiment binaries that build many models of the same optics pay the
//! eigensolve once per process *and* once per machine, and a build whose
//! derivation differs never reads an older build's kernels.
//!
//! An entry is a v2 [`Checkpoint`] container, the workspace's one on-disk
//! format: the kind tag `meta/kind`, the key `config/key`, the weights
//! `socs/weights` (`[n]`) and the taps `socs/taps` (`[n, k, k, 2]`, real
//! then imaginary part) as tensors, closed by the container's CRC-32
//! trailer. The directory is shared, so an entry is outside input: it is
//! served only when its checksum holds and its key, shapes, kernel count
//! and values fit what the configuration derives, and is rederived
//! otherwise. Entries are read with `std::fs::read` and written with
//! `write_atomic`, not through `Checkpoint::load`/`save`, whose counters
//! and fault hooks belong to training state.

use crate::optics::OpticalConfig;
use crate::socs::{SocsKernel, SocsKernels};
use ganopc_fft::Complex;
use ganopc_nn::checkpoint::Checkpoint;
use ganopc_nn::Tensor;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// The `meta/kind` tag of a cache entry.
const KIND: &[u8] = b"gan-opc/socs-kernels";

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of the kernel derivation's source files, taken at compile time.
/// Any edit to them (the optics, the TCC, the eigensolver or the SOCS
/// decomposition) changes every [`config_key`].
const DERIVATION_KEY: u64 = {
    let h = fnv1a(FNV_OFFSET, include_bytes!("optics.rs"));
    let h = fnv1a(h, include_bytes!("tcc.rs"));
    let h = fnv1a(h, include_bytes!("jacobi.rs"));
    fnv1a(h, include_bytes!("socs.rs"))
};

/// Continues the FNV-1a hash `h` over `bytes` (stable across platforms and
/// runs, unlike `DefaultHasher`).
const fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        i += 1;
    }
    h
}

/// A stable, quantized fingerprint of an optical configuration and of the
/// code that derives its kernels.
///
/// Floats are quantized to 1e-9 so that configurations equal up to noise
/// share a cache entry. The key names the cache file and is checked against
/// the file's header, so an entry an older derivation wrote is never read.
pub fn config_key(cfg: &OpticalConfig) -> u64 {
    fields_key(DERIVATION_KEY, cfg)
}

/// Continues the hash `h` over the quantized optical fields.
fn fields_key(mut h: u64, cfg: &OpticalConfig) -> u64 {
    let q = |f: f64| (f * 1e9).round() as i64 as u64;
    for v in [
        q(cfg.wavelength_nm),
        q(cfg.numerical_aperture),
        q(cfg.sigma_inner),
        q(cfg.sigma_outer),
        q(cfg.pixel_nm),
        cfg.kernel_size as u64,
        cfg.num_kernels as u64,
        cfg.pupil_grid as u64,
        q(cfg.defocus_nm),
    ] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    h
}

/// Runtime cache-directory override installed by [`set_cache_dir`]
/// (`None` = unset, fall through to the environment/default directory).
static OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Directory from `GANOPC_CACHE_DIR` / `<system temp>`, resolved once:
/// `std::env::var_os` allocates an `OsString` and takes the process env
/// lock, and [`default_cache_dir`] sits on every model-construction
/// cache lookup (mirrors `pool::max_threads`).
static ENV_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Default cache directory: `$GANOPC_CACHE_DIR` or
/// `<system temp>/ganopc-kernel-cache`.
///
/// A [`set_cache_dir`] override wins; otherwise the environment variable
/// is read **once** per process and the resolved path is cached.
pub fn default_cache_dir() -> PathBuf {
    if let Ok(guard) = OVERRIDE.lock() {
        if let Some(dir) = guard.as_ref() {
            return dir.clone();
        }
    }
    ENV_DIR
        .get_or_init(|| {
            std::env::var_os("GANOPC_CACHE_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| std::env::temp_dir().join("ganopc-kernel-cache"))
        })
        .clone()
}

/// Overrides [`default_cache_dir`] for the whole process (`None` restores
/// the environment/default directory). This is how tests redirect the
/// cache at runtime, since the environment variable is only consulted
/// once (mirrors `pool::set_max_threads`).
pub fn set_cache_dir(dir: Option<PathBuf>) {
    if let Ok(mut guard) = OVERRIDE.lock() {
        *guard = dir;
    }
}

fn cache_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("socs-{key:016x}.bin"))
}

/// A cache entry holding `weights` and `taps` under `key`.
fn entry(key: u64, weights: Tensor, taps: Tensor) -> Vec<u8> {
    let mut ck = Checkpoint::new();
    ck.put_bytes("meta/kind", KIND.to_vec());
    ck.put_u64("config/key", key);
    ck.put_tensors("socs/weights", &[weights]);
    ck.put_tensors("socs/taps", &[taps]);
    ck.to_bytes()
}

/// The cache entry of `stack` under `key`.
fn encode(key: u64, stack: &SocsKernels) -> Vec<u8> {
    let (n, size) = (stack.len(), stack.kernel_size());
    let kernels = stack.kernels();
    let weights = Tensor::from_vec(&[n], kernels.iter().map(|k| k.weight).collect());
    let taps = kernels.iter().flat_map(|k| k.taps.iter().flat_map(|c| [c.re, c.im])).collect();
    entry(key, weights, Tensor::from_vec(&[n, size, size, 2], taps))
}

/// The stack a cache entry holds, if it is a well-formed entry under `key`
/// whose kernels `cfg` could have derived: 1 to `cfg.num_kernels` of them,
/// `cfg.kernel_size` taps square, every weight and tap finite. The kernel
/// size and pixel pitch come from `cfg`, never from the file.
fn decode(bytes: &[u8], key: u64, cfg: &OpticalConfig) -> Option<SocsKernels> {
    let ck = Checkpoint::from_bytes(bytes).ok()?;
    if ck.get_bytes("meta/kind").ok()? != KIND || ck.get_u64("config/key").ok()? != key {
        return None;
    }
    let ([weights], [taps]) =
        (ck.get_tensors("socs/weights").ok()?, ck.get_tensors("socs/taps").ok()?)
    else {
        return None;
    };
    let (n, size) = (weights.len(), cfg.kernel_size);
    let fits = (1..=cfg.num_kernels).contains(&n)
        && weights.shape() == [n]
        && taps.shape() == [n, size, size, 2]
        && weights.as_slice().iter().chain(taps.as_slice()).all(|v| v.is_finite());
    if !fits {
        return None;
    }
    let kernels = weights
        .as_slice()
        .iter()
        .zip(taps.as_slice().chunks_exact(2 * size * size))
        .map(|(&weight, taps)| SocsKernel {
            weight,
            taps: taps.chunks_exact(2).map(|t| Complex::new(t[0], t[1])).collect(),
        })
        .collect();
    Some(SocsKernels::from_parts(size, cfg.pixel_nm, kernels))
}

/// Loads the kernel stack for `cfg` from `dir`, deriving and storing it on
/// a miss. Corrupt, mismatched or foreign cache entries are silently
/// rederived (and overwritten); cache I/O failures fall back to derivation.
///
/// # Panics
///
/// Panics if `cfg` fails [`OpticalConfig::validate`], as
/// [`SocsKernels::from_config`] does.
pub fn load_or_derive(cfg: &OpticalConfig, dir: &Path) -> SocsKernels {
    let key = config_key(cfg);
    let path = cache_path(dir, key);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Some(stack) = decode(&bytes, key, cfg) {
            return stack;
        }
    }
    let stack = SocsKernels::from_config(cfg);
    if std::fs::create_dir_all(dir).is_ok() {
        // Atomic write: a crash mid-store must not leave a truncated blob
        // that every later process re-reads, rejects, and rewrites.
        let _ = ganopc_geometry::io::write_atomic(&path, &encode(key, &stack));
    }
    stack
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> OpticalConfig {
        let mut c = OpticalConfig::default_32nm(32.0);
        c.pupil_grid = 11;
        c.num_kernels = 6;
        c
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ganopc-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stacks_equal(a: &SocsKernels, b: &SocsKernels) -> bool {
        a.kernel_size() == b.kernel_size() && a.pixel_nm() == b.pixel_nm() && bits(a) == bits(b)
    }

    /// Every weight and tap of a stack as bits, kernel by kernel.
    fn bits(stack: &SocsKernels) -> Vec<u32> {
        let values = stack.kernels().iter().flat_map(|k| {
            std::iter::once(k.weight).chain(k.taps.iter().flat_map(|c| [c.re, c.im]))
        });
        values.map(f32::to_bits).collect()
    }

    #[test]
    fn cache_dir_override_wins_then_restores() {
        let dir = temp_dir("override");
        set_cache_dir(Some(dir.clone()));
        assert_eq!(default_cache_dir(), dir);
        set_cache_dir(None);
        // Back on the cached env/default resolution, which is stable for
        // the life of the process.
        let first = default_cache_dir();
        assert_ne!(first, dir);
        assert_eq!(first, default_cache_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_distinguish_configs() {
        let a = fast_cfg();
        let mut b = fast_cfg();
        b.defocus_nm = 40.0;
        let mut c = fast_cfg();
        c.num_kernels = 8;
        assert_ne!(config_key(&a), config_key(&b));
        assert_ne!(config_key(&a), config_key(&c));
        assert_eq!(config_key(&a), config_key(&fast_cfg()));
    }

    #[test]
    fn roundtrip_through_cache_file() {
        let dir = temp_dir("roundtrip");
        let cfg = fast_cfg();
        let derived = load_or_derive(&cfg, &dir);
        // Second call must hit the file and reproduce the stack exactly.
        assert!(cache_path(&dir, config_key(&cfg)).exists());
        let cached = load_or_derive(&cfg, &dir);
        assert!(stacks_equal(&derived, &cached));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_rederived() {
        let dir = temp_dir("corrupt");
        let cfg = fast_cfg();
        let derived = load_or_derive(&cfg, &dir);
        let path = cache_path(&dir, config_key(&cfg));
        std::fs::write(&path, b"garbage").unwrap();
        let recovered = load_or_derive(&cfg, &dir);
        assert!(stacks_equal(&derived, &recovered));
        // And the file was repaired.
        let cached = load_or_derive(&cfg, &dir);
        assert!(stacks_equal(&derived, &cached));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One flipped bit in a stored tap: the entry must not be served, and
    /// the reload must equal a fresh derivation bit for bit.
    #[test]
    fn a_flipped_tap_bit_is_rederived() {
        let dir = temp_dir("bitflip");
        let cfg = fast_cfg();
        let fresh = SocsKernels::from_config(&cfg);
        load_or_derive(&cfg, &dir);
        let path = cache_path(&dir, config_key(&cfg));
        let mut bytes = std::fs::read(&path).unwrap();
        // The leading kernel's center tap, stored as little-endian f32.
        let size = fresh.kernel_size();
        let center = fresh.kernels()[0].taps[size * size / 2];
        let tap = if center.re != 0.0 { center.re } else { center.im };
        assert_ne!(tap, 0.0);
        let at = bytes.windows(4).position(|w| w == tap.to_le_bytes()).expect("tap stored");
        bytes[at] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(stacks_equal(&load_or_derive(&cfg, &dir), &fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Well-formed entries under the right key whose contents `cfg` cannot
    /// have derived: each must be rederived, without a panic on the way.
    #[test]
    fn entries_that_do_not_fit_the_config_are_rederived() {
        let dir = temp_dir("misfit");
        let cfg = fast_cfg();
        let fresh = SocsKernels::from_config(&cfg);
        let (key, n, size) = (config_key(&cfg), fresh.len(), cfg.kernel_size);
        let weights = |n: usize| Tensor::filled(&[n], 0.1);
        let taps = |shape: &[usize]| Tensor::filled(shape, 0.01);
        let mut nan_taps = taps(&[n, size, size, 2]);
        nan_taps.as_mut_slice()[7] = f32::NAN;
        let misfits = [
            ("even kernel size", entry(key, weights(n), taps(&[n, size - 1, size - 1, 2]))),
            ("wider than the frame", entry(key, weights(n), taps(&[n, 99, 99, 2]))),
            ("too many kernels", {
                let m = cfg.num_kernels + 1;
                entry(key, weights(m), taps(&[m, size, size, 2]))
            }),
            ("weights and taps disagree", entry(key, weights(n + 1), taps(&[n, size, size, 2]))),
            ("flat taps", entry(key, weights(n), taps(&[n, size * size * 2]))),
            ("a NaN tap", entry(key, weights(n), nan_taps)),
        ];
        for (what, bytes) in misfits {
            std::fs::write(cache_path(&dir, key), bytes).unwrap();
            assert!(stacks_equal(&load_or_derive(&cfg, &dir), &fresh), "{what}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_from_another_derivation_are_not_served() {
        // An entry under the configuration-only key, in both its file name
        // and its header: what a build that did not hash its derivation
        // sources wrote and read. Its taps differ from this build's.
        let dir = temp_dir("stale");
        let cfg = fast_cfg();
        let fresh = SocsKernels::from_config(&cfg);
        let stale_key = fields_key(FNV_OFFSET, &cfg);
        assert_ne!(stale_key, config_key(&cfg));
        let halved = fresh
            .kernels()
            .iter()
            .map(|k| SocsKernel {
                weight: k.weight,
                taps: k.taps.iter().map(|c| Complex::new(c.re * 0.5, c.im)).collect(),
            })
            .collect();
        let stale = SocsKernels::from_parts(fresh.kernel_size(), fresh.pixel_nm(), halved);
        std::fs::write(cache_path(&dir, stale_key), encode(stale_key, &stale)).unwrap();
        let planted = decode(&std::fs::read(cache_path(&dir, stale_key)).unwrap(), stale_key, &cfg);
        assert!(!stacks_equal(&planted.expect("decodable"), &fresh));
        assert!(stacks_equal(&load_or_derive(&cfg, &dir), &fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_decode_is_exact() {
        let cfg = fast_cfg();
        let stack = SocsKernels::from_config(&cfg);
        let key = config_key(&cfg);
        let decoded = decode(&encode(key, &stack), key, &cfg).expect("decodable");
        assert!(stacks_equal(&decoded, &stack));
        // Under another key the same bytes are not this configuration's.
        assert!(decode(&encode(key, &stack), key ^ 1, &cfg).is_none());
    }

    #[test]
    fn truncated_blobs_rejected() {
        let cfg = fast_cfg();
        let stack = SocsKernels::from_config(&cfg);
        let key = config_key(&cfg);
        let bytes = encode(key, &stack);
        for cut in [4usize, 20, bytes.len() - 3] {
            assert!(decode(&bytes[..cut], key, &cfg).is_none(), "cut {cut} accepted");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded, key, &cfg).is_none());
    }
}
