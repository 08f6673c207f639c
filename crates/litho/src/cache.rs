//! On-disk caching of derived SOCS kernel stacks.
//!
//! Deriving a kernel stack means assembling and eigendecomposing the TCC —
//! the dominant cost of [`crate::LithoModel`] construction (seconds at the
//! default pupil grid). The stack depends only on the [`OpticalConfig`] and
//! the derivation code, so it is cached to disk keyed by a hash of both;
//! experiment binaries that build many models of the same optics pay the
//! eigensolve once per process *and* once per machine, and a build whose
//! derivation differs never reads an older build's kernels.

use crate::optics::OpticalConfig;
use crate::socs::{SocsKernel, SocsKernels};
use ganopc_fft::Complex;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Serializable image of a kernel stack.
#[derive(Debug, Clone)]
struct StackImage {
    /// Hash key of the generating configuration (collision check).
    config_key: u64,
    kernel_size: usize,
    pixel_nm: f64,
    /// Per kernel: weight + interleaved (re, im) taps.
    kernels: Vec<(f32, Vec<(f32, f32)>)>,
}

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

fn encode(image: &StackImage) -> Vec<u8> {
    // Simple length-prefixed binary layout (matches the checkpoint style):
    // key u64 | ksize u64 | pixel f64 | count u32 | per kernel:
    //   weight f32 | taps u32 | taps × (f32, f32).
    let mut out = Vec::new();
    out.extend_from_slice(b"GANOPCSK");
    out.extend_from_slice(&image.config_key.to_le_bytes());
    out.extend_from_slice(&(image.kernel_size as u64).to_le_bytes());
    out.extend_from_slice(&image.pixel_nm.to_le_bytes());
    out.extend_from_slice(&(image.kernels.len() as u32).to_le_bytes());
    for (w, taps) in &image.kernels {
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&(taps.len() as u32).to_le_bytes());
        for (re, im) in taps {
            out.extend_from_slice(&re.to_le_bytes());
            out.extend_from_slice(&im.to_le_bytes());
        }
    }
    out
}

fn decode(bytes: &[u8]) -> Option<StackImage> {
    let mut cur = 0usize;
    let take = |cur: &mut usize, n: usize| -> Option<&[u8]> {
        let end = cur.checked_add(n)?;
        if end > bytes.len() {
            return None;
        }
        let s = &bytes[*cur..end];
        *cur = end;
        Some(s)
    };
    if take(&mut cur, 8)? != b"GANOPCSK" {
        return None;
    }
    let config_key = u64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?);
    let kernel_size = u64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?) as usize;
    let pixel_nm = f64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?);
    let count = u32::from_le_bytes(take(&mut cur, 4)?.try_into().ok()?) as usize;
    if count == 0 || count > 1024 {
        return None;
    }
    let mut kernels = Vec::with_capacity(count);
    for _ in 0..count {
        let w = f32::from_le_bytes(take(&mut cur, 4)?.try_into().ok()?);
        let ntaps = u32::from_le_bytes(take(&mut cur, 4)?.try_into().ok()?) as usize;
        if ntaps != kernel_size * kernel_size {
            return None;
        }
        let raw = take(&mut cur, 8 * ntaps)?;
        let taps: Vec<(f32, f32)> = raw
            .chunks_exact(8)
            .map(|c| {
                (
                    // PANIC: chunks_exact(8) yields exactly 8 bytes per chunk.
                    f32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                    // PANIC: chunks_exact(8) yields exactly 8 bytes per chunk.
                    f32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
                )
            })
            .collect();
        kernels.push((w, taps));
    }
    if cur != bytes.len() {
        return None;
    }
    Some(StackImage { config_key, kernel_size, pixel_nm, kernels })
}

fn to_image(cfg: &OpticalConfig, stack: &SocsKernels) -> StackImage {
    StackImage {
        config_key: config_key(cfg),
        kernel_size: stack.kernel_size(),
        pixel_nm: stack.pixel_nm(),
        kernels: stack
            .kernels()
            .iter()
            .map(|k| (k.weight, k.taps.iter().map(|c| (c.re, c.im)).collect()))
            .collect(),
    }
}

fn from_image(image: StackImage) -> SocsKernels {
    let kernels = image
        .kernels
        .into_iter()
        .map(|(weight, taps)| SocsKernel {
            weight,
            taps: taps.into_iter().map(|(re, im)| Complex::new(re, im)).collect(),
        })
        .collect();
    SocsKernels::from_parts(image.kernel_size, image.pixel_nm, kernels)
}

/// Loads the kernel stack for `cfg` from `dir`, deriving and storing it on
/// a miss. Corrupt or mismatched cache entries are silently rederived
/// (and overwritten); cache I/O failures fall back to derivation.
pub fn load_or_derive(cfg: &OpticalConfig, dir: &Path) -> SocsKernels {
    let key = config_key(cfg);
    let path = cache_path(dir, key);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Some(image) = decode(&bytes) {
            if image.config_key == key {
                return from_image(image);
            }
        }
    }
    let stack = SocsKernels::from_config(cfg);
    if std::fs::create_dir_all(dir).is_ok() {
        // Atomic write: a crash mid-store must not leave a truncated blob
        // that every later process re-reads, rejects, and rewrites.
        let _ = ganopc_geometry::io::write_atomic(&path, &encode(&to_image(cfg, &stack)));
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
        a.kernel_size() == b.kernel_size()
            && a.len() == b.len()
            && a.kernels()
                .iter()
                .zip(b.kernels())
                .all(|(x, y)| x.weight == y.weight && x.taps == y.taps)
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

    #[test]
    fn entries_from_another_derivation_are_not_served() {
        // An entry under the configuration-only key, in both its file name
        // and its header: what a build that did not hash its derivation
        // sources wrote and read. Its taps differ from this build's.
        let dir = temp_dir("stale");
        let cfg = fast_cfg();
        let fresh = SocsKernels::from_config(&cfg);
        let mut stale = to_image(&cfg, &fresh);
        stale.config_key = fields_key(FNV_OFFSET, &cfg);
        assert_ne!(stale.config_key, config_key(&cfg));
        for (_, taps) in &mut stale.kernels {
            for (re, _) in taps.iter_mut() {
                *re *= 0.5;
            }
        }
        std::fs::write(cache_path(&dir, stale.config_key), encode(&stale)).unwrap();
        let planted = decode(&std::fs::read(cache_path(&dir, stale.config_key)).unwrap());
        assert!(!stacks_equal(&from_image(planted.expect("decodable")), &fresh));
        assert!(stacks_equal(&load_or_derive(&cfg, &dir), &fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_decode_is_exact() {
        let cfg = fast_cfg();
        let stack = SocsKernels::from_config(&cfg);
        let image = to_image(&cfg, &stack);
        let decoded = decode(&encode(&image)).expect("decodable");
        assert_eq!(decoded.config_key, image.config_key);
        assert_eq!(decoded.kernels.len(), image.kernels.len());
        assert_eq!(decoded.kernels, image.kernels);
    }

    #[test]
    fn truncated_blobs_rejected() {
        let cfg = fast_cfg();
        let stack = SocsKernels::from_config(&cfg);
        let bytes = encode(&to_image(&cfg, &stack));
        for cut in [4usize, 20, bytes.len() - 3] {
            assert!(decode(&bytes[..cut]).is_none(), "cut {cut} accepted");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded).is_none());
    }
}
