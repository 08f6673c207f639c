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
//! `socs/weights` (`[n]`) and the real taps `socs/taps` (`[n, k, k]`) as
//! tensors, closed by the container's CRC-32 trailer.
//!
//! Whoever can write the cache directory decides what every cached model
//! computes, so entries are read and written only in a directory private
//! to the running user: one they own and that neither group nor others can
//! write. A missing directory is created with mode 0700; in any other
//! directory the stack is derived and nothing there is touched. The
//! default directory is per user. Even a private entry is checked: it is
//! served only when its checksum holds and its key, shapes, kernel count
//! and values fit what the configuration derives, and is rederived
//! otherwise. Entries are read with `std::fs::read` and written with
//! `write_atomic`, not through `Checkpoint::load`/`save`, whose counters
//! and fault hooks belong to training state.

use crate::optics::OpticalConfig;
use crate::socs::{SocsKernel, SocsKernels};
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

/// Default cache directory: `$GANOPC_CACHE_DIR` or the per-user
/// `<system temp>/ganopc-kernel-cache-<uid>`.
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
            std::env::var_os("GANOPC_CACHE_DIR").map(PathBuf::from).unwrap_or_else(|| {
                let name = match current_uid() {
                    Some(uid) => format!("ganopc-kernel-cache-{uid}"),
                    None => "ganopc-kernel-cache".into(),
                };
                std::env::temp_dir().join(name)
            })
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

/// The running user's id: on Linux the owner of `/proc/self`. `None` where
/// that cannot be read, and then no directory counts as private.
#[cfg(unix)]
fn current_uid() -> Option<u32> {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata("/proc/self").ok().map(|meta| meta.uid())
}

/// Whether `dir` is a directory the running user owns and neither group
/// nor others can write: the only kind the cache reads or writes.
#[cfg(unix)]
fn is_private(dir: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(dir).is_ok_and(|meta| {
        meta.is_dir() && Some(meta.uid()) == current_uid() && meta.mode() & 0o022 == 0
    })
}

/// Creates `dir` and its missing parents with mode 0700, which no umask
/// can widen, and reports whether `dir` is then private. An existing `dir`
/// is left as it is.
#[cfg(unix)]
fn create_private(dir: &Path) -> bool {
    use std::os::unix::fs::DirBuilderExt;
    std::fs::DirBuilder::new().recursive(true).mode(0o700).create(dir).is_ok() && is_private(dir)
}

#[cfg(not(unix))]
fn current_uid() -> Option<u32> {
    None
}

#[cfg(not(unix))]
fn is_private(_dir: &Path) -> bool {
    false
}

#[cfg(not(unix))]
fn create_private(_dir: &Path) -> bool {
    false
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
    let taps = kernels.iter().flat_map(|k| k.taps.iter().copied()).collect();
    entry(key, weights, Tensor::from_vec(&[n, size, size], taps))
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
        && taps.shape() == [n, size, size]
        && weights.as_slice().iter().chain(taps.as_slice()).all(|v| v.is_finite());
    if !fits {
        return None;
    }
    let kernels = weights
        .as_slice()
        .iter()
        .zip(taps.as_slice().chunks_exact(size * size))
        .map(|(&weight, taps)| SocsKernel { weight, taps: taps.to_vec() })
        .collect();
    Some(SocsKernels::from_parts(size, cfg.pixel_nm, kernels))
}

/// Loads the kernel stack for `cfg` from `dir`, deriving and storing it on
/// a miss. Corrupt, mismatched or foreign cache entries are silently
/// rederived (and overwritten); cache I/O failures fall back to derivation.
/// A `dir` that is not private to the running user is neither read nor
/// written; a missing one is created private.
///
/// # Panics
///
/// Panics if `cfg` fails [`OpticalConfig::validate`], as
/// [`SocsKernels::from_config`] does.
pub fn load_or_derive(cfg: &OpticalConfig, dir: &Path) -> SocsKernels {
    let key = config_key(cfg);
    let path = cache_path(dir, key);
    let private = is_private(dir);
    if private {
        if let Some(stack) = std::fs::read(&path).ok().and_then(|b| decode(&b, key, cfg)) {
            return stack;
        }
    }
    let stack = SocsKernels::from_config(cfg);
    if private || create_private(dir) {
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

    /// A fresh, empty directory private to the running user.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ganopc-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(create_private(&dir));
        dir
    }

    fn stacks_equal(a: &SocsKernels, b: &SocsKernels) -> bool {
        a.kernel_size() == b.kernel_size() && a.pixel_nm() == b.pixel_nm() && bits(a) == bits(b)
    }

    /// Every weight and tap of a stack as bits, kernel by kernel.
    fn bits(stack: &SocsKernels) -> Vec<u32> {
        let values =
            stack.kernels().iter().flat_map(|k| std::iter::once(k.weight).chain(k.taps.clone()));
        values.map(f32::to_bits).collect()
    }

    /// `stack` with every tap halved: an entry that decodes cleanly but is
    /// not what the configuration derives.
    fn halved(stack: &SocsKernels) -> SocsKernels {
        let kernels = stack
            .kernels()
            .iter()
            .map(|k| SocsKernel {
                weight: k.weight,
                taps: k.taps.iter().map(|t| t * 0.5).collect(),
            })
            .collect();
        SocsKernels::from_parts(stack.kernel_size(), stack.pixel_nm(), kernels)
    }

    #[test]
    fn cache_dir_override_wins_then_restores() {
        let dir = temp_dir("override");
        set_cache_dir(Some(dir.clone()));
        assert_eq!(default_cache_dir(), dir);
        set_cache_dir(None);
        // Back on the cached env/default resolution, which is stable for
        // the life of the process and, by default, per user.
        let first = default_cache_dir();
        assert_ne!(first, dir);
        assert_eq!(first, default_cache_dir());
        if let (None, Some(uid)) = (std::env::var_os("GANOPC_CACHE_DIR"), current_uid()) {
            assert_eq!(first, std::env::temp_dir().join(format!("ganopc-kernel-cache-{uid}")));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_distinguish_configs() {
        let a = fast_cfg();
        let mut b = fast_cfg();
        b.sigma_inner = 0.5;
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
        let tap = fresh.kernels()[0].taps[size * size / 2];
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
        let mut nan_taps = taps(&[n, size, size]);
        nan_taps.as_mut_slice()[7] = f32::NAN;
        let misfits = [
            ("even kernel size", entry(key, weights(n), taps(&[n, size - 1, size - 1]))),
            ("wider than the frame", entry(key, weights(n), taps(&[n, 99, 99]))),
            ("too many kernels", {
                let m = cfg.num_kernels + 1;
                entry(key, weights(m), taps(&[m, size, size]))
            }),
            ("weights and taps disagree", entry(key, weights(n + 1), taps(&[n, size, size]))),
            ("flat taps", entry(key, weights(n), taps(&[n, size * size]))),
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
        let stale = halved(&fresh);
        std::fs::write(cache_path(&dir, stale_key), encode(stale_key, &stale)).unwrap();
        let planted = decode(&std::fs::read(cache_path(&dir, stale_key)).unwrap(), stale_key, &cfg);
        assert!(!stacks_equal(&planted.expect("decodable"), &fresh));
        assert!(stacks_equal(&load_or_derive(&cfg, &dir), &fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An entry in the layout that stored each tap as a complex pair
    /// (`[n, k, k, 2]`), under the current key and holding this stack's
    /// taps: it must be rederived, not served, and must not panic.
    #[test]
    fn complex_layout_entries_are_rederived() {
        let dir = temp_dir("complex-layout");
        let cfg = fast_cfg();
        let fresh = SocsKernels::from_config(&cfg);
        let (key, n, size) = (config_key(&cfg), fresh.len(), cfg.kernel_size);
        let weights = Tensor::from_vec(&[n], fresh.kernels().iter().map(|k| k.weight).collect());
        let pairs = fresh.kernels().iter().flat_map(|k| k.taps.iter().flat_map(|&t| [t, 0.0]));
        let taps = Tensor::from_vec(&[n, size, size, 2], pairs.collect());
        let old = entry(key, weights, taps);
        assert!(decode(&old, key, &cfg).is_none());
        std::fs::write(cache_path(&dir, key), &old).unwrap();
        assert!(stacks_equal(&load_or_derive(&cfg, &dir), &fresh));
        // Rederived and stored over it in the current layout.
        let stored = std::fs::read(cache_path(&dir, key)).unwrap();
        assert!(stacks_equal(&decode(&stored, key, &cfg).expect("rewritten"), &fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory others can write is not the cache's: an entry planted
    /// there under the current key, with halved taps, is not served, and
    /// the directory is left as it was.
    #[cfg(unix)]
    #[test]
    fn entries_in_a_directory_others_can_write_are_not_served() {
        use std::os::unix::fs::PermissionsExt;
        let dir = temp_dir("shared");
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o777)).unwrap();
        let cfg = fast_cfg();
        let fresh = SocsKernels::from_config(&cfg);
        let key = config_key(&cfg);
        let planted = encode(key, &halved(&fresh));
        std::fs::write(cache_path(&dir, key), &planted).unwrap();
        assert!(stacks_equal(&load_or_derive(&cfg, &dir), &fresh));
        assert_eq!(std::fs::read(cache_path(&dir, key)).unwrap(), planted);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A missing directory is created with mode 0700, whatever the umask,
    /// and serves the entry stored in it.
    #[cfg(unix)]
    #[test]
    fn a_missing_directory_is_created_private() {
        use std::os::unix::fs::PermissionsExt;
        let root = temp_dir("create");
        let dir = root.join("nested").join("kernel-cache");
        let cfg = fast_cfg();
        let derived = load_or_derive(&cfg, &dir);
        for d in [dir.as_path(), dir.parent().unwrap()] {
            let mode = std::fs::metadata(d).unwrap().permissions().mode();
            assert_eq!(mode & 0o777, 0o700, "{}", d.display());
        }
        assert!(is_private(&dir));
        assert!(cache_path(&dir, config_key(&cfg)).exists());
        assert!(stacks_equal(&load_or_derive(&cfg, &dir), &derived));
        std::fs::remove_dir_all(&root).unwrap();
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
