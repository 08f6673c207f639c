//! Binary checkpoint formats for parameter and training-state snapshots.
//!
//! Two wire formats share the `"GANOPCKP"` magic:
//!
//! **v1** — a bare tensor list of
//! [`Sequential::export_params`](crate::layers::Sequential::export_params)
//! snapshots, encoded by [`to_bytes`] and decoded by [`from_bytes`]. No
//! file is written in it any more; [`Checkpoint::load`] still reads v1
//! files (generator weights saved by older builds), filing their tensor
//! list under the section `"params"`:
//!
//! ```text
//! magic   "GANOPCKP"            8 bytes
//! version u32 le = 1            4 bytes
//! count   u32 le                4 bytes
//! per tensor:
//!   rank  u32 le                        (1..=8)
//!   dims  rank × u64 le                 (each 1..=u32::MAX)
//!   data  prod(dims) × f32 le
//! ```
//!
//! **v2** — the [`Checkpoint`] container: a sequence of *named, typed
//! sections* (tensor lists, `u64`/`f64` scalars, raw bytes) closed by a
//! CRC-32 trailer, so one file can carry a full training state — several
//! networks, optimizer velocities, step counters, shuffle cursors:
//!
//! ```text
//! magic    "GANOPCKP"           8 bytes
//! version  u32 le = 2           4 bytes
//! nsect    u32 le               4 bytes
//! per section:
//!   name_len u16 le                     (1..=255)
//!   name     name_len × u8              (utf-8)
//!   kind     u8                         (1 tensors, 2 u64, 3 f64, 4 bytes)
//!   len      u64 le
//!   payload  len × u8                   (kind 1: a v1-style tensor list
//!                                        without magic/version header)
//! crc32    u32 le               IEEE CRC-32 of every preceding byte
//! ```
//!
//! Both decoders validate every header integer against the remaining byte
//! budget **before** allocating, so corrupt or hostile inputs fail with a
//! typed [`CheckpointError`] and bounded memory, never a panic or a
//! multi-gigabyte allocation. All file writes go through
//! [`ganopc_geometry::io::write_atomic`], so a crash mid-save never leaves
//! a truncated file at the final path.
//!
//! # Example
//!
//! ```
//! use ganopc_nn::{checkpoint::Checkpoint, Tensor};
//! # fn main() -> Result<(), ganopc_nn::checkpoint::CheckpointError> {
//! let mut ck = Checkpoint::new();
//! ck.put_tensors("g/params", &[Tensor::filled(&[2, 3], 0.5)]);
//! ck.put_u64("progress/step", 41);
//! ck.put_f64("best/litho_error", 1.25);
//! let bytes = ck.to_bytes();
//! let restored = Checkpoint::from_bytes(&bytes)?;
//! assert_eq!(restored.get_u64("progress/step")?, 41);
//! assert_eq!(restored.get_tensors("g/params")?.len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::Tensor;
use ganopc_obs as obs;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Reads a checkpoint file, consulting the fault sink first: armed
/// builds may fail the Nth checkpoint read with an injected I/O error
/// (the hook is an inlined constant `false` otherwise).
fn read_checkpoint_bytes(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    if ganopc_fault::next_read_fault() {
        obs::counter_add(obs::Counter::FaultsInjected, 1);
        return Err(CheckpointError::File {
            op: "read",
            path: path.to_path_buf(),
            source: std::io::Error::other("fault-inject: read failed"),
        });
    }
    std::fs::read(path).map_err(|source| CheckpointError::File {
        op: "read",
        path: path.to_path_buf(),
        source,
    })
}

const MAGIC: &[u8; 8] = b"GANOPCKP";
const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;

const KIND_TENSORS: u8 = 1;
const KIND_U64: u8 = 2;
const KIND_F64: u8 = 3;
const KIND_BYTES: u8 = 4;

/// Errors from checkpoint encoding/decoding.
#[derive(Debug)]
pub enum CheckpointError {
    /// The blob does not start with the checkpoint magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The blob ended early or contains inconsistent sizes.
    Truncated(String),
    /// The v2 CRC-32 trailer does not match the contents.
    BadCrc {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the contents.
        computed: u32,
    },
    /// A named section is missing, duplicated, or has the wrong type.
    Section(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// I/O failure on a specific checkpoint file: carries the path and
    /// operation so a full disk or permission error mid-training reports
    /// *which* file failed and why instead of a bare os error.
    File {
        /// What was being done to the file (`"write"` / `"read"`).
        op: &'static str,
        /// The checkpoint path involved.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a gan-opc checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "checkpoint crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            CheckpointError::Section(msg) => write!(f, "checkpoint section error: {msg}"),
            CheckpointError::Io(e) => write!(f, "i/o failure: {e}"),
            CheckpointError::File { op, path, source } => {
                write!(f, "cannot {op} checkpoint {}: {source}", path.display())
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::File { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — dependency-free table implementation.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the v2 trailer checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Bounded cursor over untrusted bytes.
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end =
            self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
                CheckpointError::Truncated(format!("need {n} bytes at {}", self.pos))
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        // PANIC: take(2) returned exactly 2 bytes or erred above.
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        // PANIC: take(4) returned exactly 4 bytes or erred above.
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        // PANIC: take(8) returned exactly 8 bytes or erred above.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

// ---------------------------------------------------------------------------
// Tensor-list payload (shared by v1 bodies and v2 tensor sections).
// ---------------------------------------------------------------------------

/// Smallest possible encoded tensor: rank + one dim + one f32 element.
const MIN_TENSOR_BYTES: usize = 4 + 8 + 4;

fn encode_tensor_list(out: &mut Vec<u8>, tensors: &[Tensor]) {
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        out.extend_from_slice(&(t.shape().len() as u32).to_le_bytes());
        for &d in t.shape() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in t.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn tensor_list_len(tensors: &[Tensor]) -> usize {
    4 + tensors.iter().map(|t| 4 + 8 * t.shape().len() + 4 * t.len()).sum::<usize>()
}

/// Decodes a tensor list, validating every count and dimension against the
/// cursor's remaining byte budget *before* allocating.
fn decode_tensor_list(cur: &mut Cursor<'_>) -> Result<Vec<Tensor>, CheckpointError> {
    let count = cur.u32()? as usize;
    if count > cur.remaining() / MIN_TENSOR_BYTES {
        return Err(CheckpointError::Truncated(format!(
            "tensor count {count} cannot fit in {} remaining bytes",
            cur.remaining()
        )));
    }
    let mut tensors = Vec::with_capacity(count);
    for i in 0..count {
        let rank = cur.u32()? as usize;
        if rank == 0 || rank > 8 {
            return Err(CheckpointError::Truncated(format!("tensor {i}: rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            let d = cur.u64()?;
            if d == 0 || d > u32::MAX as u64 {
                return Err(CheckpointError::Truncated(format!("tensor {i}: dim {d}")));
            }
            shape.push(d as usize);
        }
        let len = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .filter(|&l| l <= cur.remaining() / 4)
            .ok_or_else(|| {
                CheckpointError::Truncated(format!(
                    "tensor {i}: {shape:?} elements cannot fit in {} remaining bytes",
                    cur.remaining()
                ))
            })?;
        let raw = cur.take(4 * len)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            // PANIC: chunks_exact(4) yields exactly 4 bytes per chunk.
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        tensors.push(Tensor::from_vec(&shape, data));
    }
    Ok(tensors)
}

// ---------------------------------------------------------------------------
// v1 — bare tensor-list snapshots.
// ---------------------------------------------------------------------------

/// Serializes a snapshot into v1 bytes.
pub fn to_bytes(tensors: &[Tensor]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + tensor_list_len(tensors));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());
    encode_tensor_list(&mut out, tensors);
    out
}

/// Deserializes a v1 snapshot from bytes.
///
/// # Errors
///
/// Returns [`CheckpointError`] on malformed input (including v2 blobs —
/// use [`Checkpoint::from_bytes`] to read either version).
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<Tensor>, CheckpointError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(8)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = cur.u32()?;
    if version != VERSION_V1 {
        return Err(CheckpointError::BadVersion(version));
    }
    let tensors = decode_tensor_list(&mut cur)?;
    if cur.remaining() != 0 {
        return Err(CheckpointError::Truncated(format!("{} trailing bytes", cur.remaining())));
    }
    Ok(tensors)
}

// ---------------------------------------------------------------------------
// v2 — named-section container.
// ---------------------------------------------------------------------------

/// Payload of one named checkpoint section.
#[derive(Debug, Clone, PartialEq)]
pub enum SectionData {
    /// A list of tensors (network parameters, optimizer velocity, ...).
    Tensors(Vec<Tensor>),
    /// An unsigned integer (step counters, sizes, cursors).
    U64(u64),
    /// A floating-point scalar (learning rates, loss values).
    F64(f64),
    /// Raw bytes (format tags, free-form metadata).
    Bytes(Vec<u8>),
}

impl SectionData {
    fn kind(&self) -> u8 {
        match self {
            SectionData::Tensors(_) => KIND_TENSORS,
            SectionData::U64(_) => KIND_U64,
            SectionData::F64(_) => KIND_F64,
            SectionData::Bytes(_) => KIND_BYTES,
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            SectionData::Tensors(_) => "tensors",
            SectionData::U64(_) => "u64",
            SectionData::F64(_) => "f64",
            SectionData::Bytes(_) => "bytes",
        }
    }
}

/// A v2 checkpoint: an ordered set of named, typed sections.
///
/// Section names are unique (putting a name twice replaces the payload)
/// and at most 255 utf-8 bytes long. See the [module docs](self) for the
/// wire layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    sections: Vec<(String, SectionData)>,
}

impl Checkpoint {
    /// Creates an empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Whether a section named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }

    fn put(&mut self, name: &str, data: SectionData) {
        assert!(
            !name.is_empty() && name.len() <= 255,
            "section name must be 1..=255 bytes, got {:?}",
            name
        );
        match self.sections.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = data,
            None => self.sections.push((name.to_string(), data)),
        }
    }

    /// Stores a tensor list under `name` (replacing any previous payload).
    /// Takes the tensors by reference so callers can write sections straight
    /// from live parameter/optimizer state without cloning first.
    ///
    /// # Panics
    ///
    /// Panics when `name` is empty or longer than 255 bytes.
    pub fn put_tensors(&mut self, name: &str, tensors: &[Tensor]) {
        self.put(name, SectionData::Tensors(tensors.to_vec()));
    }

    /// Stores an unsigned scalar under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is empty or longer than 255 bytes.
    pub fn put_u64(&mut self, name: &str, value: u64) {
        self.put(name, SectionData::U64(value));
    }

    /// Stores a floating-point scalar under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is empty or longer than 255 bytes.
    pub fn put_f64(&mut self, name: &str, value: f64) {
        self.put(name, SectionData::F64(value));
    }

    /// Stores raw bytes under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is empty or longer than 255 bytes.
    pub fn put_bytes(&mut self, name: &str, bytes: Vec<u8>) {
        self.put(name, SectionData::Bytes(bytes));
    }

    fn get(&self, name: &str) -> Result<&SectionData, CheckpointError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
            .ok_or_else(|| CheckpointError::Section(format!("missing section '{name}'")))
    }

    fn wrong_kind(name: &str, want: &str, got: &SectionData) -> CheckpointError {
        CheckpointError::Section(format!(
            "section '{name}' holds {}, expected {want}",
            got.kind_name()
        ))
    }

    /// Borrows the tensor list stored under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Section`] when missing or of another kind.
    pub fn get_tensors(&self, name: &str) -> Result<&[Tensor], CheckpointError> {
        match self.get(name)? {
            SectionData::Tensors(t) => Ok(t),
            other => Err(Self::wrong_kind(name, "tensors", other)),
        }
    }

    /// Removes and returns the tensor list stored under `name` (avoids
    /// cloning large parameter snapshots during resume).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Section`] when missing or of another kind.
    pub fn take_tensors(&mut self, name: &str) -> Result<Vec<Tensor>, CheckpointError> {
        let idx = self
            .sections
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| CheckpointError::Section(format!("missing section '{name}'")))?;
        match &self.sections[idx].1 {
            SectionData::Tensors(_) => match self.sections.remove(idx).1 {
                SectionData::Tensors(t) => Ok(t),
                _ => unreachable!("kind checked above"),
            },
            other => Err(Self::wrong_kind(name, "tensors", other)),
        }
    }

    /// Reads the `u64` scalar stored under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Section`] when missing or of another kind.
    pub fn get_u64(&self, name: &str) -> Result<u64, CheckpointError> {
        match self.get(name)? {
            SectionData::U64(v) => Ok(*v),
            other => Err(Self::wrong_kind(name, "u64", other)),
        }
    }

    /// Reads the `f64` scalar stored under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Section`] when missing or of another kind.
    pub fn get_f64(&self, name: &str) -> Result<f64, CheckpointError> {
        match self.get(name)? {
            SectionData::F64(v) => Ok(*v),
            other => Err(Self::wrong_kind(name, "f64", other)),
        }
    }

    /// Borrows the raw bytes stored under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Section`] when missing or of another kind.
    pub fn get_bytes(&self, name: &str) -> Result<&[u8], CheckpointError> {
        match self.get(name)? {
            SectionData::Bytes(b) => Ok(b),
            other => Err(Self::wrong_kind(name, "bytes", other)),
        }
    }

    /// Serializes the container (v2 wire format, CRC-32 trailer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self
            .sections
            .iter()
            .map(|(n, d)| {
                2 + n.len()
                    + 1
                    + 8
                    + match d {
                        SectionData::Tensors(t) => tensor_list_len(t),
                        SectionData::U64(_) | SectionData::F64(_) => 8,
                        SectionData::Bytes(b) => b.len(),
                    }
            })
            .sum();
        let mut out = Vec::with_capacity(16 + payload + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION_V2.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, data) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(data.kind());
            match data {
                SectionData::Tensors(t) => {
                    out.extend_from_slice(&(tensor_list_len(t) as u64).to_le_bytes());
                    encode_tensor_list(&mut out, t);
                }
                SectionData::U64(v) => {
                    out.extend_from_slice(&8u64.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
                SectionData::F64(v) => {
                    out.extend_from_slice(&8u64.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
                SectionData::Bytes(b) => {
                    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
                    out.extend_from_slice(b);
                }
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a checkpoint from bytes.
    ///
    /// Accepts both wire versions: a v1 blob is wrapped into a container
    /// with its tensor list under the single section `"params"`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input; allocation is
    /// bounded by the input length regardless of header contents.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut cur = Cursor::new(bytes);
        if cur.take(8)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = cur.u32()?;
        if version == VERSION_V1 {
            let mut ck = Checkpoint::new();
            ck.put_tensors("params", &from_bytes(bytes)?);
            return Ok(ck);
        }
        if version != VERSION_V2 {
            return Err(CheckpointError::BadVersion(version));
        }
        // Verify the CRC trailer before trusting any header field.
        if bytes.len() < 16 + 4 {
            return Err(CheckpointError::Truncated("no room for crc trailer".into()));
        }
        let body_end = bytes.len() - 4;
        // PANIC: bytes.len() >= 20 was checked above, so the trailer slice
        // is exactly 4 bytes.
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..body_end]);
        if stored != computed {
            return Err(CheckpointError::BadCrc { stored, computed });
        }
        let mut cur = Cursor::new(&bytes[..body_end]);
        cur.take(12)?; // magic + version, already validated
        let nsect = cur.u32()? as usize;
        // Smallest section: 2 (name len) + 1 (name) + 1 (kind) + 8 (len).
        if nsect > cur.remaining() / 12 {
            return Err(CheckpointError::Truncated(format!(
                "section count {nsect} cannot fit in {} remaining bytes",
                cur.remaining()
            )));
        }
        let mut ck = Checkpoint { sections: Vec::with_capacity(nsect) };
        for i in 0..nsect {
            let name_len = cur.u16()? as usize;
            if name_len == 0 {
                return Err(CheckpointError::Truncated(format!("section {i}: empty name")));
            }
            let name = std::str::from_utf8(cur.take(name_len)?)
                .map_err(|_| CheckpointError::Truncated(format!("section {i}: non-utf8 name")))?
                .to_string();
            if ck.contains(&name) {
                return Err(CheckpointError::Section(format!("duplicate section '{name}'")));
            }
            let kind = cur.u8()?;
            let len = cur.u64()?;
            if len > cur.remaining() as u64 {
                return Err(CheckpointError::Truncated(format!(
                    "section '{name}': payload of {len} bytes exceeds {} remaining",
                    cur.remaining()
                )));
            }
            let payload = cur.take(len as usize)?;
            let data = match kind {
                KIND_TENSORS => {
                    let mut inner = Cursor::new(payload);
                    let tensors = decode_tensor_list(&mut inner)?;
                    if inner.remaining() != 0 {
                        return Err(CheckpointError::Truncated(format!(
                            "section '{name}': {} trailing payload bytes",
                            inner.remaining()
                        )));
                    }
                    SectionData::Tensors(tensors)
                }
                KIND_U64 | KIND_F64 => {
                    let raw: [u8; 8] = payload.try_into().map_err(|_| {
                        CheckpointError::Truncated(format!(
                            "section '{name}': scalar payload of {len} bytes"
                        ))
                    })?;
                    if kind == KIND_U64 {
                        SectionData::U64(u64::from_le_bytes(raw))
                    } else {
                        SectionData::F64(f64::from_le_bytes(raw))
                    }
                }
                KIND_BYTES => SectionData::Bytes(payload.to_vec()),
                other => {
                    return Err(CheckpointError::Truncated(format!(
                        "section '{name}': unknown kind {other}"
                    )))
                }
            };
            ck.sections.push((name, data));
        }
        if cur.remaining() != 0 {
            return Err(CheckpointError::Truncated(format!("{} trailing bytes", cur.remaining())));
        }
        Ok(ck)
    }

    /// Writes the container to a file atomically (tmp file → sync →
    /// rename): a crash mid-save leaves the previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let sp = obs::span(obs::Span::CheckpointSave);
        obs::counter_add(obs::Counter::CheckpointSaves, 1);
        let result = ganopc_geometry::io::write_atomic(path, &self.to_bytes()).map_err(|source| {
            CheckpointError::File { op: "write", path: path.to_path_buf(), source }
        });
        sp.finish();
        result
    }

    /// Reads a container (either wire version) from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (reported with the path) and format errors.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let bytes = read_checkpoint_bytes(path)?;
        Checkpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> Vec<Tensor> {
        vec![
            Tensor::from_vec(&[2, 3], vec![1.0, -2.0, 3.5, 0.0, f32::MIN_POSITIVE, 1e30]),
            Tensor::filled(&[4], -0.25),
            Tensor::from_vec(&[1, 2, 2, 1], vec![9.0, 8.0, 7.0, 6.0]),
        ]
    }

    fn container() -> Checkpoint {
        let mut ck = Checkpoint::new();
        ck.put_tensors("g/params", &snapshot());
        ck.put_tensors("opt/velocity", &[Tensor::filled(&[3], 0.125)]);
        ck.put_u64("progress/step", 41);
        ck.put_f64("best/litho_error", -1.5e-3);
        ck.put_bytes("meta/kind", b"unit-test".to_vec());
        ck
    }

    #[test]
    fn roundtrip_bytes() {
        let snap = snapshot();
        let restored = from_bytes(&to_bytes(&snap)).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn roundtrip_empty_snapshot() {
        let restored = from_bytes(&to_bytes(&[])).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(from_bytes(b"NOTACKPT\0\0\0\0"), Err(CheckpointError::BadMagic)));
        assert!(matches!(
            Checkpoint::from_bytes(b"NOTACKPT\0\0\0\0"),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = to_bytes(&snapshot());
        bytes[8] = 99;
        assert!(matches!(from_bytes(&bytes), Err(CheckpointError::BadVersion(_))));
        assert!(matches!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::BadVersion(_))));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = to_bytes(&snapshot());
        for cut in [10, 20, bytes.len() - 1] {
            assert!(
                matches!(from_bytes(&bytes[..cut]), Err(CheckpointError::Truncated(_))),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bytes(&snapshot());
        bytes.push(0);
        assert!(matches!(from_bytes(&bytes), Err(CheckpointError::Truncated(_))));
    }

    #[test]
    fn hostile_count_fails_before_allocating() {
        // A v1 header claiming u32::MAX tensors in a 16-byte blob must be
        // rejected by the budget check, not by attempting the allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(CheckpointError::Truncated(_))));
    }

    #[test]
    fn hostile_dims_fail_before_allocating() {
        // rank 8 × dims u32::MAX would overflow usize on multiplication and
        // demand ~2^64 bytes; the checked product must reject it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // count
        bytes.extend_from_slice(&8u32.to_le_bytes()); // rank
        for _ in 0..8 {
            bytes.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        }
        bytes.extend_from_slice(&[0u8; 64]); // some payload, far too little
        assert!(matches!(from_bytes(&bytes), Err(CheckpointError::Truncated(_))));
    }

    #[test]
    fn container_roundtrip() {
        let ck = container();
        let restored = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(restored, ck);
        assert_eq!(restored.get_tensors("g/params").unwrap(), snapshot());
        assert_eq!(restored.get_u64("progress/step").unwrap(), 41);
        assert_eq!(restored.get_f64("best/litho_error").unwrap(), -1.5e-3);
        assert_eq!(restored.get_bytes("meta/kind").unwrap(), b"unit-test");
    }

    #[test]
    fn container_roundtrip_file() {
        let dir = std::env::temp_dir().join("ganopc-ckpt-v2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let ck = container();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_container_roundtrips() {
        let ck = Checkpoint::new();
        assert_eq!(Checkpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn v1_blob_loads_as_container() {
        let ck = Checkpoint::from_bytes(&to_bytes(&snapshot())).unwrap();
        assert_eq!(ck.get_tensors("params").unwrap(), snapshot());
    }

    #[test]
    fn put_replaces_existing_section() {
        let mut ck = Checkpoint::new();
        ck.put_u64("x", 1);
        ck.put_u64("x", 2);
        assert_eq!(ck.get_u64("x").unwrap(), 2);
        let mut once = Checkpoint::new();
        once.put_u64("x", 2);
        assert_eq!(ck, once);
    }

    #[test]
    fn wrong_kind_is_typed_error() {
        let ck = container();
        assert!(matches!(ck.get_u64("g/params"), Err(CheckpointError::Section(_))));
        assert!(matches!(ck.get_tensors("progress/step"), Err(CheckpointError::Section(_))));
        assert!(matches!(ck.get_f64("missing"), Err(CheckpointError::Section(_))));
    }

    #[test]
    fn take_tensors_removes_section() {
        let mut ck = container();
        let t = ck.take_tensors("g/params").unwrap();
        assert_eq!(t, snapshot());
        assert!(!ck.contains("g/params"));
        assert!(matches!(ck.take_tensors("g/params"), Err(CheckpointError::Section(_))));
    }

    #[test]
    fn crc_detects_bit_flips() {
        let bytes = container().to_bytes();
        // Flip one bit in every byte position past the version field; every
        // corruption must surface as a typed error (usually BadCrc; trailer
        // flips may also report as such).
        for pos in 12..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(Checkpoint::from_bytes(&corrupt).is_err(), "bit flip at {pos} went undetected");
        }
    }

    #[test]
    fn v2_truncations_rejected() {
        let bytes = container().to_bytes();
        for cut in [9, 13, 17, 40, bytes.len() - 5, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn duplicate_sections_rejected() {
        // Hand-craft a v2 blob with the same name twice.
        let mut ck = Checkpoint::new();
        ck.put_u64("dup", 1);
        let mut body = ck.to_bytes();
        body.truncate(body.len() - 4); // strip crc
        let section = body[16..].to_vec();
        body.extend_from_slice(&section);
        body[12..16].copy_from_slice(&2u32.to_le_bytes()); // nsect = 2
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Checkpoint::from_bytes(&body), Err(CheckpointError::Section(_))));
    }

    #[test]
    #[should_panic(expected = "section name")]
    fn empty_section_name_rejected() {
        Checkpoint::new().put_u64("", 1);
    }

    #[test]
    fn network_checkpoint_roundtrip() {
        use crate::layers::{BatchNorm2d, Conv2d, Sequential};
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 3, 1, 1, 7));
        net.push(BatchNorm2d::new(2));
        // Train-mode forward to move the running statistics.
        let x = crate::init::uniform(&[2, 1, 4, 4], 0.0, 1.0, 3);
        let _ = net.forward(&x, true);
        let snap = net.export_params();
        let restored = from_bytes(&to_bytes(&snap)).unwrap();
        let mut net2 = Sequential::new();
        net2.push(Conv2d::new(1, 2, 3, 1, 1, 99));
        net2.push(BatchNorm2d::new(2));
        net2.import_params(&restored).unwrap();
        assert_eq!(net2.forward(&x, false), net.forward(&x, false));
    }
}
