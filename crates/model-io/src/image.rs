//! [`WeightImage`]: one validated, shared, read-only `.cogm` image — the
//! crate's only artifact reader, and what every session of an artifact
//! decodes through.
//!
//! Loading used to mean "copy the file into private buffers per model" —
//! per-session weight memory scaled with session count. A `WeightImage`
//! inverts that: the artifact's bytes live once (memory-mapped on unix,
//! an aligned owned buffer otherwise), validation runs once at open, and
//! every [`WeightImage::decode`] (or [`WeightImage::get`]) hands out an
//! [`Ensemble`](ml::ensemble::Ensemble) whose large tensors are
//! [`ArenaVec`](ml::arena::ArenaVec) views **borrowing the image** —
//! cloning such a model for another session bumps a refcount instead of
//! copying weights, so fleet memory is `weights + sessions × scratch`.
//!
//! v1 artifacts are upgraded to the aligned v2 layout in memory at open
//! (payload bytes untouched, decode bit-identical), so the borrowed-view
//! guarantees hold regardless of the on-disk format. Cold start is
//! therefore: map (or read) + streaming CRC + table walk — no eager
//! weight copies.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use ml::arena::ArenaOwner;

use crate::container::{image_version, parse_sections, upgrade_file_bytes, FORMAT_VERSION};
use crate::error::{ModelIoError, Result};
use crate::impl_core::{tags, SavedModel};
use crate::mmap::{AlignedBytes, ImageBytes};
use crate::rw::{Persist, ViewCursor};

/// A validated `.cogm` image shared by every session of one artifact.
///
/// Cheap to clone (two `Arc` bumps); see the module docs for the
/// ownership model.
#[derive(Debug, Clone)]
pub struct WeightImage {
    bytes: Arc<ImageBytes>,
    /// Section table captured by the one validation pass at open:
    /// `(tag, payload byte range)`. [`WeightImage::decode`] reads through
    /// this instead of re-walking (and re-checksumming) the whole image.
    sections: Arc<[([u8; 4], Range<usize>)]>,
    /// The image's own trailing CRC32 — a content hash suitable for
    /// interning (identical artifacts collide on purpose; v1 and v2
    /// encodings of the same sections agree because the hash is taken
    /// after the canonical v2 upgrade).
    content_hash: u32,
    /// Format version found on disk, before any in-memory upgrade.
    source_version: u16,
}

impl WeightImage {
    /// Opens and validates the artifact at `path`, memory-mapping it when
    /// the platform allows (unix, v2 on disk) and falling back to an
    /// aligned owned read otherwise. v1 files are upgraded in memory.
    ///
    /// # Errors
    ///
    /// Typed errors for every malformed input; never panics.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref();
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            if let Ok(map) = crate::mmap::Mmap::map(&file) {
                return Self::from_image_bytes(ImageBytes::Mapped(map));
            }
            // Fall through: unmappable (e.g. empty) files still get the
            // owned path's typed validation errors.
        }
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Builds an image from in-memory file bytes (network loads, tests).
    /// The bytes are copied once into an aligned buffer.
    ///
    /// # Errors
    ///
    /// Typed errors for every malformed input; never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_image_bytes(ImageBytes::Owned(AlignedBytes::copy_from(bytes)))
    }

    fn from_image_bytes(bytes: ImageBytes) -> Result<Self> {
        let source_version = image_version(&bytes)?;
        let bytes = if source_version == FORMAT_VERSION {
            bytes
        } else {
            // Legacy layout: re-encode as v2 in memory so the alignment
            // guarantees hold. `upgrade_file_bytes` validates the input.
            ImageBytes::Owned(AlignedBytes::copy_from(&upgrade_file_bytes(&bytes)?))
        };
        // The one full validation pass (structure + CRC). Payload slices
        // are converted to byte ranges so `decode` never re-walks the
        // image — cold start pays for exactly one checksum.
        let base = bytes.as_ptr() as usize;
        let sections: Arc<[([u8; 4], Range<usize>)]> = parse_sections(&bytes)?
            .into_iter()
            .map(|(tag, payload)| {
                let start = payload.as_ptr() as usize - base;
                (tag, start..start + payload.len())
            })
            .collect();
        let tail = bytes.len() - 4;
        let content_hash = u32::from_le_bytes(bytes[tail..].try_into().expect("crc checked"));
        Ok(Self {
            bytes: Arc::new(bytes),
            sections,
            content_hash,
            source_version,
        })
    }

    /// Decodes the full model (sections `PCFG` + `ENSM` [+ `NORM`]). The
    /// returned ensemble's tensors borrow this image (refcounted), so
    /// cloning the model per session shares the weights; config and
    /// normalization are tiny and owned.
    ///
    /// # Errors
    ///
    /// Typed errors for every malformed input; never panics.
    pub fn decode(&self) -> Result<SavedModel> {
        SavedModel {
            pipeline: self.get(tags::PIPELINE)?,
            ensemble: self.get(tags::ENSEMBLE)?,
            normalization: self.get_optional(tags::NORMALIZATION)?,
        }
        .checked()
    }

    /// Decodes the section under `tag` as a `T`, requiring the payload to
    /// be fully consumed. Bulk `f32`/`i8` payloads borrow this image.
    ///
    /// # Errors
    ///
    /// [`ModelIoError::MissingSection`] when absent; the value's typed
    /// decode errors otherwise.
    pub fn get<T: Persist>(&self, tag: [u8; 4]) -> Result<T> {
        self.get_optional(tag)?
            .ok_or(ModelIoError::MissingSection { tag })
    }

    /// Like [`WeightImage::get`] but returns `None` for a missing section
    /// instead of an error (for optional sections).
    ///
    /// # Errors
    ///
    /// The value's typed decode errors when the section exists.
    pub fn get_optional<T: Persist>(&self, tag: [u8; 4]) -> Result<Option<T>> {
        let Some(payload) = self.section(tag) else {
            return Ok(None);
        };
        let owner: ArenaOwner = self.bytes.clone();
        // SAFETY: `payload` borrows from `self.bytes`, and `owner` is a
        // clone of that same Arc — the bytes outlive every ArenaVec that
        // captures the owner, and nothing writes to them.
        unsafe { ViewCursor::with_arena(payload, owner) }
            .decode_all()
            .map(Some)
    }

    /// The raw payload of the first section with `tag`, if present.
    #[must_use]
    pub fn section(&self, tag: [u8; 4]) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, r)| &self.bytes[r.clone()])
    }

    /// The image's content hash (its trailing CRC32, post-upgrade) —
    /// stable across processes, suitable as an interning key.
    #[must_use]
    pub fn content_hash(&self) -> u32 {
        self.content_hash
    }

    /// Whether the bytes are a file mapping (false: owned aligned buffer,
    /// e.g. after a v1 upgrade or on non-unix platforms).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// The format version the source carried before any in-memory
    /// upgrade (1 or 2).
    #[must_use]
    pub fn source_version(&self) -> u16 {
        self.source_version
    }

    /// Total image size in bytes (header + table + payloads + checksum).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty (it never is: validation requires the
    /// envelope; present for clippy's `len`-without-`is_empty` lint).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Container;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("model-io-image-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample() -> Container {
        let mut c = Container::new();
        c.add(*b"ONE ", &vec![1u32, 2, 3]).unwrap();
        c.add(*b"TWO ", &String::from("hello")).unwrap();
        c.add(*b"BIG ", &vec![0.5f32; 40_000]).unwrap();
        c
    }

    #[test]
    fn sections_read_back_as_written() {
        let path = temp_file("sample.cogm");
        sample().save(&path).unwrap();
        let image = WeightImage::open(&path).unwrap();
        assert_eq!(image.get::<Vec<u32>>(*b"ONE ").unwrap(), vec![1, 2, 3]);
        assert_eq!(image.get::<String>(*b"TWO ").unwrap(), "hello");
        assert_eq!(
            image.get::<Vec<f32>>(*b"BIG ").unwrap(),
            vec![0.5f32; 40_000]
        );
        // Repeated and out-of-order reads both work.
        assert_eq!(image.get::<Vec<u32>>(*b"ONE ").unwrap(), vec![1, 2, 3]);
        assert_eq!(image.section(*b"TWO ").unwrap().len(), 8 + "hello".len());
    }

    #[test]
    fn missing_sections_are_typed() {
        let image = WeightImage::from_bytes(&sample().to_file_bytes()).unwrap();
        assert!(matches!(
            image.get::<u32>(*b"NOPE").unwrap_err(),
            ModelIoError::MissingSection { .. }
        ));
        assert_eq!(image.get_optional::<u32>(*b"NOPE").unwrap(), None);
        assert!(image.section(*b"NOPE").is_none());
    }

    /// Offsets to probe in the 160 KB sample: the structure boundaries plus
    /// a stride (the container suite sweeps every offset of a small
    /// image; here the per-probe checksum over the whole file dominates).
    fn probes(len: usize, boundaries: [usize; 7]) -> impl Iterator<Item = usize> {
        (0..len).step_by(977).chain(boundaries)
    }

    #[test]
    fn every_truncation_is_rejected_at_open() {
        let bytes = sample().to_file_bytes();
        let path = temp_file("trunc.cogm");
        for cut in probes(
            bytes.len(),
            [4, 7, 8, 11, 12, bytes.len() - 5, bytes.len() - 1],
        ) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                WeightImage::open(&path).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_rejected_at_open() {
        let bytes = sample().to_file_bytes();
        let path = temp_file("flip.cogm");
        for i in probes(
            bytes.len(),
            [5, 6, 9, 15, 20, bytes.len() - 4, bytes.len() - 1],
        ) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            std::fs::write(&path, &corrupt).unwrap();
            assert!(
                WeightImage::open(&path).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn partial_section_consumes_are_rejected_at_get() {
        // The checksum is fine (the writer wrote the file), so open
        // succeeds — but decoding a section as a type that consumes only a
        // prefix of its payload must be a typed error, exactly like
        // `from_bytes`' trailing-bytes rule.
        let payload = vec![0xAAu8, 0xBB, 0xCC];
        let mut c = Container::new();
        c.add(*b"RAWB", &payload).unwrap();
        let image = WeightImage::from_bytes(&c.to_file_bytes()).unwrap();
        assert_eq!(image.get::<Vec<u8>>(*b"RAWB").unwrap(), payload);
        // The section's bytes are 8 (length prefix) + 3; a bare u64
        // consumes just the prefix and must be refused.
        assert!(matches!(
            image.get::<u64>(*b"RAWB").unwrap_err(),
            ModelIoError::Malformed { .. }
        ));
    }

    #[test]
    fn empty_and_garbage_files_are_typed_errors() {
        let path = temp_file("empty.cogm");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            WeightImage::open(&path).unwrap_err(),
            ModelIoError::Truncated { .. }
        ));
        std::fs::write(&path, b"NOPEnope").unwrap();
        assert!(matches!(
            WeightImage::open(&path).unwrap_err(),
            ModelIoError::BadMagic { .. }
        ));
    }
}
