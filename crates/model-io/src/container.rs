//! The `.cogm` container: magic, version, section table, payloads, CRC32.
//!
//! Format **v2** (what this crate writes) keeps every payload 8-byte
//! aligned so a memory-mapped file can be reinterpreted in place:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic  b"COGM"
//!      4     2  format version (little-endian u16, currently 2)
//!      6     2  section count S
//!      8  16*S  section table: S × { tag [u8;4], pad [0u8;4],
//!                                    payload length u64 (unpadded) }
//!   .            payloads in table order, each zero-padded to a
//!                multiple of 8 bytes
//!   end-4    4  CRC32 (IEEE) over every preceding byte (pads included)
//! ```
//!
//! The header is 8 bytes and every table entry 16, so the table ends on
//! an 8-byte boundary; with each payload padded to a multiple of 8, every
//! section *starts* 8-aligned. Since all wire length prefixes are `u64`,
//! `f32`/`i8` runs inside a section land at least 4-aligned — the
//! decoder ([`crate::rw::ViewCursor`]) can borrow them straight out of a
//! page-aligned mapping.
//!
//! Format **v1** (still read, no longer written) is the same with 12-byte
//! table entries (no pad field) and unpadded payloads:
//!
//! ```text
//!      8  12*S  section table: S × { tag [u8;4], payload length u64 }
//!   .            payloads, concatenated without padding
//! ```
//!
//! The checksum is verified *before* any payload is parsed, so a reader
//! only ever decodes bytes the writer actually produced; parsing errors
//! past that point indicate version skew or writer bugs and still surface
//! as typed errors. Version policy: readers accept exactly the versions
//! they know how to parse ({1, 2}) and reject everything else with
//! [`ModelIoError::UnsupportedVersion`]; additive evolution (new section
//! tags) does not bump the version, layout changes do. v1 artifacts load
//! forever — [`upgrade_file_bytes`] re-encodes one as v2 in memory
//! (payload bytes are untouched, so decoding is bit-identical), and the
//! committed `tests/fixtures/*_v1.cogm` files are the frozen v1 inputs the
//! reader is held to.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::crc32::crc32;
use crate::error::{ModelIoError, Result};
use crate::image::WeightImage;
use crate::rw::{to_bytes, Persist};

/// The four magic bytes opening every artifact file.
pub const MAGIC: [u8; 4] = *b"COGM";

/// The format version this crate writes: aligned layout (see module docs).
pub const FORMAT_VERSION: u16 = 2;

/// The legacy unaligned layout; still read (and upgraded to v2 in memory),
/// no longer written.
pub const FORMAT_VERSION_V1: u16 = 1;

/// Hard ceiling on sections per file (the table is tiny; anything bigger
/// is corruption).
pub(crate) const MAX_SECTIONS: usize = 256;

/// Bytes per section-table entry for a given (already validated) version.
pub(crate) fn table_entry_size(version: u16) -> usize {
    if version == FORMAT_VERSION_V1 {
        12
    } else {
        16
    }
}

/// Zero bytes appended after a `len`-byte v2 payload to reach the next
/// 8-byte boundary.
pub(crate) fn pad_after(len: u64) -> u64 {
    len.wrapping_neg() & 7
}

/// The format version claimed by a `.cogm` image, after checking the
/// magic. Accepts exactly the versions this crate can parse.
///
/// # Errors
///
/// [`ModelIoError::Truncated`] / [`ModelIoError::BadMagic`] /
/// [`ModelIoError::UnsupportedVersion`] — the same envelope triage
/// [`parse_sections`] performs, with no payload work.
pub fn image_version(buf: &[u8]) -> Result<u16> {
    if buf.len() < 8 {
        return Err(ModelIoError::Truncated { context: "header" });
    }
    let found: [u8; 4] = buf[0..4].try_into().expect("length checked");
    if found != MAGIC {
        return Err(ModelIoError::BadMagic { found });
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("length checked"));
    if version != FORMAT_VERSION && version != FORMAT_VERSION_V1 {
        return Err(ModelIoError::UnsupportedVersion { found: version });
    }
    Ok(version)
}

/// An in-memory `.cogm` container: an ordered list of tagged sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Container {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl Container {
    /// An empty container.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes `value` and appends it as a section under `tag`.
    ///
    /// # Errors
    ///
    /// Propagates the value's serialization failure;
    /// [`ModelIoError::LengthOverflow`] when the section cap is hit (the
    /// writer enforces the same `MAX_SECTIONS` bound the reader does, so
    /// a successful save is always loadable).
    pub fn add<T: Persist>(&mut self, tag: [u8; 4], value: &T) -> Result<()> {
        if self.sections.len() >= MAX_SECTIONS {
            return Err(ModelIoError::LengthOverflow {
                context: "section count",
                len: self.sections.len() as u64 + 1,
            });
        }
        let payload = to_bytes(value)?;
        self.sections.push((tag, payload));
        Ok(())
    }

    /// The complete file image, checksum included (current format, v2).
    #[must_use]
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let refs: Vec<([u8; 4], &[u8])> = self
            .sections
            .iter()
            .map(|(t, p)| (*t, p.as_slice()))
            .collect();
        encode_image(&refs)
    }

    /// Writes the container to a file at `path` atomically: the bytes land
    /// in a same-directory temp file first and are renamed over the target
    /// only after a successful sync, so a crash or full disk mid-save never
    /// destroys a previously good artifact.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp-{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut file = File::create(&tmp)?;
            file.write_all(&self.to_file_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

/// Validates a complete `.cogm` file image — magic, version, checksum
/// (verified before any payload is touched), section table — and returns
/// each section's tag and payload as slices **borrowed from `buf`**,
/// copying nothing. [`crate::WeightImage`] runs this once at open and
/// decodes values straight out of the returned payloads.
///
/// # Errors
///
/// Every malformed input yields a typed [`ModelIoError`]; nothing panics
/// and nothing allocates proportionally to forged lengths.
pub fn parse_sections(buf: &[u8]) -> Result<Vec<([u8; 4], &[u8])>> {
    // Envelope: magic + version + count + crc is the minimum file.
    let version = image_version(buf)?;
    if buf.len() < 12 {
        return Err(ModelIoError::Truncated { context: "checksum" });
    }
    let body = &buf[..buf.len() - 4];
    let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("length checked"));
    let computed = crc32(body);
    if stored != computed {
        return Err(ModelIoError::ChecksumMismatch { stored, computed });
    }

    let count = usize::from(u16::from_le_bytes(
        buf[6..8].try_into().expect("length checked"),
    ));
    if count > MAX_SECTIONS {
        return Err(ModelIoError::LengthOverflow {
            context: "section count",
            len: count as u64,
        });
    }
    let entry_size = table_entry_size(version);
    let table_end = 8usize
        .checked_add(
            count
                .checked_mul(entry_size)
                .ok_or(ModelIoError::LengthOverflow {
                    context: "section table",
                    len: count as u64,
                })?,
        )
        .ok_or(ModelIoError::LengthOverflow {
            context: "section table",
            len: count as u64,
        })?;
    if body.len() < table_end {
        return Err(ModelIoError::Truncated {
            context: "section table",
        });
    }
    let mut sections = Vec::with_capacity(count);
    let mut offset = table_end;
    for i in 0..count {
        let entry = &body[8 + i * entry_size..8 + (i + 1) * entry_size];
        let tag: [u8; 4] = entry[0..4].try_into().expect("length checked");
        let len = if version == FORMAT_VERSION_V1 {
            u64::from_le_bytes(entry[4..12].try_into().expect("length checked"))
        } else {
            if entry[4..8] != [0u8; 4] {
                return Err(ModelIoError::malformed(format!(
                    "nonzero reserved bytes in table entry {i}"
                )));
            }
            u64::from_le_bytes(entry[8..16].try_into().expect("length checked"))
        };
        let pad = if version == FORMAT_VERSION_V1 {
            0
        } else {
            pad_after(len)
        };
        let len = usize::try_from(len).map_err(|_| ModelIoError::LengthOverflow {
            context: "section length",
            len,
        })?;
        let end = offset.checked_add(len).ok_or(ModelIoError::LengthOverflow {
            context: "section length",
            len: len as u64,
        })?;
        let next = end
            .checked_add(pad as usize)
            .ok_or(ModelIoError::LengthOverflow {
                context: "section length",
                len: len as u64,
            })?;
        if next > body.len() {
            return Err(ModelIoError::Truncated {
                context: "section payload",
            });
        }
        if body[end..next].iter().any(|&b| b != 0) {
            return Err(ModelIoError::malformed(format!(
                "nonzero padding after section {i}"
            )));
        }
        sections.push((tag, &body[offset..end]));
        offset = next;
    }
    if offset != body.len() {
        return Err(ModelIoError::malformed(format!(
            "{} unclaimed bytes after sections",
            body.len() - offset
        )));
    }
    Ok(sections)
}

/// Encodes tagged payloads as a complete v2 `.cogm` file image (see the
/// module docs), checksum included. The writer and the v1 → v2 upgrade
/// both funnel through here, so "same sections" always means "same
/// bytes".
pub(crate) fn encode_image(sections: &[([u8; 4], &[u8])]) -> Vec<u8> {
    let pad = |payload: &[u8]| pad_after(payload.len() as u64) as usize;
    let payload_len: usize = sections.iter().map(|(_, p)| p.len() + pad(p)).sum();
    let mut out = Vec::with_capacity(8 + 16 * sections.len() + payload_len + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u16).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(tag);
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    for (_, payload) in sections {
        out.extend_from_slice(payload);
        out.extend_from_slice(&[0u8; 8][..pad(payload)]);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Re-encodes any accepted `.cogm` image as the current format (v2). The
/// input is fully validated first; payload bytes are carried over
/// untouched, so every value decodes bit-identically to the original —
/// only the table layout and alignment padding change. A v2 input
/// round-trips to its canonical encoding (same bytes for a writer-produced
/// file).
///
/// # Errors
///
/// Same as [`parse_sections`].
pub fn upgrade_file_bytes(buf: &[u8]) -> Result<Vec<u8>> {
    Ok(encode_image(&parse_sections(buf)?))
}

/// Saves one [`Persist`] value as a single-section file under `tag`.
///
/// # Errors
///
/// Propagates serialization and I/O failures.
pub fn save_section<T: Persist, P: AsRef<Path>>(path: P, tag: [u8; 4], value: &T) -> Result<()> {
    let mut container = Container::new();
    container.add(tag, value)?;
    container.save(path)
}

/// Loads one [`Persist`] value from a single-section file written by
/// [`save_section`], through a [`WeightImage`].
///
/// # Errors
///
/// Typed errors for malformed files or a missing section.
pub fn load_section<T: Persist, P: AsRef<Path>>(path: P, tag: [u8; 4]) -> Result<T> {
    WeightImage::open(path)?.get(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small model committed in both layouts. Nothing writes v1 any
    /// more, so the v1 file is frozen input: the upgrade and the v1
    /// hostile-input sweeps run over these bytes.
    const MODEL_V1: &[u8] = include_bytes!("../../../tests/fixtures/model_v1.cogm");
    const MODEL_V2: &[u8] = include_bytes!("../../../tests/fixtures/model.cogm");

    fn sample() -> Container {
        let mut c = Container::new();
        c.add(*b"ONE ", &vec![1u32, 2, 3]).unwrap();
        c.add(*b"TWO ", &String::from("hello")).unwrap();
        c
    }

    /// Asserts `bytes` is a valid image holding exactly `sample()`'s
    /// sections and values.
    fn assert_holds_sample(bytes: &[u8]) {
        let tags: Vec<[u8; 4]> = parse_sections(bytes).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(tags, vec![*b"ONE ", *b"TWO "]);
        let image = WeightImage::from_bytes(bytes).unwrap();
        assert_eq!(image.get::<Vec<u32>>(*b"ONE ").unwrap(), vec![1, 2, 3]);
        assert_eq!(image.get::<String>(*b"TWO ").unwrap(), "hello");
    }

    #[test]
    fn container_round_trips() {
        assert_holds_sample(&sample().to_file_bytes());
    }

    #[test]
    fn missing_section_is_typed() {
        let image = WeightImage::from_bytes(&sample().to_file_bytes()).unwrap();
        assert!(matches!(
            image.get::<u32>(*b"NOPE").unwrap_err(),
            ModelIoError::MissingSection { .. }
        ));
        assert_eq!(image.get_optional::<u32>(*b"NOPE").unwrap(), None);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample().to_file_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            parse_sections(&bytes).unwrap_err(),
            ModelIoError::BadMagic { .. }
        ));
        let mut bytes = sample().to_file_bytes();
        bytes[4] = 99;
        assert!(matches!(
            parse_sections(&bytes).unwrap_err(),
            ModelIoError::UnsupportedVersion { found: 99 }
        ));
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = sample().to_file_bytes();
        for cut in 0..bytes.len() {
            assert!(
                parse_sections(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn every_byte_flip_errors() {
        let bytes = sample().to_file_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            assert!(
                parse_sections(&flipped).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn v2_sections_start_8_byte_aligned() {
        // The tentpole guarantee: with an 8-aligned image base (mmap or
        // AlignedBytes), every section payload begins 8-aligned.
        let mut c = sample();
        c.add(*b"ODD ", &vec![1u8, 2, 3]).unwrap(); // 11-byte payload
        c.add(*b"MORE", &7u64).unwrap();
        let bytes = c.to_file_bytes();
        assert_eq!(
            u16::from_le_bytes(bytes[4..6].try_into().unwrap()),
            FORMAT_VERSION
        );
        let base = bytes.as_ptr() as usize;
        for (tag, payload) in parse_sections(&bytes).unwrap() {
            let offset = payload.as_ptr() as usize - base;
            assert_eq!(offset % 8, 0, "section {tag:?} starts at offset {offset}");
        }
    }

    #[test]
    fn upgrade_is_payload_preserving_and_canonical() {
        assert_eq!(image_version(MODEL_V1).unwrap(), FORMAT_VERSION_V1);
        let upgraded = upgrade_file_bytes(MODEL_V1).unwrap();
        // Upgrading a v1 file carries every section's tag and payload over
        // untouched and yields exactly the bytes the v2 writer produced for
        // the same model; a v2 file is a fixed point.
        assert_eq!(
            parse_sections(&upgraded).unwrap(),
            parse_sections(MODEL_V1).unwrap()
        );
        assert_eq!(upgraded, MODEL_V2);
        assert_eq!(upgrade_file_bytes(&upgraded).unwrap(), upgraded);
        // Upgrade validates: corrupt input is refused, not re-encoded.
        let mut corrupt = MODEL_V1.to_vec();
        let tail = corrupt.len() - 1;
        corrupt[tail] ^= 0xFF;
        assert!(upgrade_file_bytes(&corrupt).is_err());
    }

    #[test]
    fn v1_fixtures_byte_flip_and_truncation_sweeps() {
        // The hostile-input sweeps must keep holding for the legacy
        // layout as long as it is accepted.
        let bytes = MODEL_V1;
        for cut in 0..bytes.len() {
            assert!(
                parse_sections(&bytes[..cut]).is_err(),
                "v1 truncation to {cut} bytes accepted"
            );
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0xFF;
            assert!(
                parse_sections(&flipped).is_err(),
                "v1 flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn nonzero_table_reserved_bytes_and_padding_are_rejected() {
        // Corruption is caught by the CRC; these sweeps target *forged*
        // files whose checksum was recomputed over crafted bytes.
        let bytes = sample().to_file_bytes();
        let refresh = |mut b: Vec<u8>| {
            let tail = b.len() - 4;
            let crc = crc32(&b[..tail]);
            b[tail..].copy_from_slice(&crc.to_le_bytes());
            b
        };
        // First entry's reserved bytes live at offset 8 + 4.
        let mut forged = bytes.clone();
        forged[12] = 1;
        let err = parse_sections(&refresh(forged)).unwrap_err();
        assert!(matches!(err, ModelIoError::Malformed { .. }), "{err}");
        // First section is 20 payload bytes (8-byte len prefix + 3 × u32),
        // so its pad is 4 bytes; flip one of them.
        let sections = parse_sections(&bytes).unwrap();
        let pad_offset =
            sections[0].1.as_ptr() as usize - bytes.as_ptr() as usize + sections[0].1.len();
        assert_ne!(pad_offset % 8, 0, "sample's first section needs padding");
        let mut forged = bytes.clone();
        forged[pad_offset] = 1;
        let err = parse_sections(&refresh(forged)).unwrap_err();
        assert!(matches!(err, ModelIoError::Malformed { .. }), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("model-io-container-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cogm");
        sample().save(&path).unwrap();
        assert_holds_sample(&std::fs::read(&path).unwrap());
        save_section(&path, *b"SOLO", &7u64).unwrap();
        assert_eq!(load_section::<u64, _>(&path, *b"SOLO").unwrap(), 7);
        std::fs::remove_file(&path).unwrap();
    }
}
