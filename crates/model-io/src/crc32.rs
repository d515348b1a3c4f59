//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.
//!
//! The container appends this checksum over every preceding byte, so any
//! single-byte corruption — and any burst shorter than 32 bits — is caught
//! before the section payloads are even parsed.

/// Reflected polynomial for CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// The 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Incremental CRC-32: feed chunks with [`Crc32::update`], read the digest
/// with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    crc: u32,
}

impl Crc32 {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Self {
        Self { crc: 0xFFFF_FFFF }
    }

    /// Folds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.crc = (self.crc >> 8) ^ TABLE[((self.crc ^ u32::from(byte)) & 0xFF) as usize];
        }
    }

    /// The final checksum.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.crc
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the CRC-32 of `data` in one shot.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut digest = Crc32::new();
    digest.update(data);
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_digest_matches_one_shot_for_any_chunking() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let reference = crc32(&data);
        for chunk in [1, 3, 7, 64, 1000] {
            let mut digest = Crc32::new();
            for piece in data.chunks(chunk) {
                digest.update(piece);
            }
            assert_eq!(digest.finish(), reference, "chunk size {chunk}");
        }
    }

    #[test]
    fn single_byte_flip_changes_checksum() {
        let base = b"CognitiveArm model artifact".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0xFF;
            assert_ne!(crc32(&flipped), reference, "flip at {i} undetected");
        }
    }
}
