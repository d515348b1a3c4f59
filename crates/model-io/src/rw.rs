//! The [`Persist`] trait, the [`ViewCursor`] every reader decodes from,
//! and the little-endian primitive codecs.
//!
//! Every multi-byte value in a `.cogm` file is little-endian. Writers
//! stream into any [`Write`]; readers decode from a bounds-checked cursor
//! over bytes already in memory (a [`crate::WeightImage`] section, or a
//! bare payload handed to [`from_bytes`]). Collection lengths are written
//! as `u64` and never trusted for allocation: every read is checked
//! against the bytes actually present, and a reader reserves at most
//! `CAP_HINT` elements up front, so a forged multi-gigabyte length runs
//! the cursor dry and returns [`ModelIoError::Truncated`] after at most a
//! small buffer.

use std::io::Write;

use ml::arena::{ArenaOwner, ArenaVec};

use crate::error::{ModelIoError, Result};

/// Upper bound on the capacity a reader pre-reserves for one collection.
const CAP_HINT: usize = 4096;

/// Sanity ceiling on any single length field (1 Ti-elements); anything
/// larger is a corrupt or hostile file, not a model.
const MAX_LEN: u64 = 1 << 40;

/// A type that can serialize itself to a byte stream and totally
/// deserialize itself from a [`ViewCursor`].
///
/// `read_from` implementations must be *total*: any byte sequence either
/// produces a value or a typed [`ModelIoError`] — never a panic, an
/// unbounded allocation, or an infinite loop.
pub trait Persist: Sized {
    /// Writes the value to `w` in the crate's little-endian encoding.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; [`ModelIoError::UnsupportedMember`] for
    /// the one non-persistable value (custom ensemble members).
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()>;

    /// Reads a value of this type from `cur`.
    ///
    /// # Errors
    ///
    /// Every malformed input yields a typed [`ModelIoError`].
    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self>;
}

/// A bounds-checked cursor over an in-memory little-endian image.
///
/// With `ViewCursor::with_arena` the cursor also carries a
/// reference-counted owner of the bytes, and bulk `f32`/`i8` payloads
/// decode as [`ArenaVec`]s that **borrow** the image instead of copying
/// it — the shared-weight path every [`crate::WeightImage`] read takes.
/// Without an owner (`ViewCursor::new`) the same decoders copy into
/// owned storage.
pub struct ViewCursor<'a> {
    buf: &'a [u8],
    arena: Option<ArenaOwner>,
}

impl<'a> ViewCursor<'a> {
    /// A cursor over `buf`; bulk payloads decode as owned copies.
    #[must_use]
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, arena: None }
    }

    /// A cursor over `buf` whose bulk payloads borrow from `owner`'s
    /// memory where alignment permits.
    ///
    /// # Safety
    ///
    /// `buf` must point into memory that `owner` keeps alive and
    /// unmodified for as long as `owner` has any strong reference —
    /// decoded values hold clones of `owner` and read those bytes for
    /// their whole lifetime.
    #[must_use]
    pub(crate) unsafe fn with_arena(buf: &'a [u8], owner: ArenaOwner) -> Self {
        Self {
            buf,
            arena: Some(owner),
        }
    }

    /// Decodes one `T` that must span every remaining byte — a section
    /// payload is exactly one value.
    ///
    /// # Errors
    ///
    /// The value's typed decode errors; [`ModelIoError::Malformed`] when
    /// trailing bytes remain.
    pub(crate) fn decode_all<T: Persist>(mut self) -> Result<T> {
        let value = T::read_from(&mut self)?;
        if !self.buf.is_empty() {
            return Err(ModelIoError::malformed(format!(
                "{} trailing bytes after value",
                self.buf.len()
            )));
        }
        Ok(value)
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(ModelIoError::Truncated { context });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N]> {
        Ok(self.take(N, context)?.try_into().expect("length checked"))
    }

    /// Reads a `u64` collection length and bounds-checks it.
    pub(crate) fn len_prefix(&mut self, context: &'static str) -> Result<usize> {
        let len = u64::from_le_bytes(self.array(context)?);
        if len > MAX_LEN {
            return Err(ModelIoError::LengthOverflow { context, len });
        }
        usize::try_from(len).map_err(|_| ModelIoError::LengthOverflow { context, len })
    }

    /// Wraps an element-wise decoded vector: promoted into a fresh shared
    /// arena when decoding against one (clones become refcount bumps),
    /// plain owned storage otherwise.
    pub(crate) fn share<T: Clone + Send + Sync + 'static>(&self, v: Vec<T>) -> ArenaVec<T> {
        if self.arena.is_some() {
            ArenaVec::shared_copy(&v)
        } else {
            v.into()
        }
    }

    /// `n` little-endian `f32`s: borrowed from the image when the cursor
    /// carries an arena and the run is 4-aligned on a little-endian host
    /// (an alignment-checked reinterpretation), copied bit-exactly
    /// otherwise.
    pub(crate) fn f32_arena(&mut self, n: usize, context: &'static str) -> Result<ArenaVec<f32>> {
        let bytes = n
            .checked_mul(4)
            .ok_or(ModelIoError::LengthOverflow {
                context,
                len: n as u64,
            })
            .and_then(|b| self.take(b, context))?;
        #[cfg(target_endian = "little")]
        if let Some(owner) = &self.arena {
            // SAFETY: `f32` has no invalid bit patterns and `align_to`
            // only yields the middle when it is correctly aligned; on a
            // little-endian host the byte order already matches.
            let (head, mid, tail) = unsafe { bytes.align_to::<f32>() };
            if head.is_empty() && tail.is_empty() {
                // SAFETY: the `with_arena` contract — `owner` keeps the
                // image bytes `mid` points into alive and immutable.
                return Ok(unsafe { ArenaVec::from_owner(owner.clone(), mid) });
            }
        }
        let values = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk size")))
            .collect();
        Ok(self.share(values))
    }

    /// `n` `i8`s: borrowed whenever the cursor carries an arena (`i8` has
    /// alignment 1, so it always can), copied otherwise.
    pub(crate) fn i8_arena(&mut self, n: usize, context: &'static str) -> Result<ArenaVec<i8>> {
        let bytes = self.take(n, context)?;
        // SAFETY: `i8` and `u8` share size and alignment and have no
        // invalid bit patterns; two's complement keeps every value.
        let values = unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<i8>(), n) };
        match &self.arena {
            // SAFETY: the `with_arena` contract — `owner` keeps the image
            // bytes `values` points into alive and immutable.
            Some(owner) => Ok(unsafe { ArenaVec::from_owner(owner.clone(), values) }),
            None => Ok(values.to_vec().into()),
        }
    }
}

macro_rules! persist_le_bytes {
    ($($ty:ty),+) => {$(
        impl Persist for $ty {
            fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
                w.write_all(&self.to_le_bytes())?;
                Ok(())
            }

            fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
                Ok(<$ty>::from_le_bytes(cur.array(stringify!($ty))?))
            }
        }
    )+};
}

persist_le_bytes!(u8, u16, u32, u64, i8, f32, f64);

impl Persist for usize {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        (*self as u64).write_to(w)
    }

    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
        let v = u64::read_from(cur)?;
        usize::try_from(v).map_err(|_| ModelIoError::LengthOverflow {
            context: "usize",
            len: v,
        })
    }
}

impl Persist for bool {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        u8::from(*self).write_to(w)
    }

    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(cur)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ModelIoError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl<T: Persist> Persist for Option<T> {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            None => 0u8.write_to(w),
            Some(v) => {
                1u8.write_to(w)?;
                v.write_to(w)
            }
        }
    }

    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(cur)? {
            0 => Ok(None),
            1 => Ok(Some(T::read_from(cur)?)),
            tag => Err(ModelIoError::BadTag {
                context: "Option",
                tag,
            }),
        }
    }
}

/// Writes a length-prefixed sequence without cloning (the slice-borrowing
/// counterpart of `Vec<T>::write_to`; accessor-backed types use it to
/// avoid materializing owned copies of their weight buffers).
pub fn write_slice<T: Persist, W: Write>(items: &[T], w: &mut W) -> Result<()> {
    (items.len() as u64).write_to(w)?;
    for item in items {
        item.write_to(w)?;
    }
    Ok(())
}

impl<T: Persist> Persist for Vec<T> {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        write_slice(self, w)
    }

    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
        let len = cur.len_prefix("Vec length")?;
        let mut out = Vec::with_capacity(len.min(CAP_HINT));
        for _ in 0..len {
            out.push(T::read_from(cur)?);
        }
        Ok(out)
    }
}

/// Fixed-size array of words (RNG stream positions); no length prefix.
impl Persist for [u64; 4] {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        for word in self {
            word.write_to(w)?;
        }
        Ok(())
    }

    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
        let mut out = [0u64; 4];
        for word in &mut out {
            *word = u64::read_from(cur)?;
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.0.write_to(w)?;
        self.1.write_to(w)
    }

    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
        Ok((A::read_from(cur)?, B::read_from(cur)?))
    }
}

impl Persist for String {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        write_slice(self.as_bytes(), w)
    }

    fn read_from(cur: &mut ViewCursor<'_>) -> Result<Self> {
        let bytes = Vec::<u8>::read_from(cur)?;
        String::from_utf8(bytes).map_err(|_| ModelIoError::malformed("non-UTF-8 string"))
    }
}

/// Serializes any [`Persist`] value to a fresh byte buffer.
///
/// # Errors
///
/// Propagates the value's `write_to` failure.
pub fn to_bytes<T: Persist>(value: &T) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    value.write_to(&mut buf)?;
    Ok(buf)
}

/// Deserializes a [`Persist`] value from a bare payload (no `.cogm`
/// envelope), requiring the slice to be fully consumed. Bulk payloads are
/// copied into owned storage; see [`crate::WeightImage::get`] for the
/// borrowing read.
///
/// # Errors
///
/// Typed errors for malformed bytes; [`ModelIoError::Malformed`] when
/// trailing bytes remain.
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T> {
    ViewCursor::new(bytes).decode_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value).unwrap();
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0xABu8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-7i8);
        round_trip(1.5f32);
        round_trip(-0.0f64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(Some(42u32));
        round_trip(Option::<u32>::None);
        round_trip(vec![1u32, 2, 3]);
        round_trip((3usize, String::from("héllo")));
    }

    #[test]
    fn nan_payload_is_bit_exact() {
        let weird = f32::from_bits(0x7FC0_1234);
        let bytes = to_bytes(&weird).unwrap();
        let back: f32 = from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn forged_length_does_not_allocate() {
        // Claims 2^39 elements but carries none: must error, not OOM.
        let mut bytes = Vec::new();
        (1u64 << 39).write_to(&mut bytes).unwrap();
        let err = from_bytes::<Vec<u8>>(&bytes).unwrap_err();
        assert!(matches!(err, ModelIoError::Truncated { .. }), "{err}");
        // Beyond the sanity ceiling: rejected before any read loop.
        let mut bytes = Vec::new();
        (1u64 << 41).write_to(&mut bytes).unwrap();
        let err = from_bytes::<Vec<u8>>(&bytes).unwrap_err();
        assert!(matches!(err, ModelIoError::LengthOverflow { .. }), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u32>(&bytes).unwrap_err(),
            ModelIoError::Malformed { .. }
        ));
    }

    #[test]
    fn bad_tags_are_typed() {
        assert!(matches!(
            from_bytes::<bool>(&[9]).unwrap_err(),
            ModelIoError::BadTag { .. }
        ));
        assert!(matches!(
            from_bytes::<Option<u8>>(&[2]).unwrap_err(),
            ModelIoError::BadTag { .. }
        ));
    }

    /// A cursor over `bytes` copied to an 8-aligned base (as a mapping or
    /// a weight image provides), starting `shift` bytes in, carrying the
    /// buffer as its arena owner.
    fn with_arena_cursor<T>(
        bytes: &[u8],
        shift: usize,
        check: impl FnOnce(ViewCursor<'_>, &[u8]) -> T,
    ) -> T {
        use crate::mmap::AlignedBytes;
        use std::sync::Arc;
        let mut shifted = vec![0u8; shift];
        shifted.extend_from_slice(bytes);
        let image = Arc::new(AlignedBytes::copy_from(&shifted));
        let owner: ArenaOwner = image.clone();
        let view = &image[shift..];
        // SAFETY: `view` points into `image`, which `owner` keeps alive,
        // and nothing writes to it.
        check(unsafe { ViewCursor::with_arena(view, owner) }, view)
    }

    #[test]
    fn aligned_f32_payloads_borrow() {
        // 8-byte length prefix then floats: on an 8-aligned image the
        // floats sit on a 4-byte boundary and must borrow the image.
        let values = vec![1.0f32, -2.5, 3.25];
        with_arena_cursor(&to_bytes(&values).unwrap(), 0, |mut cur, image| {
            let n = cur.len_prefix("test").unwrap();
            let got = cur.f32_arena(n, "test").unwrap();
            assert_eq!(got.as_slice(), values.as_slice());
            #[cfg(target_endian = "little")]
            assert_eq!(
                got.as_ptr(),
                image[8..].as_ptr().cast(),
                "aligned payload was copied"
            );
        });
    }

    #[test]
    fn misaligned_f32_payloads_copy_correctly() {
        let values = vec![0.5f32, f32::from_bits(0x7FC0_1234), -1.0];
        // One byte past an 8-aligned base: the floats are misaligned, so
        // the copying fallback must run — with bit-exact values.
        with_arena_cursor(&to_bytes(&values).unwrap(), 1, |mut cur, image| {
            let n = cur.len_prefix("test").unwrap();
            let got = cur.f32_arena(n, "test").unwrap();
            assert_ne!(
                got.as_ptr(),
                image[8..].as_ptr().cast(),
                "misaligned payload borrowed"
            );
            for (a, b) in got.iter().zip(&values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        });
    }

    #[test]
    fn arena_tensor_round_trips_bit_exactly() {
        use ml::tensor::Tensor;
        use rand::{rngs::StdRng, SeedableRng};
        let t = Tensor::uniform(vec![4, 7], 1.0, &mut StdRng::seed_from_u64(3));
        let back: Tensor = with_arena_cursor(&to_bytes(&t).unwrap(), 0, |cur, _| {
            cur.decode_all().unwrap()
        });
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = to_bytes(&vec![1.0f32, 2.0, 3.0]).unwrap();
        for cut in 0..bytes.len() - 1 {
            let err = from_bytes::<Vec<f32>>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ModelIoError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }
}
