//! Arena-backed weight storage: owned-or-shared vectors the inference
//! kernels read through.
//!
//! Every weight payload in the runtime model ([`crate::tensor::Tensor`]
//! data, CSR arrays, int8 matrices) is an [`ArenaVec`] — a `Vec<T>` that
//! can alternatively *borrow* its elements from a shared, reference-counted
//! arena (a memory-mapped `.cogm` image, or any `Arc`-owned buffer). The
//! two cases are indistinguishable to readers: `ArenaVec` derefs to `[T]`,
//! so kernels, validators and tests see plain slices either way.
//!
//! The fleet-scale property this buys: cloning a shared `ArenaVec` bumps a
//! refcount instead of copying elements, so N sessions of one artifact
//! share a single copy of the weights — per-session memory is scratch
//! only. Owned vectors keep today's deep-copy semantics, so freshly
//! trained (non-image) models behave exactly as before.
//!
//! Mutation goes through [`ArenaVec::make_mut`], which is copy-on-write:
//! a shared vector is detached into owned storage on first write, so no
//! writer can ever touch bytes another session (or the read-only mapping
//! itself) is reading.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The arena owner type: any reference-counted buffer that keeps the
/// borrowed elements alive (a weight image, an `Arc<[T]>`, …).
pub type ArenaOwner = Arc<dyn Any + Send + Sync>;

enum Repr<T> {
    /// Plain owned storage — semantics identical to `Vec<T>`.
    Owned(Vec<T>),
    /// Elements borrowed from a reference-counted arena. `ptr/len` point
    /// into memory `owner` keeps alive and immutable for its lifetime.
    Shared {
        owner: ArenaOwner,
        ptr: *const T,
        len: usize,
    },
}

/// A contiguous run of `T`: owned like a `Vec`, or borrowed from a shared
/// reference-counted arena (see module docs).
pub struct ArenaVec<T> {
    repr: Repr<T>,
}

// SAFETY: a Shared repr is an immutable view into memory kept alive by an
// `Arc<dyn Any + Send + Sync>`; with `T: Send + Sync` the view is as
// thread-safe as `&[T]` plus the Arc handle itself.
unsafe impl<T: Send + Sync> Send for ArenaVec<T> {}
unsafe impl<T: Send + Sync> Sync for ArenaVec<T> {}

impl<T> ArenaVec<T> {
    /// An empty owned vector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            repr: Repr::Owned(Vec::new()),
        }
    }

    /// Wraps a slice of memory owned (and kept alive + immutable) by
    /// `owner`.
    ///
    /// # Safety
    ///
    /// `slice` must point into memory that `owner` keeps valid and
    /// unmodified for as long as `owner` has any strong reference — the
    /// returned vector holds a clone of `owner` and reads the slice for
    /// its whole lifetime.
    #[must_use]
    pub unsafe fn from_owner(owner: ArenaOwner, slice: &[T]) -> Self {
        Self {
            repr: Repr::Shared {
                owner,
                ptr: slice.as_ptr(),
                len: slice.len(),
            },
        }
    }

    /// Copies `values` once into a fresh shared arena (`Arc<[T]>`), so
    /// subsequent clones are refcount bumps instead of deep copies — for
    /// decoded payloads that could not borrow the image directly.
    #[must_use]
    pub fn shared_copy(values: &[T]) -> Self
    where
        T: Clone + Send + Sync + 'static,
    {
        let arc: Arc<[T]> = values.iter().cloned().collect();
        let slice: &[T] = &arc;
        let (ptr, len) = (slice.as_ptr(), slice.len());
        Self {
            repr: Repr::Shared {
                owner: Arc::new(arc),
                ptr,
                len,
            },
        }
    }

    /// The elements as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            // SAFETY: `from_owner`'s contract — the owner keeps ptr/len
            // valid and immutable while we hold it.
            Repr::Shared { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Whether the elements live in a shared arena (clones are refcount
    /// bumps, not copies).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        matches!(self.repr, Repr::Shared { .. })
    }

    /// Mutable access, copy-on-write: a shared vector detaches into owned
    /// storage first, so the arena is never written through.
    pub fn make_mut(&mut self) -> &mut [T]
    where
        T: Clone,
    {
        if self.is_shared() {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Shared { .. } => unreachable!("detached above"),
        }
    }

    /// The elements as an owned `Vec` (one copy when shared).
    #[must_use]
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        match self.repr {
            Repr::Owned(v) => v,
            Repr::Shared { .. } => self.as_slice().to_vec(),
        }
    }
}

impl<T> Default for ArenaVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Deref for ArenaVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for ArenaVec<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            repr: Repr::Owned(v),
        }
    }
}

impl<T: Clone> Clone for ArenaVec<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Self {
                repr: Repr::Owned(v.clone()),
            },
            Repr::Shared { owner, ptr, len } => Self {
                repr: Repr::Shared {
                    owner: Arc::clone(owner),
                    ptr: *ptr,
                    len: *len,
                },
            },
        }
    }
}

/// Value equality over the elements — an owned vector and a shared view
/// with the same contents are equal (structural ensemble equality, which
/// serving admission relies on, must not depend on storage). Two views of
/// the same shared run (same pointer, same length) are equal without
/// reading an element, so clones of one artifact compare in O(1); such
/// views compare equal even when the run holds NaN.
impl<T: PartialEq> PartialEq for ArenaVec<T> {
    fn eq(&self, other: &Self) -> bool {
        if let (Repr::Shared { ptr: a, len: m, .. }, Repr::Shared { ptr: b, len: n, .. }) =
            (&self.repr, &other.repr)
        {
            if a == b && m == n {
                return true;
            }
        }
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq + Eq> Eq for ArenaVec<T> {}

impl<T: fmt::Debug> fmt::Debug for ArenaVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T, I: std::slice::SliceIndex<[T]>> std::ops::Index<I> for ArenaVec<T> {
    type Output = I::Output;

    fn index(&self, index: I) -> &I::Output {
        &self.as_slice()[index]
    }
}

impl<T> FromIterator<T> for ArenaVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl<'a, T> IntoIterator for &'a ArenaVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trip_behaves_like_vec() {
        let v: ArenaVec<f32> = vec![1.0, 2.0, 3.0].into();
        assert!(!v.is_shared());
        assert_eq!(v.len(), 3);
        assert_eq!(v[1], 2.0);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(v.clone().into_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn shared_view_borrows_the_owner() {
        let backing: Arc<Vec<u32>> = Arc::new((0..100).collect());
        let v = unsafe { ArenaVec::from_owner(backing.clone() as ArenaOwner, &backing[10..20]) };
        assert!(v.is_shared());
        assert_eq!(v.as_slice(), &(10..20).collect::<Vec<u32>>()[..]);
        // Clones bump the refcount instead of copying elements.
        let before = Arc::strong_count(&backing);
        let c = v.clone();
        assert!(c.is_shared());
        assert_eq!(Arc::strong_count(&backing), before + 1);
        assert_eq!(c, v);
    }

    #[test]
    fn shared_survives_dropping_the_original_handle() {
        let v = {
            let backing: Arc<Vec<u8>> = Arc::new(vec![7, 8, 9]);
            unsafe { ArenaVec::from_owner(backing.clone() as ArenaOwner, &backing[..]) }
        };
        assert_eq!(v.as_slice(), &[7, 8, 9]);
    }

    #[test]
    fn make_mut_detaches_shared_storage() {
        let backing: Arc<Vec<i8>> = Arc::new(vec![1, 2, 3]);
        let mut v = unsafe { ArenaVec::from_owner(backing.clone() as ArenaOwner, &backing[..]) };
        v.make_mut()[0] = 42;
        assert!(!v.is_shared(), "write must detach from the arena");
        assert_eq!(v.as_slice(), &[42, 2, 3]);
        assert_eq!(backing[0], 1, "the arena itself is never written");
    }

    #[test]
    fn shared_copy_clones_are_refcount_bumps() {
        let v = ArenaVec::shared_copy(&[1.0f32, 2.0]);
        assert!(v.is_shared());
        let c = v.clone();
        assert_eq!(c.as_slice().as_ptr(), v.as_slice().as_ptr());
    }

    #[test]
    fn equality_ignores_storage() {
        let owned: ArenaVec<f32> = vec![1.0, 2.0].into();
        let shared = ArenaVec::shared_copy(&[1.0f32, 2.0]);
        assert_eq!(owned, shared);
    }

    #[test]
    fn a_shared_view_equals_its_clone_and_an_equal_owned_copy() {
        let shared = ArenaVec::shared_copy(&[1.0f32, 2.0, 3.0]);
        assert_eq!(shared, shared.clone());
        let owned: ArenaVec<f32> = vec![1.0, 2.0, 3.0].into();
        assert_eq!(shared, owned);
        let changed: ArenaVec<f32> = vec![1.0, 2.5, 3.0].into();
        assert_ne!(shared, changed);
    }

    #[test]
    fn views_of_one_run_are_equal_even_over_nan() {
        // The pointer short-cut: one buffer viewed twice is one value.
        let shared = ArenaVec::shared_copy(&[f32::NAN, 1.0]);
        assert_eq!(shared, shared.clone());
        // A separate copy compares by value, where NaN is never equal.
        assert_ne!(shared, ArenaVec::shared_copy(&[f32::NAN, 1.0]));
    }
}
