//! Deterministic parallel execution substrate for the CognitiveArm
//! workspace.
//!
//! The pipeline has three embarrassingly parallel hot paths — per-channel
//! zero-phase filtering, per-tree forest training, and per-genome fitness
//! evaluation — and one hard requirement: **bit-identical results for any
//! thread count**. This crate provides the small API the rest of the
//! workspace builds on:
//!
//! * [`ExecPool`] — a persistent-worker thread pool (long-lived threads fed
//!   from a task queue, so a parallel map costs an enqueue instead of a
//!   spawn/join cycle) whose [`ExecPool::par_map`] /
//!   [`ExecPool::par_map_indexed`] / [`ExecPool::par_map_range`] /
//!   [`ExecPool::par_map_mut`] collect results **in input order**, so a
//!   parallel map is indistinguishable from its sequential counterpart.
//!   The calling thread participates in its own task, which makes nested
//!   and concurrent maps on one pool deadlock-free — the property the
//!   multi-session serving layer builds on.
//! * [`split_seed`] — a SplitMix64-style per-index seed derivation, so every
//!   parallel work item owns an RNG stream that depends only on its index,
//!   never on scheduling.
//! * [`shared`] — the process-wide default pool, sized from the
//!   `COGARM_THREADS` environment variable (falling back to
//!   `std::thread::available_parallelism`).
//!
//! Determinism holds because (a) each work item is a pure function of the
//! input slice and its index, (b) per-item RNGs are index-derived, and
//! (c) results are reassembled in input order regardless of which worker
//! finished first.
//!
//! # Examples
//!
//! ```
//! use exec::ExecPool;
//!
//! let pool = ExecPool::new(4);
//! let squares = pool.par_map(&[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod pool;
mod seed;

pub use pool::{shared, ExecPool, THREADS_ENV};
pub use seed::split_seed;
