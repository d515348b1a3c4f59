//! CognitiveArm: the end-to-end real-time EEG-to-prosthetic control system.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: EEG acquisition ([`eeg`]) streams through the DSP
//! front end ([`dsp`]), windows are classified by the compiled DL engine
//! ([`ml`]) at 15 Hz, voice commands ([`asr`]) multiplex which degree of
//! freedom the labels drive, and the controller actuates the simulated
//! prosthesis ([`arm`]) over its serial protocol — all with explicit,
//! deterministic simulated time and per-stage latency accounting. The
//! parallel hot paths (per-channel filtering, per-tree forest training,
//! ensemble-member inference, per-genome search evaluation) run on the
//! deterministic [`exec`] substrate: thread count — set by `COGARM_THREADS`
//! for the shared pool, or by the explicit pool a session is built on
//! ([`pipeline::CognitiveArm::with_pool`]) — changes wall-clock time, never
//! outputs.
//!
//! * [`preprocess`] — the streaming (causal) and offline (zero-phase)
//!   preprocessing chains of Sec. III-A3.
//! * [`eval`] — dataset preparation, genome training and the
//!   leave-one-subject-out evaluation harness of Sec. III-D; implements
//!   [`evo::Evaluator`] so the evolutionary search can drive real training.
//! * [`pipeline`] — the real-time loop of Sec. IV-A (15 Hz action labels,
//!   voice-mode multiplexing, serial actuation) with latency tracking, run
//!   by the one session type, [`pipeline::CognitiveArm`], whether it reads
//!   the board directly or through a network wire; the serving engine
//!   drives the same sessions. [`pipeline::PipelineConfig::checked_chain`]
//!   is the one check every session spec passes.
//! * [`mux`] — the VAD-gated voice-command path of Sec. III-F.
//! * [`session`] — the closed-loop real-world validation protocol of
//!   Sec. IV-A5 (the paper's 19-out-of-20 sessions result).
//!
//! # Examples
//!
//! ```no_run
//! use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig};
//! use cognitive_arm::eval::{DatasetBuilder, TrainBudget};
//! use eeg::dataset::Protocol;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train a tiny system and run it closed-loop for two seconds.
//! let data = DatasetBuilder::new(Protocol::quick(), 2, 7).build()?;
//! let ensemble = cognitive_arm::eval::train_default_ensemble(&data, &TrainBudget::quick(), 1)?;
//! let mut system = CognitiveArm::new(PipelineConfig::default(), ensemble, 0);
//! let trace = system.run_for(2.0)?;
//! println!("labels emitted: {}", trace.labels.len());
//! # Ok(())
//! # }
//! ```

pub mod eval;
pub mod mux;
pub mod pipeline;
pub mod preprocess;
pub mod session;

mod error;

pub use error::{panic_message, CoreError};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
