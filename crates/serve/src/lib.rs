//! Multi-session serving engine for the CognitiveArm reproduction.
//!
//! The single-user story ends at
//! [`CognitiveArm::run_for`](cognitive_arm::pipeline::CognitiveArm::run_for):
//! one subject, one label loop, one pool. This crate is the layer that
//! turns the reproduction into a *serving engine*, the shape a deployment
//! actually needs — PCDM-style, the fixed costs (threads, filters, trained
//! artifacts) are paid once and amortized across many sustained
//! low-latency sessions:
//!
//! * [`SessionManager`] — admits many sessions (each its own simulated
//!   subject + trained ensemble, typically loaded from a `.cogm` artifact
//!   via [`SessionSpec::from_saved`]) and advances them **concurrently**
//!   over one shared persistent-worker [`exec::ExecPool`]. Sessions that
//!   share an ensemble and label cadence — batch and streaming alike —
//!   form a micro-batch group that owns them and whose tick advances every
//!   member, classifies the windows they captured in one batched ensemble
//!   call and actuates in admission order. Each group is one work item;
//!   its inner parallel stages nest on the same pool. A removed session
//!   leaves its group and nothing behind, so churn never grows the tick.
//! * [`StreamSession`] — core's one session type
//!   ([`CognitiveArm`](cognitive_arm::pipeline::CognitiveArm)) under its
//!   serving name. The manager's batch sessions read the board directly;
//!   a streaming one, or a standalone one from
//!   [`SessionSpec::into_session`], reads it through the LSL-role wire
//!   (outlet → transport → inlet → dejitter). Groups drive the session's
//!   lockstep API: `advance`, `captured`, `apply_label_at` and `guard`.
//!
//! Everything is deterministic: per-session state is seeded, pool results
//! are index-ordered, and windows are classified in label order — so N
//! concurrent sessions produce bit-identical traces to N sequential
//! single-session runs, at any `COGARM_THREADS`, and a streamed session's
//! label trace is bit-identical to the same session read straight off the
//! board (`tests/tests/serving.rs` enforces both). A session whose segment
//! fails or panics is poisoned; its neighbours' traces are untouched.
//!
//! # Examples
//!
//! ```no_run
//! use serve::{SessionManager, SessionSpec};
//! use cognitive_arm::eval::{train_default_ensemble, DatasetBuilder, TrainBudget};
//! use cognitive_arm::pipeline::PipelineConfig;
//! use eeg::dataset::Protocol;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = DatasetBuilder::new(Protocol::quick(), 1, 7).build()?;
//! let ensemble = train_default_ensemble(&data, &TrainBudget::quick(), 1)?;
//!
//! let mut manager = SessionManager::with_shared_pool();
//! for subject in 0..8 {
//!     let spec = SessionSpec::new(PipelineConfig::default(), ensemble.clone(), subject)
//!         .with_normalization(data.zscores[0].clone());
//!     manager.add_streaming_session(spec)?;
//! }
//! let traces = manager.run_for(2.0)?; // all 8 sessions advance in parallel
//! println!("labels: {}", traces.iter().map(|t| t.labels.len()).sum::<usize>());
//! # Ok(())
//! # }
//! ```

pub mod manager;

mod error;

pub use cognitive_arm::pipeline::CognitiveArm as StreamSession;
pub use error::ServeError;
pub use manager::{ArtifactId, SessionId, SessionManager, SessionSpec};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
