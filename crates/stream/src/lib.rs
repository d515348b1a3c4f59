//! Streaming substrate: the Lab Streaming Layer's role, plus a UDP foil.
//!
//! The paper streams EEG with LSL "chosen for its low latency and high
//! sample rate … ensuring precise synchronization and time-stamping"
//! (Sec. III-A2) and compares it against raw UDP in Fig. 4. Real LSL speaks
//! TCP across machines; here both protocols are modelled as event-queue
//! transports with configurable latency, jitter and loss, which is exactly
//! the level at which Fig. 4's comparison lives:
//!
//! * [`TransportParams::lsl`](transport::TransportParams::lsl) — reliable and ordered (lost packets are
//!   retransmitted at a latency cost), every sample carries a source
//!   timestamp, and the inlet runs LSL-style clock-offset correction.
//! * [`TransportParams::udp`](transport::TransportParams::udp) — fire-and-forget: lower per-packet
//!   overhead and base latency, but losses are silent, ordering is not
//!   guaranteed and there are no timestamps to synchronize with.
//! * [`compare`] — measures the five axes of Fig. 4 (latency, sync quality,
//!   effective sample rate, reliability, bandwidth efficiency) on identical
//!   traffic.
//!
//! Time is simulated (see [`clock::SimClock`]): deterministic, seedable and
//! independent of the host scheduler.

pub mod clock;
pub mod compare;
pub mod dejitter;
pub mod inlet;
pub mod outlet;
pub mod pool;
pub mod transport;

mod error;

pub use error::StreamError;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, StreamError>;
