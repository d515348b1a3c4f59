//! Jetson-side safety envelope (Sec. IV-A8).
//!
//! Every joint command passes through this layer before reaching the serial
//! link: joint-range clamping, a per-tick velocity limit ("avoiding rapid
//! or unexpected movements"), and a latching emergency stop.

use serde::{Deserialize, Serialize};

use crate::kinematics::Joint;
use crate::{ArmError, Result};

/// Safety configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafetyConfig {
    /// Maximum commanded change per control tick, in degrees (or grip %).
    pub max_step: f64,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        Self { max_step: 15.0 }
    }
}

/// The safety gate: tracks the last commanded value per joint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafetyGate {
    config: SafetyConfig,
    last: [f64; 3],
    estopped: bool,
    /// Commands modified by clamping (diagnostics).
    pub clamps: u64,
}

impl SafetyGate {
    /// Creates a gate assuming the arm starts at mid-range.
    #[must_use]
    pub fn new(config: SafetyConfig) -> Self {
        let last = [
            mid(Joint::Lift.range()),
            mid(Joint::Wrist.range()),
            mid(Joint::Grip.range()),
        ];
        Self {
            config,
            last,
            estopped: false,
            clamps: 0,
        }
    }

    /// Filters a joint command, returning the safe value to send.
    /// `±Inf` clamps to the joint's range like any out-of-range command.
    ///
    /// # Errors
    ///
    /// Returns [`ArmError::EmergencyStopped`] while the e-stop is latched,
    /// and [`ArmError::NonFiniteCommand`] for a NaN command, which leaves
    /// the last safe command in place: a stored NaN would defeat the rate
    /// limit, since every comparison against NaN is false.
    pub fn filter(&mut self, joint: Joint, value: f64) -> Result<f64> {
        if self.estopped {
            return Err(ArmError::EmergencyStopped);
        }
        if value.is_nan() {
            return Err(ArmError::NonFiniteCommand(joint));
        }
        let idx = joint_index(joint);
        let (lo, hi) = joint.range();
        let mut v = value;
        if v < lo || v > hi {
            v = v.clamp(lo, hi);
            self.clamps += 1;
        }
        let prev = self.last[idx];
        let step = self.config.max_step;
        if (v - prev).abs() > step {
            v = prev + (v - prev).clamp(-step, step);
            self.clamps += 1;
        }
        self.last[idx] = v;
        Ok(v)
    }

    /// Latches the emergency stop; all further commands fail.
    pub fn emergency_stop(&mut self) {
        self.estopped = true;
    }

    /// Clears the e-stop (operator action).
    pub fn reset(&mut self) {
        self.estopped = false;
    }

    /// Whether the e-stop is latched.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.estopped
    }

    /// The last commanded value for a joint.
    #[must_use]
    pub fn last_command(&self, joint: Joint) -> f64 {
        self.last[joint_index(joint)]
    }
}

fn joint_index(j: Joint) -> usize {
    match j {
        Joint::Lift => 0,
        Joint::Wrist => 1,
        Joint::Grip => 2,
    }
}

fn mid((lo, hi): (f64, f64)) -> f64 {
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_commands_clamp() {
        let mut gate = SafetyGate::new(SafetyConfig { max_step: 1000.0 });
        let v = gate.filter(Joint::Lift, 500.0).unwrap();
        assert_eq!(v, 120.0);
        assert_eq!(gate.clamps, 1);
    }

    #[test]
    fn rate_limit_spreads_large_moves() {
        let mut gate = SafetyGate::new(SafetyConfig { max_step: 10.0 });
        // From mid-range (60) to 120: limited to +10 per tick.
        let v1 = gate.filter(Joint::Lift, 120.0).unwrap();
        assert_eq!(v1, 70.0);
        let v2 = gate.filter(Joint::Lift, 120.0).unwrap();
        assert_eq!(v2, 80.0);
    }

    #[test]
    fn estop_latches_until_reset() {
        let mut gate = SafetyGate::new(SafetyConfig::default());
        gate.emergency_stop();
        assert!(matches!(
            gate.filter(Joint::Grip, 50.0),
            Err(ArmError::EmergencyStopped)
        ));
        assert!(gate.is_stopped());
        gate.reset();
        assert!(gate.filter(Joint::Grip, 50.0).is_ok());
    }

    #[test]
    fn nan_commands_are_refused_and_keep_the_last_safe_command() {
        let mut gate = SafetyGate::new(SafetyConfig { max_step: 10.0 });
        let before = gate.last_command(Joint::Lift);
        assert_eq!(
            gate.filter(Joint::Lift, f64::NAN),
            Err(ArmError::NonFiniteCommand(Joint::Lift))
        );
        assert_eq!(gate.last_command(Joint::Lift).to_bits(), before.to_bits());
        assert_eq!(gate.clamps, 0);
        // The rate limit still holds for the next large move.
        assert_eq!(gate.filter(Joint::Lift, 120.0).unwrap(), before + 10.0);
    }

    #[test]
    fn infinite_commands_clamp_and_rate_limit() {
        let mut gate = SafetyGate::new(SafetyConfig { max_step: 10.0 });
        let start = gate.last_command(Joint::Wrist);
        assert_eq!(
            gate.filter(Joint::Wrist, f64::INFINITY).unwrap(),
            start + 10.0
        );
        assert_eq!(gate.filter(Joint::Wrist, f64::NEG_INFINITY).unwrap(), start);
        assert_eq!(gate.last_command(Joint::Wrist), start);
        assert_eq!(
            gate.clamps, 4,
            "each command clamps to range, then rate-limits"
        );
    }

    #[test]
    fn small_moves_pass_unchanged() {
        let mut gate = SafetyGate::new(SafetyConfig { max_step: 15.0 });
        let start = gate.last_command(Joint::Wrist);
        let v = gate.filter(Joint::Wrist, start + 5.0).unwrap();
        assert_eq!(v, start + 5.0);
        assert_eq!(gate.clamps, 0);
    }
}
