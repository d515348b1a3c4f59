use std::fmt;

use crate::kinematics::Joint;

/// Errors produced by the prosthetic-arm substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArmError {
    /// A servo id outside the five installed servos.
    UnknownServo(u8),
    /// A command angle outside the servo's mechanical range.
    AngleOutOfRange {
        /// Servo id.
        servo: u8,
        /// Commanded angle in degrees.
        angle: f64,
        /// Allowed range `(min, max)`.
        range: (f64, f64),
    },
    /// A serial packet failed checksum or framing.
    BadPacket(&'static str),
    /// Calibration could not converge.
    CalibrationFailed {
        /// Servo id.
        servo: u8,
        /// Residual error in degrees.
        residual: f64,
    },
    /// The emergency stop is latched; motion commands are refused.
    EmergencyStopped,
    /// A joint command was NaN; the safety gate refused it and kept the
    /// last safe command.
    NonFiniteCommand(Joint),
}

impl fmt::Display for ArmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmError::UnknownServo(id) => write!(f, "unknown servo id {id}"),
            ArmError::AngleOutOfRange {
                servo,
                angle,
                range,
            } => write!(
                f,
                "angle {angle}° outside [{}, {}] for servo {servo}",
                range.0, range.1
            ),
            ArmError::BadPacket(why) => write!(f, "bad serial packet: {why}"),
            ArmError::CalibrationFailed { servo, residual } => {
                write!(f, "calibration failed for servo {servo}: residual {residual}°")
            }
            ArmError::EmergencyStopped => write!(f, "emergency stop is latched"),
            ArmError::NonFiniteCommand(joint) => {
                write!(f, "NaN command for {joint:?} refused")
            }
        }
    }
}

impl std::error::Error for ArmError {}
