//! Closed-loop real-world validation (Sec. IV-A5).
//!
//! "Participants independently controlled the arm's movements during test
//! sessions, successfully translating their intended actions in 19 out of
//! 20 sessions." Each simulated session: the subject holds one intention
//! (left or right) for a few seconds; the session succeeds when the active
//! joint moved in the intended direction by a meaningful amount.

use eeg::types::Action;
use serde::{Deserialize, Serialize};

use crate::pipeline::CognitiveArm;
use crate::Result;

/// Validation protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Number of sessions (paper: 20).
    pub trials: usize,
    /// Seconds the intention is held per session.
    pub trial_secs: f64,
    /// Idle settling time between sessions.
    pub rest_secs: f64,
    /// Minimum joint displacement (degrees / grip %) to count as success.
    pub min_move: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            trials: 20,
            trial_secs: 4.0,
            rest_secs: 1.5,
            min_move: 2.0,
        }
    }
}

/// Per-trial outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// The intended action.
    pub intended: Action,
    /// Joint displacement achieved (signed, + = "right" direction).
    pub displacement: f64,
    /// Whether the intention was translated correctly.
    pub success: bool,
}

/// The validation report (the paper's "19 out of 20").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Every trial.
    pub trials: Vec<TrialOutcome>,
}

impl ValidationReport {
    /// Number of successful sessions.
    #[must_use]
    pub fn successes(&self) -> usize {
        self.trials.iter().filter(|t| t.success).count()
    }

    /// Success ratio in `[0, 1]`.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.successes() as f64 / self.trials.len() as f64
    }
}

/// Runs the closed-loop validation protocol on an assembled system.
///
/// Trials alternate left/right intentions. The system's current voice mode
/// determines which joint is watched. Inference runs on the system's
/// [`exec::ExecPool`] (see [`crate::pipeline::CognitiveArm::with_pool`]);
/// because the pool is deterministic, the report is identical for any
/// thread count.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run_validation(system: &mut CognitiveArm, config: &SessionConfig) -> Result<ValidationReport> {
    let joint = system.mode().joint();
    let mut trials = Vec::with_capacity(config.trials);
    // Pre-roll so the window is full and filters settled.
    system.set_subject_action(Action::Idle);
    let _ = system.run_for(2.0)?;

    for trial in 0..config.trials {
        let intended = if trial % 2 == 0 {
            Action::Right
        } else {
            Action::Left
        };
        // Rest, then hold the intention.
        system.set_subject_action(Action::Idle);
        let _ = system.run_for(config.rest_secs)?;
        let before = system.joint(joint);
        system.set_subject_action(intended);
        let _ = system.run_for(config.trial_secs)?;
        let after = system.joint(joint);
        let displacement = after - before;
        let success = match intended {
            Action::Right => displacement > config.min_move,
            Action::Left => displacement < -config.min_move,
            Action::Idle => displacement.abs() <= config.min_move,
        };
        trials.push(TrialOutcome {
            intended,
            displacement,
            success,
        });
    }
    Ok(ValidationReport { trials })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{train_default_ensemble, DatasetBuilder, TrainBudget};
    use crate::pipeline::PipelineConfig;
    use eeg::dataset::Protocol;
    use std::sync::Arc;

    #[test]
    fn validation_mostly_succeeds_with_a_trained_system() {
        // Train on the same simulated subject that drives the session (the
        // paper's participants were calibrated users of the system).
        let data = DatasetBuilder::new(Protocol::quick(), 1, 33).build().unwrap();
        let ensemble = train_default_ensemble(&data, &TrainBudget::quick(), 5).unwrap();
        // Same subject physiology as the training study (subject 0 of seed
        // 33) plus that subject's frozen normalization.
        let zscore = data.zscores[0].clone();
        // Run the loop on a 2-worker pool: the validation outcome may not
        // depend on the thread count.
        let pool = Arc::new(exec::ExecPool::new(2));
        let mut system = CognitiveArm::with_pool(PipelineConfig::default(), ensemble, 33, pool);
        system.set_normalization(zscore);
        let report = run_validation(
            &mut system,
            &SessionConfig {
                trials: 6,
                trial_secs: 3.0,
                rest_secs: 1.0,
                min_move: 1.0,
            },
        )
        .unwrap();
        assert_eq!(report.trials.len(), 6);
        assert!(
            report.success_rate() >= 0.5,
            "success rate {} too low: {:?}",
            report.success_rate(),
            report.trials
        );
    }

    #[test]
    fn report_counts_are_consistent() {
        let report = ValidationReport {
            trials: vec![
                TrialOutcome {
                    intended: Action::Right,
                    displacement: 5.0,
                    success: true,
                },
                TrialOutcome {
                    intended: Action::Left,
                    displacement: 1.0,
                    success: false,
                },
            ],
        };
        assert_eq!(report.successes(), 1);
        assert!((report.success_rate() - 0.5).abs() < 1e-12);
    }
}
