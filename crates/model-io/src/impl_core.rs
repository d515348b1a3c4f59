//! [`Persist`] implementations for the pipeline layer, plus the two
//! top-level artifacts: [`SavedModel`] (a deployable trained system) and
//! [`SearchCheckpoint`] (a completed evolutionary-search state).

use std::io::Write;
use std::path::Path;

use arm::controller::ControllerConfig;
use arm::safety::SafetyConfig;
use cognitive_arm::pipeline::{CognitiveArm, PipelineConfig};
use cognitive_arm::preprocess::FilterSpec;
use dsp::normalize::Zscore;
use evo::{EvolutionConfig, EvolutionOutcome};
use ml::ensemble::Ensemble;

use crate::container::Container;
use crate::error::{ModelIoError, Result};
use crate::image::WeightImage;
use crate::impl_ml::ensure;
use crate::persist_struct;
use crate::rw::{write_slice, Persist, ViewCursor};

/// Section tags used by the top-level artifact files.
pub mod tags {
    /// Pipeline configuration.
    pub const PIPELINE: [u8; 4] = *b"PCFG";
    /// Trained ensemble.
    pub const ENSEMBLE: [u8; 4] = *b"ENSM";
    /// Frozen per-subject normalization (optional).
    pub const NORMALIZATION: [u8; 4] = *b"NORM";
    /// Evolutionary-search configuration.
    pub const EVO_CONFIG: [u8; 4] = *b"ECFG";
    /// Evolutionary-search outcome.
    pub const EVO_OUTCOME: [u8; 4] = *b"EOUT";
    /// Mid-search resumable state (optional; additive, so no version bump).
    pub const EVO_RESUME: [u8; 4] = *b"ERSM";
}

persist_struct!(FilterSpec {
    order,
    low_hz,
    high_hz,
    notch_hz,
    notch_q,
});

persist_struct!(ControllerConfig { step, debounce });

persist_struct!(SafetyConfig { max_step });

impl Persist for PipelineConfig {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.label_every.write_to(w)?;
        self.filter.write_to(w)?;
        self.controller.write_to(w)?;
        self.safety.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        Ok(PipelineConfig {
            label_every: Persist::read_from(r)?,
            filter: Persist::read_from(r)?,
            controller: Persist::read_from(r)?,
            safety: Persist::read_from(r)?,
        })
    }
}

impl Persist for Zscore {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        write_slice(self.means(), w)?;
        write_slice(self.stds(), w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let means = Vec::<f32>::read_from(r)?;
        let stds = Vec::<f32>::read_from(r)?;
        Zscore::from_parts(means, stds).map_err(|e| ModelIoError::malformed(e.to_string()))
    }
}

/// Everything needed to reassemble a serving [`CognitiveArm`] without
/// retraining: the pipeline configuration, the trained ensemble, and the
/// frozen per-subject normalization (when one was installed).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedModel {
    /// Pipeline configuration the system was assembled with.
    pub pipeline: PipelineConfig,
    /// The trained voting ensemble.
    pub ensemble: Ensemble,
    /// Frozen normalization statistics, if fitted.
    pub normalization: Option<Zscore>,
}

impl SavedModel {
    /// Writes the model as a `.cogm` container
    /// (sections `PCFG` + `ENSM` [+ `NORM`]).
    ///
    /// # Errors
    ///
    /// [`ModelIoError::UnsupportedMember`] if the ensemble holds a
    /// `Member::Custom`; I/O failures otherwise.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        self.to_container()?.save(path)
    }

    /// The model as an in-memory container (what [`SavedModel::save`]
    /// writes).
    ///
    /// # Errors
    ///
    /// Same as [`SavedModel::save`], minus I/O.
    pub fn to_container(&self) -> Result<Container> {
        let mut container = Container::new();
        container.add(tags::PIPELINE, &self.pipeline)?;
        container.add(tags::ENSEMBLE, &self.ensemble)?;
        if let Some(z) = &self.normalization {
            container.add(tags::NORMALIZATION, z)?;
        }
        Ok(container)
    }

    /// Loads a model saved by [`SavedModel::save`] through a
    /// [`WeightImage`]: the file is mapped (or read into an aligned
    /// buffer), validated once, and the ensemble's bulk payloads borrow
    /// the image.
    ///
    /// # Errors
    ///
    /// Typed errors for every malformed input; never panics.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        WeightImage::open(path)?.decode()
    }

    /// The session constructor's own check
    /// ([`PipelineConfig::checked_chain`]) over the pipeline and the
    /// normalization, run by both [`WeightImage::decode`] and
    /// [`SavedModel::into_system`], so a hostile spec is a typed error
    /// instead of a panic, or a session that poisons itself, once
    /// assembled.
    pub(crate) fn checked(self) -> Result<Self> {
        self.pipeline
            .checked_chain(self.normalization.as_ref())
            .map_err(|e| ModelIoError::malformed(e.to_string()))?;
        Ok(self)
    }

    /// Assembles a runnable system for one simulated subject, installing
    /// the saved normalization when present. The loaded system's label
    /// trace is bit-identical to the saved system's (given the same
    /// subject seed and actions).
    ///
    /// # Errors
    ///
    /// [`ModelIoError::Malformed`] for a pipeline or normalization that
    /// [`PipelineConfig::checked_chain`] refuses (a hand-built model's
    /// fields are public, so a load is not the only way in).
    pub fn into_system(self, subject_seed: u64) -> Result<CognitiveArm> {
        let model = self.checked()?;
        let mut system = CognitiveArm::new(model.pipeline, model.ensemble, subject_seed);
        if let Some(z) = model.normalization {
            system.set_normalization(z);
        }
        Ok(system)
    }
}

/// The trained state of an assembled system: its config, ensemble and
/// installed normalization. `SavedModel::from(&system).save(path)` writes
/// it; `SavedModel::load(path)?.into_system(seed)` brings it back.
impl From<&CognitiveArm> for SavedModel {
    fn from(system: &CognitiveArm) -> Self {
        Self {
            pipeline: system.config().clone(),
            ensemble: system.ensemble().clone(),
            normalization: system.normalization().cloned(),
        }
    }
}

/// A persisted evolutionary-search state: the configuration that drove it,
/// plus either the full **outcome** of a completed run (auditable Pareto
/// fronts), a **resumable** mid-search [`evo::SearchState`] (config +
/// pending population + accumulated history + the RNG's exact stream
/// position), or both. Saving the resume state each generation (the
/// `on_generation` hook of `EvolutionarySearch::run_from`) bounds the work
/// a crash can lose to one generation, and a resumed run is bit-identical
/// to the uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// The search configuration.
    pub config: EvolutionConfig,
    /// The full outcome (history, final population, front, best), present
    /// once the search has completed.
    pub outcome: Option<EvolutionOutcome>,
    /// The mid-search resume point, present while the search is running.
    pub resume: Option<evo::SearchState>,
}

impl SearchCheckpoint {
    /// A checkpoint for a completed search.
    #[must_use]
    pub fn completed(config: EvolutionConfig, outcome: EvolutionOutcome) -> Self {
        Self {
            config,
            outcome: Some(outcome),
            resume: None,
        }
    }

    /// A checkpoint for a search still in flight, resumable at `state`.
    #[must_use]
    pub fn mid_search(config: EvolutionConfig, state: evo::SearchState) -> Self {
        Self {
            config,
            outcome: None,
            resume: Some(state),
        }
    }

    /// A checkpoint must be internally consistent, not just present:
    /// `EvolutionarySearch::run_from` *panics* on a resume state whose
    /// population size or generation disagrees with the config, so both
    /// the writer and the reader reject that shape as a typed error — a
    /// loadable checkpoint is always a resumable one.
    fn validate(&self) -> Result<()> {
        ensure(
            self.outcome.is_some() || self.resume.is_some(),
            "checkpoint carries neither an outcome nor a resume state",
        )?;
        if let Some(resume) = &self.resume {
            ensure(
                resume.population.len() == self.config.population,
                "resume population size disagrees with the search config",
            )?;
            ensure(
                resume.generation < self.config.generations,
                "resume generation is past the configured generation count",
            )?;
        }
        Ok(())
    }

    /// Writes the checkpoint as a `.cogm` container
    /// (sections `ECFG` [+ `EOUT`] [+ `ERSM`]).
    ///
    /// # Errors
    ///
    /// [`ModelIoError::Malformed`] for a checkpoint that carries neither an
    /// outcome nor a resume state, or whose resume state disagrees with its
    /// config; serialization and I/O failures otherwise.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        self.validate()?;
        let mut container = Container::new();
        container.add(tags::EVO_CONFIG, &self.config)?;
        if let Some(outcome) = &self.outcome {
            container.add(tags::EVO_OUTCOME, outcome)?;
        }
        if let Some(resume) = &self.resume {
            container.add(tags::EVO_RESUME, resume)?;
        }
        container.save(path)
    }

    /// Loads a checkpoint saved by [`SearchCheckpoint::save`]. Files from
    /// before the resumable extension (sections `ECFG` + `EOUT` only) load
    /// with `resume: None`.
    ///
    /// # Errors
    ///
    /// Typed errors for every malformed input; never panics.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        let image = WeightImage::open(path)?;
        let checkpoint = Self {
            config: image.get(tags::EVO_CONFIG)?,
            outcome: image.get_optional(tags::EVO_OUTCOME)?,
            resume: image.get_optional(tags::EVO_RESUME)?,
        };
        checkpoint.validate()?;
        Ok(checkpoint)
    }
}
