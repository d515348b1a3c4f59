//! [`Persist`] implementations for the `evo` crate: genomes, evaluated
//! candidates and whole-search checkpoints.

use std::io::Write;

use evo::{Candidate, EvalResult, EvolutionConfig, EvolutionOutcome, Genome, SearchState};

use crate::error::{ModelIoError, Result};
use crate::impl_ml::ensure;
use crate::persist_struct;
use crate::rw::{Persist, ViewCursor};

impl Persist for Genome {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        match self {
            Genome::Cnn { config, optimizer } => {
                0u8.write_to(w)?;
                config.write_to(w)?;
                optimizer.write_to(w)
            }
            Genome::Lstm { config, optimizer } => {
                1u8.write_to(w)?;
                config.write_to(w)?;
                optimizer.write_to(w)
            }
            Genome::Transformer { config, optimizer } => {
                2u8.write_to(w)?;
                config.write_to(w)?;
                optimizer.write_to(w)
            }
            Genome::Forest { config, window } => {
                3u8.write_to(w)?;
                config.write_to(w)?;
                window.write_to(w)
            }
        }
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(Genome::Cnn {
                config: Persist::read_from(r)?,
                optimizer: Persist::read_from(r)?,
            }),
            1 => Ok(Genome::Lstm {
                config: Persist::read_from(r)?,
                optimizer: Persist::read_from(r)?,
            }),
            2 => Ok(Genome::Transformer {
                config: Persist::read_from(r)?,
                optimizer: Persist::read_from(r)?,
            }),
            3 => {
                let genome = Genome::Forest {
                    config: Persist::read_from(r)?,
                    window: Persist::read_from(r)?,
                };
                ensure(genome.window() >= 1, "forest genome window must be positive")?;
                Ok(genome)
            }
            tag => Err(ModelIoError::BadTag {
                context: "Genome",
                tag,
            }),
        }
    }
}

persist_struct!(EvolutionConfig {
    population,
    generations,
    accuracy_threshold,
    mutation_rate,
    crossover_rate,
    tournament,
    weight_accuracy,
    weight_params,
    seed,
});

persist_struct!(EvalResult { accuracy, params });

persist_struct!(Candidate {
    genome,
    accuracy,
    params,
});

persist_struct!(EvolutionOutcome {
    history,
    final_population,
    front,
    best,
});

/// Manual rather than `persist_struct!`: the RNG stream position must be
/// validated on the way in — `StdRng::from_state` panics on the all-zero
/// state (unreachable from any seed), and a load must be a typed error
/// instead.
impl Persist for SearchState {
    fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        self.generation.write_to(w)?;
        self.population.write_to(w)?;
        self.history.write_to(w)?;
        self.rng_state.write_to(w)
    }

    fn read_from(r: &mut ViewCursor<'_>) -> Result<Self> {
        let state = SearchState {
            generation: Persist::read_from(r)?,
            population: Persist::read_from(r)?,
            history: Persist::read_from(r)?,
            rng_state: Persist::read_from(r)?,
        };
        ensure(
            state.rng_state != [0; 4],
            "all-zero RNG state is degenerate (unreachable from any seed)",
        )?;
        ensure(
            !state.population.is_empty(),
            "resumable state must carry a population",
        )?;
        Ok(state)
    }
}
