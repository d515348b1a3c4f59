//! Versioned binary persistence for trained CognitiveArm artifacts.
//!
//! Until now every process retrained its models from scratch — fine for
//! tests, fatal for serving (cold starts measured in minutes) and for
//! checkpointed evolutionary search. This crate is the deployment story's
//! missing piece: a small, versioned, checksummed little-endian format
//! (`.cogm`) plus a [`Persist`] trait implemented for every trained
//! artifact in the workspace.
//!
//! # Format
//!
//! ```text
//! COGM | version u16 | section count u16 | section table | payloads | CRC32
//! ```
//!
//! See [`container`] for the exact layout. Four guarantees:
//!
//! * **Total readers.** Any byte stream either decodes or returns a typed
//!   [`ModelIoError`] — no panics, no unbounded allocation from forged
//!   length fields, no infinite loops (tree arenas are validated to be
//!   forward-pointing before a predict ever walks them).
//! * **Checksummed.** The trailing CRC32 is verified before any payload is
//!   parsed, so every single-byte corruption is caught up front.
//! * **Trust boundary.** The CRC authenticates *integrity*, not origin: a
//!   file whose checksum was deliberately recomputed over crafted payloads
//!   decodes through the same typed-error validation (dimension agreement,
//!   forward-pointing tree arenas, positivity and sanity bounds), but deep
//!   cross-stage weight-shape consistency is not fully re-derived — such a
//!   file can still fail at first predict with the same panics a
//!   wrong-shaped in-memory model produces. Artifacts are deployment
//!   assets, not an untrusted-input wire format.
//! * **Deterministic.** Writers emit identical bytes for identical values,
//!   and a loaded model is bit-identical to the saved one — the label
//!   trace of a loaded [`CognitiveArm`](cognitive_arm::pipeline::CognitiveArm)
//!   reproduces the in-memory system's trace exactly, at any
//!   `COGARM_THREADS` (the exec substrate keeps thread count out of the
//!   numerics).
//!
//! # Top-level artifacts
//!
//! * [`SavedModel`] — a deployable trained system (pipeline config +
//!   ensemble + frozen normalization).
//! * [`SearchCheckpoint`] — an evolutionary search, either completed
//!   (config + history + Pareto front + best) or mid-flight (config +
//!   resumable [`evo::SearchState`] with the RNG's stream position).
//! * [`container::save_section`] / [`container::load_section`] — any
//!   single [`Persist`] value as its own file.
//!
//! # One reader, one decoder
//!
//! [`Container`] assembles sections and writes files, always in the
//! current (v2) layout. Every load goes
//! through [`WeightImage`]: the file is memory-mapped (or read into an
//! 8-aligned buffer; v1 files are upgraded to the aligned layout in
//! memory), validated once, and each section decodes through
//! [`Persist::read_from`] over a [`ViewCursor`] that carries the image as
//! its arena owner — bulk `f32`/`i8` payloads borrow the image instead of
//! being copied. [`from_bytes`] runs the same decoders over a bare payload
//! with an arena-less cursor, copying instead. So there is exactly one
//! decoder per type, and the hostile-input suites exercise it on both
//! paths.
//!
//! ```no_run
//! use model_io::SavedModel;
//! use cognitive_arm::pipeline::CognitiveArm;
//!
//! # fn demo(system: &CognitiveArm) -> model_io::Result<()> {
//! SavedModel::from(system).save("subject3.cogm")?;
//! let reloaded = SavedModel::load("subject3.cogm")?.into_system(3)?;
//! # let _ = reloaded; Ok(())
//! # }
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod container;
pub mod crc32;
pub mod error;
pub mod image;
mod impl_core;
mod impl_evo;
mod impl_ml;
pub mod mmap;
pub mod rw;

pub use container::{
    image_version, load_section, save_section, upgrade_file_bytes, Container, FORMAT_VERSION,
    FORMAT_VERSION_V1, MAGIC,
};
pub use error::{ModelIoError, Result};
pub use image::WeightImage;
pub use impl_core::{tags, SavedModel, SearchCheckpoint};
pub use rw::{from_bytes, to_bytes, Persist, ViewCursor};

/// Field-by-field [`Persist`] for a plain struct with public fields.
macro_rules! persist_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::rw::Persist for $ty {
            fn write_to<W: std::io::Write>(&self, w: &mut W) -> $crate::error::Result<()> {
                $( self.$field.write_to(w)?; )+
                Ok(())
            }

            fn read_from(r: &mut $crate::rw::ViewCursor<'_>) -> $crate::error::Result<Self> {
                Ok($ty { $( $field: $crate::rw::Persist::read_from(r)? ),+ })
            }
        }
    };
}
pub(crate) use persist_struct;

#[cfg(test)]
mod tests {
    use super::*;
    use ml::forest::{ForestConfig, RandomForest, Tree, TreeNode};
    use ml::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_forest(seed: u64) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..60 {
            let row: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            ys.push(usize::from(row[0] > 0.0) + usize::from(row[1] > 0.0));
            xs.push(row);
        }
        RandomForest::fit(
            ForestConfig {
                n_estimators: 4,
                max_depth: Some(4),
                min_samples_split: 2,
                classes: 3,
                seed,
            },
            &xs,
            &ys,
        )
        .expect("toy forest fits")
    }

    #[test]
    fn tensor_round_trips_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::uniform(vec![3, 5], 1.0, &mut rng);
        let back: Tensor = from_bytes(&to_bytes(&t).unwrap()).unwrap();
        assert_eq!(back, t);
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tensor_rejects_shape_data_disagreement() {
        let mut bytes = Vec::new();
        vec![2usize, 3].write_to(&mut bytes).unwrap();
        vec![0.0f32; 5].write_to(&mut bytes).unwrap();
        assert!(matches!(
            from_bytes::<Tensor>(&bytes).unwrap_err(),
            ModelIoError::Malformed { .. }
        ));
    }

    #[test]
    fn forest_round_trips_and_predicts_identically() {
        let forest = toy_forest(7);
        let back: RandomForest = from_bytes(&to_bytes(&forest).unwrap()).unwrap();
        assert_eq!(back, forest);
        let probe = vec![0.3f32, -0.2, 0.9, -0.6];
        assert_eq!(back.predict_proba(&probe), forest.predict_proba(&probe));
    }

    #[test]
    fn cyclic_tree_arena_is_rejected() {
        // A split pointing backwards would make predict loop forever; the
        // validating constructor must refuse it.
        let nodes = vec![
            TreeNode::Split {
                feature: 0,
                threshold: 0.0,
                left: 0,
                right: 1,
            },
            TreeNode::Leaf { probs: vec![1.0] },
        ];
        let bytes = {
            let mut b = Vec::new();
            nodes.write_to(&mut b).unwrap();
            b
        };
        assert!(matches!(
            from_bytes::<Tree>(&bytes).unwrap_err(),
            ModelIoError::Malformed { .. }
        ));
    }

    #[test]
    fn quantized_cnn_round_trips_with_and_without_an_arena() {
        // A mixed-representation member (int8 conv/head weights beside
        // dense f32 ones) through both cursor modes: copied from a bare
        // payload and borrowed from a weight image.
        use ml::compress::{quantize, QuantMode};
        use ml::ensemble::{Ensemble, Member, Voting};
        let model = ml::models::CnnConfig::paper_best().build(7).unwrap();
        let mut compiled = ml::infer::compile_cnn(&model);
        quantize(&mut compiled, QuantMode::Calibrated).unwrap();
        let ensemble = Ensemble::new(vec![Member::Net(compiled)], Voting::Soft);
        let copied: Ensemble = from_bytes(&to_bytes(&ensemble).unwrap()).unwrap();
        assert_eq!(copied, ensemble);
        let mut c = Container::new();
        c.add(tags::ENSEMBLE, &ensemble).unwrap();
        let image = WeightImage::from_bytes(&c.to_file_bytes()).unwrap();
        assert_eq!(image.get::<Ensemble>(tags::ENSEMBLE).unwrap(), ensemble);
    }

    #[test]
    fn ensemble_truncations_and_trailing_bytes_are_typed() {
        use ml::ensemble::{Ensemble, ForestClassifier, Member, Voting};
        let ensemble = Ensemble::new(
            vec![Member::Forest(ForestClassifier::new(toy_forest(11), 16))],
            Voting::Hard,
        );
        let bytes = to_bytes(&ensemble).unwrap();
        assert_eq!(from_bytes::<Ensemble>(&bytes).unwrap(), ensemble);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<Ensemble>(&bytes[..cut]).is_err(),
                "truncation to {cut} accepted"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            from_bytes::<Ensemble>(&trailing).unwrap_err(),
            ModelIoError::Malformed { .. }
        ));
    }

    #[test]
    fn writer_is_deterministic() {
        let forest = toy_forest(3);
        assert_eq!(to_bytes(&forest).unwrap(), to_bytes(&forest).unwrap());
    }

    #[test]
    fn forged_extreme_dimensions_error_without_overflow() {
        use ml::sparse::CsrMatrix;
        // A CSR matrix claiming usize::MAX rows: the `rows + 1` validation
        // must reject it with a typed error, not overflow.
        let mut bytes = Vec::new();
        usize::MAX.write_to(&mut bytes).unwrap(); // rows
        4usize.write_to(&mut bytes).unwrap(); // cols
        vec![0usize].write_to(&mut bytes).unwrap(); // row_ptr
        Vec::<u32>::new().write_to(&mut bytes).unwrap(); // col_idx
        Vec::<f32>::new().write_to(&mut bytes).unwrap(); // values
        assert!(matches!(
            from_bytes::<CsrMatrix>(&bytes).unwrap_err(),
            ModelIoError::Malformed { .. }
        ));
    }

    #[test]
    fn forest_with_short_leaf_distributions_is_rejected() {
        // Leaves must carry exactly `classes` probabilities; anything else
        // would silently skew the vote after a load.
        let config = ForestConfig {
            n_estimators: 1,
            max_depth: None,
            min_samples_split: 2,
            classes: 3,
            seed: 0,
        };
        let tree = Tree::from_nodes(vec![TreeNode::Leaf {
            probs: vec![0.5, 0.5],
        }])
        .expect("arena is valid");
        let mut bytes = Vec::new();
        config.write_to(&mut bytes).unwrap();
        vec![tree].write_to(&mut bytes).unwrap();
        assert!(matches!(
            from_bytes::<RandomForest>(&bytes).unwrap_err(),
            ModelIoError::Malformed { .. }
        ));
    }
}
