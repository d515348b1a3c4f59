//! Random Forest over statistical features (Table III row "Random Forest").
//!
//! CART trees with Gini impurity, bootstrap resampling and √d feature
//! subsampling. The paper's RF consumes per-channel statistical features
//! (mean, std, min, max, var); [`window_stat_features`] computes exactly
//! that vector from a channel-major window, and the Fig. 9 Pareto point "D"
//! reports total node count as the parameter measure (the paper annotates
//! "72000 total nodes").
//!
//! [`Tree`]/[`TreeNode`] are the fitted and persisted form. Prediction
//! never walks them: `fit_with` and `from_parts` compile the trees once
//! into one flat table of 16-byte nodes (absolute `u32` child indices,
//! leaves looping to themselves, leaf distributions in one contiguous
//! `f32` table), shared by every clone. [`RandomForest::predict_proba_into`]
//! walks eight trees in lockstep for their block's longest root-to-leaf
//! path with a branch-free child select, then adds the leaf distributions
//! in tree order — the same sums, in the same order, as a per-tree walk.
//! The feature body likewise advances eight channels per pass, each
//! channel keeping the scalar operation order, so both are bit-identical
//! to their one-at-a-time references (`tests/tests/forest_engine.rs`).

use std::sync::Arc;

use exec::ExecPool;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::{MlError, Result};

/// Trees walked, or channels summarized, together in one pass: enough
/// independent dependency chains to hide load and add latency.
const LANES: usize = 8;

/// Random-forest hyperparameters (Table III: 100–500 trees, depth 10–None).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees (estimators).
    pub n_estimators: usize,
    /// Maximum tree depth (`None` = grow until pure).
    pub max_depth: Option<usize>,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Number of classes.
    pub classes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ForestConfig {
    /// Sec. V winner: 200 estimators (with window 90 upstream), depth 20.
    #[must_use]
    pub fn paper_best() -> Self {
        Self {
            n_estimators: 200,
            max_depth: Some(20),
            min_samples_split: 4,
            classes: 3,
            seed: 0,
        }
    }
}

/// The five Table III statistics per channel, flattened channel-major.
///
/// # Panics
///
/// Panics if `window.len()` is not a multiple of `channels`.
#[must_use]
pub fn window_stat_features(window: &[f32], channels: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(channels * 5);
    window_stat_features_into(window, channels, &mut out);
    out
}

/// [`window_stat_features`] into a reused buffer (cleared first) — the
/// allocation-free serving path; identical arithmetic.
///
/// Channels are summarized eight at a time so their f64 sum/variance
/// and f32 min/max chains overlap. Each channel still sums its samples in
/// order from `-0.0` (as `Iterator::sum::<f64>` does), then its squared
/// deviations, so every statistic has the one-channel-at-a-time bits. A
/// partial block repeats its last channel in the spare lanes and keeps
/// only the real ones.
///
/// # Panics
///
/// Panics if `window.len()` is not a multiple of `channels`.
// The sample index walks all eight rows in lockstep; iterating one row
// would hide that.
#[allow(clippy::needless_range_loop)]
pub fn window_stat_features_into(window: &[f32], channels: usize, out: &mut Vec<f32>) {
    assert!(
        channels > 0 && window.len().is_multiple_of(channels),
        "window {} not divisible by {channels}",
        window.len()
    );
    let per = window.len() / channels;
    let n = per as f64;
    out.clear();
    for first in (0..channels).step_by(LANES) {
        let lanes = LANES.min(channels - first);
        let rows: [&[f32]; LANES] =
            std::array::from_fn(|l| &window[(first + l.min(lanes - 1)) * per..][..per]);
        let mut sum = [-0.0f64; LANES];
        let mut min = [f32::INFINITY; LANES];
        let mut max = [f32::NEG_INFINITY; LANES];
        for i in 0..per {
            for l in 0..LANES {
                let x = rows[l][i];
                sum[l] += f64::from(x);
                min[l] = min[l].min(x);
                max[l] = max[l].max(x);
            }
        }
        let mean = sum.map(|s| s / n);
        let mut sq = [-0.0f64; LANES];
        for i in 0..per {
            for l in 0..LANES {
                sq[l] += (f64::from(rows[l][i]) - mean[l]).powi(2);
            }
        }
        for l in 0..lanes {
            let var = sq[l] / n;
            out.extend([mean[l] as f32, var.sqrt() as f32, min[l], max[l], var as f32]);
        }
    }
}

/// One node of a CART tree's arena (public so `model-io` can persist
/// fitted forests node for node).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// A terminal node.
    Leaf {
        /// Class-probability distribution at this leaf.
        probs: Vec<f32>,
    },
    /// An internal split.
    Split {
        /// Feature index compared at this node.
        feature: usize,
        /// Decision threshold (`<=` goes left).
        threshold: f32,
        /// Arena index of the left child (always greater than this node's).
        left: usize,
        /// Arena index of the right child (always greater than this node's).
        right: usize,
    },
}

/// One CART tree stored as an arena of nodes.
///
/// The arena is behind an `Arc`, so cloning a tree (and hence an ensemble
/// member that holds forests) shares the fitted nodes instead of copying
/// them — the forest analogue of the tensors' shared weight arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Arc<Vec<TreeNode>>,
}

impl Tree {
    /// Reassembles a tree from its node arena (the model-persistence load
    /// path), enforcing the invariant prediction relies on for
    /// termination: every split's children live strictly after it in the
    /// arena, so every path from the root is acyclic and a node's depth
    /// is known once its children's are.
    ///
    /// Feature indices cannot be bounds-checked here — the fitted feature
    /// count is not part of the tree — so predicting with a feature vector
    /// shorter than a split's `feature` index still panics, exactly as it
    /// does for a freshly fitted tree fed the wrong-length input.
    /// [`RandomForest::from_parts`] additionally checks leaf distributions
    /// against the configured class count and for finite, non-negative
    /// entries.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadConfig`] for an empty arena or any
    /// backward/out-of-range child index.
    pub fn from_nodes(nodes: Vec<TreeNode>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(MlError::BadConfig("tree with no nodes".into()));
        }
        for (i, node) in nodes.iter().enumerate() {
            if let TreeNode::Split { left, right, .. } = node {
                if *left <= i || *right <= i || *left >= nodes.len() || *right >= nodes.len() {
                    return Err(MlError::BadConfig(format!(
                        "split node {i} has non-forward children {left}/{right}"
                    )));
                }
            }
        }
        Ok(Self {
            nodes: Arc::new(nodes),
        })
    }

    /// The node arena, root first.
    #[must_use]
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of nodes (the paper's size metric for RF).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Longest root-to-leaf path, in splits. Children follow their parent
    /// in the arena, so one backward pass sees every child before its
    /// parent (shared children included).
    fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if let TreeNode::Split { left, right, .. } = node {
                depth[i] = 1 + depth[*left].max(depth[*right]);
            }
        }
        depth[0]
    }
}

/// One node of the compiled table: a split with absolute child indices,
/// or a leaf whose children are itself.
#[derive(Debug, Clone, Copy)]
struct Node {
    feature: u32,
    threshold: f32,
    left: u32,
    right: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// Up to [`LANES`] consecutive trees, walked in lockstep.
#[derive(Debug)]
struct Block {
    /// Each lane's root; lanes past `trees` repeat the last tree's root.
    roots: [u32; LANES],
    /// Real trees in the block.
    trees: usize,
    /// Steps that bring every lane to a leaf: its longest tree's depth.
    depth: usize,
}

/// A forest's compiled execution form (see the module docs).
struct ForestTable {
    nodes: Vec<Node>,
    /// Per node, the first of its `classes` entries in `probs` (leaves
    /// only; splits keep 0 and are never read).
    leaf_row: Vec<u32>,
    /// Every leaf's class distribution, contiguous.
    probs: Vec<f32>,
    blocks: Vec<Block>,
    classes: usize,
}

impl std::fmt::Debug for ForestTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ForestTable({} nodes, {} blocks)",
            self.nodes.len(),
            self.blocks.len()
        )
    }
}

/// `i` as a table index, or a typed error when it does not fit `u32`.
fn table_index(i: usize, what: &str) -> Result<u32> {
    u32::try_from(i).map_err(|_| MlError::BadConfig(format!("{what} {i} does not fit u32")))
}

impl ForestTable {
    /// Compiles `trees` (validated by [`Tree::from_nodes`]), checking every
    /// leaf: exactly `classes` entries, each finite and non-negative.
    fn compile(trees: &[Tree], classes: usize) -> Result<Self> {
        let total: usize = trees.iter().map(Tree::node_count).sum();
        table_index(total, "node count")?;
        let mut nodes = Vec::with_capacity(total);
        let mut leaf_row = Vec::with_capacity(total);
        let mut probs = Vec::new();
        let mut roots = Vec::with_capacity(trees.len());
        let mut depths = Vec::with_capacity(trees.len());
        for (t, tree) in trees.iter().enumerate() {
            let base = nodes.len();
            roots.push(table_index(base, "node index")?);
            depths.push(tree.depth());
            for node in tree.nodes() {
                let at = table_index(nodes.len(), "node index")?;
                let (compiled, row) = match node {
                    TreeNode::Leaf { probs: p } => {
                        if p.len() != classes {
                            return Err(MlError::BadConfig(format!(
                                "tree {t} leaf has {} probabilities for {classes} classes",
                                p.len()
                            )));
                        }
                        if let Some(bad) = p.iter().find(|v| !v.is_finite() || **v < 0.0) {
                            return Err(MlError::BadConfig(format!(
                                "tree {t} leaf has probability {bad}"
                            )));
                        }
                        let row = table_index(probs.len(), "leaf offset")?;
                        probs.extend_from_slice(p);
                        let leaf = Node {
                            feature: 0,
                            threshold: 0.0,
                            left: at,
                            right: at,
                        };
                        (leaf, row)
                    }
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        let split = Node {
                            feature: table_index(*feature, "feature index")?,
                            threshold: *threshold,
                            left: table_index(base + left, "node index")?,
                            right: table_index(base + right, "node index")?,
                        };
                        (split, 0)
                    }
                };
                nodes.push(compiled);
                leaf_row.push(row);
            }
        }
        let blocks = roots
            .chunks(LANES)
            .zip(depths.chunks(LANES))
            .map(|(r, d)| Block {
                roots: std::array::from_fn(|l| r[l.min(r.len() - 1)]),
                trees: r.len(),
                depth: d.iter().copied().max().unwrap_or(0),
            })
            .collect();
        Ok(Self {
            nodes,
            leaf_row,
            probs,
            blocks,
            classes,
        })
    }

    /// Sums every tree's leaf distribution for `features` into `out`
    /// (fully overwritten), in tree order.
    fn vote_into(&self, features: &[f32], out: &mut [f32]) {
        out.fill(0.0);
        for block in &self.blocks {
            let mut at = block.roots;
            for _ in 0..block.depth {
                for a in &mut at {
                    let node = self.nodes[*a as usize];
                    let go_left = features[node.feature as usize] <= node.threshold;
                    *a = if go_left { node.left } else { node.right };
                }
            }
            for &leaf in &at[..block.trees] {
                let row = self.leaf_row[leaf as usize] as usize;
                for (o, p) in out.iter_mut().zip(&self.probs[row..row + self.classes]) {
                    *o += p;
                }
            }
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    config: ForestConfig,
    trees: Vec<Tree>,
    /// The trees' compiled execution form, shared by clones.
    table: Arc<ForestTable>,
}

/// Equality is the configuration and the fitted trees; the table is
/// derived from them. Clones share one compiled table, so they compare
/// equal without reading a node.
impl PartialEq for RandomForest {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
            || (self.config == other.config && self.trees == other.trees)
    }
}

impl RandomForest {
    /// Fits a forest on feature rows `x` with labels `y`, training trees in
    /// parallel on the process-wide [`exec::shared`] pool.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] on empty input,
    /// [`MlError::BadLabel`] on out-of-range labels,
    /// [`MlError::BadConfig`] for zero estimators/classes,
    /// [`MlError::ShapeMismatch`] for a row whose length differs from the
    /// first, and [`MlError::NanFeature`] for a NaN feature (±Inf fits).
    pub fn fit(config: ForestConfig, x: &[Vec<f32>], y: &[usize]) -> Result<Self> {
        Self::fit_with(config, x, y, &exec::shared())
    }

    /// [`RandomForest::fit`] on an explicit pool. Each tree's RNG derives
    /// from its index alone, so the fitted model is bit-identical for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same as [`RandomForest::fit`].
    pub fn fit_with(
        config: ForestConfig,
        x: &[Vec<f32>],
        y: &[usize],
        pool: &ExecPool,
    ) -> Result<Self> {
        if config.n_estimators == 0 || config.classes == 0 {
            return Err(MlError::BadConfig("zero estimators or classes".into()));
        }
        if x.is_empty() || x.len() != y.len() {
            return Err(MlError::EmptyDataset);
        }
        for &label in y {
            if label >= config.classes {
                return Err(MlError::BadLabel {
                    label,
                    classes: config.classes,
                });
            }
        }
        let n_features = x[0].len();
        for (row, features) in x.iter().enumerate() {
            if features.len() != n_features {
                return Err(MlError::ShapeMismatch {
                    op: "forest fit row",
                    lhs: vec![features.len()],
                    rhs: vec![n_features],
                });
            }
            if let Some(feature) = features.iter().position(|v| v.is_nan()) {
                return Err(MlError::NanFeature { row, feature });
            }
        }
        let mtry = ((n_features as f64).sqrt().ceil() as usize).max(1);
        let trees = pool.par_map_range(0..config.n_estimators, |t| {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(t as u64 * 7919));
            // Bootstrap sample.
            let indices: Vec<usize> =
                (0..x.len()).map(|_| rng.gen_range(0..x.len())).collect();
            let mut builder = TreeBuilder {
                x,
                y,
                config: &config,
                mtry,
                n_features,
                nodes: Vec::new(),
                rng,
            };
            builder.build(indices, 0);
            Tree {
                nodes: Arc::new(builder.nodes),
            }
        });
        let table = Arc::new(ForestTable::compile(&trees, config.classes)?);
        Ok(Self {
            config,
            trees,
            table,
        })
    }

    /// Reassembles a forest from a configuration and fitted trees (the
    /// model-persistence load path), compiling its execution table.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadConfig`] when the tree count disagrees with
    /// `config.n_estimators`, the class count is zero (prediction averages
    /// over trees and classes, so both must be non-degenerate), any leaf's
    /// probability vector is not `config.classes` long (a short leaf would
    /// silently skew [`RandomForest::predict_proba`]'s vote) or holds a
    /// NaN, infinite or negative entry (the vote must stay a finite,
    /// comparable number), or a node or feature index does not fit the
    /// table's `u32` fields.
    pub fn from_parts(config: ForestConfig, trees: Vec<Tree>) -> Result<Self> {
        if config.classes == 0 {
            return Err(MlError::BadConfig("zero classes".into()));
        }
        if trees.is_empty() || trees.len() != config.n_estimators {
            return Err(MlError::BadConfig(format!(
                "{} trees but config says {} estimators",
                trees.len(),
                config.n_estimators
            )));
        }
        let table = Arc::new(ForestTable::compile(&trees, config.classes)?);
        Ok(Self {
            config,
            trees,
            table,
        })
    }

    /// The fitted trees.
    #[must_use]
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The fitted configuration.
    #[must_use]
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Total node count across all trees (Fig. 9's parameter metric).
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(Tree::node_count).sum()
    }

    /// Mean class probabilities across trees.
    #[must_use]
    pub fn predict_proba(&self, features: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.config.classes];
        self.predict_proba_into(features, &mut acc);
        acc
    }

    /// [`RandomForest::predict_proba`] into a preallocated buffer (fully
    /// overwritten) — the allocation-free serving path. It reads only the
    /// compiled table; trees vote in their fixed order, so the result has
    /// the bits of walking each tree in turn.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != classes`, or if a split on the path reads a
    /// feature index past `features`.
    pub fn predict_proba_into(&self, features: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.config.classes, "class buffer size");
        self.table.vote_into(features, out);
        let n = self.trees.len() as f32;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Predicted class for one feature vector, by the one total
    /// [`crate::ensemble::argmax`].
    #[must_use]
    pub fn predict(&self, features: &[f32]) -> usize {
        crate::ensemble::argmax(&self.predict_proba(features))
    }

    /// Predicted classes for a batch of feature vectors, evaluated in
    /// parallel (in input order) on `pool`.
    #[must_use]
    pub fn predict_batch(&self, rows: &[Vec<f32>], pool: &ExecPool) -> Vec<usize> {
        pool.par_map(rows, |row| self.predict(row))
    }

    /// Accuracy over a labelled feature set, scored on the shared pool.
    #[must_use]
    pub fn evaluate(&self, x: &[Vec<f32>], y: &[usize]) -> f64 {
        self.evaluate_with(x, y, &exec::shared())
    }

    /// [`RandomForest::evaluate`] on an explicit pool.
    #[must_use]
    pub fn evaluate_with(&self, x: &[Vec<f32>], y: &[usize], pool: &ExecPool) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        let correct = self
            .predict_batch(x, pool)
            .iter()
            .zip(y)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / x.len() as f64
    }
}

struct TreeBuilder<'a> {
    x: &'a [Vec<f32>],
    y: &'a [usize],
    config: &'a ForestConfig,
    mtry: usize,
    n_features: usize,
    nodes: Vec<TreeNode>,
    rng: StdRng,
}

impl TreeBuilder<'_> {
    /// Builds the subtree for `indices`, returning its node id.
    fn build(&mut self, indices: Vec<usize>, depth: usize) -> usize {
        let counts = self.class_counts(&indices);
        let total: usize = counts.iter().sum();
        let pure = counts.contains(&total);
        let depth_capped = self
            .config
            .max_depth
            .is_some_and(|d| depth >= d);
        if pure || depth_capped || indices.len() < self.config.min_samples_split {
            return self.leaf(&counts);
        }
        let Some((feature, threshold)) = self.best_split(&indices, &counts) else {
            return self.leaf(&counts);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .into_iter()
            .partition(|&i| self.x[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.leaf(&counts);
        }
        // Reserve the split node now so children follow it in the arena.
        let id = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { probs: vec![] }); // placeholder
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        self.nodes[id] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }

    fn leaf(&mut self, counts: &[usize]) -> usize {
        let total: usize = counts.iter().sum();
        let probs = counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    1.0 / counts.len() as f32
                } else {
                    c as f32 / total as f32
                }
            })
            .collect();
        self.nodes.push(TreeNode::Leaf { probs });
        self.nodes.len() - 1
    }

    fn class_counts(&self, indices: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.classes];
        for &i in indices {
            counts[self.y[i]] += 1;
        }
        counts
    }

    fn gini(counts: &[usize]) -> f64 {
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts
            .iter()
            .map(|&c| (c as f64 / t).powi(2))
            .sum::<f64>()
    }

    /// Best `(feature, threshold)` by Gini gain over an `mtry` feature
    /// sample, evaluating candidate thresholds at sorted midpoints.
    fn best_split(&mut self, indices: &[usize], parent_counts: &[usize]) -> Option<(usize, f32)> {
        let parent_gini = Self::gini(parent_counts);
        let n = indices.len() as f64;
        let mut best: Option<(usize, f32, f64)> = None;

        // Sample features without replacement.
        let mut features: Vec<usize> = (0..self.n_features).collect();
        for i in 0..self.mtry.min(self.n_features) {
            let j = self.rng.gen_range(i..features.len());
            features.swap(i, j);
        }
        for &feature in features.iter().take(self.mtry.min(self.n_features)) {
            let mut vals: Vec<(f32, usize)> = indices
                .iter()
                .map(|&i| (self.x[i][feature], self.y[i]))
                .collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            let mut left = vec![0usize; self.config.classes];
            let mut right = parent_counts.to_vec();
            for w in 0..vals.len() - 1 {
                left[vals[w].1] += 1;
                right[vals[w].1] -= 1;
                if vals[w].0 == vals[w + 1].0 {
                    continue;
                }
                let nl = (w + 1) as f64;
                let nr = n - nl;
                let gain = parent_gini
                    - (nl / n) * Self::gini(&left)
                    - (nr / n) * Self::gini(&right);
                if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-9 {
                    let threshold = (vals[w].0 + vals[w + 1].0) / 2.0;
                    best = Some((feature, threshold, gain));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Separable toy data: class = quadrant of (f0, f1).
    fn toy(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            let noise: f32 = rng.gen_range(-0.05..0.05);
            let label = if a > 0.0 && b > 0.0 {
                0
            } else if a <= 0.0 && b > 0.0 {
                1
            } else {
                2
            };
            xs.push(vec![a + noise, b + noise, rng.gen_range(-1.0..1.0)]);
            ys.push(label);
        }
        (xs, ys)
    }

    #[test]
    fn forest_learns_separable_data() {
        let (xs, ys) = toy(300, 0);
        let (tx, ty) = toy(100, 1);
        let forest = RandomForest::fit(
            ForestConfig {
                n_estimators: 30,
                max_depth: Some(8),
                min_samples_split: 2,
                classes: 3,
                seed: 42,
            },
            &xs,
            &ys,
        )
        .unwrap();
        let acc = forest.evaluate(&tx, &ty);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn depth_limit_bounds_tree_size() {
        let (xs, ys) = toy(300, 2);
        let shallow = RandomForest::fit(
            ForestConfig {
                n_estimators: 10,
                max_depth: Some(2),
                min_samples_split: 2,
                classes: 3,
                seed: 1,
            },
            &xs,
            &ys,
        )
        .unwrap();
        let deep = RandomForest::fit(
            ForestConfig {
                n_estimators: 10,
                max_depth: Some(12),
                min_samples_split: 2,
                classes: 3,
                seed: 1,
            },
            &xs,
            &ys,
        )
        .unwrap();
        assert!(shallow.total_nodes() < deep.total_nodes());
        // Depth 2 => at most 7 nodes per tree.
        assert!(shallow.total_nodes() <= 10 * 7);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (xs, ys) = toy(100, 3);
        let forest = RandomForest::fit(
            ForestConfig {
                n_estimators: 5,
                max_depth: Some(4),
                min_samples_split: 2,
                classes: 3,
                seed: 1,
            },
            &xs,
            &ys,
        )
        .unwrap();
        let p = forest.predict_proba(&xs[0]);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            RandomForest::fit(ForestConfig::paper_best(), &[], &[]),
            Err(MlError::EmptyDataset)
        ));
        let bad_cfg = ForestConfig {
            n_estimators: 0,
            ..ForestConfig::paper_best()
        };
        assert!(RandomForest::fit(bad_cfg, &[vec![0.0]], &[0]).is_err());
        assert!(matches!(
            RandomForest::fit(ForestConfig::paper_best(), &[vec![0.0]], &[7]),
            Err(MlError::BadLabel { .. })
        ));
        let rows = [vec![0.0, 1.0], vec![1.0, f32::NAN], vec![2.0, 3.0]];
        assert_eq!(
            RandomForest::fit(ForestConfig::paper_best(), &rows, &[0, 1, 2]).err(),
            Some(MlError::NanFeature { row: 1, feature: 1 })
        );
        let ragged = [vec![0.0, 1.0], vec![1.0]];
        assert!(matches!(
            RandomForest::fit(ForestConfig::paper_best(), &ragged, &[0, 1]),
            Err(MlError::ShapeMismatch { .. })
        ));
        // ±Inf features still fit, as they always have.
        let inf = [vec![f32::NEG_INFINITY], vec![f32::INFINITY], vec![0.0]];
        assert!(RandomForest::fit(ForestConfig::paper_best(), &inf, &[0, 1, 2]).is_ok());
    }

    /// A one-tree forest over three classes.
    fn one_tree_config() -> ForestConfig {
        ForestConfig {
            n_estimators: 1,
            max_depth: None,
            min_samples_split: 2,
            classes: 3,
            seed: 0,
        }
    }

    fn stump(feature: usize, right_leaf: Vec<f32>) -> Tree {
        Tree::from_nodes(vec![
            TreeNode::Split {
                feature,
                threshold: 0.0,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf {
                probs: vec![0.5, 0.5, 0.0],
            },
            TreeNode::Leaf { probs: right_leaf },
        ])
        .expect("arena is valid")
    }

    #[test]
    fn non_finite_or_negative_leaf_probabilities_are_rejected() {
        // A NaN entry used to load and then panic the vote's argmax on the
        // first window routed to that leaf.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.25] {
            let tree = stump(0, vec![bad, 0.5, 0.5]);
            assert!(
                matches!(
                    RandomForest::from_parts(one_tree_config(), vec![tree]),
                    Err(MlError::BadConfig(_))
                ),
                "leaf entry {bad} accepted"
            );
        }
        let zeros = stump(0, vec![-0.0, 1.0, 0.0]);
        let forest = RandomForest::from_parts(one_tree_config(), vec![zeros]).expect("valid");
        assert_eq!(forest.predict(&[1.0]), 1);
    }

    #[test]
    fn indices_past_u32_are_typed_errors() {
        let wide = stump(u32::MAX as usize + 1, vec![0.0, 0.0, 1.0]);
        assert!(matches!(
            RandomForest::from_parts(one_tree_config(), vec![wide]),
            Err(MlError::BadConfig(_))
        ));
        let widest = stump(u32::MAX as usize, vec![0.0, 0.0, 1.0]);
        assert!(RandomForest::from_parts(one_tree_config(), vec![widest]).is_ok());
    }

    #[test]
    fn clones_share_the_compiled_table() {
        let (xs, ys) = toy(60, 6);
        let forest = RandomForest::fit(one_tree_config(), &xs, &ys).unwrap();
        let clone = forest.clone();
        assert!(Arc::ptr_eq(&forest.table, &clone.table));
        assert_eq!(clone, forest);
    }

    #[test]
    fn clones_compare_by_table_and_other_forests_by_value() {
        let (xs, ys) = toy(60, 6);
        let config = ForestConfig {
            n_estimators: 4,
            ..one_tree_config()
        };
        let forest = RandomForest::fit(config, &xs, &ys).unwrap();
        assert_eq!(forest.clone(), forest);
        // A separate fit from the same seed compiles its own table and
        // still compares equal, by value.
        let again = RandomForest::fit(config, &xs, &ys).unwrap();
        assert!(!Arc::ptr_eq(&again.table, &forest.table));
        assert_eq!(again, forest);
        // A refit with another seed grows other trees.
        let refit = RandomForest::fit(ForestConfig { seed: 1, ..config }, &xs, &ys).unwrap();
        assert_ne!(refit, forest);
        let other_trees = RandomForest::from_parts(config, refit.trees.clone()).unwrap();
        assert_ne!(other_trees, forest);
    }

    #[test]
    fn stat_features_layout() {
        // 2 channels of 4 samples.
        let window = [1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 4.0, 6.0];
        let f = window_stat_features(&window, 2);
        assert_eq!(f.len(), 10);
        assert_eq!(f[0], 1.0); // mean ch0
        assert_eq!(f[1], 0.0); // std ch0
        assert_eq!(f[5], 3.0); // mean ch1
        assert_eq!(f[7], 0.0); // min ch1
        assert_eq!(f[8], 6.0); // max ch1
        assert!((f[9] - 5.0).abs() < 1e-5); // var ch1
    }

    #[test]
    fn deterministic_fit() {
        let (xs, ys) = toy(100, 5);
        let cfg = ForestConfig {
            n_estimators: 5,
            max_depth: Some(4),
            min_samples_split: 2,
            classes: 3,
            seed: 9,
        };
        let a = RandomForest::fit(cfg, &xs, &ys).unwrap();
        let b = RandomForest::fit(cfg, &xs, &ys).unwrap();
        assert_eq!(a.total_nodes(), b.total_nodes());
        assert_eq!(a.predict_proba(&xs[0]), b.predict_proba(&xs[0]));
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let (xs, ys) = toy(150, 8);
        let cfg = ForestConfig {
            n_estimators: 12,
            max_depth: Some(6),
            min_samples_split: 2,
            classes: 3,
            seed: 4,
        };
        let reference = RandomForest::fit_with(cfg, &xs, &ys, &ExecPool::new(1)).unwrap();
        for threads in [2, 4, 8] {
            let pool = ExecPool::new(threads);
            let forest = RandomForest::fit_with(cfg, &xs, &ys, &pool).unwrap();
            assert_eq!(forest, reference, "threads={threads}");
            assert_eq!(
                forest.predict_batch(&xs, &pool),
                reference.predict_batch(&xs, &ExecPool::sequential()),
            );
        }
    }
}
