//! Offline-pipeline configuration.

use sfn_modelgen::{FamilyConfig, SearchConfig};
use sfn_obs::env::knob;

/// Everything the offline phase needs. The paper-scale values (20,480
/// problems, 128 steps, grids to 1024²) are impractical on a laptop;
/// [`OfflineConfig::default`] targets minutes of CPU time and
/// [`OfflineConfig::quick`] seconds (for tests). All counts scale up
/// cleanly via the public fields; two of them also via `SFN_*`
/// environment variables (see [`OfflineConfig::from_env`]).
#[derive(Debug, Clone, Copy)]
pub struct OfflineConfig {
    /// Grid size for surrogate training data.
    pub train_grid: usize,
    /// Training problems for dataset generation.
    pub train_problems: usize,
    /// Steps simulated per training problem.
    pub train_steps: usize,
    /// Capture one sample every this many steps.
    pub capture_every: usize,
    /// §4 family-generation schedule.
    pub family: FamilyConfig,
    /// Auto-Keras-substitute search budget.
    pub search: SearchConfig,
    /// Per-model training epochs (root models; warm-started children
    /// get [`OfflineConfig::child_epochs`]).
    pub train_epochs: usize,
    /// Fine-tuning epochs for weight-inherited children; `0` disables
    /// inheritance and trains everything from scratch.
    pub child_epochs: usize,
    /// Per-model training learning rate.
    pub learning_rate: f64,
    /// Grid size of the measurement/evaluation problems.
    pub eval_grid: usize,
    /// Number of measurement problems.
    pub eval_problems: usize,
    /// Steps per measurement simulation.
    pub eval_steps: usize,
    /// Small problems used to build the KNN database (paper: 128).
    pub knn_problems: usize,
    /// Grid size of the KNN problems ("small input problems").
    pub knn_grid: usize,
    /// MLP training steps.
    pub mlp_steps: usize,
    /// Requirement samples per model when training the MLP.
    pub mlp_samples_per_model: usize,
    /// Global seed.
    pub seed: u64,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        Self {
            train_grid: 24,
            train_problems: 4,
            train_steps: 16,
            capture_every: 2,
            family: FamilyConfig::default(),
            search: SearchConfig::default(),
            train_epochs: 30,
            child_epochs: 8,
            learning_rate: 1e-2,
            eval_grid: 24,
            eval_problems: 8,
            eval_steps: 24,
            knn_problems: 16,
            knn_grid: 16,
            mlp_steps: 1200,
            mlp_samples_per_model: 256,
            seed: 0x51AB_F00D,
        }
    }
}

impl OfflineConfig {
    /// A seconds-scale configuration for unit/integration tests.
    pub fn quick() -> Self {
        Self {
            train_grid: 16,
            train_problems: 3,
            train_steps: 8,
            capture_every: 2,
            family: FamilyConfig::reduced(),
            search: SearchConfig::fast(),
            train_epochs: 60,
            child_epochs: 20,
            learning_rate: 1e-2,
            eval_grid: 16,
            eval_problems: 4,
            eval_steps: 16,
            knn_problems: 12,
            knn_grid: 16,
            mlp_steps: 400,
            mlp_samples_per_model: 128,
            seed: 0x51AB_F00D,
        }
    }

    /// Applies the `SFN_EVAL_PROBLEMS` and `SFN_TRAIN_EPOCHS` environment
    /// overrides — the offline scale knobs the bench harness documents.
    pub fn from_env(self) -> Self {
        self.with_env_overrides(sfn_obs::env::process)
    }

    /// [`OfflineConfig::from_env`] with an injectable variable lookup.
    ///
    /// Env values are untrusted input: [`sfn_obs::env::knob`] reports a
    /// malformed number as an `env.invalid` warning and keeps the
    /// current value, every override is clamped to its floor, and
    /// nothing here can panic — the `sfn-fuzz` `config_env` target
    /// drives this function with arbitrary byte soup.
    pub fn with_env_overrides(mut self, lookup: impl Fn(&str) -> Option<String>) -> Self {
        self.eval_problems = knob(&lookup, "SFN_EVAL_PROBLEMS", self.eval_problems).max(1);
        self.train_epochs = knob(&lookup, "SFN_TRAIN_EPOCHS", self.train_epochs).max(1);
        self
    }

    /// A stable cache key for artifact reuse: every field that affects
    /// the offline result participates.
    pub fn cache_key(&self) -> String {
        // FNV-1a over the debug rendering: stable within a build, cheap,
        // and collision-safe enough for a local artifact cache.
        let repr = format!("{self:?}");
        let mut h: u64 = 0xcbf29ce484222325;
        for b in repr.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_default() {
        let q = OfflineConfig::quick();
        let d = OfflineConfig::default();
        assert!(q.train_problems <= d.train_problems);
        assert!(q.family.expected_size() < d.family.expected_size());
    }

    #[test]
    fn cache_key_differs_per_config() {
        let a = OfflineConfig::quick();
        let mut b = OfflineConfig::quick();
        b.seed += 1;
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key(), OfflineConfig::quick().cache_key());
    }

    #[test]
    fn env_overrides_apply() {
        let c = OfflineConfig::quick().with_env_overrides(|name| {
            (name == "SFN_EVAL_PROBLEMS").then(|| "99".to_string())
        });
        assert_eq!(c.eval_problems, 99);
        assert_eq!(c.train_epochs, OfflineConfig::quick().train_epochs, "unset keeps the value");
    }

    #[test]
    fn malformed_env_values_fall_back_with_floors() {
        let defaults = OfflineConfig::quick();
        let c = defaults.with_env_overrides(|name| {
            Some(match name {
                "SFN_EVAL_PROBLEMS" => "not-a-number".to_string(),
                "SFN_TRAIN_EPOCHS" => " 7 ".to_string(), // whitespace ok
                _ => "\u{0}\u{ffff}".to_string(),
            })
        });
        assert_eq!(c.eval_problems, defaults.eval_problems, "malformed ignored");
        assert_eq!(c.train_epochs, 7);
        let zero = defaults.with_env_overrides(|_| Some("0".to_string()));
        assert_eq!((zero.eval_problems, zero.train_epochs), (1, 1), "clamped to floors");
    }
}
