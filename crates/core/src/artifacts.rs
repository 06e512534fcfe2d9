//! Serialisable offline artifacts with a simple file cache.

use crate::error::ArtifactError;
use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};
use sfn_modelgen::{GeneratedModel, ModelMeasurement};
use sfn_nn::network::SavedModel;
use sfn_quality::MlpVariant;
use sfn_runtime::CandidateModel;
use std::path::{Path, PathBuf};

/// Everything the offline phase produces; enough to reconstruct the
/// online runtime without re-training.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts {
    /// The §4 model family (architectures + provenance).
    pub family: Vec<GeneratedModel>,
    /// Trained + measured family members (same order as `family`).
    pub measurements: Vec<ModelMeasurement>,
    /// Indices into `measurements` forming the Pareto front (the
    /// paper's "model candidates").
    pub candidate_indices: Vec<usize>,
    /// The trained success-rate MLP.
    pub mlp: SavedModel,
    /// Which MLP topology was trained.
    pub mlp_variant: MlpVariant,
    /// Training-loss curve of the MLP (Figure 5 series for the chosen
    /// variant).
    pub mlp_loss_curve: Vec<f64>,
    /// Runtime-ready candidates selected by Eq. 8, in selection order
    /// (highest predicted success rate first).
    pub selected: Vec<CandidateModel>,
    /// The KNN database pairs `(CumDivNorm_final, Q_loss)`.
    pub knn_pairs: Vec<(f64, f64)>,
    /// The derived requirement `U(q, t)` (Tompson-baseline quality and
    /// time, per §7.1/§7.2).
    pub requirement: (f64, f64),
    /// Mean PCG projection time per simulation at the evaluation grid
    /// (the Eq. 8 fallback `T′`).
    pub fallback_time: f64,
    /// Index (into `measurements`) of the base Tompson model.
    pub base_index: usize,
}

impl ToJson for OfflineArtifacts {
    fn to_json_value(&self) -> Value {
        obj([
            ("family", self.family.to_json_value()),
            ("measurements", self.measurements.to_json_value()),
            ("candidate_indices", self.candidate_indices.to_json_value()),
            ("mlp", self.mlp.to_json_value()),
            ("mlp_variant", self.mlp_variant.to_json_value()),
            ("mlp_loss_curve", self.mlp_loss_curve.to_json_value()),
            ("selected", self.selected.to_json_value()),
            ("knn_pairs", self.knn_pairs.to_json_value()),
            ("requirement", self.requirement.to_json_value()),
            ("fallback_time", self.fallback_time.to_json_value()),
            ("base_index", self.base_index.to_json_value()),
        ])
    }
}

impl FromJson for OfflineArtifacts {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(OfflineArtifacts {
            family: v.field("family")?,
            measurements: v.field("measurements")?,
            candidate_indices: v.field("candidate_indices")?,
            mlp: v.field("mlp")?,
            mlp_variant: v.field("mlp_variant")?,
            mlp_loss_curve: v.field("mlp_loss_curve")?,
            selected: v.field("selected")?,
            knn_pairs: v.field("knn_pairs")?,
            requirement: v.field("requirement")?,
            fallback_time: v.field("fallback_time")?,
            base_index: v.field("base_index")?,
        })
    }
}

/// Logs one artifact rejection as a `parser.rejected` trace event so
/// hardened load paths stay visible (`sfn-trace audit` tallies them).
fn reject(path: &Path, error: &str) {
    sfn_obs::event(sfn_obs::Level::Warn, "parser.rejected")
        .field_str("boundary", "artifacts")
        .field_str("path", &path.display().to_string())
        .field_str("error", error)
        .emit();
}

impl OfflineArtifacts {
    /// The cache directory: `<workspace>/target/sfn-artifacts`,
    /// overridable with `SFN_ARTIFACT_DIR` (or moved by
    /// `CARGO_TARGET_DIR`). Anchored to the workspace (not the process
    /// CWD) so every binary shares one cache.
    pub fn cache_dir() -> PathBuf {
        if let Ok(d) = std::env::var("SFN_ARTIFACT_DIR") {
            PathBuf::from(d)
        } else if let Ok(d) = std::env::var("CARGO_TARGET_DIR") {
            Path::new(&d).join("sfn-artifacts")
        } else {
            // crates/core -> workspace root -> target/.
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/sfn-artifacts")
        }
    }

    /// Default cache location for a config key: `<key>.json` in
    /// [`Self::cache_dir`].
    pub fn cache_path(key: &str) -> PathBuf {
        Self::cache_dir().join(format!("{key}.json"))
    }

    /// Logs a failed write to a cache file as `cache.write_failed`: the
    /// run goes on, the next one recomputes what was not kept.
    pub fn write_failed(path: &Path, error: &dyn std::fmt::Display) {
        sfn_obs::event(sfn_obs::Level::Warn, "cache.write_failed")
            .field_str("path", &path.display().to_string())
            .field_str("error", &error.to_string())
            .emit();
    }

    /// Saves to a JSON file, creating parent directories.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let io = |source| ArtifactError::Io { path: path.to_path_buf(), source };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let json = sfn_obs::json::to_json_string(self);
        std::fs::write(path, json).map_err(io)
    }

    /// Loads from a JSON file and validates the structural invariants.
    ///
    /// A missing file comes back as a [`ArtifactError::is_not_found`]
    /// I/O error (a cache miss); anything else signals corruption the
    /// caller should answer with a rebuild.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let mut bytes = std::fs::read(path).map_err(|source| ArtifactError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        // Fault hook: bit-flip or truncate the artifact bytes on read.
        sfn_faults::corrupt_bytes(&format!("artifact:{}", path.display()), &mut bytes);
        let malformed = |detail: String| {
            reject(path, &detail);
            ArtifactError::Malformed { path: path.to_path_buf(), detail }
        };
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| malformed(format!("invalid utf-8: {e}")))?;
        let artifacts: Self = sfn_obs::json::from_json_str(text)
            .map_err(|e| malformed(format!("at byte {}: {}", e.at, e.message)))?;
        artifacts.validate().inspect_err(|e| {
            reject(path, &e.to_string());
        })?;
        Ok(artifacts)
    }

    /// Checks the structural invariants a deserialised (possibly
    /// tampered) artifact file must satisfy before it may drive the
    /// online runtime.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        let invalid = |detail: String| Err(ArtifactError::Invalid { detail });
        if self.measurements.len() != self.family.len() {
            return invalid(format!(
                "{} measurements for {} family members",
                self.measurements.len(),
                self.family.len()
            ));
        }
        if let Some(&i) = self.candidate_indices.iter().find(|&&i| i >= self.measurements.len()) {
            return invalid(format!("candidate index {i} out of range"));
        }
        if self.base_index >= self.measurements.len() {
            return invalid(format!("base index {} out of range", self.base_index));
        }
        if self.selected.is_empty() {
            return invalid("no selected candidates".into());
        }
        if self.knn_pairs.iter().any(|&(c, q)| !c.is_finite() || !q.is_finite()) {
            return invalid("non-finite KNN pair".into());
        }
        if !self.requirement.0.is_finite() || !self.requirement.1.is_finite() {
            return invalid(format!("non-finite requirement {:?}", self.requirement));
        }
        if !(self.fallback_time.is_finite() && self.fallback_time >= 0.0) {
            return invalid(format!("bad fallback time {}", self.fallback_time));
        }
        Ok(())
    }

    /// The Pareto candidates' measurements, fastest first.
    pub fn candidates(&self) -> Vec<&ModelMeasurement> {
        self.candidate_indices
            .iter()
            .map(|&i| &self.measurements[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_or_missing_files_are_typed_errors() {
        let dir = std::env::temp_dir().join("sfn-artifact-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"{\"family\": [trunca").unwrap();
        match OfflineArtifacts::load(&path) {
            Err(ArtifactError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        let missing = OfflineArtifacts::load(&dir.join("nope.json")).unwrap_err();
        assert!(missing.is_not_found());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_path_is_keyed() {
        let a = OfflineArtifacts::cache_path("abc");
        let b = OfflineArtifacts::cache_path("def");
        assert_ne!(a, b);
        assert!(a.to_string_lossy().contains("sfn-artifacts"));
    }
}
