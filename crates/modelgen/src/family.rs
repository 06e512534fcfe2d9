//! The §4 model-generation schedule: 5 → 55 → 110 → 128 (+5 search).

use crate::search::{architecture_search, SearchConfig};
use crate::transform::{dropout, narrow, pooling, shallow};
use sfn_nn::NetworkSpec;
use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};
use sfn_rng::rngs::StdRng;
use sfn_rng::{RngExt, SeedableRng};
use sfn_surrogate::ProjectionDataset;

/// How a model was derived from the base network.
#[derive(Debug, Clone, PartialEq)]
pub enum Origin {
    /// The unmodified input network.
    Base,
    /// Produced by the Auto-Keras-substitute search (§4: "five models
    /// with the better accuracy").
    Search,
    /// Operation 1 applied to the base.
    Shallow {
        /// Which intermediate conv was removed.
        which: usize,
    },
    /// Operation 2 applied to a shallow variant.
    Narrow {
        /// Parent model index within the family.
        parent: usize,
        /// Which conv was narrowed.
        which: usize,
    },
    /// Operation 3 applied to a narrow/shallow variant.
    Pooling {
        /// Parent model index within the family.
        parent: usize,
        /// Whether average pooling was used (else max pooling).
        average: bool,
    },
    /// Operation 4 applied to a randomly chosen model.
    Dropout {
        /// Parent model index within the family.
        parent: usize,
        /// Drop probability.
        p: f64,
    },
}

/// One generated (untrained) model.
#[derive(Debug, Clone)]
pub struct GeneratedModel {
    /// Index within the family.
    pub id: usize,
    /// Display name (`M<id>` style in bench output).
    pub name: String,
    /// Provenance.
    pub origin: Origin,
    /// Architecture.
    pub spec: NetworkSpec,
}

/// Parameters of the generation schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyConfig {
    /// Shallow variants of the base (paper: 5).
    pub shallow_variants: usize,
    /// Narrow variants per shallow model (paper: 10).
    pub narrow_per_model: usize,
    /// Neuron fraction removed by each narrow (paper: `|L|/10`).
    pub narrow_fraction: f64,
    /// Dropout variants (paper: 18, chosen from the 110).
    pub dropout_variants: usize,
    /// Dropout probability (paper's sensitivity study settles on 10%).
    pub dropout_p: f64,
    /// Search models to include (paper: 5 accurate Auto-Keras models).
    pub search_models: usize,
    /// Seed for the random choices in the schedule.
    pub seed: u64,
}

impl ToJson for Origin {
    fn to_json_value(&self) -> Value {
        match *self {
            Origin::Base => Value::Str("Base".to_string()),
            Origin::Search => Value::Str("Search".to_string()),
            Origin::Shallow { which } => {
                obj([("Shallow", obj([("which", which.to_json_value())]))])
            }
            Origin::Narrow { parent, which } => obj([(
                "Narrow",
                obj([
                    ("parent", parent.to_json_value()),
                    ("which", which.to_json_value()),
                ]),
            )]),
            Origin::Pooling { parent, average } => obj([(
                "Pooling",
                obj([
                    ("parent", parent.to_json_value()),
                    ("average", average.to_json_value()),
                ]),
            )]),
            Origin::Dropout { parent, p } => obj([(
                "Dropout",
                obj([("parent", parent.to_json_value()), ("p", p.to_json_value())]),
            )]),
        }
    }
}

impl FromJson for Origin {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        if let Some(name) = v.as_str() {
            return match name {
                "Base" => Ok(Origin::Base),
                "Search" => Ok(Origin::Search),
                other => Err(JsonError {
                    at: 0,
                    message: format!("unknown Origin variant `{other}`"),
                }),
            };
        }
        let fields = v.as_obj().ok_or_else(|| JsonError {
            at: 0,
            message: "expected Origin variant string or object".to_string(),
        })?;
        let [(tag, body)] = fields else {
            return Err(JsonError {
                at: 0,
                message: format!("expected single-variant object, got {} keys", fields.len()),
            });
        };
        match tag.as_str() {
            "Shallow" => Ok(Origin::Shallow { which: body.field("which")? }),
            "Narrow" => Ok(Origin::Narrow {
                parent: body.field("parent")?,
                which: body.field("which")?,
            }),
            "Pooling" => Ok(Origin::Pooling {
                parent: body.field("parent")?,
                average: body.field("average")?,
            }),
            "Dropout" => Ok(Origin::Dropout {
                parent: body.field("parent")?,
                p: body.field("p")?,
            }),
            other => Err(JsonError {
                at: 0,
                message: format!("unknown Origin variant `{other}`"),
            }),
        }
    }
}

impl ToJson for GeneratedModel {
    fn to_json_value(&self) -> Value {
        obj([
            ("id", self.id.to_json_value()),
            ("name", self.name.to_json_value()),
            ("origin", self.origin.to_json_value()),
            ("spec", self.spec.to_json_value()),
        ])
    }
}

impl FromJson for GeneratedModel {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(GeneratedModel {
            id: v.field("id")?,
            name: v.field("name")?,
            origin: v.field("origin")?,
            spec: v.field("spec")?,
        })
    }
}

impl Default for FamilyConfig {
    fn default() -> Self {
        Self {
            shallow_variants: 5,
            narrow_per_model: 10,
            narrow_fraction: 0.1,
            dropout_variants: 18,
            dropout_p: 0.1,
            search_models: 5,
            seed: 0xFA1117,
        }
    }
}

impl FamilyConfig {
    /// A reduced schedule for tests and quick runs (≈ 20 models).
    pub fn reduced() -> Self {
        Self {
            shallow_variants: 2,
            narrow_per_model: 3,
            dropout_variants: 4,
            search_models: 2,
            ..Default::default()
        }
    }

    /// Expected family size: base + shallow·(1 + narrow) doubled by
    /// pooling, plus dropout and search models.
    pub fn expected_size(&self) -> usize {
        let after_narrow = self.shallow_variants * (1 + self.narrow_per_model);
        1 + 2 * after_narrow + self.dropout_variants + self.search_models
    }
}

/// Runs the §4 schedule. `dataset` is only used by the architecture
/// search (to rank candidates); pass a small one for quick runs.
///
/// The returned family always contains the base model at index 0.
pub fn generate_family(
    base: &NetworkSpec,
    dataset: &ProjectionDataset,
    search_cfg: &SearchConfig,
    cfg: &FamilyConfig,
) -> Vec<GeneratedModel> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut family: Vec<GeneratedModel> = Vec::with_capacity(cfg.expected_size());
    let push = |family: &mut Vec<GeneratedModel>, origin: Origin, spec: NetworkSpec| {
        let id = family.len();
        family.push(GeneratedModel {
            id,
            name: format!("M{id}"),
            origin,
            spec,
        });
    };

    push(&mut family, Origin::Base, base.clone());

    // Operation 1: shallow variants of the base.
    let mut shallow_ids = Vec::new();
    for which in 0..cfg.shallow_variants {
        if let Some(spec) = shallow(base, which) {
            shallow_ids.push(family.len());
            push(&mut family, Origin::Shallow { which }, spec);
        }
    }

    // Operation 2: narrow each shallow variant several times, each a
    // fresh random conv choice (paper: "randomly choose r neurons …
    // ten times, each of which generates a new model").
    let mut stage2_ids = shallow_ids.clone();
    for &parent in &shallow_ids {
        let parent_spec = family[parent].spec.clone();
        for _ in 0..cfg.narrow_per_model {
            let which = rng.random_range(0..16usize);
            if let Some(spec) = narrow(&parent_spec, which, cfg.narrow_fraction) {
                stage2_ids.push(family.len());
                push(&mut family, Origin::Narrow { parent, which }, spec);
            }
        }
    }

    // Operation 3: one pooling variant of every stage-2 model.
    let mut stage3_ids = stage2_ids.clone();
    for &parent in &stage2_ids {
        let parent_spec = family[parent].spec.clone();
        let average = rng.random_range(0..2u32) == 1;
        let at = rng.random_range(0..8usize);
        if let Some(spec) = pooling(&parent_spec, at, average) {
            stage3_ids.push(family.len());
            push(&mut family, Origin::Pooling { parent, average }, spec);
        }
    }

    // Operation 4: dropout on randomly selected models.
    for _ in 0..cfg.dropout_variants {
        let parent = stage3_ids[rng.random_range(0..stage3_ids.len())];
        let parent_spec = family[parent].spec.clone();
        let which = rng.random_range(0..8usize);
        if let Some(spec) = dropout(&parent_spec, which, cfg.dropout_p) {
            push(
                &mut family,
                Origin::Dropout {
                    parent,
                    p: cfg.dropout_p,
                },
                spec,
            );
        }
    }

    // Accurate models from the architecture search.
    if cfg.search_models > 0 {
        for spec in architecture_search(base, dataset, cfg.search_models, search_cfg) {
            push(&mut family, Origin::Search, spec);
        }
    }

    family
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_surrogate::tompson_spec;
    use sfn_workload::ProblemSet;

    fn dataset() -> ProjectionDataset {
        ProjectionDataset::generate(&ProblemSet::training(16, 1), 4, 2)
    }

    #[test]
    fn paper_schedule_yields_133_models() {
        let cfg = FamilyConfig {
            search_models: 0, // search is tested separately (slow)
            ..Default::default()
        };
        let ds = dataset();
        let family = generate_family(&tompson_spec(16), &ds, &SearchConfig::fast(), &cfg);
        // 1 base + 5 shallow + 50 narrow + 55 pooling + 18 dropout = 129;
        // with the 5 search models the paper's 133 plus the explicit base
        // (the paper counts the base inside its 133).
        assert_eq!(family.len(), 129);
        assert_eq!(cfg.expected_size(), 129);
    }

    #[test]
    fn every_family_member_is_a_valid_surrogate() {
        let cfg = FamilyConfig {
            search_models: 0,
            ..FamilyConfig::reduced()
        };
        let ds = dataset();
        let family = generate_family(&tompson_spec(8), &ds, &SearchConfig::fast(), &cfg);
        for m in &family {
            let out = m
                .spec
                .output_shape((2, 32, 32))
                .unwrap_or_else(|e| panic!("{} invalid: {e}", m.name));
            assert_eq!(out, (1, 32, 32), "{}", m.name);
        }
    }

    #[test]
    fn family_is_deterministic() {
        let cfg = FamilyConfig {
            search_models: 0,
            ..FamilyConfig::reduced()
        };
        let ds = dataset();
        let a = generate_family(&tompson_spec(8), &ds, &SearchConfig::fast(), &cfg);
        let b = generate_family(&tompson_spec(8), &ds, &SearchConfig::fast(), &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.origin, y.origin);
        }
    }

    #[test]
    fn family_spans_a_cost_range() {
        use sfn_nn::flops::spec_flops;
        let cfg = FamilyConfig {
            search_models: 0,
            ..FamilyConfig::reduced()
        };
        let ds = dataset();
        let family = generate_family(&tompson_spec(16), &ds, &SearchConfig::fast(), &cfg);
        let costs: Vec<u64> = family
            .iter()
            .map(|m| spec_flops(&m.spec, (2, 32, 32)).unwrap())
            .collect();
        let min = *costs.iter().min().unwrap();
        let max = *costs.iter().max().unwrap();
        assert!(
            max as f64 / min as f64 > 3.0,
            "cost spread too small: {min}..{max}"
        );
    }

    #[test]
    fn ids_and_names_are_consistent() {
        let cfg = FamilyConfig {
            search_models: 0,
            ..FamilyConfig::reduced()
        };
        let ds = dataset();
        let family = generate_family(&tompson_spec(8), &ds, &SearchConfig::fast(), &cfg);
        for (i, m) in family.iter().enumerate() {
            assert_eq!(m.id, i);
            assert_eq!(m.name, format!("M{i}"));
        }
        assert_eq!(family[0].origin, Origin::Base);
    }
}
