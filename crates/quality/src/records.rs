//! Execution records (§5.1).
//!
//! "For each of the 14 neural network models, we get N execution
//! records by running N input problems. Each of the N execution
//! records includes the simulation quality `q_n^k` and execution time
//! `t_n^k`."

use sfn_nn::NetworkSpec;
use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};

/// One simulation run's outcome for one model on one input problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionRecord {
    /// Input-problem index.
    pub problem: usize,
    /// Final simulation quality loss (Eq. 3).
    pub quality_loss: f64,
    /// Execution time in seconds.
    pub time: f64,
}

/// All records collected for one model.
#[derive(Debug, Clone)]
pub struct ModelRecords {
    /// Model identifier (index among the Pareto candidates).
    pub model_id: usize,
    /// Display name.
    pub name: String,
    /// The model's architecture (featurised by Eq. 6).
    pub spec: NetworkSpec,
    /// Records over the input problems.
    pub records: Vec<ExecutionRecord>,
}

impl ToJson for ExecutionRecord {
    fn to_json_value(&self) -> Value {
        obj([
            ("problem", self.problem.to_json_value()),
            ("quality_loss", self.quality_loss.to_json_value()),
            ("time", self.time.to_json_value()),
        ])
    }
}

impl FromJson for ExecutionRecord {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(ExecutionRecord {
            problem: v.field("problem")?,
            quality_loss: v.field("quality_loss")?,
            time: v.field("time")?,
        })
    }
}

impl ToJson for ModelRecords {
    fn to_json_value(&self) -> Value {
        obj([
            ("model_id", self.model_id.to_json_value()),
            ("name", self.name.to_json_value()),
            ("spec", self.spec.to_json_value()),
            ("records", self.records.to_json_value()),
        ])
    }
}

impl FromJson for ModelRecords {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(ModelRecords {
            model_id: v.field("model_id")?,
            name: v.field("name")?,
            spec: v.field("spec")?,
            records: v.field("records")?,
        })
    }
}

impl ModelRecords {
    /// Success rate under requirement `U(q, t)`: the fraction of
    /// records with `quality_loss ≤ q` and `time ≤ t`.
    pub fn success_rate(&self, q: f64, t: f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let ok = self
            .records
            .iter()
            .filter(|r| r.quality_loss <= q && r.time <= t)
            .count();
        ok as f64 / self.records.len() as f64
    }

    /// Mean execution time over the records.
    pub fn mean_time(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.time).sum::<f64>() / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> ModelRecords {
        ModelRecords {
            model_id: 0,
            name: "M0".into(),
            spec: NetworkSpec::default(),
            records: vec![
                ExecutionRecord { problem: 0, quality_loss: 0.01, time: 1.0 },
                ExecutionRecord { problem: 1, quality_loss: 0.02, time: 2.0 },
                ExecutionRecord { problem: 2, quality_loss: 0.03, time: 1.5 },
                ExecutionRecord { problem: 3, quality_loss: 0.05, time: 0.5 },
            ],
        }
    }

    #[test]
    fn success_rate_counts_joint_requirement() {
        let r = records();
        assert_eq!(r.success_rate(0.025, 2.5), 0.5); // problems 0, 1
        assert_eq!(r.success_rate(0.05, 0.75), 0.25); // problem 3 only
        assert_eq!(r.success_rate(1.0, 10.0), 1.0);
        assert_eq!(r.success_rate(0.001, 10.0), 0.0);
    }

    #[test]
    fn aggregates() {
        let r = records();
        assert!((r.mean_time() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_records_are_safe() {
        let r = ModelRecords {
            model_id: 0,
            name: "x".into(),
            spec: NetworkSpec::default(),
            records: vec![],
        };
        assert_eq!(r.success_rate(1.0, 1.0), 0.0);
        assert_eq!(r.mean_time(), 0.0);
    }
}
