//! The `SFN_FAULTS` fault-schedule configuration.
//!
//! A schedule is a JSON object:
//!
//! ```json
//! {"seed": 42,
//!  "faults": [
//!    {"kind": "nan_output", "p": 0.25, "start": 8, "end": 32,
//!     "target": "M7", "mag": 0.05}
//!  ]}
//! ```
//!
//! * `seed` — base seed of every injection decision (default 0).
//! * `kind` — one of `nan_output`, `inf_output`, `solver_starvation`,
//!   `artifact_corruption`, `latency_spike`, `slow_client`,
//!   `conn_reset`, `queue_stall`.
//! * `p` — per-eligible-event injection probability (default 1.0).
//! * `start` / `end` — the eligible half-open step window `[start, end)`
//!   in the site's own step/invocation counter (defaults: whole run).
//! * `target` — substring filter on the site label (e.g. a model name);
//!   absent means every site matches.
//! * `mag` — kind-specific magnitude, see [`FaultSpec::magnitude`].
//!
//! Parsing uses the shared hand-rolled JSON-subset parser in
//! [`sfn_obs::json`] (the whole pipeline stays dependency-free); the
//! schema checks here reject anything outside the schedule shape above
//! with a position-carrying [`ParseError`] so a malformed schedule can
//! be reported and *ignored* rather than crashing the host process.

use sfn_obs::json::{self, JsonError, Value};

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Poison a fraction of a surrogate's output values with NaN.
    NanOutput,
    /// Poison a fraction of a surrogate's output values with +∞.
    InfOutput,
    /// Starve an exact solver of iterations (non-convergence).
    SolverStarvation,
    /// Corrupt (bit-flip) or truncate artifact bytes on read.
    ArtifactCorruption,
    /// Inject extra latency into an inference call.
    LatencySpike,
    /// Drip-feed a client's request/response bytes (serving path):
    /// the socket loop sleeps between chunks, tying up a connection.
    SlowClient,
    /// Reset a connection mid-exchange (serving path): the socket is
    /// dropped without a response.
    ConnReset,
    /// Stall a work queue hand-off (serving path): the dequeue sleeps,
    /// simulating a wedged worker.
    QueueStall,
}

impl FaultKind {
    /// Parses the snake_case kind name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "nan_output" => Some(Self::NanOutput),
            "inf_output" => Some(Self::InfOutput),
            "solver_starvation" => Some(Self::SolverStarvation),
            "artifact_corruption" => Some(Self::ArtifactCorruption),
            "latency_spike" => Some(Self::LatencySpike),
            "slow_client" => Some(Self::SlowClient),
            "conn_reset" => Some(Self::ConnReset),
            "queue_stall" => Some(Self::QueueStall),
            _ => None,
        }
    }

    /// The snake_case name used in config and events.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::NanOutput => "nan_output",
            Self::InfOutput => "inf_output",
            Self::SolverStarvation => "solver_starvation",
            Self::ArtifactCorruption => "artifact_corruption",
            Self::LatencySpike => "latency_spike",
            Self::SlowClient => "slow_client",
            Self::ConnReset => "conn_reset",
            Self::QueueStall => "queue_stall",
        }
    }

    /// Default magnitude when the spec omits `mag`.
    pub fn default_magnitude(self) -> f64 {
        match self {
            Self::NanOutput | Self::InfOutput => 0.05, // fraction of values
            Self::SolverStarvation => 0.5,             // residual error scale
            Self::ArtifactCorruption => 0.25,          // fraction of bytes
            Self::LatencySpike => 10.0,                // milliseconds
            Self::SlowClient => 25.0,                  // ms between chunks
            Self::ConnReset => 1.0,                    // unused
            Self::QueueStall => 50.0,                  // milliseconds
        }
    }
}

/// One fault class scheduled over a step window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Per-eligible-event probability in `[0, 1]`.
    pub probability: f64,
    /// First eligible step (site-local counter), inclusive.
    pub start: u64,
    /// End of the eligible window, exclusive (`None` = unbounded).
    pub end: Option<u64>,
    /// Site-label substring filter (`None` = all sites).
    pub target: Option<String>,
    /// Kind-specific magnitude: fraction of values/bytes for the
    /// corruption kinds (≥ 1.0 truncates an artifact instead of
    /// flipping bytes), error scale for starvation, milliseconds for
    /// latency spikes.
    pub magnitude: f64,
}

impl FaultSpec {
    /// A spec with defaults: always fire (`p = 1`), whole run, every
    /// site, default magnitude.
    pub fn new(kind: FaultKind) -> Self {
        Self {
            kind,
            probability: 1.0,
            start: 0,
            end: None,
            target: None,
            magnitude: kind.default_magnitude(),
        }
    }

    /// True if the spec covers `site` at `step` (probability aside).
    pub fn covers(&self, site: &str, step: u64) -> bool {
        if step < self.start || self.end.is_some_and(|e| step >= e) {
            return false;
        }
        match &self.target {
            Some(t) => site.contains(t.as_str()),
            None => true,
        }
    }
}

/// A full schedule: a seed plus the fault specs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Base seed of every injection decision.
    pub seed: u64,
    /// The scheduled faults.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan under `seed` — extend with [`FaultPlan::with`].
    pub fn seeded(seed: u64) -> Self {
        Self { seed, specs: Vec::new() }
    }

    /// Builder-style spec append.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }
}

/// A configuration parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SFN_FAULTS parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<JsonError> for ParseError {
    fn from(e: JsonError) -> Self {
        ParseError { at: e.at, message: e.message }
    }
}

/// Parses an `SFN_FAULTS` JSON schedule.
pub fn parse_plan(input: &str) -> Result<FaultPlan, ParseError> {
    let value = json::parse(input).map_err(ParseError::from)?;
    plan_from_value(&value)
}

// ------------------------------------------------------- schema checks

fn num_field(v: &Value, key: &str, default: f64) -> Result<f64, ParseError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Num(n)) => Ok(*n),
        Some(_) => Err(ParseError { at: 0, message: format!("{key:?} must be a number") }),
    }
}

fn plan_from_value(v: &Value) -> Result<FaultPlan, ParseError> {
    if !matches!(v, Value::Obj(_)) {
        return Err(ParseError { at: 0, message: "schedule must be a JSON object".into() });
    }
    let seed = num_field(v, "seed", 0.0)?;
    if seed < 0.0 || seed.fract() != 0.0 {
        return Err(ParseError { at: 0, message: "\"seed\" must be a non-negative integer".into() });
    }
    let mut plan = FaultPlan::seeded(seed as u64);
    let faults = match v.get("faults") {
        None | Some(Value::Null) => return Ok(plan),
        Some(Value::Arr(items)) => items,
        Some(_) => {
            return Err(ParseError { at: 0, message: "\"faults\" must be an array".into() })
        }
    };
    for item in faults {
        let kind_name = match item.get("kind") {
            Some(Value::Str(s)) => s.as_str(),
            _ => {
                return Err(ParseError { at: 0, message: "fault entry needs a \"kind\" string".into() })
            }
        };
        let kind = FaultKind::parse(kind_name).ok_or_else(|| ParseError {
            at: 0,
            message: format!("unknown fault kind {kind_name:?}"),
        })?;
        let mut spec = FaultSpec::new(kind);
        spec.probability = num_field(item, "p", 1.0)?;
        if !(0.0..=1.0).contains(&spec.probability) {
            return Err(ParseError { at: 0, message: "\"p\" must be within [0, 1]".into() });
        }
        let start = num_field(item, "start", 0.0)?;
        if start < 0.0 || start.fract() != 0.0 {
            return Err(ParseError { at: 0, message: "\"start\" must be a non-negative integer".into() });
        }
        spec.start = start as u64;
        spec.end = match item.get("end") {
            None | Some(Value::Null) => None,
            Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            Some(_) => {
                return Err(ParseError { at: 0, message: "\"end\" must be a non-negative integer".into() })
            }
        };
        spec.target = match item.get("target") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => Some(s.clone()),
            Some(_) => {
                return Err(ParseError { at: 0, message: "\"target\" must be a string".into() })
            }
        };
        spec.magnitude = num_field(item, "mag", kind.default_magnitude())?;
        if !spec.magnitude.is_finite() || spec.magnitude < 0.0 {
            return Err(ParseError { at: 0, message: "\"mag\" must be finite and non-negative".into() });
        }
        plan.specs.push(spec);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_schedule_round_trips() {
        let plan = parse_plan(
            r#"{"seed": 42, "faults": [
                {"kind": "nan_output", "p": 0.25, "start": 8, "end": 32,
                 "target": "M7", "mag": 0.05},
                {"kind": "latency_spike", "mag": 20}
            ]}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.specs.len(), 2);
        let s = &plan.specs[0];
        assert_eq!(s.kind, FaultKind::NanOutput);
        assert_eq!(s.probability, 0.25);
        assert_eq!((s.start, s.end), (8, Some(32)));
        assert_eq!(s.target.as_deref(), Some("M7"));
        assert_eq!(s.magnitude, 0.05);
        let l = &plan.specs[1];
        assert_eq!(l.kind, FaultKind::LatencySpike);
        assert_eq!(l.probability, 1.0);
        assert_eq!(l.magnitude, 20.0);
        assert_eq!(l.target, None);
    }

    #[test]
    fn serving_fault_kinds_round_trip() {
        for kind in [FaultKind::SlowClient, FaultKind::ConnReset, FaultKind::QueueStall] {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
        let plan = parse_plan(
            r#"{"faults": [
                {"kind": "slow_client", "mag": 5},
                {"kind": "conn_reset", "p": 0.5},
                {"kind": "queue_stall"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(plan.specs[0].kind, FaultKind::SlowClient);
        assert_eq!(plan.specs[0].magnitude, 5.0);
        assert_eq!(plan.specs[1].probability, 0.5);
        assert_eq!(plan.specs[2].magnitude, FaultKind::QueueStall.default_magnitude());
    }

    #[test]
    fn seed_only_schedule_is_empty() {
        let plan = parse_plan(r#"{"seed": 7}"#).unwrap();
        assert_eq!(plan.seed, 7);
        assert!(plan.specs.is_empty());
    }

    #[test]
    fn defaults_fill_omitted_fields() {
        let plan = parse_plan(r#"{"faults": [{"kind": "solver_starvation"}]}"#).unwrap();
        assert_eq!(plan.seed, 0);
        let s = &plan.specs[0];
        assert_eq!(s.probability, 1.0);
        assert_eq!(s.start, 0);
        assert_eq!(s.end, None);
        assert_eq!(s.magnitude, FaultKind::SolverStarvation.default_magnitude());
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[1, 2]",
            r#"{"seed": -1}"#,
            r#"{"seed": 1.5}"#,
            r#"{"faults": [{"kind": "meteor_strike"}]}"#,
            r#"{"faults": [{"kind": "crash"}]}"#,
            r#"{"faults": [{"kind": "nan_output", "p": 2.0}]}"#,
            r#"{"faults": [{"kind": "nan_output", "mag": -1}]}"#,
            r#"{"faults": [{"p": 0.5}]}"#,
            r#"{"faults": {"kind": "nan_output"}}"#,
            r#"{"seed": 1} trailing"#,
            r#"{"seed": 1e400}"#,
        ] {
            assert!(parse_plan(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_and_unicode() {
        let plan = parse_plan(
            r#"{"faults": [{"kind": "nan_output", "target": "a\"b\\c\nπ"}]}"#,
        )
        .unwrap();
        assert_eq!(plan.specs[0].target.as_deref(), Some("a\"b\\c\nπ"));
    }

    #[test]
    fn covers_window_and_target() {
        let mut s = FaultSpec::new(FaultKind::NanOutput);
        s.start = 5;
        s.end = Some(10);
        s.target = Some("M7".into());
        assert!(s.covers("projector/M7", 5));
        assert!(s.covers("projector/M7", 9));
        assert!(!s.covers("projector/M7", 4));
        assert!(!s.covers("projector/M7", 10));
        assert!(!s.covers("projector/M8", 7));
        let open = FaultSpec::new(FaultKind::NanOutput);
        assert!(open.covers("anything", u64::MAX - 1));
    }

    #[test]
    fn parse_error_displays_offset() {
        let e = parse_plan("{\"seed\": }").unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
    }
}
