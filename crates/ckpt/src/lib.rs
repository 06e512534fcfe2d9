//! `sfn-ckpt` — crash-consistent durable checkpointing for
//! smart-fluidnet runs.
//!
//! The runtime's in-RAM rollback anchor (PR 2) survives *numerical*
//! failure; this crate makes simulation state survive *process* failure.
//! A run checkpointed through [`CheckpointStore`] and resumed through
//! [`recover_latest`] is **bit-identical** to an uninterrupted run: the
//! simulation is deterministic and every `f64` travels as its exact bit
//! pattern, so SIGKILL-and-resume is a hard, testable oracle.
//!
//! Three layers:
//!
//! * [`format`] — the versioned, section-checksummed `SFNC` binary
//!   codec for [`CheckpointDoc`] (simulation snapshot + `CumDivNorm`
//!   tracker + scheduler/quarantine state);
//! * [`store`] — the write-temp → fsync → atomic-rename →
//!   fsync-directory protocol, the `manifest.jsonl` lineage journal and
//!   retain-last-K garbage collection;
//! * [`recover`] — the startup scan that picks the newest checkpoint
//!   that actually decodes, skipping torn or bit-rotted files with a
//!   `ckpt.rejected` event.
//!
//! # Environment
//!
//! | variable         | meaning                                   | default |
//! |------------------|-------------------------------------------|---------|
//! | `SFN_CKPT_DIR`   | checkpoint directory (unset = disabled)   | unset   |
//! | `SFN_CKPT_EVERY` | minimum steps between durable checkpoints | 5       |
//! | `SFN_CKPT_KEEP`  | checkpoints retained after GC             | 3       |
//!
//! The runtime integration lives in `sfn-runtime` (this crate stays
//! below it in the dependency order); `SmartRuntime` writes a durable
//! checkpoint at each healthy check interval once at least
//! `SFN_CKPT_EVERY` steps passed since the previous one.

#![warn(missing_docs)]

pub mod format;
pub mod recover;
pub mod store;

pub use format::{
    decode, encode, CheckpointDoc, CkptError, QuarantineEntry, SchedulerState, TrackerState,
    MAGIC, VERSION,
};
pub use recover::{recover_latest, Recovery};
pub use store::{CheckpointStore, DEFAULT_KEEP};

/// The `SFN_CKPT_*` environment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptEnv {
    /// Checkpoint directory; `None` disables durable checkpointing.
    pub dir: Option<std::path::PathBuf>,
    /// Minimum steps between durable checkpoints.
    pub every: usize,
    /// Checkpoints retained after garbage collection.
    pub keep: usize,
}

/// Reads `SFN_CKPT_DIR` / `SFN_CKPT_EVERY` / `SFN_CKPT_KEEP`. Malformed
/// numeric knobs warn (`env.invalid`) and fall back to their defaults;
/// both are clamped to at least 1; an empty `SFN_CKPT_DIR` counts as
/// unset.
pub fn env_config() -> CkptEnv {
    config_from(&sfn_obs::env::process)
}

fn config_from(get: sfn_obs::env::Lookup) -> CkptEnv {
    use sfn_obs::env::knob;
    CkptEnv {
        dir: get("SFN_CKPT_DIR").filter(|d| !d.trim().is_empty()).map(std::path::PathBuf::from),
        every: knob(get, "SFN_CKPT_EVERY", 5usize).max(1),
        keep: knob(get, "SFN_CKPT_KEEP", DEFAULT_KEEP).max(1),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::format::{CheckpointDoc, QuarantineEntry, SchedulerState, TrackerState};
    use sfn_grid::CellFlags;
    use sfn_sim::{ExactProjector, SimConfig, Simulation};
    use sfn_solver::{MicPreconditioner, PcgSolver};

    /// A realistic checkpoint: a short plume run plus populated tracker
    /// and scheduler state.
    pub(crate) fn sample_doc(n: usize, steps: usize) -> CheckpointDoc {
        let mut sim = Simulation::new(SimConfig::plume(n), CellFlags::smoke_box(n, n));
        let mut proj = ExactProjector::labelled(
            PcgSolver::new(MicPreconditioner::default(), 1e-7, 20_000),
            "pcg",
        );
        let mut series = Vec::new();
        for _ in 0..steps {
            let s = sim.step(&mut proj);
            let prev = series.last().copied().unwrap_or(0.0);
            series.push(prev + s.div_norm);
        }
        CheckpointDoc {
            step: steps as u64,
            snapshot: sim.snapshot(),
            tracker: TrackerState { series, warmup_steps: 5, skip_per_interval: 2 },
            scheduler: Some(SchedulerState {
                current: 1,
                model_names: vec!["M3".into(), "M7".into(), "M9".into()],
                quarantine: vec![
                    QuarantineEntry { strikes: 0, until_interval: 0, ejected: false },
                    QuarantineEntry { strikes: 1, until_interval: 4, ejected: false },
                    QuarantineEntry { strikes: 3, until_interval: 0, ejected: true },
                ],
                rollbacks: 2,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |name| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
    }

    #[test]
    fn env_defaults_when_unset() {
        let cfg = config_from(&vars(&[]));
        assert_eq!(cfg, CkptEnv { dir: None, every: 5, keep: DEFAULT_KEEP });
    }

    #[test]
    fn env_parses_and_clamps() {
        let cfg = config_from(&vars(&[
            ("SFN_CKPT_DIR", "/tmp/ckpts"),
            ("SFN_CKPT_EVERY", "10"),
            ("SFN_CKPT_KEEP", "0"), // clamped to 1
        ]));
        assert_eq!(cfg.dir.as_deref(), Some(std::path::Path::new("/tmp/ckpts")));
        assert_eq!(cfg.every, 10);
        assert_eq!(cfg.keep, 1);
    }

    #[test]
    fn malformed_env_falls_back() {
        let cfg = config_from(&vars(&[("SFN_CKPT_DIR", "  "), ("SFN_CKPT_EVERY", "not-a-number")]));
        assert_eq!(cfg.dir, None, "blank dir counts as unset");
        assert_eq!(cfg.every, 5);
    }
}
