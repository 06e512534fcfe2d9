//! Durable checkpointing glue between the scheduler and `sfn-ckpt`.
//!
//! `sfn-ckpt` sits *below* the runtime in the dependency order and
//! speaks plain data; this module owns the two directions of the
//! conversation:
//!
//! * **cadence** — [`DurableCheckpointer`] wraps a
//!   [`CheckpointStore`] and decides *when* a durable write is due
//!   (at healthy check intervals, at least `every` steps apart);
//! * **conversion** — the live [`CumDivNormTracker`] to and from the
//!   checkpoint's plain-data [`TrackerState`]. The
//!   [`QuarantineTable`](crate::QuarantineTable) needs none: it stores
//!   the checkpoint's own `QuarantineEntry` records.
//!
//! Durable writes are best-effort: a full disk degrades the run to
//! in-RAM-only resilience with a `ckpt.write_failed` warning, it never
//! aborts the simulation.

use crate::cumdiv::CumDivNormTracker;
use sfn_ckpt::{recover_latest, CheckpointDoc, CheckpointStore, Recovery, TrackerState};
use std::io;
use std::path::{Path, PathBuf};

/// A checkpoint store plus write cadence, as consumed by
/// [`SmartRuntime::run_with_checkpoints`](crate::SmartRuntime::run_with_checkpoints).
#[derive(Debug)]
pub struct DurableCheckpointer {
    store: CheckpointStore,
    every: usize,
    last_written: Option<u64>,
}

impl DurableCheckpointer {
    /// Opens (creating if needed) the checkpoint directory. `every` is
    /// the minimum step distance between durable writes, `keep` the
    /// retain-last-K count; both are clamped to at least 1.
    pub fn new(dir: impl Into<PathBuf>, every: usize, keep: usize) -> io::Result<Self> {
        Ok(Self {
            store: CheckpointStore::open(dir)?.with_keep(keep.max(1)),
            every: every.max(1),
            last_written: None,
        })
    }

    /// Builds a checkpointer from `SFN_CKPT_DIR` / `SFN_CKPT_EVERY` /
    /// `SFN_CKPT_KEEP`. Returns `Ok(None)` when `SFN_CKPT_DIR` is
    /// unset (durable checkpointing disabled).
    pub fn from_env() -> io::Result<Option<Self>> {
        let cfg = sfn_ckpt::env_config();
        match cfg.dir {
            Some(dir) => Ok(Some(Self::new(dir, cfg.every, cfg.keep)?)),
            None => Ok(None),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// True when a durable write at `step` honours the cadence: the
    /// first opportunity always writes, later ones once at least
    /// `every` steps passed since the last durable checkpoint.
    pub fn due(&self, step: u64) -> bool {
        match self.last_written {
            None => true,
            Some(last) => step >= last + self.every as u64,
        }
    }

    /// Durably writes one checkpoint and advances the cadence clock.
    pub fn write(&mut self, doc: &CheckpointDoc) -> io::Result<PathBuf> {
        let path = self.store.write(doc)?;
        self.last_written = Some(doc.step);
        Ok(path)
    }

    /// Scans the directory for the newest valid checkpoint (see
    /// [`recover_latest`]) and aligns the cadence clock with it, so a
    /// resumed run does not immediately rewrite the checkpoint it just
    /// loaded.
    pub fn recover(&mut self) -> io::Result<Option<Recovery>> {
        let recovery = recover_latest(self.store.dir())?;
        if let Some(r) = &recovery {
            self.last_written = Some(r.doc.step);
        }
        Ok(recovery)
    }
}

/// Captures a tracker as checkpoint plain data.
pub fn tracker_state(tracker: &CumDivNormTracker) -> TrackerState {
    TrackerState {
        series: tracker.series().to_vec(),
        warmup_steps: tracker.warmup_steps() as u32,
        skip_per_interval: tracker.skip_per_interval() as u32,
    }
}

/// Rebuilds a tracker from checkpoint plain data, bit-identically.
pub fn tracker_from_state(state: &TrackerState) -> CumDivNormTracker {
    CumDivNormTracker::from_parts(
        state.series.clone(),
        state.warmup_steps as usize,
        state.skip_per_interval as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuarantineTable;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sfn-runtime-persist")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cadence_first_write_then_every_n() {
        let dir = temp_dir("cadence");
        let mut d = DurableCheckpointer::new(&dir, 10, 3).unwrap();
        assert!(d.due(5), "first opportunity always writes");
        d.last_written = Some(5);
        assert!(!d.due(10));
        assert!(!d.due(14));
        assert!(d.due(15));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracker_round_trips_bit_identically() {
        let mut t = CumDivNormTracker::new();
        for v in [0.1, 0.3, f64::MIN_POSITIVE, 7.25] {
            t.push(v);
        }
        let back = tracker_from_state(&tracker_state(&t));
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(back.series()), bits(t.series()));
        assert_eq!(back.warmup_steps(), t.warmup_steps());
        assert_eq!(back.skip_per_interval(), t.skip_per_interval());
    }

    #[test]
    fn quarantine_round_trips_decisions() {
        let mut q = QuarantineTable::new(3);
        q.strike(0, 2);
        q.strike(1, 2);
        q.strike(1, 3);
        q.strike(1, 4); // third strike ejects
        // Through the SFNC bytes a resume reads.
        let doc = CheckpointDoc {
            step: 4,
            snapshot: sfn_sim::SimSnapshot::from_parts(
                sfn_grid::MacGrid::new(4, 4, 1.0),
                sfn_grid::Field2::new(4, 4),
                4,
                false,
            ),
            tracker: tracker_state(&CumDivNormTracker::new()),
            scheduler: Some(sfn_ckpt::SchedulerState {
                current: 0,
                model_names: vec!["a".into(), "b".into(), "c".into()],
                quarantine: q.export_state(),
                rollbacks: 0,
            }),
        };
        let decoded = sfn_ckpt::decode(&sfn_ckpt::encode(&doc).unwrap()).unwrap();
        let back = QuarantineTable::from_state(&decoded.scheduler.unwrap().quarantine);
        assert_eq!(back.export_state(), q.export_state());
        assert!(!back.is_available(1, 100), "ejection must survive");
    }

    #[test]
    fn from_env_disabled_without_dir() {
        // SFN_CKPT_DIR is not set in the test environment.
        if std::env::var("SFN_CKPT_DIR").is_err() {
            assert!(DurableCheckpointer::from_env().unwrap().is_none());
        }
    }
}
