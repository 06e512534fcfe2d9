//! The run table: every (method, problem) simulation the experiments
//! ask for, computed at most once and logged as one JSONL line.
//!
//! A run is keyed by its [`Method`] — `pcg`, a fixed model's content
//! hash, or `smart` with the full [`RuntimeConfig`] — and its problem
//! `(grid, index, steps)`: problem `index` of
//! [`ProblemSet::evaluation`]`(grid, _)`, which does not depend on the
//! set's size. Table 1, Figures 1 and 8–13, Tables 2–3 and the
//! scheduler and tolerance ablations all query it, so a run that two
//! of them share is made once, and its PCG reference at most once per
//! process.
//!
//! As each run finishes it is appended, with one `write`, to
//! `runs-<fnv1a of the offline artifact>.jsonl` in the artifact cache
//! directory ([`OfflineArtifacts::cache_dir`]). A later process serves
//! the logged runs instead of recomputing them, so a killed `run_all`
//! loses only the runs in flight. A line that is not a whole run (torn
//! by a kill, or missing its key) is skipped and counted, and its run
//! is made again. A rebuilt artifact gets a new log. The log's name
//! knows only the artifact, not the code: delete the log after any
//! change to the code behind a run, or to re-time the runs.
//!
//! Under an armed fault plan (`SFN_FAULTS`) a run is not a function of
//! its key, because injection follows per-site counters. The table
//! then reads and writes no log and computes every run it is asked
//! for; only the PCG references are still shared within the process.

use sfn_grid::Field2;
use sfn_nn::network::SavedModel;
use sfn_runtime::RuntimeConfig;
use sfn_sim::quality_loss;
use sfn_surrogate::NeuralProjector;
use sfn_workload::{InputProblem, ProblemSet};
use smart_fluidnet_core::{OfflineArtifacts, SmartFluidnet};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// One run: its key and what the tables and figures read. One log line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// The method's key: `pcg`, `model-<hash>` or `smart <config>`.
    pub method: String,
    /// Grid size of the problem.
    pub grid: usize,
    /// Index of the evaluation problem.
    pub problem: usize,
    /// Simulation steps.
    pub steps: usize,
    /// Quality loss (Eq. 3) against the PCG reference: 0 for PCG
    /// itself, infinite for a fixed model whose simulation blew up or
    /// a NaN loss (logged as `null`).
    pub qloss: f64,
    /// Seconds spent in the pressure projection; an adaptive run that
    /// restarted also pays the full PCG rerun.
    pub secs: f64,
    /// Whether the adaptive runtime fell back to PCG.
    pub restarted: bool,
    /// Scheduler events (model switches) of an adaptive run.
    pub events: usize,
    /// The models an adaptive run used, in scheduler order (Table 3).
    pub models: Vec<String>,
    /// Projection seconds per entry of `models`.
    pub model_secs: Vec<f64>,
    /// Steps per entry of `models`.
    pub model_steps: Vec<usize>,
}

sfn_obs::json_record!(RunRecord {
    method: String::new(),
    grid: 0,
    problem: 0,
    steps: 0,
    qloss: f64::INFINITY,
    secs: 0.0,
    restarted: false,
    events: 0,
    models: Vec::new(),
    model_secs: Vec::new(),
    model_steps: Vec::new(),
});

/// A run's key: `(method key, grid, problem index, steps)`.
type Key = (String, usize, usize, usize);

/// Percentage of `runs` meeting the quality target `q`.
pub fn success_rate(runs: &[RunRecord], q: f64) -> f64 {
    100.0 * runs.iter().filter(|r| r.qloss <= q).count() as f64 / runs.len() as f64
}

/// What a run projects with.
#[derive(Debug, Clone, Copy)]
pub enum Method<'a> {
    /// The PCG ground truth ([`sfn_workload::reference_projector`]).
    Pcg,
    /// One neural model for every step, keyed by the `fnv1a` of its
    /// saved JSON.
    Fixed {
        /// The projector's label in traces.
        name: &'a str,
        /// The model.
        model: &'a SavedModel,
    },
    /// The adaptive runtime (Algorithm 2) under this configuration; its
    /// `total_steps` is the run's steps.
    Smart(RuntimeConfig),
}

impl Method<'_> {
    fn key(&self, steps: usize) -> String {
        match self {
            Method::Pcg => "pcg".into(),
            Method::Fixed { model, .. } => {
                let json = sfn_obs::json::to_json_string(*model);
                format!("model-{:016x}", sfn_rng::fnv1a(json.as_bytes()))
            }
            Method::Smart(cfg) => {
                format!("smart {:?}", RuntimeConfig { total_steps: steps, ..*cfg })
            }
        }
    }
}

/// What a table computed and read, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// PCG reference simulations run.
    pub references: usize,
    /// Fixed-model simulations run.
    pub fixed: usize,
    /// Adaptive (Smart) simulations run.
    pub smart: usize,
    /// Runs read from the log when it was opened.
    pub logged: usize,
    /// Log lines skipped when it was opened: torn, or not a whole run.
    pub rejected: usize,
}

/// A memo cell per key: the first requester computes, concurrent ones
/// wait for its value.
type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

fn memoised<K, V>(memo: &Memo<K, V>, key: K, init: impl FnOnce() -> V) -> V
where
    K: std::hash::Hash + Eq,
    V: Clone,
{
    let cell = memo.lock().unwrap_or_else(|e| e.into_inner()).entry(key).or_default().clone();
    cell.get_or_init(init).clone()
}

/// Every run the experiments share (see the module docs).
pub struct RunTable {
    path: PathBuf,
    /// The append-only log; `None` under a fault plan or when it
    /// cannot be opened.
    log: Option<File>,
    /// False under an armed fault plan: every run request is computed.
    memo: bool,
    runs: Memo<Key, RunRecord>,
    references: Memo<(usize, usize, usize), (Field2, f64)>,
    counts: Mutex<RunCounts>,
}

impl RunTable {
    /// The log file of `artifacts`' runs in `dir`.
    pub fn log_path(dir: &Path, artifacts: &OfflineArtifacts) -> PathBuf {
        let bytes = sfn_obs::json::to_json_string(artifacts);
        dir.join(format!("runs-{:016x}.jsonl", sfn_rng::fnv1a(bytes.as_bytes())))
    }

    /// The table of `artifacts`' runs, serving what the log in `dir`
    /// already holds. With a fault plan armed, the log is not touched.
    pub fn open(dir: &Path, artifacts: &OfflineArtifacts) -> Self {
        let mut table = RunTable {
            path: Self::log_path(dir, artifacts),
            log: None,
            memo: !sfn_faults::active(),
            runs: Mutex::default(),
            references: Mutex::default(),
            counts: Mutex::default(),
        };
        if !table.memo {
            return table;
        }
        let bytes = std::fs::read(&table.path).unwrap_or_default();
        let (mut runs, mut counts) = (HashMap::new(), RunCounts::default());
        for line in String::from_utf8_lossy(&bytes).lines().filter(|l| !l.is_empty()) {
            // A missing field decodes to its default, so a line
            // without its key is rejected as well as a torn one.
            match sfn_obs::json::from_json_str::<RunRecord>(line) {
                Ok(run) if !run.method.is_empty() && run.grid > 0 && run.steps > 0 => {
                    let key = (run.method.clone(), run.grid, run.problem, run.steps);
                    runs.insert(key, Arc::new(OnceLock::from(run)));
                }
                decoded => {
                    counts.rejected += 1;
                    let error = decoded.err().map_or("no run key".into(), |e| e.message);
                    sfn_obs::event(sfn_obs::Level::Warn, "parser.rejected")
                        .field_str("boundary", "runs")
                        .field_str("path", &table.path.display().to_string())
                        .field_str("error", &error)
                        .emit();
                }
            }
        }
        counts.logged = runs.len();
        (table.runs, table.counts) = (Mutex::new(runs), Mutex::new(counts));
        let opened = std::fs::create_dir_all(dir)
            .and_then(|()| OpenOptions::new().create(true).append(true).open(&table.path))
            .and_then(|mut file| {
                // A torn last line must not swallow the next append.
                if bytes.last().is_some_and(|&b| b != b'\n') {
                    file.write_all(b"\n")?;
                }
                Ok(file)
            });
        match opened {
            Ok(file) => table.log = Some(file),
            Err(e) => OfflineArtifacts::write_failed(&table.path, &e),
        }
        table
    }

    /// The log this table reads and appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What this table has computed and read so far.
    pub fn counts(&self) -> RunCounts {
        *self.counts.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn count(&self, bump: impl FnOnce(&mut RunCounts)) {
        bump(&mut self.counts.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// `method`'s run on evaluation problem `index` at `grid` for
    /// `steps` steps: served from memory or the log, else computed
    /// once and logged. `fw` runs the [`Method::Smart`] runs.
    pub fn run(
        &self,
        fw: &SmartFluidnet,
        method: &Method,
        grid: usize,
        index: usize,
        steps: usize,
    ) -> RunRecord {
        if !self.memo {
            return self.compute(fw, method, grid, index, steps);
        }
        memoised(&self.runs, (method.key(steps), grid, index, steps), || {
            let run = self.compute(fw, method, grid, index, steps);
            if let Some(mut log) = self.log.as_ref() {
                // One write per line on an O_APPEND file: concurrent
                // appends never interleave, and a kill tears at most
                // the last line.
                if let Err(e) = log.write_all((sfn_obs::json::to_json_string(&run) + "\n").as_bytes()) {
                    OfflineArtifacts::write_failed(&self.path, &e);
                }
            }
            run
        })
    }

    /// The PCG reference of one problem: final density and projection
    /// seconds, computed at most once per table.
    fn reference(&self, grid: usize, index: usize, steps: usize) -> (Field2, f64) {
        memoised(&self.references, (grid, index, steps), || {
            self.count(|c| c.references += 1);
            problem(grid, index).reference(steps)
        })
    }

    fn compute(
        &self,
        fw: &SmartFluidnet,
        method: &Method,
        grid: usize,
        index: usize,
        steps: usize,
    ) -> RunRecord {
        let (reference, secs) = self.reference(grid, index, steps);
        // PCG's own run, and the key and problem every other run shares.
        let base = RunRecord {
            method: method.key(steps),
            grid,
            problem: index,
            steps,
            secs,
            ..Default::default()
        };
        // `null` in the log reads back as infinite, so a NaN is made
        // infinite here and a served run equals the computed one.
        let loss = |density: &Field2| Some(quality_loss(density, &reference)).filter(|q| !q.is_nan());
        let run = match *method {
            Method::Pcg => return base,
            Method::Fixed { name, model } => {
                self.count(|c| c.fixed += 1);
                let mut proj =
                    NeuralProjector::try_from_saved(model, name).expect("model snapshot loads");
                let mut sim = problem(grid, index).simulation();
                let stats = sim.run(steps, &mut proj);
                RunRecord {
                    qloss: loss(sim.density()).filter(|_| sim.is_healthy()).unwrap_or(f64::INFINITY),
                    secs: stats.iter().map(|s| s.projection_time.as_secs_f64()).sum(),
                    ..base
                }
            }
            Method::Smart(cfg) => {
                self.count(|c| c.smart += 1);
                let mut rt = fw.runtime_with(RuntimeConfig { total_steps: steps, ..cfg });
                let out = rt.run(problem(grid, index).simulation());
                let run = RunRecord {
                    qloss: loss(&out.density).unwrap_or(f64::INFINITY),
                    secs: out.time_per_model.iter().sum::<f64>() + out.restart_time,
                    restarted: out.restarted,
                    events: out.events.len(),
                    models: out.model_names,
                    model_secs: out.time_per_model,
                    model_steps: out.steps_per_model,
                    ..base
                };
                sfn_obs::event(sfn_obs::Level::Debug, "bench.run")
                    .field_f64("qloss", run.qloss)
                    .field_f64("secs", run.secs)
                    .field_bool("restarted", run.restarted)
                    .field_u64("switches", run.events as u64)
                    .emit();
                run
            }
        };
        if self.memo {
            // Log the reference's own run as well, so a later process
            // answers a PCG query without rerunning it.
            self.run(fw, &Method::Pcg, grid, index, steps);
        }
        run
    }
}

/// Evaluation problem `index` at `grid`, the same in a set of any size.
fn problem(grid: usize, index: usize) -> InputProblem {
    ProblemSet::evaluation(grid, index + 1).problem(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::{sweep, Sweep};
    use smart_fluidnet_core::OfflineConfig;

    /// Serialises the tests that count: one arms a process-wide fault plan.
    static LOCK: Mutex<()> = Mutex::new(());

    const GRID: usize = 16;
    const STEPS: usize = 4;

    /// The lock, the quick framework and an empty log directory.
    fn setup(name: &str) -> (std::sync::MutexGuard<'static, ()>, SmartFluidnet, PathBuf) {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("sfn-runs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (guard, SmartFluidnet::build_cached(&OfflineConfig::quick()), dir)
    }

    fn tompson(fw: &SmartFluidnet) -> Method<'_> {
        let art = fw.artifacts();
        Method::Fixed { name: "tompson", model: &art.measurements[art.base_index].saved }
    }

    fn computed(references: usize, fixed: usize, smart: usize) -> RunCounts {
        RunCounts { references, fixed, smart, ..Default::default() }
    }

    /// The lines of `fw`'s log in `dir`.
    fn log_lines(dir: &Path, fw: &SmartFluidnet) -> Vec<String> {
        let text = std::fs::read_to_string(RunTable::log_path(dir, fw.artifacts()));
        text.unwrap_or_default().lines().map(String::from).collect()
    }

    #[test]
    fn one_key_is_computed_once_and_each_key_separately() {
        let (_guard, fw, dir) = setup("once");
        let table = RunTable::open(&dir, fw.artifacts());
        let base = tompson(&fw);
        let first = table.run(&fw, &base, GRID, 0, STEPS);
        assert!(first.qloss.is_finite() && first.qloss > 0.0 && first.secs > 0.0, "{first:?}");
        assert_eq!(table.run(&fw, &base, GRID, 0, STEPS), first);
        let pcg = table.run(&fw, &Method::Pcg, GRID, 0, STEPS);
        assert!(pcg.qloss == 0.0 && pcg.secs > 0.0, "{pcg:?}");
        assert_eq!(table.counts(), computed(1, 1, 0), "one reference, one run");
        assert_eq!(log_lines(&dir, &fw).len(), 2, "the run and its reference");

        let art = fw.artifacts();
        let other = &art.measurements[(art.base_index + 1) % art.measurements.len()];
        table.run(&fw, &Method::Fixed { name: &other.name, model: &other.saved }, GRID, 0, STEPS);
        let cfg = RuntimeConfig { quality_target: fw.requirement().0, ..Default::default() };
        let interval = Method::Smart(RuntimeConfig { check_interval: 10, ..cfg });
        for method in [Method::Smart(cfg), interval, Method::Smart(cfg)] {
            let run = table.run(&fw, &method, GRID, 0, STEPS);
            assert!(run.qloss.is_finite() && run.secs > 0.0 && !run.models.is_empty(), "{run:?}");
        }
        assert_eq!(table.counts(), computed(1, 2, 2), "another model or config runs apart");

        // Concurrent requests for one key still compute it once.
        let runs = sfn_par::map_range(4, |i| table.run(&fw, &base, GRID, i % 2, STEPS));
        assert_eq!(runs[1], runs[3]);
        assert_eq!(table.counts(), computed(2, 3, 2));
        assert_eq!(log_lines(&dir, &fw).len(), 7);

        // A new process serves every logged run, bit for bit.
        let reopened = RunTable::open(&dir, fw.artifacts());
        assert_eq!(reopened.run(&fw, &base, GRID, 1, STEPS), runs[1]);
        let smart = reopened.run(&fw, &Method::Smart(cfg), GRID, 0, STEPS);
        assert_eq!(smart, table.run(&fw, &Method::Smart(cfg), GRID, 0, STEPS));
        assert_eq!(reopened.counts(), RunCounts { logged: 7, ..Default::default() });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_keyless_lines_are_skipped_counted_and_rerun_once() {
        let (_guard, fw, dir) = setup("torn");
        let base = tompson(&fw);
        let logged = RunTable::open(&dir, fw.artifacts()).run(&fw, &base, GRID, 1, STEPS);
        let path = RunTable::log_path(&dir, fw.artifacts());
        let bytes = std::fs::read(&path).unwrap();
        // A valid JSON line without a key, then the last line torn.
        let torn = [b"{\"qloss\": 0.5}\n", &bytes[..bytes.len() - 20]].concat();
        std::fs::write(&path, torn).unwrap();

        let table = RunTable::open(&dir, fw.artifacts());
        assert_eq!(table.run(&fw, &base, GRID, 1, STEPS).qloss.to_bits(), logged.qloss.to_bits());
        assert_eq!(table.counts(), RunCounts { logged: 1, rejected: 2, ..computed(1, 1, 0) });
        let lines = log_lines(&dir, &fw);
        assert_eq!(lines.len(), 4, "the rerun starts its own line:\n{lines:#?}");
        let after = RunTable::open(&dir, fw.artifacts()).counts();
        assert_eq!((after.logged, after.rejected), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rebuilt_artifact_shares_no_run() {
        let (_guard, fw, dir) = setup("rebuilt");
        // Same config, another roster: what a rebuild after corruption picks.
        let mut rebuilt = fw.artifacts().clone();
        rebuilt.selected.reverse();
        rebuilt.selected.pop();
        let base = tompson(&fw);
        RunTable::open(&dir, fw.artifacts()).run(&fw, &base, GRID, 0, STEPS);
        let other = RunTable::open(&dir, &rebuilt);
        other.run(&fw, &base, GRID, 0, STEPS);
        assert_eq!(other.counts(), computed(1, 1, 0));
        assert_eq!(RunTable::open(&dir, fw.artifacts()).counts().logged, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_armed_fault_plan_leaves_the_log_alone_and_computes_every_request() {
        let (_guard, fw, dir) = setup("faults");
        let base = tompson(&fw);
        RunTable::open(&dir, fw.artifacts()).run(&fw, &base, GRID, 0, STEPS);
        let before = log_lines(&dir, &fw);

        // A plan aimed at no site: armed, but it injects nothing.
        let plan = sfn_faults::parse_plan(
            r#"{"seed": 1, "faults": [
                {"kind": "latency_spike", "p": 1.0, "target": "no-such-site"}]}"#,
        )
        .unwrap();
        sfn_faults::install(Some(plan));
        let table = RunTable::open(&dir, fw.artifacts());
        for method in [base, base, Method::Pcg] {
            table.run(&fw, &method, GRID, 0, STEPS);
        }
        sfn_faults::install(None);
        assert_eq!(table.counts(), computed(1, 2, 0));
        assert_eq!(log_lines(&dir, &fw), before, "the log is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cut_sweep_resumes_by_run() {
        let (_guard, _, dir) = setup("resume");
        let env = || {
            let framework = SmartFluidnet::build_cached(&OfflineConfig::quick());
            let table = RunTable::open(&dir, framework.artifacts());
            let (offline, grids) = (OfflineConfig::quick(), vec![16]);
            crate::BenchEnv { framework, offline, grids, problems_per_grid: 2, steps: 8, table }
        };
        let whole = env();
        let full = sweep(&whole);
        assert_eq!(whole.table.counts(), computed(2, 2, 4));

        // Cut the last three lines, as a kill in flight would.
        let lines = log_lines(&dir, &whole.framework);
        let (kept, cut) = lines.split_at(lines.len() - 3);
        let path = RunTable::log_path(&dir, whole.framework.artifacts());
        std::fs::write(&path, kept.iter().map(|l| format!("{l}\n")).collect::<String>()).unwrap();
        let cut_of = |kind: &str| cut.iter().filter(|l| l.contains(kind)).count();

        let resumed_env = env();
        let resumed = sweep(&resumed_env);
        let counts = resumed_env.table.counts();
        assert_eq!(counts.logged, 5);
        assert_eq!((counts.fixed, counts.smart), (cut_of("\"model-"), cut_of("\"smart ")));
        assert_eq!(log_lines(&dir, &whole.framework).len(), 8, "only the cut runs are made again");
        let bits = |s: &Sweep| -> Vec<(u64, bool)> {
            let g = &s.grids[0];
            let runs = g.tompson.iter().chain(&g.smart).chain(&g.smart_no_mlp);
            runs.map(|r| (r.qloss.to_bits(), r.restarted)).collect()
        };
        assert_eq!(bits(&resumed), bits(&full));
        assert_eq!(resumed.render_table2(), full.render_table2());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
