//! The pinned model roster.
//!
//! The offline pipeline's Pareto selection uses measured wall times, so
//! every build selects a different roster (three consecutive
//! `OfflineConfig::quick()` builds selected 3, 2 and 4 candidates, none
//! the same set). Nothing downstream of it would repeat, so the
//! benchmark loads one build, pruned and committed, instead.

use smart_fluidnet_core::{build_offline, ArtifactError, OfflineArtifacts, OfflineConfig};
use std::path::PathBuf;
use std::time::Instant;

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/roster.json")
}

pub struct Loaded {
    pub artifacts: OfflineArtifacts,
    pub load_ms: f64,
    pub bytes: u64,
}

pub fn load() -> Result<Loaded, ArtifactError> {
    let path = path();
    let t = Instant::now();
    // `load` validates, but the issue names both calls and a later
    // loader may stop doing so.
    let artifacts = OfflineArtifacts::load(&path)?;
    artifacts.validate()?;
    let load_ms = crate::util::ms_since(t);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    Ok(Loaded {
        artifacts,
        load_ms,
        bytes,
    })
}

/// Keeps the base model and the selected candidates and drops the rest
/// of the family (3.4 MB → under 1 MB). Names and ids stay those of the
/// build, so the provenance note can refer to them.
fn prune(full: OfflineArtifacts) -> OfflineArtifacts {
    let mut keep = vec![full.base_index];
    for s in &full.selected {
        let i = full
            .measurements
            .iter()
            .position(|m| m.name == s.name)
            .expect("a selected model was measured");
        if !keep.contains(&i) {
            keep.push(i);
        }
    }
    let candidate_indices = (0..keep.len())
        .filter(|&k| full.candidate_indices.contains(&keep[k]))
        .collect();
    OfflineArtifacts {
        family: keep.iter().map(|&i| full.family[i].clone()).collect(),
        measurements: keep.iter().map(|&i| full.measurements[i].clone()).collect(),
        candidate_indices,
        base_index: 0,
        ..full
    }
}

/// `gen-fixture [path]`: one `OfflineConfig::quick()` build, pruned and
/// written to `path` (default: the committed fixture). Never run by the
/// benchmark command.
pub fn generate(out: Option<&str>) -> Result<(), String> {
    let out = out.map_or_else(path, PathBuf::from);
    let t = Instant::now();
    let full = build_offline(&OfflineConfig::quick());
    eprintln!(
        "quick() build: {:.1} s, family of {}, Pareto candidates {:?}",
        t.elapsed().as_secs_f64(),
        full.family.len(),
        full.candidate_indices
            .iter()
            .map(|&i| full.measurements[i].name.as_str())
            .collect::<Vec<_>>(),
    );
    if full.selected.len() < 3 {
        return Err(format!(
            "this build selected {} candidates; the benchmark needs at least 3 — run it again",
            full.selected.len()
        ));
    }
    let pruned = prune(full);
    pruned.validate().map_err(|e| e.to_string())?;
    pruned.save(&out).map_err(|e| e.to_string())?;
    let base = &pruned.measurements[pruned.base_index];
    println!(
        "wrote {} ({} bytes)",
        out.display(),
        std::fs::metadata(&out).map_or(0, |m| m.len())
    );
    println!(
        "base {}: quality_loss {:.5}, time_cost {:.5} s",
        base.name, base.quality_loss, base.time_cost
    );
    println!(
        "requirement q = {:.6}, t = {:.6} s",
        pruned.requirement.0, pruned.requirement.1
    );
    for s in &pruned.selected {
        println!(
            "selected {}: probability {:.4}, exec_time {:.5} s, quality_loss {:.5}",
            s.name, s.probability, s.exec_time, s.quality_loss
        );
    }
    println!("knn pairs: {}", pruned.knn_pairs.len());
    Ok(())
}
