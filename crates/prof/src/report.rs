//! The `sfn-prof/kernels@1` document: one run's kernel totals and the
//! calibration they are classified against. This module is the
//! document's one writer and one reader; `run_all` embeds it in its
//! summary and `sfn-trace profile` renders it.

use crate::{Bound, Calibration, KernelTotals};
use sfn_obs::json::{self, obj, FromJson, JsonError, ToJson, Value};
use std::fmt::Write as _;

/// Schema marker of the kernel-summary document.
pub const SCHEMA: &str = "sfn-prof/kernels@1";

/// One run's kernel summary.
///
/// Rates (GFLOP/s, GB/s, intensity, bound) are derived from the raw
/// counters on every serialisation, never stored, so `from_json ∘
/// to_json` is the identity on the counters and `to_json ∘ from_json ∘
/// to_json == to_json` (the fuzz oracle).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Wall-clock duration of the profiled run in seconds (0 when the
    /// source does not record one).
    pub duration_secs: f64,
    /// The machine ceilings the kernels are classified against (zero
    /// when the source does not record them).
    pub calibration: Calibration,
    /// `(kernel name, totals)`, sorted by name.
    pub kernels: Vec<(String, KernelTotals)>,
}

sfn_obs::json_record!(Calibration { peak_gflops: 0.0, stream_gbps: 0.0 });

impl ProfileReport {
    /// Classifies one kernel against this report's machine balance.
    pub fn bound(&self, t: &KernelTotals) -> Bound {
        self.calibration.classify(t.flops, t.bytes())
    }

    /// Parses an `sfn-prof/kernels@1` document. Tolerant of missing
    /// fields (they default to zero, a name to `"?"`) but strict about
    /// the schema marker.
    pub fn from_json(text: &str) -> Result<ProfileReport, JsonError> {
        let v = json::parse(text)?;
        if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(JsonError { at: 0, message: format!("not an {SCHEMA} document") });
        }
        let mut kernels: Vec<(String, KernelTotals)> = v
            .get("kernels")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|k| (k.field("name").unwrap_or_else(|_| "?".to_string()), KernelTotals::from_fields(k)))
            .collect();
        kernels.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(ProfileReport {
            duration_secs: v.field("duration_secs").unwrap_or(0.0),
            calibration: Calibration::from_json_value(v.get("calibration").unwrap_or(&Value::Null))?,
            kernels,
        })
    }

    /// Serialises to the `sfn-prof/kernels@1` format.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Renders the human-readable roofline table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== sfn-prof kernel report ==\n");
        let cal = &self.calibration;
        let _ = writeln!(
            out,
            "machine: peak {:.2} GFLOP/s, stream {:.2} GB/s, balance {:.2} flop/byte",
            cal.peak_gflops,
            cal.stream_gbps,
            cal.balance()
        );
        if self.kernels.is_empty() {
            out.push_str("(no kernels recorded — was SFN_PROF=1 set?)\n");
            return out;
        }
        let total_ns: u64 = self.kernels.iter().map(|(_, t)| t.ns).fold(0, u64::saturating_add);
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>10} {:>7} {:>9} {:>8} {:>9} {:>8} {:>9} bound",
            "kernel", "calls", "time", "share", "GFLOP/s", "GB/s", "flop/B", "allocs", "alloc MB"
        );
        for (name, t) in &self.kernels {
            let share = if total_ns > 0 {
                100.0 * t.ns as f64 / total_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>9.3}s {:>6.1}% {:>9.3} {:>8.3} {:>9.3} {:>8} {:>9.2} {}",
                name,
                t.calls,
                t.secs(),
                share,
                t.gflops(),
                t.gbps(),
                t.intensity(),
                t.allocs,
                t.alloc_bytes as f64 / 1e6,
                self.bound(t).as_str(),
            );
        }
        out
    }
}

impl ToJson for ProfileReport {
    fn to_json_value(&self) -> Value {
        let kernels = self
            .kernels
            .iter()
            .map(|(name, t)| {
                let derived = [("gflops", t.gflops()), ("gbps", t.gbps()), ("intensity", t.intensity())];
                let mut row = vec![("name".to_string(), name.to_json_value())];
                row.extend(t.fields().map(|(k, v)| (k.to_string(), v.to_json_value())));
                row.extend(derived.map(|(k, v)| (k.to_string(), v.to_json_value())));
                row.push(("bound".to_string(), self.bound(t).as_str().to_json_value()));
                Value::Obj(row)
            })
            .collect();
        obj([
            ("schema", SCHEMA.to_json_value()),
            ("duration_secs", self.duration_secs.to_json_value()),
            ("calibration", self.calibration.to_json_value()),
            ("kernels", Value::Arr(kernels)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> String {
        concat!(
            "{\"schema\":\"sfn-prof/kernels@1\",\"duration_secs\":2.5,",
            "\"calibration\":{\"peak_gflops\":4.0,\"stream_gbps\":8.0},",
            "\"kernels\":[",
            "{\"name\":\"conv2d\",\"calls\":10,\"ns\":1000000000,\"flops\":2000000000,",
            "\"bytes_read\":100000000,\"bytes_written\":50000000,\"allocs\":20,",
            "\"alloc_bytes\":4096,\"peak_bytes\":2048,",
            "\"gflops\":2,\"gbps\":0.15,\"intensity\":13.3,\"bound\":\"compute\"},",
            "{\"name\":\"spmv\",\"calls\":5,\"ns\":500000000,\"flops\":100000000,",
            "\"bytes_read\":1000000000,\"bytes_written\":100000000,\"allocs\":0,",
            "\"alloc_bytes\":0,\"peak_bytes\":0,",
            "\"gflops\":0.2,\"gbps\":2.2,\"intensity\":0.09,\"bound\":\"memory\"}",
            "]}"
        )
        .to_string()
    }

    #[test]
    fn parses_and_classifies() {
        let r = ProfileReport::from_json(&sample_doc()).unwrap();
        assert_eq!(r.kernels.len(), 2);
        assert_eq!(r.calibration.balance(), 0.5);
        let (name, conv) = &r.kernels[0];
        assert_eq!(name, "conv2d");
        assert!((conv.gflops() - 2.0).abs() < 1e-9);
        assert_eq!(r.bound(conv), Bound::Compute);
        assert_eq!(r.bound(&r.kernels[1].1), Bound::Memory);
        let table = r.render();
        assert!(table.contains("conv2d"), "{table}");
        assert!(table.contains("memory"), "{table}");
    }

    #[test]
    fn serialisation_is_a_fixed_point() {
        // Even though the stored derived fields in the input are stale
        // (gflops 2 vs recomputed, intensity rounded), one to_json pass
        // normalises them and further round-trips are exact.
        let first = ProfileReport::from_json(&sample_doc()).unwrap().to_json();
        let second = ProfileReport::from_json(&first).unwrap().to_json();
        assert_eq!(first, second);
    }

    #[test]
    fn rejects_other_documents() {
        assert!(ProfileReport::from_json("{\"schema\":\"sfn-trace/summary@1\"}").is_err());
        assert!(ProfileReport::from_json("[]").is_err());
        assert!(ProfileReport::from_json("nope").is_err());
    }
}
