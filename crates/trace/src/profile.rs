//! Per-kernel roofline report: the read side of `sfn-prof`.
//!
//! A profiled run leaves its kernel totals in two equivalent places —
//! `prof.kernel` / `prof.calibration` events inside the JSONL trace,
//! and the `sfn-prof/kernels@1` JSON document (the `kernel_summary`
//! section of `run_all_summary.json`). [`ProfileReport`] loads either,
//! recomputes every derived rate from the raw counters (so
//! parse → serialise is a fixed point, which the fuzz harness checks),
//! and renders the roofline table `sfn-trace profile` prints.

use crate::event::Trace;
use sfn_obs::json::{self, JsonError, Value};
use std::fmt::Write as _;

/// Schema marker of the kernel-summary document (shared with
/// `sfn_prof::summary_json`).
pub const PROFILE_SCHEMA: &str = "sfn-prof/kernels@1";

/// One kernel's accumulated raw counters. Rates (GFLOP/s, GB/s,
/// intensity, bound) are always derived from these, never stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRow {
    /// Kernel name (`conv2d`, `pcg`, `mic0`, …).
    pub name: String,
    /// Completed scope invocations.
    pub calls: u64,
    /// Total elapsed nanoseconds.
    pub ns: u64,
    /// Total floating-point operations.
    pub flops: u64,
    /// Total bytes read (analytic model).
    pub bytes_read: u64,
    /// Total bytes written (analytic model).
    pub bytes_written: u64,
    /// Heap allocations while the kernel was innermost.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Largest per-invocation live-heap growth.
    pub peak_bytes: u64,
}

impl KernelRow {
    /// Total elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Total bytes moved (saturating).
    pub fn bytes(&self) -> u64 {
        self.bytes_read.saturating_add(self.bytes_written)
    }

    /// Achieved GFLOP/s (0 when no time was recorded).
    pub fn gflops(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.flops as f64 / self.secs() / 1e9
        }
    }

    /// Achieved GB/s (0 when no time was recorded).
    pub fn gbps(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.bytes() as f64 / self.secs() / 1e9
        }
    }

    /// Arithmetic intensity in FLOPs per byte.
    pub fn intensity(&self) -> f64 {
        sfn_prof::intensity(self.flops, self.bytes())
    }
}

/// The parsed kernel summary of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Wall-clock duration of the profiled run in seconds (0 when the
    /// source does not record one).
    pub duration_secs: f64,
    /// Calibrated peak FLOP/s ceiling, GFLOP/s.
    pub peak_gflops: f64,
    /// Calibrated stream-bandwidth ceiling, GB/s.
    pub stream_gbps: f64,
    /// Per-kernel raw counters, sorted by name.
    pub kernels: Vec<KernelRow>,
}

impl ProfileReport {
    /// The machine balance in FLOPs per byte (infinite when the
    /// bandwidth calibration is degenerate).
    pub fn balance(&self) -> f64 {
        sfn_prof::Calibration {
            peak_gflops: self.peak_gflops,
            stream_gbps: self.stream_gbps,
        }
        .balance()
    }

    /// Classifies one kernel against this report's machine balance.
    pub fn bound(&self, k: &KernelRow) -> sfn_prof::Bound {
        sfn_prof::classify(k.flops, k.bytes(), self.balance())
    }

    /// Builds the report from `prof.kernel` / `prof.calibration` events
    /// of a raw trace.
    pub fn from_trace(trace: &Trace) -> ProfileReport {
        let (t0, t1) = trace.span().unwrap_or((0.0, 0.0));
        let mut report = ProfileReport {
            duration_secs: t1 - t0,
            peak_gflops: 0.0,
            stream_gbps: 0.0,
            kernels: Vec::new(),
        };
        // Last calibration wins (a restarted run re-emits it).
        for e in trace.of_kind("prof.calibration") {
            report.peak_gflops = e.f64("peak_gflops").unwrap_or(0.0);
            report.stream_gbps = e.f64("stream_gbps").unwrap_or(0.0);
        }
        for e in trace.of_kind("prof.kernel") {
            let name = e.str("kernel").unwrap_or("?").to_string();
            let row = KernelRow {
                name,
                calls: e.u64("calls").unwrap_or(0),
                ns: e.u64("ns").unwrap_or(0),
                flops: e.u64("flops").unwrap_or(0),
                bytes_read: e.u64("bytes_read").unwrap_or(0),
                bytes_written: e.u64("bytes_written").unwrap_or(0),
                allocs: e.u64("allocs").unwrap_or(0),
                alloc_bytes: e.u64("alloc_bytes").unwrap_or(0),
                peak_bytes: e.u64("peak_bytes").unwrap_or(0),
            };
            // A re-emitted kernel (summary emitted twice) replaces the
            // earlier totals rather than double-counting them.
            match report.kernels.iter_mut().find(|k| k.name == row.name) {
                Some(k) => *k = row,
                None => report.kernels.push(row),
            }
        }
        report.kernels.sort_by(|a, b| a.name.cmp(&b.name));
        report
    }

    /// Parses an `sfn-prof/kernels@1` document. Tolerant of missing
    /// fields (they default to zero) but strict about the schema
    /// marker.
    pub fn from_json(text: &str) -> Result<ProfileReport, JsonError> {
        let v = json::parse(text)?;
        let bad = |message: &str| JsonError { at: 0, message: message.to_string() };
        if v.get("schema").and_then(Value::as_str) != Some(PROFILE_SCHEMA) {
            return Err(bad(&format!("not an {PROFILE_SCHEMA} document")));
        }
        let num = |o: &Value, key: &str| o.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let int = |o: &Value, key: &str| o.get(key).and_then(Value::as_u64).unwrap_or(0);
        let cal = v.get("calibration");
        let mut kernels = match v.get("kernels").and_then(Value::as_arr) {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(|o| KernelRow {
                    name: o.get("name").and_then(Value::as_str).unwrap_or("?").to_string(),
                    calls: int(o, "calls"),
                    ns: int(o, "ns"),
                    flops: int(o, "flops"),
                    bytes_read: int(o, "bytes_read"),
                    bytes_written: int(o, "bytes_written"),
                    allocs: int(o, "allocs"),
                    alloc_bytes: int(o, "alloc_bytes"),
                    peak_bytes: int(o, "peak_bytes"),
                })
                .collect::<Vec<_>>(),
        };
        kernels.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(ProfileReport {
            duration_secs: num(&v, "duration_secs"),
            peak_gflops: cal.map_or(0.0, |c| num(c, "peak_gflops")),
            stream_gbps: cal.map_or(0.0, |c| num(c, "stream_gbps")),
            kernels,
        })
    }

    /// Serialises back to the `sfn-prof/kernels@1` format, recomputing
    /// every derived rate from the raw counters. `from_json ∘ to_json`
    /// is the identity on the raw counters, and
    /// `to_json ∘ from_json ∘ to_json == to_json` (the fuzz oracle).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"sfn-prof/kernels@1\",\"duration_secs\":");
        json::push_f64(&mut s, self.duration_secs);
        s.push_str(",\"calibration\":{\"peak_gflops\":");
        json::push_f64(&mut s, self.peak_gflops);
        s.push_str(",\"stream_gbps\":");
        json::push_f64(&mut s, self.stream_gbps);
        s.push_str("},\"kernels\":[");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":\"");
            json::escape_into(&mut s, &k.name);
            let _ = write!(s, "\",\"calls\":{}", k.calls);
            for (key, v) in [
                ("ns", k.ns),
                ("flops", k.flops),
                ("bytes_read", k.bytes_read),
                ("bytes_written", k.bytes_written),
                ("allocs", k.allocs),
                ("alloc_bytes", k.alloc_bytes),
                ("peak_bytes", k.peak_bytes),
            ] {
                let _ = write!(s, ",\"{key}\":{v}");
            }
            s.push_str(",\"gflops\":");
            json::push_f64(&mut s, k.gflops());
            s.push_str(",\"gbps\":");
            json::push_f64(&mut s, k.gbps());
            s.push_str(",\"intensity\":");
            json::push_f64(&mut s, k.intensity());
            s.push_str(",\"bound\":\"");
            s.push_str(self.bound(k).as_str());
            s.push_str("\"}");
        }
        s.push_str("]}");
        s
    }

    /// Renders the human-readable roofline table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== sfn-prof kernel report ==\n");
        let _ = writeln!(
            out,
            "machine: peak {:.2} GFLOP/s, stream {:.2} GB/s, balance {:.2} flop/byte",
            self.peak_gflops,
            self.stream_gbps,
            self.balance()
        );
        if self.kernels.is_empty() {
            out.push_str("(no kernels recorded — was SFN_PROF=1 set?)\n");
            return out;
        }
        let total_ns: u64 = self.kernels.iter().map(|k| k.ns).fold(0, u64::saturating_add);
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>10} {:>7} {:>9} {:>8} {:>9} {:>8} {:>9} bound",
            "kernel", "calls", "time", "share", "GFLOP/s", "GB/s", "flop/B", "allocs", "alloc MB"
        );
        for k in &self.kernels {
            let share = if total_ns > 0 {
                100.0 * k.ns as f64 / total_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>9.3}s {:>6.1}% {:>9.3} {:>8.3} {:>9.3} {:>8} {:>9.2} {}",
                k.name,
                k.calls,
                k.secs(),
                share,
                k.gflops(),
                k.gbps(),
                k.intensity(),
                k.allocs,
                k.alloc_bytes as f64 / 1e6,
                self.bound(k).as_str(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace;

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
        assert_eq!(r.balance(), 0.5);
        let conv = &r.kernels[0];
        assert_eq!(conv.name, "conv2d");
        assert!((conv.gflops() - 2.0).abs() < 1e-9);
        assert_eq!(r.bound(conv), sfn_prof::Bound::Compute);
        let spmv = &r.kernels[1];
        assert_eq!(r.bound(spmv), sfn_prof::Bound::Memory);
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
    fn from_trace_collects_prof_events() {
        let trace = parse_trace(concat!(
            "{\"ts\":0.0,\"level\":\"info\",\"kind\":\"prof.calibration\",\"peak_gflops\":3.0,\"stream_gbps\":6.0}\n",
            "{\"ts\":0.5,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"pcg\",\"calls\":4,\"ns\":800,\"flops\":1600,\"bytes_read\":320,\"bytes_written\":80,\"allocs\":1,\"alloc_bytes\":64,\"peak_bytes\":64}\n",
            "{\"ts\":0.6,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"advect\",\"calls\":2,\"ns\":200,\"flops\":0,\"bytes_read\":100,\"bytes_written\":50,\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}\n",
        ));
        let r = ProfileReport::from_trace(&trace);
        assert_eq!(r.peak_gflops, 3.0);
        assert_eq!(r.kernels.len(), 2);
        assert_eq!(r.kernels[0].name, "advect", "sorted by name");
        assert_eq!(r.kernels[1].flops, 1600);
        // Zero-flop kernels classify memory-bound.
        assert_eq!(r.bound(&r.kernels[0]), sfn_prof::Bound::Memory);
    }

    #[test]
    fn re_emitted_kernels_replace_not_accumulate() {
        let trace = parse_trace(concat!(
            "{\"ts\":0.1,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"cg\",\"calls\":1,\"ns\":10,\"flops\":90,\"bytes_read\":48,\"bytes_written\":8,\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}\n",
            "{\"ts\":0.9,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"cg\",\"calls\":3,\"ns\":30,\"flops\":270,\"bytes_read\":144,\"bytes_written\":24,\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}\n",
        ));
        let r = ProfileReport::from_trace(&trace);
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.kernels[0].calls, 3, "cumulative totals, last emission wins");
    }

    #[test]
    fn rejects_other_documents() {
        assert!(ProfileReport::from_json("{\"schema\":\"sfn-trace/summary@1\"}").is_err());
        assert!(ProfileReport::from_json("[]").is_err());
        assert!(ProfileReport::from_json("nope").is_err());
    }
}
