//! The kernel report of a raw trace: the `prof.kernel` /
//! `prof.calibration` events `sfn_prof::emit_summary` writes, read back
//! into the [`ProfileReport`] that a saved `sfn-prof/kernels@1`
//! document decodes to.

use crate::event::Trace;
use sfn_obs::json::FromJson;
use sfn_prof::{Calibration, KernelTotals, ProfileReport};

/// Builds the report from the `prof.kernel` / `prof.calibration` events
/// of a raw trace. Each `prof.kernel` event carries cumulative totals,
/// so the last emission per kernel wins.
pub fn from_trace(trace: &Trace) -> ProfileReport {
    let (t0, t1) = trace.span().unwrap_or((0.0, 0.0));
    let mut report = ProfileReport {
        duration_secs: t1 - t0,
        calibration: Calibration { peak_gflops: 0.0, stream_gbps: 0.0 },
        kernels: Vec::new(),
    };
    // Last calibration wins (a restarted run re-emits it).
    for e in trace.of_kind("prof.calibration") {
        report.calibration = Calibration::from_json_value(&e.fields).expect("lenient decode never fails");
    }
    for e in trace.of_kind("prof.kernel") {
        let name = e.str("kernel").unwrap_or("?");
        let totals = KernelTotals::from_fields(&e.fields);
        match report.kernels.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => *t = totals,
            None => report.kernels.push((name.to_string(), totals)),
        }
    }
    report.kernels.sort_by(|a, b| a.0.cmp(&b.0));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace;
    use sfn_prof::Bound;

    #[test]
    fn from_trace_collects_prof_events() {
        let trace = parse_trace(concat!(
            "{\"ts\":0.0,\"level\":\"info\",\"kind\":\"prof.calibration\",\"peak_gflops\":3.0,\"stream_gbps\":6.0}\n",
            "{\"ts\":0.5,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"pcg\",\"calls\":4,\"ns\":800,\"flops\":1600,\"bytes_read\":320,\"bytes_written\":80,\"allocs\":1,\"alloc_bytes\":64,\"peak_bytes\":64}\n",
            "{\"ts\":0.6,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"advect\",\"calls\":2,\"ns\":200,\"flops\":0,\"bytes_read\":100,\"bytes_written\":50,\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}\n",
        ));
        let r = from_trace(&trace);
        assert_eq!(r.calibration.peak_gflops, 3.0);
        assert_eq!(r.kernels.len(), 2);
        assert_eq!(r.kernels[0].0, "advect", "sorted by name");
        assert_eq!(r.kernels[1].1.flops, 1600);
        // Zero-flop kernels classify memory-bound.
        assert_eq!(r.bound(&r.kernels[0].1), Bound::Memory);
    }

    #[test]
    fn re_emitted_kernels_replace_not_accumulate() {
        let trace = parse_trace(concat!(
            "{\"ts\":0.1,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"cg\",\"calls\":1,\"ns\":10,\"flops\":90,\"bytes_read\":48,\"bytes_written\":8,\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}\n",
            "{\"ts\":0.9,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"cg\",\"calls\":3,\"ns\":30,\"flops\":270,\"bytes_read\":144,\"bytes_written\":24,\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}\n",
        ));
        let r = from_trace(&trace);
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.kernels[0].1.calls, 3, "cumulative totals, last emission wins");
    }
}
