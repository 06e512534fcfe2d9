//! `sfn-trace top` — a live ANSI dashboard over the sfn-metrics
//! `/snapshot.json` endpoint.
//!
//! The client side is a deliberately tiny HTTP/1.1 GET (the server
//! always answers `Connection: close`, so "read to EOF" is the whole
//! protocol); the payload is the `sfn-metrics/live@1` document, parsed
//! with the same sfn-obs JSON codec the rest of the toolkit uses. The
//! renderer is a pure function of the parsed document so it can be
//! unit-tested without a socket.

use sfn_obs::json::{self, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default endpoint when neither the CLI nor `SFN_METRICS_ADDR` names
/// one.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9900";

/// Fetches `/snapshot.json` from `addr` and returns the raw body.
pub fn fetch_snapshot(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e} (is SFN_METRICS_ADDR serving?)"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| format!("socket setup: {e}"))?;
    stream
        .write_all(format!("GET /snapshot.json HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("reading response: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: {status}"));
    }
    Ok(body.to_string())
}

fn paint(s: &str, code: &str, color: bool) -> String {
    if color {
        format!("\x1b[{code}m{s}\x1b[0m")
    } else {
        s.to_string()
    }
}

fn fmt_secs(v: Option<f64>) -> String {
    match v {
        None => "-".into(),
        Some(v) if v >= 1.0 => format!("{v:.2}s"),
        Some(v) if v >= 1e-3 => format!("{:.1}ms", v * 1e3),
        Some(v) => format!("{:.0}µs", v * 1e6),
    }
}

fn f64_at(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

/// Renders one dashboard frame from a parsed `sfn-metrics/live@1`
/// document. `color` toggles ANSI SGR sequences.
pub fn render_top(doc: &Value, color: bool) -> Result<String, String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some(sfn_metrics::snapshot::SCHEMA) => {}
        other => return Err(format!("unsupported snapshot schema {other:?}")),
    }
    let mut out = String::with_capacity(4 * 1024);
    let uptime = f64_at(doc, &["uptime_secs"]).unwrap_or(0.0);
    let ticks = f64_at(doc, &["ticks"]).unwrap_or(0.0);
    let degraded = doc
        .get("health")
        .and_then(|h| h.get("degraded"))
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let health = if degraded {
        paint("DEGRADED", "1;31", color)
    } else {
        paint("healthy", "1;32", color)
    };
    out.push_str(&paint("sfn-top", "1", color));
    out.push_str(&format!(
        " — up {uptime:.0}s, {ticks:.0} collector ticks, health: {health}\n"
    ));
    if degraded {
        if let Some(reasons) =
            doc.get("health").and_then(|h| h.get("reasons")).and_then(Value::as_arr)
        {
            for r in reasons {
                if let Some(r) = r.as_str() {
                    out.push_str(&format!("  {}\n", paint(r, "31", color)));
                }
            }
        }
    }

    // Windowed latency/series table: fast p50/p99 + slow p99.
    let fast = doc.get("windows").and_then(|w| w.get("fast"));
    let slow = doc.get("windows").and_then(|w| w.get("slow"));
    let fast_secs = fast.and_then(|w| f64_at(w, &["secs"])).unwrap_or(60.0);
    if let Some(Value::Obj(series)) = fast.and_then(|w| w.get("series")) {
        out.push_str(&paint(
            &format!(
                "\n  series ({:.0}s window)          n      p50      p99   p99({}s)\n",
                fast_secs,
                slow.and_then(|w| f64_at(w, &["secs"])).unwrap_or(600.0)
            ),
            "1;36",
            color,
        ));
        for (name, summary) in series {
            let n = f64_at(summary, &["count"]).unwrap_or(0.0);
            let p50 = f64_at(summary, &["p50"]);
            let p99 = f64_at(summary, &["p99"]);
            let slow_p99 = slow
                .and_then(|w| w.get("series"))
                .and_then(|s| s.get(name))
                .and_then(|s| f64_at(s, &["p99"]));
            out.push_str(&format!(
                "  {name:<28} {n:>5.0} {:>8} {:>8} {:>8}\n",
                fmt_secs(p50),
                fmt_secs(p99),
                fmt_secs(slow_p99)
            ));
        }
    }

    // SLO burn table.
    if let Some(slo) = doc.get("slo").and_then(Value::as_arr) {
        out.push_str(&paint("\n  slo objective                fast     slow  state\n", "1;36", color));
        for s in slo {
            let name = s.get("objective").and_then(Value::as_str).unwrap_or("?");
            let fastb = f64_at(s, &["fast_burn"]).unwrap_or(0.0);
            let slowb = f64_at(s, &["slow_burn"]).unwrap_or(0.0);
            let burning = s.get("burning").and_then(Value::as_bool).unwrap_or(false);
            let state = if burning {
                paint("BURNING", "1;31", color)
            } else {
                paint("ok", "32", color)
            };
            out.push_str(&format!("  {name:<26} {fastb:>5.1}x  {slowb:>5.1}x  {state}\n"));
        }
    }

    // Scheduler roster.
    if let Some(roster) = doc.get("roster").and_then(Value::as_arr) {
        if !roster.is_empty() {
            out.push_str(&paint("\n  model                        steps  quarantines\n", "1;36", color));
            for m in roster {
                let name = m.get("model").and_then(Value::as_str).unwrap_or("?");
                let steps = f64_at(m, &["steps"]).unwrap_or(0.0);
                let quarantines = f64_at(m, &["quarantines"]).unwrap_or(0.0);
                out.push_str(&format!("  {name:<26} {steps:>7.0} {quarantines:>12.0}\n"));
            }
        }
    }

    // Kernel throughput.
    if let Some(kernels) = doc.get("kernels").and_then(Value::as_arr) {
        if !kernels.is_empty() {
            out.push_str(&paint("\n  kernel                       calls   GFLOP/s\n", "1;36", color));
            for k in kernels {
                let name = k.get("kernel").and_then(Value::as_str).unwrap_or("?");
                let calls = f64_at(k, &["calls"]).unwrap_or(0.0);
                let gflops = f64_at(k, &["gflops"]).unwrap_or(0.0);
                out.push_str(&format!("  {name:<26} {calls:>7.0} {gflops:>9.2}\n"));
            }
        }
    }

    // Fault / resilience tallies.
    let counter = |name: &str| f64_at(doc, &["counters", name]).unwrap_or(0.0);
    out.push_str(&paint("\n  resilience\n", "1;36", color));
    out.push_str(&format!(
        "  rollbacks {:.0}   quarantines {:.0}   faults injected {:.0} / recovered {:.0}\n",
        counter("runtime.rollbacks"),
        counter("runtime.quarantines"),
        counter("faults.injected"),
        counter("faults.recovered"),
    ));
    if let Some(Value::Obj(faults)) = doc.get("faults") {
        if !faults.is_empty() {
            let kinds = faults
                .iter()
                .map(|(k, v)| format!("{k}×{:.0}", v.as_f64().unwrap_or(0.0)))
                .collect::<Vec<_>>()
                .join("  ");
            out.push_str(&format!("  by kind: {kinds}\n"));
        }
    }
    Ok(out)
}

/// One fetch-parse-render cycle against `addr`.
pub fn frame(addr: &str, color: bool) -> Result<String, String> {
    let body = fetch_snapshot(addr)?;
    let doc = json::parse(&body).map_err(|e| format!("{addr}: bad snapshot JSON: {e}"))?;
    render_top(&doc, color)
}

/// The `top` subcommand: clears the terminal and redraws every
/// `interval` until interrupted, or renders a single frame with
/// `once`. Color is suppressed when stdout is not a terminal
/// (detected via `TERM`-less/`NO_COLOR` environments) or in `--once`
/// mode piped output.
pub fn run(addr: &str, once: bool, interval: Duration) -> Result<(), String> {
    let color = std::env::var_os("NO_COLOR").is_none();
    if once {
        print!("{}", frame(addr, color)?);
        return Ok(());
    }
    loop {
        let rendered = frame(addr, color)?;
        // Home + clear-to-end keeps redraws flicker-free.
        print!("\x1b[H\x1b[2J{rendered}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
        "schema":"sfn-metrics/live@1","uptime_secs":12.5,"ticks":12,
        "windows":{
            "fast":{"secs":60,"series":{"runtime.step_secs":{"count":100,"sum":0.4,"min":0.001,"max":0.02,"p50":0.002,"p90":0.004,"p95":0.004,"p99":0.016}}},
            "slow":{"secs":600,"series":{"runtime.step_secs":{"count":900,"sum":4.1,"min":0.001,"max":1.1,"p50":0.002,"p90":0.004,"p95":0.008,"p99":1.0}}}
        },
        "counters":{"runtime.rollbacks":2,"runtime.quarantines":3,"faults.injected":4,"faults.recovered":4},
        "gauges":{"scheduler.candidates":5},
        "roster":[{"model":"mlp-64","steps":420,"quarantines":1,"last_seen_ms":12000}],
        "kernels":[{"kernel":"advect","calls":900,"ns":1000000,"gflops":3.25}],
        "faults":{"nan_output":4},
        "slo":[
            {"objective":"step-latency","budget":0.01,"fast_burn":0.5,"slow_burn":0.2,"burning":false},
            {"objective":"rollback-rate","budget":0.01,"fast_burn":4.0,"slow_burn":2.0,"burning":true}
        ],
        "health":{"degraded":true,"reasons":["slo rollback-rate burning: fast 4.0x, slow 2.0x over budget"]}
    }"#;

    #[test]
    fn renders_every_panel_from_a_canned_snapshot() {
        let doc = json::parse(SNAPSHOT).unwrap();
        let plain = render_top(&doc, false).expect("renders");
        for needle in [
            "sfn-top",
            "DEGRADED",
            "slo rollback-rate burning",
            "runtime.step_secs",
            "2.0ms", // fast p50
            "1.00s", // slow p99
            "mlp-64",
            "advect",
            "3.25",
            "BURNING",
            "rollbacks 2",
            "nan_output×4",
        ] {
            assert!(plain.contains(needle), "missing {needle:?} in:\n{plain}");
        }
        // Plain mode carries no escape sequences; color mode does.
        assert!(!plain.contains('\x1b'));
        let colored = render_top(&doc, true).unwrap();
        assert!(colored.contains("\x1b[1;31mDEGRADED\x1b[0m"));
    }

    #[test]
    fn rejects_wrong_schema() {
        let doc = json::parse(r#"{"schema":"other@9"}"#).unwrap();
        assert!(render_top(&doc, false).is_err());
        assert!(render_top(&json::parse("{}").unwrap(), false).is_err());
    }

    #[test]
    fn formats_latencies_with_adaptive_units() {
        assert_eq!(fmt_secs(None), "-");
        assert_eq!(fmt_secs(Some(2.5)), "2.50s");
        assert_eq!(fmt_secs(Some(0.0125)), "12.5ms");
        assert_eq!(fmt_secs(Some(250e-6)), "250µs");
    }
}
