//! Serve-path latency/shed benchmark: a seeded closed-loop load
//! generator drives a small `sfn-serve` instance at 1×, 2× and 4× its
//! saturation point (saturation = one closed-loop client per global
//! concurrency slot) and reports client-observed p50/p99 latency of
//! served requests plus the shed rate (the fraction answered with a
//! refusal or shed instead of a 200).
//!
//! The numbers seed the committed `BENCH_0004.json`; refresh with
//!
//! ```text
//! SFN_BENCH_JSON=$PWD/BENCH_0004.json cargo bench -p sfn-bench --bench serve_load
//! ```
//!
//! Honours `SFN_FAULTS` (the CI matrix injects serving-path chaos) and
//! writes the final `/stats.json` of the heaviest phase to
//! `SFN_SERVE_SNAPSHOT` when set.

use sfn_serve::{serve, ServeConfig, SimRequest};
use sfn_stats::TextTable;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct PhaseReport {
    mult: u32,
    clients: usize,
    requests: u64,
    served: u64,
    p50_ms: f64,
    p99_ms: f64,
    shed_rate: f64,
}

fn exchange(addr: std::net::SocketAddr, wire: &[u8]) -> (Option<u16>, Duration) {
    let start = Instant::now();
    let Ok(mut s) = TcpStream::connect(addr) else { return (None, start.elapsed()) };
    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    if s.write_all(wire).is_err() {
        return (None, start.elapsed());
    }
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let status = std::str::from_utf8(&out)
        .ok()
        .and_then(|r| r.strip_prefix("HTTP/1.1 "))
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok());
    (status, start.elapsed())
}

fn bench_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        global_concurrency: 4,
        queue_depth: 4,
        tenant_rate: 100_000.0,
        tenant_burst: 100_000.0,
        default_deadline_ms: 500,
        tick_ms: 10,
        p99_target_ms: 60_000.0,
        ..ServeConfig::default()
    }
}

/// Drives `clients` closed-loop clients for `secs` against a fresh
/// server and collects the phase's order statistics.
fn run_phase(mult: u32, secs: f64, snapshot: Option<&str>) -> PhaseReport {
    let cfg = bench_cfg();
    let clients = cfg.global_concurrency * mult as usize;
    let h = serve(cfg).expect("bind serve-load server");
    let addr = h.addr;

    let stop = Arc::new(AtomicBool::new(false));
    type Samples = Arc<Mutex<Vec<(Option<u16>, f64)>>>;
    let samples: Samples = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..clients as u64)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                let tenant = format!("bench-{}", c % 4);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let req = SimRequest {
                        tenant: tenant.clone(),
                        priority: (c % 3) as u8,
                        deadline_ms: Some(500),
                        grid: 8,
                        steps: 3,
                        quality: 0.013,
                        seed: c * 1_000 + n,
                    };
                    let (status, wall) = exchange(addr, &req.to_http());
                    samples
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((status, wall.as_secs_f64() * 1e3));
                    n += 1;
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().expect("load client must not panic");
    }
    if let Some(path) = snapshot {
        let mut s = TcpStream::connect(addr).expect("snapshot connect");
        s.write_all(b"GET /stats.json HTTP/1.1\r\n\r\n").expect("snapshot send");
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        let raw = String::from_utf8_lossy(&raw);
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
        }
    }
    h.stop();

    let samples = samples.lock().unwrap_or_else(|e| e.into_inner());
    let mut served: Vec<f64> =
        samples.iter().filter(|(s, _)| *s == Some(200)).map(|(_, ms)| *ms).collect();
    served.sort_by(f64::total_cmp);
    let q = |p: usize| -> f64 {
        if served.is_empty() {
            0.0
        } else {
            served[(served.len() - 1) * p / 100]
        }
    };
    let requests = samples.len() as u64;
    let n_served = served.len() as u64;
    PhaseReport {
        mult,
        clients,
        requests,
        served: n_served,
        p50_ms: q(50),
        p99_ms: q(99),
        shed_rate: if requests == 0 {
            0.0
        } else {
            (requests - n_served) as f64 / requests as f64
        },
    }
}

fn render_json(reports: &[PhaseReport]) -> String {
    use sfn_obs::json;
    let mut s = String::from("{\"schema\":\"sfn-bench/serve@1\",\"suite\":\"serve_load\",\"loads\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n {{\"mult\":{},\"clients\":{},\"requests\":{},\"served\":{},\"p50_ms\":",
            r.mult, r.clients, r.requests, r.served
        ));
        json::push_f64(&mut s, r.p50_ms);
        s.push_str(",\"p99_ms\":");
        json::push_f64(&mut s, r.p99_ms);
        s.push_str(",\"shed_rate\":");
        json::push_f64(&mut s, r.shed_rate);
        s.push('}');
    }
    s.push_str("\n]}\n");
    s
}

fn main() {
    sfn_obs::init();
    sfn_faults::init_from_env();
    let secs = sfn_bench::bench_secs(if sfn_bench::quick() { 0.5 } else { 2.0 });
    let snapshot = std::env::var("SFN_SERVE_SNAPSHOT").ok();

    let reports: Vec<PhaseReport> = [1u32, 2, 4]
        .iter()
        .map(|&mult| {
            // The snapshot artifact captures the heaviest phase.
            let snap = if mult == 4 { snapshot.as_deref() } else { None };
            run_phase(mult, secs, snap)
        })
        .collect();

    let mut t = TextTable::new(["Load", "Clients", "Requests", "Served", "P50", "P99", "Shed rate"]);
    for r in &reports {
        t.row([
            format!("{}x", r.mult),
            r.clients.to_string(),
            r.requests.to_string(),
            r.served.to_string(),
            format!("{:.2} ms", r.p50_ms),
            format!("{:.2} ms", r.p99_ms),
            format!("{:.1}%", r.shed_rate * 100.0),
        ]);
    }
    println!("== serve_load ==\n{}", t.render());

    if let Ok(path) = std::env::var("SFN_BENCH_JSON") {
        match std::fs::write(&path, render_json(&reports)) {
            Ok(()) => println!("wrote benchmark summary to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}
