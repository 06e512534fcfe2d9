//! The overload proof: a seeded closed-loop load generator drives a
//! tiny server well past saturation while the chaos hooks reset
//! connections, stall clients and wedge queue hand-offs. The
//! assertions are the robustness contract from the design doc:
//!
//! * every connection gets either a well-formed HTTP response with a
//!   status from the serving vocabulary or a clean reset — no panics,
//!   no hangs, no garbage;
//! * accepted requests stay latency-bounded (the deadline budget caps
//!   queue wait + run time);
//! * the brownout controller degrades in adjacent rung transitions and
//!   recovers to `normal` once the storm passes (`sfn-trace audit`
//!   replays the chain and finds zero contradictions);
//! * a tenant whose surrogates NaN-storm is quarantined by the runtime
//!   and then isolated by its circuit breaker without collateral
//!   damage to well-behaved tenants.
//!
//! Fault schedules and the load generator are seeded, so a failure
//! reproduces. The two tests share process-global state (fault plan,
//! event observers), so they serialise on a lock.

use sfn_faults::{install, FaultKind, FaultPlan, FaultSpec};
use sfn_serve::{serve, ServeConfig, SimRequest};
use sfn_trace::{analyze, audit, parse_trace};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serialises the tests: fault plans and event observers are global.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs a collecting event observer; returns the shared line sink.
fn collect_events() -> Arc<Mutex<Vec<String>>> {
    sfn_obs::clear_event_observers();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    sfn_obs::add_event_observer(Box::new(move |line| {
        sink.lock().unwrap_or_else(|e| e.into_inner()).push(line.to_string());
    }));
    lines
}

fn collected(lines: &Arc<Mutex<Vec<String>>>) -> String {
    lines.lock().unwrap_or_else(|e| e.into_inner()).join("\n")
}

/// One closed-loop exchange: connect, send, read to EOF. Returns the
/// raw response (empty on a reset) and the client-observed wall time.
fn exchange(addr: std::net::SocketAddr, wire: &[u8]) -> (String, Duration) {
    let start = Instant::now();
    let Ok(mut s) = TcpStream::connect(addr) else {
        return (String::new(), start.elapsed());
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    if s.write_all(wire).is_err() {
        return (String::new(), start.elapsed());
    }
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    (String::from_utf8_lossy(&out).into_owned(), start.elapsed())
}

fn status_of(resp: &str) -> Option<u16> {
    resp.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

fn request(tenant: &str, priority: u8, steps: usize, seed: u64) -> SimRequest {
    SimRequest {
        tenant: tenant.into(),
        priority,
        deadline_ms: Some(500),
        grid: 8,
        steps,
        quality: 0.013,
        seed,
    }
}

#[test]
fn overload_stays_bounded_degrades_monotonically_and_recovers() {
    let _guard = global_lock();
    let lines = collect_events();

    // Serving-path chaos: 5% of connections reset mid-handshake, 5%
    // of clients stall before sending, 5% of dequeues wedge briefly.
    install(Some(
        FaultPlan::seeded(0x5EED)
            .with(FaultSpec {
                probability: 0.05,
                target: Some("serve/conn".into()),
                ..FaultSpec::new(FaultKind::ConnReset)
            })
            .with(FaultSpec {
                probability: 0.05,
                magnitude: 5.0,
                target: Some("serve/conn".into()),
                ..FaultSpec::new(FaultKind::SlowClient)
            })
            .with(FaultSpec {
                probability: 0.05,
                magnitude: 10.0,
                target: Some("serve/queue".into()),
                ..FaultSpec::new(FaultKind::QueueStall)
            }),
    ));

    // A deliberately tiny server: one worker, two in-flight slots,
    // one-deep queues — so a handful of closed-loop clients is a 4×
    // overload. The p99 objective is parked high; saturation has to
    // show up through the queue and in-flight signals.
    let h = serve(ServeConfig {
        workers: 1,
        global_concurrency: 2,
        queue_depth: 1,
        tenant_rate: 10_000.0,
        tenant_burst: 10_000.0,
        default_deadline_ms: 500,
        tick_ms: 5,
        p99_target_ms: 60_000.0,
        escalate_after: 1,
        recover_after: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = h.addr;

    // Closed-loop load: 8 clients across 4 tenants and 3 priorities,
    // each immediately re-requesting, until the brownout controller
    // has visibly degraded (or a generous timeout trips the assert).
    let stop = Arc::new(AtomicBool::new(false));
    type Samples = Arc<Mutex<Vec<(Option<u16>, Duration)>>>;
    let results: Samples = Arc::new(Mutex::new(Vec::new()));
    let clients: Vec<_> = (0..8u64)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let results = Arc::clone(&results);
            std::thread::spawn(move || {
                let tenant = format!("tenant-{}", c % 4);
                let priority = (c % 3) as u8;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let wire = request(&tenant, priority, 5, c * 1000 + n).to_http();
                    let (resp, wall) = exchange(addr, &wire);
                    let status = if resp.is_empty() { None } else { status_of(&resp) };
                    results.lock().unwrap_or_else(|e| e.into_inner()).push((status, wall));
                    n += 1;
                }
            })
        })
        .collect();

    let overload_deadline = Instant::now() + Duration::from_secs(20);
    while h.rung().level() < 1 && Instant::now() < overload_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let peak = h.rung().level();
    // Keep the pressure on briefly so the rung chain gets some length.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread must not panic");
    }
    assert!(peak >= 1, "saturation never browned out (rung stayed {peak})");

    // Storm over: the controller must walk back down to `normal`.
    let recover_deadline = Instant::now() + Duration::from_secs(20);
    while h.rung().level() > 0 && Instant::now() < recover_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(h.rung().level(), 0, "brownout never recovered: {}", h.stats_json());

    // Every response is from the serving vocabulary; nothing leaked a
    // panic, a 500, or a truncated status line.
    let results = results.lock().unwrap_or_else(|e| e.into_inner());
    let mut accepted = Vec::new();
    let (mut refusals, mut resets) = (0u64, 0u64);
    for (status, wall) in results.iter() {
        match status {
            Some(200) => accepted.push(wall.as_secs_f64() * 1e3),
            Some(408 | 429 | 503 | 504) => refusals += 1,
            None => resets += 1, // chaos conn_reset / slow-client timeout
            Some(other) => panic!("unexpected status {other} under overload"),
        }
    }
    assert!(!accepted.is_empty(), "no request was ever served");
    assert!(refusals > 0, "4x overload produced zero refusals — admission is not refusing");

    // Bounded latency for accepted work: the 500 ms deadline caps
    // queue wait + run time; 2 s leaves room for write-back and a
    // wedged-queue stall without tolerating an unbounded pileup.
    accepted.sort_by(f64::total_cmp);
    let p99 = accepted[(accepted.len() - 1) * 99 / 100];
    assert!(p99 < 2_000.0, "accepted p99 {p99:.0}ms is not deadline-bounded");

    // After recovery a low-priority request sails through. (The probe
    // itself can fill the one-deep queue and nudge the controller for
    // a tick, so the response's rung field is not asserted — the
    // recovery proof is the rung-0 check above.)
    // The chaos is over with the load: which connection number the
    // probe gets is timing, so a still-installed plan's seeded 5 %
    // conn_reset could eat it. Without a plan one exchange must be 200.
    install(None);
    let (resp, _) = exchange(addr, &request("tenant-0", 0, 2, 1).to_http());
    assert_eq!(status_of(&resp), Some(200), "{resp}");

    h.stop();
    sfn_obs::clear_event_observers();

    // The trace must replay clean: adjacent rung moves, connected
    // chain, and the summary must reflect real serving activity.
    let trace = parse_trace(&collected(&lines));
    let report = audit(&trace);
    assert_eq!(
        report.contradictions.len(),
        0,
        "brownout chain contradictions: {:?}",
        report.contradictions
    );
    assert!(report.brownout_transitions >= 2, "expected an up and a down transition");
    let analysis = analyze(&trace);
    assert!(analysis.serve.admitted > 0 && analysis.serve.refused > 0);
    assert!(analysis.serve.max_rung_level >= 1);
    let _ = resets; // informational only: chaos makes some exchanges vanish
}

/// Regression: a half-open probe that is refused downstream of the
/// breaker check (here: by the rate limiter) must release the probe
/// slot. Before the fix, `probing` stayed set forever and every later
/// request got 503 breaker_open — a permanent tenant lockout.
#[test]
fn refused_probe_does_not_lock_the_tenant_out() {
    let _guard = global_lock();
    sfn_obs::clear_event_observers();

    // Poison the flappy tenant's surrogates so its first run degrades
    // and strikes the breaker.
    install(Some(FaultPlan::seeded(11).with(FaultSpec {
        magnitude: 0.5,
        target: Some("flappy-".into()),
        ..FaultSpec::new(FaultKind::NanOutput)
    })));

    let h = serve(ServeConfig {
        workers: 2,
        global_concurrency: 8,
        queue_depth: 4,
        // One-token bucket refilling at 0.5/s: spent by the first
        // request, empty again when the half-open probe arrives.
        tenant_rate: 0.5,
        tenant_burst: 1.0,
        default_deadline_ms: 10_000,
        // First strike holds the breaker for base << 1 = 100 ms.
        breaker_base_ms: 50,
        ..ServeConfig::default()
    })
    .expect("bind");

    let req = |steps: usize, seed: u64| request("flappy", 1, steps, seed).to_http();

    // Strike the breaker: degraded run, valid response.
    let (resp, _) = exchange(h.addr, &req(3, 1));
    assert_eq!(status_of(&resp), Some(200), "{resp}");
    assert!(resp.contains("\"degraded\":true"), "{resp}");
    install(None); // the tenant is healthy again

    // Past the 100 ms hold, before the 2 s token refill: this request
    // takes the half-open probe slot, then the rate limiter refuses
    // it. The probe never runs — the slot must be released.
    std::thread::sleep(Duration::from_millis(500));
    let (resp, _) = exchange(h.addr, &req(1, 2));
    assert_eq!(status_of(&resp), Some(429), "{resp}");
    assert!(resp.contains("rate_limited"), "{resp}");

    // With a refilled bucket the tenant must recover: the released
    // slot lets this request probe, run clean, and close the breaker.
    std::thread::sleep(Duration::from_millis(2_100));
    let (resp, _) = exchange(h.addr, &req(1, 3));
    assert_eq!(status_of(&resp), Some(200), "{resp}");
    assert!(resp.contains("\"degraded\":false"), "{resp}");

    h.stop();
    install(None);
}

#[test]
fn nan_storm_tenant_is_quarantined_and_isolated_without_collateral() {
    let _guard = global_lock();
    let lines = collect_events();

    // Poison every inference of the storm tenant's surrogates (the
    // roster names are tenant-scoped, so the target substring isolates
    // the blast radius to that tenant).
    install(Some(FaultPlan::seeded(7).with(FaultSpec {
        magnitude: 0.5,
        target: Some("storm-".into()),
        ..FaultSpec::new(FaultKind::NanOutput)
    })));

    let h = serve(ServeConfig {
        workers: 2,
        global_concurrency: 8,
        queue_depth: 4,
        tenant_rate: 10_000.0,
        tenant_burst: 10_000.0,
        default_deadline_ms: 10_000,
        // Once struck, the storm tenant's breaker stays open for the
        // rest of the test.
        breaker_base_ms: 60_000,
        ..ServeConfig::default()
    })
    .expect("bind");

    // The NaN storm must NOT produce an error or a poisoned field: the
    // runtime quarantines the roster, degrades to the exact solver, and
    // the tenant still gets a valid (degraded) response.
    let (resp, _) = exchange(h.addr, &request("storm", 1, 3, 1).to_http());
    assert_eq!(status_of(&resp), Some(200), "{resp}");
    assert!(resp.contains("\"degraded\":true"), "{resp}");
    // The rolled-back NaN attempts may consume the step budget, so the
    // response can be truncated — but it is well-formed, marked, and
    // never NaN soup.
    assert!(resp.contains("\"tenant\":\"storm\""), "{resp}");

    // The degraded run struck the breaker: the tenant is now refused at
    // the door instead of burning workers.
    let (resp, _) = exchange(h.addr, &request("storm", 1, 3, 2).to_http());
    assert_eq!(status_of(&resp), Some(503), "{resp}");
    assert!(resp.contains("breaker_open"), "{resp}");

    // No collateral: a well-behaved tenant is untouched by the storm
    // or the breaker.
    let (resp, _) = exchange(h.addr, &request("calm", 1, 3, 3).to_http());
    assert_eq!(status_of(&resp), Some(200), "{resp}");
    assert!(resp.contains("\"degraded\":false"), "{resp}");

    h.stop();
    install(None);
    sfn_obs::clear_event_observers();

    let trace = parse_trace(&collected(&lines));
    assert!(trace.count("runtime.quarantine") >= 1, "the runtime never quarantined the storm");
    let report = audit(&trace);
    assert_eq!(
        report.contradictions.len(),
        0,
        "audit contradictions: {:?}",
        report.contradictions
    );
    assert!(report.serve_refused >= 1, "the breaker refusal must appear in the trace");
}
