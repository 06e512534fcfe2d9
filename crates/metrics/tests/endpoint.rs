//! End-to-end tests of the metrics HTTP endpoint: bind a real
//! listener on a loopback ephemeral port, speak HTTP/1.1 over a
//! `TcpStream`, and check every route plus the malformed-request and
//! method-not-allowed paths.

use sfn_metrics::hub::{Config, Hub};
use sfn_metrics::{serve, validate_exposition};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn seeded_hub() -> Arc<Hub> {
    let hub = Arc::new(Hub::new(Config {
        // Collector cadence is irrelevant here (requests are served
        // from whatever state the hub holds), but keep it quick.
        tick_millis: 50,
        ..Config::default()
    }));
    let h = sfn_obs::Histogram::new();
    for i in 1..=200 {
        h.record(i as f64 / 1000.0);
    }
    hub.ingest_at("runtime.step_secs", &h.snapshot(), hub.now_ms());
    hub.ingest_counter_at("runtime.steps", 200, hub.now_ms());
    hub.note_model_step("mlp-a", 1);
    hub.note_kernel(
        "advect",
        sfn_prof::KernelTotals { calls: 10, ns: 10_000, flops: 80_000, ..Default::default() },
    );
    hub.note_fault("latency_spike");
    hub
}

/// One raw request → (status line, body).
fn roundtrip(addr: &str, raw: &[u8]) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

fn get(addr: &str, path: &str) -> (String, String) {
    roundtrip(addr, format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
}

#[test]
fn endpoint_serves_all_routes() {
    let hub = seeded_hub();
    let server = serve(Arc::clone(&hub), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr.to_string();

    // /metrics: valid exposition with the expected series.
    let (status, body) = get(&addr, "/metrics");
    assert!(status.contains("200"), "status {status}");
    let series = validate_exposition(&body).expect("scrape validates");
    assert!(series >= 20, "only {series} series in:\n{body}");
    assert!(body.contains("sfn_runtime_step_secs{window="));
    assert!(body.contains("sfn_slo_burn_rate{objective=\"step-latency\""));

    // /healthz: nothing is burning.
    let (status, body) = get(&addr, "/healthz");
    assert!(status.contains("200"), "status {status}");
    assert_eq!(body, "ok\n");

    // /snapshot.json: parses and carries the schema + seeded series.
    let (status, body) = get(&addr, "/snapshot.json");
    assert!(status.contains("200"), "status {status}");
    let doc = sfn_obs::json::parse(&body).expect("snapshot parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("sfn-metrics/live@1")
    );
    assert!(doc
        .get("windows")
        .and_then(|w| w.get("slow"))
        .and_then(|w| w.get("series"))
        .and_then(|s| s.get("runtime.step_secs"))
        .is_some());

    // Unknown path → 404; unsupported method → 405; garbage → 400.
    let (status, _) = get(&addr, "/nope");
    assert!(status.contains("404"), "status {status}");
    let (status, _) =
        roundtrip(&addr, b"DELETE /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(status.contains("405"), "status {status}");
    let (status, _) = roundtrip(&addr, b"\x00\x01\x02garbage\r\n\r\n");
    assert!(status.contains("400"), "status {status}");

    // HEAD is accepted (served like GET; body handling is the
    // client's concern since we always close).
    let (status, _) = roundtrip(&addr, b"HEAD /healthz HTTP/1.1\r\n\r\n");
    assert!(status.contains("200"), "status {status}");

    server.stop();
}

#[test]
fn collector_ticks_advance_on_the_server_thread() {
    let hub = Arc::new(Hub::new(Config { tick_millis: 20, ..Config::default() }));
    let server = serve(Arc::clone(&hub), "127.0.0.1:0").expect("bind loopback");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while hub.ticks() < 3 {
        assert!(std::time::Instant::now() < deadline, "collector never ticked");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
}

/// Runs `test` on a thread of its own and fails if it has not finished
/// within 10 s, so a `stop` that never wakes its acceptor fails the
/// test instead of hanging the suite.
fn within_10_s(test: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("the test panicked or hung for 10 s");
}

/// Binds `addr` and, with no client ever connecting, requires `stop` to
/// return within 1 s. The acceptor checks the flag only after `accept`
/// returns, so without the wake it would block for good.
fn stop_returns_promptly(addr: &str) -> std::net::SocketAddr {
    let server = serve(seeded_hub(), addr).expect("bind");
    let t = Instant::now();
    server.stop();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    server.addr
}

#[test]
fn stop_wakes_an_idle_acceptor() {
    within_10_s(|| {
        let addr = stop_returns_promptly("127.0.0.1:0");
        // `stop` joined the acceptor, so the listener is closed.
        assert!(TcpStream::connect(addr).is_err(), "{addr} still accepts after stop");
    });
}

#[test]
fn stop_wakes_an_acceptor_bound_to_the_wildcard_address() {
    within_10_s(|| {
        stop_returns_promptly("0.0.0.0:0");
    });
}

#[test]
fn sequential_requests_do_not_wait_for_an_accept_poll() {
    within_10_s(|| {
        let server = serve(seeded_hub(), "127.0.0.1:0").expect("bind loopback");
        let addr = server.addr.to_string();
        let t = Instant::now();
        for _ in 0..10 {
            let (status, body) = get(&addr, "/healthz");
            assert!(status.contains("200"), "status {status}: {body}");
        }
        let took = t.elapsed();
        server.stop();
        assert!(took < Duration::from_millis(100), "10 requests took {took:?}");
    });
}
