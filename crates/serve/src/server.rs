//! The server proper: accept loop, admission pipeline, worker pool,
//! and the brownout control thread.
//!
//! Thread model (thread-per-core, no async runtime):
//!
//! * **acceptor** — `sfn-httpcore`'s accept loop (a blocking accept,
//!   woken by [`ServeHandle::stop`]); over the connection cap it
//!   answers `503` inline and closes.
//! * **connection threads** (bounded, short-lived) — read one request
//!   under timeouts, run the admission pipeline, and either enqueue
//!   the work or answer the refusal immediately. A refused request
//!   costs microseconds; nothing ever waits to be admitted.
//! * **workers** (`ServeConfig::workers`) — pop round-robin across
//!   tenants, re-check the deadline and brownout rung at dequeue, run
//!   the Algorithm 2 scheduler under [`RunLimits`], and write the
//!   response on the connection they were handed.
//! * **brownout control** — one thread ticking the
//!   [`BrownoutController`] on queue fill, in-flight fill, SLO burn
//!   (from `sfn-metrics`) and the served-latency p99. The SLO burn is
//!   live whenever [`serve`] runs with `SFN_METRICS_ADDR` set: `serve`
//!   starts the metrics endpoint, whose collector ticks the hub, and
//!   `sfn_metrics::worst_burn` reads the hub's SLO states as of that
//!   tick. Without it the burn reads `(0.0, false)` and the other
//!   three signals alone move the rungs.
//!
//! Admission order: circuit breaker → brownout priority shed →
//! per-tenant token bucket → global in-flight limit → bounded queue.
//! Every refusal is an immediate 429/503 with `Retry-After`.

use crate::admission::{AdmitError, RateTable};
use crate::api::SimRequest;
use crate::breaker::{BreakerState, BreakerTable};
use crate::brownout::{BrownoutConfig, BrownoutController, Rung, Signals};
use crate::queue::{TenantQueues, WorkItem};
use sfn_grid::CellFlags;
use sfn_httpcore::{head_len, parse_request, read_request, write_response};
use sfn_nn::Network;
use sfn_obs::Level;
use sfn_runtime::{
    CandidateModel, KnnDatabase, RunLimits, RunOutcome, RuntimeConfig, SmartRuntime,
};
use sfn_sim::{SimConfig, Simulation};
use sfn_surrogate::yang_spec;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Served-latency samples kept for the p99 brownout signal.
const LATENCY_RING: usize = 512;

/// How long an idle rate bucket or expired breaker entry may linger
/// before the control loop sweeps it. Bounds per-tenant memory under
/// attacker-chosen tenant ids without forgetting live backoff state
/// (the longest breaker hold is `base << 6` = 16 s at the default).
const SWEEP_IDLE: Duration = Duration::from_secs(30);

/// Server tunables. Only the bind address has an environment override
/// (`SFN_SERVE_ADDR`, see [`serve_from_env`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (default `127.0.0.1:0`).
    pub addr: String,
    /// Simulation worker threads (default = available cores, capped
    /// at 8).
    pub workers: usize,
    /// Global cap on admitted-but-unfinished requests (default
    /// `workers * 4`).
    pub global_concurrency: usize,
    /// Per-tenant queue depth (default 8).
    pub queue_depth: usize,
    /// Per-tenant sustained admission rate in requests/second
    /// (default 50).
    pub tenant_rate: f64,
    /// Per-tenant burst size in requests (default 20).
    pub tenant_burst: f64,
    /// Deadline budget for requests that declare none (default 2000).
    pub default_deadline_ms: u64,
    /// Brownout controller tick (default 50).
    pub tick_ms: u64,
    /// Circuit-breaker base hold (default 250); strike `n` holds
    /// `base << min(n, 6)`.
    pub breaker_base_ms: u64,
    /// Served-latency p99 objective for the brownout controller
    /// (default 250).
    pub p99_target_ms: f64,
    /// Overloaded ticks before escalating one rung (default 2).
    pub escalate_after: u32,
    /// Healthy ticks before recovering one rung (default 6).
    pub recover_after: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
        Self {
            addr: "127.0.0.1:0".into(),
            workers,
            global_concurrency: workers * 4,
            queue_depth: 8,
            tenant_rate: 50.0,
            tenant_burst: 20.0,
            default_deadline_ms: 2_000,
            tick_ms: 50,
            breaker_base_ms: 250,
            p99_target_ms: 250.0,
            escalate_after: 2,
            recover_after: 6,
        }
    }
}

/// Monotonic request counters, readable as `/stats.json`.
#[derive(Debug, Default)]
pub struct Stats {
    /// Requests that passed admission.
    pub accepted: AtomicU64,
    /// Requests answered 200.
    pub completed: AtomicU64,
    /// Requests refused at admission (429/503).
    pub refused: AtomicU64,
    /// Admitted requests shed at dequeue (504/503).
    pub shed: AtomicU64,
    /// Completed runs that ended degraded (struck the breaker).
    pub failed: AtomicU64,
}

/// One admitted request travelling through a queue.
struct Job {
    req: SimRequest,
    stream: TcpStream,
    /// This request holds its tenant's half-open breaker probe slot;
    /// if it is shed before running, the slot must be released via
    /// `abort_probe` or the tenant stays locked out.
    is_probe: bool,
}

struct State {
    cfg: ServeConfig,
    rates: RateTable,
    breakers: BreakerTable,
    brownout: BrownoutController,
    queues: TenantQueues<Job>,
    /// Admitted-but-unfinished requests (queued + running).
    inflight: AtomicUsize,
    /// Connection ordinal — the `step` fed to `serve/conn` fault specs.
    conn_no: AtomicU64,
    /// Dequeue ordinal — the `step` fed to `serve/queue` fault specs.
    deq_no: AtomicU64,
    stats: Stats,
    latencies: Mutex<VecDeque<f64>>,
}

impl State {
    fn record_latency(&self, ms: f64) {
        let mut ring = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= LATENCY_RING {
            ring.pop_front();
        }
        ring.push_back(ms);
    }

    fn p99_ms(&self) -> Option<f64> {
        let ring = self.latencies.lock().unwrap_or_else(|e| e.into_inner());
        if ring.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = ring.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        Some(v[(v.len() - 1) * 99 / 100])
    }

    fn stats_json(&self) -> String {
        let o = Ordering::Relaxed;
        format!(
            "{{\"accepted\":{},\"completed\":{},\"failed\":{},\"inflight\":{},\"p99_ms\":{},\"queued\":{},\"refused\":{},\"rung\":\"{}\",\"rung_level\":{},\"shed\":{}}}",
            self.stats.accepted.load(o),
            self.stats.completed.load(o),
            self.stats.failed.load(o),
            self.inflight.load(o),
            self.p99_ms().unwrap_or(0.0),
            self.queues.total_len(),
            self.stats.refused.load(o),
            self.brownout.rung().name(),
            self.brownout.rung().level(),
            self.stats.shed.load(o),
        )
    }
}

/// A running server. Dropping the handle leaves the threads running;
/// call [`ServeHandle::stop`] for an orderly shutdown.
pub struct ServeHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<State>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// Stops accepting, drains the queues, and joins every thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        sfn_httpcore::wake(self.addr);
        self.state.queues.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// The brownout rung currently in force.
    pub fn rung(&self) -> Rung {
        self.state.brownout.rung()
    }

    /// The `/stats.json` document as served.
    pub fn stats_json(&self) -> String {
        self.state.stats_json()
    }
}

/// Binds `cfg.addr` and starts the full thread set. With
/// `SFN_METRICS_ADDR` set, the process's live metrics endpoint starts
/// first (once per process), which keeps the SLO-burn input live.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServeHandle> {
    let _metrics = sfn_metrics::serve_from_env();
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    let state = Arc::new(State {
        rates: RateTable::new(cfg.tenant_rate, cfg.tenant_burst),
        breakers: BreakerTable::new(Duration::from_millis(cfg.breaker_base_ms)),
        brownout: BrownoutController::new(BrownoutConfig {
            p99_target_ms: cfg.p99_target_ms,
            escalate_after: cfg.escalate_after,
            recover_after: cfg.recover_after,
        }),
        queues: TenantQueues::new(cfg.queue_depth),
        inflight: AtomicUsize::new(0),
        conn_no: AtomicU64::new(0),
        deq_no: AtomicU64::new(0),
        stats: Stats::default(),
        latencies: Mutex::new(VecDeque::with_capacity(LATENCY_RING)),
        cfg,
    });

    let mut threads = Vec::new();

    for i in 0..state.cfg.workers {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name(format!("sfn-serve-worker-{i}"))
                .spawn(move || worker_loop(&state, &stop))?,
        );
    }

    {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name("sfn-serve-brownout".into())
                .spawn(move || control_loop(&state, &stop))?,
        );
    }

    {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name("sfn-serve-accept".into())
                .spawn(move || accept_loop(&listener, &state, &stop))?,
        );
    }

    Ok(ServeHandle { addr, shutdown, state, threads })
}

/// Binds the default configuration at `SFN_SERVE_ADDR` (when set);
/// `None` when the bind fails.
pub fn serve_from_env() -> Option<ServeHandle> {
    let d = ServeConfig::default();
    serve(ServeConfig { addr: std::env::var("SFN_SERVE_ADDR").unwrap_or(d.addr), ..d }).ok()
}

// ------------------------------------------------------------ acceptor

fn accept_loop(listener: &TcpListener, state: &Arc<State>, stop: &AtomicBool) {
    // Connection threads are cheap (they only parse + enqueue), but
    // still bounded: past this cap a connection gets 503'd inline.
    let max_conns = state.cfg.global_concurrency * 2 + 16;
    let conn_state = Arc::clone(state);
    sfn_httpcore::accept_loop(
        listener,
        stop,
        max_conns,
        "sfn-serve-conn",
        |mut stream| {
            sfn_obs::counter_add("serve.conn_rejected", 1);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            respond_refusal(&mut stream, &AdmitError::Overloaded);
        },
        move |stream| handle_connection(&conn_state, stream),
    );
}

// ---------------------------------------------------------- connection

fn handle_connection(state: &Arc<State>, mut stream: TcpStream) {
    sfn_obs::counter_add("serve.connections", 1);
    let conn_no = state.conn_no.fetch_add(1, Ordering::Relaxed);

    // Chaos hooks: a reset drops the socket mid-handshake; a slow
    // client stalls before its bytes arrive (the read timeout and the
    // bounded conn pool are what this is testing).
    if sfn_faults::conn_reset("serve/conn", conn_no) {
        return;
    }
    if let Some(stall) = sfn_faults::slow_client("serve/conn", conn_no) {
        std::thread::sleep(stall.min(Duration::from_secs(1)));
    }

    let wire = match read_request(&mut stream) {
        Ok(w) => w,
        Err((status, msg)) => {
            sfn_obs::counter_add("serve.malformed", 1);
            write_response(&mut stream, status, "text/plain; charset=utf-8", &[], msg.as_bytes());
            return;
        }
    };

    // Plain GETs are the observability side door; everything else is
    // the simulate API. Only the head slice is parsed — the 8 KB head
    // cap must never count body bytes.
    let head_end = head_len(&wire).unwrap_or(wire.len());
    if let Ok(head) = parse_request(&wire[..head_end]) {
        if head.method == "GET" && head.target.split('?').next() == Some("/stats.json") {
            let body = state.stats_json();
            write_response(&mut stream, 200, "application/json", &[], body.as_bytes());
            return;
        }
    }

    let req = match SimRequest::parse_wire(&wire) {
        Ok(req) => req,
        Err(e) => {
            sfn_obs::counter_add("serve.malformed", 1);
            let body = format!("{{\"error\":\"{e}\"}}");
            write_response(&mut stream, e.status(), "application/json", &[], body.as_bytes());
            return;
        }
    };

    admit(state, req, stream);
}

// ----------------------------------------------------------- admission

/// Atomically reserves one global in-flight slot. Reserve-then-check
/// (not load-then-add) so concurrent connection threads cannot all
/// observe a free slot and overshoot the cap together.
fn reserve_inflight(state: &State) -> Result<(), AdmitError> {
    if state.inflight.fetch_add(1, Ordering::Relaxed) >= state.cfg.global_concurrency {
        state.inflight.fetch_sub(1, Ordering::Relaxed);
        Err(AdmitError::Overloaded)
    } else {
        Ok(())
    }
}

fn admit(state: &Arc<State>, req: SimRequest, mut stream: TcpStream) {
    let now = Instant::now();
    let rung = state.brownout.rung();

    let is_probe = match state.breakers.check(&req.tenant, now) {
        BreakerState::Open { retry_after_secs } => {
            refuse(state, &req, &mut stream, &AdmitError::BreakerOpen { retry_after_secs });
            return;
        }
        BreakerState::Probe => true,
        BreakerState::Closed => false,
    };

    let verdict: Result<(), AdmitError> = if rung.sheds_low_priority() && req.priority == 0 {
        Err(AdmitError::BrownoutShed)
    } else {
        state.rates.try_take(&req.tenant, now).and_then(|()| reserve_inflight(state))
    };

    if let Err(e) = verdict {
        if is_probe {
            // The half-open probe was refused before it could run;
            // release the slot so the next request can probe.
            state.breakers.abort_probe(&req.tenant);
        }
        refuse(state, &req, &mut stream, &e);
        return;
    }

    let deadline_ms = req.deadline_ms.unwrap_or(state.cfg.default_deadline_ms);
    let item = WorkItem {
        tenant: req.tenant.clone(),
        priority: req.priority,
        enqueued: now,
        deadline: now + Duration::from_millis(deadline_ms),
        payload: Job { req, stream, is_probe },
    };
    match state.queues.push(item) {
        Ok(()) => {
            state.stats.accepted.fetch_add(1, Ordering::Relaxed);
            sfn_obs::counter_add("serve.admitted", 1);
        }
        Err(item) => {
            state.inflight.fetch_sub(1, Ordering::Relaxed);
            let Job { req, mut stream, is_probe } = item.payload;
            if is_probe {
                state.breakers.abort_probe(&req.tenant);
            }
            refuse(state, &req, &mut stream, &AdmitError::QueueFull);
        }
    }
}

fn refuse(state: &Arc<State>, req: &SimRequest, stream: &mut TcpStream, e: &AdmitError) {
    state.stats.refused.fetch_add(1, Ordering::Relaxed);
    sfn_obs::counter_add("serve.refused", 1);
    sfn_obs::event(Level::Info, "serve.admit")
        .field_str("tenant", &req.tenant)
        .field_str("decision", "refused")
        .field_str("reason", e.reason())
        .field_u64("priority", u64::from(req.priority))
        .emit();
    respond_refusal(stream, e);
}

fn respond_refusal(stream: &mut TcpStream, e: &AdmitError) {
    let retry = e.retry_after_secs().to_string();
    let body =
        format!("{{\"error\":\"{}\",\"retry_after_secs\":{retry}}}", e.reason());
    write_response(
        stream,
        e.status(),
        "application/json",
        &[("Retry-After", &retry)],
        body.as_bytes(),
    );
}

// ------------------------------------------------------------- workers

fn worker_loop(state: &Arc<State>, stop: &Arc<AtomicBool>) {
    loop {
        let Some(item) = state.queues.pop(Duration::from_millis(50)) else {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            continue;
        };
        serve_item(state, item);
    }
}

fn serve_item(state: &Arc<State>, item: WorkItem<Job>) {
    let deq_no = state.deq_no.fetch_add(1, Ordering::Relaxed);
    if let Some(stall) = sfn_faults::queue_stall("serve/queue", deq_no) {
        std::thread::sleep(stall.min(Duration::from_secs(1)));
    }

    let WorkItem { tenant, priority, enqueued, deadline, payload } = item;
    let Job { req, mut stream, is_probe } = payload;
    let now = Instant::now();
    let rung = state.brownout.rung();

    // Deadline and rung are re-checked at dequeue: admission's view may
    // be stale by a full queue wait. A shed probe never reaches
    // record_success/record_failure, so it must release its half-open
    // slot here or the tenant's breaker locks out permanently.
    if now >= deadline {
        if is_probe {
            state.breakers.abort_probe(&tenant);
        }
        shed(state, &tenant, &mut stream, "queue_deadline", 504);
        return;
    }
    if rung.sheds_low_priority() && priority == 0 {
        if is_probe {
            state.breakers.abort_probe(&tenant);
        }
        shed(state, &tenant, &mut stream, "brownout_priority", 503);
        return;
    }

    sfn_obs::event(Level::Info, "serve.admit")
        .field_str("tenant", &tenant)
        .field_str("decision", "admitted")
        .field_u64("priority", u64::from(priority))
        .emit();

    let outcome = run_request(&req, rung, deadline);
    let latency_ms = enqueued.elapsed().as_secs_f64() * 1e3;
    state.record_latency(latency_ms);

    // A degraded or non-finite run strikes the tenant's breaker — it
    // still gets its (degraded-but-valid) response.
    let healthy = !outcome.degraded && outcome.density.all_finite();
    if healthy {
        state.breakers.record_success(&tenant);
    } else {
        state.stats.failed.fetch_add(1, Ordering::Relaxed);
        state.breakers.record_failure(&tenant, Instant::now());
    }

    let steps_done = outcome.cum_div_norm.len();
    let truncated = outcome.truncation.map(|t| t.reason());
    sfn_obs::event(Level::Info, "serve.request")
        .field_str("tenant", &tenant)
        .field_f64("latency_ms", latency_ms)
        .field_u64("steps_done", steps_done as u64)
        .field_u64("requested", req.steps as u64)
        .field_str("truncated", truncated.unwrap_or("none"))
        .field_str("rung", rung.name())
        .field_bool("degraded", outcome.degraded)
        .emit();

    let body = format!(
        "{{\"degraded\":{},\"grid\":{},\"latency_ms\":{:.3},\"requested\":{},\"rung\":\"{}\",\"steps_done\":{},\"tenant\":\"{}\",\"truncated\":{}}}",
        outcome.degraded,
        req.grid,
        latency_ms,
        req.steps,
        rung.name(),
        steps_done,
        tenant,
        truncated.map_or("null".into(), |r| format!("\"{r}\"")),
    );
    write_response(&mut stream, 200, "application/json", &[], body.as_bytes());
    state.stats.completed.fetch_add(1, Ordering::Relaxed);
    state.inflight.fetch_sub(1, Ordering::Relaxed);
}

fn shed(state: &Arc<State>, tenant: &str, stream: &mut TcpStream, reason: &str, status: u16) {
    state.stats.shed.fetch_add(1, Ordering::Relaxed);
    state.inflight.fetch_sub(1, Ordering::Relaxed);
    sfn_obs::counter_add("serve.sheds", 1);
    sfn_obs::event(Level::Warn, "serve.shed")
        .field_str("tenant", tenant)
        .field_str("reason", reason)
        .emit();
    let body = format!("{{\"error\":\"{reason}\"}}");
    write_response(stream, status, "application/json", &[("Retry-After", "1")], body.as_bytes());
}

/// Builds the tenant's candidate roster and runs one bounded
/// simulation under the rung's degradation effects.
fn run_request(req: &SimRequest, rung: Rung, deadline: Instant) -> RunOutcome {
    let candidates: Vec<CandidateModel> = [2usize, 3, 4]
        .iter()
        .enumerate()
        .map(|(i, &width)| {
            let mut net = Network::from_spec(&yang_spec(width), req.seed.wrapping_add(i as u64 + 1))
                .expect("yang_spec always builds");
            CandidateModel {
                // Tenant-scoped names so SFN_FAULTS target substrings
                // can single out one tenant's models.
                name: format!("{}-w{width}", req.tenant),
                saved: net.save(),
                probability: 0.9 - 0.2 * i as f64,
                exec_time: 0.05 * (i + 1) as f64,
                quality_loss: 0.05 / (i + 1) as f64,
            }
        })
        .collect();
    let knn = KnnDatabase::new((0..64).map(|i| (f64::from(i) * 10.0, f64::from(i) * 0.001)).collect())
        .expect("valid KNN pairs");
    let surrogate_only = rung.surrogate_only();
    let mut rt = SmartRuntime::try_new(
        candidates,
        knn,
        RuntimeConfig {
            total_steps: req.steps,
            quality_target: req.quality * rung.quality_multiplier(),
            // Surrogate-only rungs pin the fastest model statically:
            // no MLP start, no switching, no quality checks.
            use_mlp: !surrogate_only,
            adaptive: !surrogate_only,
            ..Default::default()
        },
    )
    .expect("roster always loads");
    rt.run_bounded(
        Simulation::new(SimConfig::plume(req.grid), CellFlags::smoke_box(req.grid, req.grid)),
        RunLimits { deadline: Some(deadline), max_steps: Some(rung.step_budget(req.steps)) },
    )
}

// ------------------------------------------------------------- control

fn control_loop(state: &Arc<State>, stop: &Arc<AtomicBool>) {
    let tick = Duration::from_millis(state.cfg.tick_ms);
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        // Bound per-tenant admission state: refilled rate buckets and
        // long-expired breaker entries are dropped every tick, so a
        // client cycling fresh tenant ids cannot grow memory.
        let now = Instant::now();
        state.rates.sweep(now);
        state.breakers.sweep(now, SWEEP_IDLE);
        let (fast_burn, burning) = sfn_metrics::worst_burn();
        let signals = Signals {
            queue_fill: state.queues.max_fill(),
            inflight_fill: state.inflight.load(Ordering::Relaxed) as f64
                / state.cfg.global_concurrency as f64,
            fast_burn,
            burning,
            p99_ms: state.p99_ms(),
        };
        state.brownout.tick(signals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            global_concurrency: 8,
            queue_depth: 4,
            tenant_rate: 1000.0,
            tenant_burst: 1000.0,
            default_deadline_ms: 10_000,
            ..ServeConfig::default()
        }
    }

    fn roundtrip(addr: SocketAddr, wire: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(wire).expect("send");
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    fn sim_request(tenant: &str, steps: usize) -> SimRequest {
        SimRequest {
            tenant: tenant.into(),
            priority: 1,
            deadline_ms: None,
            grid: 8,
            steps,
            quality: 0.013,
            seed: 7,
        }
    }

    #[test]
    fn serves_a_simulation_end_to_end() {
        let h = serve(tiny_cfg()).expect("bind");
        let resp = roundtrip(h.addr, &sim_request("acme", 3).to_http());
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
        assert!(resp.contains("\"steps_done\":3"), "{resp}");
        assert!(resp.contains("\"rung\":\"normal\""), "{resp}");
        assert!(resp.contains("\"truncated\":null"), "{resp}");

        let stats = roundtrip(h.addr, b"GET /stats.json HTTP/1.1\r\n\r\n");
        assert!(stats.starts_with("HTTP/1.1 200 "), "{stats}");
        assert!(stats.contains("\"completed\":1"), "{stats}");
        h.stop();
    }

    #[test]
    fn rate_limited_tenant_gets_429_with_retry_after() {
        let cfg = ServeConfig { tenant_rate: 0.001, tenant_burst: 1.0, ..tiny_cfg() };
        let h = serve(cfg).expect("bind");
        let wire = sim_request("throttled", 1).to_http();
        let first = roundtrip(h.addr, &wire);
        assert!(first.starts_with("HTTP/1.1 200 "), "{first}");
        let second = roundtrip(h.addr, &wire);
        assert!(second.starts_with("HTTP/1.1 429 "), "{second}");
        assert!(second.contains("Retry-After:"), "{second}");
        assert!(second.contains("rate_limited"), "{second}");
        // An unthrottled tenant is unaffected.
        let other = roundtrip(h.addr, &sim_request("other", 1).to_http());
        assert!(other.starts_with("HTTP/1.1 200 "), "{other}");
        h.stop();
    }

    #[test]
    fn malformed_requests_get_typed_refusals() {
        let h = serve(tiny_cfg()).expect("bind");
        let get = roundtrip(h.addr, b"GET /simulate HTTP/1.1\r\n\r\n");
        assert!(get.starts_with("HTTP/1.1 405 "), "{get}");
        let lost = roundtrip(h.addr, b"POST /nowhere HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(lost.starts_with("HTTP/1.1 404 "), "{lost}");
        let naked = roundtrip(
            h.addr,
            b"POST /simulate HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(naked.starts_with("HTTP/1.1 400 "), "{naked}");
        h.stop();
    }

    #[test]
    fn deadline_budget_truncates_the_run() {
        let h = serve(tiny_cfg()).expect("bind");
        let req = SimRequest { deadline_ms: Some(1), steps: 200, ..sim_request("rushed", 200) };
        let resp = roundtrip(h.addr, &req.to_http());
        // Either the queue wait ate the 1 ms budget (504 shed) or the
        // run started and truncated at a step boundary (200 + partial
        // steps) — both are bounded, neither runs 200 steps.
        if resp.starts_with("HTTP/1.1 200 ") {
            assert!(resp.contains("\"truncated\":\"deadline\""), "{resp}");
        } else {
            assert!(resp.starts_with("HTTP/1.1 504 "), "{resp}");
        }
        h.stop();
    }

    /// Runs `test` on a thread of its own and fails if it has not
    /// finished within 10 s, so a `stop` that never wakes its acceptor
    /// fails the test instead of hanging the suite.
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

    /// Starts a server on `addr` and, with no client ever connecting,
    /// requires `stop` to return within 1 s. The acceptor checks the
    /// flag only after `accept` returns, so without the wake it would
    /// block for good.
    fn stop_returns_promptly(addr: &str) {
        let h = serve(ServeConfig { addr: addr.into(), ..tiny_cfg() }).expect("bind");
        let t = Instant::now();
        h.stop();
        let took = t.elapsed();
        assert!(took < Duration::from_secs(1), "stop took {took:?}");
    }

    #[test]
    fn stop_wakes_an_idle_acceptor() {
        within_10_s(|| stop_returns_promptly("127.0.0.1:0"));
    }

    #[test]
    fn stop_wakes_an_acceptor_bound_to_the_wildcard_address() {
        within_10_s(|| stop_returns_promptly("0.0.0.0:0"));
    }

    #[test]
    fn sequential_requests_do_not_wait_for_an_accept_poll() {
        within_10_s(|| {
            let h = serve(tiny_cfg()).expect("bind");
            let wire = sim_request("acme", 1).to_http();
            let t = Instant::now();
            for _ in 0..10 {
                let resp = roundtrip(h.addr, &wire);
                assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
            }
            let took = t.elapsed();
            h.stop();
            assert!(took < Duration::from_millis(100), "10 requests took {took:?}");
        });
    }
}
