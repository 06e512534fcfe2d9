//! `serve_mix`: one `POST /simulate` per operation, over loopback,
//! against an in-process `sfn_serve::serve` with two workers. The
//! front-end, queueing and per-request set-up dominate; kernels are a
//! minority.
//!
//! The loop is **closed**: two clients, each sending its next request
//! when the previous reply has ended, one connection per request. The
//! generator has `nproc` = 2 cores to share with the server, so an
//! arrival schedule would measure the generator; a closed loop builds
//! no queue, and says nothing about behaviour under overload.

use crate::driver::{Check, PassOut, Workload};
use crate::trace::Tracer;
use crate::util::{checksum, derive_seed, mean, SplitMix64};
use sfn_obs::json;
use sfn_serve::{serve, ServeConfig, ServeHandle, SimRequest};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Requests per second of `--seconds` on the calibration machine
/// (README): the accept loop polls every 20 ms, so two closed-loop
/// clients complete about 100 requests a second whatever they ask for.
const REQUESTS_PER_S: f64 = 100.0;
const CLIENTS: usize = 2;
const TENANTS: u64 = 4;
const DEADLINE_MS: u64 = 10_000;
/// `(grid, steps, share in percent)`. Steps stay at 16 or below: when
/// the workload was scoped the server's per-request random-weight roster
/// truncated 119 of 120 requests at 32 steps, and a truncated reply is a
/// failed operation.
const MIX: [(usize, usize, u64); 4] = [(16, 8, 40), (32, 16, 30), (48, 16, 20), (64, 8, 10)];

/// The request sequence: a pure function of the seed.
pub fn request_mix(seed: u64, count: usize) -> Vec<SimRequest> {
    let mut rng = SplitMix64::new(derive_seed(seed, "requests"));
    (0..count)
        .map(|_| {
            let mut roll = rng.below(100);
            let &(grid, steps, _) = MIX
                .iter()
                .find(|(_, _, share)| {
                    let hit = roll < *share;
                    roll = roll.saturating_sub(*share);
                    hit
                })
                .expect("the shares add up to 100");
            SimRequest {
                tenant: format!("tenant-{}", rng.below(TENANTS)),
                priority: rng.below(3) as u8,
                deadline_ms: Some(DEADLINE_MS),
                grid,
                steps,
                quality: 0.013,
                seed: rng.below(1 << 32),
            }
        })
        .collect()
}

/// What the checks need of one reply.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Reply {
    pub ok: bool,
    pub truncated: bool,
    pub steps_done: u64,
    /// The server's own `latency_ms`: admission to the reply's encoding.
    pub server_ms: f64,
}

/// Judges a raw HTTP reply: 200, a JSON body, every requested step
/// done, not truncated, not degraded. Anything else is a failed op.
pub fn judge(raw: &[u8], request: &SimRequest) -> Reply {
    let text = String::from_utf8_lossy(raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Reply::default();
    };
    let Ok(v) = json::parse(body) else {
        return Reply::default();
    };
    let steps_done = v.get("steps_done").and_then(|s| s.as_u64()).unwrap_or(0);
    let truncated = !matches!(v.get("truncated"), Some(json::Value::Null));
    let ok = head.starts_with("HTTP/1.1 200 ")
        && steps_done == request.steps as u64
        && v.get("requested").and_then(|s| s.as_u64()) == Some(request.steps as u64)
        && !truncated
        && v.get("degraded").and_then(|d| d.as_bool()) == Some(false);
    Reply {
        ok,
        truncated,
        steps_done,
        server_ms: v.get("latency_ms").and_then(|l| l.as_f64()).unwrap_or(0.0),
    }
}

struct Sample {
    index: usize,
    connect_ms: f64,
    ttfb_ms: f64,
    total_ms: f64,
    reply: Reply,
}

fn exchange(
    addr: SocketAddr,
    index: usize,
    request: &SimRequest,
    mut tracer: Option<&mut Tracer>,
) -> Sample {
    // `Some(name)` opens a span, `None` closes the innermost one.
    let mut span = |name: Option<&'static str>| {
        if let Some(t) = tracer.as_deref_mut() {
            match name {
                Some(name) => t.enter(name, index as u64),
                None => drop(t.exit()),
            }
        }
    };
    let wire = request.to_http();
    let mut raw = Vec::with_capacity(512);
    let start = Instant::now();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    span(Some("op"));
    span(Some("serve.connect"));
    let stream = TcpStream::connect(addr);
    let connect_ms = ms(start);
    span(None);
    // Write, wait for the first byte, read to EOF.
    span(Some("serve.reply"));
    let mut ttfb_ms = 0.0;
    if let Ok(mut stream) = stream {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(2 * DEADLINE_MS)));
        if stream.write_all(&wire).is_ok() {
            let mut chunk = [0u8; 1024];
            while let Ok(n) = stream.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                if raw.is_empty() {
                    ttfb_ms = ms(start);
                }
                raw.extend_from_slice(&chunk[..n]);
            }
        }
    }
    let total_ms = ms(start);
    span(None);
    span(None);
    Sample {
        index,
        connect_ms,
        ttfb_ms,
        total_ms,
        reply: judge(&raw, request),
    }
}

fn counter(stats: &json::Value, name: &str) -> f64 {
    stats.get(name).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

pub struct ServeMix {
    /// `Some` until dropped.
    server: Option<ServeHandle>,
    requests: Vec<SimRequest>,
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl ServeMix {
    fn server(&self) -> &ServeHandle {
        self.server.as_ref().expect("the server runs until drop")
    }

    fn stats(&self) -> json::Value {
        json::parse(&self.server().stats_json()).unwrap_or(json::Value::Null)
    }
}

impl Workload for ServeMix {
    fn setup(seed: u64, seconds: f64) -> Result<Self, String> {
        let server = serve(ServeConfig {
            workers: 2,
            global_concurrency: 8,
            // Rate limits opened wide: admission is not what this
            // workload loads.
            tenant_rate: 1e6,
            tenant_burst: 1e6,
            default_deadline_ms: DEADLINE_MS,
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let count = ((seconds * REQUESTS_PER_S).round() as usize).max(CLIENTS);
        let w = Self {
            server: Some(server),
            requests: request_mix(seed, count),
        };
        // Warm-up, not timed: one request of each size of the mix.
        for (grid, steps, _) in MIX {
            let request = SimRequest {
                grid,
                steps,
                ..w.requests[0].clone()
            };
            if !exchange(w.server().addr, 0, &request, None).reply.ok {
                return Err(format!("the warm-up request ({grid}, {steps}) failed"));
            }
        }
        Ok(w)
    }

    fn pass(&self, tracer: Option<&RefCell<Tracer>>) -> PassOut {
        let addr = self.server().addr;
        let before = self.stats();
        let cursor = AtomicUsize::new(0);
        let requests = &self.requests;
        // Client threads record into tracers of their own, on the shared
        // tracer's time axis, and are merged into it after the pass.
        let epoch = tracer.map(|t| t.borrow().epoch());
        let started = Instant::now();
        let per_client: Vec<(Vec<Sample>, Option<Tracer>)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut own = epoch.map(Tracer::new);
                        let mut samples = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(request) = requests.get(index) else {
                                break;
                            };
                            samples.push(exchange(addr, index, request, own.as_mut()));
                        }
                        (samples, own)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let after = self.stats();

        let mut samples = Vec::with_capacity(self.requests.len());
        for (own_samples, own_tracer) in per_client {
            samples.extend(own_samples);
            if let (Some(shared), Some(own)) = (tracer, own_tracer) {
                shared.borrow_mut().absorb(own);
            }
        }
        samples.sort_by_key(|s| s.index);

        let steps_done: Vec<f64> = samples.iter().map(|s| s.reply.steps_done as f64).collect();
        let mut out = PassOut {
            op_ms: samples.iter().map(|s| s.total_ms).collect(),
            failed: samples.iter().filter(|s| !s.reply.ok).count() as u64,
            digest: vec![checksum(&steps_done)],
            ..PassOut::default()
        };

        // The server's own account must agree with the clients'.
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        let sent = self.requests.len() as f64;
        if delta("accepted") != sent
            || delta("completed") != sent
            || delta("refused") + delta("shed") != 0.0
        {
            out.failed += 1;
        }

        if tracer.is_some() {
            let of = |f: &dyn Fn(&Sample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
            // Direct calls, for the share of the front-end that is
            // parsing and encoding.
            let t = Instant::now();
            let wires: Vec<Vec<u8>> = self.requests.iter().map(|r| r.to_http()).collect();
            let encode_us = t.elapsed().as_secs_f64() * 1e6 / sent;
            let t = Instant::now();
            for wire in &wires {
                let _ = std::hint::black_box(SimRequest::parse_wire(wire));
            }
            let parse_us = t.elapsed().as_secs_f64() * 1e6 / sent;
            out.layers = vec![
                ("serve.connect_ms", of(&|s| s.connect_ms)),
                ("serve.ttfb_ms", of(&|s| s.ttfb_ms)),
                ("serve.server_ms", of(&|s| s.reply.server_ms)),
                // Everything the server's own latency does not cover:
                // accept poll, connection thread, parse, admit, write.
                ("serve.front_ms", of(&|s| s.total_ms - s.reply.server_ms)),
                ("serve.parse_us", parse_us),
                ("serve.encode_us", encode_us),
                ("serve.steps_per_s", steps_done.iter().sum::<f64>() / wall_s),
                ("serve.accepted", delta("accepted")),
                ("serve.completed", delta("completed")),
                ("serve.refused", delta("refused")),
                ("serve.shed", delta("shed")),
                ("serve.failed", delta("failed")),
                (
                    "serve.truncated",
                    samples.iter().filter(|s| s.reply.truncated).count() as f64,
                ),
            ];
        }
        out
    }

    fn check(&self, _out: &PassOut) -> Check {
        // The replies carry no field to compare with a reference; each
        // was judged, and the server's counters checked, in the pass.
        Check::default()
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "{} requests, closed loop, {CLIENTS} clients, one connection per request, {TENANTS} tenants, priorities 0-2, deadline {DEADLINE_MS} ms, mix (grid, steps, %) {MIX:?}; one op = connect + POST /simulate + read to EOF",
            self.requests.len()
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_a_pure_function_of_the_seed() {
        assert_eq!(request_mix(7, 300), request_mix(7, 300));
        assert_ne!(request_mix(7, 300), request_mix(8, 300));
        // A longer run extends a shorter one; it does not reshuffle it.
        assert_eq!(request_mix(7, 300)[..100], request_mix(7, 100)[..]);
    }

    #[test]
    fn request_mix_has_the_stated_shares_and_is_accepted_by_the_api() {
        let mix = request_mix(1, 4000);
        for (grid, steps, share) in MIX {
            let got = mix
                .iter()
                .filter(|r| (r.grid, r.steps) == (grid, steps))
                .count() as f64
                / 40.0;
            assert!(
                (got - share as f64).abs() < 3.0,
                "({grid}, {steps}): {got}% for {share}%"
            );
        }
        for r in &mix[..50] {
            assert_eq!(SimRequest::parse_wire(&r.to_http()).as_ref(), Ok(r));
        }
    }

    fn request() -> SimRequest {
        request_mix(3, 1).remove(0)
    }

    fn reply(
        status: &str,
        steps_done: usize,
        truncated: &str,
        degraded: bool,
        r: &SimRequest,
    ) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\r\n{{\"degraded\":{degraded},\"grid\":{},\"latency_ms\":4.250,\"requested\":{},\"rung\":\"normal\",\"steps_done\":{steps_done},\"tenant\":\"{}\",\"truncated\":{truncated}}}",
            r.grid, r.steps, r.tenant
        )
        .into_bytes()
    }

    #[test]
    fn a_truncated_200_is_a_failed_operation() {
        let r = request();
        let good = judge(&reply("200 OK", r.steps, "null", false, &r), &r);
        assert!(good.ok && !good.truncated);
        assert_eq!((good.steps_done, good.server_ms), (r.steps as u64, 4.25));

        let cut = judge(
            &reply("200 OK", r.steps - 1, "\"step_budget\"", false, &r),
            &r,
        );
        assert!(!cut.ok && cut.truncated);
        // Each condition alone fails the operation.
        assert!(!judge(&reply("200 OK", r.steps, "\"deadline\"", false, &r), &r).ok);
        assert!(!judge(&reply("200 OK", r.steps - 1, "null", false, &r), &r).ok);
        assert!(!judge(&reply("200 OK", r.steps, "null", true, &r), &r).ok);
        assert!(
            !judge(
                &reply("503 Service Unavailable", r.steps, "null", false, &r),
                &r
            )
            .ok
        );
        assert!(!judge(b"HTTP/1.1 200 OK\r\n\r\nnot json", &r).ok);
        assert!(!judge(b"", &r).ok);
    }
}
