//! One registered [`Target`] per untrusted-input boundary.
//!
//! Each target wraps a parser the pipeline exposes to bytes it did not
//! write — checkpoint files, artifact caches, fault schedules, trace
//! logs, environment variables — in a differential oracle. The runner
//! never trusts the parser's own tests: it asserts the three-way
//! contract directly (typed rejection OR accepted-and-round-trips,
//! never a panic).

use crate::{Outcome, Target};
use sfn_obs::json::{self, to_json_string};
use sfn_rng::StdRng;

/// Every registered target, in stable (CLI/report) order.
pub fn all() -> Vec<Target> {
    vec![
        Target {
            name: "json",
            about: "sfn_obs::json::parse — the shared hand-rolled JSON subset parser",
            run: run_json,
            seeds: |rng| (0..8).map(|_| crate::gen::json_doc(rng)).collect(),
            dict: JSON_DICT,
        },
        Target {
            name: "artifacts",
            about: "OfflineArtifacts JSON load + validate — the offline→online handoff",
            run: run_artifacts,
            seeds: |rng| (0..4).map(|_| crate::gen::artifacts_doc(rng)).collect(),
            dict: ARTIFACTS_DICT,
        },
        Target {
            name: "faults",
            about: "sfn_faults::parse_plan — SFN_FAULTS schedule documents",
            run: run_faults,
            seeds: |rng| (0..8).map(|_| crate::gen::fault_schedule(rng)).collect(),
            dict: FAULTS_DICT,
        },
        Target {
            name: "trace",
            about: "sfn_trace::parse_trace + analyze + audit — the JSONL trace read side",
            run: run_trace,
            seeds: |rng| (0..8).map(|_| crate::gen::trace_jsonl(rng)).collect(),
            dict: TRACE_DICT,
        },
        Target {
            name: "config_env",
            about: "OfflineConfig::with_env_overrides — SFN_* scale-knob parsing",
            run: run_config_env,
            seeds: |rng| (0..8).map(|_| crate::gen::env_soup(rng)).collect(),
            dict: ENV_DICT,
        },
        Target {
            name: "model_json",
            about: "SavedModel JSON snapshots — the human-inspectable checkpoint form",
            run: run_model_json,
            seeds: |rng| (0..6).map(|_| crate::gen::saved_model_json(rng)).collect(),
            dict: MODEL_JSON_DICT,
        },
        Target {
            name: "kernel_summary",
            about: "sfn_prof::ProfileReport::from_json — sfn-prof/kernels@1 roofline documents",
            run: run_kernel_summary,
            seeds: |rng| (0..6).map(|_| crate::gen::kernel_summary_doc(rng)).collect(),
            dict: KERNEL_SUMMARY_DICT,
        },
        Target {
            name: "http",
            about: "sfn_httpcore::parse_request — raw request heads off the metrics and serve sockets",
            run: run_http,
            seeds: |rng| (0..8).map(|_| crate::gen::http_request(rng)).collect(),
            dict: HTTP_DICT,
        },
        Target {
            name: "simd_diff",
            about: "vector-vs-scalar differential oracle over conv/stencil/advect/plan (≤4 ULP)",
            run: run_simd_diff,
            seeds: |rng| (0..12).map(|_| crate::gen::simd_diff_case(rng)).collect(),
            dict: SIMD_DIFF_DICT,
        },
        Target {
            name: "serve_req",
            about: "sfn_serve::SimRequest::parse_wire — full serve-API requests off the socket",
            run: run_serve_req,
            seeds: |rng| (0..10).map(|_| crate::gen::serve_request(rng)).collect(),
            dict: SERVE_REQ_DICT,
        },
    ]
}

/// Looks up a target by CLI name.
pub fn by_name(name: &str) -> Option<Target> {
    all().into_iter().find(|t| t.name == name)
}

// ------------------------------------------------------- dictionaries

const JSON_DICT: &[&[u8]] = &[
    b"null", b"true", b"false", b"{", b"}", b"[", b"]", b"\"", b"\\u0000", b"\\uD834\\uDD1E",
    b"1e308", b"-0.0", b"{\"k\":", b"[[[[[[[[",
];

const ARTIFACTS_DICT: &[&[u8]] = &[
    b"\"family\"",
    b"\"measurements\"",
    b"\"candidate_indices\"",
    b"\"mlp\"",
    b"\"selected\"",
    b"\"knn_pairs\"",
    b"\"requirement\"",
    b"\"fallback_time\"",
    b"\"base_index\"",
    b"\"weights\"",
    b"\"spec\"",
];

const FAULTS_DICT: &[&[u8]] = &[
    b"\"kind\"",
    b"\"nan_output\"",
    b"\"inf_output\"",
    b"\"solver_starvation\"",
    b"\"artifact_corruption\"",
    b"\"latency_spike\"",
    b"\"seed\"",
    b"\"faults\"",
    b"\"p\"",
    b"\"start\"",
    b"\"end\"",
    b"\"target\"",
    b"\"mag\"",
];

const TRACE_DICT: &[&[u8]] = &[
    b"\"ts\"",
    b"\"level\"",
    b"\"kind\"",
    b"\"info\"",
    b"\"scheduler.decision\"",
    b"\"fault.injected\"",
    b"\n",
];

const ENV_DICT: &[&[u8]] = &[
    b"SFN_EVAL_PROBLEMS=",
    b"SFN_TRAIN_EPOCHS=",
    b"18446744073709551615",
    b"-1",
    b"0",
    b"\x00",
];

const KERNEL_SUMMARY_DICT: &[&[u8]] = &[
    b"\"sfn-prof/kernels@1\"",
    b"\"schema\"",
    b"\"kernels\"",
    b"\"calibration\"",
    b"\"peak_gflops\"",
    b"\"stream_gbps\"",
    b"\"duration_secs\"",
    b"\"flops\"",
    b"\"bytes_read\"",
    b"\"bytes_written\"",
    b"\"peak_bytes\"",
    b"\"bound\"",
    b"\"compute\"",
    b"\"memory\"",
    b"18446744073709551615",
    b"1e999",
];

const HTTP_DICT: &[&[u8]] = &[
    b"GET ",
    b"HEAD ",
    b"POST ",
    b"/metrics",
    b"/healthz",
    b"/snapshot.json",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b" HTTP/2",
    b"\r\n",
    b"\r\n\r\n",
    b"\n\n",
    b"Host: ",
    b"Content-Length: ",
    b":",
    b"?",
];

const SIMD_DIFF_DICT: &[&[u8]] = &[
    // Kernel selectors (byte 0) and shape-byte extremes.
    &[0x00],
    &[0x01],
    &[0x02],
    &[0x03],
    &[0xff],
    &[0x00, 0x00, 0x00, 0x00],
    &[0xff, 0xff, 0xff, 0xff],
];

const SERVE_REQ_DICT: &[&[u8]] = &[
    b"POST /simulate HTTP/1.1",
    b"GET ",
    b"X-Tenant: ",
    b"X-Priority: ",
    b"X-Deadline-Ms: ",
    b"Content-Length: ",
    b"\r\n",
    b"\r\n\r\n",
    b"{\"grid\":",
    b"\"steps\":",
    b"\"quality\":",
    b"\"seed\":",
    b"4294967295",
    b"4294967296",
    b"60000",
];

const MODEL_JSON_DICT: &[&[u8]] = &[
    b"\"spec\"",
    b"\"weights\"",
    b"\"layers\"",
    b"\"Conv2d\"",
    b"\"Dense\"",
    b"\"ReLU\"",
    b"\"in_ch\"",
    b"\"out_ch\"",
    b"\"kernel\"",
    b"\"residual\"",
    b"1e999",
];

// ------------------------------------------------------------ targets

fn utf8(input: &[u8]) -> Result<&str, Outcome> {
    std::str::from_utf8(input).map_err(|e| Outcome::Rejected(format!("invalid utf-8: {e}")))
}

/// `parse → serialize → parse` must converge: the second parse must
/// succeed and render identically. (Byte equality with the *input* is
/// not required — whitespace and float spelling may normalise.)
fn run_json(input: &[u8]) -> Outcome {
    let text = match utf8(input) {
        Ok(t) => t,
        Err(o) => return o,
    };
    let v1 = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Outcome::Rejected(format!("at byte {}: {}", e.at, e.message)),
    };
    let s1 = v1.to_json();
    let v2 = match json::parse(&s1) {
        Ok(v) => v,
        Err(e) => {
            return Outcome::OracleFailure(format!(
                "emitted JSON does not reparse (at byte {}: {}): {s1:.200}",
                e.at, e.message
            ))
        }
    };
    let s2 = v2.to_json();
    if s1 != s2 {
        return Outcome::OracleFailure(format!("round-trip diverges: {s1:.100} vs {s2:.100}"));
    }
    Outcome::Accepted
}

/// Artifact documents must reject or `validate()`, and a validated
/// document must serialize to a fixed point.
fn run_artifacts(input: &[u8]) -> Outcome {
    let text = match utf8(input) {
        Ok(t) => t,
        Err(o) => return o,
    };
    let a1: smart_fluidnet_core::OfflineArtifacts = match json::from_json_str(text) {
        Ok(a) => a,
        Err(e) => return Outcome::Rejected(format!("at byte {}: {}", e.at, e.message)),
    };
    if let Err(e) = a1.validate() {
        return Outcome::Rejected(e.to_string());
    }
    let s1 = to_json_string(&a1);
    let a2: smart_fluidnet_core::OfflineArtifacts = match json::from_json_str(&s1) {
        Ok(a) => a,
        Err(e) => {
            return Outcome::OracleFailure(format!(
                "validated artifacts do not reparse (at byte {}: {})",
                e.at, e.message
            ))
        }
    };
    if let Err(e) = a2.validate() {
        return Outcome::OracleFailure(format!("round-tripped artifacts fail validate: {e}"));
    }
    if to_json_string(&a2) != s1 {
        return Outcome::OracleFailure("artifact serialization is not a fixed point".into());
    }
    Outcome::Accepted
}

/// An accepted `SFN_FAULTS` plan must honour the documented ranges —
/// those same invariants are what the injector trusts at runtime.
fn run_faults(input: &[u8]) -> Outcome {
    let text = match utf8(input) {
        Ok(t) => t,
        Err(o) => return o,
    };
    let plan = match sfn_faults::parse_plan(text) {
        Ok(p) => p,
        Err(e) => return Outcome::Rejected(e.to_string()),
    };
    for (i, spec) in plan.specs.iter().enumerate() {
        if !(0.0..=1.0).contains(&spec.probability) {
            return Outcome::OracleFailure(format!(
                "spec {i}: accepted probability {} outside [0, 1]",
                spec.probability
            ));
        }
        if !spec.magnitude.is_finite() || spec.magnitude < 0.0 {
            return Outcome::OracleFailure(format!(
                "spec {i}: accepted magnitude {} is not finite and non-negative",
                spec.magnitude
            ));
        }
        if let Some(end) = spec.end {
            // An empty window is legal (covers nothing) but must stay
            // self-consistent under `covers`.
            if spec.covers("any", end) {
                return Outcome::OracleFailure(format!("spec {i}: covers() past its end step"));
            }
        }
    }
    Outcome::Accepted
}

/// The trace reader is lenient by design: it must *count* bad lines,
/// never fail — so any input is `Accepted`. The oracles check the
/// accounting (events + skipped = non-blank lines), then run every
/// reader of a trace (`analyze`, which includes the decision audit, and
/// `audit` itself) and require the `sfn-trace/summary@1` document to
/// re-serialise to the same bytes after one decode.
fn run_trace(input: &[u8]) -> Outcome {
    let text = match utf8(input) {
        Ok(t) => t,
        Err(o) => return o,
    };
    let trace = sfn_trace::parse_trace(text);
    let non_blank = text.lines().filter(|l| !l.trim().is_empty()).count();
    if trace.events.len() + trace.skipped != non_blank {
        return Outcome::OracleFailure(format!(
            "{} events + {} skipped != {} non-blank lines",
            trace.events.len(),
            trace.skipped,
            non_blank
        ));
    }
    let audit = sfn_trace::audit(&trace).to_json();
    if let Err(e) = json::parse(&audit) {
        return Outcome::OracleFailure(format!("audit JSON does not parse ({e}): {audit:.200}"));
    }
    let s1 = sfn_trace::analyze(&trace).to_json();
    match sfn_trace::Analysis::from_json(&s1) {
        Ok(a) if a.to_json() == s1 => Outcome::Accepted,
        Ok(a) => Outcome::OracleFailure(format!(
            "summary serialization is not a fixed point: {s1:.200} vs {:.200}",
            a.to_json()
        )),
        Err(e) => Outcome::OracleFailure(format!("summary does not reparse ({e}): {s1:.200}")),
    }
}

/// Env values are byte soup by definition (`name=value` pairs split on
/// NUL). The config must accept the lookup without panicking, stay
/// deterministic, and keep every floor.
fn run_config_env(input: &[u8]) -> Outcome {
    let mut vars: Vec<(String, String)> = Vec::new();
    for pair in input.split(|&b| b == 0) {
        let text = String::from_utf8_lossy(pair);
        match text.split_once('=') {
            Some((k, v)) => vars.push((k.to_string(), v.to_string())),
            None => vars.push((text.into_owned(), String::new())),
        }
    }
    let lookup = |name: &str| {
        vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    };
    let a = smart_fluidnet_core::OfflineConfig::default().with_env_overrides(lookup);
    let b = smart_fluidnet_core::OfflineConfig::default().with_env_overrides(|name| {
        vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    });
    if format!("{a:?}") != format!("{b:?}") {
        return Outcome::OracleFailure("env override application is not deterministic".into());
    }
    if a.eval_problems < 1 || a.train_epochs < 1 {
        return Outcome::OracleFailure(format!(
            "a floor was breached: eval_problems={} train_epochs={}",
            a.eval_problems, a.train_epochs
        ));
    }
    Outcome::Accepted
}

/// [`sfn_nn::network::SavedModel`] JSON snapshots must round-trip to a
/// serialization fixed point, like artifacts.
fn run_model_json(input: &[u8]) -> Outcome {
    let text = match utf8(input) {
        Ok(t) => t,
        Err(o) => return o,
    };
    let m1: sfn_nn::network::SavedModel = match json::from_json_str(text) {
        Ok(m) => m,
        Err(e) => return Outcome::Rejected(format!("at byte {}: {}", e.at, e.message)),
    };
    let s1 = to_json_string(&m1);
    let m2: sfn_nn::network::SavedModel = match json::from_json_str(&s1) {
        Ok(m) => m,
        Err(e) => {
            return Outcome::OracleFailure(format!(
                "accepted model does not reparse (at byte {}: {})",
                e.at, e.message
            ))
        }
    };
    if to_json_string(&m2) != s1 {
        return Outcome::OracleFailure("model serialization is not a fixed point".into());
    }
    Outcome::Accepted
}

/// Kernel-summary documents come from `run_all_summary.json` (or a
/// file passed to `sfn-trace profile`) — user-editable inputs. An
/// accepted document must serialize to a fixed point: the emitter
/// recomputes every derived rate (GFLOP/s, intensity, bound) from the
/// raw counters, so `to_json ∘ from_json` must converge after one
/// normalising pass.
fn run_kernel_summary(input: &[u8]) -> Outcome {
    let text = match utf8(input) {
        Ok(t) => t,
        Err(o) => return o,
    };
    let r1 = match sfn_prof::ProfileReport::from_json(text) {
        Ok(r) => r,
        Err(e) => return Outcome::Rejected(format!("at byte {}: {}", e.at, e.message)),
    };
    let s1 = r1.to_json();
    let r2 = match sfn_prof::ProfileReport::from_json(&s1) {
        Ok(r) => r,
        Err(e) => {
            return Outcome::OracleFailure(format!(
                "emitted kernel summary does not reparse (at byte {}: {}): {s1:.200}",
                e.at, e.message
            ))
        }
    };
    if r2.to_json() != s1 {
        return Outcome::OracleFailure("kernel summary serialization is not a fixed point".into());
    }
    // The roofline classification must be total: every accepted row
    // classifies without panicking, whatever the counters.
    for (_, t) in &r1.kernels {
        let _ = r1.bound(t).as_str();
    }
    Outcome::Accepted
}

/// The metrics endpoint treats every byte off the socket as hostile:
/// `parse_request` must reject with a typed error or accept a head that
/// honours every documented bound and whose canonical rendering
/// re-parses to the same request (`parse ∘ render` fixed point).
fn run_http(input: &[u8]) -> Outcome {
    use sfn_httpcore::{
        MAX_HEADERS, MAX_HEADER_NAME_BYTES, MAX_HEADER_VALUE_BYTES, MAX_REQUEST_BYTES,
        MAX_TARGET_BYTES,
    };
    let req = match sfn_httpcore::parse_request(input) {
        Ok(r) => r,
        Err(e) => return Outcome::Rejected(e.to_string()),
    };
    // Accepted heads must honour the bounds the router trusts.
    if req.method.is_empty()
        || req.method.len() > 16
        || !req.method.bytes().all(|b| b.is_ascii_uppercase())
    {
        return Outcome::OracleFailure(format!(
            "accepted method {:?} is not a short uppercase token",
            req.method
        ));
    }
    if !req.target.starts_with('/') || req.target.len() > MAX_TARGET_BYTES {
        return Outcome::OracleFailure(format!("accepted target breaks bounds: {:?}", req.target));
    }
    if req.headers.len() > MAX_HEADERS {
        return Outcome::OracleFailure(format!("accepted {} headers", req.headers.len()));
    }
    for (name, value) in &req.headers {
        if name.is_empty() || name.len() > MAX_HEADER_NAME_BYTES {
            return Outcome::OracleFailure(format!("accepted header name {name:?} breaks bounds"));
        }
        if value.len() > MAX_HEADER_VALUE_BYTES
            || value.starts_with([' ', '\t'])
            || value.ends_with([' ', '\t'])
        {
            return Outcome::OracleFailure(format!(
                "accepted header value {value:?} is not OWS-trimmed within bounds"
            ));
        }
    }
    // Rendering normalises `Name:value` to `Name: value`, which can
    // push a head that parsed right at the size cap past it — the
    // fixed point is asserted for everything under the cap.
    let rendered = req.render();
    if rendered.len() <= MAX_REQUEST_BYTES {
        match sfn_httpcore::parse_request(&rendered) {
            Ok(r2) if r2 == req => {}
            Ok(r2) => {
                return Outcome::OracleFailure(format!(
                    "canonical rendering re-parses differently: {r2:?} vs {req:?}"
                ))
            }
            Err(e) => {
                return Outcome::OracleFailure(format!("canonical rendering does not re-parse: {e}"))
            }
        }
    }
    Outcome::Accepted
}

/// The vector-vs-scalar differential oracle (the `simd_diff` target).
///
/// A case is 14 structured bytes — kernel selector, clamped shape
/// parameters, data seed (see [`crate::gen::simd_diff_case`]). The
/// selected kernel runs once pinned to the scalar reference path and
/// once at the ambient SIMD level; every output element must agree
/// within `MAX_ULP` units-in-the-last-place. The element-wise kernels
/// (conv, the Poisson stencil, advect, the inference plan) are in fact
/// *bit-identical* by construction — the vector paths repeat the
/// scalar operation order — so the 4-ULP budget is headroom for future
/// kernels that reassociate. The conv's gradients, which fix the
/// trained weights, get no budget: 0 ULP.
fn run_simd_diff(input: &[u8]) -> Outcome {
    use sfn_par::simd::{with_level, SimdLevel};
    use sfn_rng::{RngExt, SeedableRng};

    if input.len() < 6 {
        return Outcome::Rejected("simd_diff case needs at least 6 bytes".into());
    }
    let mut b = [0u8; 14];
    for (slot, &v) in b.iter_mut().zip(input) {
        *slot = v;
    }
    let seed = sfn_rng::fnv1a(input);
    let mut rng = StdRng::seed_from_u64(seed);

    const MAX_ULP: u64 = 4;
    let check_f32 = |scalar: &[f32], vector: &[f32], kernel: &str| -> Option<Outcome> {
        for (i, (s, v)) in scalar.iter().zip(vector).enumerate() {
            let ulp = sfn_nn::simd::ulp_distance(*s, *v) as u64;
            if ulp > MAX_ULP {
                return Some(Outcome::OracleFailure(format!(
                    "{kernel}: element {i} diverges by {ulp} ULP ({s} vs {v})"
                )));
            }
        }
        None
    };
    let check_f64 = |scalar: &[f64], vector: &[f64], kernel: &str| -> Option<Outcome> {
        for (i, (s, v)) in scalar.iter().zip(vector).enumerate() {
            let ulp = ulp_distance_f64(*s, *v);
            if ulp > MAX_ULP {
                return Some(Outcome::OracleFailure(format!(
                    "{kernel}: element {i} diverges by {ulp} ULP ({s} vs {v})"
                )));
            }
        }
        None
    };

    let failure = match b[0] % 5 {
        // Two selectors on conv, so every selector byte the generator
        // emits (0..5) runs a kernel.
        0 | 1 => {
            // Inference forward, then a training forward and backward
            // (residual skip and zeroed weights included). The forward
            // is held to the ULP budget, the three gradients to 0 ULP.
            let in_ch = b[1] as usize % 3 + 1;
            let residual = b[6] & 1 == 1;
            let out_ch = if residual { in_ch } else { b[2] as usize % 4 + 1 };
            let k = [1, 3, 5][b[3] as usize % 3];
            let h = b[4] as usize % 12 + 1;
            let w = b[5] as usize % 12 + 1;
            let n = b[7] as usize % 2 + 1;
            let zeroed = b[8] & 1 == 1;
            let weight: Vec<f32> = (0..out_ch * in_ch * k * k)
                .map(|i| if zeroed && i % 3 == 0 { 0.0 } else { rng.random_range(-2.0..2.0) as f32 })
                .collect();
            let bias: Vec<f32> = (0..out_ch).map(|_| rng.random_range(-1.0..1.0) as f32).collect();
            let mut layer =
                sfn_nn::layers::Conv2d::from_weights(in_ch, out_ch, k, residual, weight, bias);
            let input = sfn_nn::Tensor::from_fn(n, in_ch, h, w, |_, _, _, _| {
                rng.random_range(-2.0..2.0) as f32
            });
            let grad_out = sfn_nn::Tensor::from_fn(n, out_ch, h, w, |_, _, _, _| {
                rng.random_range(-2.0..2.0) as f32
            });
            use sfn_nn::layers::Layer;
            let mut run = || {
                let out = layer.forward(&input, false);
                let _ = layer.forward(&input, true);
                let grad_in = layer.backward(&grad_out);
                let params = layer.params();
                let (gw, gb) = (params[0].grads.to_vec(), params[1].grads.to_vec());
                (out, grad_in, gw, gb)
            };
            let scalar = with_level(SimdLevel::Scalar, &mut run);
            let vector = run();
            let check_bits = |scalar: &[f32], vector: &[f32], what: &str| {
                let (i, (s, v)) = scalar.iter().zip(vector).enumerate().find(|(_, (s, v))| s.to_bits() != v.to_bits())?;
                Some(Outcome::OracleFailure(format!("{what}: element {i} is not bit-identical ({s} vs {v})")))
            };
            check_f32(scalar.0.data(), vector.0.data(), "conv2d")
                .or_else(|| check_bits(scalar.1.data(), vector.1.data(), "conv2d grad_in"))
                .or_else(|| check_bits(&scalar.2, &vector.2, "conv2d grad_weight"))
                .or_else(|| check_bits(&scalar.3, &vector.3, "conv2d grad_bias"))
        }
        2 => {
            // The 5-point Poisson stencil PCG applies every iteration.
            let nx = b[1] as usize % 24 + 4;
            let ny = b[2] as usize % 24 + 4;
            let mut flags = sfn_grid::CellFlags::smoke_box(nx, ny);
            if b[3] & 1 == 1 {
                flags.add_solid_disc(
                    nx as f64 / 2.0,
                    ny as f64 / 2.0,
                    (nx.min(ny) as f64 / 4.0).max(1.0),
                );
            }
            let problem = sfn_solver::PoissonProblem::new(&flags, 0.5);
            let plan = sfn_solver::laplace::StencilPlan::new(&problem);
            // Non-fluid entries too: the plan must zero them out itself.
            let x = sfn_grid::Field2::from_fn(nx, ny, |_, _| rng.random_range(-3.0..3.0));
            let mut scalar = sfn_grid::Field2::new(nx, ny);
            let mut vector = sfn_grid::Field2::new(nx, ny);
            with_level(SimdLevel::Scalar, || plan.apply(&x, &mut scalar));
            plan.apply(&x, &mut vector);
            check_f64(scalar.data(), vector.data(), "stencil")
        }
        4 => {
            // A whole inference plan: the direct kernel's fused skip
            // add and ReLU writing padded destinations, a pool /
            // upsample pair, a 1×1 head.
            use sfn_nn::LayerSpec::{AvgPool, Conv2d, MaxPool, ReLU, Upsample};
            let ch = b[1] as usize % 5 + 2;
            let kernel = [1, 3, 5][b[2] as usize % 3];
            let pool = [None, Some(MaxPool { size: 2 }), Some(AvgPool { size: 2 })][b[3] as usize % 3];
            let h = b[4] as usize % 40 + 2;
            let w = b[5] as usize % 40 + 2;
            let mut layers = vec![Conv2d { in_ch: 2, out_ch: ch, kernel, residual: false }, ReLU];
            layers.extend(pool);
            layers.extend([Conv2d { in_ch: ch, out_ch: ch, kernel: 3, residual: true }, ReLU]);
            layers.extend(pool.map(|_| Upsample { factor: 2 }));
            layers.push(Conv2d { in_ch: ch, out_ch: 1, kernel: 1, residual: false });
            let spec = sfn_nn::NetworkSpec::new(layers);
            let weights: Vec<Vec<f32>> = spec
                .layers
                .iter()
                .flat_map(|l| match *l {
                    Conv2d { in_ch, out_ch, kernel, .. } => vec![out_ch * in_ch * kernel * kernel, out_ch],
                    _ => Vec::new(),
                })
                .map(|len| (0..len).map(|_| rng.random_range(-1.0..1.0) as f32).collect())
                .collect();
            let input: Vec<f32> = (0..2 * h * w).map(|_| rng.random_range(-2.0..2.0) as f32).collect();
            let run = || {
                let mut plan = sfn_nn::plan::Plan::new(&spec, &weights, (2, h, w)).expect("valid by construction");
                for (r, row) in input.chunks(w).enumerate() {
                    plan.input_row_mut(r / h, r % h).copy_from_slice(row);
                }
                plan.run();
                let (_, oh, _) = plan.output_shape();
                (0..oh).flat_map(|y| plan.output_row(0, y).to_vec()).collect::<Vec<f32>>()
            };
            let scalar = with_level(SimdLevel::Scalar, run);
            let vector = run();
            check_f32(&scalar, &vector, "plan")
        }
        _ => {
            // Semi-Lagrangian advection (gathered bilinear vs scalar).
            let nx = b[1] as usize % 24 + 4;
            let ny = b[2] as usize % 24 + 4;
            let mut vel = sfn_grid::MacGrid::new(nx, ny, 0.5);
            for v in vel.u.data_mut() {
                *v = rng.random_range(-2.0..2.0);
            }
            for v in vel.v.data_mut() {
                *v = rng.random_range(-2.0..2.0);
            }
            let mut flags = sfn_grid::CellFlags::all_fluid(nx, ny);
            if b[3] & 1 == 1 {
                flags.set(nx / 2, ny / 2, sfn_grid::CellType::Solid);
            }
            let q = sfn_grid::Field2::from_fn(nx, ny, |_, _| rng.random_range(-3.0..3.0));
            let dt = rng.random_range(-1.5..1.5);
            // Density and both face components of the self-advected
            // velocity: all three go through the shared row kernel.
            let run = || {
                let q = sfn_sim::advect::advect_scalar(&vel, &q, &flags, dt);
                (q, sfn_sim::advect::advect_velocity(&vel, dt))
            };
            let (scalar_q, scalar_vel) = with_level(SimdLevel::Scalar, run);
            let (vector_q, vector_vel) = run();
            let (su, sv) = (scalar_vel.u.data(), scalar_vel.v.data());
            check_f64(scalar_q.data(), vector_q.data(), "advect")
                .or_else(|| check_f64(su, vector_vel.u.data(), "advect_velocity.u"))
                .or_else(|| check_f64(sv, vector_vel.v.data(), "advect_velocity.v"))
        }
    };
    match failure {
        Some(outcome) => outcome,
        None => Outcome::Accepted,
    }
}

/// The serve-API boundary (the `serve_req` target): full wire
/// requests — head and body — through [`sfn_serve::SimRequest::parse_wire`].
///
/// Refusals must be typed [`sfn_serve::ApiError`]s (surfaced here as
/// `Rejected`). An accepted request must honour every bound the server
/// trusts downstream (tenant token rules, priority/grid/steps/deadline/
/// quality/seed ranges), and must survive a *semantic* round-trip: its
/// canonical wire rendering (`to_http`) re-parses to an equal request.
/// Byte equality with the input is not required — header order, casing
/// and body-key order normalise.
fn run_serve_req(input: &[u8]) -> Outcome {
    use sfn_serve::api::{MAX_DEADLINE_MS, MAX_GRID, MAX_SEED, MAX_STEPS, MAX_TENANT_BYTES, MIN_GRID};
    let req = match sfn_serve::SimRequest::parse_wire(input) {
        Ok(r) => r,
        Err(e) => return Outcome::Rejected(e.to_string()),
    };
    let t = req.tenant.as_bytes();
    if t.is_empty()
        || t.len() > MAX_TENANT_BYTES
        || !t[0].is_ascii_alphanumeric()
        || !t.iter().all(|&b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
    {
        return Outcome::OracleFailure(format!(
            "accepted tenant {:?} breaks the token rules",
            req.tenant
        ));
    }
    if req.priority > 2 {
        return Outcome::OracleFailure(format!("accepted priority {}", req.priority));
    }
    if !(MIN_GRID..=MAX_GRID).contains(&req.grid) {
        return Outcome::OracleFailure(format!("accepted grid {} outside bounds", req.grid));
    }
    if req.steps == 0 || req.steps > MAX_STEPS {
        return Outcome::OracleFailure(format!("accepted steps {} outside bounds", req.steps));
    }
    if let Some(ms) = req.deadline_ms {
        if ms == 0 || ms > MAX_DEADLINE_MS {
            return Outcome::OracleFailure(format!("accepted deadline {ms}ms outside bounds"));
        }
    }
    if !(req.quality.is_finite() && req.quality > 0.0 && req.quality <= 100.0) {
        return Outcome::OracleFailure(format!("accepted quality {} outside (0, 100]", req.quality));
    }
    if req.seed > MAX_SEED {
        return Outcome::OracleFailure(format!("accepted seed {} above 2^32-1", req.seed));
    }
    match sfn_serve::SimRequest::parse_wire(&req.to_http()) {
        Ok(r2) if r2 == req => Outcome::Accepted,
        Ok(r2) => Outcome::OracleFailure(format!(
            "canonical rendering re-parses differently: {r2:?} vs {req:?}"
        )),
        Err(e) => Outcome::OracleFailure(format!("canonical rendering does not re-parse: {e}")),
    }
}

/// f64 twin of [`sfn_nn::simd::ulp_distance`] (±0 counts as equal,
/// NaN or a sign change is `u64::MAX`).
fn ulp_distance_f64(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() || a.is_sign_positive() != b.is_sign_positive() {
        return u64::MAX;
    }
    a.to_bits().abs_diff(b.to_bits())
}

/// A deterministic seed pool for one target (used by the runner and by
/// `gen-corpus`).
pub fn seed_pool(target: &Target, seed: u64) -> Vec<Vec<u8>> {
    use sfn_rng::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed ^ sfn_rng::fnv1a(target.name.as_bytes()));
    (target.seeds)(&mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<_> = all().iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "json",
                "artifacts",
                "faults",
                "trace",
                "config_env",
                "model_json",
                "kernel_summary",
                "http",
                "simd_diff",
                "serve_req"
            ]
        );
        assert!(by_name("http").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_seed_is_accepted_by_its_own_target() {
        for target in all() {
            for (i, seed) in seed_pool(&target, 0xFEED).iter().enumerate() {
                let outcome = (target.run)(seed);
                assert_eq!(
                    outcome,
                    Outcome::Accepted,
                    "{} seed {i} not accepted: {outcome:?}",
                    target.name
                );
            }
        }
    }

    #[test]
    fn known_hostile_inputs_are_rejected_not_crashes() {
        // The JSON depth bomb: a typed rejection, never a stack overflow.
        let deep = "[".repeat(100_000);
        match run_json(deep.as_bytes()) {
            Outcome::Rejected(msg) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("deep nesting: {other:?}"),
        }
    }
}
