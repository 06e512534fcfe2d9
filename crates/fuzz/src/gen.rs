//! Structure-aware seed generators.
//!
//! Mutation alone rarely gets past a magic check or a checksum; each
//! generator here emits a *valid* document of one format (through the
//! same encoders the pipeline uses, so checksums and field order are
//! right by construction), giving the mutator a deep starting point.
//! All of them are deterministic functions of the [`StdRng`] stream.

use sfn_modelgen::{GeneratedModel, ModelMeasurement, Origin};
use sfn_nn::network::SavedModel;
use sfn_nn::spec::{LayerSpec, NetworkSpec};
use sfn_obs::json::{obj, to_json_string, Value};
use sfn_quality::MlpVariant;
use sfn_runtime::CandidateModel;
use smart_fluidnet_core::OfflineArtifacts;

use sfn_rng::{RngExt, StdRng};

/// A random JSON value tree of bounded depth, rendered to text.
pub fn json_doc(rng: &mut StdRng) -> Vec<u8> {
    let v = json_value(rng, 0);
    to_json_string(&v).into_bytes()
}

fn json_value(rng: &mut StdRng, depth: usize) -> Value {
    let leaf_only = depth >= 4;
    match rng.random_range(0..if leaf_only { 5 } else { 7u32 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_unit() < 0.5),
        2 => Value::Num(match rng.random_range(0..4u32) {
            0 => rng.random_range(-100.0..100.0),
            1 => rng.random_range(0..1_000_000u64) as f64,
            2 => -0.0,
            _ => rng.random_range(-1.0e18..1.0e18),
        }),
        3 => Value::Str(random_string(rng)),
        4 => Value::Str(String::new()),
        5 => Value::Arr((0..rng.random_range(0..5usize)).map(|_| json_value(rng, depth + 1)).collect()),
        _ => Value::Obj(
            (0..rng.random_range(0..5usize))
                .map(|_| (random_string(rng), json_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

fn random_string(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'k', 'z', '0', '9', ' ', '_', '.', '"', '\\', '\n', '\t', 'é', '€', '\u{1F300}',
        '\u{0}',
    ];
    (0..rng.random_range(0..10usize)).map(|_| POOL[rng.random_range(0..POOL.len())]).collect()
}

/// A small random architecture (not necessarily shape-consistent —
/// the JSON codec stores the spec verbatim, so it must not care).
pub fn network_spec(rng: &mut StdRng) -> NetworkSpec {
    let mut layers = Vec::new();
    for _ in 0..rng.random_range(1..=4usize) {
        layers.push(match rng.random_range(0..9u32) {
            0 => LayerSpec::Conv2d {
                in_ch: rng.random_range(1..=4usize),
                out_ch: rng.random_range(1..=4usize),
                kernel: 2 * rng.random_range(0..=2usize) + 1,
                residual: rng.random_unit() < 0.25,
            },
            1 => LayerSpec::Dense {
                inputs: rng.random_range(1..=16usize),
                outputs: rng.random_range(1..=16usize),
            },
            2 => LayerSpec::ReLU,
            3 => LayerSpec::Sigmoid,
            4 => LayerSpec::Tanh,
            5 => LayerSpec::MaxPool { size: rng.random_range(2..=3usize) },
            6 => LayerSpec::AvgPool { size: rng.random_range(2..=3usize) },
            7 => LayerSpec::Upsample { factor: rng.random_range(2..=3usize) },
            _ => LayerSpec::Dropout { p: rng.random_range(0.0..0.9) },
        });
    }
    NetworkSpec::new(layers)
}

fn weight_tensors(rng: &mut StdRng) -> Vec<Vec<f32>> {
    // The JSON codec renders non-finite as `null`, so JSON-borne
    // models stay finite.
    (0..rng.random_range(0..=4usize))
        .map(|_| {
            (0..rng.random_range(0..24usize))
                .map(|_| match rng.random_range(0..8u32) {
                    3 => -0.0,
                    _ => rng.random_range(-10.0..10.0f32),
                })
                .collect()
        })
        .collect()
}

/// A random model snapshot (spec + finite weight tensors).
pub fn saved_model(rng: &mut StdRng) -> SavedModel {
    let spec = network_spec(rng);
    let weights = weight_tensors(rng);
    SavedModel { spec, weights }
}

/// A [`SavedModel`] JSON snapshot.
pub fn saved_model_json(rng: &mut StdRng) -> Vec<u8> {
    to_json_string(&saved_model(rng)).into_bytes()
}

/// A JSONL trace: mostly well-formed `sfn-obs` envelope records, with
/// the occasional blank and mid-write-truncated line the lenient
/// reader must count, not choke on.
pub fn trace_jsonl(rng: &mut StdRng) -> Vec<u8> {
    const KINDS: &[&str] = &[
        "step.end",
        "scheduler.decision",
        "fault.injected",
        "parser.rejected",
        "fuzz.finding",
        "stage.end",
    ];
    const LEVELS: &[&str] = &["trace", "debug", "info", "warn", "error"];
    let mut out = String::new();
    for i in 0..rng.random_range(1..=12usize) {
        if rng.random_unit() < 0.1 {
            out.push('\n'); // blank line
            continue;
        }
        let line = format!(
            "{{\"ts\":{:.3},\"level\":\"{}\",\"kind\":\"{}\",\"step\":{},\"model\":\"M{}\"}}",
            i as f64 * 0.25 + rng.random_unit(),
            LEVELS[rng.random_range(0..LEVELS.len())],
            KINDS[rng.random_range(0..KINDS.len())],
            i,
            rng.random_range(0..40u32),
        );
        if rng.random_unit() < 0.15 {
            // Crash mid-write: keep only a prefix of the record.
            let keep = rng.random_range(1..line.len());
            let mut cut = keep;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            out.push_str(&line[..cut.max(1)]);
        } else {
            out.push_str(&line);
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// A valid `SFN_FAULTS` schedule document.
pub fn fault_schedule(rng: &mut StdRng) -> Vec<u8> {
    const KINDS: &[&str] =
        &["nan_output", "inf_output", "solver_starvation", "artifact_corruption", "latency_spike"];
    let faults: Vec<Value> = (0..rng.random_range(0..4usize))
        .map(|_| {
            let mut fields = vec![(
                "kind".to_string(),
                Value::Str(KINDS[rng.random_range(0..KINDS.len())].to_string()),
            )];
            if rng.random_unit() < 0.8 {
                fields.push(("p".into(), Value::Num(rng.random_range(0.0..1.0))));
            }
            if rng.random_unit() < 0.5 {
                fields.push(("start".into(), Value::Num(rng.random_range(0..64u32) as f64)));
            }
            if rng.random_unit() < 0.5 {
                fields.push(("end".into(), Value::Num(rng.random_range(64..256u32) as f64)));
            }
            if rng.random_unit() < 0.4 {
                fields.push((
                    "target".into(),
                    Value::Str(format!("M{}", rng.random_range(0..40u32))),
                ));
            }
            if rng.random_unit() < 0.6 {
                fields.push(("mag".into(), Value::Num(rng.random_range(0.0..2.0))));
            }
            Value::Obj(fields)
        })
        .collect();
    let doc = obj([
        ("seed", Value::Num(rng.random_range(0..1_000_000u32) as f64)),
        ("faults", Value::Arr(faults)),
    ]);
    to_json_string(&doc).into_bytes()
}

/// The `SFN_*` scale knobs the offline config reads, as a
/// NUL-separated `name=value` list (the `config_env` target's input
/// encoding). Mixes plausible numbers with near-miss garbage.
pub fn env_soup(rng: &mut StdRng) -> Vec<u8> {
    const NAMES: &[&str] = &["SFN_EVAL_PROBLEMS", "SFN_TRAIN_EPOCHS"];
    let mut out = Vec::new();
    for name in NAMES {
        if rng.random_unit() < 0.3 {
            continue; // unset
        }
        let value = match rng.random_range(0..6u32) {
            0 => rng.random_range(0..100_000u64).to_string(),
            1 => format!(" {} ", rng.random_range(0..64u32)), // needs trim
            2 => format!("-{}", rng.random_range(0..64u32)),  // negative → invalid for usize
            3 => "18446744073709551616".to_string(),          // u64::MAX + 1
            4 => random_string(rng),
            _ => format!("{}.5", rng.random_range(0..64u32)), // float → invalid
        };
        if !out.is_empty() {
            out.push(0);
        }
        out.extend_from_slice(name.as_bytes());
        out.push(b'=');
        out.extend_from_slice(value.as_bytes());
    }
    out
}

/// A *valid* offline-artifact document: small family, consistent
/// indices, finite scalars — it must pass
/// [`OfflineArtifacts::validate`] before mutation breaks it.
pub fn artifacts_doc(rng: &mut StdRng) -> Vec<u8> {
    let n = rng.random_range(1..=3usize);
    let family: Vec<GeneratedModel> = (0..n)
        .map(|id| GeneratedModel {
            id,
            name: format!("M{id}"),
            origin: if id == 0 { Origin::Base } else { Origin::Shallow { which: id } },
            spec: network_spec(rng),
        })
        .collect();
    let measurements: Vec<ModelMeasurement> = family
        .iter()
        .map(|m| ModelMeasurement {
            id: m.id,
            name: m.name.clone(),
            time_cost: rng.random_range(0.001..0.1),
            quality_loss: rng.random_range(0.0..0.5),
            flops_per_step: rng.random_range(1_000..1_000_000u64),
            saved: saved_model(rng),
            per_problem: (0..rng.random_range(0..3usize))
                .map(|_| (rng.random_range(0.0..0.5), rng.random_range(0.001..0.1)))
                .collect(),
        })
        .collect();
    let mlp = saved_model(rng);
    let selected = vec![CandidateModel {
        name: "M0".into(),
        saved: saved_model(rng),
        probability: rng.random_range(0.0..1.0),
        exec_time: rng.random_range(0.001..0.1),
        quality_loss: rng.random_range(0.0..0.5),
    }];
    let artifacts = OfflineArtifacts {
        family,
        measurements,
        candidate_indices: vec![0],
        mlp,
        mlp_variant: MlpVariant::Mlp3,
        mlp_loss_curve: (0..rng.random_range(0..8usize)).map(|_| rng.random_unit()).collect(),
        selected,
        knn_pairs: (0..rng.random_range(0..6usize))
            .map(|_| (rng.random_range(0.0..4.0), rng.random_range(0.0..1.0)))
            .collect(),
        requirement: (rng.random_range(0.0..1.0), rng.random_range(0.001..1.0)),
        fallback_time: rng.random_range(0.0..1.0),
        base_index: 0,
    };
    debug_assert!(artifacts.validate().is_ok(), "generator must emit valid artifacts");
    to_json_string(&artifacts).into_bytes()
}

/// A valid `sfn-prof/kernels@1` kernel-summary document, through the
/// same serializer the `profile` reader uses (so derived rates are
/// consistent by construction).
pub fn kernel_summary_doc(rng: &mut StdRng) -> Vec<u8> {
    const NAMES: &[&str] = &["conv2d", "advect", "forces", "projection", "pcg", "mic0", "cg"];
    let kernels = (0..rng.random_range(0..=6usize))
        .map(|i| {
            let name = NAMES[(i + rng.random_range(0..NAMES.len())) % NAMES.len()].to_string();
            let totals = sfn_prof::KernelTotals {
                calls: rng.random_range(0..1_000_000u64),
                ns: rng.random_range(0..10_000_000_000u64),
                flops: rng.random_range(0..u64::MAX / 2),
                bytes_read: rng.random_range(0..u64::MAX / 4),
                bytes_written: rng.random_range(0..u64::MAX / 4),
                allocs: rng.random_range(0..100_000u64),
                alloc_bytes: rng.random_range(0..1_000_000_000u64),
                peak_bytes: rng.random_range(0..1_000_000_000u64),
            };
            (name, totals)
        })
        .collect();
    let report = sfn_prof::ProfileReport {
        duration_secs: rng.random_range(0.0..100.0),
        calibration: sfn_prof::Calibration {
            peak_gflops: rng.random_range(0.0..100.0),
            stream_gbps: rng.random_range(0.0..100.0),
        },
        kernels,
    };
    report.to_json().into_bytes()
}

/// A valid-by-construction HTTP/1.x request head for the metrics
/// endpoint parser: CRLF line endings, uppercase token method,
/// /-rooted visible-ASCII target, tchar header names — everything
/// `sfn_httpcore::parse_request` demands, so every seed is accepted
/// before mutation starts breaking it. Sometimes trailed by body bytes
/// the bodiless-GET parser must ignore.
pub fn http_request(rng: &mut StdRng) -> Vec<u8> {
    const METHODS: &[&str] = &["GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS"];
    const PATHS: &[&str] = &["/metrics", "/healthz", "/snapshot.json", "/", "/nope/deeper"];
    const NAMES: &[&str] =
        &["Host", "Accept", "User-Agent", "Connection", "Cache-Control", "X-Forwarded-For"];
    const VALUE_POOL: &[char] = &[
        'l', 'o', 'c', 'a', 'h', 's', 't', '0', '9', '.', ':', '*', '/', '-', '_', '=', ';',
        ',', '(', ')', ' ', '\t',
    ];
    let mut out = String::new();
    out.push_str(METHODS[rng.random_range(0..METHODS.len())]);
    out.push(' ');
    out.push_str(PATHS[rng.random_range(0..PATHS.len())]);
    if rng.random_unit() < 0.4 {
        out.push_str(&format!("?q={}", rng.random_range(0..1000u32)));
    }
    out.push_str(if rng.random_unit() < 0.2 { " HTTP/1.0\r\n" } else { " HTTP/1.1\r\n" });
    for _ in 0..rng.random_range(0..6usize) {
        out.push_str(NAMES[rng.random_range(0..NAMES.len())]);
        // Both `Name:value` and `Name:  value  ` parse; OWS trims.
        out.push(':');
        if rng.random_unit() < 0.7 {
            out.push(' ');
        }
        let value: String = (0..rng.random_range(0..20usize))
            .map(|_| VALUE_POOL[rng.random_range(0..VALUE_POOL.len())])
            .collect();
        out.push_str(&value);
        if rng.random_unit() < 0.2 {
            out.push(' ');
        }
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    if rng.random_unit() < 0.2 {
        out.push_str("ignored body bytes");
    }
    out.into_bytes()
}

/// A valid-by-construction serve-API request (`POST /simulate` with
/// tenant/priority/deadline headers and a JSON scene body), hand-
/// rendered rather than via `SimRequest::to_http` so the seeds also
/// exercise the parser's tolerances: shuffled-case header names, query
/// strings, benign extra headers, whitespace and key order in the
/// body. Every seed must be accepted by `run_serve_req` before
/// mutation starts breaking it.
pub fn serve_request(rng: &mut StdRng) -> Vec<u8> {
    const TENANTS: &[&str] = &["acme", "acme-eu", "t0", "lab_42", "a", "plume-farm-7"];
    const QUALITIES: &[&str] = &["0.013", "0.5", "2", "100", "0.0001"];
    let tenant = TENANTS[rng.random_range(0..TENANTS.len())];
    let grid = rng.random_range(8..65u32);
    let steps = rng.random_range(1..257u32);

    let mut body = String::from("{");
    let mut fields = vec![format!("\"grid\":{grid}"), format!("\"steps\":{steps}")];
    if rng.random_unit() < 0.5 {
        fields.push(format!("\"quality\":{}", QUALITIES[rng.random_range(0..QUALITIES.len())]));
    }
    if rng.random_unit() < 0.5 {
        fields.push(format!("\"seed\":{}", rng.random_range(0..u32::MAX)));
    }
    // Key order is free; the canonical rendering sorts, the parser
    // must not care.
    if rng.random_unit() < 0.5 {
        fields.reverse();
    }
    let sep = if rng.random_unit() < 0.3 { ", " } else { "," };
    body.push_str(&fields.join(sep));
    body.push('}');

    let mut out = String::from("POST /simulate");
    if rng.random_unit() < 0.3 {
        out.push_str(&format!("?trace={}", rng.random_range(0..100u32)));
    }
    out.push_str(" HTTP/1.1\r\n");
    let tenant_name = if rng.random_unit() < 0.3 { "x-tenant" } else { "X-Tenant" };
    out.push_str(&format!("{tenant_name}: {tenant}\r\n"));
    if rng.random_unit() < 0.7 {
        out.push_str(&format!("X-Priority: {}\r\n", rng.random_range(0..3u32)));
    }
    if rng.random_unit() < 0.5 {
        out.push_str(&format!("X-Deadline-Ms: {}\r\n", rng.random_range(1..60_001u32)));
    }
    if rng.random_unit() < 0.4 {
        out.push_str("User-Agent: sfn-loadgen/1\r\n");
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    out.push_str(&body);
    out.into_bytes()
}

/// A structured `simd_diff` case: one kernel-selector byte, five
/// parameter bytes (shape/geometry, clamped by the target) and eight
/// data-seed bytes. The target derives every tensor deterministically
/// from these 14 bytes, so a finding reproduces from the case alone.
pub fn simd_diff_case(rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(14);
    out.push(rng.random_range(0..5u32) as u8);
    for _ in 0..5 {
        out.push(rng.random_range(0..256u32) as u8);
    }
    out.extend_from_slice(&rng.next_u64().to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_rng::SeedableRng;

    #[test]
    fn generated_documents_are_valid_for_their_parsers() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let doc = json_doc(&mut rng);
            sfn_obs::json::parse(std::str::from_utf8(&doc).unwrap()).expect("valid JSON");

            let sched = fault_schedule(&mut rng);
            sfn_faults::parse_plan(std::str::from_utf8(&sched).unwrap()).expect("valid schedule");

            let ks = kernel_summary_doc(&mut rng);
            sfn_prof::ProfileReport::from_json(std::str::from_utf8(&ks).unwrap())
                .expect("valid kernel summary");

            let req = http_request(&mut rng);
            sfn_httpcore::parse_request(&req).expect("valid request head");

            let art = artifacts_doc(&mut rng);
            let parsed: OfflineArtifacts =
                sfn_obs::json::from_json_str(std::str::from_utf8(&art).unwrap())
                    .expect("valid artifacts");
            parsed.validate().expect("generated artifacts validate");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..10).map(|_| trace_jsonl(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..10).map(|_| trace_jsonl(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
