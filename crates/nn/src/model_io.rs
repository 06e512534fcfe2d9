//! Compact binary model serialisation.
//!
//! JSON snapshots ([`crate::network::SavedModel`]) are human-inspectable
//! but ~5× larger than the weights themselves and slow to parse. This
//! module provides a little-endian binary format for artifact caches:
//!
//! ```text
//! magic "SFNM" | version u32 | spec_len u32 | spec JSON bytes
//! | tensor_count u32 | { len u32 | f32 data... }* | fnv1a checksum u64
//! ```
//!
//! The checksum covers everything before it, so truncation and
//! bit-rot are detected at load time.

use crate::network::SavedModel;
use crate::spec::NetworkSpec;
use sfn_rng::fnv1a;

const MAGIC: &[u8; 4] = b"SFNM";
const VERSION: u32 = 1;

/// Serialisation/deserialisation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIoError(pub String);

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model io error: {}", self.0)
    }
}

impl std::error::Error for ModelIoError {}

/// Little-endian cursor over a byte slice; each read checks bounds so
/// truncated input surfaces as an error instead of a panic.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ModelIoError> {
        if self.data.len() < n {
            return Err(ModelIoError(format!("truncated {what}")));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u32_le(&mut self, what: &str) -> Result<u32, ModelIoError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
}

/// Encodes a snapshot to the binary format.
pub fn encode(model: &SavedModel) -> Result<Vec<u8>, ModelIoError> {
    let spec_json = sfn_obs::json::to_json_string(&model.spec).into_bytes();
    let weight_bytes: usize = model.weights.iter().map(|w| 4 + 4 * w.len()).sum();
    let mut buf = Vec::with_capacity(4 + 4 + 4 + spec_json.len() + 4 + weight_bytes + 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let spec_len =
        u32::try_from(spec_json.len()).map_err(|_| ModelIoError("spec too large".into()))?;
    buf.extend_from_slice(&spec_len.to_le_bytes());
    buf.extend_from_slice(&spec_json);
    let count =
        u32::try_from(model.weights.len()).map_err(|_| ModelIoError("too many tensors".into()))?;
    buf.extend_from_slice(&count.to_le_bytes());
    for w in &model.weights {
        let len = u32::try_from(w.len()).map_err(|_| ModelIoError("tensor too large".into()))?;
        buf.extend_from_slice(&len.to_le_bytes());
        for &v in w {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(buf)
}

/// Decodes a snapshot from the binary format, verifying the checksum.
pub fn decode(data: &[u8]) -> Result<SavedModel, ModelIoError> {
    if data.len() < 4 + 4 + 4 + 4 + 8 {
        return Err(ModelIoError("truncated header".into()));
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(ModelIoError("checksum mismatch".into()));
    }
    let mut r = Reader { data: body };
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(ModelIoError("bad magic".into()));
    }
    let version = r.u32_le("version")?;
    if version != VERSION {
        return Err(ModelIoError(format!("unsupported version {version}")));
    }
    let spec_len = r.u32_le("spec length")? as usize;
    let spec_bytes = r.take(spec_len, "spec")?;
    let spec_text = std::str::from_utf8(spec_bytes)
        .map_err(|e| ModelIoError(format!("spec decode: {e}")))?;
    let spec: NetworkSpec = sfn_obs::json::from_json_str(spec_text)
        .map_err(|e| ModelIoError(format!("spec decode: {}", e.message)))?;
    let count = r.u32_le("tensor count")? as usize;
    // A forged header must never drive allocation: every tensor costs
    // at least its 4-byte length word, so `count` is bounded by the
    // bytes actually present. Checked *before* `with_capacity`, which
    // would otherwise pre-allocate `count * size_of::<Vec<f32>>()`
    // (multi-GB from a 20-byte file with `count = 0xFFFF_FFFF`).
    if count > r.data.len() / 4 {
        return Err(ModelIoError(format!(
            "tensor count {count} impossible for {} remaining bytes",
            r.data.len()
        )));
    }
    let mut weights = Vec::with_capacity(count);
    for t in 0..count {
        let len = r.u32_le(&format!("tensor {t} length"))? as usize;
        // Same discipline for the per-tensor payload: checked multiply
        // (4 * len can overflow usize on 32-bit targets) and an explicit
        // remaining-length bound before any allocation-sized use.
        let byte_len = len
            .checked_mul(4)
            .filter(|&b| b <= r.data.len())
            .ok_or_else(|| {
                ModelIoError(format!(
                    "tensor {t} length {len} impossible for {} remaining bytes",
                    r.data.len()
                ))
            })?;
        let raw = r.take(byte_len, &format!("tensor {t} data"))?;
        let w: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        weights.push(w);
    }
    if !r.data.is_empty() {
        return Err(ModelIoError("trailing bytes".into()));
    }
    Ok(SavedModel { spec, weights })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::spec::LayerSpec;
    use crate::tensor::Tensor;

    fn model() -> SavedModel {
        let spec = NetworkSpec::new(vec![
            LayerSpec::Conv2d { in_ch: 2, out_ch: 4, kernel: 3, residual: false },
            LayerSpec::ReLU,
            LayerSpec::Conv2d { in_ch: 4, out_ch: 1, kernel: 1, residual: false },
        ]);
        Network::from_spec(&spec, 42).unwrap().save()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let m = model();
        let bytes = encode(&m).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(m.spec, back.spec);
        assert_eq!(m.weights, back.weights);
        // And the restored network computes identically.
        let x = Tensor::from_fn(1, 2, 6, 6, |_, c, h, w| (c + h * w) as f32 * 0.1);
        let mut a = Network::load(&m, 0).unwrap();
        let mut b = Network::load(&back, 0).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    // Property test: any weight geometry round-trips exactly, including
    // non-finite and denormal f32 payloads (bit patterns must survive).
    #[test]
    fn round_trip_property_arbitrary_weights() {
        sfn_rng::prop::cases(32, |g| {
            let tensors = g.range(0..5usize);
            let weights: Vec<Vec<f32>> = (0..tensors)
                .map(|_| {
                    let len = g.range(0..40usize);
                    (0..len)
                        .map(|_| {
                            let bits = g.rng().next_u64() as u32;
                            let v = f32::from_bits(bits);
                            // NaN payloads compare unequal; keep the
                            // assertion on bit patterns instead.
                            v
                        })
                        .collect()
                })
                .collect();
            let m = SavedModel { spec: NetworkSpec::default(), weights };
            let back = decode(&encode(&m).unwrap()).unwrap();
            assert_eq!(m.weights.len(), back.weights.len());
            for (a, b) in m.weights.iter().zip(&back.weights) {
                let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb);
            }
        });
    }

    // Pins the exact byte layout so artifact caches written by earlier
    // builds stay loadable: any change to the header, the embedded spec
    // JSON or the checksum shows up here.
    #[test]
    fn golden_byte_layout_is_stable() {
        let m = SavedModel {
            spec: NetworkSpec::new(vec![LayerSpec::ReLU]),
            weights: vec![vec![1.0f32]],
        };
        let bytes = encode(&m).unwrap();
        let spec_json = br#"{"layers":["ReLU"]}"#;
        let mut want = Vec::new();
        want.extend_from_slice(b"SFNM");
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
        want.extend_from_slice(spec_json);
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&1.0f32.to_le_bytes());
        let checksum = fnv1a(&want);
        want.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(bytes, want);
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let m = model();
        let bin = encode(&m).unwrap().len();
        let json = sfn_obs::json::to_json_string(&m).len();
        assert!(
            bin * 2 < json,
            "binary {bin} bytes should be well under JSON {json}"
        );
    }

    #[test]
    fn detects_corruption() {
        let m = model();
        let bytes = encode(&m).unwrap();
        // Flip one weight byte.
        let mut bad = bytes.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(matches!(decode(&bad), Err(e) if e.0.contains("checksum")));
    }

    #[test]
    fn detects_truncation() {
        let m = model();
        let bytes = encode(&m).unwrap();
        for cut in [3usize, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    /// A minimal header with attacker-chosen tensor fields and a
    /// *valid* checksum (fnv1a is not cryptographic — anyone forging a
    /// file can recompute it, so the checksum is no allocation guard).
    fn forged(tensor_count: u32, first_len: Option<u32>) -> Vec<u8> {
        let spec_json = br#"{"layers":[]}"#;
        let mut b = Vec::new();
        b.extend_from_slice(b"SFNM");
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
        b.extend_from_slice(spec_json);
        b.extend_from_slice(&tensor_count.to_le_bytes());
        if let Some(len) = first_len {
            b.extend_from_slice(&len.to_le_bytes());
        }
        let checksum = fnv1a(&b);
        b.extend_from_slice(&checksum.to_le_bytes());
        b
    }

    #[test]
    fn forged_tensor_count_fails_fast_without_preallocation() {
        // count = u32::MAX in a ~40-byte file: must be a typed error in
        // well under 10ms, with no allocation proportional to the count
        // (with_capacity(u32::MAX) would reserve ~100 GB of Vec headers
        // and abort the process).
        let blob = forged(u32::MAX, None);
        let start = std::time::Instant::now();
        let err = decode(&blob).unwrap_err();
        assert!(err.0.contains("tensor count"), "{err}");
        assert!(
            start.elapsed() < std::time::Duration::from_millis(10),
            "rejection took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn forged_tensor_length_fails_fast_without_preallocation() {
        let blob = forged(1, Some(u32::MAX));
        let start = std::time::Instant::now();
        let err = decode(&blob).unwrap_err();
        assert!(err.0.contains("impossible"), "{err}");
        assert!(start.elapsed() < std::time::Duration::from_millis(10));
    }

    #[test]
    fn plausible_forged_counts_still_hit_truncation_errors() {
        // A count that passes the remaining-bytes bound but has no
        // tensors behind it must land in a truncation error, not a
        // panic.
        let blob = forged(2, Some(1));
        assert!(decode(&blob).is_err());
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let m = model();
        let bytes = encode(&m).unwrap().to_vec();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // Checksum covers the magic, so this reports a checksum error.
        assert!(decode(&wrong_magic).is_err());
    }
}
