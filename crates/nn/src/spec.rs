//! Serialisable network architecture descriptions.
//!
//! A [`NetworkSpec`] is the object the paper's §4 model-transformation
//! operations (`shallow`, `narrow`, `pooling`, `dropout`) rewrite, and
//! the object §5's MLP featurises (Eq. 6: number of layers plus
//! per-layer kernel size, channel count, pooling size, unpooling size
//! and residual-connection flags).

use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};

/// One layer of a sequential network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution with odd `kernel`, stride 1, same padding.
    /// `residual` adds the layer input to its output (requires
    /// `in_ch == out_ch`).
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Odd kernel size.
        kernel: usize,
        /// Skip connection around this layer.
        residual: bool,
    },
    /// Fully connected layer on flattened features.
    Dense {
        /// Input feature count (`c·h·w` of the incoming tensor).
        inputs: usize,
        /// Output feature count (shape becomes `[n, outputs, 1, 1]`).
        outputs: usize,
    },
    /// Rectified linear unit.
    ReLU,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Max pooling with a square `size × size` window and equal stride.
    MaxPool {
        /// Window/stride size (≥ 2).
        size: usize,
    },
    /// Average pooling with a square window and equal stride.
    AvgPool {
        /// Window/stride size (≥ 2).
        size: usize,
    },
    /// Nearest-neighbour upsampling ("unpooling") by `factor`.
    Upsample {
        /// Integer scale factor (≥ 2).
        factor: usize,
    },
    /// Inverted dropout with drop probability `p` (active in training
    /// mode only).
    Dropout {
        /// Drop probability in `[0, 1)`.
        p: f64,
    },
}

/// A sequential architecture.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkSpec {
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

/// Error produced by shape inference / validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid network spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl LayerSpec {
    /// Output shape `(c, h, w)` for an input of shape `(c, h, w)`.
    pub fn output_shape(&self, input: (usize, usize, usize)) -> Result<(usize, usize, usize), SpecError> {
        let (c, h, w) = input;
        match *self {
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                residual,
            } => {
                if in_ch != c {
                    return Err(SpecError(format!(
                        "conv expects {in_ch} input channels, got {c}"
                    )));
                }
                if kernel % 2 == 0 || kernel == 0 {
                    return Err(SpecError(format!("conv kernel {kernel} must be odd")));
                }
                if out_ch == 0 {
                    return Err(SpecError("conv with zero output channels".into()));
                }
                if residual && in_ch != out_ch {
                    return Err(SpecError(format!(
                        "residual conv needs in_ch == out_ch, got {in_ch} vs {out_ch}"
                    )));
                }
                Ok((out_ch, h, w))
            }
            LayerSpec::Dense { inputs, outputs } => {
                if inputs != c * h * w {
                    return Err(SpecError(format!(
                        "dense expects {inputs} inputs, got {c}x{h}x{w}"
                    )));
                }
                if outputs == 0 {
                    return Err(SpecError("dense with zero outputs".into()));
                }
                Ok((outputs, 1, 1))
            }
            LayerSpec::ReLU | LayerSpec::Sigmoid | LayerSpec::Tanh => Ok((c, h, w)),
            LayerSpec::MaxPool { size } | LayerSpec::AvgPool { size } => {
                if size < 2 {
                    return Err(SpecError(format!("pool size {size} must be >= 2")));
                }
                if h < size || w < size {
                    return Err(SpecError(format!(
                        "cannot pool {h}x{w} by {size}"
                    )));
                }
                Ok((c, h / size, w / size))
            }
            LayerSpec::Upsample { factor } => {
                if factor < 2 {
                    return Err(SpecError(format!("upsample factor {factor} must be >= 2")));
                }
                Ok((c, h * factor, w * factor))
            }
            LayerSpec::Dropout { p } => {
                if !(0.0..1.0).contains(&p) {
                    return Err(SpecError(format!("dropout p {p} outside [0, 1)")));
                }
                Ok((c, h, w))
            }
        }
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        match *self {
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                ..
            } => out_ch * in_ch * kernel * kernel + out_ch,
            LayerSpec::Dense { inputs, outputs } => inputs * outputs + outputs,
            _ => 0,
        }
    }

    /// Short tag for rendering specs.
    pub fn tag(&self) -> String {
        match *self {
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                residual,
            } => {
                if residual {
                    format!("conv{kernel}x{kernel}({in_ch}->{out_ch})+res")
                } else {
                    format!("conv{kernel}x{kernel}({in_ch}->{out_ch})")
                }
            }
            LayerSpec::Dense { inputs, outputs } => format!("dense({inputs}->{outputs})"),
            LayerSpec::ReLU => "relu".into(),
            LayerSpec::Sigmoid => "sigmoid".into(),
            LayerSpec::Tanh => "tanh".into(),
            LayerSpec::MaxPool { size } => format!("maxpool{size}"),
            LayerSpec::AvgPool { size } => format!("avgpool{size}"),
            LayerSpec::Upsample { factor } => format!("up{factor}"),
            LayerSpec::Dropout { p } => format!("dropout({p})"),
        }
    }
}

/// Per-layer architecture features for Eq. 6.
///
/// `MAX_LAYERS = 9` matches the paper: "Each of the last five
/// architecture information is a vector composed of nine components".
pub const MAX_FEATURE_LAYERS: usize = 9;

/// The architecture part of the Eq. 6 feature vector: `(l_k, ker[9],
/// chn[9], pool[9], unp[9], res[9])`, flattened to `1 + 5·9 = 46`
/// numbers (the remaining 2 of the 48 are the user requirement `q, t`
/// added by `sfn-quality`).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchFeatures {
    /// Number of layers (counting parameterised + pooling layers).
    pub num_layers: f64,
    /// Kernel size per layer slot (0 when not a conv).
    pub kernel: [f64; MAX_FEATURE_LAYERS],
    /// Output channel count per layer slot.
    pub channels: [f64; MAX_FEATURE_LAYERS],
    /// Pooling size per layer slot.
    pub pool: [f64; MAX_FEATURE_LAYERS],
    /// Unpooling (upsample) factor per layer slot.
    pub unpool: [f64; MAX_FEATURE_LAYERS],
    /// Residual flag per layer slot.
    pub residual: [f64; MAX_FEATURE_LAYERS],
}

impl ArchFeatures {
    /// Flattens to the 46 architecture components of Eq. 6.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(1 + 5 * MAX_FEATURE_LAYERS);
        v.push(self.num_layers);
        v.extend_from_slice(&self.kernel);
        v.extend_from_slice(&self.channels);
        v.extend_from_slice(&self.pool);
        v.extend_from_slice(&self.unpool);
        v.extend_from_slice(&self.residual);
        v
    }
}

impl NetworkSpec {
    /// Creates a spec from layers.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        Self { layers }
    }

    /// Infers the output shape for input `(c, h, w)`, validating every
    /// layer along the way.
    pub fn output_shape(&self, input: (usize, usize, usize)) -> Result<(usize, usize, usize), SpecError> {
        let mut shape = input;
        for (idx, layer) in self.layers.iter().enumerate() {
            shape = layer
                .output_shape(shape)
                .map_err(|e| SpecError(format!("layer {idx} ({}): {}", layer.tag(), e.0)))?;
        }
        Ok(shape)
    }

    /// Validates the spec against an input shape.
    pub fn validate(&self, input: (usize, usize, usize)) -> Result<(), SpecError> {
        self.output_shape(input).map(|_| ())
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(LayerSpec::param_count).sum()
    }

    /// Number of "significant" layers (conv/dense/pool/upsample) —
    /// activations and dropout are not counted, matching how the paper
    /// counts "layers" when featurising architectures.
    pub fn significant_layers(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| {
                matches!(
                    l,
                    LayerSpec::Conv2d { .. }
                        | LayerSpec::Dense { .. }
                        | LayerSpec::MaxPool { .. }
                        | LayerSpec::AvgPool { .. }
                        | LayerSpec::Upsample { .. }
                )
            })
            .count()
    }

    /// Extracts the Eq. 6 architecture features. Significant layers are
    /// assigned to the 9 slots in order; extra layers fold into the
    /// last slot (summing pool factors), which keeps the featurisation
    /// total and deterministic for any depth.
    pub fn arch_features(&self) -> ArchFeatures {
        let mut f = ArchFeatures {
            num_layers: self.significant_layers() as f64,
            kernel: [0.0; MAX_FEATURE_LAYERS],
            channels: [0.0; MAX_FEATURE_LAYERS],
            pool: [0.0; MAX_FEATURE_LAYERS],
            unpool: [0.0; MAX_FEATURE_LAYERS],
            residual: [0.0; MAX_FEATURE_LAYERS],
        };
        let mut slot = 0usize;
        for layer in &self.layers {
            let s = slot.min(MAX_FEATURE_LAYERS - 1);
            match *layer {
                LayerSpec::Conv2d {
                    out_ch,
                    kernel,
                    residual,
                    ..
                } => {
                    f.kernel[s] = kernel as f64;
                    f.channels[s] = out_ch as f64;
                    if residual {
                        f.residual[s] = 1.0;
                    }
                    slot += 1;
                }
                LayerSpec::Dense { outputs, .. } => {
                    f.kernel[s] = 1.0;
                    f.channels[s] = outputs as f64;
                    slot += 1;
                }
                LayerSpec::MaxPool { size } | LayerSpec::AvgPool { size } => {
                    f.pool[s] += size as f64;
                    slot += 1;
                }
                LayerSpec::Upsample { factor } => {
                    f.unpool[s] += factor as f64;
                    slot += 1;
                }
                LayerSpec::ReLU | LayerSpec::Sigmoid | LayerSpec::Tanh | LayerSpec::Dropout { .. } => {}
            }
        }
        f
    }

    /// Human-readable one-liner.
    pub fn render(&self) -> String {
        self.layers
            .iter()
            .map(LayerSpec::tag)
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

// Externally-tagged encoding (what serde's derive produced): unit
// variants are bare strings, data variants single-key objects. Model
// files written before the derive removal therefore still decode.
impl ToJson for LayerSpec {
    fn to_json_value(&self) -> Value {
        match *self {
            LayerSpec::Conv2d { in_ch, out_ch, kernel, residual } => obj([(
                "Conv2d",
                obj([
                    ("in_ch", in_ch.to_json_value()),
                    ("out_ch", out_ch.to_json_value()),
                    ("kernel", kernel.to_json_value()),
                    ("residual", residual.to_json_value()),
                ]),
            )]),
            LayerSpec::Dense { inputs, outputs } => obj([(
                "Dense",
                obj([
                    ("inputs", inputs.to_json_value()),
                    ("outputs", outputs.to_json_value()),
                ]),
            )]),
            LayerSpec::ReLU => Value::Str("ReLU".to_string()),
            LayerSpec::Sigmoid => Value::Str("Sigmoid".to_string()),
            LayerSpec::Tanh => Value::Str("Tanh".to_string()),
            LayerSpec::MaxPool { size } => {
                obj([("MaxPool", obj([("size", size.to_json_value())]))])
            }
            LayerSpec::AvgPool { size } => {
                obj([("AvgPool", obj([("size", size.to_json_value())]))])
            }
            LayerSpec::Upsample { factor } => {
                obj([("Upsample", obj([("factor", factor.to_json_value())]))])
            }
            LayerSpec::Dropout { p } => obj([("Dropout", obj([("p", p.to_json_value())]))]),
        }
    }
}

impl FromJson for LayerSpec {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        if let Some(name) = v.as_str() {
            return match name {
                "ReLU" => Ok(LayerSpec::ReLU),
                "Sigmoid" => Ok(LayerSpec::Sigmoid),
                "Tanh" => Ok(LayerSpec::Tanh),
                other => Err(JsonError {
                    at: 0,
                    message: format!("unknown LayerSpec variant `{other}`"),
                }),
            };
        }
        let fields = v.as_obj().ok_or_else(|| JsonError {
            at: 0,
            message: "expected LayerSpec variant string or object".to_string(),
        })?;
        let [(tag, body)] = fields else {
            return Err(JsonError {
                at: 0,
                message: format!("expected single-variant object, got {} keys", fields.len()),
            });
        };
        match tag.as_str() {
            "Conv2d" => Ok(LayerSpec::Conv2d {
                in_ch: body.field("in_ch")?,
                out_ch: body.field("out_ch")?,
                kernel: body.field("kernel")?,
                residual: body.field("residual")?,
            }),
            "Dense" => Ok(LayerSpec::Dense {
                inputs: body.field("inputs")?,
                outputs: body.field("outputs")?,
            }),
            "MaxPool" => Ok(LayerSpec::MaxPool { size: body.field("size")? }),
            "AvgPool" => Ok(LayerSpec::AvgPool { size: body.field("size")? }),
            "Upsample" => Ok(LayerSpec::Upsample { factor: body.field("factor")? }),
            "Dropout" => Ok(LayerSpec::Dropout { p: body.field("p")? }),
            other => Err(JsonError {
                at: 0,
                message: format!("unknown LayerSpec variant `{other}`"),
            }),
        }
    }
}

impl ToJson for NetworkSpec {
    fn to_json_value(&self) -> Value {
        obj([("layers", self.layers.to_json_value())])
    }
}

impl FromJson for NetworkSpec {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(NetworkSpec { layers: v.field("layers")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tompson_like() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Conv2d { in_ch: 2, out_ch: 8, kernel: 3, residual: false },
            LayerSpec::ReLU,
            LayerSpec::Conv2d { in_ch: 8, out_ch: 8, kernel: 3, residual: true },
            LayerSpec::ReLU,
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::Conv2d { in_ch: 8, out_ch: 8, kernel: 3, residual: false },
            LayerSpec::ReLU,
            LayerSpec::Upsample { factor: 2 },
            LayerSpec::Conv2d { in_ch: 8, out_ch: 1, kernel: 3, residual: false },
        ])
    }

    #[test]
    fn shape_inference_round_trip() {
        let spec = tompson_like();
        let out = spec.output_shape((2, 32, 32)).unwrap();
        assert_eq!(out, (1, 32, 32));
    }

    #[test]
    fn channel_mismatch_detected() {
        let spec = NetworkSpec::new(vec![
            LayerSpec::Conv2d { in_ch: 2, out_ch: 4, kernel: 3, residual: false },
            LayerSpec::Conv2d { in_ch: 8, out_ch: 4, kernel: 3, residual: false },
        ]);
        let err = spec.output_shape((2, 16, 16)).unwrap_err();
        assert!(err.0.contains("layer 1"), "{err}");
    }

    #[test]
    fn residual_requires_matching_channels() {
        let bad = LayerSpec::Conv2d { in_ch: 4, out_ch: 8, kernel: 3, residual: true };
        assert!(bad.output_shape((4, 8, 8)).is_err());
        let good = LayerSpec::Conv2d { in_ch: 4, out_ch: 4, kernel: 3, residual: true };
        assert_eq!(good.output_shape((4, 8, 8)).unwrap(), (4, 8, 8));
    }

    #[test]
    fn even_kernel_rejected() {
        let bad = LayerSpec::Conv2d { in_ch: 1, out_ch: 1, kernel: 4, residual: false };
        assert!(bad.output_shape((1, 8, 8)).is_err());
    }

    #[test]
    fn pool_too_large_rejected() {
        let spec = NetworkSpec::new(vec![LayerSpec::MaxPool { size: 4 }]);
        assert!(spec.validate((1, 2, 2)).is_err());
        assert!(spec.validate((1, 8, 8)).is_ok());
    }

    #[test]
    fn dense_shape() {
        let spec = NetworkSpec::new(vec![
            LayerSpec::Dense { inputs: 48, outputs: 32 },
            LayerSpec::ReLU,
            LayerSpec::Dense { inputs: 32, outputs: 1 },
            LayerSpec::Sigmoid,
        ]);
        assert_eq!(spec.output_shape((48, 1, 1)).unwrap(), (1, 1, 1));
        assert_eq!(spec.param_count(), 48 * 32 + 32 + 32 + 1);
    }

    #[test]
    fn param_count_conv() {
        let spec = tompson_like();
        let want = (8 * 2 * 9 + 8) + (8 * 8 * 9 + 8) + (8 * 8 * 9 + 8) + (8 * 9 + 1);
        assert_eq!(spec.param_count(), want);
    }

    #[test]
    fn features_match_paper_shape() {
        let spec = tompson_like();
        let f = spec.arch_features();
        assert_eq!(f.to_vec().len(), 46);
        assert_eq!(f.num_layers, 6.0); // 4 convs + pool + upsample
        assert_eq!(f.kernel[0], 3.0);
        assert_eq!(f.channels[0], 8.0);
        assert_eq!(f.residual[1], 1.0);
        assert_eq!(f.pool[2], 2.0);
        assert_eq!(f.unpool[4], 2.0);
    }

    #[test]
    fn deep_specs_fold_into_last_slot() {
        let mut layers = Vec::new();
        for _ in 0..12 {
            layers.push(LayerSpec::Conv2d { in_ch: 4, out_ch: 4, kernel: 3, residual: false });
        }
        let spec = NetworkSpec::new(layers);
        let f = spec.arch_features();
        assert_eq!(f.num_layers, 12.0);
        assert_eq!(f.kernel[8], 3.0);
    }

    #[test]
    fn json_round_trip() {
        let spec = tompson_like();
        let json = sfn_obs::json::to_json_string(&spec);
        let back: NetworkSpec = sfn_obs::json::from_json_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    // Pins the exact wire format serde's derive used to emit; model
    // files embed this JSON, so changing it is a format break.
    #[test]
    fn json_wire_format_matches_serde_derive() {
        let spec = NetworkSpec::new(vec![
            LayerSpec::Conv2d { in_ch: 2, out_ch: 8, kernel: 3, residual: true },
            LayerSpec::ReLU,
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::Dropout { p: 0.5 },
        ]);
        assert_eq!(
            sfn_obs::json::to_json_string(&spec),
            r#"{"layers":[{"Conv2d":{"in_ch":2,"out_ch":8,"kernel":3,"residual":true}},"ReLU",{"MaxPool":{"size":2}},{"Dropout":{"p":0.5}}]}"#
        );
    }
}
