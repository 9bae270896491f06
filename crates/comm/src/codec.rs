//! Update codecs over [`ParamVec`].
//!
//! A codec shrinks what a client uploads after local training. Three
//! schemes cover the design space the compressed-FL literature spans:
//!
//! * [`CodecSpec::Identity`] — raw `f32` weights; the wire carries
//!   `4 * len` bytes and decoding is bit-for-bit lossless, so an
//!   Identity run is *exactly* the historical uncompressed run.
//! * [`CodecSpec::QuantizeI8`] — whole-update affine int8 over the
//!   absolute weights (~4x smaller); reconstruction error is bounded by
//!   one quantization step per element.
//! * [`CodecSpec::TopK`] — magnitude sparsification of the client's
//!   *delta* against the round's global model, shipped as
//!   delta-encoded indices + exact `f32` values; coordinates outside
//!   the top fraction fall back to the global model's values.
//!
//! Wire sizes are data-independent (fixed-width fields), so the latency
//! model can price an upload before training runs, and
//! [`EncodedUpdate::wire_bytes`] always equals
//! [`CodecSpec::encoded_bytes`] for the same parameter count.

use serde::{Deserialize, Serialize};
use tifl_tensor::{codec as kernels, ParamVec};

/// Buffers a recycled pool may hold per shape before excess buffers are
/// dropped (bounds memory when one scratch serves many payload shapes).
const POOL_CAP: usize = 8;

/// Reusable buffers for the encode/fold hot path.
///
/// Encoding a client update needs transient workspace (the dense delta,
/// the top-k selection order) plus the buffers that leave inside the
/// returned [`EncodedUpdate`] (codes, indices, values). A scratch arena
/// owns pools of both kinds so a steady-state round allocates nothing:
/// [`encode_compensated`](crate::encode_compensated) draws buffers out,
/// and the caller hands them back with [`EncodeScratch::recycle`] once
/// the payload has been folded.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Dense f32 workspace: the delta (or error-compensated update)
    /// being encoded.
    pub(crate) delta: Vec<f32>,
    /// Top-k selection order scratch (packed magnitude-key words).
    pub(crate) order: Vec<u64>,
    /// Absolute-index scratch for sparse encodes.
    pub(crate) indices: Vec<u32>,
    dense_pool: Vec<Vec<f32>>,
    codes_pool: Vec<Vec<i8>>,
    idx_pool: Vec<Vec<u32>>,
    vals_pool: Vec<Vec<f32>>,
}

impl EncodeScratch {
    /// Empty arena; buffers grow to steady-state sizes on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn take_dense(&mut self) -> Vec<f32> {
        let mut b = self.dense_pool.pop().unwrap_or_default();
        b.clear();
        b
    }

    pub(crate) fn take_codes(&mut self) -> Vec<i8> {
        let mut b = self.codes_pool.pop().unwrap_or_default();
        b.clear();
        b
    }

    pub(crate) fn take_idx(&mut self) -> Vec<u32> {
        let mut b = self.idx_pool.pop().unwrap_or_default();
        b.clear();
        b
    }

    pub(crate) fn take_vals(&mut self) -> Vec<f32> {
        let mut b = self.vals_pool.pop().unwrap_or_default();
        b.clear();
        b
    }

    /// Pooled all-zeros vector of length `len` (a FedAvg accumulator or
    /// decode target). Return it via [`EncodeScratch::recycle_dense`].
    #[must_use]
    pub fn take_zeroed(&mut self, len: usize) -> ParamVec {
        let mut b = self.take_dense();
        b.resize(len, 0.0);
        ParamVec(b)
    }

    /// Return a dense vector's buffer to the pool (e.g. the previous
    /// global model displaced by a round's new aggregate).
    pub fn recycle_dense(&mut self, p: ParamVec) {
        if self.dense_pool.len() < POOL_CAP {
            self.dense_pool.push(p.0);
        }
    }

    /// Return a folded payload's buffers to the pools so the next
    /// encode reuses them.
    pub fn recycle(&mut self, enc: EncodedUpdate) {
        match enc {
            EncodedUpdate::Dense(p) => self.recycle_dense(p),
            EncodedUpdate::QuantI8 { codes, .. } => {
                if self.codes_pool.len() < POOL_CAP {
                    self.codes_pool.push(codes);
                }
            }
            EncodedUpdate::SparseDelta {
                idx_delta, values, ..
            } => {
                if self.idx_pool.len() < POOL_CAP {
                    self.idx_pool.push(idx_delta);
                }
                if self.vals_pool.len() < POOL_CAP {
                    self.vals_pool.push(values);
                }
            }
        }
    }
}

/// Which compression scheme encodes client uploads.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum CodecSpec {
    /// Raw full-precision weights (lossless, 4 bytes/param).
    #[default]
    Identity,
    /// Affine int8 quantization of the weights with one
    /// `(min, scale)` pair over the whole flattened update
    /// (1 byte/param + an 8-byte header). A single outlier weight
    /// widens the shared step for every parameter — acceptable for
    /// the homogeneous MLP updates here; per-layer ranges would
    /// need layer boundaries, which `ParamVec` erases by design.
    QuantizeI8,
    /// Keep the `frac` largest-magnitude coordinates of the delta
    /// against the global model (8 bytes per kept coordinate:
    /// delta-encoded `u32` index + `f32` value).
    TopK {
        /// Fraction of coordinates kept, in (0, 1].
        frac: f64,
    },
}

impl CodecSpec {
    /// Number of coordinates a [`CodecSpec::TopK`] codec keeps for a
    /// `len`-parameter model.
    ///
    /// # Panics
    /// Panics if `frac` is outside (0, 1].
    #[must_use]
    pub fn top_k_of(frac: f64, len: usize) -> usize {
        assert!(
            frac > 0.0 && frac <= 1.0,
            "top-k fraction must be in (0, 1]"
        );
        ((len as f64 * frac).ceil() as usize).clamp(1, len.max(1))
    }

    /// Exact wire size of an encoded `len`-parameter update, in bytes.
    /// Data-independent, so round latency can be planned before any
    /// client trains.
    #[must_use]
    pub fn encoded_bytes(&self, len: usize) -> u64 {
        match *self {
            CodecSpec::Identity => 4 * len as u64,
            CodecSpec::QuantizeI8 => len as u64 + 8,
            CodecSpec::TopK { frac } => {
                if len == 0 {
                    0
                } else {
                    8 * Self::top_k_of(frac, len) as u64
                }
            }
        }
    }

    /// Label decoration for run reports (`None` for the lossless
    /// Identity codec, matching its bit-for-bit equivalence to
    /// unannotated runs).
    #[must_use]
    pub fn label_suffix(&self) -> Option<String> {
        match *self {
            CodecSpec::Identity => None,
            CodecSpec::QuantizeI8 => Some("i8".to_string()),
            CodecSpec::TopK { frac } => Some(format!("topk({frac})")),
        }
    }
}

/// One encoded client upload: the wire format plus everything needed to
/// fold it into a FedAvg accumulator without materialising a dense
/// per-client intermediate.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedUpdate {
    /// Raw weights ([`CodecSpec::Identity`]).
    Dense(ParamVec),
    /// Affine int8 weights ([`CodecSpec::QuantizeI8`]).
    QuantI8 {
        /// Parameter count.
        len: usize,
        /// Dequantization offset.
        min: f32,
        /// Dequantization step.
        scale: f32,
        /// One signed byte per parameter.
        codes: Vec<i8>,
    },
    /// Sparse delta against the round's global model
    /// ([`CodecSpec::TopK`]).
    SparseDelta {
        /// Parameter count of the dense model.
        len: usize,
        /// Delta-encoded ascending coordinate indices.
        idx_delta: Vec<u32>,
        /// Exact `f32` delta values, aligned with `idx_delta`.
        values: Vec<f32>,
    },
}

impl EncodedUpdate {
    /// Dense parameter count this payload reconstructs to.
    #[must_use]
    pub fn param_len(&self) -> usize {
        match self {
            EncodedUpdate::Dense(p) => p.len(),
            EncodedUpdate::QuantI8 { len, .. } | EncodedUpdate::SparseDelta { len, .. } => *len,
        }
    }

    /// Exact bytes this payload occupies on the wire (fixed-width
    /// fields; headers smaller than a cache line are ignored, matching
    /// how `update_bytes` counts the dense format).
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        match self {
            EncodedUpdate::Dense(p) => 4 * p.len() as u64,
            EncodedUpdate::QuantI8 { codes, .. } => codes.len() as u64 + 8,
            EncodedUpdate::SparseDelta { values, .. } => 8 * values.len() as u64,
        }
    }

    /// True when the payload encodes a delta against the global model
    /// (the fold must add the base back in).
    #[must_use]
    pub fn is_delta(&self) -> bool {
        matches!(self, EncodedUpdate::SparseDelta { .. })
    }

    /// `acc += coeff * decode(self)` — without materialising the dense
    /// decoded vector. For a delta payload this folds *only the delta
    /// part*; the caller owes `acc += coeff * base` (accumulated across
    /// updates and applied once, see `StreamingFold::finish_against`).
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn axpy_into(&self, coeff: f32, acc: &mut ParamVec) {
        assert_eq!(self.param_len(), acc.len(), "encoded fold length mismatch");
        match self {
            EncodedUpdate::Dense(p) => acc.axpy(coeff, p),
            EncodedUpdate::QuantI8 {
                min, scale, codes, ..
            } => kernels::dequantize_i8_axpy(coeff, *min, *scale, codes, &mut acc.0),
            EncodedUpdate::SparseDelta {
                idx_delta, values, ..
            } => kernels::axpy_sparse(coeff, idx_delta, values, &mut acc.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_compensated;

    fn params(n: usize, seed: u64) -> ParamVec {
        ParamVec(
            (0..n)
                .map(|i| ((i as f32 + seed as f32) * 0.37).sin() * 2.5)
                .collect(),
        )
    }

    /// What a client's first upload of `p` ships: the compensated
    /// encode with a zero residual, on a fresh scratch.
    fn encode(spec: CodecSpec, p: &ParamVec, base: &ParamVec) -> EncodedUpdate {
        let mut residual = vec![0.0; p.len()];
        encode_compensated(spec, &mut residual, p, base, &mut EncodeScratch::new())
    }

    /// The weights `enc` reconstructs against `base`, through the fold's
    /// own `axpy_into`.
    fn decode(enc: &EncodedUpdate, base: &ParamVec) -> ParamVec {
        let mut out = if enc.is_delta() {
            base.clone()
        } else {
            ParamVec::zeros(base.len())
        };
        enc.axpy_into(1.0, &mut out);
        out
    }

    #[test]
    fn identity_round_trips_bit_for_bit() {
        let p = params(100, 1);
        let base = params(100, 2);
        let enc = encode(CodecSpec::Identity, &p, &base);
        assert_eq!(enc, EncodedUpdate::Dense(p.clone()));
        assert_eq!(decode(&enc, &base), p);
        assert_eq!(enc.wire_bytes(), 400);
    }

    #[test]
    fn quantize_error_bounded_by_step() {
        let p = params(500, 3);
        let base = ParamVec::zeros(500);
        let enc = encode(CodecSpec::QuantizeI8, &p, &base);
        let EncodedUpdate::QuantI8 { scale, .. } = &enc else {
            panic!("wrong payload");
        };
        let step = *scale;
        let decoded = decode(&enc, &base);
        for (x, y) in p.as_slice().iter().zip(decoded.as_slice()) {
            assert!(
                (x - y).abs() <= step,
                "error {} > step {step}",
                (x - y).abs()
            );
        }
        assert_eq!(enc.wire_bytes(), 508);
    }

    #[test]
    fn topk_preserves_top_fraction_exactly_and_base_elsewhere() {
        let p = params(200, 4);
        let base = params(200, 9);
        let enc = encode(CodecSpec::TopK { frac: 0.1 }, &p, &base);
        let decoded = decode(&enc, &base);
        let mut deltas: Vec<(usize, f32)> = p
            .as_slice()
            .iter()
            .zip(base.as_slice())
            .map(|(&a, &b)| a - b)
            .enumerate()
            .collect();
        deltas.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let kept: Vec<usize> = deltas[..20].iter().map(|&(i, _)| i).collect();
        for i in 0..200 {
            if kept.contains(&i) {
                // Exact reconstruction at kept coordinates: base + delta
                // with the exact f32 delta.
                let expect = base.0[i] + (p.0[i] - base.0[i]);
                assert_eq!(decoded.0[i], expect, "coordinate {i}");
            } else {
                assert_eq!(decoded.0[i], base.0[i], "coordinate {i} must keep base");
            }
        }
        assert_eq!(enc.wire_bytes(), 8 * 20);
    }

    #[test]
    fn wire_bytes_match_planned_bytes() {
        for spec in [
            CodecSpec::Identity,
            CodecSpec::QuantizeI8,
            CodecSpec::TopK { frac: 0.25 },
            CodecSpec::TopK { frac: 1.0 },
        ] {
            for n in [1usize, 7, 256] {
                let enc = encode(spec, &params(n, 5), &ParamVec::zeros(n));
                assert_eq!(
                    enc.wire_bytes(),
                    spec.encoded_bytes(n),
                    "{spec:?} at {n} params"
                );
            }
        }
    }

    #[test]
    fn lossy_codecs_are_smaller_than_identity() {
        let n = 1000;
        let id = CodecSpec::Identity.encoded_bytes(n);
        assert!(CodecSpec::QuantizeI8.encoded_bytes(n) < id);
        assert!(CodecSpec::TopK { frac: 0.1 }.encoded_bytes(n) < id);
    }

    #[test]
    fn dense_axpy_matches_param_axpy_bitwise() {
        // The Identity fold must be the exact historical axpy.
        let p = params(64, 6);
        let enc = EncodedUpdate::Dense(p.clone());
        let mut a = params(64, 7);
        let mut b = a.clone();
        a.axpy(0.375, &p);
        enc.axpy_into(0.375, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_decorate_only_lossy_codecs() {
        assert_eq!(CodecSpec::Identity.label_suffix(), None);
        assert_eq!(CodecSpec::QuantizeI8.label_suffix().unwrap(), "i8");
        assert_eq!(
            CodecSpec::TopK { frac: 0.1 }.label_suffix().unwrap(),
            "topk(0.1)"
        );
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1]")]
    fn topk_rejects_zero_fraction() {
        let _ = CodecSpec::top_k_of(0.0, 10);
    }

    #[test]
    fn scratch_reuses_recycled_buffers() {
        let p = params(100, 13);
        let base = ParamVec::zeros(100);
        let mut residual = vec![0.0; 100];
        let mut scratch = EncodeScratch::new();
        let enc = encode_compensated(
            CodecSpec::QuantizeI8,
            &mut residual,
            &p,
            &base,
            &mut scratch,
        );
        let EncodedUpdate::QuantI8 { ref codes, .. } = enc else {
            panic!("wrong payload");
        };
        let ptr = codes.as_ptr();
        scratch.recycle(enc);
        let enc2 = encode_compensated(
            CodecSpec::QuantizeI8,
            &mut residual,
            &p,
            &base,
            &mut scratch,
        );
        let EncodedUpdate::QuantI8 { ref codes, .. } = enc2 else {
            panic!("wrong payload");
        };
        assert_eq!(codes.as_ptr(), ptr, "codes buffer must come from the pool");
    }
}
