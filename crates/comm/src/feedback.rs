//! Client-side error-feedback residuals for lossy codecs.
//!
//! Plain lossy compression discards part of every update and the
//! discarded mass is gone forever; with aggressive sparsification
//! (`TopK` at small fractions) that loss compounds until training
//! stalls — exactly the accuracy collapse the comm sweep showed at
//! `topk(0.1)`. Error feedback (EF-SGD; Karimireddy et al., ICML 2019)
//! fixes this with one per-client vector: whatever the codec failed to
//! transmit this round is remembered and added back into what the
//! client *wants* to send next round, so every coordinate's error is
//! eventually flushed instead of dropped.
//!
//! The residual state is client-side: in a deployment each client
//! keeps its own. The simulation session holds it keyed by client id
//! and lends a contributor's residual to that client's training task
//! ([`ErrorFeedback::lend`]); the task encodes its upload against it
//! ([`encode_compensated`]) and the residual comes back with the upload
//! ([`ErrorFeedback::give_back`]). A client trains at most once per
//! round and an encode depends only on (params, base, residual), so
//! runs stay bit-for-bit equivalent at every thread count with EF
//! active. The lossless `Identity` codec bypasses EF entirely,
//! preserving every historical bit-for-bit pin.

use std::collections::BTreeMap;

use tifl_tensor::{codec as kernels, ParamVec};

use crate::codec::{CodecSpec, EncodeScratch, EncodedUpdate};

/// Per-client error-feedback residuals for lossy codecs.
///
/// A round lends each contributor's residual to the task that encodes
/// its upload ([`ErrorFeedback::lend`]) and takes it back with the
/// payload ([`ErrorFeedback::give_back`]). A checkpoint carries the
/// stored residuals ([`ErrorFeedback::residuals`],
/// [`ErrorFeedback::install`]), so a restored lossy run compensates
/// exactly as the run that never stopped.
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    residuals: BTreeMap<usize, Vec<f32>>,
}

impl ErrorFeedback {
    /// Empty state: every client's first encode is uncompensated.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every stored residual, by client (what a checkpoint saves).
    #[must_use]
    pub fn residuals(&self) -> &BTreeMap<usize, Vec<f32>> {
        &self.residuals
    }

    /// Replace all residual state with `residuals` (a checkpoint's).
    pub fn install(&mut self, residuals: BTreeMap<usize, Vec<f32>>) {
        self.residuals = residuals;
    }

    /// Lend `client`'s residual out for an encode elsewhere
    /// ([`encode_compensated`]); hand it back with
    /// [`ErrorFeedback::give_back`]. A client without one — or whose
    /// residual is still out — gets a fresh zero vector of `len`
    /// (allocated here, by the lender). A known client's slot keeps its
    /// map entry, so at steady state lending and giving back allocate
    /// nothing.
    #[must_use]
    pub fn lend(&mut self, client: usize, len: usize) -> Vec<f32> {
        match self.residuals.get_mut(&client) {
            Some(e) if !e.is_empty() => std::mem::take(e),
            _ => vec![0.0; len],
        }
    }

    /// Take back a residual lent by [`ErrorFeedback::lend`], updated by
    /// the encode it served.
    pub fn give_back(&mut self, client: usize, residual: Vec<f32>) {
        match self.residuals.get_mut(&client) {
            Some(e) => *e = residual,
            None => drop(self.residuals.insert(client, residual)),
        }
    }

    /// Encode `client`'s trained `params` against `base` on this
    /// thread: lend its residual, [`encode_compensated`], give it back.
    /// Identity touches no residual. No run encodes this way; it is
    /// kept for the `tifl-benchmark` crate's lockstep loop and the
    /// kernel bench's fold round, which encode on their own thread.
    ///
    /// # Panics
    /// As [`encode_compensated`].
    #[must_use]
    pub fn encode(
        &mut self,
        codec: CodecSpec,
        client: usize,
        params: &ParamVec,
        base: &ParamVec,
        scratch: &mut EncodeScratch,
    ) -> EncodedUpdate {
        if codec == CodecSpec::Identity {
            return encode_compensated(codec, &mut Vec::new(), params, base, scratch);
        }
        let mut residual = self.lend(client, params.len());
        let enc = encode_compensated(codec, &mut residual, params, base, scratch);
        self.give_back(client, residual);
        enc
    }
}

/// Encode trained `params` against `base` (the global model they were
/// trained from), compensated by the client's error-feedback
/// `residual`, and leave in `residual` what the codec still failed to
/// represent.
///
/// * `Identity` — lossless, `residual` untouched: the weights copied
///   into a pooled buffer.
/// * `QuantizeI8` — quantizes `params + e`, then stores the new
///   quantization error as `e` (bounded by one step per element).
/// * `TopK` — sparsifies the compensated delta `(params − base) + e`,
///   then stores the unsent coordinates of that delta as `e`.
///
/// Wire size is unchanged: compensation alters which bits ship, not
/// how many. The payload's buffers come from `scratch`.
///
/// # Panics
/// Panics if `params` and `base` differ in length, or if a lossy
/// codec's `residual` is not `params`' length.
#[must_use]
pub fn encode_compensated(
    codec: CodecSpec,
    residual: &mut Vec<f32>,
    params: &ParamVec,
    base: &ParamVec,
    scratch: &mut EncodeScratch,
) -> EncodedUpdate {
    assert_eq!(params.len(), base.len(), "codec base length mismatch");
    if codec != CodecSpec::Identity {
        assert_eq!(
            residual.len(),
            params.len(),
            "error-feedback length mismatch"
        );
    }
    let e = residual;
    let enc = match codec {
        CodecSpec::Identity => {
            let mut buf = scratch.take_dense();
            buf.extend_from_slice(params.as_slice());
            EncodedUpdate::Dense(ParamVec(buf))
        }
        CodecSpec::QuantizeI8 => {
            // Two fused passes: compensate + range in one, quantize +
            // residual in the other (both bit-for-bit the separate
            // loops they replace).
            let (lo, hi) = kernels::add_into_minmax(params.as_slice(), e, &mut scratch.delta);
            let mut codes = scratch.take_codes();
            // The kernel appends block by block; sized up front, a
            // buffer from a cold pool (a worker's payload always comes
            // from one) costs one allocation instead of a growth chain.
            codes.reserve_exact(params.len());
            let (min, scale) =
                kernels::quantize_i8_residual_into(&scratch.delta, lo, hi, &mut codes, e);
            EncodedUpdate::QuantI8 {
                len: params.len(),
                min,
                scale,
                codes,
            }
        }
        CodecSpec::TopK { frac } => {
            scratch.delta.clear();
            scratch.delta.extend(
                params
                    .as_slice()
                    .iter()
                    .zip(base.as_slice())
                    .zip(e.iter())
                    .map(|((&p, &b), &r)| (p - b) + r),
            );
            let k = CodecSpec::top_k_of(frac, scratch.delta.len());
            let mut values = scratch.take_vals();
            kernels::top_k_by_magnitude_into(
                &scratch.delta,
                k,
                &mut scratch.order,
                &mut scratch.indices,
                &mut values,
            );
            // The residual is the compensated delta with the shipped
            // coordinates zeroed — take it by swapping buffers (the
            // values were already gathered) instead of copying n
            // floats; the old residual becomes next round's delta
            // scratch.
            std::mem::swap(e, &mut scratch.delta);
            for &i in &scratch.indices {
                e[i as usize] = 0.0;
            }
            let mut idx_delta = scratch.take_idx();
            kernels::delta_encode_indices_into(&scratch.indices, &mut idx_delta);
            EncodedUpdate::SparseDelta {
                len: scratch.delta.len(),
                idx_delta,
                values,
            }
        }
    };
    debug_assert_eq!(enc.wire_bytes(), codec.encoded_bytes(params.len()));
    enc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize, seed: u64) -> ParamVec {
        ParamVec(
            (0..n)
                .map(|i| ((i as f32 + seed as f32) * 0.37).sin() * 2.5)
                .collect(),
        )
    }

    /// The weights a delta payload reconstructs against `base`.
    fn decode(enc: &EncodedUpdate, base: &ParamVec) -> ParamVec {
        let mut out = base.clone();
        enc.axpy_into(1.0, &mut out);
        out
    }

    /// What top-k ships without error feedback, built from the kernels:
    /// the `frac` largest coordinates of the plain delta.
    fn plain_topk(frac: f64, p: &ParamVec, base: &ParamVec) -> EncodedUpdate {
        let delta: Vec<f32> = p
            .as_slice()
            .iter()
            .zip(base.as_slice())
            .map(|(&a, &b)| a - b)
            .collect();
        let k = CodecSpec::top_k_of(frac, delta.len());
        let (mut order, mut indices, mut values) = (Vec::new(), Vec::new(), Vec::new());
        kernels::top_k_by_magnitude_into(&delta, k, &mut order, &mut indices, &mut values);
        let mut idx_delta = Vec::new();
        kernels::delta_encode_indices_into(&indices, &mut idx_delta);
        EncodedUpdate::SparseDelta {
            len: delta.len(),
            idx_delta,
            values,
        }
    }

    #[test]
    fn identity_bypasses_residuals() {
        let mut ef = ErrorFeedback::new();
        let mut scratch = EncodeScratch::new();
        let p = params(50, 1);
        let base = params(50, 2);
        let enc = ef.encode(CodecSpec::Identity, 0, &p, &base, &mut scratch);
        assert_eq!(enc, EncodedUpdate::Dense(p));
        assert_eq!(ef.residuals.len(), 0);
    }

    #[test]
    fn first_topk_encode_matches_uncompensated() {
        let mut ef = ErrorFeedback::new();
        let mut scratch = EncodeScratch::new();
        let p = params(200, 3);
        let base = params(200, 4);
        let spec = CodecSpec::TopK { frac: 0.1 };
        let enc = ef.encode(spec, 7, &p, &base, &mut scratch);
        assert_eq!(
            enc,
            plain_topk(0.1, &p, &base),
            "zero residual must be a no-op"
        );
        assert_eq!(ef.residuals.len(), 1);
    }

    #[test]
    fn topk_residual_flushes_dropped_coordinates_next_round() {
        // Round 1 drops most of the delta; round 2 must ship the part
        // that was dropped (compensated delta = residual when the new
        // delta is zero).
        let mut ef = ErrorFeedback::new();
        let mut scratch = EncodeScratch::new();
        let base = ParamVec::zeros(10);
        let p = ParamVec(vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1]);
        let spec = CodecSpec::TopK { frac: 0.2 };
        let enc1 = ef.encode(spec, 0, &p, &base, &mut scratch);
        let d1 = decode(&enc1, &base);
        // Only the two largest coordinates shipped.
        assert_eq!(d1.0[0], 5.0);
        assert_eq!(d1.0[1], 4.0);
        assert_eq!(d1.0[2], 0.0);
        // Client trains to the same point again: the residual must push
        // the previously-dropped coordinates to the top.
        let enc2 = ef.encode(spec, 0, &p, &base, &mut scratch);
        let d2 = decode(&enc2, &base);
        // Compensated delta is [5, 4, 6, 4, ...]: the dropped coord 2
        // (residual 3 + fresh delta 3 = 6) now outranks everything.
        assert_eq!(d2.0[2], 2.0 * 3.0, "residual 3.0 + fresh delta 3.0");
        assert_eq!(d2.0[0], 5.0);
        assert_eq!(
            d2.0[1], 0.0,
            "coord 1 loses its slot to the flushed coord 2"
        );
    }

    #[test]
    fn quantize_residual_is_bounded_by_one_step() {
        let mut ef = ErrorFeedback::new();
        let mut scratch = EncodeScratch::new();
        let base = ParamVec::zeros(300);
        let p = params(300, 5);
        for _ in 0..4 {
            let enc = ef.encode(CodecSpec::QuantizeI8, 3, &p, &base, &mut scratch);
            let EncodedUpdate::QuantI8 { scale, .. } = enc else {
                panic!("wrong payload");
            };
            // The stored residual never exceeds a quantization step, so
            // compensation cannot run away.
            let e = &ef.residuals[&3];
            for &r in e {
                assert!(r.abs() <= scale, "residual {r} exceeds step {scale}");
            }
            scratch.recycle(enc);
        }
    }

    #[test]
    fn residuals_are_per_client() {
        let mut ef = ErrorFeedback::new();
        let mut scratch = EncodeScratch::new();
        let base = ParamVec::zeros(40);
        let spec = CodecSpec::TopK { frac: 0.1 };
        let _ = ef.encode(spec, 0, &params(40, 6), &base, &mut scratch);
        // A fresh client's encode must match the uncompensated encode
        // even after another client accumulated a residual.
        let p = params(40, 7);
        let enc = ef.encode(spec, 1, &p, &base, &mut scratch);
        assert_eq!(enc, plain_topk(0.1, &p, &base));
        assert_eq!(ef.residuals.len(), 2);
        // A checkpoint's residuals install as they were saved.
        let saved = ef.residuals().clone();
        ef.install(BTreeMap::new());
        assert_eq!(ef.residuals.len(), 0);
        ef.install(saved.clone());
        assert_eq!(ef.residuals, saved);
    }

    #[test]
    fn a_lent_residual_encodes_as_the_stored_one() {
        // Two rounds through `encode`, and the same two rounds with the
        // residual lent out, encoded elsewhere and given back, must ship
        // identical payloads and leave identical residuals.
        for spec in [CodecSpec::QuantizeI8, CodecSpec::TopK { frac: 0.1 }] {
            let (mut stored, mut lent) = (ErrorFeedback::new(), ErrorFeedback::new());
            let (mut a, mut b) = (EncodeScratch::new(), EncodeScratch::new());
            let base = params(120, 8);
            for round in 0..2 {
                let p = params(120, 9 + round);
                let want = stored.encode(spec, 4, &p, &base, &mut a);
                let mut residual = lent.lend(4, p.len());
                let got = encode_compensated(spec, &mut residual, &p, &base, &mut b);
                lent.give_back(4, residual);
                assert_eq!(got, want, "{spec:?} round {round}");
                assert_eq!(lent.residuals, stored.residuals, "{spec:?} round {round}");
            }
        }
    }

    #[test]
    fn a_residual_still_out_is_lent_as_zeros() {
        let mut ef = ErrorFeedback::new();
        ef.give_back(2, vec![1.0; 8]);
        assert_eq!(ef.lend(2, 8), vec![1.0; 8]);
        // Never given back (its task died): the next loan starts clean.
        assert_eq!(ef.lend(2, 8), vec![0.0; 8]);
        assert_eq!(ef.lend(3, 8), vec![0.0; 8], "an unknown client");
        assert_eq!(ef.residuals.len(), 1);
    }
}
