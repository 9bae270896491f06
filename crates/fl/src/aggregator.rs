//! FedAvg aggregation (Algorithm 1, line 8).

use tifl_comm::EncodedUpdate;
use tifl_tensor::ParamVec;

/// One client's contribution to a round: updated weights plus the local
/// training-set size used as the aggregation weight (`s_c` in Alg. 1).
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Client id (diagnostics only; not used in the average).
    pub client: usize,
    /// Updated local weights `w^c_{r+1}`.
    pub params: ParamVec,
    /// Local training-set size `s_c`.
    pub samples: usize,
}

/// FedAvg: `w_{r+1} = Σ_c w^c * s_c / Σ_c s_c`.
///
/// # Panics
/// Panics if `updates` is empty or all sample counts are zero.
#[must_use]
pub fn aggregate_fedavg(updates: &[ClientUpdate]) -> ParamVec {
    assert!(!updates.is_empty(), "aggregate_fedavg with no updates");
    let refs: Vec<(&ParamVec, f32)> = updates
        .iter()
        .map(|u| (&u.params, u.samples as f32))
        .collect();
    ParamVec::weighted_mean_ref(&refs)
}

/// Streaming FedAvg: folds client updates into a running weighted sum
/// one at a time, holding only O(model) state instead of buffering
/// every update of the round (O(|selected| × model)).
///
/// Bit-for-bit equivalence with the batch path is guaranteed *when the
/// updates are folded in the same order* `aggregate_fedavg` would see
/// them: [`ParamVec::weighted_mean_ref`] first sums the total weight in
/// item order (as `f64` over the `f32` weights), then accumulates
/// `out += (w_i / total) as f32 · v_i` per item. This type performs the
/// identical sequence of float operations — the total weight is
/// supplied up front (it is known from the round plan before any
/// training finishes), each [`StreamingFold::fold`] is one `axpy` with
/// the same coefficient, and floating-point addition at every
/// coordinate happens in the same order. A caller that receives
/// updates out of order must re-order them before folding (the round
/// loop's ordered merge does).
#[derive(Debug)]
pub struct StreamingFold {
    acc: ParamVec,
    total: f64,
    expected: usize,
    folded: usize,
    /// Accumulated coefficients of delta-encoded folds (TopK payloads):
    /// each such update contributes `coeff * (base + delta)`, and the
    /// `coeff * base` parts are deferred into one axpy at
    /// [`StreamingFold::finish_against`] instead of one dense pass per
    /// client.
    base_coeff: f32,
}

impl StreamingFold {
    /// Prepare a fold of `weights.len()` updates over models of
    /// `param_len` parameters. `weights` must be the aggregation weights
    /// (`s_c` as `f32`) in the canonical fold order; the total is summed
    /// exactly as the batch path sums it.
    ///
    /// # Panics
    /// Panics if updates are expected but all weights are zero
    /// (mirroring `weighted_mean`'s "zero total weight").
    #[must_use]
    pub fn new(param_len: usize, weights: &[f32]) -> Self {
        Self::with_acc(ParamVec::zeros(param_len), weights)
    }

    /// As [`StreamingFold::new`], accumulating into a caller-supplied
    /// buffer (zeroed here) instead of a fresh allocation — the
    /// allocation-free form fed from `EncodeScratch::take_zeroed` /
    /// recycled global models on the per-round hot path.
    ///
    /// # Panics
    /// Panics if updates are expected but all weights are zero
    /// (mirroring `weighted_mean`'s "zero total weight").
    #[must_use]
    pub fn with_acc(mut acc: ParamVec, weights: &[f32]) -> Self {
        let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
        assert!(
            weights.is_empty() || total > 0.0,
            "weighted_mean with zero total weight"
        );
        acc.0.fill(0.0);
        Self {
            acc,
            total,
            expected: weights.len(),
            folded: 0,
            base_coeff: 0.0,
        }
    }

    /// Fold the next update (callers supply them in the order the
    /// weights were given to [`StreamingFold::new`]).
    ///
    /// # Panics
    /// Panics past the expected count or on a length mismatch.
    pub fn fold(&mut self, update: &ClientUpdate) {
        assert!(self.folded < self.expected, "fold past the expected count");
        assert_eq!(
            update.params.len(),
            self.acc.len(),
            "weighted_mean length mismatch"
        );
        let coeff = (f64::from(update.samples as f32) / self.total) as f32;
        self.acc.axpy(coeff, &update.params);
        self.folded += 1;
    }

    /// Fold the next update from its encoded wire form, without
    /// materialising a dense decoded vector: dense payloads axpy
    /// directly (bit-for-bit the [`StreamingFold::fold`] sequence for
    /// the Identity codec), quantized payloads dequantize inside the
    /// axpy loop, and sparse-delta payloads touch only their kept
    /// coordinates while their base contribution is deferred to
    /// [`StreamingFold::finish_against`].
    ///
    /// `samples` is the update's aggregation weight (`s_c`), exactly as
    /// [`ClientUpdate::samples`] feeds [`StreamingFold::fold`].
    ///
    /// # Panics
    /// Panics past the expected count or on a length mismatch.
    pub fn fold_encoded(&mut self, update: &EncodedUpdate, samples: usize) {
        assert!(self.folded < self.expected, "fold past the expected count");
        assert_eq!(
            update.param_len(),
            self.acc.len(),
            "weighted_mean length mismatch"
        );
        let coeff = (f64::from(samples as f32) / self.total) as f32;
        update.axpy_into(coeff, &mut self.acc);
        if update.is_delta() {
            self.base_coeff += coeff;
        }
        self.folded += 1;
    }

    /// The aggregated model, or `None` when the fold expected no updates
    /// (an all-dropout round leaves the global model untouched).
    ///
    /// # Panics
    /// Panics if updates are still outstanding, or if any folded update
    /// was delta-encoded (those need [`StreamingFold::finish_against`]).
    #[must_use]
    pub fn finish(self) -> Option<ParamVec> {
        assert_eq!(
            self.base_coeff, 0.0,
            "delta-encoded folds need finish_against(base)"
        );
        assert_eq!(
            self.folded, self.expected,
            "finish with updates outstanding"
        );
        (self.expected > 0).then_some(self.acc)
    }

    /// As [`StreamingFold::finish`], resolving any deferred delta bases
    /// against `base` (the global model the deltas were encoded
    /// against) in a single axpy. With no delta-encoded folds this is
    /// bit-for-bit [`StreamingFold::finish`].
    ///
    /// # Panics
    /// Panics if updates are still outstanding or on a length mismatch.
    #[must_use]
    pub fn finish_against(mut self, base: &ParamVec) -> Option<ParamVec> {
        assert_eq!(
            self.folded, self.expected,
            "finish with updates outstanding"
        );
        if self.base_coeff != 0.0 {
            self.acc.axpy(self.base_coeff, base);
        }
        (self.expected > 0).then_some(self.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, vals: Vec<f32>, samples: usize) -> ClientUpdate {
        ClientUpdate {
            client,
            params: ParamVec(vals),
            samples,
        }
    }

    /// `u`'s first upload under `spec` (a zero error-feedback residual).
    fn encode(spec: tifl_comm::CodecSpec, u: &ClientUpdate, base: &ParamVec) -> EncodedUpdate {
        let mut residual = vec![0.0; u.params.len()];
        let mut scratch = tifl_comm::EncodeScratch::new();
        tifl_comm::encode_compensated(spec, &mut residual, &u.params, base, &mut scratch)
    }

    #[test]
    fn fedavg_weights_by_sample_count() {
        let g = aggregate_fedavg(&[upd(0, vec![0.0], 100), upd(1, vec![10.0], 300)]);
        assert!((g.0[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn fedavg_identity_for_single_client() {
        let g = aggregate_fedavg(&[upd(0, vec![1.0, 2.0], 42)]);
        assert_eq!(g.0, vec![1.0, 2.0]);
    }

    #[test]
    fn fedavg_equal_updates_is_fixed_point() {
        let w = vec![0.5, -1.5, 3.0];
        let g = aggregate_fedavg(&[
            upd(0, w.clone(), 10),
            upd(1, w.clone(), 500),
            upd(2, w.clone(), 3),
        ]);
        for (a, b) in g.0.iter().zip(&w) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "no updates")]
    fn fedavg_rejects_empty() {
        let _ = aggregate_fedavg(&[]);
    }

    #[test]
    fn streaming_fold_is_bitwise_equal_to_batch() {
        // The round loop's contract: folding updates one at a
        // time in canonical order reproduces aggregate_fedavg exactly —
        // not approximately.
        let updates: Vec<ClientUpdate> = (0..7)
            .map(|i| {
                let vals: Vec<f32> = (0..13)
                    .map(|j| ((i * 31 + j * 7) as f32).sin() * 3.7)
                    .collect();
                upd(i, vals, 10 + i * 17)
            })
            .collect();
        let batch = aggregate_fedavg(&updates);
        let weights: Vec<f32> = updates.iter().map(|u| u.samples as f32).collect();
        let mut fold = StreamingFold::new(13, &weights);
        for u in &updates {
            fold.fold(u);
        }
        let streamed = fold.finish().expect("non-empty fold");
        assert_eq!(streamed, batch, "must match bit for bit");
    }

    #[test]
    fn encoded_identity_fold_is_bitwise_equal_to_plain_fold() {
        let updates: Vec<ClientUpdate> = (0..5)
            .map(|i| {
                let vals: Vec<f32> = (0..9).map(|j| ((i * 13 + j * 3) as f32).cos()).collect();
                upd(i, vals, 20 + i * 7)
            })
            .collect();
        let weights: Vec<f32> = updates.iter().map(|u| u.samples as f32).collect();
        let base = ParamVec(vec![0.5; 9]);

        let mut plain = StreamingFold::new(9, &weights);
        let mut encoded = StreamingFold::new(9, &weights);
        for u in &updates {
            plain.fold(u);
            encoded.fold_encoded(&EncodedUpdate::Dense(u.params.clone()), u.samples);
        }
        let a = plain.finish().expect("non-empty");
        let b = encoded.finish_against(&base).expect("non-empty");
        assert_eq!(a, b, "identity encoded fold must match bit for bit");
    }

    #[test]
    fn sparse_delta_fold_defers_one_base_axpy() {
        use tifl_comm::CodecSpec;
        // Folding top-k(1.0) deltas (lossless sparsification) must equal
        // decoding each update densely and folding: both are
        // Σ coeff_i (base + delta_i) with the base applied once.
        let base = ParamVec((0..16).map(|j| (j as f32 * 0.21).sin()).collect());
        let updates: Vec<ClientUpdate> = (0..4)
            .map(|i| {
                let vals: Vec<f32> = base
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(j, &b)| b + ((i * 7 + j) as f32 * 0.1).cos() * 0.3)
                    .collect();
                upd(i, vals, 10 + i)
            })
            .collect();
        let weights: Vec<f32> = updates.iter().map(|u| u.samples as f32).collect();
        let spec = CodecSpec::TopK { frac: 1.0 };

        let mut fold = StreamingFold::new(16, &weights);
        for u in &updates {
            fold.fold_encoded(&encode(spec, u, &base), u.samples);
        }
        let streamed = fold.finish_against(&base).expect("non-empty");

        // Reference: dense decode then batch mean.
        let decoded: Vec<ClientUpdate> = updates
            .iter()
            .map(|u| {
                let mut params = base.clone();
                encode(spec, u, &base).axpy_into(1.0, &mut params);
                ClientUpdate {
                    client: u.client,
                    params,
                    samples: u.samples,
                }
            })
            .collect();
        let batch = aggregate_fedavg(&decoded);
        for (a, b) in streamed.as_slice().iter().zip(batch.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "finish_against")]
    fn plain_finish_rejects_delta_folds() {
        use tifl_comm::CodecSpec;
        let base = ParamVec(vec![1.0; 4]);
        let u = upd(0, vec![2.0, 1.0, 1.0, 1.0], 5);
        let mut fold = StreamingFold::new(4, &[5.0]);
        fold.fold_encoded(&encode(CodecSpec::TopK { frac: 0.5 }, &u, &base), 5);
        let _ = fold.finish();
    }

    #[test]
    fn streaming_fold_empty_leaves_global_untouched() {
        let fold = StreamingFold::new(4, &[]);
        assert_eq!(fold.finish(), None);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn streaming_fold_rejects_zero_weights() {
        let _ = StreamingFold::new(4, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "updates outstanding")]
    fn streaming_fold_rejects_early_finish() {
        let fold = StreamingFold::new(1, &[1.0]);
        let _ = fold.finish();
    }
}
