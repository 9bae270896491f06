//! Client-side local training (Algorithm 1, `TrainClient`), and the
//! encode of a lossy upload.

use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use tifl_comm::{encode_compensated, CodecSpec, EncodeScratch, EncodedUpdate};
use tifl_data::Dataset;
use tifl_nn::models::ModelSpec;
use tifl_nn::optim::{Optimizer, RmsProp, Sgd};
use tifl_nn::Sequential;
use tifl_tensor::{seed_rng, split_seed, ParamVec};

/// Serialisable optimiser choice (§5: RMSprop for the synthetic
/// datasets, SGD for LEAF/FEMNIST).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerSpec {
    /// Plain SGD.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// RMSprop (`rho = 0.9`).
    RmsProp {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimizerSpec {
    /// Instantiate with the learning rate scaled by `lr_factor`
    /// (per-round decay is applied by the session).
    #[must_use]
    pub fn build(&self, lr_factor: f32) -> Box<dyn Optimizer> {
        self.build_in(lr_factor, Vec::new())
    }

    /// [`OptimizerSpec::build`], its per-parameter state kept in
    /// `state`'s memory ([`RmsProp::with_state`]).
    fn build_in(&self, lr_factor: f32, state: Vec<f32>) -> Box<dyn Optimizer> {
        match *self {
            OptimizerSpec::Sgd { lr } => Box::new(Sgd::new(lr * lr_factor)),
            OptimizerSpec::RmsProp { lr } => Box::new(RmsProp::with_state(lr * lr_factor, state)),
        }
    }
}

/// Local-training hyper-parameters shared by all clients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Mini-batch size (paper: 10).
    pub batch_size: usize,
    /// Local epochs per round (paper: 1).
    pub local_epochs: usize,
    /// Optimiser (paper: RMSprop lr 0.01 / SGD lr 0.004 for LEAF).
    pub optimizer: OptimizerSpec,
    /// Multiplicative learning-rate decay applied once per global round
    /// (paper: 0.995).
    pub lr_round_decay: f32,
    /// FedProx proximal coefficient μ (Li et al., the heterogeneity
    /// baseline of §2): each mini-batch step additionally pulls the
    /// local weights toward the round's global weights with strength
    /// `μ‖w − w_global‖²/2`. Zero disables the term (plain FedAvg).
    #[serde(default)]
    pub proximal_mu: f32,
    /// Client-level differential privacy (§4.6): clip the local update
    /// and add Gaussian noise before reporting. `None` disables DP.
    #[serde(default)]
    pub dp: Option<DpNoiseConfig>,
}

/// Clip-and-noise parameters for client-level DP updates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpNoiseConfig {
    /// L2 clipping bound on the update `w_local − w_global`.
    pub clip: f32,
    /// Noise multiplier z: Gaussian noise with σ = z · clip is added to
    /// every coordinate of the (clipped) update.
    pub noise_multiplier: f32,
}

impl ClientConfig {
    /// The paper's synthetic-dataset configuration (§5.1): RMSprop,
    /// lr 0.01, decay 0.995, batch 10, 1 local epoch.
    #[must_use]
    pub fn paper_synthetic() -> Self {
        Self {
            batch_size: 10,
            local_epochs: 1,
            optimizer: OptimizerSpec::RmsProp { lr: 0.01 },
            lr_round_decay: 0.995,
            proximal_mu: 0.0,
            dp: None,
        }
    }

    /// The LEAF default (§5.1): SGD, lr 0.004, batch 10.
    #[must_use]
    pub fn paper_leaf() -> Self {
        Self {
            batch_size: 10,
            local_epochs: 1,
            optimizer: OptimizerSpec::Sgd { lr: 0.004 },
            lr_round_decay: 1.0,
            proximal_mu: 0.0,
            dp: None,
        }
    }
}

/// A worker thread's model and optimiser state, kept between the client
/// tasks it runs ([`local_train`]).
struct Resident {
    spec: ModelSpec,
    model: Sequential,
    optimizer_state: Vec<f32>,
}

thread_local! {
    /// This thread's [`Resident`] slot: empty until its first client
    /// task, and while a task holds it.
    static RESIDENT: Cell<Option<Resident>> = const { Cell::new(None) };
}

/// Train the global model on one client's local data for one round.
///
/// * loads the `global` weights into a model of `spec`;
/// * runs `local_epochs` epochs of mini-batch SGD/RMSprop over a
///   shuffled copy of the local training set, the optimiser's state
///   starting at zero;
/// * returns the updated weights.
///
/// The model and the optimiser's state buffer stay on the thread
/// between calls, in one slot keyed by `spec`: a call whose `spec`
/// matches the slot's loads the weights with `set_params` and reuses
/// the state buffer's memory, so a warm task builds neither and its
/// only model-sized allocation is the weights it returns. The result
/// is the same bit for bit: a built model is zeros overwritten by
/// `set_params`, every step overwrites both gradient buffers and
/// consumes its own forward pass's activations, and the reused state
/// starts at zero. The slot is taken, not borrowed, for the call: a
/// call that panics loses only the slot, and the thread's next call
/// builds a new one.
///
/// Deterministic in `(seed, client, round)`: the shuffle RNG is derived
/// from all three, so parallel execution across clients cannot change
/// results.
#[must_use]
pub fn local_train(
    spec: &ModelSpec,
    global: &ParamVec,
    data: &Dataset,
    config: &ClientConfig,
    round: u64,
    client: usize,
    seed: u64,
) -> ParamVec {
    assert!(!data.is_empty(), "client {client} has no training data");
    let (mut model, optimizer_state) = match RESIDENT.take() {
        Some(Resident {
            spec: kept,
            mut model,
            optimizer_state,
        }) if kept == *spec => {
            model.set_params(global);
            (model, optimizer_state)
        }
        _ => (spec.build_with_params(global), Vec::new()),
    };

    let lr_factor = config.lr_round_decay.powi(round as i32);
    let mut opt = config.optimizer.build_in(lr_factor, optimizer_state);

    let mut shuffle_rng = seed_rng(split_seed(seed, split_seed(client as u64, round)));
    let mut indices: Vec<usize> = (0..data.len()).collect();

    // Hoisted FedProx scratch: the proximal pull runs once per
    // mini-batch, so per-batch `ParamVec` allocations here dominate the
    // training hot path. Both buffers grow once and are reused.
    let mut prox_params = ParamVec::default();
    let mut prox_pull = ParamVec::default();

    for _ in 0..config.local_epochs {
        indices.shuffle(&mut shuffle_rng);
        for batch in indices.chunks(config.batch_size.max(1)) {
            let x = data.x.gather_rows(batch);
            let y: Vec<usize> = batch.iter().map(|&i| data.y[i]).collect();
            let _ = model.train_batch(x, &y, opt.as_mut());
            if config.proximal_mu > 0.0 {
                // FedProx: gradient of μ‖w − w_global‖²/2 is
                // μ(w − w_global); apply it as an extra SGD step at the
                // optimiser's current learning rate.
                model.params_into(&mut prox_params);
                let step = opt.learning_rate() * config.proximal_mu;
                prox_pull.0.clear();
                prox_pull.0.extend_from_slice(prox_params.as_slice());
                prox_pull.axpy(-1.0, global);
                prox_params.axpy(-step, &prox_pull);
                model.set_params(&prox_params);
            }
        }
    }

    let mut params = model.params();
    RESIDENT.set(Some(Resident {
        spec: *spec,
        model,
        optimizer_state: opt.take_state(),
    }));
    if let Some(dp) = config.dp {
        apply_dp_noise(
            &mut params,
            global,
            dp,
            split_seed(seed, split_seed(client as u64, round ^ 0xD9)),
        );
    }
    params
}

/// Clip the update `params − global` to L2 norm `dp.clip` and add
/// per-coordinate Gaussian noise with σ = `clip · noise_multiplier`
/// (the Abadi et al. mechanism each client runs locally, §4.6).
fn apply_dp_noise(params: &mut ParamVec, global: &ParamVec, dp: DpNoiseConfig, seed: u64) {
    assert!(dp.clip > 0.0, "DP clip bound must be positive");
    assert!(dp.noise_multiplier >= 0.0, "noise multiplier must be >= 0");
    // Turn `params` into the delta in place; the clipped/noised delta is
    // re-based onto `global` at the end. Same per-element operation order
    // as the old buffer-copy formulation, so results are bit-identical.
    params.axpy(-1.0, global);
    let delta = params;
    let norm = delta
        .as_slice()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt();
    if norm > f64::from(dp.clip) {
        delta.scale((f64::from(dp.clip) / norm) as f32);
    }
    if dp.noise_multiplier > 0.0 {
        use rand_distr::{Distribution, Normal};
        let sigma = dp.clip * dp.noise_multiplier;
        let normal = Normal::new(0.0f32, sigma).expect("valid normal");
        let mut rng = seed_rng(seed);
        for v in &mut delta.0 {
            *v += normal.sample(&mut rng);
        }
    }
    // delta + 1.0 * global is exact in the multiply, so this matches the
    // old `global + 1.0 * delta` bit for bit (f32 addition commutes).
    delta.axpy(1.0, global);
}

/// Train one client of a federated dataset and package the result as a
/// [`ClientUpdate`] (weights + the training-set size FedAvg weights
/// by). The one canonical construction every executor task goes
/// through — thread-count invariance rests on there being exactly one
/// of these. Training reads the client's
/// [`Rows`](tifl_data::federated::Rows), so the task's thread builds
/// them if no one has yet; the sample count comes from the label plan.
///
/// [`ClientUpdate`]: crate::aggregator::ClientUpdate
#[must_use]
pub fn train_update(
    spec: &ModelSpec,
    global: &ParamVec,
    data: &tifl_data::FederatedDataset,
    config: &ClientConfig,
    round: u64,
    client: usize,
    seed: u64,
) -> crate::aggregator::ClientUpdate {
    crate::aggregator::ClientUpdate {
        client,
        params: local_train(
            spec,
            global,
            &data.clients[client].train,
            config,
            round,
            client,
            seed,
        ),
        samples: data.clients[client].train.len(),
    }
}

thread_local! {
    /// The encode workspace of [`encode_upload`], kept per thread so a
    /// worker's steady-state encode allocates only the payload it ships.
    static ENCODE_SCRATCH: Cell<EncodeScratch> = Cell::new(EncodeScratch::new());
}

/// Encode a client's trained `params` for upload against `base`, the
/// global model it trained from, compensated by its error-feedback
/// `residual` ([`encode_compensated`]) — the client-side half of a
/// lossy round. Runs on this thread's encode workspace: once warm it
/// allocates only the payload's own buffers, which leave with it.
///
/// # Panics
/// As [`encode_compensated`].
#[must_use]
pub fn encode_upload(
    codec: CodecSpec,
    params: &ParamVec,
    base: &ParamVec,
    residual: &mut Vec<f32>,
) -> EncodedUpdate {
    // Taken, not borrowed: a panic mid-encode loses only this
    // workspace, and the next encode on this thread grows a new one.
    let mut scratch = ENCODE_SCRATCH.take();
    let payload = encode_compensated(codec, residual, params, base, &mut scratch);
    ENCODE_SCRATCH.set(scratch);
    payload
}

/// Build a model for evaluation with the given global weights.
#[must_use]
pub fn eval_model(spec: &ModelSpec, global: &ParamVec) -> Sequential {
    spec.build_with_params(global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_data::synth::{Generator, SynthFamily, SynthSpec};

    fn setup() -> (ModelSpec, ParamVec, Dataset) {
        let spec = ModelSpec::Mlp {
            input: 64,
            hidden: 32,
            classes: 10,
        };
        let global = spec.build(1).params();
        let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), 0);
        let data = gen.generate_uniform(60, 0);
        (spec, global, data)
    }

    #[test]
    fn local_train_changes_weights() {
        let (spec, global, data) = setup();
        let cfg = ClientConfig::paper_synthetic();
        let updated = local_train(&spec, &global, &data, &cfg, 0, 0, 42);
        assert_eq!(updated.len(), global.len());
        assert!(updated.l2_distance(&global) > 1e-4);
    }

    #[test]
    fn local_train_is_deterministic() {
        let (spec, global, data) = setup();
        let cfg = ClientConfig::paper_synthetic();
        let a = local_train(&spec, &global, &data, &cfg, 3, 7, 42);
        let b = local_train(&spec, &global, &data, &cfg, 3, 7, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_rounds_shuffle_differently() {
        let (spec, global, data) = setup();
        let cfg = ClientConfig::paper_synthetic();
        let a = local_train(&spec, &global, &data, &cfg, 0, 7, 42);
        let b = local_train(&spec, &global, &data, &cfg, 1, 7, 42);
        assert_ne!(a, b);
    }

    #[test]
    fn local_train_reduces_local_loss() {
        let (spec, global, data) = setup();
        let cfg = ClientConfig {
            local_epochs: 5,
            ..ClientConfig::paper_synthetic()
        };
        let mut before = eval_model(&spec, &global);
        let loss_before = before.evaluate(&data.x, &data.y).loss;
        let updated = local_train(&spec, &global, &data, &cfg, 0, 0, 42);
        let mut after = eval_model(&spec, &updated);
        let loss_after = after.evaluate(&data.x, &data.y).loss;
        assert!(
            loss_after < loss_before,
            "local training did not reduce loss: {loss_before} -> {loss_after}"
        );
    }

    #[test]
    fn lr_decay_shrinks_updates() {
        let (spec, global, data) = setup();
        let mut cfg = ClientConfig::paper_synthetic();
        cfg.optimizer = OptimizerSpec::Sgd { lr: 0.1 };
        cfg.lr_round_decay = 0.5;
        // Same shuffle stream (same round index would be needed), so
        // compare magnitudes over many rounds of decay instead.
        let early = local_train(&spec, &global, &data, &cfg, 0, 0, 42);
        let late = local_train(&spec, &global, &data, &cfg, 20, 0, 42);
        let d_early = early.l2_distance(&global);
        let d_late = late.l2_distance(&global);
        assert!(
            d_late < d_early * 0.1,
            "decay not applied: early {d_early}, late {d_late}"
        );
    }

    #[test]
    fn proximal_term_pulls_toward_global() {
        let (spec, global, data) = setup();
        let plain = ClientConfig::paper_synthetic();
        let prox = ClientConfig {
            proximal_mu: 5.0,
            ..plain
        };
        let w_plain = local_train(&spec, &global, &data, &plain, 0, 0, 42);
        let w_prox = local_train(&spec, &global, &data, &prox, 0, 0, 42);
        assert!(
            w_prox.l2_distance(&global) < w_plain.l2_distance(&global),
            "proximal update ({}) should stay closer to global than plain ({})",
            w_prox.l2_distance(&global),
            w_plain.l2_distance(&global)
        );
    }

    #[test]
    fn proximal_zero_is_plain_fedavg() {
        let (spec, global, data) = setup();
        let plain = ClientConfig::paper_synthetic();
        let prox0 = ClientConfig {
            proximal_mu: 0.0,
            ..plain
        };
        assert_eq!(
            local_train(&spec, &global, &data, &plain, 0, 0, 42),
            local_train(&spec, &global, &data, &prox0, 0, 0, 42)
        );
    }

    #[test]
    fn dp_clipping_bounds_update_norm() {
        let (spec, global, data) = setup();
        let clip = 0.05f32;
        let cfg = ClientConfig {
            dp: Some(DpNoiseConfig {
                clip,
                noise_multiplier: 0.0,
            }),
            ..ClientConfig::paper_synthetic()
        };
        let w = local_train(&spec, &global, &data, &cfg, 0, 0, 42);
        let norm = w.l2_distance(&global);
        assert!(
            norm <= clip * 1.001,
            "update norm {norm} exceeds clip {clip}"
        );
    }

    #[test]
    fn dp_noise_perturbs_updates_deterministically() {
        let (spec, global, data) = setup();
        let noiseless = ClientConfig {
            dp: Some(DpNoiseConfig {
                clip: 1.0,
                noise_multiplier: 0.0,
            }),
            ..ClientConfig::paper_synthetic()
        };
        let noisy = ClientConfig {
            dp: Some(DpNoiseConfig {
                clip: 1.0,
                noise_multiplier: 0.5,
            }),
            ..ClientConfig::paper_synthetic()
        };
        let a = local_train(&spec, &global, &data, &noisy, 0, 0, 42);
        let b = local_train(&spec, &global, &data, &noisy, 0, 0, 42);
        assert_eq!(a, b, "DP noise must be seed-deterministic");
        let clean = local_train(&spec, &global, &data, &noiseless, 0, 0, 42);
        assert_ne!(a, clean, "noise multiplier should perturb the update");
    }

    #[test]
    fn dp_small_updates_pass_unclipped() {
        // With a huge clip bound and zero noise, DP is a no-op.
        let (spec, global, data) = setup();
        let plain = ClientConfig::paper_synthetic();
        let dp = ClientConfig {
            dp: Some(DpNoiseConfig {
                clip: 1e9,
                noise_multiplier: 0.0,
            }),
            ..plain
        };
        let a = local_train(&spec, &global, &data, &plain, 0, 0, 42);
        let b = local_train(&spec, &global, &data, &dp, 0, 0, 42);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn optimizer_spec_builds_expected_lr() {
        let s = OptimizerSpec::RmsProp { lr: 0.01 };
        let opt = s.build(0.5);
        assert!((opt.learning_rate() - 0.005).abs() < 1e-9);
    }
}
