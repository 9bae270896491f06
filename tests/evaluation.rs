//! Evaluation as inference, held to the path it replaced.
//!
//! Adaptive selection scores every tier on its clients' holdouts
//! (Algorithm 2's `TestData_t`). `Session::evaluate_groups` scores all
//! tiers in one chunked pass over a shared inference model at the
//! ambient thread count; the path before it concatenated each tier's
//! holdouts and ran them through `Sequential::evaluate`, one tier at a
//! time. That path is written out here as the reference, and the pass
//! must equal it bit for bit at 1, 2 and 4 threads: on random groupings
//! with an empty group, a one-client group, uneven holdout sizes and a
//! group several chunks long, and with non-finite weights whose effect
//! `matmul`'s skip of zero activations decides. The gradient-free loss
//! `evaluate` runs on is held to `softmax_cross_entropy`'s.

use proptest::prelude::*;
use tifl::nn::metrics;
use tifl::nn::{softmax_cross_entropy, softmax_cross_entropy_loss};
use tifl::prelude::*;
use tifl::sim::resource::profiles;
use tifl::tensor::Matrix;

const CLIENTS: usize = 20;

const INPUT: usize = 64;
const HIDDEN: usize = 24;
const CLASSES: usize = 10;
const MODEL: ModelSpec = ModelSpec::Mlp {
    input: INPUT,
    hidden: HIDDEN,
    classes: CLASSES,
};

/// A session over `holdouts.len()` clients, 30 training samples each
/// and `holdouts[c]` holdout rows for client `c`, trained for three
/// rounds so that its model predicts something.
fn trained_session(holdouts: &[usize], seed: u64) -> Session {
    let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), seed);
    let labels = |c: usize, n: usize| -> Vec<usize> { (0..n).map(|i| (c + i * i) % 10).collect() };
    let train: Vec<Vec<usize>> = (0..holdouts.len()).map(|c| labels(c, 30)).collect();
    let test: Vec<Vec<usize>> = holdouts
        .iter()
        .enumerate()
        .map(|(c, &n)| labels(c + 1, n))
        .collect();
    let data = FederatedDataset::from_labels(&gen, &train, &test, 2, seed);
    let cluster = Cluster::new(&ClusterConfig::equal_groups(
        holdouts.len(),
        &profiles::MNIST,
        seed,
    ));
    let config = SessionConfig {
        model: MODEL,
        client: ClientConfig::paper_synthetic(),
        clients_per_round: 4,
        rounds: 3,
        eval_every: 3,
        tmax_sec: 1e9,
        aggregation: AggregationMode::WaitAll,
        comm: None,
        seed,
    };
    let mut session = Session::new(data, cluster, config);
    let _ = session.run_rounds(&mut RandomSelector::new(holdouts.len(), seed), 3, 1);
    session
}

/// The clients' holdouts, concatenated in order.
fn concatenated(session: &Session, clients: &[usize]) -> (Matrix, Vec<usize>) {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for &c in clients {
        let test = &session.data().clients[c].test;
        x.extend_from_slice(test.x.as_slice());
        y.extend_from_slice(&test.y);
    }
    (Matrix::from_vec(y.len(), INPUT, x), y)
}

/// The path `evaluate_groups` replaced: per group, its clients'
/// holdouts concatenated, then one `Sequential::evaluate` on a model
/// built for it; an empty group scores 0.
fn reference(session: &Session, groups: &[Vec<usize>]) -> Vec<f64> {
    groups
        .iter()
        .map(|clients| {
            if clients.is_empty() {
                return 0.0;
            }
            let (x, y) = concatenated(session, clients);
            let mut model = MODEL.build_with_params(session.global_params());
            let accuracy = model.evaluate(&x, &y).accuracy;
            // `evaluate` is itself the training forward pass's accuracy.
            let forward = metrics::accuracy(&model.forward(x, false), &y);
            assert_eq!(accuracy.to_bits(), forward.to_bits());
            accuracy
        })
        .collect()
}

fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn bits(accuracies: &[f64]) -> Vec<u64> {
    accuracies.iter().map(|a| a.to_bits()).collect()
}

/// `evaluate_groups` equals the reference at 1, 2 and 4 threads.
fn assert_matches_reference(session: &Session, groups: &[Vec<usize>]) {
    let want = reference(session, groups);
    for threads in [1, 2, 4] {
        let got = at_threads(threads, || session.evaluate_groups(groups));
        assert_eq!(
            bits(&got),
            bits(&want),
            "{threads} threads: {got:?} vs {want:?}"
        );
    }
}

proptest! {
    #[test]
    fn grouped_pass_equals_the_per_group_reference(
        seed in 0u64..1_000,
        holdouts in prop::collection::vec(0usize..80, CLIENTS),
        tiers in prop::collection::vec(0usize..3, CLIENTS),
        single in 0usize..CLIENTS,
    ) {
        // The all-client group below then spans at least two chunks of
        // the pass, whatever their size up to 300 rows.
        prop_assume!(holdouts.iter().sum::<usize>() >= 600);
        let session = trained_session(&holdouts, seed);
        let mut groups: Vec<Vec<usize>> = (0..3)
            .map(|t| (0..CLIENTS).filter(|&c| tiers[c] == t).collect())
            .collect();
        groups.push(Vec::new());
        groups.push(vec![single]);
        groups.push((0..CLIENTS).rev().collect());
        assert_matches_reference(&session, &groups);
    }
}

#[test]
fn non_finite_weights_score_as_the_reference_does() {
    let holdouts: Vec<usize> = (0..CLIENTS).map(|c| 20 + c * 37 % 50).collect();
    let mut session = trained_session(&holdouts, 7);
    // Three hidden units get a non-finite output weight. A row where
    // none of them fired keeps finite logits only because `matmul`
    // skips the zero activation instead of multiplying it through.
    let w2 = INPUT * HIDDEN + HIDDEN;
    let mut params = session.global_params().clone();
    params.0[w2 + 3] = f32::INFINITY;
    params.0[w2 + CLASSES + 5] = f32::NEG_INFINITY;
    params.0[w2 + 2 * CLASSES + 8] = f32::NAN;
    session.set_global_params(params);

    let every: Vec<usize> = (0..CLIENTS).collect();
    let (x, _) = concatenated(&session, &every);
    let logits = MODEL.build_with_params(session.global_params()).infer(&x);
    let finite = (0..logits.rows())
        .filter(|&r| logits.row(r).iter().all(|v| v.is_finite()))
        .count();
    assert!(
        finite > 0 && finite < logits.rows(),
        "{finite} of {} rows have finite logits: the skip decides nothing",
        logits.rows()
    );

    let groups = vec![
        every.iter().copied().filter(|c| c % 2 == 0).collect(),
        vec![3],
        Vec::new(),
        every,
    ];
    assert_matches_reference(&session, &groups);
}

proptest! {
    #[test]
    fn loss_without_gradient_is_the_training_loss_bitwise(
        rows in 1usize..9,
        classes in 1usize..13,
        grid in prop::collection::vec(-40i32..40, 8 * 12),
        scales in prop::collection::vec(0usize..6, 8),
        labels in prop::collection::vec(0usize..12, 8),
    ) {
        // Logits on an integer grid, so rows hold ties, each row scaled
        // on its own, up to magnitudes near 1e31.
        let scale = |r: usize| [1e-3f32, 1.0, 1e3, 1e9, 1e15, 1e30][scales[r]];
        let logits = Matrix::from_fn(rows, classes, |r, c| grid[r * classes + c] as f32 * scale(r));
        let labels: Vec<usize> = labels[..rows].iter().map(|l| l % classes).collect();
        prop_assert_eq!(
            softmax_cross_entropy_loss(&logits, &labels).to_bits(),
            softmax_cross_entropy(&logits, &labels).0.to_bits()
        );
    }
}

#[test]
fn loss_without_gradient_matches_on_single_rows_ties_and_extremes() {
    let rows: [&[f32]; 5] = [
        &[0.0],
        &[2.5; 6],
        &[1e30, 1e30, -1e30],
        &[f32::MAX, -f32::MAX, 0.0],
        &[-3.0, 7.0, 7.0, -1e-30],
    ];
    for row in rows {
        for label in 0..row.len() {
            let logits = Matrix::from_vec(1, row.len(), row.to_vec());
            assert_eq!(
                softmax_cross_entropy_loss(&logits, &[label]).to_bits(),
                softmax_cross_entropy(&logits, &[label]).0.to_bits(),
                "{row:?}, label {label}"
            );
        }
    }
}
