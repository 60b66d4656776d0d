//! Property-based tests over the learning substrates: numeric stability of
//! the neural network under arbitrary data, and structural invariants of
//! the tree learners.

use proptest::prelude::*;
use wym::linalg::{Matrix, Rng64};
use wym::ml::tree::{Tree, TreeParams};
use wym::ml::{ClassifierKind, StandardScaler};
use wym::nn::{Activation, Loss, Mlp, MlpConfig, TrainConfig};

/// Strategy: a small random regression dataset.
fn dataset(max_rows: usize) -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    (2..max_rows).prop_flat_map(|n| {
        (
            prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 3), n),
            prop::collection::vec(-1.0f32..1.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Training an MLP on arbitrary bounded data never produces NaN or
    /// infinite weights, and predictions stay finite.
    #[test]
    fn mlp_training_is_numerically_stable((rows, targets) in dataset(24)) {
        let x = Matrix::from_row_vecs(rows.clone());
        let y = Matrix::from_vec(targets.len(), 1, targets.clone());
        let mut mlp = Mlp::new(&MlpConfig {
            layer_sizes: vec![3, 8, 1],
            hidden: Activation::Relu,
            output: Activation::Tanh,
            loss: Loss::Mse,
            seed: 1,
        });
        let report = wym::nn::train::fit(
            &mut mlp,
            &x,
            &y,
            &TrainConfig { epochs: 5, batch_size: 8, lr: 1e-2, ..TrainConfig::default() },
        );
        prop_assert!(report.final_loss.is_finite());
        for p in mlp.predict(&x) {
            prop_assert!(p.is_finite());
            prop_assert!((-1.0..=1.0).contains(&p), "tanh output out of range: {p}");
        }
        for layer in mlp.layers() {
            prop_assert!(!layer.w.has_non_finite());
        }
    }

    /// A regression tree's predictions never leave the range of its
    /// training targets.
    #[test]
    fn tree_predictions_bounded_by_targets((rows, targets) in dataset(24)) {
        let x = Matrix::from_row_vecs(rows);
        let idx: Vec<usize> = (0..targets.len()).collect();
        let tree = Tree::fit(&x, &targets, &idx, &TreeParams::default(), &mut Rng64::new(0));
        let lo = targets.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = targets.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for p in tree.predict(&x) {
            prop_assert!(p >= lo - 1e-5 && p <= hi + 1e-5, "{p} outside [{lo}, {hi}]");
        }
    }

    /// Every pool classifier's probabilities are valid on arbitrary data,
    /// even with degenerate (single-class or constant-feature) inputs.
    #[test]
    fn classifier_probabilities_always_valid(
        (rows, raw_targets) in dataset(16),
        all_same in any::<bool>(),
    ) {
        let x = Matrix::from_row_vecs(rows);
        let y: Vec<u8> = raw_targets
            .iter()
            .map(|&t| if all_same { 1 } else { u8::from(t > 0.0) })
            .collect();
        // A cheap, representative subset of the pool (the full pool is
        // covered by unit tests; proptest multiplies the cost by 24 cases).
        for kind in [
            ClassifierKind::LogisticRegression,
            ClassifierKind::NaiveBayes,
            ClassifierKind::DecisionTree,
            ClassifierKind::Knn,
        ] {
            let mut model = kind.build(0);
            model.fit(&x, &y);
            for p in model.predict_proba(&x) {
                prop_assert!(p.is_finite(), "{}: {p}", kind.short_name());
                prop_assert!((0.0..=1.0).contains(&p), "{}: {p}", kind.short_name());
            }
        }
    }

    /// The scaler transform is invertible information-wise: transformed
    /// data has finite values and applying the stored statistics recovers
    /// the original column means.
    #[test]
    fn scaler_is_stable_and_centered((rows, _) in dataset(20)) {
        let x = Matrix::from_row_vecs(rows);
        let (scaler, scaled) = StandardScaler::fit_transform(&x);
        prop_assert!(!scaled.has_non_finite());
        for m in scaled.col_mean() {
            prop_assert!(m.abs() < 1e-3, "column mean {m}");
        }
        // Reconstruct: x = scaled * σ + μ.
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let recon = scaled[(i, j)] * scaler.scales()[j] + scaler.means()[j];
                prop_assert!((recon - x[(i, j)]).abs() < 1e-3);
            }
        }
    }
}

/// FNV-1a over the bit patterns of every weight and bias, layer by layer.
fn weights_fnv(mlp: &Mlp) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for layer in mlp.layers() {
        for v in layer.w.as_slice().iter().chain(&layer.b) {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Trains the paper's 300-64-32 scorer on 600 seeded rows of 128 features
/// for 3 epochs at batch 256 (two full batches and an 88-row tail per
/// epoch) and returns `(final-loss bits, weights FNV)`.
fn pinned_training_run(loss: Loss) -> (u32, u64) {
    let mut rng = Rng64::new(2024);
    let x = Matrix::randn(600, 128, 1.0, &mut rng);
    let targets: Vec<f32> = x
        .iter_rows()
        .map(|r| match loss {
            Loss::Mse => (r[0] - 0.5 * r[1] + 0.25 * r[2]).tanh(),
            Loss::BceWithLogits => f32::from(r[0] + r[3] > 0.0),
        })
        .collect();
    let y = Matrix::from_vec(600, 1, targets);
    let mut config = MlpConfig::scorer(128, 17);
    if loss == Loss::BceWithLogits {
        config.output = Activation::Identity;
        config.loss = loss;
    }
    let mut mlp = Mlp::new(&config);
    let report = wym::nn::train::fit(
        &mut mlp,
        &x,
        &y,
        &TrainConfig { epochs: 3, batch_size: 256, seed: 5, ..TrainConfig::default() },
    );
    (report.final_loss.to_bits(), weights_fnv(&mlp))
}

/// The scorer's training trajectory is pinned to the bit: any change to the
/// GEMM kernels, the training step or the optimizer that alters a single
/// rounding moves the final loss or the weight hash. The constants were
/// recorded with the straightforward per-batch implementation and hold for
/// every `WYM_KERNEL` value.
#[test]
fn scorer_training_trajectory_is_pinned() {
    let (mse_loss, mse_fnv) = pinned_training_run(Loss::Mse);
    let (bce_loss, bce_fnv) = pinned_training_run(Loss::BceWithLogits);
    assert_eq!((mse_loss, mse_fnv), (0x3ebf_489b, 0x2b94_b63a_8e35_f1c8), "MSE trajectory moved");
    assert_eq!((bce_loss, bce_fnv), (0x3f22_b6f5, 0x974d_adb2_499c_ff55), "BCE trajectory moved");
}
