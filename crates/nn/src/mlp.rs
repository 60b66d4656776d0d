//! Multi-layer perceptron with manual backpropagation.

use crate::activation::{sigmoid, Activation};
use crate::layer::{Dense, DenseGrad};
use serde::{Deserialize, Serialize};
use wym_linalg::{Matrix, Rng64};

/// Training loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error over all outputs (regression — the relevance scorer).
    Mse,
    /// Binary cross entropy on a single logit output (classification — the
    /// baseline matchers). The output layer must be `Identity`; the sigmoid
    /// is fused into the loss for numerical stability.
    BceWithLogits,
}

/// Architecture description of an [`Mlp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Layer widths from input to output, e.g. `[130, 300, 64, 32, 1]` for
    /// the paper's relevance scorer over 130-dimensional unit features.
    pub layer_sizes: Vec<usize>,
    /// Activation of every hidden layer.
    pub hidden: Activation,
    /// Activation of the output layer.
    pub output: Activation,
    /// Loss minimized during training.
    pub loss: Loss,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's relevance-scorer architecture over `in_dim` inputs:
    /// hidden layers 300-64-32 with ReLU, tanh output, MSE loss (§4.2).
    pub fn scorer(in_dim: usize, seed: u64) -> Self {
        Self {
            layer_sizes: vec![in_dim, 300, 64, 32, 1],
            hidden: Activation::Relu,
            output: Activation::Tanh,
            loss: Loss::Mse,
            seed,
        }
    }

    /// A binary classifier head: hidden ReLU layers, single logit output.
    pub fn classifier(layer_sizes: Vec<usize>, seed: u64) -> Self {
        Self {
            layer_sizes,
            hidden: Activation::Relu,
            output: Activation::Identity,
            loss: Loss::BceWithLogits,
            seed,
        }
    }
}

/// A fully connected feed-forward network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    loss: Loss,
}

impl Mlp {
    /// Builds the network with He initialization.
    ///
    /// # Panics
    /// Panics if fewer than two layer sizes are given.
    pub fn new(config: &MlpConfig) -> Self {
        assert!(config.layer_sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = Rng64::new(config.seed);
        let n = config.layer_sizes.len() - 1;
        let mut layers = Vec::with_capacity(n);
        for i in 0..n {
            let act = if i + 1 == n { config.output } else { config.hidden };
            layers.push(Dense::new(
                config.layer_sizes[i],
                config.layer_sizes[i + 1],
                act,
                &mut rng,
            ));
        }
        Self { layers, loss: config.loss }
    }

    /// Reassembles a network from an explicit layer stack and loss — the
    /// inverse of [`Mlp::layers`] + [`Mlp::loss_kind`], used by the model
    /// artifact loader to rebuild a trained network from exported tensors.
    ///
    /// # Panics
    /// Panics when `layers` is empty or consecutive layer shapes disagree.
    pub fn from_parts(layers: Vec<Dense>, loss: Loss) -> Self {
        assert!(!layers.is_empty(), "an Mlp needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "consecutive layer shapes must chain"
            );
        }
        Self { layers, loss }
    }

    /// The layer stack (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layer stack (used by the optimizer and the
    /// embedding fine-tuner, which reuses a trained first layer).
    pub fn layers_mut(&mut self) -> &mut Vec<Dense> {
        &mut self.layers
    }

    /// The configured loss.
    pub fn loss_kind(&self) -> Loss {
        self.loss
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass returning raw network outputs (post output-activation).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut a = self.layers[0].infer(x);
        for layer in &self.layers[1..] {
            a = layer.infer(&a);
        }
        a
    }

    /// Predicted values for single-output networks, applying the sigmoid when
    /// the loss is BCE-with-logits (so the result is a probability).
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        let out = self.forward(x);
        assert_eq!(out.cols(), 1, "predict expects a single-output network");
        match self.loss {
            Loss::Mse => out.col(0),
            Loss::BceWithLogits => out.col(0).into_iter().map(sigmoid).collect(),
        }
    }

    /// One training step's forward pass, loss and backward pass on the
    /// batch `(x, y)`, in `ws`'s reused buffers.
    ///
    /// Returns the batch loss; the per-layer gradients, averaged over the
    /// batch, are left in [`TrainWorkspace::grads`]. Layer 0's input
    /// gradient is not computed: nothing reads it.
    ///
    /// # Panics
    /// Panics if `x` and `y` disagree on the number of rows, or `ws` was
    /// built for a different network.
    pub fn loss_and_grads(&self, x: &Matrix, y: &Matrix, ws: &mut TrainWorkspace) -> f32 {
        assert_eq!(x.rows(), y.rows(), "x / y row mismatch");
        assert_eq!(ws.grads.len(), self.layers.len(), "workspace built for another network");
        let n = x.rows().max(1) as f32;

        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(i);
            layer.forward_into(done.last().unwrap_or(x), &mut rest[0]);
        }

        // Loss and ∂L/∂(output activation). For BCE-with-logits we instead
        // compute ∂L/∂Z directly (the fused form) and rely on the output
        // layer being Identity so backward's act' = 1 leaves it untouched.
        let last = self.layers.len() - 1;
        let (a, d) = (&ws.acts[last], &mut ws.deltas[last]);
        d.resize(a.rows(), a.cols());
        let pairs = d.as_mut_slice().iter_mut().zip(a.as_slice()).zip(y.as_slice());
        let loss = match self.loss {
            Loss::Mse => {
                assert_eq!(a.shape(), y.shape(), "target shape mismatch");
                let scale = 2.0 / n;
                let mut sq = 0.0f64;
                for ((d, &v), &t) in pairs {
                    let diff = v - t;
                    sq += (diff * diff) as f64;
                    *d = diff * scale;
                }
                sq as f32 / n
            }
            Loss::BceWithLogits => {
                assert_eq!(a.cols(), 1, "BCE expects a single logit output");
                let mut loss = 0.0f64;
                for ((d, &z), &t) in pairs {
                    // log(1 + e^z) - t*z, stable form.
                    let log1pe = if z > 0.0 { z + (-z).exp().ln_1p() } else { z.exp().ln_1p() };
                    loss += (log1pe - t * z) as f64;
                    *d = (sigmoid(z) - t) / n;
                }
                loss as f32 / n
            }
        };

        for (i, layer) in self.layers.iter().enumerate().rev() {
            let input = if i == 0 { x } else { &ws.acts[i - 1] };
            layer.backward_into(input, &ws.acts[i], &mut ws.deltas[i], &mut ws.grads[i]);
            if i > 0 {
                layer.w.transpose_into(&mut ws.wt[i]);
                let (below, this) = ws.deltas.split_at_mut(i);
                this[0].matmul_dot_into(&ws.wt[i], &mut below[i - 1]);
            }
        }
        loss
    }
}

/// The buffers of [`Mlp::loss_and_grads`], sized on the first batch and
/// reused across batches and epochs, so a training step does not allocate.
#[derive(Debug, Clone)]
pub struct TrainWorkspace {
    /// Activated output of each layer.
    acts: Vec<Matrix>,
    /// `∂L/∂A` of each layer's output, turned into `∂L/∂Z` in place.
    deltas: Vec<Matrix>,
    /// `Wᵀ` of each layer above the first, the input-gradient operand.
    wt: Vec<Matrix>,
    /// Parameter gradients of the last step.
    grads: Vec<DenseGrad>,
}

impl TrainWorkspace {
    /// Empty buffers for `mlp`'s layer stack.
    pub fn new(mlp: &Mlp) -> Self {
        let empty = vec![Matrix::zeros(0, 0); mlp.layers.len()];
        Self {
            acts: empty.clone(),
            deltas: empty.clone(),
            wt: empty,
            grads: mlp.layers.iter().map(DenseGrad::zeros).collect(),
        }
    }

    /// Per-layer parameter gradients of the last step, averaged over its
    /// batch.
    pub fn grads(&self) -> &[DenseGrad] {
        &self.grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, AdamConfig};
    use crate::train::TrainConfig;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&MlpConfig::scorer(10, 0));
        let x = Matrix::zeros(4, 10);
        let out = mlp.forward(&x);
        assert_eq!(out.shape(), (4, 1));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_degenerate_architecture() {
        let _ = Mlp::new(&MlpConfig {
            layer_sizes: vec![3],
            hidden: Activation::Relu,
            output: Activation::Identity,
            loss: Loss::Mse,
            seed: 0,
        });
    }

    #[test]
    fn mse_gradient_check_end_to_end() {
        let cfg = MlpConfig {
            layer_sizes: vec![3, 4, 1],
            hidden: Activation::Tanh,
            output: Activation::Identity,
            loss: Loss::Mse,
            seed: 3,
        };
        let mut mlp = Mlp::new(&cfg);
        let mut rng = Rng64::new(17);
        let x = Matrix::randn(5, 3, 1.0, &mut rng);
        let y = Matrix::randn(5, 1, 1.0, &mut rng);
        let mut ws = TrainWorkspace::new(&mlp);
        mlp.loss_and_grads(&x, &y, &mut ws);
        let grads = ws.grads().to_vec();

        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for li in 0..mlp.layers.len() {
            for i in 0..mlp.layers[li].w.rows() {
                for j in 0..mlp.layers[li].w.cols() {
                    let orig = mlp.layers[li].w[(i, j)];
                    mlp.layers[li].w[(i, j)] = orig + eps;
                    let up = mlp.loss_and_grads(&x, &y, &mut ws);
                    mlp.layers[li].w[(i, j)] = orig - eps;
                    let down = mlp.loss_and_grads(&x, &y, &mut ws);
                    mlp.layers[li].w[(i, j)] = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = grads[li].dw[(i, j)];
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "layer {li} dW[{i},{j}]: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn bce_gradient_check_end_to_end() {
        let cfg = MlpConfig::classifier(vec![2, 3, 1], 9);
        let mut mlp = Mlp::new(&cfg);
        let mut rng = Rng64::new(23);
        let x = Matrix::randn(6, 2, 1.0, &mut rng);
        let y = Matrix::from_vec(6, 1, vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0]);
        let mut ws = TrainWorkspace::new(&mlp);
        mlp.loss_and_grads(&x, &y, &mut ws);
        let grads = ws.grads().to_vec();
        let eps = 1e-3;
        let li = 0;
        for i in 0..mlp.layers[li].w.rows() {
            for j in 0..mlp.layers[li].w.cols() {
                let orig = mlp.layers[li].w[(i, j)];
                mlp.layers[li].w[(i, j)] = orig + eps;
                let up = mlp.loss_and_grads(&x, &y, &mut ws);
                mlp.layers[li].w[(i, j)] = orig - eps;
                let down = mlp.loss_and_grads(&x, &y, &mut ws);
                mlp.layers[li].w[(i, j)] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - grads[li].dw[(i, j)]).abs() < 1e-2,
                    "dW[{i},{j}] numeric {numeric} vs {}",
                    grads[li].dw[(i, j)]
                );
            }
        }
    }

    #[test]
    fn adam_training_reduces_loss_on_xor() {
        // XOR is not linearly separable: passing this requires working
        // hidden-layer backprop, not just a linear fit.
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let cfg = MlpConfig::classifier(vec![2, 16, 1], 7);
        let mut mlp = Mlp::new(&cfg);
        let mut adam = Adam::new(AdamConfig { lr: 0.05, ..AdamConfig::default() }, mlp.layers());
        let mut ws = TrainWorkspace::new(&mlp);
        let initial = mlp.loss_and_grads(&x, &y, &mut ws);
        for _ in 0..400 {
            mlp.loss_and_grads(&x, &y, &mut ws);
            adam.step(mlp.layers_mut(), ws.grads());
        }
        let fin = mlp.loss_and_grads(&x, &y, &mut ws);
        assert!(fin < initial * 0.2, "loss {initial} -> {fin}");
        let p = mlp.predict(&x);
        assert!(p[0] < 0.5 && p[3] < 0.5 && p[1] > 0.5 && p[2] > 0.5, "{p:?}");
    }

    #[test]
    fn fit_learns_sign_regression() {
        // Regression smoke test through the high-level training loop.
        let mut rng = Rng64::new(31);
        let x = Matrix::randn(256, 4, 1.0, &mut rng);
        let targets: Vec<f32> = x.iter_rows().map(|r| if r[0] > 0.0 { 1.0 } else { -1.0 }).collect();
        let y = Matrix::from_vec(256, 1, targets);
        let cfg = MlpConfig {
            layer_sizes: vec![4, 32, 1],
            hidden: Activation::Relu,
            output: Activation::Tanh,
            loss: Loss::Mse,
            seed: 2,
        };
        let mut mlp = Mlp::new(&cfg);
        let report = crate::train::fit(
            &mut mlp,
            &x,
            &y,
            &TrainConfig { epochs: 60, batch_size: 32, lr: 0.01, seed: 5, ..TrainConfig::default() },
        );
        assert!(report.final_loss < 0.2, "final loss {}", report.final_loss);
        let preds = mlp.predict(&x);
        let correct = preds
            .iter()
            .zip(y.col(0))
            .filter(|(p, t)| (p.signum() - t.signum()).abs() < 0.5)
            .count();
        assert!(correct as f32 / 256.0 > 0.95, "accuracy {correct}/256");
    }
}
