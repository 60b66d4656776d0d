//! A dense (fully connected) layer with manual backpropagation.

use crate::activation::Activation;
use serde::{Deserialize, Serialize};
use wym_linalg::{Matrix, Rng64};

/// A dense layer `A = act(X · W + b)` with `W: in × out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias vector, length `out_dim`.
    pub b: Vec<f32>,
    /// Activation applied to the pre-activation.
    pub activation: Activation,
}

/// Gradients of a dense layer's parameters.
#[derive(Debug, Clone)]
pub struct DenseGrad {
    /// `∂L/∂W`, same shape as `w`.
    pub dw: Matrix,
    /// `∂L/∂b`, same length as `b`.
    pub db: Vec<f32>,
}

impl DenseGrad {
    /// Zero gradients shaped like `layer`'s parameters.
    pub fn zeros(layer: &Dense) -> Self {
        Self { dw: Matrix::zeros(layer.in_dim(), layer.out_dim()), db: vec![0.0; layer.out_dim()] }
    }
}

impl Dense {
    /// He-initialized dense layer (suited to ReLU hidden units).
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut Rng64) -> Self {
        let std = (2.0 / in_dim.max(1) as f32).sqrt();
        Self { w: Matrix::randn(in_dim, out_dim, std, rng), b: vec![0.0; out_dim], activation }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass (inference).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass into `out`, reusing its allocation: `act(x·W + b)`, with
    /// the bias and the activation applied in one pass over the product.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        let act = self.activation;
        for row in out.as_mut_slice().chunks_exact_mut(self.out_dim().max(1)) {
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v = act.apply(*v + b);
            }
        }
    }

    /// Backward pass for the parameters of a layer that mapped `x` to
    /// `out`.
    ///
    /// On entry `delta` holds `∂L/∂A` (the gradient w.r.t. the activated
    /// output); it is turned into `δ = ∂L/∂Z = ∂L/∂A ⊙ act'(Z)` in place,
    /// and `grad` receives `∂L/∂W = xᵀ·δ` and `∂L/∂b`. The input gradient
    /// `∂L/∂X = δ·Wᵀ` is left to the caller ([`Matrix::matmul_t`]), which
    /// skips it where nothing reads it.
    pub fn backward_into(
        &self,
        x: &Matrix,
        out: &Matrix,
        delta: &mut Matrix,
        grad: &mut DenseGrad,
    ) {
        let act = self.activation;
        for (d, &a) in delta.as_mut_slice().iter_mut().zip(out.as_slice()) {
            *d *= act.derivative_from_output(a);
        }
        x.t_matmul_into(delta, &mut grad.dw);
        grad.db.fill(0.0);
        for row in delta.iter_rows() {
            for (s, v) in grad.db.iter_mut().zip(row) {
                *s += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut Rng64::new(0));
        layer.w = Matrix::from_rows(&[&[2.0], &[3.0]]);
        layer.b = vec![1.0];
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 2.0]]);
        let out = layer.infer(&x);
        assert_eq!(out.row(0), &[6.0]);
        assert_eq!(out.row(1), &[7.0]);
    }

    /// Gradients of `L = sum(A)`: `∂L/∂A = 1` everywhere.
    fn grads_of_sum(layer: &Dense, x: &Matrix) -> (DenseGrad, Matrix) {
        let out = layer.infer(x);
        let mut delta = Matrix::filled(out.rows(), out.cols(), 1.0);
        let mut grad = DenseGrad::zeros(layer);
        layer.backward_into(x, &out, &mut delta, &mut grad);
        let dx = delta.matmul_t(&layer.w);
        (grad, dx)
    }

    #[test]
    fn gradient_check_weights() {
        // Numeric vs analytic gradient of L = sum(A) for a tanh layer.
        let mut rng = Rng64::new(5);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);

        let loss = |l: &Dense| -> f32 { l.infer(&x).as_slice().iter().sum() };
        let (grad, _) = grads_of_sum(&layer, &x);

        let eps = 1e-3;
        for i in 0..layer.w.rows() {
            for j in 0..layer.w.cols() {
                let orig = layer.w[(i, j)];
                layer.w[(i, j)] = orig + eps;
                let up = loss(&layer);
                layer.w[(i, j)] = orig - eps;
                let down = loss(&layer);
                layer.w[(i, j)] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grad.dw[(i, j)];
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "dW[{i},{j}]: numeric {numeric} analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_bias_and_input() {
        let mut rng = Rng64::new(6);
        let mut layer = Dense::new(2, 2, Activation::Sigmoid, &mut rng);
        let x = Matrix::randn(3, 2, 1.0, &mut rng);
        let (grad, dx) = grads_of_sum(&layer, &x);

        let eps = 1e-3;
        // Bias gradient.
        for j in 0..layer.b.len() {
            let orig = layer.b[j];
            layer.b[j] = orig + eps;
            let up: f32 = layer.infer(&x).as_slice().iter().sum();
            layer.b[j] = orig - eps;
            let down: f32 = layer.infer(&x).as_slice().iter().sum();
            layer.b[j] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!((numeric - grad.db[j]).abs() < 1e-2, "db[{j}]");
        }
        // Input gradient.
        let mut x2 = x.clone();
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let orig = x2[(i, j)];
                x2[(i, j)] = orig + eps;
                let up: f32 = layer.infer(&x2).as_slice().iter().sum();
                x2[(i, j)] = orig - eps;
                let down: f32 = layer.infer(&x2).as_slice().iter().sum();
                x2[(i, j)] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!((numeric - dx[(i, j)]).abs() < 1e-2, "dx[{i},{j}]");
            }
        }
    }
}
