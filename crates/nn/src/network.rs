use crate::layer::{Conv2d, Dense, Layer};
use crate::Tensor;

/// A feed-forward network: an input shape plus a layer stack, mirroring the
/// paper's modular composition of Table-1 elements (§3.6).
///
/// The output layer produces raw logits; Softmax is applied only inside the
/// loss (for training) or replaced by argmax (for inference, per §4.2).
#[derive(Clone, Debug)]
pub struct Network {
    /// Layer stack, applied in order.
    pub layers: Vec<Layer>,
    /// Shape of a single input sample.
    pub input_shape: Vec<usize>,
}

impl Network {
    /// Creates a network.
    pub fn new(input_shape: Vec<usize>, layers: Vec<Layer>) -> Network {
        Network {
            layers,
            input_shape,
        }
    }

    /// Symbolic shape propagation: the tensor shape after each layer
    /// (index 0 = input shape, index `i+1` = after layer `i`).
    pub fn shapes(&self) -> Vec<Vec<usize>> {
        let mut shapes = vec![self.input_shape.clone()];
        for layer in &self.layers {
            let prev = shapes.last().expect("non-empty");
            let next = match layer {
                Layer::Dense(d) => vec![d.n_out],
                Layer::Conv2d(c) => {
                    let (oh, ow) = c.out_size(prev[1], prev[2]);
                    vec![c.out_ch, oh, ow]
                }
                Layer::MaxPool2d { k, stride } | Layer::MeanPool2d { k, stride } => {
                    vec![
                        prev[0],
                        (prev[1] - k) / stride + 1,
                        (prev[2] - k) / stride + 1,
                    ]
                }
                Layer::Activation(_) => prev.clone(),
                Layer::Flatten => vec![prev.iter().product()],
            };
            shapes.push(next);
        }
        shapes
    }

    /// Forward pass to raw logits.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Forward pass retaining every intermediate tensor (index 0 = input).
    pub fn forward_trace(&self, x: &Tensor) -> Vec<Tensor> {
        let mut trace = vec![x.clone()];
        for layer in &self.layers {
            let next = layer.forward(trace.last().expect("non-empty"));
            trace.push(next);
        }
        trace
    }

    /// Predicted class = argmax of the logits.
    pub fn predict(&self, x: &Tensor) -> usize {
        let logits = self.forward(x);
        argmax(logits.data())
    }

    /// Total parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => d.weights.len() + d.bias.len(),
                Layer::Conv2d(c) => c.weights.len() + c.bias.len(),
                _ => 0,
            })
            .sum()
    }

    /// Total multiply-accumulates of one inference (post-pruning) — the
    /// quantity Table 2's cost model keys on.
    pub fn total_macs(&self) -> usize {
        let shapes = self.shapes();
        self.layers
            .iter()
            .zip(&shapes)
            .map(|(l, s)| l.mac_count(s))
            .sum()
    }

    /// One SGD step on a single `(x, label)` pair with softmax
    /// cross-entropy loss; returns the loss.
    pub fn train_sample(&mut self, x: &Tensor, label: usize, lr: f32) -> f32 {
        let trace = self.forward_trace(x);
        let logits = trace.last().expect("non-empty");
        let (loss, mut grad) = softmax_ce(logits.data(), label);
        let mut grad_t = Tensor::from_vec(logits.shape(), std::mem::take(&mut grad));
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            grad_t = backward_layer(layer, &trace[i], &trace[i + 1], &grad_t, lr);
        }
        loss
    }
}

/// Index of the maximum element (first winner on ties).
pub(crate) fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in xs.iter().enumerate() {
        if *v > xs[best] {
            best = i;
        }
    }
    best
}

/// Softmax cross-entropy loss and its gradient w.r.t. the logits.
fn softmax_ce(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|e| e / sum).collect();
    let loss = -probs[label].max(1e-12).ln();
    let grad = probs
        .iter()
        .enumerate()
        .map(|(i, p)| p - f32::from(i == label))
        .collect();
    (loss, grad)
}

/// Backward pass through one layer with immediate SGD update; returns the
/// gradient w.r.t. the layer input.
fn backward_layer(
    layer: &mut Layer,
    input: &Tensor,
    output: &Tensor,
    grad_out: &Tensor,
    lr: f32,
) -> Tensor {
    match layer {
        Layer::Dense(d) => backward_dense(d, input, grad_out, lr),
        Layer::Conv2d(c) => backward_conv(c, input, grad_out, lr),
        Layer::MaxPool2d { k, stride } => backward_max_pool(input, output, grad_out, *k, *stride),
        Layer::MeanPool2d { k, stride } => backward_mean_pool(input, grad_out, *k, *stride),
        Layer::Activation(a) => {
            let data = output
                .data()
                .iter()
                .zip(grad_out.data())
                .map(|(&y, &g)| g * a.derivative_from_output(y))
                .collect();
            Tensor::from_vec(input.shape(), data)
        }
        Layer::Flatten => {
            let mut t = grad_out.clone();
            t.reshape(input.shape());
            t
        }
    }
}

fn backward_dense(d: &mut Dense, input: &Tensor, grad_out: &Tensor, lr: f32) -> Tensor {
    let x = input.data();
    let g = grad_out.data();
    let mut grad_in = vec![0.0f32; d.n_in];
    #[allow(clippy::needless_range_loop)]
    for o in 0..d.n_out {
        let go = g[o];
        d.bias[o] -= lr * go;
        for i in 0..d.n_in {
            let idx = o * d.n_in + i;
            let masked = matches!(&d.mask, Some(m) if !m[idx]);
            if !masked {
                grad_in[i] += d.weights[idx] * go;
                d.weights[idx] -= lr * go * x[i];
            }
        }
    }
    Tensor::from_flat(grad_in)
}

fn backward_conv(c: &mut Conv2d, input: &Tensor, grad_out: &Tensor, lr: f32) -> Tensor {
    let (_, h, w) = input.dims3();
    let (oc_n, oh, ow) = grad_out.dims3();
    debug_assert_eq!(oc_n, c.out_ch);
    let mut grad_in = Tensor::zeros(input.shape());
    for oc in 0..c.out_ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let go = grad_out.at3(oc, oy, ox);
                if go == 0.0 {
                    continue;
                }
                c.bias[oc] -= lr * go;
                for ic in 0..c.in_ch {
                    for dy in 0..c.k {
                        for dx in 0..c.k {
                            let iy = (oy * c.stride + dy) as isize - c.pad as isize;
                            let ix = (ox * c.stride + dx) as isize - c.pad as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            let idx = ((oc * c.in_ch + ic) * c.k + dy) * c.k + dx;
                            let masked = matches!(&c.mask, Some(m) if !m[idx]);
                            if masked {
                                continue;
                            }
                            let (iy, ix) = (iy as usize, ix as usize);
                            *grad_in.at3_mut(ic, iy, ix) += c.weights[idx] * go;
                            c.weights[idx] -= lr * go * input.at3(ic, iy, ix);
                        }
                    }
                }
            }
        }
    }
    grad_in
}

fn backward_max_pool(
    input: &Tensor,
    output: &Tensor,
    grad_out: &Tensor,
    k: usize,
    stride: usize,
) -> Tensor {
    let (ch, _, _) = input.dims3();
    let (_, oh, ow) = output.dims3();
    let mut grad_in = Tensor::zeros(input.shape());
    for c in 0..ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let target = output.at3(c, oy, ox);
                let go = grad_out.at3(c, oy, ox);
                // Route the gradient to the first matching maximum.
                'window: for dy in 0..k {
                    for dx in 0..k {
                        let (iy, ix) = (oy * stride + dy, ox * stride + dx);
                        if input.at3(c, iy, ix) == target {
                            *grad_in.at3_mut(c, iy, ix) += go;
                            break 'window;
                        }
                    }
                }
            }
        }
    }
    grad_in
}

fn backward_mean_pool(input: &Tensor, grad_out: &Tensor, k: usize, stride: usize) -> Tensor {
    let (ch, _, _) = input.dims3();
    let (_, oh, ow) = grad_out.dims3();
    let share = 1.0 / (k * k) as f32;
    let mut grad_in = Tensor::zeros(input.shape());
    for c in 0..ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let go = grad_out.at3(c, oy, ox) * share;
                for dy in 0..k {
                    for dx in 0..k {
                        *grad_in.at3_mut(c, oy * stride + dy, ox * stride + dx) += go;
                    }
                }
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::layer::ActKind;

    use super::*;

    fn xor_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(
            vec![2],
            vec![
                Layer::Dense(Dense::new(2, 8, &mut rng)),
                Layer::Activation(ActKind::Tanh),
                Layer::Dense(Dense::new(8, 2, &mut rng)),
            ],
        )
    }

    #[test]
    fn learns_xor() {
        let mut net = xor_net(7);
        let data = [
            (vec![0.0, 0.0], 0usize),
            (vec![0.0, 1.0], 1),
            (vec![1.0, 0.0], 1),
            (vec![1.0, 1.0], 0),
        ];
        for _ in 0..2000 {
            for (x, y) in &data {
                net.train_sample(&Tensor::from_flat(x.clone()), *y, 0.1);
            }
        }
        for (x, y) in &data {
            assert_eq!(net.predict(&Tensor::from_flat(x.clone())), *y, "{x:?}");
        }
    }

    #[test]
    fn loss_decreases() {
        let mut net = xor_net(11);
        let x = Tensor::from_flat(vec![1.0, 0.0]);
        let first = net.train_sample(&x, 1, 0.1);
        let mut last = first;
        for _ in 0..50 {
            last = net.train_sample(&x, 1, 0.1);
        }
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn shapes_propagate() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new(
            vec![1, 28, 28],
            vec![
                Layer::Conv2d(Conv2d::new(1, 5, 5, 2, 1, &mut rng)),
                Layer::Activation(ActKind::Relu),
                Layer::Flatten,
                Layer::Dense(Dense::new(845, 100, &mut rng)),
                Layer::Activation(ActKind::Relu),
                Layer::Dense(Dense::new(100, 10, &mut rng)),
            ],
        );
        let shapes = net.shapes();
        assert_eq!(shapes[1], vec![5, 13, 13]);
        assert_eq!(shapes[3], vec![845]);
        assert_eq!(shapes[6], vec![10]);
        // Symbolic shapes must match a real forward pass.
        let out = net.forward(&Tensor::zeros(&[1, 28, 28]));
        assert_eq!(out.shape(), &shapes[6][..]);
    }

    #[test]
    fn conv_gradient_check() {
        // Numerical gradient check on a tiny conv net.
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network::new(
            vec![1, 4, 4],
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 2, 1, 0, &mut rng)),
                Layer::Flatten,
                Layer::Dense(Dense::new(18, 2, &mut rng)),
            ],
        );
        let x = Tensor::from_vec(&[1, 4, 4], (0..16).map(|i| (i as f32) / 16.0).collect());
        let label = 1;
        let loss_of = |n: &Network| {
            let logits = n.forward(&x);
            let max = logits
                .data()
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            let sum: f32 = logits.data().iter().map(|v| (v - max).exp()).sum();
            -((logits.data()[label] - max).exp() / sum).ln()
        };
        // Analytic: find the weight delta applied by one SGD step.
        let mut trained = net.clone();
        let lr = 1e-3;
        trained.train_sample(&x, label, lr);
        let (w_before, w_after) = match (&net.layers[0], &trained.layers[0]) {
            (Layer::Conv2d(a), Layer::Conv2d(b)) => (a.weights[3], b.weights[3]),
            _ => unreachable!(),
        };
        let analytic_grad = (w_before - w_after) / lr;
        // Numeric: central difference on that same weight.
        let eps = 1e-2;
        let mut plus = net.clone();
        if let Layer::Conv2d(c) = &mut plus.layers[0] {
            c.weights[3] += eps;
        }
        let mut minus = net.clone();
        if let Layer::Conv2d(c) = &mut minus.layers[0] {
            c.weights[3] -= eps;
        }
        let numeric_grad = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
        assert!(
            (analytic_grad - numeric_grad).abs() < 2e-2,
            "analytic {analytic_grad} vs numeric {numeric_grad}"
        );
    }

    #[test]
    fn pool_backward_routes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Network::new(
            vec![1, 4, 4],
            vec![
                Layer::MaxPool2d { k: 2, stride: 2 },
                Layer::Flatten,
                Layer::Dense(Dense::new(4, 2, &mut rng)),
            ],
        );
        // Just exercise the path; loss must be finite.
        let x = Tensor::from_vec(&[1, 4, 4], (0..16).map(|i| i as f32).collect());
        let loss = net.train_sample(&x, 0, 0.01);
        assert!(loss.is_finite());

        let mut net = Network::new(
            vec![1, 4, 4],
            vec![
                Layer::MeanPool2d { k: 2, stride: 2 },
                Layer::Flatten,
                Layer::Dense(Dense::new(4, 2, &mut rng)),
            ],
        );
        let loss = net.train_sample(&x, 1, 0.01);
        assert!(loss.is_finite());
    }

    #[test]
    fn mac_and_param_counts() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Network::new(
            vec![4],
            vec![
                Layer::Dense(Dense::new(4, 3, &mut rng)),
                Layer::Activation(ActKind::Relu),
                Layer::Dense(Dense::new(3, 2, &mut rng)),
            ],
        );
        assert_eq!(net.num_params(), 4 * 3 + 3 + 3 * 2 + 2);
        assert_eq!(net.total_macs(), 12 + 6);
    }
}
