//! The paper's benchmark architectures (§4.5) plus small test networks.
//!
//! | Benchmark | Architecture (paper Table 4) |
//! |---|---|
//! | 1 | 28×28-5C2-ReLu-100FC-ReLu-10FC-Softmax |
//! | 2 | 28×28-300FC-Sigmoid-100FC-Sigmoid-10FC-Softmax (LeNet-300-100) |
//! | 3 | 617-50FC-Tanh-26FC-Softmax |
//! | 4 | 5625-2000FC-Tanh-500FC-Tanh-19FC-Softmax |
//!
//! Networks come untrained (deterministic seeds); Softmax lives in the
//! loss/argmax, not in the layer stack (§4.2).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::{ActKind, Conv2d, Dense, Layer};
use crate::Network;

/// Benchmark 1: the CryptoNets-style CNN on 28×28 images — a 5-map 5×5
/// convolution with stride 2 (padding 1, so the maps are 5×13×13), two
/// ReLU layers and 100/10-unit FC layers.
pub fn benchmark1_cnn() -> Network {
    let mut rng = StdRng::seed_from_u64(0xb1);
    Network::new(
        vec![1, 28, 28],
        vec![
            Layer::Conv2d(Conv2d::new(1, 5, 5, 2, 1, &mut rng)),
            Layer::Activation(ActKind::Relu),
            Layer::Flatten,
            Layer::Dense(Dense::new(5 * 13 * 13, 100, &mut rng)),
            Layer::Activation(ActKind::Relu),
            Layer::Dense(Dense::new(100, 10, &mut rng)),
        ],
    )
}

/// Benchmark 2: LeNet-300-100 with Sigmoid nonlinearities (~267K
/// parameters).
pub fn benchmark2_lenet300() -> Network {
    let mut rng = StdRng::seed_from_u64(0xb2);
    Network::new(
        vec![1, 28, 28],
        vec![
            Layer::Flatten,
            Layer::Dense(Dense::new(784, 300, &mut rng)),
            Layer::Activation(ActKind::Sigmoid),
            Layer::Dense(Dense::new(300, 100, &mut rng)),
            Layer::Activation(ActKind::Sigmoid),
            Layer::Dense(Dense::new(100, 10, &mut rng)),
        ],
    )
}

/// Benchmark 3: the 617-50-26 audio DNN with Tanh.
pub fn benchmark3_audio_dnn() -> Network {
    let mut rng = StdRng::seed_from_u64(0xb3);
    Network::new(
        vec![617],
        vec![
            Layer::Dense(Dense::new(617, 50, &mut rng)),
            Layer::Activation(ActKind::Tanh),
            Layer::Dense(Dense::new(50, 26, &mut rng)),
        ],
    )
}

/// Benchmark 4: the 5625-2000-500-19 smart-sensing DNN with Tanh.
pub fn benchmark4_sensing_dnn() -> Network {
    let mut rng = StdRng::seed_from_u64(0xb4);
    Network::new(
        vec![5625],
        vec![
            Layer::Dense(Dense::new(5625, 2000, &mut rng)),
            Layer::Activation(ActKind::Tanh),
            Layer::Dense(Dense::new(2000, 500, &mut rng)),
            Layer::Activation(ActKind::Tanh),
            Layer::Dense(Dense::new(500, 19, &mut rng)),
        ],
    )
}

/// A benchmark-3-shaped network with an arbitrary input width — used after
/// data projection shrinks the input layer.
pub fn audio_dnn_with_input(input_dim: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(0xb3a);
    Network::new(
        vec![input_dim],
        vec![
            Layer::Dense(Dense::new(input_dim, 50, &mut rng)),
            Layer::Activation(ActKind::Tanh),
            Layer::Dense(Dense::new(50, 26, &mut rng)),
        ],
    )
}

/// Tiny MLP over 8×8 images for tests: 64-16FC-ReLu-`classes`FC.
pub fn tiny_mlp(classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(0x717);
    Network::new(
        vec![1, 8, 8],
        vec![
            Layer::Flatten,
            Layer::Dense(Dense::new(64, 16, &mut rng)),
            Layer::Activation(ActKind::Relu),
            Layer::Dense(Dense::new(16, classes, &mut rng)),
        ],
    )
}

/// MNIST-scale MLP over 28×28 images: 784-16FC-ReLu-`classes`FC. Small
/// enough to garble end to end in CI, large enough (≈163 MB of garbled
/// tables, ~12× tiny_mlp's MAC count) that buffered garbled material
/// dominates a process's memory — the workload behind the streaming
/// pipeline's constant-memory demonstration.
pub fn mnist_mlp(classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(0x3157);
    Network::new(
        vec![1, 28, 28],
        vec![
            Layer::Flatten,
            Layer::Dense(Dense::new(784, 16, &mut rng)),
            Layer::Activation(ActKind::Relu),
            Layer::Dense(Dense::new(16, classes, &mut rng)),
        ],
    )
}

/// Tiny CNN over 8×8 images for tests: 2-map 3×3 conv (stride 1), max
/// pooling, then an FC head.
pub fn tiny_cnn(classes: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(0x7c7);
    Network::new(
        vec![1, 8, 8],
        vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 0, &mut rng)),
            Layer::Activation(ActKind::Relu),
            Layer::MaxPool2d { k: 2, stride: 2 },
            Layer::Flatten,
            Layer::Dense(Dense::new(2 * 3 * 3, classes, &mut rng)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_shapes_match_paper() {
        let b1 = benchmark1_cnn();
        let shapes = b1.shapes();
        assert_eq!(shapes[1], vec![5, 13, 13], "5C2 maps");
        assert_eq!(shapes.last().unwrap(), &vec![10]);

        let b2 = benchmark2_lenet300();
        assert_eq!(
            b2.num_params(),
            784 * 300 + 300 + 300 * 100 + 100 + 100 * 10 + 10
        );
        // ~267K parameters, as the paper states.
        assert!((b2.num_params() as i64 - 267_000).abs() < 1_000);

        let b3 = benchmark3_audio_dnn();
        assert_eq!(b3.shapes().last().unwrap(), &vec![26]);
        assert_eq!(b3.total_macs(), 617 * 50 + 50 * 26);

        let b4 = benchmark4_sensing_dnn();
        assert_eq!(b4.total_macs(), 5625 * 2000 + 2000 * 500 + 500 * 19);
    }

    #[test]
    fn tiny_networks_run() {
        use crate::Tensor;
        let x = Tensor::zeros(&[1, 8, 8]);
        assert_eq!(tiny_mlp(4).forward(&x).len(), 4);
        assert_eq!(tiny_cnn(3).forward(&x).len(), 3);
    }

    #[test]
    fn mnist_mlp_shape() {
        use crate::Tensor;
        let net = mnist_mlp(10);
        assert_eq!(net.total_macs(), 784 * 16 + 16 * 10);
        let x = Tensor::zeros(&[1, 28, 28]);
        assert_eq!(net.forward(&x).len(), 10);
    }

    #[test]
    fn zoo_is_deterministic() {
        let a = benchmark3_audio_dnn();
        let b = benchmark3_audio_dnn();
        match (&a.layers[0], &b.layers[0]) {
            (Layer::Dense(x), Layer::Dense(y)) => assert_eq!(x.weights, y.weights),
            _ => panic!("expected dense"),
        }
    }
}
