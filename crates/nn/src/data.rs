//! Deterministic synthetic datasets with the shapes of the paper's
//! benchmarks.
//!
//! The evaluation uses MNIST, an ISOLET-style audio corpus and a
//! daily-sports smart-sensing corpus (paper refs 33/35/36); this offline
//! reproduction
//! substitutes generators that preserve what the experiments actually
//! exercise: input dimensionality, class count,
//! learnability by the benchmark architectures, and — crucially for the
//! projection experiments — a low-rank ensemble structure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Tensor;

/// A labelled dataset of identically shaped samples.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Samples.
    pub inputs: Vec<Tensor>,
    /// Class labels, one per sample.
    pub labels: Vec<usize>,
    /// Shape of a single sample.
    pub input_shape: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Splits off the last `n` samples as a validation set.
    pub fn split_validation(mut self, n: usize) -> (Dataset, Dataset) {
        let n = n.min(self.len());
        let split = self.len() - n;
        let val_inputs = self.inputs.split_off(split);
        let val_labels = self.labels.split_off(split);
        let val = Dataset {
            inputs: val_inputs,
            labels: val_labels,
            input_shape: self.input_shape.clone(),
            num_classes: self.num_classes,
        };
        (self, val)
    }

    /// Flattens every sample into a column of an `m × n` matrix (the `A`
    /// of Algorithm 1).
    pub fn as_columns(&self) -> Vec<Vec<f64>> {
        self.inputs
            .iter()
            .map(|t| t.data().iter().map(|&v| f64::from(v)).collect())
            .collect()
    }
}

/// MNIST-shaped digits: 28×28 single-channel images, 10 classes. Each
/// class is a fixed template of Gaussian blobs; samples add intensity
/// jitter and pixel noise.
pub fn digits(n: usize, seed: u64) -> Dataset {
    blob_images(n, 28, 10, seed)
}

/// A small 8×8, 4-class variant for fast tests.
pub fn digits_small(n: usize, seed: u64) -> Dataset {
    blob_images(n, 8, 4, seed)
}

fn blob_images(n: usize, side: usize, classes: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd161);
    // Class templates: sum of 4 Gaussian bumps at class-specific positions.
    let mut templates = Vec::with_capacity(classes);
    for _ in 0..classes {
        let mut t = vec![0.0f32; side * side];
        for _ in 0..4 {
            let cy = rng.gen_range(0.15f32..0.85) * side as f32;
            let cx = rng.gen_range(0.15f32..0.85) * side as f32;
            let s = rng.gen_range(0.08f32..0.2) * side as f32;
            for y in 0..side {
                for x in 0..side {
                    let d2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                    t[y * side + x] += (-d2 / (2.0 * s * s)).exp();
                }
            }
        }
        let max = t.iter().cloned().fold(0.0f32, f32::max).max(1e-6);
        for v in &mut t {
            *v /= max;
        }
        templates.push(t);
    }
    let mut inputs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % classes;
        let gain: f32 = rng.gen_range(0.7..1.0);
        let data: Vec<f32> = templates[label]
            .iter()
            .map(|&v| (v * gain + rng.gen_range(-0.05f32..0.05)).clamp(0.0, 1.0))
            .collect();
        inputs.push(Tensor::from_vec(&[1, side, side], data));
        labels.push(label);
    }
    Dataset {
        inputs,
        labels,
        input_shape: vec![1, side, side],
        num_classes: classes,
    }
}

/// An ISOLET-shaped audio feature set: 617 dimensions, 26 classes, with a
/// rank-`r` latent structure (`x = B·(u_c + 0.3 z) + ε`).
pub fn audio(n: usize, seed: u64) -> Dataset {
    low_rank(n, 617, 26, 40, seed ^ 0xa0d10)
}

/// A daily-sports-shaped smart-sensing set: 5625 dimensions, 19 classes,
/// strongly low-rank (rank 45) — the structure that lets Algorithm 1 reach
/// large compaction folds on benchmark 4.
pub fn sensing(n: usize, seed: u64) -> Dataset {
    low_rank(n, 5625, 19, 45, seed ^ 0x5e515)
}

/// Generic low-rank ensemble generator (exposed for tests and ablations):
/// samples live near a rank-`rank` subspace of `dim`-dimensional space.
pub fn low_rank(n: usize, dim: usize, classes: usize, rank: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Basis B: dim × rank.
    let basis: Vec<Vec<f32>> = (0..rank)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    // Class codes in latent space.
    let codes: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..rank).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let scale = 1.0 / (rank as f32).sqrt();
    let mut inputs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % classes;
        let z: Vec<f32> = codes[label]
            .iter()
            .map(|&u| u + rng.gen_range(-0.3f32..0.3))
            .collect();
        let mut x = vec![0.0f32; dim];
        for (b_col, &zk) in basis.iter().zip(&z) {
            for (xv, bv) in x.iter_mut().zip(b_col) {
                *xv += bv * zk * scale;
            }
        }
        for xv in &mut x {
            *xv += rng.gen_range(-0.01f32..0.01);
        }
        inputs.push(Tensor::from_flat(x));
        labels.push(label);
    }
    Dataset {
        inputs,
        labels,
        input_shape: vec![dim],
        num_classes: classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let a = digits(20, 1);
        assert_eq!(a.len(), 20);
        assert_eq!(a.input_shape, vec![1, 28, 28]);
        assert_eq!(a.num_classes, 10);
        let b = digits(20, 1);
        assert_eq!(a.inputs[7], b.inputs[7], "same seed, same data");
        let c = digits(20, 2);
        assert_ne!(a.inputs[7], c.inputs[7], "different seed, different data");
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = digits_small(8, 3);
        assert_eq!(d.labels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn audio_and_sensing_shapes() {
        let a = audio(4, 1);
        assert_eq!(a.input_shape, vec![617]);
        assert_eq!(a.num_classes, 26);
        let s = sensing(2, 1);
        assert_eq!(s.input_shape, vec![5625]);
        assert_eq!(s.num_classes, 19);
    }

    #[test]
    fn low_rank_really_is_low_rank() {
        let d = low_rank(30, 100, 5, 8, 9);
        let cols = d.as_columns();
        // Gram-Schmidt an orthonormal basis from the first samples; later
        // samples must lie almost entirely inside that span.
        let mut basis: Vec<Vec<f64>> = Vec::new();
        for col in &cols[..16] {
            let mut v = col.clone();
            for b in &basis {
                let dot: f64 = b.iter().zip(&v).map(|(x, y)| x * y).sum();
                for (vk, bk) in v.iter_mut().zip(b) {
                    *vk -= dot * bk;
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-6 {
                basis.push(v.iter().map(|x| x / norm).collect());
            }
        }
        for col in &cols[16..] {
            let total: f64 = col.iter().map(|x| x * x).sum();
            let mut residual = col.clone();
            for b in &basis {
                let dot: f64 = b.iter().zip(&residual).map(|(x, y)| x * y).sum();
                for (rk, bk) in residual.iter_mut().zip(b) {
                    *rk -= dot * bk;
                }
            }
            let res: f64 = residual.iter().map(|x| x * x).sum();
            assert!(res / total < 0.05, "residual fraction {}", res / total);
        }
    }

    #[test]
    fn split_validation() {
        let d = digits_small(10, 4);
        let (train, val) = d.split_validation(3);
        assert_eq!(train.len(), 7);
        assert_eq!(val.len(), 3);
        assert_eq!(val.input_shape, vec![1, 8, 8]);
    }
}
