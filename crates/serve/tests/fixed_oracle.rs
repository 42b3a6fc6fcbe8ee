//! An independent fixed-point forward pass against `plain_label`.
//!
//! `plain_label` simulates the compiled circuit, so it is the oracle every
//! secure run is checked against. Here it is checked in turn: the demo
//! models are evaluated layer by layer with `Fixed` arithmetic (no circuit
//! anywhere) and every sample's label must agree.

use deepsecure_core::compile::plain_label;
use deepsecure_fixed::{Fixed, Format};
use deepsecure_nn::{ActKind, Layer, Network, Tensor};
use deepsecure_serve::demo;

fn is_live(mask: &Option<Vec<bool>>, idx: usize) -> bool {
    mask.as_ref().is_none_or(|m| m[idx])
}

/// Dense, Conv2d, MaxPool2d, ReLU and Flatten in `Fixed` arithmetic: each
/// product floors, sums wrap, the bias starts every accumulator, and the
/// argmax keeps the first maximum (the circuit replaces its running best
/// only on a strictly greater logit).
fn fixed_forward(net: &Network, x: &Tensor, f: Format) -> usize {
    let q = |v: f32| Fixed::from_f64(f64::from(v), f);
    let mut vals: Vec<Fixed> = x.data().iter().map(|&v| q(v)).collect();
    let mut shape = net.input_shape.clone();
    for layer in &net.layers {
        match layer {
            Layer::Dense(d) => {
                vals = (0..d.n_out)
                    .map(|o| {
                        (0..d.n_in)
                            .filter(|&i| is_live(&d.mask, o * d.n_in + i))
                            .fold(q(d.bias[o]), |acc, i| {
                                acc.add(vals[i].mul(q(d.weights[o * d.n_in + i])))
                            })
                    })
                    .collect();
                shape = vec![d.n_out];
            }
            Layer::Conv2d(c) => {
                let (h, w) = (shape[1], shape[2]);
                let (oh, ow) = c.out_size(h, w);
                let mut out = Vec::with_capacity(c.out_ch * oh * ow);
                for oc in 0..c.out_ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = q(c.bias[oc]);
                            for ic in 0..c.in_ch {
                                for dy in 0..c.k {
                                    for dx in 0..c.k {
                                        let idx = ((oc * c.in_ch + ic) * c.k + dy) * c.k + dx;
                                        let iy = (oy * c.stride + dy).checked_sub(c.pad);
                                        let ix = (ox * c.stride + dx).checked_sub(c.pad);
                                        let (Some(iy), Some(ix)) = (iy, ix) else {
                                            continue;
                                        };
                                        if iy >= h || ix >= w || !is_live(&c.mask, idx) {
                                            continue;
                                        }
                                        let v = vals[(ic * h + iy) * w + ix];
                                        acc = acc.add(v.mul(q(c.weights[idx])));
                                    }
                                }
                            }
                            out.push(acc);
                        }
                    }
                }
                vals = out;
                shape = vec![c.out_ch, oh, ow];
            }
            Layer::MaxPool2d { k, stride } => {
                let (ch, h, w) = (shape[0], shape[1], shape[2]);
                let (oh, ow) = ((h - k) / stride + 1, (w - k) / stride + 1);
                let mut out = Vec::with_capacity(ch * oh * ow);
                for c in 0..ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let window = (0..*k).flat_map(|dy| {
                                (0..*k).map(move |dx| (oy * stride + dy, ox * stride + dx))
                            });
                            let best = window
                                .map(|(y, x)| vals[(c * h + y) * w + x])
                                .max_by_key(|v| v.raw())
                                .expect("non-empty window");
                            out.push(best);
                        }
                    }
                }
                vals = out;
                shape = vec![ch, oh, ow];
            }
            Layer::Activation(ActKind::Relu) => {
                vals = vals
                    .iter()
                    .map(|&v| if v.raw() < 0 { Fixed::zero(f) } else { v })
                    .collect();
            }
            Layer::Flatten => shape = vec![shape.iter().product()],
            other => panic!("no fixed-point oracle for {other:?}"),
        }
    }
    let mut best = 0;
    for (i, v) in vals.iter().enumerate() {
        if v.raw() > vals[best].raw() {
            best = i;
        }
    }
    best
}

#[test]
fn plain_label_equals_an_independent_fixed_point_forward_pass() {
    for name in ["tiny_mlp", "tiny_cnn", "mnist_mlp_c"] {
        let model = demo::load(name).unwrap();
        let f = model.compiled.format;
        for (i, x) in model.dataset.inputs.iter().enumerate() {
            assert_eq!(
                plain_label(&model.compiled, &model.net, x),
                fixed_forward(&model.net, x, f),
                "{name} sample {i}"
            );
        }
    }
}
