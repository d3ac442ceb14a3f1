//! The row-by-row MLP trainer that [`FlatNet::train_batch`] replaced,
//! kept as its bit-for-bit oracle.

use super::*;
use crate::data::Standardizer;
use crate::synth::Application;
use crate::test_data;

fn fit(data: &Dataset, params: &MlpParams) -> Mlp {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut dims = vec![data.n_features()];
    dims.extend(&params.hidden);
    dims.push(data.n_classes);
    let mut net = FlatNet::new(dims, &mut rng);
    let mut gw = vec![0.0; net.w.len()];
    let mut gb = vec![0.0; net.b.len()];
    let mut order: Vec<usize> = (0..data.len()).collect();
    for _ in 0..params.epochs {
        order.shuffle(&mut rng);
        for batch in order.chunks(16) {
            gw.fill(0.0);
            gb.fill(0.0);
            for &i in batch {
                backprop(&net, &data.x[i], data.y[i], &mut gw, &mut gb);
            }
            let scale = params.lr / batch.len() as f64;
            for (w, g) in net.w.iter_mut().zip(&gw) {
                *w -= scale * g;
            }
            for (b, g) in net.b.iter_mut().zip(&gb) {
                *b -= scale * g;
            }
        }
    }
    net.into_mlp()
}

/// Adds one row's softmax cross-entropy gradients into `gw`/`gb`.
fn backprop(net: &FlatNet, x: &[f64], label: usize, gw: &mut [f64], gb: &mut [f64]) {
    let last = net.layers() - 1;
    let mut acts = vec![0.0; net.b.len()];
    for l in 0..=last {
        let (n, m) = net.shape(l);
        let (below, here) = acts.split_at_mut(net.b_off[l]);
        let input = if l == 0 {
            x
        } else {
            &below[net.b_off[l - 1]..]
        };
        let w = net.weights(l);
        let b = &net.b[net.b_off[l]..];
        for (o, z) in here[..m].iter_mut().enumerate() {
            *z = dot(&w[o * n..][..n], input) + b[o];
            if l < last {
                *z = z.max(0.0);
            }
        }
    }
    let (_, k) = net.shape(last);
    let out = &acts[net.b_off[last]..][..k];
    let top = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut delta: Vec<f64> = out.iter().map(|v| (v - top).exp()).collect();
    let z: f64 = delta.iter().sum();
    for (c, d) in delta.iter_mut().enumerate() {
        *d = *d / z - (c == label) as usize as f64;
    }
    for l in (0..=last).rev() {
        let (n, _) = net.shape(l);
        let input = if l == 0 {
            x
        } else {
            &acts[net.b_off[l - 1]..][..n]
        };
        let gw = &mut gw[net.w_off[l]..];
        let gb = &mut gb[net.b_off[l]..];
        for (o, &d) in delta.iter().enumerate() {
            for (g, xi) in gw[o * n..][..n].iter_mut().zip(input) {
                *g += d * xi;
            }
            gb[o] += d;
        }
        if l > 0 {
            let w = net.weights(l);
            let mut prev = vec![0.0; n];
            for (o, &d) in delta.iter().enumerate() {
                for (p, w) in prev.iter_mut().zip(&w[o * n..][..n]) {
                    *p += d * w;
                }
            }
            for (p, a) in prev.iter_mut().zip(input) {
                if *a <= 0.0 {
                    *p = 0.0;
                }
            }
            delta = prev;
        }
    }
}

/// Every weight and bias by its bits, so `-0.0` and `+0.0` differ.
fn bits(m: &Mlp) -> Vec<u64> {
    m.layers
        .iter()
        .flat_map(|l| l.w.iter().flatten().chain(&l.b))
        .map(|v| v.to_bits())
        .collect()
}

fn assert_same(data: &Dataset, hidden: &[usize], epochs: usize) {
    let params = MlpParams {
        hidden: hidden.to_vec(),
        epochs,
        ..MlpParams::mlp1()
    };
    let kernel = Mlp::fit_impl(data, &params);
    let reference = fit(data, &params);
    assert_eq!(
        bits(&kernel),
        bits(&reference),
        "{} rows x {} features, {} classes, hidden {hidden:?}, {epochs} epochs",
        data.len(),
        data.n_features(),
        data.n_classes
    );
}

const SHAPES: [&[usize]; 4] = [&[], &[5], &[5, 5, 5], &[3, 7]];

#[test]
fn kernel_matches_the_row_by_row_trainer_on_full_and_short_batches() {
    // 32: full batches only; 37: a 5-row last batch; 18: a 2-row last
    // batch; 7: one short batch.
    for rows in [32, 37, 18, 7] {
        let data = test_data::random(rows, 6, 3, rows as u64);
        for hidden in SHAPES {
            for epochs in 1..=3 {
                assert_same(&data, hidden, epochs);
            }
        }
    }
}

#[test]
fn kernel_matches_on_one_feature_and_two_classes() {
    let data = test_data::random(21, 1, 2, 5);
    for hidden in SHAPES {
        assert_same(&data, hidden, 2);
    }
}

#[test]
fn kernel_matches_on_table2_data() {
    for app in [Application::Cardio, Application::Pendigits] {
        let (train, _) = app.generate(7).split(0.7, 42);
        for hidden in SHAPES {
            assert_same(&train, hidden, 2);
        }
    }
    // A wide input layer (127 features): the first 37 rows of GasId's
    // standardized train split, so the last batch is short.
    let (train, _) = Application::GasId.generate(7).split(0.7, 42);
    let train = Standardizer::fit(&train).transform(&train);
    let rows = 37;
    let prefix = Dataset::new(
        "gasid-prefix",
        train.x[..rows].to_vec(),
        train.y[..rows].to_vec(),
        train.n_classes,
    );
    for hidden in SHAPES {
        assert_same(&prefix, hidden, 2);
    }
}

#[test]
fn kernel_matches_where_hidden_units_are_off() {
    // Every third row is all zeros, so each hidden pre-activation on it is
    // its bias: exactly 0 at the start, and a dead unit stays at 0. The
    // other rows sit far from the origin on one side, which drives many
    // pre-activations negative. Both leave ReLU outputs of exactly 0,
    // where the error signal must be cut to `+0.0`.
    let mut data = test_data::random(50, 4, 3, 9);
    for (i, row) in data.x.iter_mut().enumerate() {
        for v in row.iter_mut() {
            *v = if i % 3 == 0 { 0.0 } else { *v - 3.0 };
        }
    }
    for hidden in SHAPES {
        for epochs in 1..=3 {
            assert_same(&data, hidden, epochs);
        }
    }
}
