//! Small datasets for the training kernels' differential tests.

use exec::rng::StdRng;

use crate::data::Dataset;

/// `rows × features` uniform features over `classes` labels, with a few
/// exact `+0.0`/`-0.0` entries so signed zeros reach every sum.
pub(crate) fn random(rows: usize, features: usize, classes: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = (0..rows)
        .map(|_| {
            (0..features)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect()
        })
        .collect();
    let y = (0..rows).map(|r| r % classes).collect();
    Dataset::new("kernel", x, y, classes)
}
