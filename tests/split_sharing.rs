//! `Application::split` shares each `(application, seed)` dataset from
//! the cache's memory tier: with the cache on, a split is generated once
//! per process and every later call gets a copy, bit for bit what the
//! protocol computes (`generate(seed).split(0.7, 42)`).
//!
//! It lives in its own test binary because the cache configuration is
//! process-global.

use printed_ml::cache;
use printed_ml::ml::data::Dataset;
use printed_ml::ml::synth::Application;
use printed_ml::obs;

/// Datasets generated so far in this process.
fn generated() -> u64 {
    obs::report().counter("ml.synth.datasets")
}

/// Asserts `a` and `b` hold the same rows to the bit.
fn assert_same_bits(a: &Dataset, b: &Dataset) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.n_classes, b.n_classes);
    assert_eq!(a.y, b.y, "{}: labels differ", a.name);
    let bits = |d: &Dataset| -> Vec<Vec<u64>> {
        d.x.iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert!(bits(a) == bits(b), "{}: feature bits differ", a.name);
}

#[test]
fn splits_are_generated_once_per_application_and_seed() {
    obs::set_enabled(true);
    cache::set_disk_root(None);
    cache::set_enabled(true);
    cache::clear_memory();

    let start = generated();
    let shared: Vec<_> = Application::ALL.map(|app| app.split(7)).into();
    assert_eq!(generated() - start, 7, "one generation per application");

    for (app, (train, test)) in Application::ALL.into_iter().zip(&shared) {
        let (want_train, want_test) = app.generate(7).split(0.7, 42);
        assert_same_bits(train, &want_train);
        assert_same_bits(test, &want_test);
    }

    let before = generated();
    for (app, (train, test)) in Application::ALL.into_iter().zip(&shared) {
        let (again_train, again_test) = app.split(7);
        assert_same_bits(&again_train, train);
        assert_same_bits(&again_test, test);
    }
    assert_eq!(generated(), before, "a shared split was generated again");

    // Another seed is another entry.
    let (other, _) = Application::Cardio.split(11);
    assert_eq!(generated(), before + 1, "seed 11 was served seed 7's split");
    assert!(other != shared[1].0, "seeds 7 and 11 gave one dataset");

    cache::set_enabled(false);
    cache::clear_memory();
}
