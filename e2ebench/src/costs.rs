//! `--costs`: re-measures the shapes of three costs the workloads are
//! built to expose, each at three sizes so the growth rate shows:
//!
//! 1. `restore_json` / `apply_delta_json` against snapshot size (the JSON
//!    string parser re-validates the remaining input per character, so
//!    time grows with the square of the size);
//! 2. `CumulativeSynthesizer::prepare` against the round index (each round
//!    recomputes every threshold's prefix weights, O(n·t²));
//! 3. a cold `QueryService::answer` against the round index (O(n·t)).

use std::time::Instant;

use longsynth::{CumulativeConfig, CumulativeSynthesizer};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::RngFork;
use longsynth_serve::{QueryKind, QueryService, ReleaseStore, ServeQuery, StoreScope};

use crate::gen::{markov_panel, Markov};

const CHAIN: Markov = Markov {
    start: 0.12,
    enter: 0.03,
    stay: 0.78,
};

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A static one-cohort store of `records` × `rounds`.
fn store(records: usize, rounds: usize) -> ReleaseStore {
    let mut store = ReleaseStore::new();
    for column in markov_panel(3, records, rounds, CHAIN) {
        store
            .ingest_columns(std::slice::from_ref(&column), &column)
            .expect("lockstep rounds");
    }
    store
}

pub fn run() {
    println!("# restore_json and apply_delta_json against snapshot size (12 rounds)");
    for records in [20_000, 40_000, 80_000] {
        let full = store(records, 12);
        let json = full.to_snapshot_json();
        let start = Instant::now();
        let restored = ReleaseStore::from_snapshot_json(&json).expect("own snapshot restores");
        let restore_ms = ms(start);
        assert!(restored == full, "restore must be lossless");
        let mut base = store(records, 11);
        let delta = full.to_delta_json(11).expect("base is a prefix");
        let start = Instant::now();
        base.apply_delta_json(&delta).expect("delta applies");
        let apply_ms = ms(start);
        println!(
            "records {records:>6}: snapshot {:>7.1} KiB restore {restore_ms:>9.1} ms | \
             one-round delta {:>6.1} KiB apply {apply_ms:>7.1} ms",
            json.len() as f64 / 1024.0,
            delta.len() as f64 / 1024.0,
        );
    }

    println!("# CumulativeSynthesizer::prepare against the round index (n = 200000, T = 48)");
    let n = 200_000;
    let panel = markov_panel(5, n, 48, CHAIN);
    let config = CumulativeConfig::new(48, Rho::new(0.05).expect("positive")).expect("valid");
    let fork = RngFork::new(5);
    let mut synth = CumulativeSynthesizer::new(config, fork.subfork(0), fork.child(1));
    for (t, column) in panel.iter().enumerate() {
        let start = Instant::now();
        let aggregate = synth.prepare(column).expect("column fits");
        let prepare_ms = ms(start);
        synth.finalize(aggregate).expect("round finalizes");
        if [0, 11, 23, 47].contains(&t) {
            println!("round {t:>2}: prepare {prepare_ms:>8.2} ms");
        }
    }

    println!("# cold QueryService::answer (c_1^t, merged) against the round index (n = 200000)");
    let service = QueryService::from_store(store(n, 48));
    for t in [11, 23, 47] {
        let query = ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t, b: 1 },
        };
        let start = Instant::now();
        std::hint::black_box(service.answer(&query).expect("released round"));
        println!("round {t:>2}: cold answer {:>7.2} ms", ms(start));
    }
}
