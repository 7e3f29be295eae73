//! The benchmark's own input generator: a seeded SplitMix64 stream and a
//! two-state Markov panel. It shares no code with the program's data
//! generators, so the truth columns it yields are an independent
//! reference for what the ingest tier must seal.

use longsynth_data::BitColumn;

/// SplitMix64: tiny, fast, and identical on every platform.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The SplitMix64 finalizer, used as a stateless hash for per-event
/// jitter so the producer needs no shared RNG state.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a tuple of event coordinates.
pub fn hash4(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(seed ^ a).wrapping_add(b)).wrapping_add(c))
}

/// Transition probabilities of a two-state (0 = out, 1 = in) chain, in the
/// style of SIPP monthly poverty spells: rare entries, sticky spells.
#[derive(Clone, Copy, Debug)]
pub struct Markov {
    pub start: f64,
    pub enter: f64,
    pub stay: f64,
}

/// `rounds` columns of `individuals` bits: individual `i` follows the
/// chain independently of everyone else.
pub fn markov_panel(seed: u64, individuals: usize, rounds: usize, chain: Markov) -> Vec<BitColumn> {
    let mut rng = SplitMix::new(seed);
    let mut state: Vec<bool> = (0..individuals).map(|_| rng.chance(chain.start)).collect();
    let mut columns = Vec::with_capacity(rounds);
    for round in 0..rounds {
        if round > 0 {
            for bit in state.iter_mut() {
                *bit = rng.chance(if *bit { chain.stay } else { chain.enter });
            }
        }
        columns.push(BitColumn::from_bools(&state));
    }
    columns
}
