//! Independent references the benchmark checks the program against.
//!
//! Answers are recomputed by word-level popcounts over the release columns
//! the engine handed to its sink, never by calling the program's query
//! code. The final arithmetic (weights × counts, size-weighted cohort
//! means) follows the documented formulas in the same order, so a correct
//! answer matches bit for bit.

use longsynth_data::BitColumn;
use longsynth_serve::{QueryKind, ServeQuery, StoreScope};

/// One round as the engine's release sink saw it.
pub struct SinkRound {
    /// Ascending active cohorts (`None` for a static lockstep round).
    pub active: Option<Vec<usize>>,
    /// Released columns of each participating cohort, in order.
    pub per_cohort: Vec<Vec<BitColumn>>,
    /// Released columns of the merged scope.
    pub merged: Vec<BitColumn>,
}

/// A reference copy of the serving store, rebuilt from sink rounds.
pub struct RefStore {
    dynamic: bool,
    merged: Vec<BitColumn>,
    cohorts: Vec<Vec<BitColumn>>,
    entries: Vec<Option<usize>>,
}

impl RefStore {
    pub fn from_rounds(rounds: Vec<SinkRound>, cohorts: usize) -> Self {
        let mut store = Self {
            dynamic: rounds.iter().any(|r| r.active.is_some()),
            merged: Vec::new(),
            cohorts: vec![Vec::new(); cohorts],
            entries: vec![None; cohorts],
        };
        for (t, round) in rounds.into_iter().enumerate() {
            store.merged.extend(round.merged);
            let ids: Vec<usize> = match round.active {
                Some(active) => active,
                None => (0..round.per_cohort.len()).collect(),
            };
            for (c, columns) in ids.into_iter().zip(round.per_cohort) {
                if store.entries[c].is_none() && !columns.is_empty() {
                    store.entries[c] = Some(t);
                }
                store.cohorts[c].extend(columns);
            }
        }
        store
    }

    /// The reference answer, or `None` when the store cannot answer.
    pub fn answer(&self, query: &ServeQuery) -> Option<f64> {
        let t = query.kind.round();
        let width = match &query.kind {
            QueryKind::Window { query, .. } => query.width(),
            QueryKind::Pattern { pattern, .. } => pattern.width(),
            QueryKind::CumulativeFraction { .. } => 1,
        };
        if !self.dynamic {
            let panel = match query.scope {
                StoreScope::Merged => &self.merged,
                StoreScope::Cohort(c) => self.cohorts.get(c)?,
            };
            return (t < panel.len() && t + 1 >= width).then(|| evaluate(panel, t, &query.kind));
        }
        let local = |c: usize| -> Option<usize> {
            let entry = self.entries[c]?;
            let covered = entry..entry + self.cohorts[c].len();
            (covered.contains(&t) && t + 1 >= width + entry).then_some(t - entry)
        };
        match query.scope {
            StoreScope::Cohort(c) => Some(evaluate(&self.cohorts[c], local(c)?, &query.kind)),
            StoreScope::Merged => {
                let mut numerator = 0.0;
                let mut denominator = 0usize;
                for c in 0..self.cohorts.len() {
                    if let Some(l) = local(c) {
                        let size = self.cohorts[c][0].len();
                        numerator += evaluate(&self.cohorts[c], l, &query.kind) * size as f64;
                        denominator += size;
                    }
                }
                (denominator > 0).then(|| numerator / denominator as f64)
            }
        }
    }
}

fn evaluate(panel: &[BitColumn], t: usize, kind: &QueryKind) -> f64 {
    let n = panel[0].len() as f64;
    match kind {
        QueryKind::CumulativeFraction { b, .. } => {
            threshold_counts(panel, t).get(*b).copied().unwrap_or(0) as f64 / n
        }
        QueryKind::Window { query, .. } => {
            let hist = window_counts(panel, t, query.width());
            let total: f64 = query
                .weights()
                .iter()
                .zip(&hist)
                .map(|(w, &c)| w * c as f64)
                .sum();
            total / n
        }
        QueryKind::Pattern { pattern, .. } => {
            window_counts(panel, t, pattern.width())[pattern.code() as usize] as f64 / n
        }
    }
}

/// `S_b^t` for `b = 0..=t+1`: records with at least `b` ones in rounds
/// `0..=t`, from a per-record set-bit walk.
pub fn threshold_counts(panel: &[BitColumn], t: usize) -> Vec<u64> {
    let n = panel[0].len();
    let mut weight = vec![0u32; n];
    for column in &panel[..=t] {
        for (w, &word) in column.as_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                weight[w * 64 + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
    }
    let mut by_weight = vec![0u64; t + 2];
    for w in weight {
        by_weight[w as usize] += 1;
    }
    let mut counts = vec![0u64; t + 2];
    let mut acc = 0;
    for b in (0..t + 2).rev() {
        acc += by_weight[b];
        counts[b] = acc;
    }
    counts
}

/// Window-pattern counts at round `t` over width `k` (oldest round is the
/// most significant pattern bit), by popcounts of masked word ANDs.
pub fn window_counts(panel: &[BitColumn], t: usize, k: usize) -> Vec<u64> {
    let n = panel[0].len();
    let columns = &panel[t + 1 - k..=t];
    let words = n.div_ceil(64);
    let tail = if n.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (n % 64)) - 1
    };
    (0..1usize << k)
        .map(|pattern| {
            (0..words)
                .map(|w| {
                    let mut acc = if w + 1 == words { tail } else { u64::MAX };
                    for (j, column) in columns.iter().enumerate() {
                        let word = column.as_words()[w];
                        let bit = (pattern >> (k - 1 - j)) & 1 == 1;
                        acc &= if bit { word } else { !word };
                    }
                    u64::from(acc.count_ones())
                })
                .sum()
        })
        .collect()
}

/// Worst absolute error of released counts against true counts, and
/// whether it lies in `[floor, bound]`.
#[derive(Clone, Copy, Debug)]
pub struct ErrorCheck {
    pub worst: f64,
    pub floor: f64,
    pub bound: f64,
}

impl ErrorCheck {
    pub fn passes(&self) -> bool {
        self.worst >= self.floor && self.worst <= self.bound
    }
}
