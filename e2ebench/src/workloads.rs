//! The three workloads. They drive the same path and differ only in
//! traffic, so each one puts most of the work on one layer:
//!
//! - `report_stream` loads ingest: every individual sends several
//!   out-of-order reports per monthly window into a 1-shard fixed-window
//!   (Algorithm 1) engine that steps inline.
//! - `cumulative_panel` loads the engine: sparse 1-reports from a
//!   SIPP-like Markov panel into a long-horizon cumulative (Algorithm 2)
//!   release on 2 shards with shared noise, whose per-round cost grows
//!   with the round index.
//! - `rotating_replica` loads serving: a rotating panel of cumulative
//!   cohorts under windowed shared noise, a replica following the primary
//!   store by one incremental snapshot per round, and per-round merged and
//!   per-cohort batteries.

use std::sync::Arc;
use std::time::Instant;

use longsynth::padding::theorem_bound_counts;
use longsynth::{
    CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig, FixedWindowSynthesizer,
    PaddingPolicy,
};
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_dp::mechanisms::NoiseDistribution;
use longsynth_dp::rng::RngFork;
use longsynth_engine::{
    AggregationPolicy, EngineObserver, PanelSchedule, ShardPlan, ShardedEngine, SlotRole,
};
use longsynth_ingest::{
    BitRoundAssembler, IngestConfig, IngestTier, RoundAssembler, ScheduledBitRoundAssembler,
    WindowSpec,
};
use longsynth_obs::MetricsRegistry;
use longsynth_pool::WorkerPool;
use longsynth_queries::window::quarterly_battery;
use longsynth_serve::{QueryKind, QueryService, ServeQuery, StoreScope};

use crate::gen::{markov_panel, Markov};
use crate::pipeline::{self, Episode, Fault, Reports, Stack, Traffic};
use crate::reference::{threshold_counts, window_counts, ErrorCheck, RefStore};
use crate::trace::Tracer;

/// A 30-day month in ms: the tumbling window of every workload.
const MONTH_MS: i64 = 30 * 86_400_000;
/// Stream origin: late 2025 in Unix ms, so window arithmetic runs at real
/// epoch magnitudes.
const T0: i64 = 1_760_000_000_000;
/// Failure probability of the accuracy bounds for one episode.
const BETA: f64 = 1e-6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ReportStream,
    CumulativePanel,
    RotatingReplica,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "report_stream" => Some(Kind::ReportStream),
            "cumulative_panel" => Some(Kind::CumulativePanel),
            "rotating_replica" => Some(Kind::RotatingReplica),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReportStream => "report_stream",
            Kind::CumulativePanel => "cumulative_panel",
            Kind::RotatingReplica => "rotating_replica",
        }
    }
}

/// Input sizes and release parameters of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    /// Individuals (for a rotating panel: over all cohorts).
    pub individuals: usize,
    pub rounds: usize,
    pub reports: Reports,
    pub shards: usize,
    /// Rotating panel waves (membership window in rounds).
    pub waves: usize,
    /// Fixed-window width `k`.
    pub window: usize,
    pub rho: f64,
    pub chain: Markov,
}

impl Spec {
    pub fn new(kind: Kind, smoke: bool) -> Self {
        let sipp = Markov {
            start: 0.12,
            enter: 0.03,
            stay: 0.78,
        };
        match kind {
            Kind::ReportStream => Spec {
                kind,
                individuals: if smoke { 4_000 } else { 200_000 },
                rounds: 12,
                reports: Reports::Every(4),
                shards: 1,
                waves: 0,
                window: 3,
                rho: 0.05,
                chain: Markov {
                    start: 0.3,
                    enter: 0.2,
                    stay: 0.6,
                },
            },
            Kind::CumulativePanel => Spec {
                kind,
                individuals: if smoke { 6_000 } else { 100_000 },
                rounds: if smoke { 16 } else { 48 },
                reports: Reports::OnesOnly,
                shards: 2,
                waves: 0,
                window: 0,
                rho: 0.05,
                chain: sipp,
            },
            Kind::RotatingReplica => Spec {
                kind,
                // Divisible by the waves + rounds − 1 cohorts, so the
                // active population is constant (shared noise needs it).
                individuals: if smoke { 27 * 400 } else { 27 * 8_000 },
                rounds: 24,
                reports: Reports::OnesOnly,
                shards: 0,
                waves: 4,
                window: 0,
                rho: 0.05,
                chain: sipp,
            },
        }
    }

    fn window_spec(&self) -> WindowSpec {
        WindowSpec::tumbling(MONTH_MS, T0).expect("a month is a valid window")
    }

    fn schedule(&self) -> PanelSchedule {
        let policy = AggregationPolicy::shared();
        let cohorts = self.waves + self.rounds - 1;
        let (cohort_share, _) = policy.budget_shares(cohorts);
        PanelSchedule::rotating(
            self.individuals,
            self.rounds,
            self.waves,
            rho(self.rho * cohort_share),
            rho(self.rho),
        )
        .expect("valid rotating schedule")
    }
}

fn rho(value: f64) -> Rho {
    Rho::new(value).expect("positive budget")
}

/// The generated input: the column each round must seal to.
pub struct Input {
    pub expected: Vec<BitColumn>,
    pub generate_ms: f64,
}

pub fn generate(spec: &Spec, seed: u64) -> Input {
    let start = Instant::now();
    let panel = markov_panel(seed, spec.individuals, spec.rounds, spec.chain);
    let expected = match spec.kind {
        Kind::RotatingReplica => {
            // Round r seals the active cohorts' slices of the panel,
            // concatenated in cohort order.
            let schedule = spec.schedule();
            let sizes: Vec<usize> = (0..schedule.cohorts())
                .map(|c| schedule.cohort_size(c))
                .collect();
            let layout = ShardPlan::from_sizes(&sizes).expect("non-empty cohorts");
            (0..spec.rounds)
                .map(|r| {
                    let parts: Vec<BitColumn> = schedule
                        .active(r)
                        .into_iter()
                        .map(|c| panel[r].slice(layout.range(c)))
                        .collect();
                    BitColumn::concat(parts.iter())
                })
                .collect()
        }
        _ => panel,
    };
    Input {
        expected,
        generate_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Per-episode options.
pub struct Options {
    pub seed: u64,
    pub fault: Fault,
    pub tracer: Option<Arc<Tracer>>,
    /// Also measure the single-threaded binner baseline on this episode's
    /// stream (traced runs, once per run).
    pub baseline: bool,
}

/// One episode's outcome: measurements, named check results, and the
/// set-up time and per-layer instruments of the traced run.
pub struct Outcome {
    pub episode: Episode,
    pub setup_s: f64,
    pub checks: Vec<(&'static str, bool)>,
    pub snapshot_bytes: usize,
    pub registry: Option<MetricsRegistry>,
    pub binner_events_per_s: Option<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

fn slot_stream(role: SlotRole) -> u64 {
    match role {
        SlotRole::Shard(s) => s as u64,
        SlotRole::Population => 0xA110,
    }
}

pub fn run_episode(spec: &Spec, input: &Input, opts: &Options) -> Outcome {
    match spec.kind {
        Kind::ReportStream => report_stream(spec, input, opts),
        Kind::CumulativePanel => cumulative_panel(spec, input, opts),
        Kind::RotatingReplica => rotating_replica(spec, input, opts),
    }
}

/// Set-up shared by every workload: pool, primary service, optional
/// replica, and the traced run's registry with the engine observer and
/// pool instruments attached.
fn serving(
    replica: bool,
    traced: bool,
) -> (
    Arc<WorkerPool>,
    QueryService,
    Option<QueryService>,
    Option<MetricsRegistry>,
) {
    let pool = Arc::new(WorkerPool::new(pool_threads()));
    let registry = traced.then(MetricsRegistry::new);
    if let Some(registry) = &registry {
        pool.attach_metrics(registry);
    }
    let service = QueryService::new();
    let replica = replica.then(QueryService::new);
    (pool, service, replica, registry)
}

fn traffic<'a>(spec: &Spec, input: &'a Input, opts: &Options) -> Traffic<'a> {
    Traffic {
        expected: &input.expected,
        window: spec.window_spec(),
        reports: spec.reports,
        seed: opts.seed,
        fault: opts.fault,
    }
}

/// Drives one episode on a built stack and runs the checks every workload
/// shares: sealed inputs, event conservation, round completion, answers
/// against the popcount reference, and hits against misses.
fn drive<S, A>(
    spec: &Spec,
    input: &Input,
    opts: &Options,
    stack: &mut Stack<S>,
    tier: IngestTier<A>,
    battery: &(dyn Fn(usize) -> Vec<ServeQuery> + Sync),
    cohorts: usize,
) -> (Episode, Vec<(&'static str, bool)>)
where
    S: longsynth::ContinualSynthesizer<Input = BitColumn> + Send + 'static,
    S::Release: pipeline::Served + longsynth_engine::MergeRelease,
    S::Aggregate: longsynth_engine::MergeAggregate + Clone + Send + 'static,
    A: RoundAssembler<Payload = bool, Round = BitColumn>,
{
    let traffic = traffic(spec, input, opts);
    let mut ep = pipeline::run(stack, tier, &traffic, battery, opts.tracer.as_deref());
    if opts.fault == Fault::CorruptAnswer {
        if let Some(Ok(value)) = ep.answers.first().map(|a| a.cold.clone()) {
            ep.answers[0].cold = Ok(value + 1e-9);
        }
    }
    // The release copies move into the reference and are dropped with it,
    // so the run's peak RSS does not grow with its episode count.
    let reference = RefStore::from_rounds(std::mem::take(&mut ep.sink_rounds), cohorts);
    let answers_ok = !ep.answers.is_empty()
        && ep.answers.iter().all(|a| match (&a.cold, &a.hit) {
            (Ok(cold), Ok(hit)) => {
                reference.answer(&a.query).map(f64::to_bits) == Some(cold.to_bits())
                    && hit.to_bits() == cold.to_bits()
            }
            _ => false,
        });
    let (hits, misses) = stack.service.cache_stats();
    let checks = vec![
        ("sealed_inputs_match_truth", ep.input_mismatches.is_empty()),
        (
            "events_sealed_equal_sent",
            ep.events_sealed == ep.events_sent && ep.late_or_rejected == 0,
        ),
        (
            "rounds_complete",
            ep.rounds_ok == spec.rounds && ep.round_error.is_none(),
        ),
        ("answers_match_reference", answers_ok),
        (
            "hits_equal_misses",
            hits == misses && misses as usize == ep.answers.len(),
        ),
    ];
    (ep, checks)
}

fn budget_check(spent: Rho, target: f64) -> bool {
    (spent.value() - target).abs() <= 1e-9
}

fn report_stream(spec: &Spec, input: &Input, opts: &Options) -> Outcome {
    let (n, k, horizon) = (spec.individuals, spec.window, spec.rounds);
    let setup = Instant::now();
    let (pool, service, replica, registry) = serving(false, opts.tracer.is_some());
    let fork = RngFork::new(opts.seed);
    let mut config = FixedWindowConfig::new(horizon, k, rho(spec.rho))
        .expect("valid fixed-window parameters")
        .with_padding(PaddingPolicy::Recommended { beta: 0.05 });
    if opts.fault == Fault::NoNoise {
        config = config.with_noise_override(NoiseDistribution::None);
    }
    let mut engine = ShardedEngine::with_aggregation(
        ShardPlan::new(n, spec.shards).expect("valid plan"),
        AggregationPolicy::PerShardNoise,
        |slot| FixedWindowSynthesizer::new(config, fork.child(slot_stream(slot.role))),
    )
    .expect("valid engine");
    if let Some(registry) = &registry {
        engine.set_observer(EngineObserver::new(registry));
    }
    let mut stack = Stack::new(engine, pool, service, replica, opts.tracer.clone());
    let tier = IngestTier::new(
        IngestConfig::new(spec.window_spec()),
        BitRoundAssembler::new(n),
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let battery = |t: usize| -> Vec<ServeQuery> {
        if t + 1 < k {
            return Vec::new();
        }
        quarterly_battery(k)
            .into_iter()
            .map(|query| ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::Window { t, query },
            })
            .collect()
    };
    let (ep, mut checks) = drive(spec, input, opts, &mut stack, tier, &battery, spec.shards);

    // Theorem 3.2: max |p_s^t − (C_s^t + npad)| over the run, against the
    // bound, and against a floor of half the per-bin noise deviation.
    let synth = stack.engine.shard(0);
    let npad = synth.npad() as f64;
    let mut worst = 0.0f64;
    for t in k - 1..horizon {
        let truth = window_counts(&input.expected, t, k);
        if let Ok(estimate) = synth.histogram_estimate(t) {
            for (&p, &c) in estimate.iter().zip(&truth) {
                worst = worst.max((p as f64 - (c as f64 + npad)).abs());
            }
        }
    }
    let accuracy = ErrorCheck {
        worst,
        floor: 0.5 * ((horizon - k + 1) as f64 / (2.0 * spec.rho)).sqrt(),
        bound: theorem_bound_counts(horizon, k, rho(spec.rho), BETA),
    };
    checks.push(("error_within_bound_and_above_floor", accuracy.passes()));
    checks.push((
        "budget_spent_matches_rho",
        budget_check(stack.engine.budget().spent(), spec.rho),
    ));
    finish(
        spec,
        input,
        opts,
        ep,
        stack,
        checks,
        setup_s,
        registry,
        || BitRoundAssembler::new(n),
    )
}

/// Worst threshold-count error of a cumulative synthesizer against the
/// true counts of `truth`, with its Corollary B.1 tree bound.
fn cumulative_error(synth: &CumulativeSynthesizer, truth: &[BitColumn]) -> (f64, f64) {
    let mut worst = 0.0f64;
    for t in 0..truth.len() {
        let counts = threshold_counts(truth, t);
        let estimate = synth.threshold_estimates(t).expect("released round");
        for (&released, &exact) in estimate[1..=t + 1].iter().zip(&counts[1..=t + 1]) {
            worst = worst.max((released - exact as i64).abs() as f64);
        }
    }
    let horizon = synth.config().horizon as f64;
    (worst, synth.error_bound_counts(BETA / horizon))
}

/// Accuracy over several synthesizers: each worst error within its own
/// bound, and the largest worst error above the noise floor of the
/// largest per-synthesizer budget (half the deviation of one Gaussian
/// release of a count at that budget), which a release without noise
/// cannot reach.
fn cumulative_checks<'a>(
    parts: impl IntoIterator<Item = (&'a CumulativeSynthesizer, Vec<BitColumn>)>,
) -> bool {
    let mut worst_all = 0.0f64;
    let mut max_rho = 0.0f64;
    let mut within = true;
    for (synth, truth) in parts {
        let (worst, bound) = cumulative_error(synth, &truth);
        within &= worst <= bound;
        worst_all = worst_all.max(worst);
        max_rho = max_rho.max(synth.config().rho.value());
    }
    within && worst_all >= 0.5 / (2.0 * max_rho).sqrt()
}

fn cumulative_factory(
    fork: RngFork,
    horizon: usize,
    total: f64,
) -> impl FnMut(longsynth_engine::SynthSlot) -> CumulativeSynthesizer {
    move |slot| {
        let config = CumulativeConfig::new(horizon, rho(total * slot.budget_share))
            .expect("valid cumulative parameters");
        let stream = slot_stream(slot.role);
        CumulativeSynthesizer::new(config, fork.subfork(stream), fork.child(0x0C00 + stream))
    }
}

fn cumulative_panel(spec: &Spec, input: &Input, opts: &Options) -> Outcome {
    let (n, horizon) = (spec.individuals, spec.rounds);
    let setup = Instant::now();
    let (pool, service, replica, registry) = serving(false, opts.tracer.is_some());
    let plan = ShardPlan::new(n, spec.shards).expect("valid plan");
    let mut engine = ShardedEngine::with_aggregation_and_pool(
        plan.clone(),
        AggregationPolicy::shared(),
        cumulative_factory(RngFork::new(opts.seed), horizon, spec.rho),
        Arc::clone(&pool),
    )
    .expect("valid engine");
    if let Some(registry) = &registry {
        engine.set_observer(EngineObserver::new(registry));
    }
    let mut stack = Stack::new(engine, pool, service, replica, opts.tracer.clone());
    let tier = IngestTier::new(
        IngestConfig::new(spec.window_spec()),
        BitRoundAssembler::new(n),
    );
    let setup_s = setup.elapsed().as_secs_f64();

    // Two merged thresholds per round: a cold query costs O(n·t), so a
    // larger battery would out-weigh the engine on this workload.
    let shards = spec.shards;
    let battery = move |t: usize| -> Vec<ServeQuery> {
        [1, 3]
            .into_iter()
            .filter(|&b| b <= t + 1)
            .map(|b| ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t, b },
            })
            .collect()
    };
    let (ep, mut checks) = drive(spec, input, opts, &mut stack, tier, &battery, shards);

    let engine = &stack.engine;
    let slices = |s: usize| -> Vec<BitColumn> {
        input
            .expected
            .iter()
            .map(|column| column.slice(plan.range(s)))
            .collect()
    };
    let population = engine
        .population_synthesizer()
        .map(|synth| (synth, input.expected.clone()));
    let parts = population
        .into_iter()
        .chain((0..shards).map(|s| (engine.shard(s), slices(s))));
    checks.push((
        "error_within_bound_and_above_floor",
        cumulative_checks(parts),
    ));
    checks.push((
        "budget_spent_matches_rho",
        budget_check(engine.budget().spent(), spec.rho),
    ));
    finish(
        spec,
        input,
        opts,
        ep,
        stack,
        checks,
        setup_s,
        registry,
        || BitRoundAssembler::new(n),
    )
}

fn rotating_replica(spec: &Spec, input: &Input, opts: &Options) -> Outcome {
    let horizon = spec.rounds;
    let setup = Instant::now();
    let (pool, service, replica, registry) = serving(true, opts.tracer.is_some());
    let schedule = spec.schedule();
    let fork = RngFork::new(opts.seed);
    let waves = spec.waves;
    let mut engine = ShardedEngine::with_schedule_and_pool(
        schedule.clone(),
        AggregationPolicy::shared(),
        move |slot| {
            let config =
                CumulativeConfig::new(slot.horizon, slot.budget).expect("schedule-validated slot");
            // The population slot runs the windowed release mode, bounded
            // by the wave length.
            let config = match slot.role {
                SlotRole::Population => config.with_window(waves).expect("waves fit the horizon"),
                SlotRole::Shard(_) => config,
            };
            let stream = slot_stream(slot.role);
            CumulativeSynthesizer::new(config, fork.subfork(stream), fork.child(0x0C00 + stream))
        },
        Arc::clone(&pool),
    )
    .expect("valid engine");
    if let Some(registry) = &registry {
        engine.set_observer(EngineObserver::new(registry));
    }
    let mut stack = Stack::new(engine, pool, service, replica, opts.tracer.clone());
    let sizes: Vec<usize> = (0..horizon)
        .map(|r| schedule.active_population(r))
        .collect();
    let assembler = ScheduledBitRoundAssembler::new(sizes.clone());
    let tier = IngestTier::new(IngestConfig::new(spec.window_spec()), assembler);
    let setup_s = setup.elapsed().as_secs_f64();

    let battery = |t: usize| -> Vec<ServeQuery> {
        let merged = (1..=waves.min(t + 1)).map(|b| (StoreScope::Merged, b));
        let cohorts = schedule
            .active(t)
            .into_iter()
            .map(|c| (StoreScope::Cohort(c), 1));
        merged
            .chain(cohorts)
            .map(|(scope, b)| ServeQuery {
                scope,
                kind: QueryKind::CumulativeFraction { t, b },
            })
            .collect()
    };
    let (ep, mut checks) = drive(
        spec,
        input,
        opts,
        &mut stack,
        tier,
        &battery,
        schedule.cohorts(),
    );

    // After the last delta the replica must answer the whole battery bit
    // for bit like the primary store.
    let replica = stack
        .replica
        .as_ref()
        .expect("rotating_replica has a replica");
    let identical = ep.delta_errors == 0 && (0..horizon).flat_map(&battery).all(|query| {
        let primary = stack.service.with_store(|store| store.answer(&query));
        matches!((primary, replica.answer(&query)), (Ok(a), Ok(b)) if a.to_bits() == b.to_bits())
    });
    checks.push(("replica_matches_primary", identical));

    // Cohort-level accuracy: each cohort's release over its own window
    // against its slice of the sealed inputs.
    let engine = &stack.engine;
    let cohort_truth = |c: usize| -> Vec<BitColumn> {
        let window = schedule.cohort(c).window();
        window
            .map(|r| {
                let layout = schedule.active_layout(r).expect("valid layout");
                let position = schedule
                    .active(r)
                    .iter()
                    .position(|&a| a == c)
                    .expect("cohort active in its window");
                input.expected[r].slice(layout.range(position))
            })
            .collect()
    };
    let parts = (0..schedule.cohorts()).map(|c| (engine.shard(c), cohort_truth(c)));
    checks.push((
        "error_within_bound_and_above_floor",
        cumulative_checks(parts),
    ));
    checks.push((
        "budget_spent_matches_cap",
        budget_check(engine.budget().spent(), schedule.total_budget().value()),
    ));
    finish(
        spec,
        input,
        opts,
        ep,
        stack,
        checks,
        setup_s,
        registry,
        move || ScheduledBitRoundAssembler::new(sizes.clone()),
    )
}

#[allow(clippy::too_many_arguments)]
fn finish<S: longsynth::ContinualSynthesizer, A: RoundAssembler<Payload = bool>>(
    spec: &Spec,
    input: &Input,
    opts: &Options,
    episode: Episode,
    stack: Stack<S>,
    checks: Vec<(&'static str, bool)>,
    setup_s: f64,
    registry: Option<MetricsRegistry>,
    assembler: impl FnOnce() -> A,
) -> Outcome {
    let snapshot_bytes = stack.service.snapshot_json().len();
    let (cache_hits, cache_misses) = stack.service.cache_stats();
    let binner_events_per_s = opts
        .baseline
        .then(|| pipeline::binner_baseline(&traffic(spec, input, opts), assembler()));
    Outcome {
        episode,
        setup_s,
        checks,
        snapshot_bytes,
        registry,
        binner_events_per_s,
        cache_hits,
        cache_misses,
    }
}
