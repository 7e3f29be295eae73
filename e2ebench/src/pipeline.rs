//! One episode of the whole path, shared by every workload:
//!
//! ```text
//! producer thread ─▶ IngestTier queue ─▶ SealedRounds::next ─▶ IngestDriver::on_sealed
//!                                        (consumer thread)     └─▶ engine ─▶ TimedSink ─▶ QueryService
//!                                                              then replica delta, then the analyst
//! ```
//!
//! Every layer is timed from outside, around the calls into its public
//! functions. The producer is closed-loop: it sends as fast as the bounded
//! queue admits. The analyst is one closed-loop client: once a round is
//! answerable it sends that round's battery cold, one query at a time,
//! then once more as a cached batch on the serving pool. It runs on the
//! consumer's thread between rounds, so no more threads are busy at once
//! than the two cores the benchmark is sized for (producer and consumer,
//! or the pool's workers while the consumer waits on them).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use longsynth::{ContinualSynthesizer, Release};
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_engine::{IngestDriver, PolicyTag, ReleaseSink, ShardedEngine};
use longsynth_ingest::{Event, IngestTier, LatePolicy, RoundAssembler, WindowBinner, WindowSpec};
use longsynth_pool::WorkerPool;
use longsynth_queries::cumulative::cumulative_fraction;
use longsynth_queries::WindowQuery;
use longsynth_serve::{QueryKind, QueryService, ServeQuery, StoreScope};

use crate::gen::{hash4, SplitMix};
use crate::reference::SinkRound;
use crate::trace::{timed, SpanId, Tracer};

/// Events per `send_batch` call.
pub const BATCH: usize = 4096;

/// How the producer turns a round's truth column into events.
#[derive(Clone, Copy, Debug)]
pub enum Reports {
    /// Only individuals whose bit is 1 send, exactly one event each.
    OnesOnly,
    /// Every individual sends `m` reports in shuffled order with
    /// out-of-order timestamps; the last one sent carries the truth bit,
    /// earlier ones carry noise (the assembler keeps the last write).
    Every(usize),
}

/// A fault the smoke self-tests inject to show that a check catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// The producer counts one event as sent but never sends it.
    DropEvent,
    /// One served answer is perturbed before the reference check.
    CorruptAnswer,
    /// The synthesizer releases without noise.
    NoNoise,
}

/// Release types the serving store accepts, and their columns.
pub trait Served: Clone + Send + 'static {
    fn sink(service: &QueryService) -> Box<dyn ReleaseSink<Self>>;
    fn columns(&self) -> Vec<BitColumn>;
}

impl Served for BitColumn {
    fn sink(service: &QueryService) -> Box<dyn ReleaseSink<Self>> {
        service.column_sink()
    }
    fn columns(&self) -> Vec<BitColumn> {
        vec![self.clone()]
    }
}

impl Served for Release {
    fn sink(service: &QueryService) -> Box<dyn ReleaseSink<Self>> {
        service.release_sink()
    }
    fn columns(&self) -> Vec<BitColumn> {
        match self {
            Release::Buffered => Vec::new(),
            Release::Initial(columns) => columns.clone(),
            Release::Update(column) => vec![column.clone()],
        }
    }
}

#[derive(Default)]
struct SinkLog {
    last_write_ms: f64,
    rounds: Vec<SinkRound>,
    /// The enclosing `engine.on_sealed` span of the round in flight.
    parent: Option<SpanId>,
}

/// Delegates to the serving sink, timing only the delegated call, and
/// keeps a copy of every release for the reference check.
struct TimedSink<R> {
    inner: Box<dyn ReleaseSink<R>>,
    log: Arc<Mutex<SinkLog>>,
    tracer: Option<Arc<Tracer>>,
}

impl<R: Served> TimedSink<R> {
    fn write(&mut self, round: usize, f: impl FnOnce(&mut dyn ReleaseSink<R>)) -> f64 {
        let parent = self
            .log
            .lock()
            .expect("sink log lock never poisoned")
            .parent;
        let inner = &mut *self.inner;
        timed(
            self.tracer.as_deref(),
            "serve.store_write",
            parent,
            Some(round),
            |_| f(inner),
        )
        .1
    }

    fn record(&self, ms: f64, active: Option<&[usize]>, per_shard: &[R], merged: &R) {
        let mut log = self.log.lock().expect("sink log lock never poisoned");
        log.last_write_ms = ms;
        log.rounds.push(SinkRound {
            active: active.map(<[usize]>::to_vec),
            per_cohort: per_shard.iter().map(Served::columns).collect(),
            merged: merged.columns(),
        });
    }
}

impl<R: Served> ReleaseSink<R> for TimedSink<R> {
    fn on_round(&mut self, round: usize, per_shard: &[R], merged: &R, policy: PolicyTag) {
        let ms = self.write(round, |inner| {
            inner.on_round(round, per_shard, merged, policy)
        });
        self.record(ms, None, per_shard, merged);
    }

    fn on_round_active(
        &mut self,
        round: usize,
        cohorts: usize,
        active: &[usize],
        per_shard: &[R],
        merged: &R,
        policy: PolicyTag,
    ) {
        let ms = self.write(round, |inner| {
            inner.on_round_active(round, cohorts, active, per_shard, merged, policy)
        });
        self.record(ms, Some(active), per_shard, merged);
    }
}

/// Everything one episode runs on besides the ingest tier, built during
/// set-up.
pub struct Stack<S: ContinualSynthesizer> {
    pub engine: ShardedEngine<S>,
    pub pool: Arc<WorkerPool>,
    pub service: QueryService,
    pub replica: Option<QueryService>,
    log: Arc<Mutex<SinkLog>>,
}

impl<S> Stack<S>
where
    S: ContinualSynthesizer,
    S::Release: Served,
{
    /// Attaches the timed serving sink to `engine`.
    pub fn new(
        mut engine: ShardedEngine<S>,
        pool: Arc<WorkerPool>,
        service: QueryService,
        replica: Option<QueryService>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let log = Arc::new(Mutex::new(SinkLog::default()));
        engine.set_sink(Box::new(TimedSink {
            inner: S::Release::sink(&service),
            log: Arc::clone(&log),
            tracer,
        }));
        Self {
            engine,
            pool,
            service,
            replica,
            log,
        }
    }
}

/// A served answer: the query, its cold (miss) value and its cached value.
pub struct Answer {
    pub query: ServeQuery,
    pub cold: Result<f64, String>,
    pub hit: Result<f64, String>,
}

/// What one episode measured and returned.
#[derive(Default)]
pub struct Episode {
    pub events_sent: u64,
    pub events_sealed: u64,
    pub late_or_rejected: u64,
    pub peak_queue_depth: usize,
    pub rounds_ok: usize,
    pub round_error: Option<String>,
    pub wall_s: f64,
    pub release_ms: Vec<f64>,
    pub next_ms: Vec<f64>,
    pub send_blocked_ms: f64,
    pub engine_ms: Vec<f64>,
    pub store_write_ms: Vec<f64>,
    pub delta_render_ms: Vec<f64>,
    pub delta_apply_ms: Vec<f64>,
    pub delta_kb: Vec<f64>,
    pub delta_errors: usize,
    pub cold_ms: Vec<f64>,
    pub hit_us: Vec<f64>,
    pub eval_ms: Vec<f64>,
    pub answers: Vec<Answer>,
    pub sink_rounds: Vec<SinkRound>,
    pub input_mismatches: Vec<usize>,
}

pub struct Traffic<'a> {
    pub expected: &'a [BitColumn],
    pub window: WindowSpec,
    pub reports: Reports,
    pub seed: u64,
    pub fault: Fault,
}

/// Streams every round of `traffic` through `stack` and returns the
/// episode's measurements. `battery(t)` is the analyst's query battery
/// for round `t`.
pub fn run<S, A>(
    stack: &mut Stack<S>,
    tier: IngestTier<A>,
    traffic: &Traffic<'_>,
    battery: &(dyn Fn(usize) -> Vec<ServeQuery> + Sync),
    tracer: Option<&Tracer>,
) -> Episode
where
    S: ContinualSynthesizer<Input = BitColumn> + Send + 'static,
    S::Release: Served + longsynth_engine::MergeRelease,
    S::Aggregate: longsynth_engine::MergeAggregate + Clone + Send + 'static,
    A: RoundAssembler<Payload = bool, Round = BitColumn>,
{
    let rounds = traffic.expected.len();
    let producer = tier.producer();
    let mut sealed_rounds = tier.into_rounds().with_min_rounds(rounds as u64);
    let mut ep = Episode::default();
    let mut answerable = Vec::with_capacity(rounds);

    let (handoffs, started, send_blocked_ms, events_sent) = std::thread::scope(|s| {
        let feeder = s.spawn(move || produce(producer, traffic, tracer));
        {
            let mut driver = IngestDriver::new(&mut stack.engine);
            for t in 0..=rounds {
                let root = tracer.map(|tr| tr.open("round", None, Some(t)));
                let (sealed, next_ms) = timed(tracer, "ingest.next", root, Some(t), |_| {
                    sealed_rounds.next()
                });
                let Some(sealed) = sealed else {
                    if let (Some(tr), Some(id)) = (tracer, root) {
                        tr.close(id);
                    }
                    break;
                };
                ep.next_ms.push(next_ms);
                if traffic.expected.get(t) != Some(&sealed.input) {
                    ep.input_mismatches.push(t);
                }
                let (stepped, step_ms) = timed(tracer, "engine.on_sealed", root, Some(t), |id| {
                    stack
                        .log
                        .lock()
                        .expect("sink log lock never poisoned")
                        .parent = id;
                    driver.on_sealed(&sealed)
                });
                if let Err(e) = stepped {
                    ep.round_error = Some(format!("round {t}: {e}"));
                    break;
                }
                let write_ms = stack
                    .log
                    .lock()
                    .expect("sink log lock never poisoned")
                    .last_write_ms;
                ep.engine_ms.push(step_ms - write_ms);
                ep.store_write_ms.push(write_ms);
                if let Some(replica) = &stack.replica {
                    replicate(&stack.service, replica, t, root, tracer, &mut ep);
                }
                answerable.push(Instant::now());
                ep.rounds_ok += 1;
                analyse(
                    &stack.service,
                    &stack.pool,
                    t,
                    battery,
                    root,
                    tracer,
                    &mut ep,
                );
                if let (Some(tr), Some(id)) = (tracer, root) {
                    tr.close(id);
                }
            }
        }
        let stats = sealed_rounds.stats();
        ep.events_sealed = stats.events;
        ep.late_or_rejected = stats.late_events + stats.rejected_events;
        ep.peak_queue_depth = stats.peak_queue_depth;
        // Dropping the consumer unblocks a producer stuck on a failed run.
        drop(sealed_rounds);
        feeder.join().expect("producer thread panicked")
    });
    ep.events_sent = events_sent;
    ep.send_blocked_ms = send_blocked_ms;
    ep.wall_s = answerable
        .last()
        .map_or(0.0, |end| end.duration_since(started).as_secs_f64());
    ep.release_ms = handoffs
        .iter()
        .zip(&answerable)
        .map(|(h, a)| a.duration_since(*h).as_secs_f64() * 1e3)
        .collect();
    let log = std::mem::take(&mut *stack.log.lock().expect("sink log lock never poisoned"));
    ep.sink_rounds = log.rounds;
    ep
}

/// The producer: returns each round's hand-off instant (just before the
/// closing heartbeat), the first-send instant, the time spent inside
/// `send_batch`, and the events it counts as sent.
fn produce(
    producer: longsynth_ingest::EventProducer<bool>,
    traffic: &Traffic<'_>,
    tracer: Option<&Tracer>,
) -> (Vec<Instant>, Instant, f64, u64) {
    let started = Instant::now();
    let mut handoffs = Vec::with_capacity(traffic.expected.len());
    let mut blocked_ms = 0.0;
    let mut sent = 0u64;
    let mut batch = Vec::with_capacity(BATCH);
    let flush = |batch: &mut Vec<Event<bool>>, round: usize, blocked_ms: &mut f64| {
        let full = std::mem::replace(batch, Vec::with_capacity(BATCH));
        let (result, ms) = timed(tracer, "ingest.send_batch", None, Some(round), |_| {
            producer.send_batch(full)
        });
        *blocked_ms += ms;
        result.is_ok()
    };
    for round in 0..traffic.expected.len() {
        let mut open = true;
        round_events(traffic, round, |event| {
            sent += 1;
            // The dropped-event self-test: counted as sent, never sent.
            if traffic.fault == Fault::DropEvent && round == 1 && sent.is_multiple_of(97) {
                return true;
            }
            batch.push(event);
            open = batch.len() < BATCH || flush(&mut batch, round, &mut blocked_ms);
            open
        });
        if !open || (!batch.is_empty() && !flush(&mut batch, round, &mut blocked_ms)) {
            break;
        }
        handoffs.push(Instant::now());
        producer.heartbeat(traffic.window.window(round as u64).close);
    }
    (handoffs, started, blocked_ms, sent)
}

/// Emits round `round`'s events in send order until `emit` returns false.
/// One SplitMix draw per event supplies its timestamp jitter (and, for an
/// early report, its noise payload), so generating the stream costs the
/// producer little next to sending it.
pub fn round_events(
    traffic: &Traffic<'_>,
    round: usize,
    mut emit: impl FnMut(Event<bool>) -> bool,
) {
    let column = &traffic.expected[round];
    let window = traffic.window.window(round as u64);
    let width = (window.close - window.open) as u64;
    let mut rng = SplitMix::new(hash4(traffic.seed, round as u64, 0, 0));
    let mut event = |individual: u64, payload: Option<bool>| {
        let draw = rng.next_u64();
        Event {
            time_ms: window.open + (draw % width) as i64,
            individual: individual as u32,
            payload: payload.unwrap_or(draw >> 63 == 1),
        }
    };
    match traffic.reports {
        Reports::OnesOnly => {
            for (w, &word) in column.as_words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                    bits &= bits - 1;
                    if !emit(event(i, Some(true))) {
                        return;
                    }
                }
            }
        }
        Reports::Every(m) => {
            // Each report pass visits the individuals in a per-round
            // affine order, so an individual's reports spread across the
            // round; the last pass carries the truth bits.
            let n = column.len() as u64;
            let first = hash4(traffic.seed, round as u64, 1, 0) % n;
            let stride = (first..first + n)
                .find(|&a| gcd(a, n) == 1)
                .expect("1 is coprime to n")
                % n;
            for rep in 0..m {
                let mut i = hash4(traffic.seed, round as u64, 2, rep as u64) % n;
                for _ in 0..n {
                    let truth = (rep + 1 == m).then(|| column.get(i as usize));
                    if !emit(event(i, truth)) {
                        return;
                    }
                    i += stride;
                    if i >= n {
                        i -= n;
                    }
                }
            }
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The single-threaded baseline: the same event stream pushed straight
/// into a `WindowBinner` on one thread, sealing each round after its
/// events. Returns events per second of binner time.
pub fn binner_baseline<A>(traffic: &Traffic<'_>, assembler: A) -> f64
where
    A: RoundAssembler<Payload = bool>,
{
    let mut binner = WindowBinner::new(traffic.window, LatePolicy::Drop, assembler);
    let mut sealed = std::collections::VecDeque::new();
    let mut events = Vec::new();
    let mut busy = 0.0;
    for round in 0..traffic.expected.len() {
        events.clear();
        round_events(traffic, round, |event| {
            events.push(event);
            true
        });
        let start = Instant::now();
        for event in &events {
            binner.push(event.time_ms, event.individual, &event.payload);
        }
        binner.advance(traffic.window.window(round as u64).close, &mut sealed);
        busy += start.elapsed().as_secs_f64();
        std::hint::black_box(sealed.drain(..).count());
    }
    binner.events_total() as f64 / busy
}

/// The analyst's turn after round `t`: the battery cold, one query at a
/// time, then the same battery as one batch on the serving pool, each
/// cached answer timed inside its pool job.
fn analyse(
    service: &QueryService,
    pool: &WorkerPool,
    t: usize,
    battery: &(dyn Fn(usize) -> Vec<ServeQuery> + Sync),
    root: Option<SpanId>,
    tracer: Option<&Tracer>,
    ep: &mut Episode,
) {
    let queries = battery(t);
    let mut cold = Vec::with_capacity(queries.len());
    for query in &queries {
        let (value, ms) = timed(tracer, "serve.answer_cold", root, Some(t), |_| {
            service.answer(query)
        });
        ep.cold_ms.push(ms);
        cold.push(value.map_err(|e| e.to_string()));
        if tracer.is_some() {
            let (eval, _) = timed(tracer, "queries.eval", root, Some(t), |_| {
                evaluate_alone(service, query)
            });
            ep.eval_ms.extend(eval);
        }
    }
    let (hits, _) = timed(tracer, "serve.hit_batch", root, Some(t), |_| {
        pool.run_batch(queries.iter().cloned().map(|query| {
            let service = service.clone();
            move || {
                let start = Instant::now();
                let value = service.answer(&query);
                (value, start.elapsed().as_secs_f64() * 1e6)
            }
        }))
    });
    for ((query, cold), (hit, us)) in queries.into_iter().zip(cold).zip(hits) {
        ep.hit_us.push(us);
        ep.answers.push(Answer {
            query,
            cold,
            hit: hit.map_err(|e| e.to_string()),
        });
    }
}

/// Times the query-library evaluation alone on a rectangular panel from
/// `ReleaseStore::panel` (static scopes and dynamic cohort scopes; the
/// ragged merged scope of a dynamic store has no such panel).
fn evaluate_alone(service: &QueryService, query: &ServeQuery) -> Option<f64> {
    service.with_store(|store| {
        let offset = match query.scope {
            StoreScope::Cohort(c) if store.is_dynamic() => store.cohort_window(c)?.start,
            StoreScope::Merged if store.is_dynamic() => return None,
            _ => 0,
        };
        let panel: &LongitudinalDataset = store.panel(query.scope).ok()?;
        let t = query.kind.round().checked_sub(offset)?;
        let start = Instant::now();
        let value = match &query.kind {
            QueryKind::CumulativeFraction { b, .. } => cumulative_fraction(panel, t, *b),
            QueryKind::Window { query, .. } => query.evaluate_true(panel, t),
            QueryKind::Pattern { pattern, .. } => {
                WindowQuery::pattern(*pattern).evaluate_true(panel, t)
            }
        };
        std::hint::black_box(value);
        Some(start.elapsed().as_secs_f64() * 1e3)
    })
}

/// One incremental-snapshot hop from the primary to the replica.
fn replicate(
    primary: &QueryService,
    replica: &QueryService,
    t: usize,
    root: Option<usize>,
    tracer: Option<&Tracer>,
    ep: &mut Episode,
) {
    let base = replica.with_store(longsynth_serve::ReleaseStore::rounds);
    let (delta, render_ms) = timed(tracer, "serve.delta_render", root, Some(t), |_| {
        primary.snapshot_since_json(base)
    });
    let Ok(delta) = delta else {
        ep.delta_errors += 1;
        return;
    };
    let (applied, apply_ms) = timed(tracer, "serve.delta_apply", root, Some(t), |_| {
        replica.apply_delta_json(&delta)
    });
    if applied.is_err() {
        ep.delta_errors += 1;
    }
    ep.delta_render_ms.push(render_ms);
    ep.delta_apply_ms.push(apply_ms);
    ep.delta_kb.push(delta.len() as f64 / 1024.0);
}
