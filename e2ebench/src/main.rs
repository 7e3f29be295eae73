//! End-to-end benchmark of the continual-release path: producer → bounded
//! queue → watermark seal → engine round → release store → query service.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload report_stream --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --smoke
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --costs
//! ```
//!
//! A run repeats whole episodes (every round of the workload, end to end)
//! until `--seconds` have passed; the first episode is a warm-up whose
//! checks count but whose timings do not. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it carries the machine fingerprint, the
//! seed, the per-class operation counts and the check results.

mod costs;
mod gen;
mod pipeline;
mod reference;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pipeline::Fault;
use trace::Tracer;
use workloads::{Kind, Options, Outcome, Spec};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <report_stream|cumulative_panel|rotating_replica> \
                     --seed <n> --seconds <s> --trace <0|1>\n       e2ebench --smoke\n       e2ebench --costs";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    for name in flags.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let workload = get("workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.as_slice() {
        [flag] if flag == "--smoke" => return smoke(),
        [flag] if flag == "--costs" => {
            costs::run();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    match parse_args(&raw) {
        Ok(args) => run(&args),
        Err(msg) => {
            eprintln!("e2ebench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let spec = Spec::new(args.kind, false);
    let input = workloads::generate(&spec, args.seed);
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let start = Instant::now();
    let mut outcomes = Vec::new();
    while outcomes.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let opts = Options {
            seed: args.seed,
            fault: Fault::None,
            tracer: tracer.clone(),
            baseline: args.trace && outcomes.is_empty(),
        };
        let outcome = workloads::run_episode(&spec, &input, &opts);
        let ep = &outcome.episode;
        if let Some(e) = &ep.round_error {
            eprintln!("e2ebench: {e}");
        }
        eprintln!(
            "episode {}: {:.3} s, {:.0} events/s, release p50 {:.3} ms, cold query p50 {:.3} ms",
            outcomes.len(),
            ep.wall_s,
            ep.events_sent as f64 / ep.wall_s,
            median(ep.release_ms.iter().copied()),
            median(ep.cold_ms.iter().copied()),
        );
        outcomes.push(outcome);
    }
    let report = Report::new(&spec, &outcomes, input.generate_ms);
    let self_ms = tracer.as_ref().map(|t| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.kind.name(), args.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
        }
        t.self_times()
    });
    println!("{}", report.context_line(args, self_ms.as_ref()));
    let metrics = if args.trace {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    println!("{}", report.result_line(&metrics));
    ExitCode::SUCCESS
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let clean: String = s.chars().filter(|c| !c.is_control()).collect();
    format!("\"{}\"", clean.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Attempted and failed operations of one class.
#[derive(Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    failed: u64,
}

struct Report<'a> {
    outcomes: &'a [Outcome],
    /// The measured episodes (the warm-up excluded).
    measured: &'a [Outcome],
    rounds: usize,
    generate_ms: f64,
    ops: [(&'static str, Ops); 5],
    checks: BTreeMap<&'static str, bool>,
}

impl<'a> Report<'a> {
    fn new(spec: &Spec, outcomes: &'a [Outcome], generate_ms: f64) -> Self {
        let mut ops = [
            ("events", Ops::default()),
            ("rounds", Ops::default()),
            ("queries", Ops::default()),
            ("deltas", Ops::default()),
            ("checks", Ops::default()),
        ];
        let mut checks = BTreeMap::new();
        for o in outcomes {
            let ep = &o.episode;
            let lost = ep.events_sent.abs_diff(ep.events_sealed) + ep.late_or_rejected;
            let counts = [
                (ep.events_sent, lost),
                (spec.rounds as u64, (spec.rounds - ep.rounds_ok) as u64),
                (
                    2 * ep.answers.len() as u64,
                    ep.answers
                        .iter()
                        .map(|a| u64::from(a.cold.is_err()) + u64::from(a.hit.is_err()))
                        .sum(),
                ),
                (
                    ep.delta_render_ms.len() as u64 + ep.delta_errors as u64,
                    ep.delta_errors as u64,
                ),
                (
                    o.checks.len() as u64,
                    o.checks.iter().filter(|(_, ok)| !ok).count() as u64,
                ),
            ];
            for ((_, class), (attempted, failed)) in ops.iter_mut().zip(counts) {
                class.attempted += attempted;
                class.failed += failed;
            }
            for &(name, ok) in &o.checks {
                *checks.entry(name).or_insert(true) &= ok;
            }
        }
        Self {
            outcomes,
            measured: &outcomes[1.min(outcomes.len() - 1)..],
            rounds: spec.rounds,
            generate_ms,
            ops,
            checks,
        }
    }

    fn episodes(&self) -> impl Iterator<Item = &pipeline::Episode> {
        self.measured.iter().map(|o| &o.episode)
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "setup_s",
                median(self.measured.iter().map(|o| o.setup_s)),
                "s",
            ),
            (
                "events_per_s",
                median(self.episodes().map(|e| e.events_sent as f64 / e.wall_s)),
                "1/s",
            ),
            (
                "release_ms_p50",
                median(self.episodes().flat_map(|e| e.release_ms.iter().copied())),
                "ms",
            ),
            (
                "query_ms_p50",
                median(self.episodes().flat_map(|e| e.cold_ms.iter().copied())),
                "ms",
            ),
            (
                "snapshot_mb",
                self.outcomes
                    .last()
                    .map_or(0.0, |o| o.snapshot_bytes as f64)
                    / (1u64 << 20) as f64,
                "MiB",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    }

    /// Mean per episode of a registry histogram (sum over count), read
    /// from the program's own instruments.
    fn histogram_mean(&self, name: &str) -> f64 {
        let (sum, count) = self
            .measured
            .iter()
            .filter_map(|o| o.registry.as_ref())
            .flat_map(|r| r.histograms())
            .filter(|(n, _)| n == name)
            .fold((0.0, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    fn counter_mean(&self, name: &str) -> f64 {
        mean(
            self.measured
                .iter()
                .filter_map(|o| o.registry.as_ref())
                .map(|r| {
                    r.counters()
                        .into_iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| v as f64)
                }),
        )
    }

    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let eps = || self.episodes();
        let flat = |f: fn(&pipeline::Episode) -> &Vec<f64>| {
            median(self.episodes().flat_map(move |e| f(e).iter().copied()))
        };
        vec![
            (
                "ingest.events",
                mean(eps().map(|e| e.events_sealed as f64)),
                "count",
            ),
            (
                "ingest.peak_queue_depth",
                eps().map(|e| e.peak_queue_depth as f64).fold(0.0, f64::max),
                "count",
            ),
            ("ingest.next_ms_p50", flat(|e| &e.next_ms), "ms"),
            (
                "ingest.send_blocked_ms",
                mean(eps().map(|e| e.send_blocked_ms)),
                "ms",
            ),
            (
                "ingest.binner_events_per_s",
                median(self.outcomes.iter().filter_map(|o| o.binner_events_per_s)),
                "1/s",
            ),
            ("engine.round_ms_p50", flat(|e| &e.engine_ms), "ms"),
            (
                "engine.round_ms_total",
                mean(eps().map(|e| e.engine_ms.iter().sum())),
                "ms",
            ),
            (
                "engine.prepare_ms_mean",
                self.histogram_mean("engine_prepare_ms"),
                "ms",
            ),
            (
                "engine.finalize_ms_mean",
                self.histogram_mean("engine_finalize_ms"),
                "ms",
            ),
            (
                "engine.merge_ms_mean",
                self.histogram_mean("engine_merge_ms"),
                "ms",
            ),
            (
                "pool.task_ms_mean",
                self.histogram_mean("pool_task_ms"),
                "ms",
            ),
            ("pool.tasks", self.counter_mean("pool_tasks_total"), "count"),
            (
                "serve.store_write_ms_p50",
                flat(|e| &e.store_write_ms),
                "ms",
            ),
            ("queries.eval_ms_p50", flat(|e| &e.eval_ms), "ms"),
            ("serve.hit_us_p50", flat(|e| &e.hit_us), "us"),
            (
                "serve.cache_hits",
                mean(self.measured.iter().map(|o| o.cache_hits as f64)),
                "count",
            ),
            (
                "serve.cache_misses",
                mean(self.measured.iter().map(|o| o.cache_misses as f64)),
                "count",
            ),
            (
                "serve.delta_render_ms_p50",
                flat(|e| &e.delta_render_ms),
                "ms",
            ),
            (
                "serve.delta_apply_ms_p50",
                flat(|e| &e.delta_apply_ms),
                "ms",
            ),
            ("serve.delta_kb_p50", flat(|e| &e.delta_kb), "KiB"),
            ("bench.generate_ms", self.generate_ms, "ms"),
        ]
    }

    fn failed(&self) -> u64 {
        self.ops.iter().map(|(_, o)| o.failed).sum()
    }

    fn context_line(&self, args: &Args, self_ms: Option<&BTreeMap<&'static str, f64>>) -> String {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(name, o)| {
                format!(
                    "\"{name}\":{{\"attempted\":{},\"failed\":{}}}",
                    o.attempted, o.failed
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, ok)| format!("\"{name}\":{ok}"))
            .collect();
        let self_ms = self_ms.map_or("null".to_string(), |m| {
            let parts: Vec<String> = m
                .iter()
                .map(|(name, ms)| format!("\"{name}\":{}", json_num(*ms)))
                .collect();
            format!("{{{}}}", parts.join(","))
        });
        format!(
            "{{\"fingerprint\":{{\"cores\":{cores},\"cpu\":{},\"rustc\":{}}},\"workload\":\"{}\",\
             \"seed\":{},\"seconds\":{},\"trace\":{},\"episodes\":{},\"rounds_per_episode\":{},\
             \"ops\":{{{}}},\"checks\":{{{}}},\"trace_self_ms\":{self_ms}}}",
            json_str(&cpu_model()),
            json_str(env!("E2EBENCH_RUSTC_VERSION")),
            args.kind.name(),
            args.seed,
            json_num(args.seconds),
            u8::from(args.trace),
            self.outcomes.len(),
            self.rounds,
            ops.join(","),
            checks.join(","),
        )
    }

    fn result_line(&self, metrics: &[(&'static str, f64, &'static str)]) -> String {
        let correct = self.checks.values().all(|&ok| ok);
        let attempted: u64 = self.ops.iter().map(|(_, o)| o.attempted).sum();
        let parts: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed(),
            parts.join(",")
        )
    }
}

/// All three workloads at a small size with every check on, plus
/// self-tests showing that a dropped event, a corrupted answer and a
/// release without noise are each caught.
fn smoke() -> ExitCode {
    let mut ok = true;
    let seed = 7;
    let cases: [(Kind, Fault, Option<&str>); 6] = [
        (Kind::ReportStream, Fault::None, None),
        (Kind::CumulativePanel, Fault::None, None),
        (Kind::RotatingReplica, Fault::None, None),
        (
            Kind::ReportStream,
            Fault::DropEvent,
            Some("events_sealed_equal_sent"),
        ),
        (
            Kind::CumulativePanel,
            Fault::CorruptAnswer,
            Some("answers_match_reference"),
        ),
        (
            Kind::ReportStream,
            Fault::NoNoise,
            Some("error_within_bound_and_above_floor"),
        ),
    ];
    for (kind, fault, expect_failure) in cases {
        let spec = Spec::new(kind, true);
        let input = workloads::generate(&spec, seed);
        let tracer = (fault == Fault::None).then(|| Arc::new(Tracer::new()));
        let opts = Options {
            seed,
            fault,
            tracer: tracer.clone(),
            baseline: tracer.is_some(),
        };
        let outcome = workloads::run_episode(&spec, &input, &opts);
        let failing: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|(_, pass)| !pass)
            .map(|(name, _)| *name)
            .collect();
        let pass = match expect_failure {
            None => failing.is_empty() && tracer.is_some_and(|t| !t.self_times().is_empty()),
            Some(name) => failing.contains(&name),
        };
        ok &= pass;
        println!(
            "smoke {:<17} fault={:<13} failing checks={failing:?} -> {}",
            kind.name(),
            format!("{fault:?}"),
            if pass { "ok" } else { "FAILED" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
