//! `perfbench` — one benchmark for the memory-contention simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload per process: set-up (repeated [`SETUP_REPS`] or more
//! times, each ending in one warm-up op that is timed as set-up and checked
//! after the timer stops), then a closed loop of
//! whole rounds of ops for `--seconds`, checking every op's outputs. The
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A `counters:` line before it
//! carries the deterministic work counters of one op (one round for
//! `serve-mix`), computed after the measured phase and after peak RSS is
//! read. See README.md for the workloads and metrics.

mod checks;
mod layers;
mod replay;
mod repro;
mod sched;
mod serve;
mod stats;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stats::{median, nearest_rank, Metric};

/// Set-ups per run, at least: `setup_s` is their median. Cheap set-ups
/// repeat until [`SETUP_BUDGET_S`] is spent, up to [`SETUP_MAX_REPS`],
/// so that their median is not one sub-millisecond interval.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 50;

/// The workloads `--workload` accepts: BENCHMARK.json's two first, then
/// three that run and check as they do but are not listed there
/// (README.md, "Workloads").
const WORKLOADS: [&str; 5] = [
    "paper-repro",
    "serve-mix",
    "allreduce-512",
    "halo2d-4096",
    "sched-fleet",
];

/// How one op's outputs fared against its checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every check passed.
    Pass,
    /// The op hit a fault of the program that the benchmark keeps in its
    /// mix on purpose (see README.md); counted as failed, and expected.
    KnownFault(String),
    /// A check failed: the program's output is wrong.
    Wrong(String),
}

/// Deterministic work counters: `(name, count)`.
pub type Counters = Vec<(&'static str, u64)>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one op hands to its checks.
    type Out;

    /// Build the state the ops need from `seed`.
    fn setup(seed: u64) -> Result<Self, String>;

    /// The warm-up op that ends set-up.
    fn warm_up(&mut self) -> Self::Out {
        self.run(0)
    }

    /// Check the warm-up op's outputs.
    fn check_warm_up(&mut self, out: Self::Out) -> Verdict {
        self.check(0, out)
    }

    /// Ops per round; every run attempts whole rounds.
    fn round_len(&self) -> usize {
        1
    }

    /// Run op `i` of a round. This call, and only this call, is timed.
    fn run(&mut self, i: usize) -> Self::Out;

    /// Check op `i`'s outputs.
    fn check(&mut self, i: usize, out: Self::Out) -> Verdict;

    /// Host time of op `i`, as `op_ms` records it.
    fn timed(&mut self, _i: usize, _ms: f64) {}

    /// Called after each untimed round (e.g. to snapshot counters).
    fn end_round(&mut self) {}

    /// Work counters of one op (one round for round-based workloads).
    /// Identical for every run with the same seed. Called once, after
    /// the measured phase.
    fn counters(&mut self) -> Counters;

    /// Per-layer timings taken from this run's own ops (see
    /// `layers::probe` for the rest).
    fn layers(&self) -> Vec<Metric> {
        Vec::new()
    }
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Cli {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What the measured phase of one run produced.
struct RunResult {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    /// VmHWM at the end of the measured phase, before the counters and
    /// probes run.
    peak_rss_kb: Option<u64>,
    counters: Counters,
    layers: Vec<Metric>,
}

fn measure<W: Workload>(cli: &Cli) -> Result<RunResult, String> {
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<W> = None;
    let mut wrong = Vec::new();
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < SETUP_MAX_REPS)
    {
        // The previous set-up's state (threads, sockets) is torn down
        // before the next one starts, so set-ups never overlap.
        drop(state.take());
        let t = Instant::now();
        let mut w = W::setup(cli.seed).map_err(|e| format!("set-up failed: {e}"))?;
        let out = w.warm_up();
        setup_s.push(t.elapsed().as_secs_f64());
        // A wrong warm-up output is a wrong output like any other: it
        // makes the run incorrect instead of ending it. Every set-up
        // repeats the same warm-up op, so the first report says it all.
        match w.check_warm_up(out) {
            Verdict::Pass => {}
            Verdict::KnownFault(e) | Verdict::Wrong(e) => {
                if wrong.is_empty() {
                    wrong.push(format!("warm-up op: {e}"));
                }
            }
        }
        state = Some(w);
    }
    let mut w = state.expect("SETUP_REPS >= 1");

    let budget = Duration::from_secs_f64(cli.seconds);
    let start = Instant::now();
    let mut op_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        for i in 0..w.round_len() {
            let t = Instant::now();
            let out = w.run(i);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            op_ms.push(ms);
            w.timed(i, ms);
            attempted += 1;
            match w.check(i, out) {
                Verdict::Pass => {}
                Verdict::KnownFault(_) => failed += 1,
                Verdict::Wrong(why) => {
                    failed += 1;
                    if wrong.len() < 8 {
                        wrong.push(format!("op {attempted}: {why}"));
                    }
                }
            }
        }
        w.end_round();
        if start.elapsed() >= budget {
            break;
        }
    }
    let peak_rss_kb = mc_obs::peak_rss_kb();
    Ok(RunResult {
        setup_s,
        op_ms,
        attempted,
        failed,
        wrong,
        peak_rss_kb,
        counters: w.counters(),
        layers: w.layers(),
    })
}

fn run_workload(cli: &Cli) -> Result<RunResult, String> {
    match cli.workload.as_str() {
        "paper-repro" => measure::<repro::PaperRepro>(cli),
        "allreduce-512" => measure::<replay::Allreduce512>(cli),
        "halo2d-4096" => measure::<replay::Halo2d4096>(cli),
        "sched-fleet" => measure::<sched::SchedFleet>(cli),
        "serve-mix" => measure::<serve::ServeMix>(cli),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Ops a run needs for its 99th percentile to have ten samples beyond it.
const TAIL_MIN_OPS: usize = 1000;

/// The percentile `op_ms.p10` reports. The host's speed swings by up to
/// 2x in phases of seconds to tens of seconds, and it is only ever slowed,
/// never sped up: a run's median reads the share of the run the host spent
/// slow, while its 10th percentile reads the op when the host lets it run
/// (README.md, "Why the 10th percentile").
const OP_QUANTILE: f64 = 0.10;

/// The 99th percentile of op time when the run has a tail to report;
/// otherwise (the batch workloads, tens of ops per run) `op_ms.p10`.
fn tail_ms(op_ms: &[f64]) -> f64 {
    if op_ms.len() >= TAIL_MIN_OPS {
        nearest_rank(op_ms, 0.99)
    } else {
        nearest_rank(op_ms, OP_QUANTILE)
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // With tracing on, the program's own instrumentation (mc-obs) records
    // into a registry for the whole run; the per-layer timings come from
    // the workload's own ops and, for the layers it does not use, from
    // probes run after the measured phase.
    let registry = cli.trace.then(|| {
        let r = Arc::new(mc_obs::Registry::new());
        mc_obs::set_recorder(r.clone());
        r
    });
    let result = match run_workload(&cli) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cli.workload);
            return ExitCode::from(1);
        }
    };
    for why in &result.wrong {
        eprintln!("perfbench: {}: wrong output: {why}", cli.workload);
    }
    let p10 = nearest_rank(&result.op_ms, OP_QUANTILE);
    let p50 = median(&result.op_ms);
    let setup_ms: Vec<String> = result
        .setup_s
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    eprintln!(
        "perfbench: {} seed {} trace {}: {} ops, op_ms.p10 {:.4}, median {:.4}, set-ups (ms) {}",
        cli.workload,
        cli.seed,
        u8::from(cli.trace),
        result.attempted,
        p10,
        p50,
        setup_ms.join(" ")
    );
    let counters = result
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    println!("counters: {{{counters}}}");

    let metrics: Vec<Metric> = if cli.trace {
        // The probes time the layers themselves, without the recorder.
        mc_obs::clear_recorder();
        drop(registry);
        let mut m = layers::probe(result.layers);
        for &(name, count) in &result.counters {
            m.push(Metric::new(name, count as f64, "count"));
        }
        m
    } else {
        let peak = match result.peak_rss_kb {
            Some(kb) => kb as f64,
            None => {
                eprintln!("perfbench: peak RSS is unavailable on this platform");
                return ExitCode::from(1);
            }
        };
        vec![
            Metric::new("setup_s", median(&result.setup_s), "s"),
            Metric::new("op_ms.p10", p10, "ms"),
            Metric::new("op_ms.p99", tail_ms(&result.op_ms), "ms"),
            Metric::new("peak_rss_kb", peak, "kB"),
        ]
    };
    println!(
        "{}",
        stats::result_line(
            result.wrong.is_empty(),
            result.attempted,
            result.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
