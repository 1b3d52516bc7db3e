//! The two streamed-replay workloads.
//!
//! * `allreduce-512`: one op is `memcontend replay --stream yes
//!   --generate allreduce --ranks 512 --iters 1 --comm-mb 64` on henri —
//!   a contended and a baseline pass, then the report.
//! * `halo2d-4096`: one op is the `--comm-mode cxl` head-to-head on
//!   henri-cxl — halo2d at 4096 ranks, 4 iterations, 64 MB faces; the
//!   messaging and message-free pairs of passes, then the report and
//!   `render_head_to_head`.
//!
//! Both inputs are fixed reference configurations: the seed does not
//! change them.

use std::time::Instant;

use mc_replay::generate::{GenParams, LazyGen};
use mc_replay::report::{self, GANTT_MAX_ROWS};
use mc_replay::{run_source, CommMode, ReplayConfig, ReplayOutcome, SourceRun};
use mc_topology::{platforms, NumaId, Platform};

use crate::checks;
use crate::stats::{full_counters, median, Metric};
use crate::{Counters, Verdict, Workload};

/// Index of the `collective` kind in `SourceRun::counts`.
const COLLECTIVE: usize = 3;

pub fn params(ranks: usize, iters: usize) -> GenParams {
    GenParams {
        ranks,
        iters,
        comm_bytes: 64 << 20,
        ..GenParams::default()
    }
}

pub fn generator(pattern: &str, p: &GenParams) -> LazyGen {
    LazyGen::new(pattern, p).expect("built-in pattern")
}

pub fn config(mode: CommMode) -> ReplayConfig {
    ReplayConfig {
        timeline_ranks: Some(GANTT_MAX_ROWS),
        comm_mode: mode,
        ..ReplayConfig::default()
    }
}

/// One pass of a streamed replay.
pub fn pass(
    platform: &Platform,
    gen: &LazyGen,
    mode: CommMode,
    contended: bool,
) -> Result<SourceRun, String> {
    run_source(platform, &mut gen.source(), &config(mode), contended).map_err(|e| e.to_string())
}

/// A contended and a baseline pass, with the host seconds each took.
pub struct Pair {
    pub contended: SourceRun,
    pub baseline: SourceRun,
    pub contended_s: f64,
    pub baseline_s: f64,
}

impl Pair {
    pub fn run(platform: &Platform, gen: &LazyGen, mode: CommMode) -> Result<Pair, String> {
        let t = Instant::now();
        let contended = pass(platform, gen, mode, true)?;
        let contended_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let baseline = pass(platform, gen, mode, false)?;
        Ok(Pair {
            contended,
            baseline,
            contended_s,
            baseline_s: t.elapsed().as_secs_f64(),
        })
    }

    /// The outcome `replay_with` reports for these two passes.
    pub fn outcome(&self, ranks: usize) -> ReplayOutcome {
        let (c, b) = (&self.contended.run, &self.baseline.run);
        ReplayOutcome {
            ranks,
            events: self.contended.events(),
            contended: c.clone(),
            baseline: b.clone(),
            slowdown: if b.makespan > 0.0 {
                c.makespan / b.makespan
            } else {
                1.0
            },
        }
    }

    fn counters(&self) -> [(&'static str, u64); 5] {
        let (c, b) = (&self.contended.solver, &self.baseline.solver);
        [
            ("mpisim.world.transitions", c.transitions + b.transitions),
            ("mpisim.world.node_steps", c.node_steps + b.node_steps),
            (
                "memsim.delta.full_solves",
                c.delta.full_solves + b.delta.full_solves,
            ),
            (
                "memsim.delta.state_hits",
                c.delta.state_hits + b.delta.state_hits,
            ),
            ("replay.events", self.contended.events() as u64),
        ]
    }
}

/// Every pass consumed the whole trace.
fn check_events(pair: &Pair, want: u64) -> Result<(), String> {
    checks::check_count("contended events", pair.contended.events() as u64, want)?;
    checks::check_count("baseline events", pair.baseline.events() as u64, want)
}

/// A bound no correct simulation can beat: per iteration, a rank's
/// compute phase cannot outrun its NUMA node's memory controller, and
/// its ring allreduce must receive `2 (p - 1)` chunks of `bytes / p`
/// through a NIC no faster than the wire. The two overlap, so the
/// larger one bounds the iteration.
pub fn allreduce_lower_bound(platform: &Platform, p: &GenParams) -> f64 {
    const GB: f64 = 1e9;
    let mem = platform.behavior.mem_ctrl.base_capacity * GB;
    let wire = platform.topology.nic.tech.wire_rate() * GB;
    let compute = p.compute_bytes as f64 / mem;
    let chunk = (p.comm_bytes / p.ranks as u64) as f64;
    let comm = 2.0 * (p.ranks - 1) as f64 * chunk / wire;
    p.iters as f64 * compute.max(comm)
}

pub struct Allreduce512 {
    platform: Platform,
    params: GenParams,
    gen: LazyGen,
    last: Option<Pair>,
    /// Per timed op: contended pass seconds per `World` transition.
    per_transition: Vec<f64>,
}

pub struct AllreduceOut {
    pair: Result<Pair, String>,
    report: String,
}

impl Allreduce512 {
    fn op(&self) -> AllreduceOut {
        let pair = Pair::run(&self.platform, &self.gen, CommMode::Messages);
        let report = match &pair {
            Ok(p) => report::render(&p.outcome(self.params.ranks), self.platform.name()),
            Err(_) => String::new(),
        };
        AllreduceOut { pair, report }
    }

    fn check_out(&self, out: &AllreduceOut) -> Result<(), String> {
        let pair = out.pair.as_ref().map_err(Clone::clone)?;
        let p = &self.params;
        let (ranks, iters) = (p.ranks as u64, p.iters as u64);
        check_events(pair, 3 * ranks * iters)?;
        for (label, run) in [("contended", &pair.contended), ("baseline", &pair.baseline)] {
            checks::check_count(
                &format!("{label} collectives"),
                run.counts[COLLECTIVE],
                ranks * iters,
            )?;
            // Timelines kept in full must show every collective completed.
            for (r, spans) in run.run.timelines.iter().enumerate() {
                let done = spans
                    .iter()
                    .filter(|s| s.kind == "collective" && s.t1 >= s.t0 && s.t1 <= run.run.makespan)
                    .count() as u64;
                checks::check_count(&format!("{label} rank {r} collectives"), done, iters)?;
            }
        }
        let outcome = pair.outcome(p.ranks);
        checks::check_slowdown("allreduce", outcome.slowdown)?;
        checks::check_at_least(
            "baseline makespan",
            outcome.baseline.makespan,
            allreduce_lower_bound(&self.platform, p),
        )?;
        if !out.report.contains("contention slowdown") {
            return Err("the report misses its slowdown line".into());
        }
        Ok(())
    }
}

impl Workload for Allreduce512 {
    type Out = AllreduceOut;

    fn setup(_seed: u64) -> Result<Self, String> {
        let params = params(512, 1);
        Ok(Allreduce512 {
            platform: platforms::henri(),
            params,
            gen: generator("allreduce", &params),
            last: None,
            per_transition: Vec::new(),
        })
    }

    fn run(&mut self, _i: usize) -> AllreduceOut {
        self.op()
    }

    fn check_warm_up(&mut self, out: AllreduceOut) -> Verdict {
        let verdict = self.check(0, out);
        self.per_transition.clear();
        verdict
    }

    fn check(&mut self, _i: usize, out: AllreduceOut) -> Verdict {
        let verdict = match self.check_out(&out) {
            Ok(()) => Verdict::Pass,
            Err(e) => Verdict::Wrong(e),
        };
        if let Ok(p) = &out.pair {
            self.per_transition
                .push(p.contended_s / p.contended.solver.transitions.max(1) as f64);
        }
        self.last = out.pair.ok();
        verdict
    }

    fn counters(&mut self) -> Counters {
        full_counters(&self.last.as_ref().map(Pair::counters).unwrap_or_default())
    }

    fn layers(&self) -> Vec<Metric> {
        vec![Metric::new(
            "mpisim.transition_ns.r512",
            median(&self.per_transition) * 1e9,
            "ns",
        )]
    }
}

pub struct Halo2d4096 {
    platform: Platform,
    params: GenParams,
    gen: LazyGen,
    /// The same pattern at 16 ranks: `(messages, cxl)` pairs, run at the
    /// first check.
    reference: Option<(Pair, Pair)>,
    last: Option<(Pair, Pair)>,
    /// Per timed op: messaging, message-free and mean baseline pass
    /// seconds, and report seconds.
    stages: Vec<[f64; 4]>,
}

pub struct HaloOut {
    pairs: Result<(Pair, Pair), String>,
    report: String,
    report_s: f64,
}

/// The head-to-head of one halo2d configuration, as the CLI prints it.
pub fn head_to_head(platform: &Platform, gen: &LazyGen) -> HaloOut {
    let ranks = gen.ranks();
    let pairs = Pair::run(platform, gen, CommMode::Messages)
        .and_then(|m| Ok((m, Pair::run(platform, gen, CommMode::Cxl)?)));
    let t = Instant::now();
    let report = match &pairs {
        Ok((m, c)) => {
            let (m, c) = (m.outcome(ranks), c.outcome(ranks));
            let mut out = report::render(&c, platform.name());
            out.push_str(&report::render_head_to_head(&m, &c, platform.name()));
            out
        }
        Err(_) => String::new(),
    };
    HaloOut {
        pairs,
        report,
        report_s: t.elapsed().as_secs_f64(),
    }
}

/// `replay.pass_ms.*` and `replay.report_ms` of one head-to-head.
pub fn halo_stages(out: &HaloOut) -> Option<[f64; 4]> {
    let (m, c) = out.pairs.as_ref().ok()?;
    Some([
        m.contended_s,
        c.contended_s,
        (m.baseline_s + c.baseline_s) / 2.0,
        out.report_s,
    ])
}

/// Medians over head-to-heads of [`halo_stages`], as metrics.
pub fn halo_metrics(stages: &[[f64; 4]]) -> Vec<Metric> {
    let ms = |k: usize| median(&stages.iter().map(|s| s[k]).collect::<Vec<_>>()) * 1e3;
    vec![
        Metric::new("replay.pass_ms.messages", ms(0), "ms"),
        Metric::new("replay.pass_ms.cxl", ms(1), "ms"),
        Metric::new("replay.pass_ms.baseline", ms(2), "ms"),
        Metric::new("replay.report_ms", ms(3), "ms"),
    ]
}

impl Halo2d4096 {
    fn check_out(&mut self, out: &HaloOut) -> Result<(), String> {
        if self.reference.is_none() {
            let small = generator(
                "halo2d",
                &GenParams {
                    ranks: 16,
                    ..self.params
                },
            );
            self.reference = Some(head_to_head(&self.platform, &small).pairs?);
        }
        let (m, c) = out.pairs.as_ref().map_err(Clone::clone)?;
        let p = &self.params;
        let want = 10 * (p.ranks * p.iters) as u64;
        check_events(m, want)?;
        check_events(c, want)?;
        let (om, oc) = (m.outcome(p.ranks), c.outcome(p.ranks));
        checks::check_slowdown("messaging", om.slowdown)?;
        checks::check_slowdown("message-free", oc.slowdown)?;
        // Torus symmetry: every rank of a 64 x 64 torus sees what every
        // rank of a 4 x 4 torus sees.
        let (rm, rc) = self.reference.as_ref().expect("run above");
        for (label, got, want) in [
            ("messaging makespan", &m.contended, &rm.contended),
            ("messaging baseline", &m.baseline, &rm.baseline),
            ("message-free makespan", &c.contended, &rc.contended),
            ("message-free baseline", &c.baseline, &rc.baseline),
        ] {
            checks::check_same_time(label, got.run.makespan, want.run.makespan)?;
        }
        if !out.report.contains("verdict:") {
            return Err("the head-to-head misses its verdict".into());
        }
        Ok(())
    }
}

impl Workload for Halo2d4096 {
    type Out = HaloOut;

    fn setup(_seed: u64) -> Result<Self, String> {
        let platform = platforms::henri_cxl();
        let params = GenParams {
            comp_numa: NumaId::new(0),
            comm_numa: NumaId::new(0),
            ..params(4096, 4)
        };
        Ok(Halo2d4096 {
            gen: generator("halo2d", &params),
            platform,
            params,
            reference: None,
            last: None,
            stages: Vec::new(),
        })
    }

    fn run(&mut self, _i: usize) -> HaloOut {
        head_to_head(&self.platform, &self.gen)
    }

    fn check_warm_up(&mut self, out: HaloOut) -> Verdict {
        let verdict = self.check(0, out);
        self.stages.clear();
        verdict
    }

    fn check(&mut self, _i: usize, out: HaloOut) -> Verdict {
        let verdict = match self.check_out(&out) {
            Ok(()) => Verdict::Pass,
            Err(e) => Verdict::Wrong(e),
        };
        self.stages.extend(halo_stages(&out));
        self.last = out.pairs.ok();
        verdict
    }

    fn layers(&self) -> Vec<Metric> {
        halo_metrics(&self.stages)
    }

    fn counters(&mut self) -> Counters {
        let Some((m, c)) = &self.last else {
            return full_counters(&[]);
        };
        let mut all: Vec<(&'static str, u64)> = m.counters().to_vec();
        // Both head-to-head modes replay the same trace: count it once.
        all.extend(
            c.counters()
                .into_iter()
                .filter(|(k, _)| *k != "replay.events"),
        );
        full_counters(&all)
    }
}
