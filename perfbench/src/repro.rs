//! `paper-repro`: one op is one event-driven Table II reproduction over
//! the six Table I platforms — pooled sweep, calibration from the two
//! sample placements, evaluation, rendered table.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mc_membench::{
    calibration_placements, sweep_platform, sweep_platform_parallel, BenchConfig, PlatformSweep,
};
use mc_model::{evaluate, format_percent, ContentionModel, ErrorBreakdown};
use mc_topology::{platforms, Platform};

use crate::checks::{self, ReproRow};
use crate::stats::{full_counters, median, Metric, Rng};
use crate::{Counters, Verdict, Workload};

pub struct PaperRepro {
    /// The six platforms in the seed's order.
    platforms: Vec<Platform>,
    /// Per timed op: seconds in sweeps, calibration and evaluation.
    stages: Vec<[f64; 3]>,
}

/// One platform's results.
pub struct Evaluated {
    pub platform: Platform,
    pub sweep: PlatformSweep,
    pub model: ContentionModel,
    pub errors: ErrorBreakdown,
}

pub struct Outcome {
    pub rows: Vec<Evaluated>,
    pub table: String,
    /// Host seconds in sweeps, calibration and evaluation, summed over
    /// the platforms.
    pub stages: [f64; 3],
}

/// Calibrate the paper's model from the sweep's two sample placements.
pub fn calibrate(platform: &Platform, sweep: &PlatformSweep) -> Result<ContentionModel, String> {
    let ((lc, lm), (rc, rm)) = calibration_placements(platform);
    let local = sweep
        .placement(lc, lm)
        .ok_or("the sweep misses the local calibration placement")?;
    let remote = sweep
        .placement(rc, rm)
        .ok_or("the sweep misses the remote calibration placement")?;
    ContentionModel::calibrate(&platform.topology, local, remote).map_err(|e| e.to_string())
}

/// Score the model on every placement, the two samples apart.
pub fn evaluate_model(
    platform: &Platform,
    model: &ContentionModel,
    sweep: &PlatformSweep,
) -> ErrorBreakdown {
    let (a, b) = calibration_placements(platform);
    evaluate(model, sweep, &[a, b])
}

fn render(rows: &[Evaluated]) -> String {
    let mut out = String::from("TABLE II — MODEL ERRORS ON TESTBED PLATFORMS (MAPE, %)\n");
    for name in platforms::all().iter().map(|p| p.name().to_string()) {
        if let Some(r) = rows.iter().find(|r| r.platform.name() == name) {
            let e = &r.errors;
            let _ = writeln!(
                out,
                "{name:<15} {}% {}% {}% {}% {}% {}% {}%",
                format_percent(e.comm_samples, 11),
                format_percent(e.comm_non_samples, 15),
                format_percent(e.comm_all, 7),
                format_percent(e.comp_samples, 11),
                format_percent(e.comp_non_samples, 15),
                format_percent(e.comp_all, 7),
                format_percent(e.average, 8)
            );
        }
    }
    let avg = rows.iter().map(|r| r.errors.average).sum::<f64>() / rows.len().max(1) as f64;
    let _ = writeln!(out, "Average {}%", format_percent(avg, 8));
    out
}

impl PaperRepro {
    fn reproduce(
        &self,
        sweep: fn(&Platform, BenchConfig) -> PlatformSweep,
    ) -> Result<Outcome, String> {
        let mut rows = Vec::with_capacity(self.platforms.len());
        let mut stages = [0.0; 3];
        for p in &self.platforms {
            let t = Instant::now();
            let s = sweep(p, BenchConfig::event_driven());
            stages[0] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let model = calibrate(p, &s).map_err(|e| format!("{}: {e}", p.name()))?;
            stages[1] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let errors = evaluate_model(p, &model, &s);
            stages[2] += t.elapsed().as_secs_f64();
            rows.push(Evaluated {
                platform: p.clone(),
                sweep: s,
                model,
                errors,
            });
        }
        let table = render(&rows);
        Ok(Outcome {
            rows,
            table,
            stages,
        })
    }
}

/// The checks' view of one platform: measured vs predicted pairs and
/// predictions vs their alone values, computed here from the sweep and
/// the model.
pub fn repro_row(r: &Evaluated) -> ReproRow {
    let mut pairs = Vec::new();
    let mut vs_alone = Vec::new();
    for placement in &r.sweep.sweeps {
        for pt in &placement.points {
            let pred = r
                .model
                .predict(pt.n_cores, placement.m_comp, placement.m_comm);
            let alone = r
                .model
                .predict_alone(pt.n_cores, placement.m_comp, placement.m_comm);
            pairs.push((pt.comm_par, pred.comm, pt.comp_par, pred.comp));
            vs_alone.push((pred.comm, alone.comm, pred.comp, alone.comp));
        }
    }
    ReproRow {
        platform: r.platform.name().to_string(),
        reported_average: r.errors.average,
        pairs,
        vs_alone,
    }
}

fn check_outcome(out: &Outcome) -> Result<(), String> {
    let rows: Vec<ReproRow> = out.rows.iter().map(repro_row).collect();
    checks::check_repro(&rows)?;
    if out.table.lines().count() != out.rows.len() + 2 {
        return Err("the rendered table misses rows".into());
    }
    Ok(())
}

impl Workload for PaperRepro {
    type Out = Result<Outcome, String>;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut platforms = platforms::all();
        Rng::new(seed, 1).shuffle(&mut platforms);
        Ok(PaperRepro {
            platforms,
            stages: Vec::new(),
        })
    }

    fn run(&mut self, _i: usize) -> Self::Out {
        self.reproduce(sweep_platform_parallel)
    }

    fn check_warm_up(&mut self, out: Self::Out) -> Verdict {
        let verdict = self.check(0, out);
        self.stages.clear();
        verdict
    }

    fn check(&mut self, _i: usize, out: Self::Out) -> Verdict {
        if let Ok(o) = &out {
            self.stages.push(o.stages);
        }
        match out.and_then(|o| check_outcome(&o)) {
            Ok(()) => Verdict::Pass,
            Err(e) => Verdict::Wrong(e),
        }
    }

    /// Engine counters of one reproduction, read through an mc-obs
    /// registry. The pooled sweep that the op runs gives each worker
    /// thread its own solve cache, so its solver invocations and cache
    /// hits depend on which worker measured which point; these counters
    /// come from an extra reproduction with the sequential sweep
    /// (bit-identical results), so they describe the sequential path's
    /// work, not the op's.
    fn counters(&mut self) -> Counters {
        let reg = Arc::new(mc_obs::Registry::new());
        let previous = mc_obs::recorder();
        mc_obs::set_recorder(reg.clone());
        let ok = self.reproduce(sweep_platform).is_ok();
        match previous {
            Some(p) => mc_obs::set_recorder(p),
            None => mc_obs::clear_recorder(),
        }
        if !ok {
            return full_counters(&[]);
        }
        full_counters(&[
            ("memsim.engine.events", reg.counter_total("engine.events")),
            (
                "memsim.engine.solver_invocations",
                reg.counter_total("engine.solver_invocations"),
            ),
            (
                "memsim.engine.cache_hits",
                reg.counter_total("engine.solver_cache_hits"),
            ),
        ])
    }

    /// Median over the run's ops of the time each stage took.
    fn layers(&self) -> Vec<Metric> {
        let stage = |k: usize| median(&self.stages.iter().map(|s| s[k]).collect::<Vec<_>>()) * 1e3;
        vec![
            Metric::new("membench.sweep_ms", stage(0), "ms"),
            Metric::new("core.calibrate_ms", stage(1), "ms"),
            Metric::new("core.evaluate_ms", stage(2), "ms"),
        ]
    }
}
