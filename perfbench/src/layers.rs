//! Per-layer timings for the traced run. A timing of a layer the
//! workload's op runs comes from the op itself (`Workload::layers`); the
//! layers it does not run are timed here, by calls into each crate's
//! public functions on fixed inputs, so that every traced run prints
//! every per-layer metric. Single calls too short to time alone
//! (`memsim`, `core`, `json`, ingest, fleet builds) are always timed
//! here, as medians over many calls. README.md maps each figure to the
//! end-to-end metric it should move.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mc_membench::{calibration_placements, sweep_platform_parallel, BenchConfig};
use mc_memsim::fabric::{Fabric, StreamSpec};
use mc_memsim::{ActiveSet, DeltaSolver, JobLoad, NodeWorld};
use mc_model::{ModelRegistry, RegistryKey};
use mc_replay::generate::GenParams;
use mc_replay::{CommMode, EventSource};
use mc_sched::Fleet;
use mc_topology::{platforms, NumaId, Platform};

use crate::replay::{generator, halo_metrics, halo_stages, head_to_head, params, pass};
use crate::repro::{calibrate, evaluate_model};
use crate::serve::{round, serve_metrics, slot, Session, PLATFORMS};
use crate::stats::{median, per_call, time_median, Metric};

fn n(i: u16) -> NumaId {
    NumaId::new(i)
}

fn memsim(m: &mut Vec<Metric>) {
    let builds: Vec<f64> = platforms::all()
        .into_iter()
        .map(|p| {
            let arc = Arc::new(p);
            per_call(25, 4, || {
                black_box(Fabric::from_arc(Arc::clone(&arc)));
            })
        })
        .collect();
    let mean = builds.iter().sum::<f64>() / builds.len() as f64;
    m.push(Metric::new("memsim.fabric_build_us", mean * 1e6, "us"));

    let fabric = Fabric::new(&platforms::henri());
    let streams = Fabric::benchmark_streams(17, Some(n(0)), Some(n(0)));
    let solve = per_call(31, 200, || {
        black_box(fabric.solve(black_box(&streams)));
    });
    m.push(Metric::new("memsim.solve_us", solve * 1e6, "us"));

    // A transition to an already-solved multiset: the state-cache hit
    // that dominates large replays.
    let mut solver = DeltaSolver::new();
    let mut set = ActiveSet::new();
    for s in &streams {
        set.add(*s);
    }
    solver.solve(&fabric, &mut set);
    let probe: StreamSpec = streams[0];
    let delta = per_call(31, 2000, || {
        set.remove(probe);
        set.add(probe);
        black_box(solver.solve(&fabric, &mut set));
    });
    m.push(Metric::new("memsim.delta.solve_ns", delta * 1e9, "ns"));

    // One shuffle co-located with one solver on henri.
    let mut world = NodeWorld::new(&platforms::henri());
    let jobs = [
        JobLoad {
            cores: 8,
            comp_numa: n(0),
            comm_numa: n(1),
            compute_bytes: 3e9,
            comm_bytes: 18e9,
            comm_pool: None,
        },
        JobLoad {
            cores: 8,
            comp_numa: n(1),
            comm_numa: n(0),
            compute_bytes: 37.5e9,
            comm_bytes: 1.5e9,
            comm_pool: None,
        },
    ];
    let run = per_call(31, 50, || {
        black_box(world.run(black_box(&jobs)));
    });
    m.push(Metric::new("memsim.nodeworld.run_us", run * 1e6, "us"));
}

/// Sweep, calibration and evaluation of the Table II pipeline, summed
/// over the six platforms; medians of three reproductions.
fn pipeline(m: &mut Vec<Metric>) {
    let (mut sweep, mut cal, mut eval) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut s, mut c, mut e) = (0.0, 0.0, 0.0);
        for p in platforms::all() {
            let t = Instant::now();
            let sw = sweep_platform_parallel(&p, BenchConfig::event_driven());
            s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let model = calibrate(&p, &sw).expect("Table I platforms calibrate");
            c += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(evaluate_model(&p, &model, &sw));
            e += t.elapsed().as_secs_f64();
        }
        sweep.push(s);
        cal.push(c);
        eval.push(e);
    }
    m.push(Metric::new("membench.sweep_ms", median(&sweep) * 1e3, "ms"));
    m.push(Metric::new("core.calibrate_ms", median(&cal) * 1e3, "ms"));
    m.push(Metric::new("core.evaluate_ms", median(&eval) * 1e3, "ms"));
}

fn core(m: &mut Vec<Metric>) {
    let p = platforms::henri();
    let registry = ModelRegistry::new(8);
    let key = RegistryKey::new(p.name(), "default", calibration_placements(&p));
    let model = registry
        .get_or_insert_with(&key, || {
            let (local, remote) = mc_membench::calibration_sweeps(&p, BenchConfig::default());
            mc_model::ContentionModel::calibrate(&p.topology, &local, &remote)
                .map_err(mc_model::McError::from)
        })
        .expect("henri calibrates")
        .0;
    let hit = per_call(31, 2000, || {
        black_box(registry.get(black_box(&key)));
    });
    m.push(Metric::new("core.registry.hit_ns", hit * 1e9, "ns"));
    let mut k = 0usize;
    let predict = per_call(31, 2000, || {
        k = k % 17 + 1;
        black_box(model.predict(black_box(k), n(0), n(1)));
    });
    m.push(Metric::new("core.predict_ns", predict * 1e9, "ns"));
}

/// Pass time per `World` transition of the contended allreduce pass.
fn transition_ns(platform: &Platform, ranks: usize, reps: usize) -> f64 {
    let gen = generator("allreduce", &params(ranks, 1));
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let run = pass(platform, &gen, CommMode::Messages, true).expect("allreduce replays");
            t.elapsed().as_secs_f64() / run.solver.transitions.max(1) as f64
        })
        .collect();
    median(&samples) * 1e9
}

fn mpisim(m: &mut Vec<Metric>, with_r512: bool) {
    let henri = platforms::henri();
    m.push(Metric::new(
        "mpisim.transition_ns.r64",
        transition_ns(&henri, 64, 5),
        "ns",
    ));
    if with_r512 {
        m.push(Metric::new(
            "mpisim.transition_ns.r512",
            transition_ns(&henri, 512, 1),
            "ns",
        ));
    }
}

/// Trace ingest alone: drain the `halo2d-4096` source with no world
/// behind it.
fn ingest(m: &mut Vec<Metric>) {
    let gen = generator("halo2d", &params(4096, 4));
    let t = time_median(3, || {
        let mut src = gen.source();
        let mut events = 0usize;
        for rank in 0..src.ranks() {
            while let Ok(Some(e)) = src.peek(rank) {
                black_box(e);
                src.advance(rank);
                events += 1;
            }
        }
        black_box(events);
    });
    m.push(Metric::new(
        "replay.ingest_ns_per_event",
        t / gen.event_count() as f64 * 1e9,
        "ns",
    ));
}

/// The head-to-head at 1024 ranks and 1 iteration (a sixteenth of the
/// `halo2d-4096` op's events), medians of three.
fn head_to_heads(m: &mut Vec<Metric>) {
    let platform = platforms::henri_cxl();
    let p = GenParams {
        comp_numa: NumaId::new(0),
        comm_numa: NumaId::new(0),
        ..params(1024, 1)
    };
    let gen = generator("halo2d", &p);
    let stages: Vec<[f64; 4]> = (0..3)
        .filter_map(|_| halo_stages(&head_to_head(&platform, &gen)))
        .collect();
    m.extend(halo_metrics(&stages));
}

/// `Fleet::build` of `henri*12,dahu*12` from a cold registry, median
/// of many builds.
fn fleet_build(m: &mut Vec<Metric>) {
    let t = time_median(15, || {
        black_box(
            Fleet::build(crate::sched::fleet_platforms(), &ModelRegistry::new(8))
                .expect("the fleet calibrates"),
        );
    });
    m.push(Metric::new("sched.fleet_build_ms", t * 1e3, "ms"));
}

/// The three policies on the seed-0 queue, each op over a fresh
/// evaluator; medians of three ops.
fn policies(m: &mut Vec<Metric>) {
    let fleet = Fleet::build(crate::sched::fleet_platforms(), &ModelRegistry::new(8))
        .expect("the fleet calibrates");
    let queue = crate::sched::queue(0, crate::sched::JOBS);
    let policy_s: Vec<Vec<f64>> = (0..3)
        .map(|_| crate::sched::schedule(&queue, &fleet, 0).policy_s)
        .collect();
    m.extend(crate::sched::policy_metrics(&policy_s));
}

/// Per-kind request times over round 1 of the seed-0 mix, and parsing
/// the round's longest response.
fn serve(m: &mut Vec<Metric>) {
    let plats: Vec<Platform> = PLATFORMS
        .iter()
        .map(|n| platforms::by_name(n).expect("built-in platform"))
        .collect();
    let mut session = Session::start().expect("the server starts");
    for p in &plats {
        // Calibrate every platform before timing anything.
        session.call(&format!(
            "{{\"op\":\"calibrate\",\"platform\":\"{}\"}}",
            p.name()
        ));
    }
    let mut by_kind: [Vec<f64>; 5] = Default::default();
    let mut longest = String::new();
    for req in round(0, 1, &plats) {
        let t = Instant::now();
        let resp = session.call(&req.line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(k) = slot(&req.kind) {
            by_kind[k].push(ms);
        }
        if resp.len() > longest.len() {
            longest = resp;
        }
    }
    m.extend(serve_metrics(&by_kind, &longest));
}

/// Every per-layer timing: `owned` (from the workload's own ops) and,
/// for each layer group the workload did not time, a probe.
pub fn probe(owned: Vec<Metric>) -> Vec<Metric> {
    let has = |name: &str| owned.iter().any(|m| m.name == name);
    let mut m = Vec::new();
    memsim(&mut m);
    core(&mut m);
    ingest(&mut m);
    fleet_build(&mut m);
    if !has("membench.sweep_ms") {
        pipeline(&mut m);
    }
    mpisim(&mut m, !has("mpisim.transition_ns.r512"));
    if !has("replay.pass_ms.messages") {
        head_to_heads(&mut m);
    }
    if !has("sched.policy_ms.first_fit") {
        policies(&mut m);
    }
    if !has("cli.serve.op_ms.predict") {
        serve(&mut m);
    }
    m.extend(owned);
    m
}
