//! `sched-fleet`: one op builds a fresh `Evaluator` and runs all three
//! policies on a seeded queue of 48 shuffle/solver jobs on
//! `henri*12,dahu*12`, then renders the schedule report. The fleet's
//! two calibrations are the set-up. Each timed op draws its own queue
//! and annealing seed from the workload seed and the op's number; the
//! warm-up op's inputs are the same for every seed, so that set-up
//! times the same work in every run.

use std::time::Instant;

use mc_memsim::{JobLoad, NodeWorld};
use mc_model::{ModelRegistry, PhaseProfile};
use mc_sched::report::render;
use mc_sched::{exhaustive, policy_by_name, policy_names, Evaluator, Fleet, JobSpec, SchedulePlan};
use mc_topology::{platforms, NumaId, Platform};

use crate::checks::{self, Placed, ScheduleInput};
use crate::stats::{full_counters, median, Metric, Rng};
use crate::{Counters, Verdict, Workload};

pub const JOBS: usize = 48;
pub const MAX_SLOWDOWN: f64 = 1.25;

/// The fleet `henri*12,dahu*12`.
pub fn fleet_platforms() -> Vec<Platform> {
    let mut v = vec![platforms::henri(); 12];
    v.extend(vec![platforms::dahu(); 12]);
    v
}

/// Alternating communication-heavy shuffles and compute-heavy solvers —
/// the mix where contention-blind packing hurts most — with sizes drawn
/// from the seed.
pub fn queue(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 2);
    (0..jobs)
        .map(|i| {
            let tier = rng.range(1.0, 2.0);
            let (name, compute_gb, comm_gb) = if i % 2 == 0 {
                ("shuffle", 2.0 * tier, 12.0 * tier)
            } else {
                ("solver", 25.0 * tier, 1.0 * tier)
            };
            JobSpec {
                name: format!("{name}{i}"),
                profile: PhaseProfile {
                    compute_bytes: compute_gb * 1e9,
                    comm_bytes: comm_gb * 1e9,
                    max_cores: 8,
                },
            }
        })
        .collect()
}

/// A job's finish time alone on a node, simulated directly on the
/// node's fabric with the whole-node grant a lone job gets.
pub fn solo_finish(world: &mut NodeWorld, node_cores: usize, job: &JobSpec) -> f64 {
    let numa = world.platform().topology.numa_count() as u16;
    let cap = match job.profile.max_cores {
        0 => node_cores,
        c => c,
    };
    let load = JobLoad {
        cores: cap.min(node_cores).max(1),
        comp_numa: NumaId::new(0),
        comm_numa: NumaId::new(if numa > 1 { 1 } else { 0 }),
        compute_bytes: job.profile.compute_bytes,
        comm_bytes: job.profile.comm_bytes,
        comm_pool: None,
    };
    world.run(&[load]).makespan
}

/// `solo[job][node]` for a fleet.
fn solo_table(fleet: &Fleet, jobs: &[JobSpec]) -> Vec<Vec<f64>> {
    let mut worlds: Vec<(String, NodeWorld)> = Vec::new();
    let mut by_node = Vec::new();
    for n in &fleet.nodes {
        let name = n.platform.name().to_string();
        let w = match worlds.iter().position(|(k, _)| *k == name) {
            Some(i) => i,
            None => {
                worlds.push((name, NodeWorld::new(&n.platform)));
                worlds.len() - 1
            }
        };
        by_node.push(w);
    }
    let per_world: Vec<Vec<f64>> = worlds
        .iter_mut()
        .map(|(name, w)| {
            let cores = fleet
                .nodes
                .iter()
                .find(|n| n.platform.name() == name)
                .map_or(0, |n| n.cores);
            jobs.iter().map(|j| solo_finish(w, cores, j)).collect()
        })
        .collect();
    (0..jobs.len())
        .map(|j| by_node.iter().map(|&w| per_world[w][j]).collect())
        .collect()
}

pub struct Outcome {
    pub plans: Vec<(Vec<usize>, SchedulePlan)>,
    pub sims: usize,
    pub report: String,
    /// Host seconds of each policy's assignment and plan, in
    /// `policy_names()` order.
    pub policy_s: Vec<f64>,
}

/// One scheduling op: all three policies over a fresh evaluator.
pub fn schedule(queue: &[JobSpec], fleet: &Fleet, seed: u64) -> Outcome {
    let mut ev = Evaluator::new(queue, fleet);
    let mut plans = Vec::new();
    let mut policy_s = Vec::new();
    for name in policy_names() {
        let t = Instant::now();
        let policy = policy_by_name(name, MAX_SLOWDOWN, seed).expect("known policy");
        let assignment = policy.assign(&mut ev);
        let plan = ev.plan(name, &assignment, MAX_SLOWDOWN);
        policy_s.push(t.elapsed().as_secs_f64());
        plans.push((assignment, plan));
    }
    let only: Vec<SchedulePlan> = plans.iter().map(|(_, p)| p.clone()).collect();
    let report = render(fleet, queue, &only, MAX_SLOWDOWN);
    Outcome {
        plans,
        sims: ev.sims(),
        report,
        policy_s,
    }
}

/// `sched.policy_ms.*`: per policy, the median over ops of its time.
pub fn policy_metrics(policy_s: &[Vec<f64>]) -> Vec<Metric> {
    policy_names()
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let metric = match *name {
                "first_fit" => "sched.policy_ms.first_fit",
                "round_robin" => "sched.policy_ms.round_robin",
                _ => "sched.policy_ms.contention_aware",
            };
            let samples: Vec<f64> = policy_s
                .iter()
                .filter_map(|op| op.get(k).copied())
                .collect();
            Metric::new(metric, median(&samples) * 1e3, "ms")
        })
        .collect()
}

pub fn check_outcome(
    out: &Outcome,
    fleet: &Fleet,
    queue: &[JobSpec],
    solo: &[Vec<f64>],
) -> Result<(), String> {
    let job_cores: Vec<usize> = queue.iter().map(|j| j.profile.max_cores).collect();
    let node_cores: Vec<usize> = fleet.nodes.iter().map(|n| n.cores).collect();
    let input = ScheduleInput {
        job_cores: &job_cores,
        node_cores: &node_cores,
        solo,
        max_slowdown: MAX_SLOWDOWN,
    };
    if out.plans.len() != policy_names().len() {
        return Err("a policy produced no plan".into());
    }
    for (assignment, plan) in &out.plans {
        let placed: Vec<Placed> = plan
            .placements
            .iter()
            .map(|p| Placed {
                job: p.job,
                node: p.node,
                finish: p.finish,
            })
            .collect();
        checks::check_schedule(&input, &placed, plan.violations)
            .map_err(|e| format!("{}: {e}", plan.policy))?;
        if placed
            .iter()
            .any(|p| assignment.get(p.job) != Some(&p.node))
        {
            return Err(format!(
                "{}: the plan differs from the assignment",
                plan.policy
            ));
        }
    }
    if !out.report.contains("policy comparison") {
        return Err("the report misses the policy comparison".into());
    }
    Ok(())
}

/// Jobs of the sub-queue the exhaustive oracle places.
const ORACLE_JOBS: usize = 5;
/// Sub-fleet on which `contention_aware` must reach the exhaustive
/// optimum: three dahu nodes (the property test in `mc-sched` covers
/// henri-only fleets).
const ORACLE_NODES: [usize; 3] = [12, 13, 14];
/// A mixed sub-fleet, henri, henri and dahu, on which `contention_aware`
/// misses the optimum for some queues (README.md, "Checks").
const MIXED_NODES: [usize; 3] = [0, 1, 12];
/// Timed ops whose queues `sched.exhaustive_misses` counts.
const MISS_OPS: u64 = 20;

/// The fleet's nodes `nodes` as a fleet of their own.
fn sub_fleet(fleet: &Fleet, nodes: &[usize], registry: &ModelRegistry) -> Result<Fleet, String> {
    let platforms = nodes
        .iter()
        .map(|&i| fleet.nodes[i].platform.clone())
        .collect();
    Fleet::build(platforms, registry).map_err(|e| e.to_string())
}

/// Whether `contention_aware` reaches the exhaustive optimum on the
/// queue's first [`ORACLE_JOBS`] jobs: same violations, bit-identical
/// makespan. `Err` describes a miss.
fn against_exhaustive(queue: &[JobSpec], small: &Fleet, seed: u64) -> Result<(), String> {
    let jobs = &queue[..ORACLE_JOBS];
    let mut ev = Evaluator::new(jobs, small);
    let (_, oracle) = exhaustive(&mut ev, MAX_SLOWDOWN);
    let heur = policy_by_name("contention_aware", MAX_SLOWDOWN, seed)
        .expect("known policy")
        .assign(&mut ev);
    let got = ev.score(&heur, MAX_SLOWDOWN);
    if got.violations != oracle.violations || got.makespan.to_bits() != oracle.makespan.to_bits() {
        return Err(format!(
            "contention_aware scores ({}, {}) but the exhaustive optimum is ({}, {})",
            got.violations, got.makespan, oracle.violations, oracle.makespan
        ));
    }
    Ok(())
}

/// One op's inputs: a queue and the annealing seed, drawn from the
/// workload seed and the op's number, plus the checker's solo times.
struct Inputs {
    queue: Vec<JobSpec>,
    anneal_seed: u64,
    solo: Option<Vec<Vec<f64>>>,
}

impl Inputs {
    fn new(seed: u64, op: u64) -> Inputs {
        let stream = seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Inputs {
            queue: queue(stream, JOBS),
            anneal_seed: Rng::new(stream, 3).next_u64(),
            solo: None,
        }
    }
}

/// The seed whose op-0 inputs every run's warm-up op schedules.
const WARM_UP_SEED: u64 = 0;

pub struct SchedFleet {
    seed: u64,
    fleet: Fleet,
    registry: ModelRegistry,
    /// Registry hits and misses at the end of the fleet build.
    built: (u64, u64),
    /// [`ORACLE_NODES`] as a fleet, built at the first check.
    oracle_fleet: Option<Fleet>,
    /// Inputs of the next op; every timed op schedules a different
    /// queue, so a run's median covers the seed's distribution of queues.
    next: Inputs,
    ops: u64,
    /// Node simulations of the first timed op.
    first_sims: Option<usize>,
    /// Per timed op: [`Outcome::policy_s`].
    policy_s: Vec<Vec<f64>>,
}

impl SchedFleet {
    fn check_next(&mut self, out: &Outcome) -> Result<(), String> {
        let inputs = &mut self.next;
        let solo = inputs
            .solo
            .get_or_insert_with(|| solo_table(&self.fleet, &inputs.queue));
        check_outcome(out, &self.fleet, &inputs.queue, solo)?;
        if self.oracle_fleet.is_none() {
            self.oracle_fleet = Some(sub_fleet(&self.fleet, &ORACLE_NODES, &self.registry)?);
        }
        let small = self.oracle_fleet.as_ref().expect("built above");
        against_exhaustive(&inputs.queue, small, inputs.anneal_seed)
    }

    /// Misses of `contention_aware` against the exhaustive optimum on
    /// [`MIXED_NODES`], over the queues of timed ops 1 to [`MISS_OPS`].
    fn mixed_misses(&self) -> u64 {
        let Ok(small) = sub_fleet(&self.fleet, &MIXED_NODES, &self.registry) else {
            return 0;
        };
        (1..=MISS_OPS)
            .filter(|&op| {
                let inputs = Inputs::new(self.seed, op);
                against_exhaustive(&inputs.queue, &small, inputs.anneal_seed).is_err()
            })
            .count() as u64
    }

    fn advance(&mut self) {
        self.ops += 1;
        self.next = Inputs::new(self.seed, self.ops);
    }
}

impl Workload for SchedFleet {
    type Out = Outcome;

    fn setup(seed: u64) -> Result<Self, String> {
        let registry = ModelRegistry::new(8);
        let fleet = Fleet::build(fleet_platforms(), &registry).map_err(|e| e.to_string())?;
        let stats = registry.stats();
        let next = Inputs::new(WARM_UP_SEED, 0);
        fleet
            .validate_jobs(&next.queue)
            .map_err(|e| e.to_string())?;
        Ok(SchedFleet {
            seed,
            fleet,
            registry,
            built: (stats.hits, stats.misses),
            oracle_fleet: None,
            next,
            ops: 0,
            first_sims: None,
            policy_s: Vec::new(),
        })
    }

    fn run(&mut self, _i: usize) -> Outcome {
        schedule(&self.next.queue, &self.fleet, self.next.anneal_seed)
    }

    fn check_warm_up(&mut self, out: Outcome) -> Verdict {
        let checked = self.check_next(&out);
        self.advance();
        match checked {
            Ok(()) => Verdict::Pass,
            Err(e) => Verdict::Wrong(e),
        }
    }

    fn check(&mut self, _i: usize, out: Outcome) -> Verdict {
        self.first_sims.get_or_insert(out.sims);
        self.policy_s.push(out.policy_s.clone());
        let checked = self.check_next(&out);
        self.advance();
        match checked {
            Ok(()) => Verdict::Pass,
            Err(e) => Verdict::Wrong(e),
        }
    }

    /// Node simulations of the first timed op, the registry's counters
    /// at the end of the fleet build, and the mixed sub-fleet's misses.
    fn counters(&mut self) -> Counters {
        full_counters(&[
            ("sched.simulations", self.first_sims.unwrap_or(0) as u64),
            ("sched.exhaustive_misses", self.mixed_misses()),
            ("core.registry.hits", self.built.0),
            ("core.registry.misses", self.built.1),
        ])
    }

    fn layers(&self) -> Vec<Metric> {
        policy_metrics(&self.policy_s)
    }
}
