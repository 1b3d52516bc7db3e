//! Output checks. Each check either recomputes a result apart from the
//! code under test or tests a property the method must have. They take
//! plain data so that the self-tests below can hand them corrupted
//! outputs.

/// Table II's claim: the average error over the six platforms.
pub const TABLE2_MAX_AVERAGE_PCT: f64 = 4.0;

/// One platform's share of a Table II reproduction.
pub struct ReproRow {
    pub platform: String,
    /// `evaluate`'s average MAPE, percent.
    pub reported_average: f64,
    /// `(measured comm, predicted comm, measured comp, predicted comp)`
    /// for every point of every placement.
    pub pairs: Vec<(f64, f64, f64, f64)>,
    /// `(predicted comm, alone comm, predicted comp, alone comp)` for
    /// every point of every placement.
    pub vs_alone: Vec<(f64, f64, f64, f64)>,
}

/// MAPE in percent over `(actual, predicted)` pairs with a positive
/// actual value — the paper's definition, written out independently of
/// `mc_model::Mape`.
pub fn mape_pct(pairs: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0usize);
    for (a, p) in pairs {
        if a > 0.0 {
            sum += ((a - p) / a).abs();
            n += 1;
        }
    }
    (n > 0).then(|| 100.0 * sum / n as f64)
}

pub fn check_repro(rows: &[ReproRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("no Table II rows".into());
    }
    for r in rows {
        let comm = mape_pct(r.pairs.iter().map(|p| (p.0, p.1)))
            .ok_or_else(|| format!("{}: no positive comm measurement", r.platform))?;
        let comp = mape_pct(r.pairs.iter().map(|p| (p.2, p.3)))
            .ok_or_else(|| format!("{}: no positive comp measurement", r.platform))?;
        let recomputed = (comm + comp) / 2.0;
        let close = (recomputed - r.reported_average).abs() <= 1e-9;
        if !close {
            return Err(format!(
                "{}: evaluate reports {} % but the sweep and predictions give {} %",
                r.platform, r.reported_average, recomputed
            ));
        }
        for &(comm_p, comm_a, comp_p, comp_a) in &r.vs_alone {
            if !(comm_p > 0.0 && comp_p > 0.0 && comm_p.is_finite() && comp_p.is_finite()) {
                return Err(format!(
                    "{}: non-positive prediction comm {comm_p} comp {comp_p}",
                    r.platform
                ));
            }
            if comm_p > comm_a * (1.0 + 1e-12) || comp_p > comp_a * (1.0 + 1e-12) {
                return Err(format!(
                    "{}: contention raised a bandwidth above its alone value \
                     (comm {comm_p} > {comm_a} or comp {comp_p} > {comp_a})",
                    r.platform
                ));
            }
        }
    }
    let avg = rows.iter().map(|r| r.reported_average).sum::<f64>() / rows.len() as f64;
    let below = avg < TABLE2_MAX_AVERAGE_PCT;
    if !below {
        return Err(format!(
            "Table II average error {avg:.3} % is not below {TABLE2_MAX_AVERAGE_PCT} %"
        ));
    }
    Ok(())
}

/// Contention can only slow a program down. The contended and baseline
/// passes sum the same phases in different orders, so a program with no
/// contention at all may report a slowdown a few ULPs below 1; that much
/// (and no more) is accepted.
pub const SLOWDOWN_ROUNDING: f64 = 1e-12;

pub fn check_slowdown(label: &str, slowdown: f64) -> Result<(), String> {
    if slowdown >= 1.0 - SLOWDOWN_ROUNDING && slowdown.is_finite() {
        Ok(())
    } else {
        Err(format!("{label} slowdown {slowdown} is below 1"))
    }
}

pub fn check_count(label: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{label}: {got}, expected {want}"))
    }
}

pub fn check_at_least(label: &str, got: f64, bound: f64) -> Result<(), String> {
    if got >= bound {
        Ok(())
    } else {
        Err(format!("{label} {got} is below the lower bound {bound}"))
    }
}

/// Two simulated times that symmetry says are equal.
pub fn check_same_time(label: &str, got: f64, want: f64) -> Result<(), String> {
    if (got - want).abs() <= 1e-9 * want.abs() {
        Ok(())
    } else {
        Err(format!("{label} {got} differs from the reference {want}"))
    }
}

/// One placement of a schedule, as the checks see it.
pub struct Placed {
    pub job: usize,
    pub node: usize,
    pub finish: f64,
}

/// Everything a schedule is checked against.
pub struct ScheduleInput<'a> {
    /// Cores each job asks for (0 = any).
    pub job_cores: &'a [usize],
    /// Cores each node grants.
    pub node_cores: &'a [usize],
    /// `solo[job][node]`: the job's finish time alone on that node,
    /// simulated by the benchmark itself.
    pub solo: &'a [Vec<f64>],
    pub max_slowdown: f64,
}

/// Every job placed exactly once on a node wide enough for it, none
/// finishing before its solo time, and the reported violation count
/// matching a recount.
pub fn check_schedule(
    input: &ScheduleInput<'_>,
    placements: &[Placed],
    reported_violations: usize,
) -> Result<(), String> {
    let jobs = input.job_cores.len();
    let mut seen = vec![0usize; jobs];
    let mut per_node = vec![0usize; input.node_cores.len()];
    for p in placements {
        if p.job >= jobs || p.node >= input.node_cores.len() {
            return Err(format!(
                "placement of job {} on node {} is out of range",
                p.job, p.node
            ));
        }
        seen[p.job] += 1;
        per_node[p.node] += 1;
        if input.job_cores[p.job] > input.node_cores[p.node] {
            return Err(format!(
                "job {} needs {} cores but node {} has {}",
                p.job, input.job_cores[p.job], p.node, input.node_cores[p.node]
            ));
        }
    }
    if let Some(j) = seen.iter().position(|&n| n != 1) {
        return Err(format!("job {j} is placed {} times", seen[j]));
    }
    let mut violations = 0;
    for p in placements {
        let solo = input.solo[p.job][p.node];
        if p.finish < solo * (1.0 - 1e-9) {
            return Err(format!(
                "job {} finishes at {} s, before its solo time {} s",
                p.job, p.finish, solo
            ));
        }
        if per_node[p.node] > 1 && p.finish / solo > input.max_slowdown * (1.0 + 1e-9) {
            violations += 1;
        }
    }
    if violations != reported_violations {
        return Err(format!(
            "{reported_violations} violations reported, {violations} recounted"
        ));
    }
    Ok(())
}

/// Responses echo their requests' ids, in order.
pub fn check_ids(sent: &[u64], received: &[Option<u64>]) -> Result<(), String> {
    if sent.len() != received.len() {
        return Err(format!(
            "{} requests but {} responses",
            sent.len(),
            received.len()
        ));
    }
    for (i, (s, r)) in sent.iter().zip(received).enumerate() {
        if Some(*s) != *r {
            return Err(format!("response {i} carries id {r:?}, expected {s}"));
        }
    }
    Ok(())
}

/// A served number equals the benchmark's own, bit for bit.
pub fn check_bits(label: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{label} {got} differs from the direct result {want}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(avg_err: f64) -> ReproRow {
        // One comm and one comp pair, each off by `avg_err` percent.
        let p = 1.0 - avg_err / 100.0;
        ReproRow {
            platform: "x".into(),
            reported_average: avg_err,
            pairs: vec![(10.0, 10.0 * p, 20.0, 20.0 * p)],
            vs_alone: vec![(10.0 * p, 10.0, 20.0 * p, 20.0)],
        }
    }

    #[test]
    fn repro_accepts_a_faithful_table_and_rejects_a_bad_average() {
        assert!(check_repro(&[row(2.5), row(3.0)]).is_ok());
        let err = check_repro(&[row(2.5), row(6.0)]).unwrap_err();
        assert!(err.contains("not below"), "{err}");
    }

    #[test]
    fn repro_rejects_a_misreported_mape_and_a_raised_bandwidth() {
        let mut r = row(2.0);
        r.reported_average = 1.0;
        assert!(check_repro(&[r]).is_err());
        let mut r = row(2.0);
        r.vs_alone[0].0 = 11.0;
        assert!(check_repro(&[r]).is_err());
        let mut r = row(2.0);
        r.vs_alone[0].2 = 0.0;
        assert!(check_repro(&[r]).is_err());
    }

    #[test]
    fn slowdown_below_one_is_rejected() {
        assert!(check_slowdown("x", 1.811).is_ok());
        assert!(check_slowdown("x", 1.0).is_ok());
        assert!(check_slowdown("x", 0.9999999999999998).is_ok());
        assert!(check_slowdown("x", 1.0 - 1e-9).is_err());
        assert!(check_slowdown("x", 0.97).is_err());
        assert!(check_slowdown("x", f64::NAN).is_err());
    }

    #[test]
    fn symmetric_times_and_counts() {
        assert!(check_same_time("m", 0.189785, 0.189785).is_ok());
        assert!(check_same_time("m", 0.19, 0.189785).is_err());
        assert!(check_count("events", 9, 10).is_err());
        assert!(check_at_least("makespan", 0.01, 0.02).is_err());
    }

    fn sched_input<'a>(solo: &'a [Vec<f64>]) -> ScheduleInput<'a> {
        ScheduleInput {
            job_cores: &[4, 8, 8],
            node_cores: &[8, 8],
            solo,
            max_slowdown: 1.25,
        }
    }

    #[test]
    fn schedule_accepts_a_valid_plan() {
        let solo = vec![vec![1.0, 1.0]; 3];
        let plan = [
            Placed {
                job: 0,
                node: 0,
                finish: 1.5,
            },
            Placed {
                job: 1,
                node: 0,
                finish: 1.1,
            },
            Placed {
                job: 2,
                node: 1,
                finish: 1.0,
            },
        ];
        assert!(check_schedule(&sched_input(&solo), &plan, 1).is_ok());
        // The same plan with a misreported violation count.
        assert!(check_schedule(&sched_input(&solo), &plan, 0).is_err());
    }

    #[test]
    fn schedule_rejects_a_job_placed_twice() {
        let solo = vec![vec![1.0, 1.0]; 3];
        let plan = [
            Placed {
                job: 0,
                node: 0,
                finish: 1.0,
            },
            Placed {
                job: 0,
                node: 1,
                finish: 1.0,
            },
            Placed {
                job: 2,
                node: 1,
                finish: 1.0,
            },
        ];
        let err = check_schedule(&sched_input(&solo), &plan, 0).unwrap_err();
        assert!(err.contains("placed"), "{err}");
    }

    #[test]
    fn schedule_rejects_an_early_finish_and_a_narrow_node() {
        let solo = vec![vec![1.0, 1.0]; 3];
        let early = [
            Placed {
                job: 0,
                node: 0,
                finish: 0.5,
            },
            Placed {
                job: 1,
                node: 1,
                finish: 1.0,
            },
            Placed {
                job: 2,
                node: 1,
                finish: 1.0,
            },
        ];
        assert!(check_schedule(&sched_input(&solo), &early, 0).is_err());
        let narrow = ScheduleInput {
            node_cores: &[4, 8],
            ..sched_input(&solo)
        };
        let plan = [
            Placed {
                job: 0,
                node: 0,
                finish: 1.0,
            },
            Placed {
                job: 1,
                node: 0,
                finish: 1.0,
            },
            Placed {
                job: 2,
                node: 1,
                finish: 1.0,
            },
        ];
        assert!(check_schedule(&narrow, &plan, 0).is_err());
    }

    #[test]
    fn reordered_serve_responses_are_rejected() {
        assert!(check_ids(&[1, 2, 3], &[Some(1), Some(2), Some(3)]).is_ok());
        assert!(check_ids(&[1, 2, 3], &[Some(2), Some(1), Some(3)]).is_err());
        assert!(check_ids(&[1, 2], &[Some(1)]).is_err());
        assert!(check_ids(&[1], &[None]).is_err());
    }

    #[test]
    fn bitwise_equality() {
        assert!(check_bits("comp", 0.1 + 0.2, 0.1 + 0.2).is_ok());
        assert!(check_bits("comp", 0.3, 0.1 + 0.2).is_err());
    }
}
