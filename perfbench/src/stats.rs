//! Small statistics, the seeded generator and result formatting.

use crate::Counters;

/// The work counters every run prints, in this order. A workload that
/// does not touch a layer reports 0 for its counters.
pub const COUNTER_NAMES: [&str; 12] = [
    "mpisim.world.transitions",
    "mpisim.world.node_steps",
    "memsim.delta.full_solves",
    "memsim.delta.state_hits",
    "memsim.engine.events",
    "memsim.engine.solver_invocations",
    "memsim.engine.cache_hits",
    "sched.simulations",
    "sched.exhaustive_misses",
    "core.registry.hits",
    "core.registry.misses",
    "replay.events",
];

/// Expand a workload's counters to the full [`COUNTER_NAMES`] list.
pub fn full_counters(partial: &[(&'static str, u64)]) -> Counters {
    COUNTER_NAMES
        .iter()
        .map(|&name| {
            let v = partial
                .iter()
                .filter(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .sum();
            (name, v)
        })
        .collect()
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1]: the smallest sample with at
/// least a share `q` of the samples at or below it. With fewer than
/// `1 / (1 - q)` samples this is the largest sample.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median seconds per call of `f`, timed in batches of `batch` calls so
/// that sub-microsecond calls stay above the clock's resolution.
pub fn per_call<F: FnMut()>(samples: usize, batch: usize, mut f: F) -> f64 {
    time_median(samples, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// splitmix64: the benchmark's input generator. Deterministic in the
/// seed and independent of the program under test.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; they would only come from an
            // empty measurement, which `measure` rules out.
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), 198.0);
        assert_eq!(nearest_rank(&[5.0, 1.0, 9.0], 0.99), 9.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
