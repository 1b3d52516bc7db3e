//! `serve-mix`: one op is one request line answered by an in-process
//! `serve --listen 127.0.0.1:0` over one tenant connection, in a closed
//! loop. A round is [`ROUND`] requests in a seeded order with seeded
//! parameters; its make-up is fixed:
//!
//! | requests | kind |
//! |---|---|
//! | 60 | single `predict` (registry hits) |
//! | 20 | `batch` of 8 `predict`s |
//! | 6 | `recommend` |
//! | 4 | `evaluate` |
//! | 6 | small `replay`: halo2d at 16–64 ranks or allreduce at 16–32 |
//! | 2 | large `replay`: allreduce at 64 ranks |
//! | 2 | out of topology: `predict` and `replay` with 1000 cores |
//!
//! The two out-of-topology requests have fixed contents. The correct
//! answer to them is a typed `usage` or `data` error; until the program
//! gives one, they count as failed (2 % of every round).
//!
//! The weights are an assumption, not recorded traffic: README.md
//! states the use case they model. Under them `op_ms.p99` falls inside
//! the large replays (2 % of requests, several times slower than any
//! other kind), not on the edge between two kinds.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;

use mc_cli::net::NetServer;
use mc_cli::Args;
use mc_json::Json;
use mc_membench::{calibration_sweeps, BenchConfig};
use mc_model::ContentionModel;
use mc_replay::generate::{GenParams, LazyGen};
use mc_replay::{run_source, ReplayConfig};
use mc_topology::{platforms, NumaId, Platform};

use crate::checks;
use crate::stats::{full_counters, median, per_call, Metric, Rng};
use crate::{Counters, Verdict, Workload};

/// Requests per round.
pub const ROUND: usize = 100;
/// Predicts per batch request.
pub const BATCH: usize = 8;
/// Platforms the mix addresses.
pub const PLATFORMS: [&str; 3] = ["henri", "dahu", "diablo"];

/// The seed whose round 0 every run's warm-up op sends.
const WARM_UP_SEED: u64 = 0;

/// What a request asks, as the checks need it.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Predict(PredictReq),
    Batch(Vec<PredictReq>),
    Recommend {
        max_cores: usize,
    },
    Evaluate,
    Replay(ReplayReq),
    /// A request whose core count exceeds the platform's.
    OutOfTopology,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictReq {
    pub id: u64,
    pub platform: usize,
    pub cores: usize,
    pub comp: u16,
    pub comm: u16,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplayReq {
    pub platform: usize,
    pub pattern: &'static str,
    pub ranks: usize,
    pub iters: usize,
    pub comm_mb: u64,
}

/// One request line and what it asks.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub line: String,
    pub kind: Kind,
}

/// The `cli.serve.op_ms.*` metric of each request kind, by [`slot`].
const KIND_METRICS: [&str; 5] = [
    "cli.serve.op_ms.predict",
    "cli.serve.op_ms.batch",
    "cli.serve.op_ms.recommend",
    "cli.serve.op_ms.evaluate",
    "cli.serve.op_ms.replay",
];

/// Index of a request kind in [`KIND_METRICS`]; `None` for the
/// out-of-topology requests.
pub fn slot(kind: &Kind) -> Option<usize> {
    match kind {
        Kind::Predict(_) => Some(0),
        Kind::Batch(_) => Some(1),
        Kind::Recommend { .. } => Some(2),
        Kind::Evaluate => Some(3),
        Kind::Replay(_) => Some(4),
        Kind::OutOfTopology => None,
    }
}

/// Request times per kind (medians of `by_kind`, in ms) and
/// `mc_json::Json::parse` of `longest`.
pub fn serve_metrics(by_kind: &[Vec<f64>; 5], longest: &str) -> Vec<Metric> {
    let mut m: Vec<Metric> = KIND_METRICS
        .iter()
        .zip(by_kind)
        .map(|(name, ms)| Metric::new(name, median(ms), "ms"))
        .collect();
    let line = longest.trim_end();
    let parse = per_call(31, 20, || {
        black_box(Json::parse(black_box(line)).is_ok());
    });
    m.push(Metric::new("json.parse_us", parse * 1e6, "us"));
    m
}

fn predict_json(p: &PredictReq, name: &str) -> String {
    format!(
        "{{\"id\":{},\"op\":\"predict\",\"platform\":\"{name}\",\"cores\":{},\"comp_numa\":{},\"comm_numa\":{}}}",
        p.id, p.cores, p.comp, p.comm
    )
}

fn random_predict(rng: &mut Rng, id: u64, plats: &[Platform]) -> PredictReq {
    let platform = rng.below(plats.len() as u64) as usize;
    let p = &plats[platform];
    let numa = p.topology.numa_count() as u64;
    PredictReq {
        id,
        platform,
        cores: 1 + rng.below(p.max_compute_cores() as u64) as usize,
        comp: rng.below(numa) as u16,
        comm: rng.below(numa) as u16,
    }
}

/// The kinds of one round, in make-up order (before shuffling).
fn round_kinds() -> Vec<u8> {
    let mut v = Vec::with_capacity(ROUND);
    for (kind, n) in [
        (0u8, 60),
        (1, 20),
        (2, 6),
        (3, 4),
        (4, 6),
        (7, 2),
        (5, 1),
        (6, 1),
    ] {
        v.extend(std::iter::repeat_n(kind, n));
    }
    v
}

/// Round `round` of the mix for `seed`. Ids are unique across rounds.
pub fn round(seed: u64, round: u64, plats: &[Platform]) -> Vec<Request> {
    let mut rng = Rng::new(seed, 100 + round);
    let mut kinds = round_kinds();
    rng.shuffle(&mut kinds);
    let base = round * 10_000;
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let id = base + (i as u64) * 100;
            let pick = |rng: &mut Rng| rng.below(plats.len() as u64) as usize;
            match k {
                0 => {
                    let p = random_predict(&mut rng, id, plats);
                    Request {
                        id,
                        line: predict_json(&p, plats[p.platform].name()),
                        kind: Kind::Predict(p),
                    }
                }
                1 => {
                    let items: Vec<PredictReq> = (0..BATCH as u64)
                        .map(|j| random_predict(&mut rng, id + 1 + j, plats))
                        .collect();
                    let body = items
                        .iter()
                        .map(|p| predict_json(p, plats[p.platform].name()))
                        .collect::<Vec<_>>()
                        .join(",");
                    Request {
                        id,
                        line: format!("{{\"id\":{id},\"batch\":[{body}]}}"),
                        kind: Kind::Batch(items),
                    }
                }
                2 => {
                    let p = pick(&mut rng);
                    let max_cores = plats[p].max_compute_cores();
                    Request {
                        id,
                        line: format!(
                            "{{\"id\":{id},\"op\":\"recommend\",\"platform\":\"{}\",\"compute_gb\":{},\"comm_gb\":{},\"top\":3}}",
                            plats[p].name(),
                            10 + rng.below(50),
                            1 + rng.below(16)
                        ),
                        kind: Kind::Recommend { max_cores },
                    }
                }
                3 => {
                    let p = pick(&mut rng);
                    Request {
                        id,
                        line: format!(
                            "{{\"id\":{id},\"op\":\"evaluate\",\"platform\":\"{}\"}}",
                            plats[p].name()
                        ),
                        kind: Kind::Evaluate,
                    }
                }
                4 | 7 => {
                    let platform = pick(&mut rng);
                    let (pattern, ranks, iters) = match (k, rng.below(2)) {
                        (7, _) => ("allreduce", 64, 1),
                        (_, 0) => ("halo2d", [16, 32, 64][rng.below(3) as usize], 1 + rng.below(2) as usize),
                        _ => ("allreduce", [16, 32][rng.below(2) as usize], 1 + rng.below(2) as usize),
                    };
                    let r = ReplayReq {
                        platform,
                        pattern,
                        ranks,
                        iters,
                        comm_mb: [8, 16, 32][rng.below(3) as usize],
                    };
                    Request {
                        id,
                        line: format!(
                            "{{\"id\":{id},\"op\":\"replay\",\"platform\":\"{}\",\"pattern\":\"{}\",\"ranks\":{},\"iters\":{},\"comm_mb\":{}}}",
                            plats[r.platform].name(),
                            r.pattern,
                            r.ranks,
                            r.iters,
                            r.comm_mb
                        ),
                        kind: Kind::Replay(r),
                    }
                }
                5 => Request {
                    id,
                    line: format!(
                        "{{\"id\":{id},\"op\":\"predict\",\"platform\":\"henri\",\"cores\":1000,\"comp_numa\":0,\"comm_numa\":1}}"
                    ),
                    kind: Kind::OutOfTopology,
                },
                _ => Request {
                    id,
                    line: format!(
                        "{{\"id\":{id},\"op\":\"replay\",\"platform\":\"henri\",\"pattern\":\"halo2d\",\"ranks\":4,\"cores\":1000}}"
                    ),
                    kind: Kind::OutOfTopology,
                },
            }
        })
        .collect()
}

/// An in-process TCP server and one authenticated tenant connection.
pub struct Session {
    server: Option<JoinHandle<()>>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Session {
    pub fn start() -> Result<Session, String> {
        let args = Args::parse(["serve", "--listen", "127.0.0.1:0"]).map_err(|e| e.to_string())?;
        let server = NetServer::bind(&args).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            // A transport failure of the accept loop ends the session;
            // the client sees it as a closed connection.
            let _ = server.run();
        });
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut s = Session {
            server: Some(handle),
            writer,
            reader,
            buf: String::new(),
        };
        let hello = s.call("{\"hello\":{\"tenant\":\"perfbench\"}}");
        let ack = Json::parse(&hello).map_err(|e| format!("hello: {e}"))?;
        if ack.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("hello refused: {hello}"));
        }
        Ok(s)
    }

    /// Send one request line and return its response line; an empty
    /// string when the connection failed.
    pub fn call(&mut self, line: &str) -> String {
        self.buf.clear();
        let sent = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush());
        if sent.is_ok() && self.reader.read_line(&mut self.buf).is_ok() {
            std::mem::take(&mut self.buf)
        } else {
            String::new()
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Stop the accept loop, then wait for it; errors mean it is
        // already gone.
        let _ = self.call("{\"op\":\"shutdown\"}");
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

fn field(r: &Json, key: &str) -> Result<f64, String> {
    r.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("response lacks a numeric '{key}'"))
}

fn expect_ok(r: &Json, id: u64) -> Result<(), String> {
    checks::check_ids(&[id], &[r.get("id").and_then(Json::as_u64)])?;
    if r.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("request {id} failed: {}", r.render()));
    }
    Ok(())
}

/// The checker's own models and replays, built on first use so that
/// none of this work lands in set-up or in a timed op.
pub struct Reference {
    plats: Vec<Platform>,
    models: Vec<Option<ContentionModel>>,
    replays: HashMap<ReplayReq, (f64, f64, usize)>,
}

impl Reference {
    pub fn new(plats: Vec<Platform>) -> Self {
        Reference {
            models: vec![None; plats.len()],
            plats,
            replays: HashMap::new(),
        }
    }

    fn model(&mut self, i: usize) -> Result<&ContentionModel, String> {
        if self.models[i].is_none() {
            let p = &self.plats[i];
            let (local, remote) = calibration_sweeps(p, BenchConfig::default());
            let m = ContentionModel::calibrate(&p.topology, &local, &remote)
                .map_err(|e| e.to_string())?;
            self.models[i] = Some(m);
        }
        Ok(self.models[i].as_ref().expect("filled above"))
    }

    fn check_predict(&mut self, p: &PredictReq, r: &Json) -> Result<(), String> {
        expect_ok(r, p.id)?;
        let want =
            self.model(p.platform)?
                .predict(p.cores, NumaId::new(p.comp), NumaId::new(p.comm));
        checks::check_bits("predicted comp", field(r, "comp")?, want.comp)?;
        checks::check_bits("predicted comm", field(r, "comm")?, want.comm)
    }

    /// `(makespan, baseline, events)` of a direct `run_source`.
    fn replay(&mut self, q: &ReplayReq) -> Result<(f64, f64, usize), String> {
        if let Some(v) = self.replays.get(q) {
            return Ok(*v);
        }
        let params = GenParams {
            ranks: q.ranks,
            iters: q.iters,
            comm_bytes: q.comm_mb << 20,
            ..GenParams::default()
        };
        let gen = LazyGen::new(q.pattern, &params).ok_or("unknown pattern")?;
        let p = &self.plats[q.platform];
        let cfg = ReplayConfig::default();
        let c = run_source(p, &mut gen.source(), &cfg, true).map_err(|e| e.to_string())?;
        let b = run_source(p, &mut gen.source(), &cfg, false).map_err(|e| e.to_string())?;
        let v = (c.run.makespan, b.run.makespan, c.events());
        self.replays.insert(*q, v);
        Ok(v)
    }

    pub fn check(&mut self, req: &Request, response: &str) -> Verdict {
        let r = match Json::parse(response.trim_end()) {
            Ok(r) => r,
            Err(e) => return Verdict::Wrong(format!("response is not JSON ({e}): {response:?}")),
        };
        match self.check_parsed(req, &r) {
            Ok(v) => v,
            Err(e) => Verdict::Wrong(e),
        }
    }

    fn check_parsed(&mut self, req: &Request, r: &Json) -> Result<Verdict, String> {
        match &req.kind {
            Kind::Predict(p) => self.check_predict(p, r)?,
            Kind::Batch(items) => {
                expect_ok(r, req.id)?;
                let got = r
                    .get("batch")
                    .and_then(Json::as_array)
                    .ok_or("no batch array")?;
                let ids: Vec<Option<u64>> = got
                    .iter()
                    .map(|g| g.get("id").and_then(Json::as_u64))
                    .collect();
                let sent: Vec<u64> = items.iter().map(|p| p.id).collect();
                checks::check_ids(&sent, &ids)?;
                for (p, g) in items.iter().zip(got) {
                    self.check_predict(p, g)?;
                }
            }
            Kind::Recommend { max_cores } => {
                expect_ok(r, req.id)?;
                let recs = r
                    .get("recommendations")
                    .and_then(Json::as_array)
                    .ok_or("no recommendations")?;
                if recs.is_empty() || recs.len() > 3 {
                    return Err(format!("{} recommendations for top 3", recs.len()));
                }
                let mut last = 0.0;
                for rec in recs {
                    let cores = field(rec, "cores")?;
                    let makespan = field(rec, "makespan")?;
                    if !(cores >= 1.0 && cores <= *max_cores as f64) {
                        return Err(format!("recommended {cores} cores of {max_cores}"));
                    }
                    if !(makespan > 0.0 && makespan >= last) {
                        return Err("recommendations are not ranked by makespan".into());
                    }
                    last = makespan;
                }
            }
            Kind::Evaluate => {
                expect_ok(r, req.id)?;
                let (comm, comp, avg) = (
                    field(r, "comm_all")?,
                    field(r, "comp_all")?,
                    field(r, "average")?,
                );
                if !(avg >= 0.0 && ((comm + comp) / 2.0 - avg).abs() <= 1e-9) {
                    return Err(format!(
                        "average {avg} is not the mean of {comm} and {comp}"
                    ));
                }
            }
            Kind::Replay(q) => {
                expect_ok(r, req.id)?;
                let (makespan, baseline, events) = self.replay(q)?;
                checks::check_bits("replay makespan", field(r, "makespan")?, makespan)?;
                checks::check_bits("replay baseline", field(r, "baseline")?, baseline)?;
                checks::check_count("replay events", field(r, "events")? as u64, events as u64)?;
                checks::check_slowdown("replay", field(r, "slowdown")?)?;
            }
            Kind::OutOfTopology => {
                checks::check_ids(&[req.id], &[r.get("id").and_then(Json::as_u64)])?;
                if r.get("ok") == Some(&Json::Bool(true)) {
                    return Ok(Verdict::KnownFault(format!(
                        "accepted a core count beyond the platform: {}",
                        r.render()
                    )));
                }
                let class = r
                    .get("error")
                    .and_then(|e| e.get("class"))
                    .and_then(Json::as_str);
                if !matches!(class, Some("usage" | "data")) {
                    return Err(format!("out-of-topology request got {}", r.render()));
                }
            }
        }
        Ok(Verdict::Pass)
    }
}

pub struct ServeMix {
    seed: u64,
    session: Session,
    reference: Reference,
    plats: Vec<Platform>,
    round_no: u64,
    requests: Vec<Request>,
    /// The warm-up op's requests, in order.
    warm: Vec<Request>,
    /// Registry counters after set-up and after the first timed round.
    stats: Vec<(u64, u64)>,
    /// Timed request times by [`slot`], in ms.
    by_kind: [Vec<f64>; 5],
    /// The longest response of the first timed round.
    longest: String,
}

impl ServeMix {
    fn registry_stats(&mut self) -> Result<(u64, u64), String> {
        let r = Json::parse(self.session.call("{\"op\":\"stats\"}").trim_end())
            .map_err(|e| format!("stats: {e}"))?;
        Ok((field(&r, "hits")? as u64, field(&r, "misses")? as u64))
    }
}

impl Workload for ServeMix {
    type Out = String;

    fn setup(seed: u64) -> Result<Self, String> {
        let plats: Vec<Platform> = PLATFORMS
            .iter()
            .map(|n| platforms::by_name(n).expect("built-in platform"))
            .collect();
        let session = Session::start()?;
        // The warm-up op: one batch touching every platform of the mix,
        // so that every registry miss (calibration) happens in set-up,
        // then round 0 of a fixed seed's mix without its out-of-topology
        // requests, so that set-up is tens of milliseconds of the same
        // work in every run rather than one sub-millisecond request.
        let items: Vec<PredictReq> = (0..plats.len())
            .map(|i| PredictReq {
                id: 1 + i as u64,
                platform: i,
                cores: 1,
                comp: 0,
                comm: 0,
            })
            .collect();
        let body = items
            .iter()
            .map(|p| predict_json(p, plats[p.platform].name()))
            .collect::<Vec<_>>()
            .join(",");
        let mut warm = vec![Request {
            id: 0,
            line: format!("{{\"id\":0,\"batch\":[{body}]}}"),
            kind: Kind::Batch(items),
        }];
        warm.extend(
            round(WARM_UP_SEED, 0, &plats)
                .into_iter()
                .filter(|r| r.kind != Kind::OutOfTopology),
        );
        Ok(ServeMix {
            seed,
            session,
            reference: Reference::new(plats.clone()),
            requests: round(seed, 1, &plats),
            warm,
            plats,
            round_no: 1,
            stats: Vec::new(),
            by_kind: Default::default(),
            longest: String::new(),
        })
    }

    /// Every warm-up response, one line each.
    fn warm_up(&mut self) -> String {
        let mut all = String::new();
        for i in 0..self.warm.len() {
            all.push_str(&self.session.call(&self.warm[i].line));
        }
        all
    }

    fn check_warm_up(&mut self, out: String) -> Verdict {
        let lines: Vec<&str> = out.lines().collect();
        let mut verdict = if lines.len() == self.warm.len() {
            Verdict::Pass
        } else {
            Verdict::Wrong(format!(
                "{} responses to {} warm-up requests",
                lines.len(),
                self.warm.len()
            ))
        };
        for (req, line) in self.warm.iter().zip(&lines) {
            if verdict != Verdict::Pass {
                break;
            }
            verdict = self.reference.check(req, line);
        }
        match self.registry_stats() {
            Ok(s) => self.stats.push(s),
            Err(e) => return Verdict::Wrong(e),
        }
        verdict
    }

    fn round_len(&self) -> usize {
        ROUND
    }

    fn run(&mut self, i: usize) -> String {
        self.session.call(&self.requests[i].line)
    }

    fn check(&mut self, i: usize, out: String) -> Verdict {
        let verdict = self.reference.check(&self.requests[i], &out);
        if self.round_no == 1 && out.len() > self.longest.len() {
            self.longest = out;
        }
        verdict
    }

    fn timed(&mut self, i: usize, ms: f64) {
        if let Some(k) = slot(&self.requests[i].kind) {
            self.by_kind[k].push(ms);
        }
    }

    fn end_round(&mut self) {
        if self.stats.len() == 1 {
            if let Ok(s) = self.registry_stats() {
                self.stats.push(s);
            }
        }
        self.round_no += 1;
        self.requests = round(self.seed, self.round_no, &self.plats);
    }

    /// Registry misses up to the end of the first round (all of them
    /// belong to set-up) and hits during the first round; replay events
    /// of the first round.
    fn counters(&mut self) -> Counters {
        let (hits, misses) = match self.stats.as_slice() {
            [a, b, ..] => (b.0 - a.0, b.1),
            _ => (0, 0),
        };
        let mut events = 0u64;
        let first = round(self.seed, 1, &self.plats);
        for req in &first {
            if let Kind::Replay(q) = &req.kind {
                events += self.reference.replay(q).map_or(0, |v| v.2 as u64);
            }
        }
        full_counters(&[
            ("core.registry.hits", hits),
            ("core.registry.misses", misses),
            ("replay.events", events),
        ])
    }

    fn layers(&self) -> Vec<Metric> {
        serve_metrics(&self.by_kind, &self.longest)
    }
}
