//! The two simulation workloads.
//!
//! * `attack-sweep`: two attack mixes × 1 and 4 channels × Baseline, CoMeT,
//!   Graphene, Hydra, and BlockHammer at nRH 125, each cell one call into
//!   `Runner`'s default engine. Queues stay saturated, so the FR-FCFS
//!   scheduler and the trackers' action path do the most work.
//! * `benign-sweep`: the smoke workloads single-core under Baseline and
//!   CoMeT at nRH 1000 and 125, plus two 8-core homogeneous mixes under
//!   CoMeT at nRH 125, submitted as one batch through a persistent
//!   `ExperimentService` on a fresh cache directory with a serial executor.
//!   Every cell misses, so the service write path (key, simulate, append)
//!   runs; the core model does the most work and trackers stay on the nop
//!   path.
//!
//! The seed picks the simulation seed (traces and probabilistic mechanisms)
//! and the order cells run in.

use crate::probes::{dram_replay, service_probe, DramReplay};
use crate::report::{Check, Metrics};
use crate::traced::{self, Profile};
use crate::util::{median, quantile, Rng, TickScale};
use comet_bench::hotpath::stats_checksum;
use comet_service::{ExperimentService, ServiceConfig};
use comet_sim::experiments::{CellBackend, CellSpec, ParallelExecutor};
use comet_sim::{MechanismKind, RunResult, Runner, SimConfig, System};
use comet_trace::AttackKind;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions before every pass, so they sample the host over the
/// whole run; `setup_s` is their median. A set-up takes about a millisecond,
/// shorter than the host's bursts of interference, so one sample per pass
/// would be too few.
const SETUP_REPS_PER_PASS: usize = 5;

/// The runner seed `--seed 1` maps to: the runner's own default seed.
const DEFAULT_RUNNER_SEED: u64 = 0xC0E7;

pub fn runner_seed(seed: u64) -> u64 {
    DEFAULT_RUNNER_SEED ^ seed.wrapping_sub(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Attack,
    Benign,
}

pub struct Cell {
    pub label: String,
    pub spec: CellSpec,
    pub runner: Arc<Runner>,
}

pub struct Sweep {
    pub kind: Kind,
    pub cells: Vec<Cell>,
    pub seed: u64,
}

fn attack_config(channels: usize) -> SimConfig {
    let mut config = SimConfig::quick(512).with_channels(channels);
    config.warmup_cycles = 20_000;
    config.sim_cycles = 120_000;
    config
}

impl Sweep {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let sim_seed = runner_seed(seed);
        let mut cells = Vec::new();
        match kind {
            Kind::Attack => {
                for channels in [1usize, 4] {
                    let runner = Arc::new(Runner::with_seed(attack_config(channels), sim_seed));
                    for (benign, rows_per_bank) in [("473.astar", 4usize), ("bfs_ny", 16)] {
                        for mechanism in [
                            MechanismKind::Baseline,
                            MechanismKind::Comet,
                            MechanismKind::Graphene,
                            MechanismKind::Hydra,
                            MechanismKind::BlockHammer,
                        ] {
                            let attack = AttackKind::Traditional { rows_per_bank };
                            let spec = CellSpec::attacked(benign, attack, mechanism, 125);
                            let label = format!("{}/rows{rows_per_bank}/ch{channels}", spec.label());
                            cells.push(Cell { label, spec, runner: runner.clone() });
                        }
                    }
                }
            }
            Kind::Benign => {
                let runner = Arc::new(Runner::with_seed(SimConfig::quick_test(), sim_seed));
                for workload in ["bfs_ny", "429.mcf", "462.libquantum", "473.astar", "541.leela"] {
                    for mechanism in [MechanismKind::Baseline, MechanismKind::Comet] {
                        for nrh in [1000, 125] {
                            let spec = CellSpec::single(workload, mechanism, nrh);
                            cells.push(Cell { label: spec.label(), spec, runner: runner.clone() });
                        }
                    }
                }
                for workload in ["450.soplex", "429.mcf"] {
                    let spec = CellSpec::homogeneous(workload, 8, MechanismKind::Comet, 125);
                    cells.push(Cell { label: spec.label(), spec, runner: runner.clone() });
                }
            }
        }
        Sweep { kind, cells, seed: sim_seed }
    }

    /// Builds every cell's simulated system (mechanism tables, controller
    /// queues, cores) and drops it: the set-up work a sweep pays per cell.
    fn build_systems(&self) {
        for cell in &self.cells {
            let config = cell.runner.config();
            let factory = cell
                .runner
                .registry()
                .factory(cell.spec.mechanism, cell.spec.nrh, &config.dram, self.seed)
                .expect("benchmark mechanisms are registered");
            let system =
                System::new(config.clone(), traced::traces(&cell.spec, config, self.seed, false), &factory);
            std::hint::black_box(&system);
        }
    }

    fn time_setup(&self) -> f64 {
        let started = Instant::now();
        self.build_systems();
        started.elapsed().as_secs_f64()
    }
}

fn accesses(result: &RunResult) -> u64 {
    result.controller.reads_completed + result.controller.writes_completed
}

/// Runs one benign batch through a fresh persistent service under `dir`.
/// Returns the results in `order` and the request's wall time; a cell that
/// hits the fresh cache is reported as a mismatch.
fn benign_batch(sweep: &Sweep, order: &[usize], dir: &Path, check: &mut Check) -> (Vec<RunResult>, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let service = ExperimentService::with_config(
        ParallelExecutor::serial(),
        Some(dir.into()),
        ServiceConfig::default(),
    )
    .expect("fresh cache directory opens");
    let specs: Vec<CellSpec> = order.iter().map(|&i| sweep.cells[i].spec.clone()).collect();
    let runner = &sweep.cells[0].runner;
    let started = Instant::now();
    let outcome = service.run_cells(runner, &specs);
    let wall = started.elapsed().as_secs_f64();
    let results = match outcome {
        Ok(results) => results,
        Err(error) => {
            check.fail(format!("benign batch failed: {error}"));
            Vec::new()
        }
    };
    let stats = service.stats();
    if stats.cache_hits != 0 || stats.simulated != specs.len() as u64 {
        check.fail(format!("fresh cache served {} hits, simulated {}", stats.cache_hits, stats.simulated));
    }
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    (results, wall)
}

/// Per-cell checksum bookkeeping: every run of a cell must reproduce the
/// first one, and at the default seed the pinned value.
struct Checksums<'a> {
    pinned: Option<&'a HashMap<String, u64>>,
    seen: HashMap<String, u64>,
}

impl<'a> Checksums<'a> {
    fn new(pinned: Option<&'a HashMap<String, u64>>) -> Self {
        Checksums { pinned, seen: HashMap::new() }
    }

    fn verify(&mut self, label: &str, checksum: u64) -> Result<(), String> {
        let first = *self.seen.entry(label.to_string()).or_insert(checksum);
        if first != checksum {
            return Err(format!(
                "{label}: checksum {checksum:016x} differs from an earlier run {first:016x}"
            ));
        }
        match self.pinned.and_then(|p| p.get(label)) {
            Some(&pinned) if pinned != checksum => {
                Err(format!("{label}: checksum {checksum:016x} differs from the pinned {pinned:016x}"))
            }
            None if self.pinned.is_some() => Err(format!("{label}: no pinned checksum")),
            _ => Ok(()),
        }
    }
}

/// Untraced run: whole passes over the sweep until `seconds` have elapsed.
pub fn run(
    sweep: &Sweep,
    seconds: f64,
    work: &Path,
    pinned: Option<&HashMap<String, u64>>,
) -> (Check, Metrics) {
    let mut check = Check::default();
    let mut rng = Rng::new(sweep.seed);
    let mut checksums = Checksums::new(pinned);
    let mut requests = Requests::default();
    let mut setup = Vec::new();
    let started = Instant::now();

    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        setup.extend((0..SETUP_REPS_PER_PASS).map(|_| sweep.time_setup()));
        let mut order: Vec<usize> = (0..sweep.cells.len()).collect();
        rng.shuffle(&mut order);
        let results: Vec<(usize, RunResult)> = match sweep.kind {
            Kind::Attack => order
                .iter()
                .filter_map(|&i| {
                    let cell = &sweep.cells[i];
                    let cell_started = Instant::now();
                    let outcome = cell.spec.run(&cell.runner);
                    let latency = cell_started.elapsed().as_secs_f64();
                    check.attempted += 1;
                    match outcome {
                        Ok(result) => {
                            requests.record(i, latency, accesses(&result));
                            Some((i, result))
                        }
                        Err(error) => {
                            check.fail(format!("{}: {error}", cell.label));
                            None
                        }
                    }
                })
                .collect(),
            Kind::Benign => {
                let (results, wall) = benign_batch(sweep, &order, &work.join("benign-cache"), &mut check);
                check.attempted += order.len() as u64;
                if results.len() == order.len() {
                    requests.record(0, wall, results.iter().map(accesses).sum());
                }
                order.iter().copied().zip(results).collect()
            }
        };
        for (i, result) in &results {
            if let Err(message) = checksums.verify(&sweep.cells[*i].label, stats_checksum(result)) {
                check.fail(message);
            }
        }
        passes += 1;
    }
    eprintln!("repobench: {passes} pass(es)");
    let mut metrics = request_metrics(&requests);
    metrics.push("setup_s", median(&setup), "s");
    (check, metrics)
}

/// The successful requests of one run, by kind: a cell on attack-sweep, the
/// batch on benign-sweep, a target on service-warm. Every repetition of a
/// kind does the same work, and every kind is requested equally often.
#[derive(Default)]
pub struct Requests {
    /// Per kind: the latency of each repetition in seconds, and the demand
    /// accesses one repetition simulates or delivers.
    kinds: Vec<(Vec<f64>, u64)>,
}

impl Requests {
    pub fn record(&mut self, kind: usize, latency_s: f64, accesses: u64) {
        if self.kinds.len() <= kind {
            self.kinds.resize_with(kind + 1, Default::default);
        }
        self.kinds[kind].0.push(latency_s);
        self.kinds[kind].1 = accesses;
    }
}

/// The request-side end-to-end metrics of one run.
///
/// Co-tenants on a shared host slow the benchmark by up to 2x for seconds at
/// a time, and how much of a run they cover differs from run to run. So each
/// kind is represented by its fastest repetition: what the request costs on
/// a quiet host. One pass is every kind once; throughput is its work over
/// the sum of those latencies, and the latency quantiles are over its kinds.
pub fn request_metrics(requests: &Requests) -> Metrics {
    let kinds: Vec<&(Vec<f64>, u64)> = requests.kinds.iter().filter(|(l, _)| !l.is_empty()).collect();
    let fastest: Vec<f64> =
        kinds.iter().map(|(l, _)| l.iter().copied().fold(f64::INFINITY, f64::min)).collect();
    let pass_s: f64 = fastest.iter().sum();
    let accesses: u64 = kinds.iter().map(|(_, a)| a).sum();
    let all: Vec<f64> = kinds.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    let at_fastest: f64 = kinds.iter().zip(&fastest).map(|((l, _), f)| l.len() as f64 * f).sum();
    eprintln!(
        "repobench: {} request samples over {} kind(s) in {:.3} s; as run p50 {:.4} ms, p99 {:.4} ms; \
         host slowdown over the fastest repetitions {:.3}x",
        all.len(),
        kinds.len(),
        all.iter().sum::<f64>(),
        median(&all) * 1e3,
        quantile(&all, 0.99) * 1e3,
        all.iter().sum::<f64>() / at_fastest
    );
    let mut metrics = Metrics::default();
    metrics.push("accesses_per_s", accesses as f64 / pass_s, "1/s");
    metrics.push("requests_per_s", kinds.len() as f64 / pass_s, "1/s");
    metrics.push("request_p50_ms", median(&fastest) * 1e3, "ms");
    metrics.push("request_p95_ms", quantile(&fastest, 0.95) * 1e3, "ms");
    metrics
}

/// Everything the traced run accumulates over its passes.
#[derive(Default)]
struct Traced {
    profile: Profile,
    /// Per-layer estimated self time in ticks, summed over cells.
    estimate: Vec<f64>,
    advances: u64,
    blocked: u64,
    ticks: u64,
    commands: u64,
    untraced_s: f64,
    traced_s: f64,
    replay: DramReplay,
}

/// Traced run: each pass runs every cell untraced and through the traced
/// loop, gates the traced stats against the untraced ones, and replays the
/// cell's command mix through a standalone DRAM channel. Service-side costs
/// are probed once, on the first pass's results.
pub fn run_traced(
    sweep: &Sweep,
    seconds: f64,
    work: &Path,
    pinned: Option<&HashMap<String, u64>>,
) -> (Check, Metrics) {
    let mut check = Check::default();
    let registry = traced::timed_registry();
    let scale = TickScale::start();
    let boundary = traced::calibrate();
    let mut rng = Rng::new(sweep.seed);
    let mut checksums = Checksums::new(pinned);
    let mut acc = Traced::default();
    // benign-sweep's own path: one batch through the service, for the
    // service layer's share of it.
    let mut batch_s = 0.0;
    if sweep.kind == Kind::Benign {
        let order: Vec<usize> = (0..sweep.cells.len()).collect();
        let (results, wall) = benign_batch(sweep, &order, &work.join("benign-cache"), &mut check);
        batch_s = wall;
        for (cell, result) in sweep.cells.iter().zip(&results) {
            if let Err(message) = checksums.verify(&cell.label, stats_checksum(result)) {
                check.fail(message);
            }
        }
    }
    // Each cell runs untraced (straight through `Runner`) and traced back to
    // back, alternating which goes first, so both see the same host state.
    let mut first_pass: Vec<(usize, RunResult)> = Vec::new();
    let mut passes = 0u64;
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..sweep.cells.len()).collect();
        rng.shuffle(&mut order);
        for (position, &i) in order.iter().enumerate() {
            let cell = &sweep.cells[i];
            let config = cell.runner.config();
            check.attempted += 1;
            let run_untraced = || {
                let cell_started = Instant::now();
                let outcome = cell.spec.run(&cell.runner);
                (outcome, cell_started.elapsed().as_secs_f64())
            };
            let run_traced = || traced::run_traced(&cell.spec, config, sweep.seed, &registry);
            let (run, (untraced, untraced_s)) = if (passes as usize + position).is_multiple_of(2) {
                let untraced = run_untraced();
                (run_traced(), untraced)
            } else {
                let run = run_traced();
                (run, run_untraced())
            };
            acc.untraced_s += untraced_s;
            acc.add(&run, boundary);
            acc.replay.add(dram_replay(&config.dram, &run.commands));
            let untraced = match untraced {
                Ok(result) => result,
                Err(error) => {
                    check.fail(format!("{}: {error}", cell.label));
                    continue;
                }
            };
            if let Err(message) = exactness(&run.result, &untraced) {
                check.fail(format!("{}: traced run diverged: {message}", cell.label));
            } else if let Err(message) = checksums.verify(&cell.label, stats_checksum(&untraced)) {
                check.fail(message);
            }
            if passes == 0 {
                first_pass.push((i, untraced));
            }
        }
        passes += 1;
    }
    let ns_per_tick = scale.ns_per_tick();

    let probe_cells: Vec<_> =
        first_pass.iter().map(|(i, r)| (sweep.cells[*i].runner.as_ref(), &sweep.cells[*i].spec, r)).collect();
    let probe = match service_probe(&work.join("probe-cache"), &probe_cells) {
        Ok(probe) => probe,
        Err(error) => {
            check.fail(format!("service probe: {error}"));
            Default::default()
        }
    };
    if probe.mismatches > 0 {
        check.fail(format!("service probe: {} cell(s) did not round-trip", probe.mismatches));
    }

    let mut metrics = Metrics::default();
    let mut share_sum = acc.push_metrics(&mut metrics, boundary, ns_per_tick, passes, true);
    // The service path only exists on benign-sweep: key, cache claim, and
    // result append (which encodes) per cell. Nothing there is a hit.
    let service_share = match sweep.kind {
        Kind::Attack => 0.0,
        Kind::Benign => {
            let per_cell = (probe.key_s + probe.append_s) / probe.cells.max(1) as f64;
            per_cell * sweep.cells.len() as f64 / batch_s
        }
    };
    share_sum += service_share;
    probe.push_metrics(&mut metrics);
    metrics.push("service.hit_ratio", 0.0, "ratio");
    metrics.push("service.share", service_share, "ratio");
    metrics.push("codec.share", 0.0, "ratio");
    metrics.push("protocol.share", 0.0, "ratio");
    metrics.push("shares.sum", share_sum, "ratio");
    metrics.push("trace.overhead", acc.traced_s / acc.untraced_s, "ratio");
    metrics.push("trace.boundary_ns", boundary * ns_per_tick, "ns");
    eprintln!(
        "repobench: traced {} pass(es); shares sum to {:.3} of the untraced wall; tracing overhead {:.2}x",
        passes,
        share_sum,
        acc.traced_s / acc.untraced_s
    );
    (check, metrics)
}

impl Traced {
    fn add(&mut self, run: &traced::TracedCell, boundary: f64) {
        self.traced_s += run.wall_s;
        self.profile.add(&run.profile);
        let estimate = run.profile.estimate(boundary);
        self.estimate.resize(estimate.len(), 0.0);
        for (sum, layer) in self.estimate.iter_mut().zip(estimate) {
            *sum += layer;
        }
        self.advances += run.advances;
        self.blocked += run.blocked;
        self.ticks += run.ticks;
        self.commands += run.commands.total();
    }

    /// Pushes the simulation layers' metrics. Shares are of the untraced
    /// wall when the layers are on the workload's path (`on_path`), else 0.
    /// Returns the sum of the shares pushed.
    fn push_metrics(
        &self,
        metrics: &mut Metrics,
        boundary: f64,
        ns_per_tick: f64,
        passes: u64,
        on_path: bool,
    ) -> f64 {
        let p = &self.profile;
        // Mean cost of one timed call (sampled iterations only).
        let per_call = |layer: usize, calls: f64| {
            if calls > 0.0 {
                p.self_ticks(layer, boundary) * ns_per_tick / calls
            } else {
                0.0
            }
        };
        let calls = |layer: usize| p.calls[layer] as f64;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let passes = passes.max(1) as f64;
        let batch_mean = ratio(p.counts[traced::ACTS], p.counts[traced::ACT_CALLS]);
        metrics.push("trace.ns_per_record", per_call(traced::TRACE, calls(traced::TRACE)), "ns");
        metrics.push("cpu.ns_per_advance", per_call(traced::CPU, calls(traced::CPU)), "ns");
        metrics.push("cpu.blocked_ratio", ratio(self.blocked, self.advances), "ratio");
        metrics.push("cpu.queue_full_probes", p.counts[traced::QUEUE_FULL] as f64 / passes, "count");
        metrics.push("controller.ns_per_tick", per_call(traced::CTRL_TICK, calls(traced::CTRL_TICK)), "ns");
        metrics.push("controller.ns_per_enqueue", per_call(traced::CTRL_ENQ, calls(traced::CTRL_ENQ)), "ns");
        metrics.push("controller.issue_ratio", ratio(self.commands, self.ticks), "ratio");
        metrics.push("dram.commands", self.commands as f64 / passes, "count");
        let replay_ns = self.replay.seconds * 1e9;
        metrics.push("dram.ns_per_command", replay_ns / self.replay.commands.max(1) as f64, "ns");
        metrics.push("tracker.acts", p.counts[traced::ACTS] as f64 / passes, "count");
        metrics.push(
            "tracker.ns_per_act",
            per_call(traced::TRACKER_ACT, calls(traced::TRACKER_ACT) * batch_mean),
            "ns",
        );
        metrics.push(
            "tracker.ns_per_on_tick",
            per_call(traced::TRACKER_TICK, calls(traced::TRACKER_TICK)),
            "ns",
        );
        metrics.push(
            "tracker.nop_ratio",
            ratio(p.counts[traced::NOPS], p.counts[traced::RESPONSES]),
            "ratio",
        );
        metrics.push("tracker.batch_mean", batch_mean, "count");
        let mut share_sum = 0.0;
        for (name, layers) in [
            ("trace", &[traced::TRACE][..]),
            ("cpu", &[traced::CPU]),
            ("controller", &[traced::CTRL_TICK, traced::CTRL_ENQ]),
            ("tracker", &[traced::TRACKER_ACT, traced::TRACKER_TICK, traced::TRACKER_OTHER]),
            ("loop", &[traced::LOOP]),
        ] {
            let share = if on_path {
                layers.iter().map(|&l| self.estimate.get(l).copied().unwrap_or(0.0)).sum::<f64>()
                    * ns_per_tick
                    / (self.untraced_s * 1e9)
            } else {
                0.0
            };
            share_sum += share;
            // Off the path, the loop's share is the caller's own remainder.
            if on_path || name != "loop" {
                metrics.push(&format!("{name}.share"), share, "ratio");
            }
        }
        share_sum
    }
}

/// Traces one cell off the workload's path (for a workload whose requests
/// never simulate), so the simulation layers still report their per-call
/// costs there. Gated for exactness like every traced cell.
pub fn probe_cell(spec: &CellSpec, runner: &Runner, check: &mut Check) -> Metrics {
    let registry = traced::timed_registry();
    let scale = TickScale::start();
    let boundary = traced::calibrate();
    check.attempted += 1;
    let mut acc = Traced::default();
    let started = Instant::now();
    let untraced = spec.run(runner);
    acc.untraced_s = started.elapsed().as_secs_f64();
    let run = traced::run_traced(spec, runner.config(), runner.seed(), &registry);
    match untraced {
        Ok(untraced) => {
            if let Err(message) = exactness(&run.result, &untraced) {
                check.fail(format!("{}: traced run diverged: {message}", spec.label()));
            }
        }
        Err(error) => check.fail(format!("{}: {error}", spec.label())),
    }
    acc.add(&run, boundary);
    acc.replay = dram_replay(&runner.config().dram, &run.commands);
    let mut metrics = Metrics::default();
    acc.push_metrics(&mut metrics, boundary, scale.ns_per_tick(), 1, false);
    metrics.push("trace.boundary_ns", boundary * scale.ns_per_tick(), "ns");
    metrics
}

/// The exactness gate: the traced loop must reproduce the untraced run's
/// controller, channel, and mitigation statistics and its stats checksum.
pub fn exactness(traced: &RunResult, untraced: &RunResult) -> Result<(), String> {
    if traced.controller != untraced.controller {
        return Err("controller stats".to_string());
    }
    if traced.mitigation != untraced.mitigation {
        return Err("mitigation stats".to_string());
    }
    if traced.activations != untraced.activations {
        return Err(format!("activations {} vs {}", traced.activations, untraced.activations));
    }
    let (a, b) = (stats_checksum(traced), stats_checksum(untraced));
    if a != b {
        return Err(format!("checksum {a:016x} vs {b:016x}"));
    }
    Ok(())
}

/// One untraced pass at `seed`, returning each cell's checksum (used to pin
/// the checksums the default seed must reproduce).
pub fn checksums(sweep: &Sweep, work: &Path) -> Vec<(String, u64)> {
    let mut check = Check::default();
    let order: Vec<usize> = (0..sweep.cells.len()).collect();
    let results: Vec<RunResult> = match sweep.kind {
        Kind::Attack => sweep.cells.iter().map(|c| c.spec.run(&c.runner).expect("cell runs")).collect(),
        Kind::Benign => benign_batch(sweep, &order, &work.join("benign-cache"), &mut check).0,
    };
    assert!(check.failed == 0, "pinning pass failed");
    sweep.cells.iter().zip(&results).map(|(c, r)| (c.label.clone(), stats_checksum(r))).collect()
}
