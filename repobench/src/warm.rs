//! The `service-warm` workload: a `Daemon` on a Unix socket in this process,
//! over a cache directory holding the real smoke-scope cells plus a seeded
//! set of extra entries. One closed-loop client sends `run` requests for the
//! smoke targets in a seeded order; every request is a cache hit, so the
//! read path (codec, store, protocol) does nearly all the work and the
//! simulator none.
//!
//! The smoke cells and each target's reference output come from a fixture
//! built once per build by `repobench prepare`, which simulates every target
//! fresh. A request fails if its reply is not ok or its results differ by a
//! byte from that fresh output.

use crate::probes::{decode_line, segment_lines, service_probe};
use crate::report::{Check, Metrics};
use crate::sweeps::{request_metrics, Requests};
use crate::util::{median, Rng};
use comet_service::targets::{run_target, KNOWN_TARGETS};
use comet_service::{cell_key, CellKey, Daemon, ExperimentService, ResultStore};
use comet_sim::experiments::{CellBackend, CellSpec, ExperimentScope, ParallelExecutor};
use comet_sim::{MechanismKind, RunResult, Runner, RunnerError, SimConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up repetitions per untraced run, spread evenly over it; `setup_s` is
/// their median.
const SETUP_REPS: usize = 15;

/// Seeded extra cache entries appended next to the smoke cells, so store
/// recovery does measurable work.
const EXTRA_ENTRIES: usize = 3000;

/// Every daemon target whose cells the cache can serve. `fig17` computes its
/// result directly instead of through cells, so it would simulate on every
/// request.
fn served_targets() -> Vec<&'static str> {
    KNOWN_TARGETS.iter().copied().filter(|t| *t != "fig17").collect()
}

/// A [`CellBackend`] in front of the service that times the cell lookups and
/// remembers which cells each request touched.
struct TimedBackend<'a> {
    inner: &'a ExperimentService,
    backend_ns: AtomicU64,
    accesses: AtomicU64,
    cells: Mutex<Vec<(Runner, CellSpec)>>,
}

impl<'a> TimedBackend<'a> {
    fn new(inner: &'a ExperimentService) -> Self {
        TimedBackend {
            inner,
            backend_ns: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
            cells: Mutex::new(Vec::new()),
        }
    }

    fn take_cells(&self) -> Vec<(Runner, CellSpec)> {
        std::mem::take(&mut *self.cells.lock().expect("backend lock is never poisoned"))
    }
}

impl CellBackend for TimedBackend<'_> {
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError> {
        let started = Instant::now();
        let results = self.inner.run_cells(runner, cells);
        self.backend_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(results) = &results {
            let accesses: u64 = results.iter().map(|r| r.reads + r.writes).sum();
            self.accesses.fetch_add(accesses, Ordering::Relaxed);
        }
        let mut seen = self.cells.lock().expect("backend lock is never poisoned");
        seen.extend(cells.iter().map(|cell| (runner.clone(), cell.clone())));
        results
    }
}

/// Builds the fixture under `dir`: simulates every served target through a
/// persistent service (filling `dir/cache`), and records each target's
/// output and the demand accesses its cells simulated.
pub fn prepare(dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("reference"))?;
    let threads = crate::util::nproc().min(2);
    let service =
        ExperimentService::with_cache_dir(ParallelExecutor::with_threads(threads), dir.join("cache"))?;
    let mut manifest = String::new();
    for target in served_targets() {
        let backend = TimedBackend::new(&service);
        let output = run_target(target, ExperimentScope::Smoke, &backend)
            .map_err(|e| std::io::Error::other(format!("{target}: {e}")))?
            .expect("served targets are known");
        std::fs::write(dir.join("reference").join(format!("{target}.json")), &output)?;
        let cells = backend.take_cells().len();
        manifest.push_str(&format!("{target} {cells} {}\n", backend.accesses.load(Ordering::Relaxed)));
    }
    std::fs::write(dir.join("manifest.txt"), manifest)?;
    Ok(())
}

struct Target {
    name: String,
    accesses: u64,
    reference: String,
}

fn load_fixture(dir: &Path) -> std::io::Result<Vec<Target>> {
    let manifest = std::fs::read_to_string(dir.join("manifest.txt"))?;
    manifest
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next().unwrap_or_default().to_string();
            let accesses = fields.nth(1).and_then(|a| a.parse().ok()).unwrap_or(0);
            let reference = std::fs::read_to_string(dir.join("reference").join(format!("{name}.json")))?;
            Ok(Target { name, accesses, reference })
        })
        .collect()
}

/// Copies the fixture's segments into a fresh cache directory and appends
/// the seeded extra entries. Returns the number of unique keys it holds.
fn build_cache(fixture: &Path, cache: &Path, rng: &mut Rng) -> std::io::Result<usize> {
    let _ = std::fs::remove_dir_all(cache);
    std::fs::create_dir_all(cache)?;
    let mut templates = Vec::new();
    for entry in std::fs::read_dir(fixture.join("cache"))? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "jsonl") {
            std::fs::copy(&path, cache.join(path.file_name().expect("segment files have names")))?;
        }
    }
    for line in segment_lines(cache)? {
        templates
            .push(decode_line(&line).ok_or_else(|| std::io::Error::other("fixture segment is corrupt"))?);
    }
    let smoke_cells = templates.len();
    let mut store = ResultStore::open(cache)?;
    for i in 0..EXTRA_ENTRIES {
        let mut result = templates[rng.below(templates.len())].clone();
        result.label = format!("extra-{i}");
        result.instructions ^= rng.next_u64() & 0xFFFF;
        result.ipc = (rng.next_u64() % 4_000_000) as f64 / 1e6;
        let key = CellKey((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()));
        store.append(key, &result)?;
    }
    Ok(smoke_cells + EXTRA_ENTRIES)
}

/// A daemon serving one cache directory on a Unix socket in this process.
struct Served {
    service: Arc<ExperimentService>,
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start(cache: &Path, socket: &Path) -> std::io::Result<Served> {
        let _ = std::fs::remove_file(socket);
        let service = Arc::new(ExperimentService::with_cache_dir(ParallelExecutor::serial(), cache)?);
        let daemon = Daemon::new(service.clone(), 1);
        let path = socket.to_path_buf();
        let thread = std::thread::spawn(move || daemon.serve_unix(&path));
        let started = Instant::now();
        while !socket.exists() {
            if thread.is_finished() || started.elapsed() > Duration::from_secs(30) {
                return Err(std::io::Error::other("daemon did not bind its socket"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(Served { service, socket: socket.to_path_buf(), thread })
    }

    /// [`start`](Self::start), timed, checking that every cell on disk was
    /// recovered.
    fn start_timed(
        cache: &Path,
        socket: &Path,
        cells_on_disk: usize,
        check: &mut Check,
    ) -> std::io::Result<(Served, f64)> {
        let started = Instant::now();
        let served = Served::start(cache, socket)?;
        let elapsed = started.elapsed().as_secs_f64();
        let loaded = served.service.stats().loaded_from_disk as usize;
        if loaded != cells_on_disk {
            check.fail(format!("recovered {loaded} cells, expected {cells_on_disk}"));
        }
        Ok((served, elapsed))
    }

    /// Stops the daemon, starts a new one over the same cache (timed), and
    /// reconnects `client` to it.
    fn restart(
        self,
        client: &mut Client,
        cache: &Path,
        cells_on_disk: usize,
        check: &mut Check,
    ) -> std::io::Result<(Served, f64)> {
        let socket = self.socket.clone();
        self.stop(client)?;
        let (served, elapsed) = Served::start_timed(cache, &socket, cells_on_disk, check)?;
        *client = Client::connect(&socket)?;
        Ok((served, elapsed))
    }

    fn stop(self, client: &mut Client) -> std::io::Result<()> {
        let reply = client.call(r#"{"op":"shutdown","id":0}"#)?;
        if !reply.contains("\"shutdown\":true") {
            return Err(std::io::Error::other(format!("unexpected shutdown reply: {reply}")));
        }
        self.thread.join().map_err(|_| std::io::Error::other("daemon thread panicked"))?
    }
}

struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::other("daemon closed the connection"));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// Whether `reply` is an ok response to request `id` whose results are
/// exactly `target`'s reference output.
fn reply_matches(reply: &str, id: u64, target: &Target) -> bool {
    reply.starts_with(&format!("{{\"id\":{id},\"ok\":true,"))
        && reply.ends_with(&format!("\"results\":{{\"{}\":{}}}}}", target.name, target.reference))
}

/// Accumulated per-request timings of the traced run.
#[derive(Default)]
struct Layers {
    /// Protocol request latency.
    request_s: f64,
    /// In-process `run_target` through the plain service.
    in_process_s: f64,
    /// In-process `run_target` through the timed backend, and the part of it
    /// spent inside the backend (cell keys, cache lookups).
    timed_s: f64,
    backend_s: f64,
    key_s: f64,
    cells: u64,
    requests: u64,
}

pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    fixture: &Path,
    traced: bool,
) -> std::io::Result<(Check, Metrics)> {
    let mut check = Check::default();
    let targets = load_fixture(fixture)?;
    let mut rng = Rng::new(seed);
    let cache = work.join("warm-cache");
    let socket = work.join("warm.sock");
    let cells_on_disk = build_cache(fixture, &cache, &mut rng)?;

    // Set-up: store recovery into a new service, daemon start, socket bind.
    // The untraced run restarts the daemon until it has timed SETUP_REPS
    // set-ups, evenly spread over the run.
    let (mut served, setup_s) = Served::start_timed(&cache, &socket, cells_on_disk, &mut check)?;
    let mut setup = vec![setup_s];
    let mut client = Client::connect(&socket)?;
    if !client.call(r#"{"op":"ping","id":0}"#)?.contains("\"pong\":true") {
        check.fail("daemon did not answer ping".to_string());
    }

    let before = served.service.stats();
    let mut requests = Requests::default();
    let mut layers = Layers::default();
    let mut order: Vec<usize> = Vec::new();
    let mut id = 0u64;
    let started = Instant::now();
    while id == 0 || started.elapsed().as_secs_f64() < seconds {
        if !traced && started.elapsed().as_secs_f64() * SETUP_REPS as f64 >= seconds * setup.len() as f64 {
            let setup_s;
            (served, setup_s) = served.restart(&mut client, &cache, cells_on_disk, &mut check)?;
            setup.push(setup_s);
        }
        if order.is_empty() {
            order = (0..targets.len()).collect();
            rng.shuffle(&mut order);
        }
        let kind = order.pop().expect("refilled above");
        let target = &targets[kind];
        id += 1;
        let line = format!(r#"{{"op":"run","id":{id},"scope":"smoke","targets":["{}"]}}"#, target.name);
        check.attempted += 1;
        let request_started = Instant::now();
        let reply = client.call(&line)?;
        let latency = request_started.elapsed().as_secs_f64();
        if reply_matches(&reply, id, target) {
            requests.record(kind, latency, target.accesses);
        } else {
            check.fail(format!("request {id} ({}): reply differs from the fresh output", target.name));
        }
        if traced {
            trace_request(&served.service, target, latency, &mut layers, &mut check);
        }
    }
    while !traced && setup.len() < SETUP_REPS {
        let setup_s;
        (served, setup_s) = served.restart(&mut client, &cache, cells_on_disk, &mut check)?;
        setup.push(setup_s);
    }
    eprintln!("repobench: {cells_on_disk} cached cells recovered");

    let mut metrics = Metrics::default();
    if traced {
        let delta = served.service.stats().delta_since(&before);
        metrics = trace_metrics(&served.service, &cache, &layers, &delta, work, &mut rng, &mut check)?;
    }
    served.stop(&mut client)?;
    let _ = std::fs::remove_dir_all(&cache);

    metrics.extend(request_metrics(&requests));
    metrics.push("setup_s", median(&setup), "s");
    Ok((check, metrics))
}

/// Re-serves one request in-process, once through the plain service and
/// once through the timed backend, so the request latency splits into
/// protocol, cell lookup, and dataset assembly plus encoding.
fn trace_request(
    service: &ExperimentService,
    target: &Target,
    latency: f64,
    layers: &mut Layers,
    check: &mut Check,
) {
    let started = Instant::now();
    let plain = run_target(&target.name, ExperimentScope::Smoke, service);
    let in_process = started.elapsed().as_secs_f64();

    let backend = TimedBackend::new(service);
    let started = Instant::now();
    let timed = run_target(&target.name, ExperimentScope::Smoke, &backend);
    let timed_s = started.elapsed().as_secs_f64();

    let cells = backend.take_cells();
    let started = Instant::now();
    for (runner, cell) in &cells {
        std::hint::black_box(cell_key(runner, cell));
    }
    layers.key_s += started.elapsed().as_secs_f64();

    for output in [plain, timed] {
        if !matches!(&output, Ok(Some(json)) if *json == target.reference) {
            check.fail(format!("{}: in-process output differs from the fresh output", target.name));
        }
    }
    layers.request_s += latency;
    layers.in_process_s += in_process;
    layers.timed_s += timed_s;
    layers.backend_s += backend.backend_ns.load(Ordering::Relaxed) as f64 / 1e9;
    layers.cells += cells.len() as u64;
    layers.requests += 1;
}

fn trace_metrics(
    service: &ExperimentService,
    cache: &Path,
    layers: &Layers,
    delta: &comet_service::ServiceStats,
    work: &Path,
    rng: &mut Rng,
    check: &mut Check,
) -> std::io::Result<Metrics> {
    let mut metrics = Metrics::default();
    // Simulation layers are off this workload's path; one smoke cell is
    // traced so they still report per-call costs (their shares are 0).
    let probe_runner = Runner::new(SimConfig::quick_test());
    let workloads = ExperimentScope::Smoke.workloads();
    let probe_spec =
        CellSpec::single(workloads[rng.below(workloads.len())].clone(), MechanismKind::Comet, 125);
    let sim = crate::sweeps::probe_cell(&probe_spec, &probe_runner, check);
    metrics.extend(sim);

    let recover: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let started = Instant::now();
            let recovery = ResultStore::open(cache).and_then(|mut store| store.recover());
            let elapsed = started.elapsed().as_secs_f64();
            std::hint::black_box(recovery.map(|r| r.entries.len()).unwrap_or(0));
            elapsed
        })
        .collect();
    let lines = segment_lines(cache)?;
    let started = Instant::now();
    let decoded = lines.iter().filter(|line| decode_line(line).is_some()).count();
    let decode_s = started.elapsed().as_secs_f64();
    if decoded != lines.len() {
        check.fail(format!("{} cached line(s) failed to decode", lines.len() - decoded));
    }

    // Appends never happen on a warm path; probe them on a sample of the
    // served cells so the store layer still reports its write cost.
    let sample: Vec<(Runner, CellSpec, Arc<RunResult>)> = {
        let backend = TimedBackend::new(service);
        let _ = run_target("fig10_11", ExperimentScope::Smoke, &backend);
        backend
            .take_cells()
            .into_iter()
            .filter_map(|(runner, cell)| service.peek(&runner, &cell).map(|r| (runner, cell, r)))
            .collect()
    };
    let sample_refs: Vec<_> = sample.iter().map(|(r, c, res)| (r, c, res.as_ref())).collect();
    let probe = service_probe(&work.join("probe-cache"), &sample_refs)?;

    let cells = layers.cells.max(1) as f64;
    // Duplicates inside one request are shared, not looked up.
    let lookups = (delta.cells_requested - delta.batch_shared).max(1);
    let l = layers.request_s.max(f64::MIN_POSITIVE);
    let protocol = (layers.request_s - layers.in_process_s) / l;
    let service_share = layers.backend_s / l;
    let codec = (layers.timed_s - layers.backend_s) / l;
    let rest = 1.0 - protocol - service_share - codec;
    metrics.push("service.key_ns_per_cell", layers.key_s * 1e9 / cells, "ns");
    metrics.push(
        "service.lookup_ns_per_cell",
        (layers.backend_s - layers.key_s).max(0.0) * 1e9 / cells,
        "ns",
    );
    metrics.push("service.hit_ratio", delta.cache_hits as f64 / lookups as f64, "ratio");
    metrics.push("service.share", service_share, "ratio");
    metrics.push("store.append_ns_per_cell", probe.append_s * 1e9 / probe.cells.max(1) as f64, "ns");
    metrics.push("store.recover_s", median(&recover), "s");
    metrics.push("codec.decode_ns_per_cell", decode_s * 1e9 / lines.len().max(1) as f64, "ns");
    metrics.push(
        "codec.encode_ns_per_response",
        (layers.timed_s - layers.backend_s) * 1e9 / layers.requests.max(1) as f64,
        "ns",
    );
    metrics.push("codec.share", codec, "ratio");
    metrics.push("protocol.share", protocol, "ratio");
    metrics.push("loop.share", rest, "ratio");
    metrics.push("shares.sum", protocol + service_share + codec + rest, "ratio");
    metrics.push("trace.overhead", layers.timed_s / layers.in_process_s.max(f64::MIN_POSITIVE), "ratio");
    Ok(metrics)
}
