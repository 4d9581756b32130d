//! Fault-injection suite: drive every recovery path of the service with a
//! deterministic [`FaultPlan`] and prove the service degrades instead of
//! lying — torn writes cost one re-simulation, corrupt segments quarantine,
//! ENOSPC flips cache-read-only degraded mode, worker panics retry and then
//! surface typed, floods shed with typed `overloaded` replies, and shutdown
//! drains queued work cleanly. Cached-after-crash results are asserted
//! bit-exact against fresh simulations throughout.

use comet_service::store::{result_projection, QUARANTINE_DIR};
use comet_service::{CellKey, ExperimentService, FaultPlan, ResultStore, ServiceConfig};
use comet_sim::experiments::{CellBackend, CellSpec, ExperimentScope, ParallelExecutor};
use comet_sim::{MechanismKind, RunResult, Runner, RunnerError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("comet-faults-{tag}-{}-{unique}", std::process::id()))
}

fn smoke_runner() -> Runner {
    Runner::new(ExperimentScope::Smoke.sim_config())
}

fn cells() -> Vec<CellSpec> {
    vec![
        CellSpec::single("429.mcf", MechanismKind::Baseline, 1000),
        CellSpec::single("429.mcf", MechanismKind::Comet, 1000),
        CellSpec::single("bfs_ny", MechanismKind::Comet, 125),
    ]
}

/// A crash mid-append (torn final line) costs exactly one re-simulation on
/// restart, and the surviving cached results are bit-exact against a fresh
/// simulation of the same cells.
#[test]
fn torn_write_mid_batch_restart_is_warm_and_bit_exact() {
    torn_append_costs_one_resimulation("torn", 2);
}

/// A torn append that is not the last closes its segment: the next append
/// opens a fresh one, so the partial line stays a torn tail and costs only
/// its own cell instead of the rest of the segment.
#[test]
fn a_torn_first_append_costs_only_its_own_cell() {
    torn_append_costs_one_resimulation("torn-first", 0);
}

/// Tears the `nth` append (0-based) of the serial 3-cell batch mid-line,
/// restarts on the same directory and checks that only the torn cell
/// re-simulates.
fn torn_append_costs_one_resimulation(tag: &str, nth: u64) {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let runner = smoke_runner();
    let cells = cells();

    // Golden results from a fresh, storeless service.
    let golden: Vec<String> = ExperimentService::new(ParallelExecutor::serial())
        .run_cells(&runner, &cells)
        .unwrap()
        .iter()
        .map(result_projection)
        .collect();

    // First lifetime: one append tears mid-line, the crash artifact
    // recovery expects. Serial executor makes the append order (and so the
    // torn cell) deterministic.
    {
        let plan = Arc::new(FaultPlan::new().tear_append(nth, 25));
        let service = ExperimentService::with_fault_plan(
            ParallelExecutor::serial(),
            Some(dir.clone()),
            ServiceConfig::default(),
            plan,
        )
        .unwrap();
        let results = service.run_cells(&runner, &cells).unwrap();
        for (result, golden) in results.iter().zip(&golden) {
            assert_eq!(&result_projection(result), golden, "a persist fault never corrupts results");
        }
        let stats = service.stats();
        assert_eq!(stats.simulated, 3);
        assert_eq!(stats.persist_errors, 1, "the torn append is counted");
        assert!(!stats.degraded, "one failure does not degrade the service");
    }

    // Restart on the same directory: the torn tail is skipped in place, the
    // two durable cells reload, and only the torn cell re-simulates.
    let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), &dir).unwrap();
    let stats = service.stats();
    assert_eq!(
        (stats.loaded_from_disk, stats.torn_lines, stats.quarantined_segments),
        (2, 1, 0),
        "both fully written cells reload; a torn tail is not corruption"
    );
    let results = service.run_cells(&runner, &cells).unwrap();
    let warm = service.stats();
    assert_eq!(warm.cache_hits, 2);
    assert_eq!(warm.simulated, 1, "only the torn cell re-simulates");
    for (result, golden) in results.iter().zip(&golden) {
        assert_eq!(&result_projection(result), golden, "cached-after-crash results are bit-exact");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-file corruption (bit rot, foreign writes) quarantines the segment:
/// the file moves to `quarantine/`, the entries before the corruption point
/// are kept, and startup never aborts.
#[test]
fn corrupt_segment_is_quarantined_not_fatal() {
    let dir = temp_dir("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = smoke_runner();
    let cells = cells();
    {
        let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), &dir).unwrap();
        service.run_cells(&runner, &cells).unwrap();
    }
    // Corrupt the middle line of the (single) segment.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .expect("one segment on disk");
    let content = std::fs::read_to_string(&segment).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 3);
    std::fs::write(&segment, format!("{}\n###CORRUPT###\n{}\n", lines[0], lines[2])).unwrap();

    let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), &dir).unwrap();
    let stats = service.stats();
    assert_eq!(stats.quarantined_segments, 1, "mid-file corruption quarantines the segment");
    assert_eq!(stats.torn_lines, 0);
    assert_eq!(stats.loaded_from_disk, 1, "entries before the corruption point are kept");
    assert!(!segment.exists(), "the corrupt segment is moved out of the data dir");
    let quarantined = dir.join(QUARANTINE_DIR).join(segment.file_name().unwrap());
    assert!(quarantined.exists(), "the corrupt segment is preserved under quarantine/");

    // The service still serves everything: one hit, two re-simulations.
    service.run_cells(&runner, &cells).unwrap();
    let warm = service.stats();
    assert_eq!(warm.cache_hits, 1);
    assert_eq!(warm.simulated, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persistent disk failure (ENOSPC on every append) flips the service into
/// cache-read-only degraded mode: requests keep succeeding bit-exactly,
/// further persistence is skipped, and `stats` reports the state.
#[test]
fn enospc_degrades_to_cache_read_only_and_keeps_serving() {
    let dir = temp_dir("enospc");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = smoke_runner();
    let cells = cells();

    let plan = Arc::new(FaultPlan::new().enospc_from(0));
    let service = ExperimentService::with_fault_plan(
        ParallelExecutor::serial(),
        Some(dir.clone()),
        ServiceConfig::default(),
        plan.clone(),
    )
    .unwrap();

    let results = service.run_cells(&runner, &cells).unwrap();
    assert_eq!(results.len(), 3, "requests succeed while the disk is full");
    let stats = service.stats();
    assert_eq!(stats.persist_errors, 3);
    assert!(stats.degraded, "3 consecutive persist failures degrade the service");
    assert!(service.is_degraded());

    // Degraded mode stops touching the disk: a fourth cell simulates and is
    // served from memory without another append attempt.
    let extra = CellSpec::single("473.astar", MechanismKind::Baseline, 1000);
    service.run_cells(&runner, std::slice::from_ref(&extra)).unwrap();
    assert_eq!(plan.appends_seen(), 3, "no appends are attempted once degraded");
    // The in-memory cache still serves: re-running everything is pure hits.
    service.run_cells(&runner, &cells).unwrap();
    assert_eq!(service.stats().simulated, 4);
    assert_eq!(service.stats().cache_hits, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking worker is retried on the same cell and succeeds within the
/// bounded retry budget; the panic never unwinds through the batch.
#[test]
fn worker_panic_is_retried_and_recovers() {
    let runner = smoke_runner();
    let cell = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
    // Default config allows 2 retries (3 attempts); panic exactly twice.
    let plan = Arc::new(FaultPlan::new().panic_on(cell.label(), 2));
    let service =
        ExperimentService::with_fault_plan(ParallelExecutor::serial(), None, ServiceConfig::default(), plan)
            .unwrap();
    let golden = ExperimentService::new(ParallelExecutor::serial())
        .run_cells(&runner, std::slice::from_ref(&cell))
        .unwrap();
    let results = service.run_cells(&runner, std::slice::from_ref(&cell)).unwrap();
    assert_eq!(
        result_projection(&results[0]),
        result_projection(&golden[0]),
        "the post-retry result is bit-exact"
    );
    let stats = service.stats();
    assert_eq!(stats.worker_retries, 2);
    assert_eq!(stats.simulated, 1);
    assert_eq!(stats.failed, 0);
}

/// A cell that keeps panicking exhausts its retries and surfaces as a typed
/// `WorkerPanic` error — while its healthy siblings complete and cache.
#[test]
fn exhausted_panic_retries_surface_typed_and_spare_siblings() {
    let runner = smoke_runner();
    let poisoned = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
    let healthy = CellSpec::single("429.mcf", MechanismKind::Comet, 1000);
    let plan = Arc::new(FaultPlan::new().panic_on(poisoned.label(), u32::MAX));
    let service =
        ExperimentService::with_fault_plan(ParallelExecutor::serial(), None, ServiceConfig::default(), plan)
            .unwrap();

    let error = service
        .run_cells(&runner, &[poisoned.clone(), healthy.clone()])
        .expect_err("the always-panicking cell must fail the batch");
    match error {
        RunnerError::WorkerPanic { label, attempts } => {
            assert_eq!(label, poisoned.label());
            assert_eq!(attempts, 3, "1 attempt + 2 retries");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.simulated, 1, "the healthy sibling completed");
    assert_eq!(stats.worker_retries, 2);

    // The sibling is cached; only the poisoned cell is gone.
    service.run_cells(&runner, std::slice::from_ref(&healthy)).unwrap();
    assert_eq!(service.stats().cache_hits, 1);
}

/// The in-memory cache bound evicts least-recently-used cells instead of
/// growing without limit; evicted cells re-simulate on the next request.
#[test]
fn lru_eviction_respects_the_cell_bound() {
    let runner = smoke_runner();
    let cells = cells();
    let config = ServiceConfig { max_cached_cells: Some(2), ..ServiceConfig::default() };
    let service = ExperimentService::with_config(ParallelExecutor::serial(), None, config).unwrap();

    service.run_cells(&runner, &cells).unwrap();
    let stats = service.stats();
    assert_eq!(stats.simulated, 3);
    assert!(stats.evictions >= 1, "the third insert must evict");
    assert!(service.cached_cells() <= 2, "the bound holds");

    // The most recently completed cell is still cached; the oldest is not.
    service.run_cells(&runner, std::slice::from_ref(&cells[2])).unwrap();
    assert_eq!(service.stats().cache_hits, 1, "most-recent cell survives");
    service.run_cells(&runner, std::slice::from_ref(&cells[0])).unwrap();
    assert_eq!(service.stats().simulated, 4, "the evicted cell re-simulates");
}

/// Exceeding the segment bound triggers a compaction pass; the compacted
/// store reloads the same cells on restart.
#[test]
fn segment_bound_triggers_compaction_and_survives_restart() {
    let dir = temp_dir("compact");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = smoke_runner();
    let cells = cells();
    {
        // max_segments 0: the first append exceeds the bound and compacts —
        // the most aggressive (and deterministic) setting. The live cells
        // then fill more segments than the bound, so the later appends
        // continue the compacted segment.
        let config = ServiceConfig { max_segments: Some(0), ..ServiceConfig::default() };
        let service =
            ExperimentService::with_config(ParallelExecutor::serial(), Some(dir.clone()), config).unwrap();
        service.run_cells(&runner, &cells).unwrap();
        let stats = service.stats();
        assert_eq!(stats.compactions, 1, "the first persist compacted");
        assert!(!stats.degraded);
    }
    let segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    assert_eq!(segments.len(), 1, "compaction keeps the directory at one live segment");

    let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), &dir).unwrap();
    assert_eq!(service.stats().loaded_from_disk, 3, "compaction loses nothing live");
    service.run_cells(&runner, &cells).unwrap();
    assert_eq!(service.stats().simulated, 0, "fully warm after compacted restart");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pass cannot write fewer segments than its live cells fill. Once those
/// reach the bound, appends continue the pass's last segment and the next
/// pass waits for one segment more, so a store whose live cells fill the
/// bound is not re-read and rewritten on every append.
#[test]
fn a_store_that_fills_its_segment_bound_does_not_compact_on_every_append() {
    let dir = temp_dir("compact-full");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = ResultStore::open(&dir).unwrap();
        for key in 0..600 {
            store.append(CellKey(key), &RunResult::default()).unwrap();
        }
    }
    let config = ServiceConfig { max_segments: Some(2), ..ServiceConfig::default() };
    let service =
        ExperimentService::with_config(ParallelExecutor::serial(), Some(dir.clone()), config).unwrap();
    assert_eq!(service.stats().loaded_from_disk, 600);
    service.run_cells(&smoke_runner(), &cells()).unwrap();
    let stats = service.stats();
    assert_eq!(stats.simulated, 3);
    assert!(stats.compactions <= 1, "{} compactions for 3 appends", stats.compactions);
    drop(service);

    let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), &dir).unwrap();
    assert_eq!(service.stats().loaded_from_disk, 603, "compaction loses nothing live");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction trusts exactly what a restart trusts: a segment corrupted
/// mid-file after start-up is quarantined by the compaction pass, not read
/// past and deleted, and only the entries before the corruption are kept.
#[test]
fn compaction_quarantines_a_segment_corrupted_after_startup() {
    let dir = temp_dir("compact-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = smoke_runner();
    let cells = cells();
    let novel = CellSpec::single("473.astar", MechanismKind::Baseline, 1000);
    {
        let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), &dir).unwrap();
        service.run_cells(&runner, &cells).unwrap();
    }
    let config = ServiceConfig { max_segments: Some(1), ..ServiceConfig::default() };
    let service =
        ExperimentService::with_config(ParallelExecutor::serial(), Some(dir.clone()), config).unwrap();
    assert_eq!(service.stats().loaded_from_disk, 3);

    // Corrupt the middle line of the one segment under the running service.
    let segment = dir.join("segment-000000.jsonl");
    let content = std::fs::read_to_string(&segment).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 3);
    std::fs::write(&segment, format!("{}\n###CORRUPT###\n{}\n", lines[0], lines[2])).unwrap();

    // The next append opens a second segment, past the bound: compaction.
    service.run_cells(&runner, std::slice::from_ref(&novel)).unwrap();
    let stats = service.stats();
    assert_eq!(stats.compactions, 1);
    assert_eq!(stats.quarantined_segments, 1, "the compaction pass counts what it quarantined");
    assert!(dir.join(QUARANTINE_DIR).join("segment-000000.jsonl").exists(), "moved, not deleted");
    drop(service);

    // Restart: the line before the corruption and the novel cell survive;
    // the line after it was never trusted.
    let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), &dir).unwrap();
    let stats = service.stats();
    assert_eq!((stats.loaded_from_disk, stats.quarantined_segments), (2, 0));
    service.run_cells(&runner, &[cells[0].clone(), novel]).unwrap();
    assert_eq!(service.stats().simulated, 0, "both survivors are warm");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control over the real Unix-socket daemon: with the one worker
/// held at the fault-plan gate and a queue bound of 1, a third concurrent
/// submit is shed with a typed `overloaded` reply (and counted), a queued
/// job is rejected cleanly with `shutting_down` at shutdown, and the
/// in-flight job still completes successfully.
#[cfg(unix)]
#[test]
fn flood_sheds_typed_overloaded_and_shutdown_drains_cleanly() {
    use comet_service::Daemon;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = temp_dir("flood");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");

    let plan = Arc::new(FaultPlan::new());
    plan.hold_workers();
    let service = ExperimentService::with_fault_plan(
        ParallelExecutor::serial(),
        None,
        ServiceConfig::default(),
        plan.clone(),
    )
    .unwrap();
    let daemon = Arc::new(Daemon::with_queue_bound(Arc::new(service), 1, 1));
    let serving = {
        let daemon = daemon.clone();
        let socket = socket.clone();
        std::thread::spawn(move || daemon.serve_unix(&socket))
    };
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let submit = |id: u64| {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&socket).unwrap();
            writeln!(stream, "{{\"op\":\"run\",\"id\":{id},\"scope\":\"smoke\",\"targets\":[\"fig9\"]}}")
                .unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            line
        })
    };

    // First submit: popped by the worker, which blocks at the plan's gate.
    let in_flight = submit(1);
    eprintln!("[flood] submitted 1, waiting for the worker to reach the gate");
    while plan.workers_held() == 0 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    eprintln!("[flood] worker held at gate");
    // Second submit: queued (fills the bound-1 queue).
    let queued = submit(2);
    eprintln!("[flood] submitted 2, waiting for it to queue");
    while daemon.queued_jobs() < 1 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    eprintln!("[flood] job 2 queued");
    // Third submit: the queue is full — shed immediately with a typed reply.
    let shed_reply = submit(3).join().unwrap();
    assert!(shed_reply.contains("\"overloaded\":true"), "{shed_reply}");
    assert!(shed_reply.contains("\"retry_after_ms\""), "{shed_reply}");
    assert!(shed_reply.contains("\"ok\":false"), "{shed_reply}");
    assert_eq!(daemon.service().stats().sheds, 1, "the shed is counted");

    // The daemon is still alive and answering inline ops under the flood.
    let mut ping = UnixStream::connect(&socket).unwrap();
    writeln!(ping, "{{\"op\":\"ping\",\"id\":9}}").unwrap();
    let mut pong = String::new();
    BufReader::new(ping).read_line(&mut pong).unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");

    // Shutdown: the queued job is rejected cleanly, the in-flight one (once
    // the gate opens) completes with a real response.
    let mut stopper = UnixStream::connect(&socket).unwrap();
    writeln!(stopper, "{{\"op\":\"shutdown\",\"id\":10}}").unwrap();
    let mut ack = String::new();
    BufReader::new(stopper).read_line(&mut ack).unwrap();
    assert!(ack.contains("\"shutdown\":true"), "{ack}");

    let queued_reply = queued.join().unwrap();
    assert!(queued_reply.contains("\"shutting_down\":true"), "{queued_reply}");
    assert!(queued_reply.contains("\"id\":2"), "{queued_reply}");

    plan.release_workers();
    let in_flight_reply = in_flight.join().unwrap();
    assert!(in_flight_reply.contains("\"ok\":true"), "in-flight work finishes: {in_flight_reply}");
    assert!(in_flight_reply.contains("\"id\":1"), "{in_flight_reply}");

    serving.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Priority admission over the real Unix-socket daemon: with the one slot
/// held by a run blocked at the fault-plan gate, a priority-0 and then a
/// priority-5 `fig16` wait at the admission gate. Once released, the
/// priority-5 run is admitted first and simulates the figure's cells; the
/// priority-0 run that arrived earlier then finds them all cached.
#[cfg(unix)]
#[test]
fn a_higher_priority_run_overtakes_an_earlier_waiting_one() {
    use comet_service::Daemon;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = temp_dir("priority");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let plan = Arc::new(FaultPlan::new());
    plan.hold_workers();
    let service = ExperimentService::with_fault_plan(
        ParallelExecutor::serial(),
        None,
        ServiceConfig::default(),
        plan.clone(),
    )
    .unwrap();
    let daemon = Arc::new(Daemon::new(Arc::new(service), 1));
    let serving = {
        let daemon = daemon.clone();
        let socket = socket.clone();
        std::thread::spawn(move || daemon.serve_unix(&socket))
    };
    while !socket.exists() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let submit = |target: &str, priority: i64| {
        let line = format!(
            "{{\"op\":\"run\",\"id\":{priority},\"targets\":[\"{target}\"],\"priority\":{priority}}}"
        );
        let mut stream = UnixStream::connect(&socket).unwrap();
        std::thread::spawn(move || {
            writeln!(stream, "{line}").unwrap();
            let mut reply = String::new();
            BufReader::new(stream).read_line(&mut reply).unwrap();
            reply
        })
    };

    // fig8 takes the one slot and blocks at the plan's gate.
    let first = submit("fig8", 9);
    while plan.workers_held() == 0 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let low = submit("fig16", 0);
    while daemon.queued_jobs() < 1 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let high = submit("fig16", 5);
    while daemon.queued_jobs() < 2 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    plan.release_workers();

    assert!(first.join().unwrap().contains("\"ok\":true"));
    let high = high.join().unwrap();
    let low = low.join().unwrap();
    let simulated = |reply: &str| -> u64 {
        let value = serde_json::from_str(reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
        value.get("stats").and_then(|stats| stats.get("simulated")).and_then(|n| n.as_u64()).unwrap()
    };
    assert!(simulated(&high) > 0, "the priority-5 run is admitted first: {high}");
    assert_eq!(simulated(&low), 0, "the earlier priority-0 run finds fig16 cached: {low}");

    let mut stopper = UnixStream::connect(&socket).unwrap();
    writeln!(stopper, "{{\"op\":\"shutdown\",\"id\":10}}").unwrap();
    BufReader::new(stopper).read_line(&mut String::new()).unwrap();
    serving.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
