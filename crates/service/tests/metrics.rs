//! Telemetry integration tests: the scrape must agree with `stats` on every
//! shared counter, the `metrics` protocol op must round-trip the exposition,
//! the HTTP endpoint must serve valid Prometheus text exposition, and
//! heartbeat-piggybacked worker snapshots must appear (and disappear) as
//! per-worker series.

#![cfg(unix)]

use comet_service::protocol::{LineConn, LineEvent};
use comet_service::{Daemon, ExperimentService, Fleet, LeaseConfig, KEY_SCHEMA};
use comet_sim::experiments::{CellBackend, CellSpec, ParallelExecutor};
use comet_sim::{MechanismKind, Runner, SimConfig};
use serde::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn smoke_cell() -> (Runner, CellSpec) {
    (Runner::new(SimConfig::quick_test()), CellSpec::single("429.mcf", MechanismKind::Baseline, 1000))
}

/// Finds `series` (exact series text, label block included) in an exposition
/// body and returns its value.
fn metric_value(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.parse().expect("metric values parse as f64"))
    })
}

#[test]
fn scrape_agrees_with_stats_on_every_shared_counter() {
    let service = ExperimentService::new(ParallelExecutor::new());
    let (runner, cell) = smoke_cell();
    // Two identical batches: the first simulates, the second is pure cache
    // hits, so both counter classes are non-trivially exercised.
    service.run_cells(&runner, &[cell.clone(), cell.clone()]).expect("first batch runs");
    service.run_cells(&runner, &[cell]).expect("second batch runs");

    let stats = service.stats();
    let scrape = service.render_metrics();
    let shared = [
        ("service_cells_requested_total", stats.cells_requested),
        ("service_cache_hits_total", stats.cache_hits),
        ("service_batch_shared_total", stats.batch_shared),
        ("service_simulated_total", stats.simulated),
        ("service_failed_total", stats.failed),
        ("service_evictions_total", stats.evictions),
        ("remote_cells_total", stats.remote_cells),
        ("service_local_fallbacks_total", stats.local_fallbacks),
    ];
    for (series, expected) in shared {
        assert_eq!(
            metric_value(&scrape, series),
            Some(expected as f64),
            "scrape and stats disagree on {series}\n{scrape}"
        );
    }
    assert!(stats.cache_hits > 0, "the second batch should have hit the cache");
    assert_eq!(metric_value(&scrape, "service_cached_cells"), Some(service.cached_cells() as f64));
    assert_eq!(metric_value(&scrape, "service_degraded"), Some(0.0));
    // The engine's process-global families ride along in the same scrape.
    assert!(scrape.contains("comet_engine_runs_total"), "no engine families in:\n{scrape}");
}

#[test]
fn the_metrics_op_round_trips_the_exposition() {
    let daemon = Daemon::new(Arc::new(ExperimentService::new(ParallelExecutor::new())), 1);
    let mut output = Vec::new();
    daemon
        .serve_session(std::io::BufReader::new("{\"op\":\"metrics\",\"id\":41}\n".as_bytes()), &mut output)
        .unwrap();
    let response = String::from_utf8(output).unwrap();
    let value = serde_json::from_str(response.trim()).expect("parseable response");
    assert_eq!(value.get("ok"), Some(&Value::Bool(true)));
    let exposition = value.get("exposition").and_then(Value::as_str).expect("exposition field");
    assert!(exposition.contains("# TYPE service_cells_requested_total counter"), "{exposition}");
    assert!(exposition.contains("service_cells_requested_total 0"), "{exposition}");
}

fn read_line(conn: &mut LineConn<TcpStream>) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match conn.read_event().expect("socket read") {
            LineEvent::Line(line) => return line,
            LineEvent::TimedOut => {
                assert!(Instant::now() < deadline, "timed out waiting for a response line");
            }
            LineEvent::Eof { partial } => panic!("connection closed (partial: {partial:?})"),
        }
    }
}

/// One protocol round-trip over a fresh TCP connection.
fn client_request(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut conn = LineConn::new(stream);
    conn.write_line(line).unwrap();
    read_line(&mut conn)
}

/// One HTTP scrape: sends a GET request and returns (head, body).
fn scrape_http(addr: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the metrics endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read the full response");
    let (head, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn the_http_endpoint_serves_prometheus_text_exposition() {
    let service = Arc::new(ExperimentService::new(ParallelExecutor::new()));
    let daemon =
        Daemon::with_queue_bound(service, 1, 64).with_fleet(Arc::new(Fleet::new(LeaseConfig::default())));
    let protocol_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let protocol_addr = protocol_listener.local_addr().unwrap().to_string();
    let metrics_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let metrics_addr = metrics_listener.local_addr().unwrap().to_string();
    let daemon = &daemon;
    std::thread::scope(|scope| {
        let serving = scope
            .spawn(move || daemon.serve_listeners(None, Some(protocol_listener), Some(metrics_listener)));

        let (head, body) = scrape_http(&metrics_addr);
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("# TYPE service_cells_requested_total counter"), "{body}");
        assert!(body.contains("# TYPE fleet_workers_live gauge"), "{body}");
        assert_eq!(metric_value(&body, "fleet_workers_live"), Some(0.0));

        // A worker registers and heartbeats with a piggybacked snapshot:
        // its per-worker series appear in the next scrape...
        let stream = TcpStream::connect(&protocol_addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut worker = LineConn::new(stream);
        worker
            .write_line(&format!(
                "{{\"op\":\"register\",\"id\":1,\"threads\":1,\"schema\":\"{KEY_SCHEMA}\"}}"
            ))
            .unwrap();
        let registered = serde_json::from_str(&read_line(&mut worker)).unwrap();
        let worker_id = registered.get("worker").and_then(Value::as_u64).expect("a worker id");
        worker
            .write_line(&format!(
                "{{\"op\":\"heartbeat\",\"id\":2,\"worker\":{worker_id},\"cells\":17,\"busy\":true}}"
            ))
            .unwrap();
        assert!(read_line(&mut worker).contains("\"live\":true"));

        let (_, body) = scrape_http(&metrics_addr);
        let cells_series = format!("worker_cells_total{{worker=\"{worker_id}\"}}");
        let busy_series = format!("worker_busy{{worker=\"{worker_id}\"}}");
        assert_eq!(metric_value(&body, &cells_series), Some(17.0), "{body}");
        assert_eq!(metric_value(&body, &busy_series), Some(1.0), "{body}");
        assert_eq!(metric_value(&body, "fleet_workers_live"), Some(1.0), "{body}");

        // ...and vanish when its connection drops (the coordinator treats
        // that as a crash; stale series must not linger in the scrape).
        drop(worker);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, body) = scrape_http(&metrics_addr);
            if metric_value(&body, &cells_series).is_none()
                && metric_value(&body, "fleet_workers_live") == Some(0.0)
            {
                break;
            }
            assert!(Instant::now() < deadline, "worker series still present:\n{body}");
            std::thread::sleep(Duration::from_millis(25));
        }

        let response = client_request(&protocol_addr, "{\"op\":\"shutdown\",\"id\":99}");
        assert!(response.contains("\"shutdown\":true"), "{response}");
        serving.join().unwrap().unwrap();
    });
}
