//! The long-running experiment daemon.
//!
//! Connections (Unix-domain socket, or a single stdin/stdout session) read
//! one JSON request per line. A `run` request executes on the connection
//! thread that read it, once the daemon's priority [`AdmissionGate`] admits
//! it: the gate holds `job_workers` slots and hands a free one to the
//! highest-priority waiting run, earliest arrival first among equals. Each
//! connection finishes its run before reading its next line, so the *gate*
//! arbitrates between clients (a higher-priority sweep from one client
//! overtakes waiting lower-priority sweeps from another) while each client
//! stays strictly ordered. `ping` / `stats` / `shutdown` are answered
//! without passing the gate.
//!
//! Connections are **accepted concurrently**: every Unix-socket connection
//! gets its own handler thread over the shared [`ExperimentService`], so an
//! idle or slow client never blocks another client's `ping` or waiting
//! sweep (historically the accept loop served one connection at a time and
//! clients queued on `connect`). The accept loop polls so a `shutdown`
//! received on any connection stops the daemon without waiting for a
//! further connection, and handler reads use a timeout so open idle
//! connections observe the shutdown flag promptly instead of pinning the
//! daemon.
//!
//! ## Admission control and drain
//!
//! The gate is bounded ([`DEFAULT_QUEUE_BOUND`] waiting runs unless
//! overridden with [`Daemon::with_queue_bound`]): a `run` arriving while
//! the bound is reached is **shed** with a typed `overloaded` error response
//! (carrying a `retry_after_ms` hint) instead of the wait growing without
//! limit — clients retry with jittered exponential backoff. At shutdown the
//! gate is closed and **drained**: admitted sweeps finish normally, while
//! every run still waiting receives a clean `shutting_down` error response
//! rather than being silently dropped.
//!
//! ## The fleet coordinator
//!
//! With a [`Fleet`] attached ([`Daemon::with_fleet`]) the daemon also
//! speaks the fleet side of the protocol — `register` / `pull` /
//! `heartbeat` / `complete` — on every listener (workers usually arrive
//! over TCP via [`Daemon::serve`], but the ops work on any connection).
//! Each connection remembers the worker registered on it: when the
//! connection drops, the worker's leases expire immediately and its cells
//! requeue, which is what makes a SIGKILLed worker's cells complete
//! elsewhere without waiting out the heartbeat timeout. `shutdown` drains
//! the fleet alongside the gate, so leased cells resolve as typed
//! `shutting_down` rejections instead of hanging.

use crate::error::ServiceError;
use crate::fleet::{Fleet, PullOutcome};
use crate::protocol::{self, LineConn, LineEvent, Op, Request};
use crate::queue::{AdmissionGate, Refused};
use crate::service::ExperimentService;
use comet_sim::RunResult;
use serde::Deserialize;
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `run` requests tolerated waiting at the gate before admission control
/// sheds new ones.
pub const DEFAULT_QUEUE_BOUND: usize = 1024;

/// The daemon: a shared service behind a priority admission gate.
pub struct Daemon {
    service: Arc<ExperimentService>,
    gate: AdmissionGate,
    shutdown: AtomicBool,
    fleet: Option<Arc<Fleet>>,
}

impl Daemon {
    /// A daemon over `service` that runs up to `job_workers` sweeps at once,
    /// with the default admission bound. One slot (the default for the
    /// binary) gives strict priority order; more trade ordering for
    /// sweep-level concurrency (cell-level work is still deduplicated by the
    /// service).
    pub fn new(service: Arc<ExperimentService>, job_workers: usize) -> Self {
        Self::with_queue_bound(service, job_workers, DEFAULT_QUEUE_BOUND)
    }

    /// [`new`](Self::new) with an explicit admission bound: `run` requests
    /// arriving while `queue_bound` others wait at the gate are shed with a
    /// typed `overloaded` response.
    pub fn with_queue_bound(service: Arc<ExperimentService>, job_workers: usize, queue_bound: usize) -> Self {
        Daemon {
            service,
            gate: AdmissionGate::new(job_workers, queue_bound),
            shutdown: AtomicBool::new(false),
            fleet: None,
        }
    }

    /// Attaches a fleet coordinator: the daemon answers fleet ops on every
    /// listener and the service offers cells to remote workers first. The
    /// same `Arc` is attached to the service so dispatch and stats agree.
    pub fn with_fleet(mut self, fleet: Arc<Fleet>) -> Self {
        self.service.attach_fleet(fleet.clone());
        self.fleet = Some(fleet);
        self
    }

    /// The attached fleet coordinator, if any.
    pub fn fleet(&self) -> Option<&Arc<Fleet>> {
        self.fleet.as_ref()
    }

    /// The shared service (for tests and in-process callers).
    pub fn service(&self) -> &Arc<ExperimentService> {
        &self.service
    }

    /// `run` requests currently waiting at the gate (not yet admitted).
    pub fn queued_jobs(&self) -> usize {
        self.gate.waiting()
    }

    /// Whether `shutdown` has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Starts the shutdown sequence: flag, fleet drain (leased cells resolve
    /// as typed `shutting_down` rejections), and the gate's close, which
    /// answers every waiting `run` with `shutting_down`. Admitted runs finish
    /// normally; their connections get real responses. Idempotent.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(fleet) = &self.fleet {
            fleet.drain();
        }
        self.gate.close_and_drain();
    }

    /// Computes the response line for one request line. Returns `None` for
    /// blank lines; the boolean is `true` when the request was `shutdown`
    /// (the connection should close after writing the response).
    /// `registered` is this connection's fleet-worker registration, updated
    /// on `register` and used by the caller's disconnect cleanup.
    fn respond(&self, line: &str, registered: &mut Option<u64>) -> Option<(String, bool)> {
        if line.trim().is_empty() {
            return None;
        }
        Some(match protocol::parse_request(line) {
            Err((id, error)) => (protocol::error_response(id, &error), false),
            Ok(request) => match &request.op {
                Op::Run { priority, .. } => (self.run(&request, *priority), false),
                Op::Shutdown => {
                    let response = protocol::handle_request(&self.service, &request);
                    self.begin_shutdown();
                    (response, true)
                }
                Op::Register { .. } | Op::Pull { .. } | Op::Heartbeat { .. } | Op::Complete { .. }
                    if self.fleet.is_some() =>
                {
                    (self.fleet_response(&request, registered), false)
                }
                _ => (protocol::handle_request(&self.service, &request), false),
            },
        })
    }

    /// Runs one `run` request on the calling connection thread once the gate
    /// admits it at `priority`. A panicking run must not kill the
    /// connection: the service's claim guard has already released the cell
    /// claims during unwind and the slot guard frees the slot, so catching
    /// here turns the panic into an error response.
    fn run(&self, request: &Request, priority: i64) -> String {
        let id = request.id;
        let _slot = match self.gate.admit(priority) {
            Ok(slot) => slot,
            Err(Refused::Overloaded { queued, bound }) => {
                self.service.note_shed();
                return protocol::error_response(id, &ServiceError::Overloaded { queued, bound });
            }
            Err(Refused::Closed) => return protocol::error_response(id, &ServiceError::ShuttingDown),
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            protocol::handle_request(&self.service, request)
        }))
        .unwrap_or_else(|_| {
            protocol::error_response(
                id,
                &ServiceError::Protocol("internal error: request execution panicked".to_string()),
            )
        })
    }

    /// Answers one fleet op against the attached coordinator.
    fn fleet_response(&self, request: &Request, registered: &mut Option<u64>) -> String {
        let fleet = self.fleet.as_ref().expect("caller checked the fleet exists");
        let id = request.id;
        match &request.op {
            Op::Register { schema } => match protocol::check_schema(schema) {
                Err(error) => protocol::error_response(id, &error),
                Ok(()) => {
                    let worker = fleet.register();
                    *registered = Some(worker);
                    protocol::register_response(id, worker, fleet.lease_timeout_ms())
                }
            },
            Op::Pull { worker, wait_ms } => match fleet.pull(*worker, *wait_ms) {
                PullOutcome::Job(key, redeliveries, payload) => {
                    protocol::pull_response(id, Some((key, redeliveries, &payload)))
                }
                PullOutcome::Empty => protocol::pull_response(id, None),
                PullOutcome::UnknownWorker => protocol::error_response(
                    id,
                    &ServiceError::Protocol("unknown worker (lease timeout?); re-register".to_string()),
                ),
                PullOutcome::Draining => protocol::error_response(id, &ServiceError::ShuttingDown),
            },
            Op::Heartbeat { worker, cells, busy } => {
                let live = fleet.heartbeat(*worker);
                // The piggybacked snapshot feeds the per-worker scrape
                // gauges; a dead worker's snapshot is ignored so its series
                // never resurrect after disconnect cleanup.
                if live {
                    if let (Some(cells), Some(busy)) = (cells, busy) {
                        fleet.note_worker_snapshot(*worker, *cells, *busy);
                    }
                }
                protocol::heartbeat_response(id, live)
            }
            Op::Complete { worker, key, outcome } => {
                let outcome = match outcome {
                    // An undecodable projection is reported as a failure so
                    // the service re-runs the cell locally — the cache must
                    // never absorb a result the coordinator cannot read.
                    Ok(value) => RunResult::from_value(value)
                        .map_err(|error| format!("undecodable result projection: {error}")),
                    Err(message) => Err(message.clone()),
                };
                protocol::complete_response(id, fleet.complete(*worker, *key, outcome))
            }
            _ => unreachable!("fleet_response is only called for fleet ops"),
        }
    }

    /// Serves one framed connection until EOF, `shutdown`, or an I/O error,
    /// then cleans up any fleet-worker registration the connection carried
    /// (dropping a worker's connection expires its leases immediately).
    fn serve_conn<S: Read + Write>(&self, stream: S) -> std::io::Result<()> {
        let mut conn = LineConn::new(stream);
        let mut registered: Option<u64> = None;
        let outcome = self.conn_loop(&mut conn, &mut registered);
        if let (Some(worker), Some(fleet)) = (registered, &self.fleet) {
            fleet.disconnect(worker);
        }
        outcome
    }

    fn conn_loop<S: Read + Write>(
        &self,
        conn: &mut LineConn<S>,
        registered: &mut Option<u64>,
    ) -> std::io::Result<()> {
        loop {
            if self.is_shutdown() {
                return Ok(());
            }
            match conn.read_event()? {
                LineEvent::Line(line) => {
                    let Some((response, closing)) = self.respond(&line, registered) else {
                        continue;
                    };
                    conn.write_line(&response)?;
                    if closing || self.is_shutdown() {
                        return Ok(());
                    }
                }
                // The read timeout makes idle connections re-check the
                // shutdown flag instead of pinning the daemon open.
                LineEvent::TimedOut => continue,
                LineEvent::Eof { partial } => {
                    // EOF with an unterminated final line: answer it anyway —
                    // a client may shut down its write side and still read.
                    if let Some(line) = partial {
                        if let Some((response, _)) = self.respond(&line, registered) {
                            conn.write_line(&response)?;
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Serves a single session on arbitrary reader/writer pairs (stdin mode,
    /// and the in-process protocol tests). Returns on EOF or `shutdown`.
    pub fn serve_session(&self, reader: impl BufRead, writer: impl Write) -> std::io::Result<()> {
        self.serve_conn(Duplex { reader, writer })
    }

    /// Binds `path` and serves Unix-socket connections until `shutdown`,
    /// accepting connections concurrently: each connection runs on its own
    /// handler thread over the shared service, so clients never serialize at
    /// the accept loop — they multiplex through the priority gate instead.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.serve(Some(path), None, None)
    }

    /// Binds the requested listeners (a Unix socket path, a TCP address, or
    /// both) and serves until `shutdown`. The TCP listener is how fleet
    /// workers usually arrive; both listeners answer the full protocol.
    /// `metrics_addr`, if given, additionally serves the Prometheus scrape
    /// endpoint over plain HTTP on that TCP address.
    #[cfg(unix)]
    pub fn serve(
        &self,
        unix_path: Option<&std::path::Path>,
        tcp_addr: Option<&str>,
        metrics_addr: Option<&str>,
    ) -> std::io::Result<()> {
        let unix = match unix_path {
            Some(path) => {
                // Bind under a staging name and rename into place, so the
                // socket file appears only once it is listening: `bind`
                // creates the file before it calls listen(2), and a client
                // that waits for the file and connects in between is
                // refused. The rename also replaces a stale socket file
                // from a previous run, which would make bind fail.
                let mut staging = path.as_os_str().to_owned();
                staging.push(".tmp");
                let _ = std::fs::remove_file(&staging);
                let listener = std::os::unix::net::UnixListener::bind(&staging)?;
                std::fs::rename(&staging, path).inspect_err(|_| {
                    let _ = std::fs::remove_file(&staging);
                })?;
                Some(listener)
            }
            None => None,
        };
        let tcp = tcp_addr.map(std::net::TcpListener::bind).transpose()?;
        let metrics = metrics_addr.map(std::net::TcpListener::bind).transpose()?;
        let outcome = self.serve_listeners(unix, tcp, metrics);
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        outcome
    }

    /// [`serve`](Self::serve) over pre-bound listeners (tests bind port 0
    /// themselves to learn the address).
    #[cfg(unix)]
    pub fn serve_listeners(
        &self,
        unix: Option<std::os::unix::net::UnixListener>,
        tcp: Option<std::net::TcpListener>,
        metrics: Option<std::net::TcpListener>,
    ) -> std::io::Result<()> {
        // Poll the listeners instead of blocking in accept: a `shutdown`
        // received on any connection must end the loops without requiring
        // one more client to connect.
        if let Some(listener) = &unix {
            listener.set_nonblocking(true)?;
        }
        if let Some(listener) = &tcp {
            listener.set_nonblocking(true)?;
        }
        if let Some(listener) = &metrics {
            listener.set_nonblocking(true)?;
        }
        std::thread::scope(|scope| {
            let mut accepts = Vec::new();
            if let Some(listener) = &unix {
                let accept = || listener.accept().map(|(stream, _)| stream);
                accepts.push(scope.spawn(move || self.accept_loop(scope, "unix", accept, Self::handle_unix)));
            }
            if let Some(listener) = &tcp {
                let accept = || listener.accept().map(|(stream, _)| stream);
                accepts.push(scope.spawn(move || self.accept_loop(scope, "tcp", accept, Self::handle_tcp)));
            }
            if let Some(listener) = &metrics {
                let accept = || listener.accept().map(|(stream, _)| stream);
                accepts.push(
                    scope.spawn(move || self.accept_loop(scope, "metrics", accept, Self::handle_metrics)),
                );
            }
            for accept in accepts {
                let _ = accept.join();
            }
            self.begin_shutdown();
            // The scope joins the handler threads; their read timeouts make
            // them observe the shutdown flag within one poll interval.
        });
        Ok(())
    }

    /// Polls one non-blocking listener until shutdown and serves each
    /// accepted connection with `handle` on a thread of its own. `what`
    /// names the listener in log lines.
    #[cfg(unix)]
    fn accept_loop<'scope, S: Send + 'scope>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        what: &'static str,
        accept: impl Fn() -> std::io::Result<S>,
        handle: fn(&Self, S) -> std::io::Result<()>,
    ) {
        while !self.is_shutdown() {
            match accept() {
                Ok(stream) => {
                    // A connection-level IO error (client hung up mid-write)
                    // never kills the daemon.
                    scope.spawn(move || {
                        if let Err(error) = handle(self, stream) {
                            eprintln!("comet-serviced: {what} connection error: {error}");
                        }
                    });
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(error) => {
                    eprintln!("comet-serviced: {what} accept error: {error}");
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            }
        }
    }

    /// Answers one scrape connection with an HTTP/1.0 response carrying the
    /// full text exposition, then closes it: a scrape endpoint needs no
    /// keep-alive, routing, or method handling. The request head is drained
    /// best-effort and ignored: the endpoint is read-only and serves the
    /// same body for every path, so even a bare `GET /metrics` with no
    /// headers — or no request at all — gets the exposition.
    #[cfg(unix)]
    fn handle_metrics(&self, mut stream: std::net::TcpStream) -> std::io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(std::time::Duration::from_millis(500)))?;
        stream.set_write_timeout(Some(std::time::Duration::from_secs(30)))?;
        let mut head = [0u8; 1024];
        let _ = stream.read(&mut head);
        let body = self.service.render_metrics();
        let response = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(response.as_bytes())?;
        stream.flush()
    }

    #[cfg(unix)]
    fn handle_unix(&self, stream: std::os::unix::net::UnixStream) -> std::io::Result<()> {
        // Accepted sockets can inherit the listener's non-blocking flag.
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
        // A client that stops reading must not pin the daemon open: a write
        // that cannot complete within the (generous) timeout errors out and
        // drops the connection, so shutdown never waits on a dead peer.
        stream.set_write_timeout(Some(std::time::Duration::from_secs(30)))?;
        self.serve_conn(stream)
    }

    #[cfg(unix)]
    fn handle_tcp(&self, stream: std::net::TcpStream) -> std::io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
        stream.set_write_timeout(Some(std::time::Duration::from_secs(30)))?;
        stream.set_nodelay(true).ok();
        self.serve_conn(stream)
    }
}

/// A reader/writer pair masquerading as one stream, so stdin sessions frame
/// through the same [`LineConn`] codec as socket connections.
struct Duplex<R, W> {
    reader: R,
    writer: W,
}

impl<R: Read, W: Write> Read for Duplex<R, W> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reader.read(buf)
    }
}

impl<R: Read, W: Write> Write for Duplex<R, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_sim::experiments::ParallelExecutor;

    fn daemon() -> Daemon {
        Daemon::new(Arc::new(ExperimentService::new(ParallelExecutor::new())), 1)
    }

    fn session(input: &str) -> Vec<String> {
        let daemon = daemon();
        let mut output = Vec::new();
        daemon.serve_session(std::io::BufReader::new(input.as_bytes()), &mut output).unwrap();
        String::from_utf8(output).unwrap().lines().map(str::to_string).collect()
    }

    #[test]
    fn ping_and_stats_answer_inline() {
        let lines = session("{\"op\":\"ping\",\"id\":1}\n{\"op\":\"stats\",\"id\":2}\n");
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"pong\":true"), "{}", lines[0]);
        assert!(lines[1].contains("\"cells_requested\":0"), "{}", lines[1]);
    }

    #[test]
    fn malformed_lines_get_error_responses_and_do_not_kill_the_session() {
        // A line nested far past the parser's depth limit is refused with a
        // typed error instead of overflowing the connection thread's stack.
        let deep = format!("{{\"op\":\"run\",\"id\":1,\"targets\":{}", "[".repeat(100_000));
        // A number the JSON grammar forbids (a leading zero) is refused too,
        // not read as the id 1.
        let zero_padded = "{\"op\":\"ping\",\"id\":01}";
        let lines = session(&format!("garbage\n{deep}\n{zero_padded}\n{{\"op\":\"ping\",\"id\":9}}\n"));
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ok\":false"));
        assert!(lines[1].contains("nesting deeper than 128 levels"), "{}", lines[1]);
        assert_eq!(lines[2], r#"{"id":0,"ok":false,"error":"JSON parse error at byte 18: invalid number"}"#);
        assert!(lines[3].contains("\"pong\":true"));
    }

    #[test]
    fn run_requests_execute_through_the_queue() {
        let lines = session(
            "{\"op\":\"run\",\"id\":5,\"scope\":\"smoke\",\"targets\":[\"fig17\"]}\n{\"op\":\"shutdown\",\"id\":6}\n",
        );
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\":5") && lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[0].contains("\"fig17\""), "{}", lines[0]);
        assert!(lines[1].contains("\"shutdown\":true"), "{}", lines[1]);
    }

    /// An idle connection must not block other clients: with the historical
    /// one-at-a-time accept loop this test deadlocks (client B queues on
    /// connect behind idle client A); with concurrent accept B is served
    /// immediately and its `shutdown` also stops the daemon while A is still
    /// connected.
    #[cfg(unix)]
    #[test]
    fn concurrent_connections_are_served_past_an_idle_client() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("comet-daemon-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("daemon.sock");
        let daemon = Arc::new(daemon());
        let serving = {
            let daemon = daemon.clone();
            let socket = socket.clone();
            std::thread::spawn(move || daemon.serve_unix(&socket))
        };
        // Wait for the socket to appear.
        for _ in 0..100 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Client A connects and stays silent.
        let idle = UnixStream::connect(&socket).unwrap();
        // Client B must be served regardless.
        let mut busy = UnixStream::connect(&socket).unwrap();
        writeln!(busy, "{{\"op\":\"ping\",\"id\":1}}").unwrap();
        let mut reader = BufReader::new(busy.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\":true"), "{line}");
        // B shuts the daemon down while A is still connected.
        writeln!(busy, "{{\"op\":\"shutdown\",\"id\":2}}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"shutdown\":true"), "{line}");
        serving.join().unwrap().unwrap();
        assert!(daemon.is_shutdown());
        drop(idle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The socket file appears only once the daemon listens, so a client
    /// that connects the moment the file exists is never refused. Binding
    /// at the final path creates the file before listen(2), and a client
    /// polling for it was refused in most start-ups.
    #[cfg(unix)]
    #[test]
    fn socket_file_appears_only_once_the_daemon_listens() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("comet-daemon-bind-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("daemon.sock");
        for _ in 0..20 {
            let daemon = Arc::new(daemon());
            let serving = {
                let daemon = daemon.clone();
                let socket = socket.clone();
                std::thread::spawn(move || daemon.serve_unix(&socket))
            };
            // Poll with short sleeps, as a waiting client does: a sleeper
            // that wakes can preempt the daemon between bind and listen.
            while !socket.exists() {
                assert!(!serving.is_finished(), "the daemon stopped before binding its socket");
                std::thread::sleep(std::time::Duration::from_micros(20));
            }
            let mut client = UnixStream::connect(&socket).expect("a visible socket file accepts connections");
            writeln!(client, "{{\"op\":\"shutdown\",\"id\":1}}").unwrap();
            let mut line = String::new();
            BufReader::new(client.try_clone().unwrap()).read_line(&mut line).unwrap();
            assert!(line.contains("\"shutdown\":true"), "{line}");
            drop(client);
            serving.join().unwrap().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A final request line without a trailing newline (client shuts its
    /// write side at EOF) must still be answered, like the stdin session
    /// path answers it.
    #[cfg(unix)]
    #[test]
    fn unterminated_final_line_is_answered_at_eof() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::Shutdown;
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("comet-daemon-eof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("daemon.sock");
        let daemon = Arc::new(daemon());
        let serving = {
            let daemon = daemon.clone();
            let socket = socket.clone();
            std::thread::spawn(move || daemon.serve_unix(&socket))
        };
        for _ in 0..100 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let mut client = UnixStream::connect(&socket).unwrap();
        write!(client, "{{\"op\":\"ping\",\"id\":7}}").unwrap(); // no trailing newline
        client.shutdown(Shutdown::Write).unwrap();
        let mut line = String::new();
        BufReader::new(client.try_clone().unwrap()).read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\":true"), "{line}");
        drop(client);
        // Stop the daemon through a second connection.
        let mut stopper = UnixStream::connect(&socket).unwrap();
        writeln!(stopper, "{{\"op\":\"shutdown\",\"id\":8}}").unwrap();
        let mut response = String::new();
        BufReader::new(stopper.try_clone().unwrap()).read_line(&mut response).unwrap();
        serving.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
