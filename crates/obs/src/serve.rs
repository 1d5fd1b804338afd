//! A zero-dependency live metrics endpoint.
//!
//! [`spawn`] binds a std [`TcpListener`] and serves, on a background
//! thread, two read-only endpoints over an [`Obs`] handle's registry:
//!
//! * `GET /metrics` — Prometheus text format ([`crate::text::render_prometheus`]),
//!   plus windowed `*_rate_*` series when a [`crate::WindowPlane`] is installed;
//! * `GET /snapshot` — the same snapshot as JSON ([`crate::text::render_json`]);
//! * `GET /health` — one-line JSON health verdict from the installed
//!   [`crate::SloEngine`] and the registered [`crate::Watchdog`]s
//!   (always `ok` when none is installed);
//! * `GET /alerts` — active and recently cleared SLO alerts as JSON.
//!
//! Scrapes take a fresh [`crate::Snapshot`] per request; the instrumented
//! process pays nothing between requests. Connections are handled
//! sequentially — a scrape endpoint serving one Prometheus poller every
//! few seconds needs no concurrency — so a client must not be able to
//! hold the thread: every socket read and write times out after 5 s,
//! and a request head over 8 KiB is refused with `431` without being
//! buffered.
//!
//! ```no_run
//! let obs = pq_obs::Obs::null();
//! let server = pq_obs::serve::spawn(obs.clone(), "127.0.0.1:0").unwrap();
//! println!("scrape http://{}/metrics", server.addr());
//! server.shutdown(); // or server.detach() to serve until process exit
//! ```

use crate::text;
use crate::Obs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The largest request head (request line plus headers) the exporter
/// reads; a longer one is answered `431`.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Handle to a running metrics server. Dropping it (or calling
/// [`MetricsServer::shutdown`]) stops the listener; call
/// [`MetricsServer::detach`] to let it serve for the process lifetime.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address — with port 0 requested, the actual port.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Lets the server run detached until the process exits. The thread
    /// and listener are intentionally leaked.
    pub fn detach(mut self) {
        self.handle.take();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a no-op connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral
/// port) and serves `obs`'s metrics on a background thread.
///
/// # Errors
/// Propagates the bind failure — a caller asking for a live endpoint
/// must find out it did not get one.
pub fn spawn(obs: Obs, addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::Builder::new()
        .name("pq-obs-metrics".into())
        .spawn(move || serve_loop(listener, obs, stop_flag))?;
    Ok(MetricsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

fn serve_loop(listener: TcpListener, obs: Obs, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A stalled client must not wedge the exporter thread.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let _ = handle_connection(stream, &obs);
    }
}

/// What the exporter read of one request head.
enum Head {
    /// A well-formed request line; the headers were read and ignored.
    Request { method: String, path: String },
    /// The client closed the connection before sending a byte.
    Closed,
    /// The head ran past [`MAX_REQUEST_BYTES`].
    TooLarge,
    /// A non-UTF-8 or malformed request line, or a head cut short.
    Malformed,
}

/// Reads one request head. `reader` yields at most
/// `MAX_REQUEST_BYTES + 1` bytes, so no line grows past the cap.
fn read_head(reader: &mut impl BufRead) -> io::Result<Head> {
    let mut line = Vec::new();
    let mut total = 0;
    let mut request = None;
    loop {
        line.clear();
        total += reader.read_until(b'\n', &mut line)?;
        if total > MAX_REQUEST_BYTES {
            return Ok(Head::TooLarge);
        }
        if total == 0 {
            return Ok(Head::Closed);
        }
        if !line.ends_with(b"\n") {
            return Ok(Head::Malformed);
        }
        match request {
            None => match parse_request_line(&line) {
                Some(parsed) => request = Some(parsed),
                None => return Ok(Head::Malformed),
            },
            Some((method, path)) if line == b"\r\n" || line == b"\n" => {
                return Ok(Head::Request { method, path })
            }
            Some(_) => {}
        }
    }
}

/// `(method, path)` of a `METHOD PATH HTTP/x` request line.
fn parse_request_line(line: &[u8]) -> Option<(String, String)> {
    let mut parts = std::str::from_utf8(line).ok()?.split_whitespace();
    let (method, path, version) = (parts.next()?, parts.next()?, parts.next()?);
    (version.starts_with("HTTP/") && parts.next().is_none())
        .then(|| (method.to_string(), path.to_string()))
}

fn handle_connection(stream: TcpStream, obs: &Obs) -> io::Result<()> {
    let mut reader = BufReader::new((&stream).take(MAX_REQUEST_BYTES as u64 + 1));
    let head = read_head(&mut reader)?;
    let plain = "text/plain; charset=utf-8";
    let (status, content_type, body) = match &head {
        Head::Closed => return Ok(()),
        Head::Request { method, path } => route(method, path, obs),
        Head::TooLarge => (
            "431 Request Header Fields Too Large",
            plain,
            "request head over 8 KiB\n".into(),
        ),
        Head::Malformed => ("400 Bad Request", plain, "malformed request\n".into()),
    };
    let mut out = &stream;
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()?;
    if !matches!(head, Head::Request { .. }) {
        // A refused request may be partly unread, and closing over
        // unread input resets the connection before the client reads
        // the answer: close our side, then drain a bounded amount.
        stream.shutdown(Shutdown::Write)?;
        io::copy(&mut (&stream).take(64 * 1024), &mut io::sink())?;
    }
    Ok(())
}

fn route(method: &str, path: &str, obs: &Obs) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        );
    }
    // Ignore any query string — scrapers sometimes append cache busters.
    match path.split('?').next().unwrap_or("") {
        "/metrics" => {
            let mut body = text::render_prometheus(&obs.snapshot());
            if let Some(plane) = obs.window_plane() {
                body.push_str(&text::render_windows(&plane.snapshot()));
            }
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
        }
        "/snapshot" => (
            "200 OK",
            "application/json",
            text::render_json(&obs.snapshot()),
        ),
        "/health" => ("200 OK", "application/json", render_health(obs)),
        "/alerts" => ("200 OK", "application/json", render_alerts(obs)),
        "/" => (
            "200 OK",
            "text/plain; charset=utf-8",
            "pq-obs exporter: GET /metrics (Prometheus text), /snapshot (JSON), /health, or /alerts\n"
                .into(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /snapshot, /health, or /alerts\n".into(),
        ),
    }
}

/// The `/health` payload. Health comes from the SLO engine's active
/// alerts OR a stalled watchdog — either one degrades the verdict. Each
/// watchdog reports under its label, and a stall observed here fires
/// the flight-recorder dump (reason `watchdog_stall:<label>`), exactly
/// once per stall episode: the scrape is the detection point.
fn render_health(obs: &Obs) -> String {
    use crate::slo::{Health, WatchdogStatus};
    let (mut status, active, budget) = match obs.slo_engine() {
        Some(slo) => {
            let (health, active) = slo.health();
            (health, active, slo.error_budget_remaining())
        }
        None => (Health::Ok, 0, 1.0),
    };
    let mut labeled = String::new();
    for (label, dog) in obs.watchdogs() {
        let dog_status = dog.status();
        if dog_status == WatchdogStatus::Stalled {
            status = Health::Degraded;
            if dog.should_report_stall() {
                if let Some(recorder) = obs.recorder() {
                    let _ = recorder.trigger(&format!("watchdog_stall:{label}"));
                }
            }
        }
        if !labeled.is_empty() {
            labeled.push(',');
        }
        let _ = std::fmt::Write::write_fmt(
            &mut labeled,
            format_args!(
                "{}:{}",
                text::json_string(&label),
                text::json_string(dog_status.as_str())
            ),
        );
    }
    let dumps = obs.recorder().map_or(0, crate::Recorder::dump_count);
    format!(
        "{{\"status\":{},\"active_alerts\":{},\"error_budget_remaining\":{},\"watchdogs\":{{{labeled}}},\"recorder_dumps\":{}}}\n",
        text::json_string(status.as_str()),
        active,
        text::json_f64(budget),
        dumps,
    )
}

/// The `/alerts` payload: every remembered alert, active first-class.
fn render_alerts(obs: &Obs) -> String {
    let alerts = obs.slo_engine().map(|slo| slo.alerts()).unwrap_or_default();
    let active = alerts.iter().filter(|a| a.is_active()).count();
    let mut body = format!("{{\"active\":{active},\"alerts\":[");
    for (i, alert) in alerts.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let cleared = alert
            .cleared_at
            .map_or_else(|| "null".to_string(), |t| t.to_string());
        let _ = std::fmt::Write::write_fmt(
            &mut body,
            format_args!(
                "{{\"id\":{},\"kind\":{},\"raised_at\":{},\"cleared_at\":{},\"burn_short\":{},\"burn_long\":{},\"message\":{}}}",
                alert.id,
                text::json_string(alert.kind.as_str()),
                alert.raised_at,
                cleared,
                text::json_f64(alert.burn_short),
                text::json_f64(alert.burn_long),
                text::json_string(&alert.message),
            ),
        );
    }
    body.push_str("]}\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_and_snapshot_then_shuts_down() {
        let obs = Obs::null();
        obs.counter("sim.refresh").add(3);
        obs.labeled_counter("dab.recompute", "query", "2").add(9);
        let server = spawn(obs, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("pq_sim_refresh_total 3"));
        assert!(body.contains("pq_dab_recompute_total{query=\"2\"} 9"));

        let (head, body) = get(addr, "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("\"sim.refresh\":3"));

        let (head, body) = get(addr, "/bogus");
        assert!(head.starts_with("HTTP/1.1 404"));
        assert_eq!(
            body,
            "not found; try /metrics, /snapshot, /health, or /alerts\n"
        );

        let (head, body) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("/health"), "index must advertise /health");

        server.shutdown();
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err());
    }

    #[test]
    fn scrapes_observe_live_counter_updates() {
        let obs = Obs::null();
        let counter = obs.counter("sim.refresh");
        let server = spawn(obs, "127.0.0.1:0").unwrap();
        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("pq_sim_refresh_total 0"));
        counter.add(5);
        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("pq_sim_refresh_total 5"));
        server.shutdown();
    }

    #[test]
    fn health_defaults_to_ok_with_nothing_installed() {
        let server = spawn(Obs::null(), "127.0.0.1:0").unwrap();
        let (head, body) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("application/json"));
        assert_eq!(
            body,
            "{\"status\":\"ok\",\"active_alerts\":0,\"error_budget_remaining\":1.0,\
             \"watchdogs\":{},\"recorder_dumps\":0}\n"
        );
        let (_, body) = get(server.addr(), "/alerts");
        assert_eq!(body, "{\"active\":0,\"alerts\":[]}\n");
        server.shutdown();
    }

    #[test]
    fn health_and_alerts_reflect_the_slo_engine() {
        let obs = Obs::null();
        let slo = Arc::new(crate::SloEngine::new(crate::SloConfig::default(), &obs));
        assert!(obs.install_slo_engine(slo.clone()));
        // One audit divergence: the zero-budget objective pages at once.
        let raised = slo.observe(7, 10, 0, 1);
        assert_eq!(raised.len(), 1);
        let server = spawn(obs, "127.0.0.1:0").unwrap();

        let (_, body) = get(server.addr(), "/health");
        assert!(body.contains("\"status\":\"degraded\""), "body: {body}");
        assert!(body.contains("\"active_alerts\":1"));

        let (_, body) = get(server.addr(), "/alerts");
        assert!(body.contains("\"active\":1"));
        assert!(body.contains("\"kind\":\"audit_divergence\""));
        assert!(body.contains("\"raised_at\":7"));
        assert!(body.contains("\"cleared_at\":null"));
        server.shutdown();
    }

    #[test]
    fn metrics_appends_windowed_series_when_a_plane_is_installed() {
        let obs = Obs::null();
        let plane = Arc::new(crate::WindowPlane::new());
        plane.track_source("sim.refresh", obs.counter("sim.refresh"));
        obs.counter("sim.refresh").add(50);
        plane.advance(10);
        assert!(obs.install_window_plane(plane));
        let server = spawn(obs, "127.0.0.1:0").unwrap();
        let (_, body) = get(server.addr(), "/metrics");
        assert!(
            body.contains("pq_sim_refresh_total 50"),
            "plain series stays"
        );
        assert!(
            body.contains("pq_sim_refresh_rate_5s 10\n"),
            "windowed rate missing: {body}"
        );
        server.shutdown();
    }

    #[test]
    fn stalled_watchdog_degrades_health_and_dumps_once() {
        let dir = std::env::temp_dir().join(format!(
            "pq-obs-serve-wd-{}-{}",
            std::process::id(),
            crate::now_ns()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let obs = Obs::null();
        let watchdog = Arc::new(crate::Watchdog::new(Duration::ZERO));
        watchdog.beat();
        obs.register_watchdog("coordinator", watchdog);
        let recorder = crate::Recorder::new(crate::RecorderConfig::new(dir.join("dump.jsonl")));
        assert!(obs.install_recorder(recorder));
        std::thread::sleep(Duration::from_millis(2));
        let server = spawn(obs, "127.0.0.1:0").unwrap();
        let (_, body) = get(server.addr(), "/health");
        assert!(body.contains("\"status\":\"degraded\""), "body: {body}");
        assert!(body.contains("\"watchdogs\":{\"coordinator\":\"stalled\"}"));
        assert!(body.contains("\"recorder_dumps\":1"), "body: {body}");
        // A second scrape must not dump again for the same episode.
        let (_, body) = get(server.addr(), "/health");
        assert!(body.contains("\"recorder_dumps\":1"), "body: {body}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn labeled_watchdogs_attribute_stalls_to_a_shard() {
        let dir = std::env::temp_dir().join(format!(
            "pq-obs-serve-shardwd-{}-{}",
            std::process::id(),
            crate::now_ns()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let obs = Obs::null();
        let healthy = Arc::new(crate::Watchdog::new(Duration::from_secs(3600)));
        healthy.beat();
        let stalled = Arc::new(crate::Watchdog::new(Duration::ZERO));
        stalled.beat();
        obs.register_watchdog("shard0", healthy);
        obs.register_watchdog("shard1", stalled);
        let recorder = crate::Recorder::new(crate::RecorderConfig::new(dir.join("dump.jsonl")));
        assert!(obs.install_recorder(recorder));
        std::thread::sleep(Duration::from_millis(2));
        let server = spawn(obs, "127.0.0.1:0").unwrap();
        let (_, body) = get(server.addr(), "/health");
        assert!(body.contains("\"status\":\"degraded\""), "body: {body}");
        assert!(body.contains("\"shard0\":\"ok\""), "body: {body}");
        assert!(body.contains("\"shard1\":\"stalled\""), "body: {body}");
        assert!(body.contains("\"recorder_dumps\":1"), "body: {body}");
        server.shutdown();
        // The dump reason names the stalled shard.
        let dump = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| std::fs::read_to_string(e.unwrap().path()).unwrap())
            .collect::<String>();
        assert!(
            dump.contains("watchdog_stall:shard1"),
            "dump must attribute the stall: {dump}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_non_get_methods() {
        let server = spawn(Obs::null(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        server.shutdown();
    }
}
