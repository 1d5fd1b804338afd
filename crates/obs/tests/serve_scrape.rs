//! Integration test: scrape a live `/metrics` endpoint over a real TCP
//! socket and validate the Prometheus text exposition format line by
//! line, exactly as an external scraper would see it.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;

use pq_obs::Obs;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Validates one Prometheus text document: every line is either a
/// `# TYPE` comment or a `series value` sample; series names are legal;
/// every sample's base name was declared by a TYPE line; label values
/// are quoted. Returns the set of sampled series names.
fn validate_prometheus(body: &str) -> HashSet<String> {
    let mut declared = HashSet::new();
    let mut sampled = HashSet::new();
    for line in body.lines() {
        assert!(!line.is_empty(), "no blank lines in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE has a metric name");
            let kind = parts.next().expect("TYPE has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary"),
                "unknown TYPE kind in: {line}"
            );
            declared.insert(name.to_string());
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "only TYPE comments expected: {line}"
        );
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value must be numeric: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !name.is_empty()
                && !name.chars().next().unwrap().is_ascii_digit(),
            "illegal metric name: {name}"
        );
        if let Some(labels) = series.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed label block: {series}"
                );
                for pair in labels[1..labels.len() - 1].split(',') {
                    let (k, v) = pair.split_once('=').expect("label pair");
                    assert!(k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                    assert!(v.starts_with('"') && v.ends_with('"'), "unquoted: {pair}");
                }
            }
        }
        // Histogram series suffixes resolve to their declared base name.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .unwrap_or(name);
        assert!(
            declared.contains(base) || declared.contains(name),
            "sample {name} has no TYPE declaration"
        );
        sampled.insert(name.to_string());
    }
    sampled
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let obs = Obs::null();
    // Populate the registry the way an instrumented run does: plain
    // counters, per-query and per-item labeled families, histograms.
    obs.counter("sim.refresh").add(41);
    for q in 0..3u32 {
        obs.labeled_counter(
            pq_obs::names::DAB_RECOMPUTE,
            pq_obs::names::LABEL_QUERY,
            &q.to_string(),
        )
        .add(u64::from(q) + 1);
    }
    obs.labeled_counter("sim.refresh", pq_obs::names::LABEL_ITEM, "7")
        .add(41);
    for v in [150u64, 3_000, 3_000, 80_000] {
        obs.histogram("gp.solve_ns").record(v);
    }

    let server = pq_obs::serve::spawn(obs, "127.0.0.1:0").expect("bind ephemeral port");
    let (head, body) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "prometheus content type: {head}"
    );

    let sampled = validate_prometheus(&body);
    for expected in [
        "pq_dab_recompute_total",
        "pq_gp_solve_ns_bucket",
        "pq_gp_solve_ns_sum",
        "pq_gp_solve_ns_count",
        "pq_gp_solve_ns_max",
    ] {
        assert!(sampled.contains(expected), "missing series {expected}");
    }
    // Per-query attribution series with exact totals.
    assert!(body.contains("pq_dab_recompute_total{query=\"0\"} 1\n"));
    assert!(body.contains("pq_dab_recompute_total{query=\"2\"} 3\n"));
    // Exact count/sum from the histogram fields, not bucket arithmetic.
    assert!(body.contains("pq_gp_solve_ns_sum 86150\n"));
    assert!(body.contains("pq_gp_solve_ns_count 4\n"));
    assert!(body.contains("pq_gp_solve_ns_bucket{le=\"+Inf\"} 4\n"));
    server.shutdown();
}

#[test]
fn snapshot_endpoint_serves_json_mirror() {
    let obs = Obs::null();
    obs.counter("sim.refresh").add(2);
    obs.labeled_counter("sim.refresh", "item", "0").add(2);
    let server = pq_obs::serve::spawn(obs, "127.0.0.1:0").unwrap();
    let (head, body) = http_get(server.addr(), "/snapshot");
    assert!(head.starts_with("HTTP/1.1 200 OK"));
    assert!(head.contains("application/json"));
    assert!(body.contains("\"sim.refresh\":2"));
    assert!(body.contains("\"key\":\"item\""));
    server.shutdown();
}

#[test]
fn hostile_requests_are_answered_and_never_wedge_the_exporter() {
    let obs = Obs::null();
    obs.counter("sim.refresh").add(3);
    let server = pq_obs::serve::spawn(obs, "127.0.0.1:0").unwrap();
    let oversized = [b"GET /".as_slice(), &[b'a'; 9 * 1024]].concat();
    let garbage = [
        0xff, 0xfe, 0x00, 0x80, 0xc3, 0x28, b'\r', b'\n', b'\r', b'\n',
    ];
    // (request bytes, expected status line; None = no answer owed)
    let cases: [(&[u8], Option<&str>); 4] = [
        (&oversized, Some("HTTP/1.1 431 ")),
        (b"GET /metrics HTTP/1.1\r\nHost: x", Some("HTTP/1.1 400 ")),
        (&garbage, Some("HTTP/1.1 400 ")),
        (b"", None),
    ];
    for (request, status) in cases {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(request).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let response = String::from_utf8_lossy(&response);
        match status {
            Some(status) => assert!(response.starts_with(status), "{response:?}"),
            None => assert!(response.is_empty(), "{response:?}"),
        }
        let (head, body) = http_get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("pq_sim_refresh_total 3\n"));
    }
    server.shutdown();
}

#[test]
fn obs_config_addr_spawns_detached_exporter() {
    // Pick a free port first, then hand it to ObsConfig.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    let config = pq_obs::ObsConfig {
        addr: Some(addr.to_string()),
        ..Default::default()
    };
    assert!(!config.is_off());
    let obs = Obs::from_config(&config).expect("bind configured addr");
    obs.counter("sim.refresh").inc();
    // Give the detached thread a beat if the OS is slow to hand over.
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"));
    assert!(body.contains("pq_sim_refresh_total 1"));
}
