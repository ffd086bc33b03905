//! Socket-level round-trip: a signed WSRF `GetResourceProperty` and a
//! WS-Transfer `Get` over one real loopback keep-alive connection. Two
//! requests, one connection — exactly one serving-tier handshake charged
//! in telemetry, the second request a resumption, mirroring the paper's
//! socket-caching semantics.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ogsa_container::Testbed;
use ogsa_counter::{CounterApi, TransferCounter, WsrfCounter};
use ogsa_security::SecurityPolicy;
use ogsa_serve::{ServeConfig, Server};
use ogsa_telemetry::prometheus::parse_exposition;

/// Split a bound address like `http://host-a/services/X` into
/// (`host-a`, `/services/X`).
fn split_address(address: &str) -> (&str, &str) {
    let rest = address
        .strip_prefix("http://")
        .expect("serving tier test uses http addresses");
    let slash = rest.find('/').expect("address has a path");
    (&rest[..slash], &rest[slash..])
}

/// Read exactly one HTTP response off the stream; returns (status, body).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let status: u16 = head[9..12].parse().expect("status code");
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::trim)
                        .map(String::from)
                })
                .and_then(|v| v.parse().ok())
                .expect("Content-Length header");
            let body_start = head_end + 4;
            while buf.len() < body_start + content_length {
                let n = stream.read(&mut chunk).expect("read body");
                assert!(n > 0, "peer closed mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body =
                String::from_utf8(buf[body_start..body_start + content_length].to_vec()).unwrap();
            buf.drain(..body_start + content_length);
            assert!(buf.is_empty(), "unexpected pipelined bytes");
            return (status, body);
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "peer closed mid-head");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn signed_wsrf_and_transfer_round_trip_one_keep_alive_connection() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::X509Sign);
    let wsrf = WsrfCounter::deploy(&container);
    let wxf = TransferCounter::deploy(&container);
    let agent = tb.client("host-b", "CN=socket-client,O=VO", SecurityPolicy::X509Sign);

    // Create one resource per stack over the simulated wire, then talk to
    // both through the real socket.
    let wsrf_counter = wsrf.client(agent.clone()).create().expect("wsrf create");
    let wxf_counter = wxf.client(agent.clone()).create().expect("wxf create");
    wsrf.client(agent.clone()).set(&wsrf_counter, 7).unwrap();
    wxf.client(agent.clone()).set(&wxf_counter, 9).unwrap();

    let (wsrf_addr, wsrf_wire) = agent.prepare_wire(
        &wsrf_counter,
        ogsa_wsrf::proxy::actions::GET_RP,
        ogsa_wsrf::properties::get_property_request("cv"),
    );
    let (wxf_addr, wxf_wire) = agent.prepare_wire(
        &wxf_counter,
        ogsa_transfer::messages::actions::GET,
        ogsa_transfer::messages::get_request(),
    );

    let server = Server::bind(tb.network(), ServeConfig::default()).expect("bind serving tier");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();

    // Request 1: WSRF GetResourceProperty.
    let (host, target) = split_address(&wsrf_addr);
    let mut req = Vec::new();
    ogsa_serve::http::write_request(&mut req, target, host, true, &wsrf_wire);
    stream.write_all(&req).unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "wsrf response: {body}");
    let resp = agent
        .decode_response(&body)
        .expect("verified wsrf response");
    let value = resp.child_elements().next().expect("property value");
    assert_eq!(value.text().trim(), "7");

    // Request 2: WS-Transfer Get, same connection.
    let (host, target) = split_address(&wxf_addr);
    let mut req = Vec::new();
    ogsa_serve::http::write_request(&mut req, target, host, true, &wxf_wire);
    stream.write_all(&req).unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "wxf response: {body}");
    let resp = agent.decode_response(&body).expect("verified wxf response");
    let representation =
        ogsa_transfer::messages::parse_get_response(&resp).expect("GetResponse representation");
    assert_eq!(representation.child_text("value"), Some("9"));

    // One connection, two requests: exactly one handshake, one resumption.
    let metrics = tb.telemetry().metrics().snapshot();
    assert_eq!(metrics.counter("serve.handshakes"), 1);
    assert_eq!(metrics.counter("serve.resumptions"), 1);
    assert_eq!(metrics.counter("serve.requests"), 2);
    assert_eq!(metrics.counter("serve.accepted"), 1);
    assert_eq!(server.stats().accepted(), 1);
    assert_eq!(server.stats().requests(), 2);
    assert_eq!(server.stats().http_errors(), 0);

    // The serving tier nests the container pipeline under its own span.
    let spans = tb.telemetry().finished_spans();
    let serve_spans: Vec<_> = spans.iter().filter(|s| s.name == "serve:request").collect();
    assert_eq!(serve_spans.len(), 2);
    assert!(spans.iter().any(|s| {
        s.name == "container:pipeline" && serve_spans.iter().any(|p| s.parent == Some(p.id))
    }));
}

#[test]
fn closing_connection_and_reconnecting_charges_a_second_handshake() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::X509Sign);
    let wxf = TransferCounter::deploy(&container);
    let agent = tb.client("host-b", "CN=socket-client,O=VO", SecurityPolicy::X509Sign);
    let counter = wxf.client(agent.clone()).create().expect("create");
    let (addr, wire) = agent.prepare_wire(
        &counter,
        ogsa_transfer::messages::actions::GET,
        ogsa_transfer::messages::get_request(),
    );
    let (host, target) = split_address(&addr);

    let server = Server::bind(tb.network(), ServeConfig::default()).expect("bind");
    for _ in 0..2 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut req = Vec::new();
        ogsa_serve::http::write_request(&mut req, target, host, false, &wire);
        stream.write_all(&req).unwrap();
        let (status, _) = read_response(&mut stream);
        assert_eq!(status, 200);
    }
    let metrics = tb.telemetry().metrics().snapshot();
    assert_eq!(metrics.counter("serve.handshakes"), 2);
    assert_eq!(metrics.counter("serve.resumptions"), 0);
}

#[test]
fn admin_metrics_expose_the_wire_counters() {
    // The simulated wire's ledger is the `net.*` series: a scrape after
    // quiesce shows exactly what `NetStats` reports.
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::Https);
    let wsrf = WsrfCounter::deploy(&container);
    let client = wsrf.client(tb.client("host-b", "CN=scraper,O=VO", SecurityPolicy::Https));
    let counter = client.create().expect("create");
    client.set(&counter, 3).unwrap();

    let server = Server::bind(tb.network(), ServeConfig::default()).expect("bind");
    let admin = server.admin_addr().expect("observability on by default");
    assert!(tb.network().quiesce(Duration::from_secs(10)));
    let wire = tb.network().stats().snapshot();
    assert!(wire.requests > 0 && wire.tls_handshakes > 0, "{wire:?}");

    let mut stream = TcpStream::connect(admin).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut req = Vec::new();
    ogsa_serve::http::write_get_request(&mut req, "/metrics", "admin", true);
    stream.write_all(&req).unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    let exp = parse_exposition(&body).expect("scrape parses");
    exp.check_histograms().expect("histograms consistent");
    for (name, value) in [
        ("net_requests", wire.requests),
        ("net_bytes", wire.bytes),
        ("net_tls_handshakes", wire.tls_handshakes),
        ("net_timeouts", wire.timeouts),
    ] {
        let sample = exp
            .get(name, &[])
            .unwrap_or_else(|| panic!("{name} missing from:\n{body}"));
        assert_eq!(sample.value as u64, value, "{name}");
    }
}
