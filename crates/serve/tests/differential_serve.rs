//! Differential test: the epoll reactor against a sequential oracle. An
//! identical batch of requests must produce byte-identical NDJSON
//! responses (order-normalized by request id; timing fields disabled).
//!
//! The oracle is [`run_batch`] on a one-worker service: the same
//! `handle_line` and the same `extract_line` framing, run request by
//! request from memory, so repeats execute in order.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use ulm_reactor::{Reactor, ReactorOptions};
use ulm_serve::{run_batch, EvalService, ReactorService, ServeOptions};

const MAX_LINE: usize = 4096;

fn service(parallelism: usize) -> Arc<EvalService> {
    EvalService::new(ServeOptions {
        parallelism: Some(parallelism),
        cache_capacity: 256,
        include_timing: false,
        max_line_len: MAX_LINE,
        ..ServeOptions::default()
    })
}

/// The shared request batch: searches (one repeated under a new id, which
/// must hit the cache identically on both paths), a protocol error, a parse
/// error, a blank line, and an oversized line.
fn requests() -> Vec<String> {
    vec![
        r#"{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#.into(),
        r#"{"id":2,"kind":"search","arch":"toy","layer":"8x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#.into(),
        r#"{"id":3,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#.into(),
        r#"{"id":4,"kind":"frobnicate"}"#.into(),
        "this is not json".into(),
        String::new(),
        "x".repeat(MAX_LINE + 1),
    ]
}

/// Writes every request line, half-closes, and reads responses until EOF.
fn exchange(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        stream.write_all(line.as_bytes()).expect("write request");
        stream.write_all(b"\n").expect("write newline");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read response"))
        .collect()
}

/// Order-normalization per the protocol: sort by request id, with id-less
/// (null) responses after, tie-broken by content. Per-connection order is
/// already deterministic on both paths, so this is belt and braces.
fn normalize(mut responses: Vec<String>) -> Vec<String> {
    fn id_of(line: &str) -> u64 {
        line.split_once("\"id\":")
            .and_then(|(_, rest)| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            })
            .unwrap_or(u64::MAX)
    }
    responses.sort_by(|a, b| id_of(a).cmp(&id_of(b)).then_with(|| a.cmp(b)));
    responses
}

/// The sequential oracle: every line through [`run_batch`] on `svc`, a
/// one-worker service.
fn run_sequential(svc: &Arc<EvalService>, lines: &[String]) -> Vec<String> {
    let input: String = lines.iter().map(|line| format!("{line}\n")).collect();
    let mut out = Vec::new();
    run_batch(svc, input.as_bytes(), &mut out).expect("batch run");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn run_reactor_path(
    svc: &Arc<EvalService>,
    lines: &[String],
) -> (Vec<String>, ulm_reactor::ReactorSummary) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let reactor = Reactor::new(
        listener,
        ReactorOptions {
            max_line_len: svc.max_line_len(),
            ..ReactorOptions::default()
        },
    )
    .expect("reactor setup");
    let addr = reactor.local_addr().expect("local addr");
    let handle = reactor.shutdown_handle();
    let adapter = ReactorService::new(Arc::clone(svc));
    let join = thread::spawn(move || reactor.run(&adapter).expect("reactor run"));
    let responses = exchange(addr, lines);
    handle.shutdown();
    let summary = join.join().expect("reactor thread");
    (responses, summary)
}

#[test]
fn reactor_and_batch_paths_are_byte_identical() {
    let lines = requests();
    let sequential = run_sequential(&service(1), &lines);
    let (reactor, summary) = run_reactor_path(&service(2), &lines);

    // 5 answerable requests (3 searches, 1 bad kind, 1 parse error) plus
    // the oversized rejection; the blank line produces nothing.
    assert_eq!(sequential.len(), 6, "{sequential:#?}");
    assert_eq!(normalize(sequential), normalize(reactor));

    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.oversized_lines, 1);
    // 6 submitted lines (the blank one included), 5 of which answer; the
    // oversized rejection is written but never reaches the service.
    assert_eq!(summary.requests, 6);
    assert_eq!(summary.responses, 5);
    assert!(summary.drained_cleanly);
}

#[test]
fn pipelined_bursts_agree_across_transports() {
    // A single burst mixing fresh and repeat queries stresses ordering:
    // every response must come back in request order on both paths.
    let mut lines = Vec::new();
    for (i, (b, k, c)) in [
        (4u64, 4u64, 8u64),
        (8, 4, 8),
        (4, 8, 8),
        (4, 4, 8),
        (8, 4, 8),
    ]
    .iter()
    .enumerate()
    {
        lines.push(format!(
            r#"{{"id":{},"kind":"search","arch":"toy","layer":"{b}x{k}x{c}","mapper":{{"max_exhaustive":60,"samples":8}}}}"#,
            i + 10
        ));
    }
    let (oracle, served) = (service(1), service(2));
    let sequential = run_sequential(&oracle, &lines);
    let (reactor, summary) = run_reactor_path(&served, &lines);
    assert_eq!(sequential.len(), lines.len());
    assert_eq!(
        sequential, reactor,
        "responses must match in order, not just as sets"
    );
    assert_eq!(summary.requests, lines.len() as u64);

    // The repeats must be served from cache on both paths: only the
    // three distinct searches run.
    for svc in [&oracle, &served] {
        assert_eq!(svc.search_totals().searches, 3);
    }
}
