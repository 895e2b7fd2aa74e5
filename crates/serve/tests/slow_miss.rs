//! A slow miss cannot stall hits: on a one-worker service behind the
//! epoll reactor, repeats of stored requests are answered on the event
//! loop while the only worker is busy with an uncached search.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use ulm_reactor::{Reactor, ReactorOptions};
use ulm_serve::{EvalService, ReactorService, ServeOptions};

/// One request of each kind, each answered once before the reactor starts
/// so that every later copy is a repeat.
const STORED: [&str; 5] = [
    r#"{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#,
    r#"{"id":1,"kind":"eval","arch":"toy","layer":"4x4x8","mapping":{"spatial":{"factors":[["K",2],["B",2]]},"stack":{"loops":[{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"C","size":2},{"dim":"B","size":2},{"dim":"K","size":2}]},"allocs":{"values":[{"bounds":[0,5]},{"bounds":[0,5]},{"bounds":[3,5]}]}}}"#,
    r#"{"id":1,"kind":"whatif","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10},"set":["mem.LB.bw=2x"]}"#,
    r#"{"id":1,"kind":"surrogate","arch":"toy","layer":"4x4x8","template":"4x4x16","mapper":{"max_exhaustive":100,"samples":10}}"#,
    r#"{"id":1,"kind":"net","arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}"#,
];

/// An uncached search that samples enough orderings to keep the only
/// worker busy for hundreds of milliseconds.
fn slow_search() -> String {
    let samples = if cfg!(debug_assertions) {
        60_000
    } else {
        400_000
    };
    format!(
        r#"{{"id":99,"kind":"search","arch":"case16","layer":"256x256x1024","mapper":{{"max_exhaustive":0,"samples":{samples}}}}}"#
    )
}

#[test]
fn a_slow_miss_does_not_stall_hits_on_another_connection() {
    let svc = EvalService::new(ServeOptions {
        parallelism: Some(1),
        cache_capacity: 256,
        include_timing: false,
        ..ServeOptions::default()
    });
    let firsts: Vec<String> = STORED
        .iter()
        .map(|line| svc.handle_line(line).expect("an answer"))
        .collect();
    for first in &firsts {
        assert!(first.contains("\"ok\":true"), "{first}");
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let reactor = Reactor::new(listener, ReactorOptions::default()).expect("reactor setup");
    let addr = reactor.local_addr().expect("local addr");
    let shutdown = reactor.shutdown_handle();
    let adapter = ReactorService::new(Arc::clone(&svc));
    let join = thread::spawn(move || reactor.run(&adapter).expect("reactor run"));

    // Connection A occupies the only worker.
    let mut slow = TcpStream::connect(addr).expect("connect A");
    let started = Instant::now();
    writeln!(slow, "{}", slow_search()).expect("send the slow search");
    thread::sleep(Duration::from_millis(20));

    // Connection B repeats every stored request four times.
    let mut fast = TcpStream::connect(addr).expect("connect B");
    let mut burst = String::new();
    let mut expected = Vec::new();
    for round in 0..4 {
        for (line, first) in STORED.iter().zip(&firsts) {
            let id = format!("\"id\":{}", 10 + round);
            burst.push_str(&line.replacen("\"id\":1", &id, 1));
            burst.push('\n');
            expected.push(first.replacen("\"id\":1", &id, 1));
        }
    }
    fast.write_all(burst.as_bytes()).expect("send the repeats");
    let mut reader = BufReader::new(fast);
    for want in &expected {
        let mut got = String::new();
        reader.read_line(&mut got).expect("read a repeat's answer");
        assert_eq!(got.trim_end(), want);
    }
    let hits_done = started.elapsed();

    // A's answer has not arrived yet: the hits did not wait for it.
    slow.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    match slow.peek(&mut byte) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("the slow search answered before the hits ({hits_done:?}): {other:?}"),
    }
    slow.set_nonblocking(false).expect("blocking");
    let mut answer = String::new();
    BufReader::new(&mut slow)
        .read_line(&mut answer)
        .expect("read A's answer");
    assert!(answer.contains("\"ok\":true"), "{answer}");

    drop(reader);
    drop(slow);
    shutdown.shutdown();
    let summary = join.join().expect("reactor thread");
    assert_eq!(summary.requests, 21);
    assert_eq!(summary.responses, 21);
    // Only the slow search reached the pool.
    assert_eq!(svc.pool_stats().submitted, 1);
}
