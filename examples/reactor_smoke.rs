//! Smoke-test client for `ulm serve` (the epoll reactor), used by
//! `scripts/ci.sh`.
//!
//! Drives a running server through the scenarios the event loop exists
//! for, from a plain blocking client:
//!
//! 1. **scale** — hold thousands of idle connections open (adaptive to the
//!    process fd limit) while a working connection still gets answers;
//! 2. **protocol** — a pipelined batch: fresh search, repeat search
//!    (answered with the same bytes), an unknown kind, all answered in
//!    request order;
//! 3. **warm restarts** — `--expect-searches <n>` asserts how many
//!    searches the batch ran, by `/stats` `search.searches`: 1 on a cold
//!    cache (the repeat reuses the first), 0 when a warmed disk cache
//!    answers both;
//! 4. **slow clients** — `--slow-client-ms <n>` writes half a request and
//!    then just waits; the server's idle timeout must close the socket.
//!
//! Exits non-zero (panics) on any violated expectation.
//!
//! ```sh
//! cargo run --release --example reactor_smoke -- 127.0.0.1:7878 \
//!     --idle 10000 --expect-searches 1 --slow-client-ms 900
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

const SMOKE_SEARCH: &str = r#"{"id":100,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}"#;

fn main() {
    let mut argv = std::env::args().skip(1);
    let addr = argv.next().expect("usage: reactor_smoke <addr> [options]");
    let mut idle_target = 0usize;
    let mut expect_searches: Option<u64> = None;
    let mut slow_client_ms = 0u64;
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().expect("option needs a value");
        match arg.as_str() {
            "--idle" => idle_target = value().parse().expect("--idle <n>"),
            "--expect-searches" => {
                expect_searches = Some(value().parse().expect("--expect-searches <n>"));
            }
            "--slow-client-ms" => slow_client_ms = value().parse().expect("--slow-client-ms <n>"),
            other => panic!("unknown option {other}"),
        }
    }

    // 1. Scale: park idle connections, staying under the fd limit with
    // headroom for the working sockets and stdio.
    let budget = fd_limit().saturating_sub(64);
    let idle_count = idle_target.min(budget);
    if idle_count < idle_target {
        eprintln!("reactor_smoke: fd limit clamps idle connections {idle_target} -> {idle_count}");
    }
    let start = Instant::now();
    let mut parked = Vec::with_capacity(idle_count);
    for i in 0..idle_count {
        match TcpStream::connect(&addr) {
            Ok(s) => parked.push(s),
            Err(e) => panic!("idle connection {i} refused: {e}"),
        }
    }
    println!(
        "reactor_smoke: {} idle connections up in {:?}",
        parked.len(),
        start.elapsed()
    );

    // 2. Protocol: a pipelined batch on one more connection, answered in
    // order while every idle connection stays parked.
    let mut work = TcpStream::connect(&addr).expect("working connection");
    let batch = format!(
        "{SMOKE_SEARCH}\n{}\n{}\n",
        SMOKE_SEARCH.replace("\"id\":100", "\"id\":101"),
        r#"{"id":102,"kind":"frobnicate"}"#
    );
    work.write_all(batch.as_bytes()).expect("write batch");
    work.shutdown(Shutdown::Write).expect("half-close");
    let responses: Vec<String> = BufReader::new(&work)
        .lines()
        .map(|l| l.expect("read response"))
        .collect();
    assert_eq!(responses.len(), 3, "{responses:#?}");
    for (response, id) in responses.iter().zip([100, 101, 102]) {
        assert!(
            response.contains(&format!("\"id\":{id}")),
            "out of order: {response}"
        );
    }
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert_eq!(
        responses[1],
        responses[0].replacen("\"id\":100", "\"id\":101", 1),
        "a repeat must get the first answer's bytes"
    );
    assert!(responses[2].contains("\"ok\":false"), "{}", responses[2]);

    // 3. Warm restart: how many searches did the batch run? Every line
    // of it is answered, so `/stats` counts all of them.
    if let Some(expected) = expect_searches {
        let searches = searches_run(&addr);
        assert_eq!(searches, expected, "searches run by the batch");
        println!("reactor_smoke: the batch ran {searches} search(es), as expected");
    }

    // 4. Slow client: half a request, then silence. The server must hang
    // up (EOF) within the grace period rather than hold the socket forever.
    if slow_client_ms > 0 {
        let mut slow = TcpStream::connect(&addr).expect("slow connection");
        slow.write_all(b"{\"id\":999,\"kind\":\"sea")
            .expect("partial write");
        slow.set_read_timeout(Some(Duration::from_millis(slow_client_ms)))
            .expect("read timeout");
        let mut sink = Vec::new();
        match slow.read_to_end(&mut sink) {
            Ok(_) => println!("reactor_smoke: slow client reaped by the server"),
            Err(e) => panic!("server kept the slow client past {slow_client_ms}ms: {e}"),
        }
    }

    drop(parked);
    println!("reactor_smoke: OK");
}

/// `search.searches` from the server's `/stats`: searches it has run.
fn searches_run(addr: &str) -> u64 {
    let mut conn = TcpStream::connect(addr).expect("stats connection");
    conn.write_all(b"{\"id\":103,\"kind\":\"stats\"}\n")
        .expect("write stats request");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut stats = String::new();
    BufReader::new(&conn)
        .read_line(&mut stats)
        .expect("read stats");
    let (_, rest) = stats
        .split_once("\"searches\":")
        .unwrap_or_else(|| panic!("no search.searches in {stats}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("search.searches is a count")
}

/// The soft fd limit, from /proc on Linux (std has no getrlimit); a safe
/// default elsewhere.
fn fd_limit() -> usize {
    if let Ok(limits) = std::fs::read_to_string("/proc/self/limits") {
        for line in limits.lines() {
            if line.starts_with("Max open files") {
                if let Some(soft) = line.split_whitespace().nth(3) {
                    if let Ok(n) = soft.parse() {
                        return n;
                    }
                }
            }
        }
    }
    1024
}
