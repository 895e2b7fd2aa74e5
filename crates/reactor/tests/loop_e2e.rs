//! End-to-end tests of the epoll event loop over real loopback sockets:
//! echo round-trips, pipelining under a capacity of one, idle and
//! over-capacity policies, oversized-line handling, and graceful drain of
//! in-flight work. These exercise the loop exactly as `ulm serve` does,
//! just with a toy service instead of the evaluator.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use ulm_reactor::{Completion, LineService, Reactor, ReactorOptions, ReactorSummary};

/// Answers `echo:<line>` inline on the event-loop thread.
struct Echo;

impl LineService for Echo {
    fn submit(&self, line: String, done: Completion) {
        done.send(Some(format!("echo:{line}")));
    }

    fn oversized(&self, limit: usize) -> Option<String> {
        Some(format!("too-long:{limit}"))
    }

    fn over_capacity(&self, active: usize) -> Option<String> {
        Some(format!("busy:{active}"))
    }
}

/// Answers from a worker thread after a delay — exercises the eventfd
/// wakeup path and shutdown draining.
struct SlowEcho {
    delay: Duration,
}

impl LineService for SlowEcho {
    fn submit(&self, line: String, done: Completion) {
        let delay = self.delay;
        thread::spawn(move || {
            thread::sleep(delay);
            done.send(Some(format!("late:{line}")));
        });
    }
}

fn start<S: LineService + 'static>(
    service: S,
    opts: ReactorOptions,
) -> (
    std::net::SocketAddr,
    ulm_reactor::ShutdownHandle,
    thread::JoinHandle<ReactorSummary>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let reactor = Reactor::new(listener, opts).expect("reactor setup");
    let addr = reactor.local_addr().expect("local addr");
    let handle = reactor.shutdown_handle();
    let join = thread::spawn(move || reactor.run(&service).expect("reactor run"));
    (addr, handle, join)
}

#[test]
fn echo_round_trip_and_summary() {
    let (addr, shutdown, join) = start(Echo, ReactorOptions::default());
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    for i in 0..3 {
        writeln!(stream, "ping-{i}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), format!("echo:ping-{i}"));
    }
    drop(reader);
    drop(stream);
    shutdown.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.requests, 3);
    assert_eq!(summary.responses, 3);
    assert!(summary.drained_cleanly, "{summary:?}");
}

#[test]
fn pipelined_lines_answer_in_order() {
    // capacity_hint is 1 for this service: the reactor may hold only one
    // submission in flight, so a burst of lines exercises the parked-line
    // queue, yet every response must still come back in request order.
    struct OneAtATime;
    impl LineService for OneAtATime {
        fn submit(&self, line: String, done: Completion) {
            thread::spawn(move || done.send(Some(format!("ok:{line}"))));
        }
        fn capacity_hint(&self) -> usize {
            1
        }
    }

    let (addr, shutdown, join) = start(OneAtATime, ReactorOptions::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for i in 0..32 {
        burst.push_str(&format!("b{i}\n"));
    }
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..32 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), format!("ok:b{i}"));
    }
    shutdown.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.requests, 32);
}

#[test]
fn idle_connections_are_reaped() {
    let opts = ReactorOptions {
        idle_timeout: Some(Duration::from_millis(80)),
        timer_tick: Duration::from_millis(20),
        ..ReactorOptions::default()
    };
    let (addr, shutdown, join) = start(Echo, opts);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Say nothing; the server should hang up on us.
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).unwrap();
    assert_eq!(n, 0, "idle connection sees EOF from the reaper");
    shutdown.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.closed_idle, 1, "{summary:?}");
}

#[test]
fn oversized_lines_get_the_policy_reply_and_the_stream_resyncs() {
    let opts = ReactorOptions {
        max_line_len: 8,
        ..ReactorOptions::default()
    };
    let (addr, shutdown, join) = start(Echo, opts);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"way-too-long-for-the-bound\nok\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "too-long:8");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "echo:ok");
    shutdown.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.oversized_lines, 1);
    assert_eq!(summary.requests, 1);
}

#[test]
fn connections_beyond_the_ceiling_are_turned_away() {
    let opts = ReactorOptions {
        max_connections: 1,
        ..ReactorOptions::default()
    };
    let (addr, shutdown, join) = start(Echo, opts);
    let mut first = TcpStream::connect(addr).unwrap();
    writeln!(first, "hold").unwrap();
    let mut reader = BufReader::new(first.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "echo:hold");

    let second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut turned_away = String::new();
    let mut second_reader = BufReader::new(second);
    second_reader.read_line(&mut turned_away).unwrap();
    assert_eq!(turned_away.trim_end(), "busy:1");
    let n = second_reader.read_line(&mut turned_away).unwrap();
    assert_eq!(n, 0, "rejected connection is closed after the parting line");

    shutdown.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.rejected_over_capacity, 1);
}

#[test]
fn shutdown_drains_in_flight_work_before_closing() {
    let service = SlowEcho {
        delay: Duration::from_millis(150),
    };
    let (addr, shutdown, join) = start(service, ReactorOptions::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, "finish-me").unwrap();
    // Give the loop a moment to read the line, then ask it to stop while
    // the worker is still sleeping.
    thread::sleep(Duration::from_millis(40));
    shutdown.shutdown();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "late:finish-me", "drain kept the response");
    line.clear();
    let n = reader.read_line(&mut line).unwrap();
    assert_eq!(n, 0, "connection closes after the drain");
    let summary = join.join().unwrap();
    assert!(summary.drained_cleanly, "{summary:?}");
    assert_eq!(summary.responses, 1);
}
