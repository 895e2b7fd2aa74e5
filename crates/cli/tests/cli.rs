//! The `ulm` binary end to end: unknown options fail instead of running
//! with defaults, and `ulm batch --no-timing` answers a corpus the same
//! way, byte for byte, every time it runs.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn ulm(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ulm"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the ulm binary starts");
    // A command that fails on its arguments exits without reading.
    let _ = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("ulm exits")
}

/// [`ulm`] for a command that must exit at once: it is killed, and the
/// test fails, if it still runs after `limit` (a `ulm serve` that started
/// would run until stopped).
fn ulm_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ulm"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the ulm binary starts");
    let deadline = Instant::now() + limit;
    while child.try_wait().expect("ulm is waitable").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} still ran after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("ulm exits")
}

#[test]
fn unknown_options_exit_non_zero() {
    // Every mapping search runs on one thread: `dse --threads` is the one
    // thread knob left.
    let whatif = [
        "whatif",
        "--arch",
        "toy",
        "--layer",
        "4x4x8",
        "--set",
        "mem.LB.bw=2x",
    ];
    for (command, flag) in [
        (&["search", "--arch", "toy"][..], "--bogus-flag"),
        (&["search", "--arch", "toy"][..], "--batch-lanes"),
        (&["search", "--arch", "toy"][..], "--threads"),
        (&whatif[..], "--threads"),
        (&["dse"][..], "--map-threads"),
        (&["serve"][..], "--reactor"),
    ] {
        let args = [command, &[flag, "2"]].concat();
        let out = ulm(&args, "");
        assert!(!out.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing ran");
    }
    // An unknown option is named whether an option follows it or it is
    // last: neither is taken as a value (and no server starts).
    for args in [
        ["serve", "--reactor", "--port", "0"],
        ["serve", "--port", "0", "--reactor"],
    ] {
        let out = ulm_within(&args, Duration::from_secs(30));
        assert!(!out.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no option --reactor"), "{args:?}: {stderr}");
    }
    // A flag one command takes is still unknown to another.
    assert!(!ulm(&["dse", "--samples", "10"], "").status.success());
    let ok = ulm(
        &[
            "search",
            "--arch",
            "toy",
            "--layer",
            "4x4x8",
            "--samples",
            "10",
            "--stats",
        ],
        "",
    );
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}

#[test]
fn thread_counts_above_the_cap_exit_before_any_thread_starts() {
    let huge = u64::MAX.to_string();
    for args in [
        &["dse", "--threads", "257"][..],
        &["dse", "--threads", &huge],
        &["batch", "--parallelism", "257"],
        &["batch", "--parallelism", &huge],
        &["serve", "--port", "0", "--parallelism", "100000"],
    ] {
        let out = ulm(args, "{\"kind\":\"stats\"}\n");
        assert!(!out.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("at most 256"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn unknown_objective_and_precision_names_exit_non_zero() {
    let search = [
        "search",
        "--arch",
        "toy",
        "--layer",
        "4x4x8",
        "--samples",
        "10",
    ];
    for (flag, value) in [("--objective", "bogus"), ("--precision", "bogus-int7")] {
        let out = ulm(&[&search[..], &[flag, value]].concat(), "");
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(value), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing ran");
    }
    let out = ulm(&["evaluate", "--arch", "toy", "--precision", "int8"], "");
    assert!(!out.status.success(), "evaluate took --precision int8");
    // Objective names match in any letter case, as serve's do.
    for (flag, value) in [("--objective", "EDP"), ("--precision", "int8_acc24")] {
        let out = ulm(&[&search[..], &[flag, value]].concat(), "");
        assert!(
            out.status.success(),
            "{flag} {value}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Every request kind, a cache hit, an unknown mapper option, malformed
/// lines and two stats requests.
const CORPUS: &str = r#"{"id":1,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}
{"id":2,"kind":"search","arch":"toy","layer":"8x4x8","objective":"energy","mapper":{"max_exhaustive":100,"samples":10}}
{"id":3,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10}}
{"id":4,"kind":"whatif","arch":"toy","layer":"4x4x8","mapper":{"max_exhaustive":100,"samples":10},"set":["mem.LB.bw=2x"]}
{"id":5,"kind":"surrogate","arch":"case16","layer":"8x16x64","mapper":{"max_exhaustive":200,"samples":20}}
{"id":6,"kind":"net","arch":"toy","net":"attention-decode","mapper":{"max_exhaustive":200,"samples":20}}
{"id":7,"kind":"stats"}
{"id":8,"kind":"frobnicate"}
{not json
{"id":9,"kind":"search","arch":"toy","layer":"4x4x8","mapper":{"batch_lanes":8}}
{"id":10,"kind":"stats"}
"#;

#[test]
fn batch_without_timing_is_reproducible_byte_for_byte() {
    let args = ["batch", "--no-timing", "--parallelism", "1"];
    let first = ulm(&args, CORPUS);
    let second = ulm(&args, CORPUS);
    assert!(first.status.success());
    let text = String::from_utf8(first.stdout.clone()).expect("UTF-8 answers");
    assert_eq!(text.lines().count(), CORPUS.lines().count());
    assert_eq!(first.stdout, second.stdout);
    let stats: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(r#""kind":"stats""#))
        .collect();
    assert_eq!(stats.len(), 2);
    for line in stats {
        assert!(line.contains(r#""pool":{"#), "{line}");
        for timed in ["latency_ms", "queue_depth", "submitted"] {
            assert!(!line.contains(timed), "{timed} in {line}");
        }
    }

    // With timing, the same stats request reports latencies and gauges.
    let timed = ulm(&["batch", "--parallelism", "1"], r#"{"kind":"stats"}"#);
    let line = String::from_utf8(timed.stdout).expect("UTF-8 answers");
    for field in ["latency_ms", "queue_depth", "submitted"] {
        assert!(line.contains(field), "{field} missing from {line}");
    }
}
