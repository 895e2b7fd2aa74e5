//! The platform-independent surface of the reactor: the [`LineService`]
//! contract a protocol engine implements, the [`Completion`] channel its
//! workers answer through, the tuning knobs, the run summary and the error
//! type. Everything here compiles on any platform; only the epoll loop
//! itself is Linux-specific.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A line-oriented request handler driven by the reactor.
///
/// The reactor owns all sockets and framing; the service only ever sees
/// complete request lines. [`submit`](LineService::submit) must not block
/// the caller for long — it runs on the event-loop thread. It may answer
/// there and then, when that is cheap; otherwise hand the work to a pool
/// and call [`Completion::send`] from wherever it finishes. The reactor
/// enforces its side of the backpressure contract by keeping at most
/// [`capacity_hint`](LineService::capacity_hint) submissions in flight.
pub trait LineService: Send + Sync {
    /// Handles one request line, eventually answering through `done`.
    fn submit(&self, line: String, done: Completion);

    /// The response line for a request that exceeded `limit` bytes, or
    /// `None` to drop it silently.
    fn oversized(&self, limit: usize) -> Option<String> {
        let _ = limit;
        None
    }

    /// The parting line for a connection rejected because `active`
    /// connections are already open, or `None` to close silently.
    fn over_capacity(&self, active: usize) -> Option<String> {
        let _ = active;
        None
    }

    /// How many submissions may be in flight before the reactor pauses
    /// reading. Must be at least 1; return the job-queue capacity when the
    /// service dispatches to a bounded pool whose `submit` blocks.
    fn capacity_hint(&self) -> usize {
        usize::MAX
    }
}

/// Where completed responses are parked until the event loop collects
/// them, plus the wakeup that tells it to look.
pub(crate) struct CompletionSink {
    pub(crate) queue: Mutex<Vec<(u64, Option<String>)>>,
    /// Wakes the event loop (an eventfd write on Linux).
    pub(crate) waker: Box<dyn Fn() + Send + Sync>,
    pub(crate) shutdown: AtomicBool,
}

impl CompletionSink {
    pub(crate) fn push(&self, token: u64, response: Option<String>) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((token, response));
        (self.waker)();
    }
}

/// The write-half of one request: calling [`send`](Completion::send)
/// delivers the response line to the reactor, which routes it back to the
/// right connection. Dropping a `Completion` unanswered still releases the
/// request slot (the connection simply gets no response line), so a
/// panicking worker can never wedge a connection.
pub struct Completion {
    pub(crate) sink: Arc<CompletionSink>,
    pub(crate) token: u64,
    pub(crate) sent: bool,
}

impl Completion {
    /// Delivers the response (`None` emits nothing, like a blank line).
    pub fn send(mut self, response: Option<String>) {
        self.sent = true;
        self.sink.push(self.token, response);
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if !self.sent {
            self.sink.push(self.token, None);
        }
    }
}

/// Asks a running reactor to shut down gracefully: stop accepting, let
/// in-flight requests finish and flush, then return. Cloneable and safe to
/// call from any thread (or a signal-ish context like a stdin watcher).
#[derive(Clone)]
pub struct ShutdownHandle {
    pub(crate) sink: Arc<CompletionSink>,
}

impl ShutdownHandle {
    /// Requests graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.sink.shutdown.store(true, Ordering::SeqCst);
        (self.sink.waker)();
    }
}

/// Tuning for one reactor run.
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Concurrent-connection ceiling; connection number `max + 1` is told
    /// [`LineService::over_capacity`] and closed.
    pub max_connections: usize,
    /// Longest accepted request line in bytes; longer lines are answered
    /// with [`LineService::oversized`] and discarded up to the newline.
    pub max_line_len: usize,
    /// Close connections with no client activity for this long (while no
    /// request of theirs is executing).
    pub idle_timeout: Option<Duration>,
    /// Close connections that leave responses unread for this long.
    pub write_timeout: Option<Duration>,
    /// How long graceful shutdown waits for in-flight work and unflushed
    /// responses before force-closing.
    pub drain_timeout: Duration,
    /// Treat end-of-file on stdin as a shutdown request (lets a parent
    /// process stop the server by closing a pipe — no signals needed).
    pub shutdown_on_stdin_close: bool,
    /// Timer-wheel granularity; timeouts fire within one tick of their
    /// deadline.
    pub timer_tick: Duration,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            max_connections: 65_536,
            max_line_len: 1 << 20,
            idle_timeout: None,
            write_timeout: None,
            drain_timeout: Duration::from_secs(10),
            shutdown_on_stdin_close: false,
            timer_tick: Duration::from_millis(100),
        }
    }
}

/// What one reactor run did, returned when the loop exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Request lines handed to the service.
    pub requests: u64,
    /// Response lines written back.
    pub responses: u64,
    /// Connections closed by the idle timeout.
    pub closed_idle: u64,
    /// Connections closed by the slow-reader write timeout.
    pub closed_write_timeout: u64,
    /// Connections rejected at the connection ceiling.
    pub rejected_over_capacity: u64,
    /// Request lines rejected for exceeding the length bound.
    pub oversized_lines: u64,
    /// Transient `accept` failures survived (`EMFILE`, `ECONNABORTED`, …).
    pub accept_retries: u64,
    /// True when shutdown drained every connection before the deadline.
    pub drained_cleanly: bool,
}

/// Failures of the event loop itself (never of individual connections —
/// those are handled by closing the connection).
#[derive(Debug)]
pub enum ReactorError {
    /// An epoll/listener-level I/O failure.
    Io(std::io::Error),
    /// The reactor is only implemented for Linux epoll on this build.
    Unsupported,
}

impl fmt::Display for ReactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReactorError::Io(e) => write!(f, "reactor I/O failure: {e}"),
            ReactorError::Unsupported => f.write_str("the epoll reactor requires Linux"),
        }
    }
}

impl std::error::Error for ReactorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReactorError::Io(e) => Some(e),
            ReactorError::Unsupported => None,
        }
    }
}

impl From<std::io::Error> for ReactorError {
    fn from(e: std::io::Error) -> Self {
        ReactorError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_completions_still_release_their_token() {
        let sink = Arc::new(CompletionSink {
            queue: Mutex::new(Vec::new()),
            waker: Box::new(|| {}),
            shutdown: AtomicBool::new(false),
        });
        let c = Completion {
            sink: Arc::clone(&sink),
            token: 9,
            sent: false,
        };
        drop(c);
        let c = Completion {
            sink: Arc::clone(&sink),
            token: 10,
            sent: false,
        };
        c.send(Some("hi".into()));
        let q = sink.queue.lock().unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0], (9, None));
        assert_eq!(q[1], (10, Some("hi".to_string())));
    }

    #[test]
    fn shutdown_handle_is_sticky_and_wakes() {
        use std::sync::atomic::AtomicUsize;
        let wakes = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&wakes);
        let sink = Arc::new(CompletionSink {
            queue: Mutex::new(Vec::new()),
            waker: Box::new(move || {
                w.fetch_add(1, Ordering::SeqCst);
            }),
            shutdown: AtomicBool::new(false),
        });
        let handle = ShutdownHandle {
            sink: Arc::clone(&sink),
        };
        assert!(!sink.shutdown.load(Ordering::SeqCst));
        handle.clone().shutdown();
        assert!(sink.shutdown.load(Ordering::SeqCst));
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
    }
}
