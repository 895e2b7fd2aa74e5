//! `ulm-reactor` — a dependency-free, event-driven TCP serving tier.
//!
//! One thread multiplexes every connection through Linux `epoll`:
//! nonblocking sockets, per-connection read/write state machines for a
//! line-oriented (NDJSON) protocol, a hashed timer wheel for idle and
//! slow-reader timeouts, a connection ceiling, and graceful shutdown that
//! drains in-flight work before returning. The protocol engine stays
//! outside the crate behind the [`LineService`] trait: the reactor hands it
//! complete request lines and receives response lines back through
//! [`Completion`] handles. [`extract_line`] is its line framing, public so
//! that a service can frame other byte streams (stdin, in memory) the
//! same way.
//!
//! Backpressure is structural rather than cooperative:
//!
//! - at most one request per connection is in flight, so a connection's
//!   responses always come back in request order;
//! - read interest is dropped while a connection has a request executing
//!   or too many unflushed response bytes, so slow readers stall only
//!   themselves;
//! - globally at most [`LineService::capacity_hint`] submissions are
//!   outstanding, so a service backed by a bounded worker pool is never
//!   asked to block the event loop — surplus lines are parked and fed as
//!   completions drain.
//!
//! Only the event loop itself is Linux-specific. On other platforms
//! [`Reactor::new`] returns [`ReactorError::Unsupported`]; there is no
//! fallback transport.

pub mod timer;

mod api;
mod conn;

pub use api::{
    Completion, LineService, ReactorError, ReactorOptions, ReactorSummary, ShutdownHandle,
};
pub use conn::{extract_line, Extracted};

#[cfg(target_os = "linux")]
mod sys;

#[cfg(target_os = "linux")]
mod reactor;

#[cfg(target_os = "linux")]
pub use reactor::Reactor;

#[cfg(not(target_os = "linux"))]
mod stub {
    use super::*;
    use std::net::{SocketAddr, TcpListener};

    /// Stub reactor for non-Linux builds; construction always fails with
    /// [`ReactorError::Unsupported`].
    pub struct Reactor {
        never: std::convert::Infallible,
    }

    impl Reactor {
        /// Always returns [`ReactorError::Unsupported`] on this platform.
        pub fn new(_listener: TcpListener, _opts: ReactorOptions) -> Result<Self, ReactorError> {
            Err(ReactorError::Unsupported)
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
            match self.never {}
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn shutdown_handle(&self) -> ShutdownHandle {
            match self.never {}
        }

        /// Unreachable: the stub cannot be constructed.
        pub fn run<S: LineService>(self, _service: &S) -> Result<ReactorSummary, ReactorError> {
            match self.never {}
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub use stub::Reactor;
