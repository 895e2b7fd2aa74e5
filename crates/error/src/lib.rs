//! The workspace-wide error type.
//!
//! Every fallible boundary of the workspace — the CLI subcommands, the
//! `ulm serve` / `ulm batch` NDJSON protocol, the umbrella crate's
//! quickstart — converges on [`UlmError`]: one enum with a `From` impl per
//! domain error, a human-readable `Display`, a `source()` chain, and a
//! **stable machine-readable code** ([`UlmError::code`]) that network
//! clients can match on without parsing prose.
//!
//! Codes are namespaced `domain/kind` (e.g. `mapping/coverage`,
//! `mapper/no-legal-mapping`, `request/invalid`) and are part of the
//! serve-protocol contract: they never change meaning once shipped.
//!
//! ```
//! use ulm_error::UlmError;
//! use ulm_mapper::MapperError;
//!
//! let e: UlmError = MapperError::NoLegalMapping { tried: 42 }.into();
//! assert_eq!(e.code(), "mapper/no-legal-mapping");
//! assert!(e.to_string().contains("42"));
//! ```

use std::fmt;

use ulm_arch::archdesc::ArchDescError;
use ulm_mapper::MapperError;
use ulm_mapping::{FuseError, MappingError};
use ulm_model::{CalibrateError, KnobError, SurrogateError};
use ulm_network::NetworkError;
use ulm_periodic::WindowError;
use ulm_reactor::ReactorError;
use ulm_sim::ScheduleTooLarge;
use ulm_workload::netdesc::NetDescError;

/// How a persisted cache log failed validation. Carried by
/// [`UlmError::CacheCorrupt`]; each kind maps to its own stable code so
/// operators can distinguish "wrong file" from "torn tail".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCorruptKind {
    /// The file does not start with the cache-log magic — it is not a
    /// cache log (or is from an incompatible future version).
    BadMagic,
    /// A record's checksum did not match its bytes.
    BadChecksum,
    /// The file ended mid-record (torn final write).
    Truncated,
    /// A checksummed record decoded to an unusable payload.
    BadPayload,
}

/// The workspace error: every domain failure, one enum, one stable code.
#[derive(Debug)]
pub enum UlmError {
    /// A mapping failed validation against layer + architecture.
    Mapping(MappingError),
    /// A fused segment failed validation against network + architecture.
    Fuse(FuseError),
    /// The mapping search exhausted its space without a legal mapping.
    Mapper(MapperError),
    /// A whole-network evaluation failed on one of its layers.
    Network(NetworkError),
    /// A periodic window was constructed with impossible parameters.
    Window(WindowError),
    /// The simulator refused to enumerate an impractically large schedule.
    Schedule(ScheduleTooLarge),
    /// An architecture description failed to parse or validate.
    ArchDesc(ArchDescError),
    /// A network description failed to parse or validate.
    NetDesc(NetDescError),
    /// A malformed request reached a service boundary (bad JSON shape,
    /// unknown field value, missing required key).
    InvalidRequest(String),
    /// A request line exceeded the serve tier's length bound and was
    /// discarded without being parsed.
    TooLarge {
        /// The configured bound, in bytes.
        limit: usize,
    },
    /// A connection was rejected because the server is at its
    /// concurrent-connection ceiling.
    OverCapacity {
        /// Connections active when the rejection happened.
        active: usize,
    },
    /// The event-driven serve tier failed (or is unsupported here).
    Reactor(ReactorError),
    /// A persisted cache log failed validation at `offset`.
    CacheCorrupt {
        /// Byte offset where validation stopped trusting the file.
        offset: u64,
        /// What exactly failed.
        kind: CacheCorruptKind,
    },
    /// A knob override (`--set mem.gb.bw=2x` / serve `whatif`) named an
    /// unknown path or memory, or carried an unusable value.
    Knob(KnobError),
    /// Bandwidth calibration could not fit or apply its constants
    /// (bad measurements, unknown port, architecture mismatch).
    Calibrate(CalibrateError),
    /// A specialized surrogate model rejected a query (unsupported layer
    /// shape, bad ordering, infeasible workload dims).
    Surrogate(SurrogateError),
    /// Invalid configuration outside the request path: unknown presets,
    /// bad command-line values, unusable option combinations.
    Config(String),
    /// An I/O failure (reading descriptions, network sockets).
    Io(std::io::Error),
    /// A JSON serialization failure while producing output.
    Json(serde_json::Error),
    /// A request handler panicked. The serve tier catches the panic,
    /// keeps its worker alive and answers with this error.
    Panic {
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

/// The stable code of one fusion-validation failure. Shared between
/// [`UlmError::Fuse`] and fusion errors surfacing through
/// [`UlmError::Network`] so the code is boundary-independent.
fn fuse_code(e: &FuseError) -> &'static str {
    match e {
        FuseError::TooShort { .. } => "fuse/too-short",
        FuseError::UnknownLayer { .. } => "fuse/unknown-layer",
        FuseError::NotConsecutive { .. } => "fuse/not-consecutive",
        FuseError::UnknownMemory { .. } => "fuse/unknown-memory",
        FuseError::ShapeMismatch { .. } => "fuse/shape-mismatch",
        FuseError::NotInChain { .. } => "fuse/not-in-chain",
        FuseError::DoesNotFit { .. } => "fuse/does-not-fit",
    }
}

impl UlmError {
    /// Shorthand for [`UlmError::InvalidRequest`].
    pub fn invalid_request(msg: impl Into<String>) -> Self {
        UlmError::InvalidRequest(msg.into())
    }

    /// Shorthand for [`UlmError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        UlmError::Config(msg.into())
    }

    /// The stable machine-readable code, `domain/kind`.
    ///
    /// Codes are a protocol contract: `ulm serve` and `ulm batch` emit
    /// them verbatim in NDJSON error responses, so they are append-only —
    /// existing codes never change meaning.
    pub fn code(&self) -> &'static str {
        match self {
            UlmError::Mapping(e) => match e {
                MappingError::SpatialOverflow { .. } => "mapping/spatial-overflow",
                MappingError::LevelsMismatch { .. } => "mapping/levels-mismatch",
                MappingError::UnallocatedLoops { .. } => "mapping/unallocated-loops",
                MappingError::Coverage { .. } => "mapping/coverage",
                MappingError::CapacityExceeded { .. } => "mapping/capacity-exceeded",
                MappingError::InfeasibleLevel { .. } => "mapping/infeasible-level",
            },
            UlmError::Fuse(e) => fuse_code(e),
            UlmError::Mapper(e) => match e {
                MapperError::NoLegalMapping { .. } => "mapper/no-legal-mapping",
                MapperError::TooManySamples { .. } => "mapper/too-many-samples",
            },
            UlmError::Network(e) => match e {
                // An over-limit sample count is the request's fault, not
                // the layer's, on every path it reaches the mapper by.
                NetworkError::LayerUnmappable {
                    source: MapperError::TooManySamples { .. },
                    ..
                } => "mapper/too-many-samples",
                NetworkError::LayerUnmappable { .. } => "network/layer-unmappable",
                // Fusion rejections carry the fuse/* code no matter which
                // boundary they crossed to get here.
                NetworkError::BadFusion { source } => fuse_code(source),
            },
            UlmError::Window(e) => match e {
                WindowError::BadPeriod(..) => "window/bad-period",
                WindowError::BadInterval { .. } => "window/bad-interval",
            },
            UlmError::Schedule(_) => "sim/schedule-too-large",
            UlmError::ArchDesc(e) => match e {
                ArchDescError::Json(_) => "arch/bad-json",
                ArchDescError::UnknownToken { .. } => "arch/unknown-token",
                ArchDescError::UnknownMemory { .. } => "arch/unknown-memory",
                ArchDescError::Arch(_) => "arch/invalid",
            },
            UlmError::NetDesc(e) => match e {
                NetDescError::Json(_) => "net/bad-json",
                NetDescError::UnknownKind { .. } => "net/unknown-kind",
                NetDescError::BadKvOperand { .. } => "net/bad-kv-operand",
            },
            UlmError::InvalidRequest(_) => "request/invalid",
            UlmError::TooLarge { .. } => "request/too-large",
            UlmError::OverCapacity { .. } => "serve/over-capacity",
            UlmError::Reactor(ReactorError::Io(_)) => "reactor/io",
            UlmError::Reactor(ReactorError::Unsupported) => "reactor/unsupported",
            UlmError::CacheCorrupt { kind, .. } => match kind {
                CacheCorruptKind::BadMagic => "cache/bad-magic",
                CacheCorruptKind::BadChecksum => "cache/bad-checksum",
                CacheCorruptKind::Truncated => "cache/truncated",
                CacheCorruptKind::BadPayload => "cache/bad-payload",
            },
            UlmError::Knob(e) => match e {
                KnobError::UnknownPath { .. } => "knob/unknown-path",
                KnobError::UnknownMemory { .. } => "knob/unknown-memory",
                KnobError::BadValue { .. } => "knob/bad-value",
                KnobError::InvalidValue { .. } => "knob/invalid-value",
                KnobError::OutOfRange { .. } => "knob/out-of-range",
            },
            UlmError::Calibrate(e) => match e {
                CalibrateError::NoSamples => "calibrate/no-samples",
                CalibrateError::UnknownMemory { .. } => "calibrate/unknown-memory",
                CalibrateError::BadPort { .. } => "calibrate/bad-port",
                CalibrateError::BadCsv { .. } => "calibrate/bad-csv",
                CalibrateError::ArchMismatch { .. } => "calibrate/arch-mismatch",
            },
            UlmError::Surrogate(e) => match e {
                SurrogateError::UnsupportedLayer { .. } => "surrogate/unsupported-layer",
                SurrogateError::BadOrdering { .. } => "surrogate/bad-ordering",
                SurrogateError::InvalidDims { .. } => "surrogate/invalid-dims",
                SurrogateError::Infeasible { .. } => "surrogate/infeasible",
                SurrogateError::InvalidMapping { .. } => "surrogate/invalid-mapping",
            },
            UlmError::Config(_) => "config/invalid",
            UlmError::Io(_) => "io/error",
            UlmError::Json(_) => "json/error",
            UlmError::Panic { .. } => "internal/panic",
        }
    }
}

impl fmt::Display for UlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UlmError::Mapping(e) => write!(f, "illegal mapping: {e}"),
            UlmError::Fuse(e) => write!(f, "invalid fused segment: {e}"),
            UlmError::Mapper(e) => e.fmt(f),
            UlmError::Network(e) => e.fmt(f),
            UlmError::Window(e) => e.fmt(f),
            UlmError::Schedule(e) => e.fmt(f),
            UlmError::ArchDesc(e) => e.fmt(f),
            UlmError::NetDesc(e) => e.fmt(f),
            UlmError::InvalidRequest(msg) => f.write_str(msg),
            UlmError::TooLarge { limit } => {
                write!(f, "request line exceeds the {limit}-byte bound")
            }
            UlmError::OverCapacity { active } => {
                write!(f, "server at capacity ({active} connections active)")
            }
            UlmError::Reactor(e) => e.fmt(f),
            UlmError::CacheCorrupt { offset, kind } => {
                let what = match kind {
                    CacheCorruptKind::BadMagic => "not a cache log (bad magic)",
                    CacheCorruptKind::BadChecksum => "record checksum mismatch",
                    CacheCorruptKind::Truncated => "file ends mid-record",
                    CacheCorruptKind::BadPayload => "record payload undecodable",
                };
                write!(f, "cache log corrupt at byte {offset}: {what}")
            }
            UlmError::Knob(e) => write!(f, "invalid knob override: {e}"),
            UlmError::Calibrate(e) => write!(f, "calibration failed: {e}"),
            UlmError::Surrogate(e) => write!(f, "surrogate query rejected: {e}"),
            UlmError::Config(msg) => f.write_str(msg),
            UlmError::Io(e) => e.fmt(f),
            UlmError::Json(e) => e.fmt(f),
            UlmError::Panic { message } => write!(f, "request handler panicked: {message}"),
        }
    }
}

impl std::error::Error for UlmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UlmError::Mapping(e) => Some(e),
            UlmError::Fuse(e) => Some(e),
            UlmError::Mapper(e) => Some(e),
            UlmError::Network(e) => Some(e),
            UlmError::Window(e) => Some(e),
            UlmError::Schedule(e) => Some(e),
            UlmError::ArchDesc(e) => Some(e),
            UlmError::NetDesc(e) => Some(e),
            UlmError::Io(e) => Some(e),
            UlmError::Json(e) => Some(e),
            UlmError::Reactor(e) => Some(e),
            UlmError::Knob(e) => Some(e),
            UlmError::Calibrate(e) => Some(e),
            UlmError::Surrogate(e) => Some(e),
            UlmError::InvalidRequest(_)
            | UlmError::Config(_)
            | UlmError::TooLarge { .. }
            | UlmError::OverCapacity { .. }
            | UlmError::CacheCorrupt { .. }
            | UlmError::Panic { .. } => None,
        }
    }
}

impl From<ReactorError> for UlmError {
    fn from(e: ReactorError) -> Self {
        UlmError::Reactor(e)
    }
}

impl From<MappingError> for UlmError {
    fn from(e: MappingError) -> Self {
        UlmError::Mapping(e)
    }
}

impl From<FuseError> for UlmError {
    fn from(e: FuseError) -> Self {
        UlmError::Fuse(e)
    }
}

impl From<MapperError> for UlmError {
    fn from(e: MapperError) -> Self {
        UlmError::Mapper(e)
    }
}

impl From<NetworkError> for UlmError {
    fn from(e: NetworkError) -> Self {
        UlmError::Network(e)
    }
}

impl From<WindowError> for UlmError {
    fn from(e: WindowError) -> Self {
        UlmError::Window(e)
    }
}

impl From<ScheduleTooLarge> for UlmError {
    fn from(e: ScheduleTooLarge) -> Self {
        UlmError::Schedule(e)
    }
}

impl From<ArchDescError> for UlmError {
    fn from(e: ArchDescError) -> Self {
        UlmError::ArchDesc(e)
    }
}

impl From<NetDescError> for UlmError {
    fn from(e: NetDescError) -> Self {
        UlmError::NetDesc(e)
    }
}

impl From<std::io::Error> for UlmError {
    fn from(e: std::io::Error) -> Self {
        UlmError::Io(e)
    }
}

impl From<serde_json::Error> for UlmError {
    fn from(e: serde_json::Error) -> Self {
        UlmError::Json(e)
    }
}

impl From<KnobError> for UlmError {
    fn from(e: KnobError) -> Self {
        UlmError::Knob(e)
    }
}

impl From<CalibrateError> for UlmError {
    fn from(e: CalibrateError) -> Self {
        UlmError::Calibrate(e)
    }
}

impl From<SurrogateError> for UlmError {
    fn from(e: SurrogateError) -> Self {
        UlmError::Surrogate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_namespaced() {
        let cases: Vec<(UlmError, &str)> = vec![
            (
                MappingError::SpatialOverflow {
                    product: 64,
                    macs: 16,
                }
                .into(),
                "mapping/spatial-overflow",
            ),
            (
                MapperError::NoLegalMapping { tried: 3 }.into(),
                "mapper/no-legal-mapping",
            ),
            (
                NetworkError::LayerUnmappable {
                    layer: "l0".into(),
                    source: MapperError::NoLegalMapping { tried: 1 },
                }
                .into(),
                "network/layer-unmappable",
            ),
            (
                MapperError::TooManySamples { samples: 1 << 40 }.into(),
                "mapper/too-many-samples",
            ),
            (
                NetworkError::LayerUnmappable {
                    layer: "l0".into(),
                    source: MapperError::TooManySamples { samples: 1 << 40 },
                }
                .into(),
                "mapper/too-many-samples",
            ),
            (WindowError::BadPeriod(0.0).into(), "window/bad-period"),
            (
                ScheduleTooLarge {
                    transfers: 10,
                    cap: 5,
                }
                .into(),
                "sim/schedule-too-large",
            ),
            (
                UlmError::invalid_request("kind `frobnicate` unknown"),
                "request/invalid",
            ),
            (UlmError::config("unknown arch `x`"), "config/invalid"),
            (UlmError::TooLarge { limit: 1024 }, "request/too-large"),
            (UlmError::OverCapacity { active: 9 }, "serve/over-capacity"),
            (
                UlmError::Panic {
                    message: "index out of bounds".into(),
                },
                "internal/panic",
            ),
            (ReactorError::Unsupported.into(), "reactor/unsupported"),
            (
                UlmError::CacheCorrupt {
                    offset: 40,
                    kind: CacheCorruptKind::BadChecksum,
                },
                "cache/bad-checksum",
            ),
            (
                UlmError::CacheCorrupt {
                    offset: 0,
                    kind: CacheCorruptKind::BadMagic,
                },
                "cache/bad-magic",
            ),
            (
                UlmError::CacheCorrupt {
                    offset: 99,
                    kind: CacheCorruptKind::Truncated,
                },
                "cache/truncated",
            ),
            (
                KnobError::UnknownPath {
                    path: "mem.gb.volume".into(),
                }
                .into(),
                "knob/unknown-path",
            ),
            (
                KnobError::UnknownMemory {
                    name: "gbx".into(),
                    known: vec!["GB".into()],
                }
                .into(),
                "knob/unknown-memory",
            ),
            (
                KnobError::BadValue {
                    over: "mem.gb.bw=huge".into(),
                }
                .into(),
                "knob/bad-value",
            ),
            (
                KnobError::InvalidValue {
                    over: "mem.gb.bw=0".into(),
                }
                .into(),
                "knob/invalid-value",
            ),
            (
                KnobError::OutOfRange {
                    over: "mem.gb.size=1e30x".into(),
                }
                .into(),
                "knob/out-of-range",
            ),
            (FuseError::TooShort { len: 1 }.into(), "fuse/too-short"),
            (
                NetworkError::BadFusion {
                    source: FuseError::TooShort { len: 0 },
                }
                .into(),
                "fuse/too-short",
            ),
            (
                FuseError::UnknownLayer { layer: "qk".into() }.into(),
                "fuse/unknown-layer",
            ),
            (
                FuseError::NotConsecutive {
                    producer: "a".into(),
                    consumer: "c".into(),
                }
                .into(),
                "fuse/not-consecutive",
            ),
            (
                FuseError::UnknownMemory { mem: "HBM3".into() }.into(),
                "fuse/unknown-memory",
            ),
            (
                FuseError::ShapeMismatch {
                    producer: "a".into(),
                    consumer: "b".into(),
                    produced: 32,
                    consumed: 64,
                }
                .into(),
                "fuse/shape-mismatch",
            ),
            (
                FuseError::NotInChain {
                    layer: "qk".into(),
                    operand: ulm_workload::Operand::I,
                    mem: "Acc".into(),
                }
                .into(),
                "fuse/not-in-chain",
            ),
            (
                FuseError::DoesNotFit {
                    mem: "LB".into(),
                    needed_bits: 2048,
                    capacity_bits: 1024,
                }
                .into(),
                "fuse/does-not-fit",
            ),
            (CalibrateError::NoSamples.into(), "calibrate/no-samples"),
            (
                CalibrateError::UnknownMemory { mem: "HBM3".into() }.into(),
                "calibrate/unknown-memory",
            ),
            (
                CalibrateError::BadPort {
                    mem: "GB".into(),
                    port: 9,
                }
                .into(),
                "calibrate/bad-port",
            ),
            (
                CalibrateError::BadCsv {
                    line: 3,
                    reason: "expected 7 fields".into(),
                }
                .into(),
                "calibrate/bad-csv",
            ),
            (
                CalibrateError::ArchMismatch {
                    expected: "eyeriss".into(),
                    got: "tpu".into(),
                }
                .into(),
                "calibrate/arch-mismatch",
            ),
            (
                SurrogateError::UnsupportedLayer {
                    layer: "conv".into(),
                }
                .into(),
                "surrogate/unsupported-layer",
            ),
            (
                SurrogateError::BadOrdering {
                    ordering: vec![ulm_workload::Dim::B],
                }
                .into(),
                "surrogate/bad-ordering",
            ),
            (
                SurrogateError::InvalidDims { dims: (0, 1, 1) }.into(),
                "surrogate/invalid-dims",
            ),
            (
                SurrogateError::Infeasible { dims: (1, 2, 3) }.into(),
                "surrogate/infeasible",
            ),
            (
                SurrogateError::InvalidMapping { dims: (4, 5, 6) }.into(),
                "surrogate/invalid-mapping",
            ),
        ];
        for (e, code) in &cases {
            assert_eq!(e.code(), *code);
            assert!(
                code.contains('/'),
                "codes are namespaced domain/kind: {code}"
            );
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chain_reaches_the_domain_error() {
        use std::error::Error as _;
        let e: UlmError = MapperError::NoLegalMapping { tried: 7 }.into();
        assert!(e.source().is_some());
    }
}
