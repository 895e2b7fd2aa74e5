//! Knob overrides for interactive what-if evaluation.
//!
//! A knob path names one architecture parameter in dotted form:
//!
//! * `mem.<name>.size` — the memory's physical capacity in bits;
//! * `mem.<name>.bw` — every port bandwidth of the memory;
//! * `mem.<name>.read_bw` / `mem.<name>.write_bw` — only the ports
//!   serving that direction.
//!
//! A knob value is either a scale (`2x`, `0.5x`) or an absolute number
//! of bits (for `size`) / bits-per-cycle (for the bandwidth knobs).
//! Memory names match case-insensitively (`mem.gb.size` finds `GB`).
//!
//! [`apply_overrides`] turns a base [`Architecture`] plus a list of
//! `path=value` strings into the modified architecture *and* the
//! [`InputDelta`] separating the two — exactly what
//! [`rebuild_dirty`](crate::LoweredLayer::rebuild_dirty) needs to
//! re-evaluate incrementally.

use crate::delta::InputDelta;
use std::fmt;
use ulm_arch::{Architecture, PortDir, PortUse};

/// A parsed knob value: a multiplicative scale or an absolute setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnobValue {
    /// Multiply the current value (`"2x"`, `"0.5x"`).
    Scale(f64),
    /// Replace the current value (`"2048"`).
    Absolute(u64),
}

impl KnobValue {
    /// Applies the knob to `current`, refusing results the setting
    /// cannot represent: an unchecked `as u64` cast would silently
    /// saturate huge scaled values (and map NaN to 0), turning a typo
    /// like `1e30x` into a wrong-but-plausible architecture.
    fn apply(self, current: u64) -> Option<u64> {
        match self {
            KnobValue::Scale(s) => {
                let scaled = (current as f64 * s).round();
                // `u64::MAX as f64` rounds up past `u64::MAX`, so the
                // comparison must be strict to keep the cast lossless.
                if !scaled.is_finite() || scaled < 0.0 || scaled >= u64::MAX as f64 {
                    None
                } else {
                    Some(scaled as u64)
                }
            }
            KnobValue::Absolute(v) => Some(v),
        }
    }
}

/// Why a knob override was rejected. Converted into the workspace
/// `UlmError` (codes `knob/*`) at the CLI and serve boundaries.
#[derive(Debug, Clone, PartialEq)]
pub enum KnobError {
    /// The path is not of a recognized `mem.<name>.<field>` form.
    UnknownPath {
        /// The offending path.
        path: String,
    },
    /// The path names a memory absent from the hierarchy.
    UnknownMemory {
        /// The memory name that failed to resolve.
        name: String,
        /// The names that exist, for the error message.
        known: Vec<String>,
    },
    /// The value failed to parse as a scale or an absolute number.
    BadValue {
        /// The offending override, verbatim.
        over: String,
    },
    /// The value parsed but produces an unusable setting (zero or
    /// non-finite capacity/bandwidth).
    InvalidValue {
        /// The offending override, verbatim.
        over: String,
    },
    /// The scaled result cannot be represented as a `u64` setting
    /// (overflow past `u64::MAX` or a non-finite product).
    OutOfRange {
        /// The offending override, verbatim.
        over: String,
    },
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::UnknownPath { path } => write!(
                f,
                "unknown knob path `{path}` (expected mem.<name>.size|bw|read_bw|write_bw)"
            ),
            KnobError::UnknownMemory { name, known } => {
                write!(f, "unknown memory `{name}` (known: {})", known.join(", "))
            }
            KnobError::BadValue { over } => write!(
                f,
                "bad knob value in `{over}` (expected a scale like `2x` or an absolute integer)"
            ),
            KnobError::InvalidValue { over } => {
                write!(f, "override `{over}` produces a zero or non-finite setting")
            }
            KnobError::OutOfRange { over } => {
                write!(
                    f,
                    "override `{over}` scales past the representable u64 range"
                )
            }
        }
    }
}

impl std::error::Error for KnobError {}

/// One parsed override: the field it targets and the new value.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobOverride {
    /// Index of the target memory in the hierarchy.
    mem: usize,
    field: KnobField,
    value: KnobValue,
    /// The override verbatim, for error messages.
    over: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KnobField {
    Size,
    Bw,
    ReadBw,
    WriteBw,
}

impl KnobField {
    fn touches(self, dir: PortDir) -> bool {
        match self {
            KnobField::Size => false,
            KnobField::Bw => true,
            KnobField::ReadBw => dir.supports(PortUse::ReadOut),
            KnobField::WriteBw => dir.supports(PortUse::WriteIn),
        }
    }
}

fn parse_value(s: &str, over: &str) -> Result<KnobValue, KnobError> {
    let bad = || KnobError::BadValue { over: over.into() };
    if let Some(scale) = s.strip_suffix(['x', 'X']) {
        let f: f64 = scale.parse().map_err(|_| bad())?;
        if !f.is_finite() || f <= 0.0 {
            return Err(KnobError::InvalidValue { over: over.into() });
        }
        Ok(KnobValue::Scale(f))
    } else {
        Ok(KnobValue::Absolute(s.parse().map_err(|_| bad())?))
    }
}

/// Parses one `mem.<name>.<field>=<value>` override against `arch`.
fn parse_override(arch: &Architecture, over: &str) -> Result<KnobOverride, KnobError> {
    let unknown = || KnobError::UnknownPath { path: over.into() };
    let (path, value) = over.split_once('=').ok_or_else(unknown)?;
    let mut parts = path.split('.');
    let (ns, name, field) = (
        parts.next().ok_or_else(unknown)?,
        parts.next().ok_or_else(unknown)?,
        parts.next().ok_or_else(unknown)?,
    );
    if ns != "mem" || parts.next().is_some() {
        return Err(KnobError::UnknownPath { path: path.into() });
    }
    let field = match field {
        "size" => KnobField::Size,
        "bw" => KnobField::Bw,
        "read_bw" => KnobField::ReadBw,
        "write_bw" => KnobField::WriteBw,
        _ => return Err(KnobError::UnknownPath { path: path.into() }),
    };
    let mems = arch.hierarchy().memories();
    let mem = mems
        .iter()
        .position(|m| m.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| KnobError::UnknownMemory {
            name: name.into(),
            known: mems.iter().map(|m| m.name().to_string()).collect(),
        })?;
    let value = parse_value(value.trim(), over)?;
    Ok(KnobOverride {
        mem,
        field,
        value,
        over: over.into(),
    })
}

/// Applies `path=value` overrides to a copy of `arch`, returning the
/// modified architecture and the [`InputDelta`] between the two.
///
/// Overrides are parsed up front and applied to a private copy, so a
/// failure anywhere in the list never exposes half-applied state.
///
/// # Errors
///
/// Returns a [`KnobError`] for unknown paths or memories, unparsable
/// values, and values that would zero out a capacity or bandwidth.
pub fn apply_overrides<S: AsRef<str>>(
    arch: &Architecture,
    overrides: &[S],
) -> Result<(Architecture, InputDelta), KnobError> {
    let parsed: Vec<KnobOverride> = overrides
        .iter()
        .map(|s| parse_override(arch, s.as_ref()))
        .collect::<Result<_, _>>()?;

    let mut modified = arch.clone();
    for o in &parsed {
        let invalid = || KnobError::InvalidValue {
            over: o.over.clone(),
        };
        let out_of_range = || KnobError::OutOfRange {
            over: o.over.clone(),
        };
        let id = ulm_arch::MemoryId(o.mem);
        let h = modified.hierarchy();
        match o.field {
            KnobField::Size => {
                let next = o
                    .value
                    .apply(h.mem(id).capacity_bits())
                    .ok_or_else(out_of_range)?;
                if next == 0 {
                    return Err(invalid());
                }
                modified.hierarchy_mut().mem_mut(id).set_capacity_bits(next);
            }
            KnobField::Bw | KnobField::ReadBw | KnobField::WriteBw => {
                let ports: Vec<(usize, u64)> = h
                    .mem(id)
                    .ports()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| o.field.touches(p.dir))
                    .map(|(i, p)| (i, p.bw_bits))
                    .collect();
                if ports.is_empty() {
                    // e.g. write_bw on a read-only memory.
                    return Err(invalid());
                }
                let next: Vec<(usize, u64)> = ports
                    .iter()
                    .map(|&(i, bw)| Ok((i, o.value.apply(bw).ok_or_else(out_of_range)?)))
                    .collect::<Result<_, KnobError>>()?;
                if next.iter().any(|&(_, bw)| bw == 0) {
                    return Err(invalid());
                }
                let mem = modified.hierarchy_mut().mem_mut(id);
                for (i, bw) in next {
                    mem.set_port_bandwidth(i, bw);
                }
            }
        }
    }
    let delta = InputDelta::between(arch, &modified);
    Ok((modified, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;

    fn base() -> Architecture {
        presets::case_study_chip(128)
    }

    #[test]
    fn scale_and_absolute_values() {
        let arch = base();
        let gb = arch.hierarchy().find("GB").unwrap();
        let cap = arch.hierarchy().mem(gb).capacity_bits();

        let (doubled, d) = apply_overrides(&arch, &["mem.gb.size=2x"]).unwrap();
        assert_eq!(doubled.hierarchy().mem(gb).capacity_bits(), cap * 2);
        assert_eq!(d, InputDelta::CAPACITY);

        let (abs, d) = apply_overrides(&arch, &["mem.GB.size=4096"]).unwrap();
        assert_eq!(abs.hierarchy().mem(gb).capacity_bits(), 4096);
        assert_eq!(d, InputDelta::CAPACITY);
    }

    #[test]
    fn bandwidth_overrides_are_bandwidth_deltas() {
        let arch = base();
        let (bw2, d) = apply_overrides(&arch, &["mem.gb.bw=2x"]).unwrap();
        assert_eq!(d, InputDelta::BANDWIDTH);
        let gb = arch.hierarchy().find("GB").unwrap();
        for (p, q) in arch
            .hierarchy()
            .mem(gb)
            .ports()
            .iter()
            .zip(bw2.hierarchy().mem(gb).ports())
        {
            assert_eq!(q.bw_bits, p.bw_bits * 2);
            assert_eq!(q.dir, p.dir);
        }
    }

    #[test]
    fn directional_bandwidth_touches_matching_ports_only() {
        let arch = base();
        let gb = arch.hierarchy().find("GB").unwrap();
        let (m, d) = apply_overrides(&arch, &["mem.gb.read_bw=2x"]).unwrap();
        assert_eq!(d, InputDelta::BANDWIDTH);
        for (p, q) in arch
            .hierarchy()
            .mem(gb)
            .ports()
            .iter()
            .zip(m.hierarchy().mem(gb).ports())
        {
            if p.dir.supports(PortUse::ReadOut) {
                assert_eq!(q.bw_bits, p.bw_bits * 2);
            } else {
                assert_eq!(q.bw_bits, p.bw_bits);
            }
        }
    }

    #[test]
    fn identity_override_is_an_empty_delta() {
        let (m, d) = apply_overrides(&base(), &["mem.gb.bw=1x"]).unwrap();
        assert!(d.is_empty());
        assert_eq!(m, base());
    }

    #[test]
    fn errors_are_typed() {
        let arch = base();
        assert!(matches!(
            apply_overrides(&arch, &["gb.size=2x"]),
            Err(KnobError::UnknownPath { .. })
        ));
        assert!(matches!(
            apply_overrides(&arch, &["mem.gb.volume=2x"]),
            Err(KnobError::UnknownPath { .. })
        ));
        assert!(matches!(
            apply_overrides(&arch, &["mem.nope.size=2x"]),
            Err(KnobError::UnknownMemory { .. })
        ));
        assert!(matches!(
            apply_overrides(&arch, &["mem.gb.size=huge"]),
            Err(KnobError::BadValue { .. })
        ));
        assert!(matches!(
            apply_overrides(&arch, &["mem.gb.size=0"]),
            Err(KnobError::InvalidValue { .. })
        ));
        assert!(matches!(
            apply_overrides(&arch, &["mem.gb.size=0.00000001x"]),
            Err(KnobError::InvalidValue { .. })
        ));
        // A bad override anywhere in the list leaves no half-applied
        // state (validated before mutation).
        assert!(apply_overrides(&arch, &["mem.gb.size=2x", "mem.gb.size=bad"]).is_err());
    }

    #[test]
    fn overflowing_scales_are_rejected_not_saturated() {
        let arch = base();
        // Scales whose product exceeds u64 must surface OutOfRange, not a
        // silently saturated capacity (the pre-fix behavior of `as u64`).
        for over in ["mem.gb.size=1e30x", "mem.gb.bw=1e300x"] {
            assert!(
                matches!(
                    apply_overrides(&arch, &[over]),
                    Err(KnobError::OutOfRange { .. })
                ),
                "{over} should be out of range"
            );
        }
        // Non-finite and non-positive scale factors are rejected at parse
        // time — they never reach the multiply.
        for over in [
            "mem.gb.size=NaNx",
            "mem.gb.size=infx",
            "mem.gb.size=-2x",
            "mem.gb.size=0x",
        ] {
            assert!(
                matches!(
                    apply_overrides(&arch, &[over]),
                    Err(KnobError::BadValue { .. }) | Err(KnobError::InvalidValue { .. })
                ),
                "{over} should be rejected before application"
            );
        }
        // A scale that stays in range still applies exactly.
        let (m, _) = apply_overrides(&arch, &["mem.gb.size=2x"]).unwrap();
        let gb = arch.hierarchy().find("GB").unwrap();
        assert_eq!(
            m.hierarchy().mem(gb).capacity_bits(),
            arch.hierarchy().mem(gb).capacity_bits() * 2
        );
    }
}
