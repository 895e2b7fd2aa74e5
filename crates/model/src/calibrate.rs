//! Calibration of the architecture's `RealBW` constants against
//! observed port activity.
//!
//! The paper's accuracy rests on per-port effective bandwidths; the
//! presets ship nominal values. This module fits them from data: for
//! every physical port, the model predicts the *traffic* it carries (the
//! `Σ data_bits × Z_stall` of the DTLs occupying it — an
//! architecture-independent workload quantity under the
//! [`Stage`](crate::Stage) read-set split), and an
//! observation supplies the port's measured busy cycles (from an
//! `ulm-sim` trace or an imported measurement CSV). A per-port
//! least-squares fit of `busy ≈ traffic / bw` over the training set
//! recovers the effective bandwidth:
//!
//! ```text
//! β̂ = Σ (traffic · busy) / Σ traffic²       bw = round(1 / β̂)
//! ```
//!
//! The resulting [`Calibration`] materializes into an ordinary
//! [`Architecture`] via [`Calibration::apply`] (the same knob path as
//! `whatif` overrides), so the calibrated constants flow into the
//! generic model and a [`SpecializedModel`](crate::surrogate::SpecializedModel)
//! alike — there is no second calibrated code path to keep in sync.
//! [`LayerResidual`]s report the per-training-layer busy-cycle error
//! that remains after the fit.

use crate::{InputDelta, LatencyModel, LoweredLayer};
use std::collections::BTreeMap;
use std::fmt;
use ulm_arch::{Architecture, MemoryId, PortId};
use ulm_mapping::MappedLayer;

/// Why calibration failed. Carried by `UlmError::Calibrate` with
/// `calibrate/*` codes.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrateError {
    /// The training set contained no usable observation.
    NoSamples,
    /// An observation named a memory the architecture does not have.
    UnknownMemory {
        /// The unknown memory name.
        mem: String,
    },
    /// An observation named a port index past the memory's port list.
    BadPort {
        /// The memory whose port list was exceeded.
        mem: String,
        /// The out-of-range port index.
        port: usize,
    },
    /// A measurement CSV line failed to parse.
    BadCsv {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A calibration was applied to an architecture it was not fitted
    /// for.
    ArchMismatch {
        /// The architecture the calibration was fitted against.
        expected: String,
        /// The architecture it was applied to.
        got: String,
    },
}

impl fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrateError::NoSamples => {
                f.write_str("calibration needs at least one port observation with traffic")
            }
            CalibrateError::UnknownMemory { mem } => {
                write!(f, "observation names unknown memory '{mem}'")
            }
            CalibrateError::BadPort { mem, port } => {
                write!(
                    f,
                    "observation names port {port} of '{mem}', which has fewer ports"
                )
            }
            CalibrateError::BadCsv { line, reason } => {
                write!(f, "measurement CSV line {line}: {reason}")
            }
            CalibrateError::ArchMismatch { expected, got } => write!(
                f,
                "calibration was fitted for architecture '{expected}', not '{got}'"
            ),
        }
    }
}

impl std::error::Error for CalibrateError {}

/// One observed port: measured busy cycles over a training layer's run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedBusy {
    /// Memory name (resolved against the architecture by name).
    pub mem: String,
    /// Port index within that memory.
    pub port: usize,
    /// Measured busy cycles.
    pub busy_cycles: f64,
}

/// One row of a measurement CSV:
/// `layer,b,k,c,mem,port,busy_cycles`.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementRow {
    /// Training layer name (groups rows into traces).
    pub layer: String,
    /// Workload dims of the training layer.
    pub dims: (u64, u64, u64),
    /// The observation.
    pub observed: ObservedBusy,
}

/// Parses a measurement CSV (`layer,b,k,c,mem,port,busy_cycles` per
/// line; `#` comments, blank lines and a literal header row are
/// skipped).
pub fn parse_measurements(text: &str) -> Result<Vec<MeasurementRow>, CalibrateError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("layer,") {
            continue;
        }
        let bad = |reason: &str| CalibrateError::BadCsv {
            line: idx + 1,
            reason: reason.to_string(),
        };
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 7 {
            return Err(bad("expected 7 fields: layer,b,k,c,mem,port,busy_cycles"));
        }
        let dim = |s: &str, what: &str| -> Result<u64, CalibrateError> {
            match s.parse::<u64>() {
                Ok(v) if v > 0 => Ok(v),
                _ => Err(bad(&format!(
                    "{what} must be a positive integer, got '{s}'"
                ))),
            }
        };
        let port = fields[5]
            .parse::<usize>()
            .map_err(|_| bad(&format!("port must be an integer, got '{}'", fields[5])))?;
        let busy = match fields[6].parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => v,
            _ => {
                return Err(bad(&format!(
                    "busy_cycles must be a non-negative number, got '{}'",
                    fields[6]
                )))
            }
        };
        out.push(MeasurementRow {
            layer: fields[0].to_string(),
            dims: (
                dim(fields[1], "b")?,
                dim(fields[2], "k")?,
                dim(fields[3], "c")?,
            ),
            observed: ObservedBusy {
                mem: fields[4].to_string(),
                port,
                busy_cycles: busy,
            },
        });
    }
    Ok(out)
}

/// One fitted port of a [`Calibration`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PortFit {
    /// Memory name.
    pub mem: String,
    /// Port index within the memory.
    pub port: usize,
    /// The fitted effective bandwidth (bits/cycle, ≥ 1).
    pub bw_bits: u64,
    /// The bandwidth the architecture carried before calibration.
    pub old_bw_bits: u64,
    /// Number of training observations behind the fit.
    pub samples: usize,
}

/// A fitted per-architecture constant set, serializable to JSON. Apply
/// with [`apply`](Self::apply) to obtain the calibrated architecture.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Calibration {
    /// Name of the architecture the fit is valid for.
    pub arch: String,
    /// Content-derived stable identifier (`cal-` + hash of the fits);
    /// serve puts it in `/stats` and the result-cache fingerprint.
    pub id: String,
    /// The fitted ports, in `(memory, port)` order.
    pub ports: Vec<PortFit>,
}

impl Calibration {
    /// Materializes the calibrated architecture: a clone of `arch` with
    /// every fitted port's bandwidth replaced, plus the
    /// [`InputDelta`] separating the two (for incremental re-lowering).
    /// Fails if `arch` is not the architecture the fit names.
    pub fn apply(&self, arch: &Architecture) -> Result<(Architecture, InputDelta), CalibrateError> {
        if arch.name() != self.arch {
            return Err(CalibrateError::ArchMismatch {
                expected: self.arch.clone(),
                got: arch.name().to_string(),
            });
        }
        let mut out = arch.clone();
        for fit in &self.ports {
            let id =
                out.hierarchy()
                    .find(&fit.mem)
                    .ok_or_else(|| CalibrateError::UnknownMemory {
                        mem: fit.mem.clone(),
                    })?;
            if fit.port >= out.hierarchy().mem(id).ports().len() {
                return Err(CalibrateError::BadPort {
                    mem: fit.mem.clone(),
                    port: fit.port,
                });
            }
            out.hierarchy_mut()
                .mem_mut(id)
                .set_port_bandwidth(fit.port, fit.bw_bits);
        }
        let delta = InputDelta::between(arch, &out);
        Ok((out, delta))
    }
}

/// The busy-cycle error left on one training layer after the fit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LayerResidual {
    /// Training layer name.
    pub layer: String,
    /// Observed total busy cycles (summed over the observed ports).
    pub observed: f64,
    /// The fitted model's prediction of the same total.
    pub predicted: f64,
    /// Signed relative error in percent (`0` when both sides are zero).
    pub error_pct: f64,
}

/// A finished fit: the constants plus the training-set residuals.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationFit {
    /// The fitted constant set.
    pub calibration: Calibration,
    /// Per-training-layer residuals, in trace order.
    pub residuals: Vec<LayerResidual>,
}

#[derive(Debug, Default, Clone, Copy)]
struct PortAcc {
    sum_traffic_busy: f64,
    sum_traffic_sq: f64,
    samples: usize,
}

#[derive(Debug)]
struct TraceRow {
    mem: MemoryId,
    port: PortId,
    traffic: f64,
    busy: f64,
}

/// Accumulates `(predicted traffic, observed busy)` pairs per physical
/// port across training layers, then least-squares-fits one effective
/// bandwidth per port.
#[derive(Debug)]
pub struct Calibrator<'a> {
    arch: &'a Architecture,
    model: LatencyModel,
    acc: BTreeMap<(MemoryId, PortId), PortAcc>,
    traces: Vec<(String, Vec<TraceRow>)>,
}

impl<'a> Calibrator<'a> {
    /// A calibrator for `arch`; `model` fixes the lowering options the
    /// traffic predictions are derived under.
    pub fn new(arch: &'a Architecture, model: LatencyModel) -> Self {
        Self {
            arch,
            model,
            acc: BTreeMap::new(),
            traces: Vec::new(),
        }
    }

    /// Adds one training layer: the model's per-port traffic under
    /// `view` paired with the observed busy cycles. Observed ports the
    /// model predicts no traffic for contribute nothing to the fit (but
    /// still count into the residual).
    pub fn add_trace(
        &mut self,
        view: &MappedLayer<'_>,
        observed: &[ObservedBusy],
    ) -> Result<(), CalibrateError> {
        let h = self.arch.hierarchy();
        let lowered = LoweredLayer::build(view, self.model.dtl_options());
        let mut traffic: BTreeMap<(MemoryId, PortId), f64> = BTreeMap::new();
        for d in lowered.dtls() {
            let weight = d.data_bits as f64 * d.z_stall as f64;
            for e in &d.endpoints {
                *traffic.entry((e.mem, e.port)).or_insert(0.0) += weight;
            }
        }
        let mut rows = Vec::with_capacity(observed.len());
        for o in observed {
            let mid = h
                .find(&o.mem)
                .ok_or_else(|| CalibrateError::UnknownMemory { mem: o.mem.clone() })?;
            if o.port >= h.mem(mid).ports().len() {
                return Err(CalibrateError::BadPort {
                    mem: o.mem.clone(),
                    port: o.port,
                });
            }
            let t = traffic.get(&(mid, o.port)).copied().unwrap_or(0.0);
            let a = self.acc.entry((mid, o.port)).or_default();
            a.sum_traffic_busy += t * o.busy_cycles;
            a.sum_traffic_sq += t * t;
            a.samples += 1;
            rows.push(TraceRow {
                mem: mid,
                port: o.port,
                traffic: t,
                busy: o.busy_cycles,
            });
        }
        self.traces.push((view.layer().name().to_string(), rows));
        Ok(())
    }

    /// Solves the per-port least squares and reports the constants plus
    /// the residuals they leave on the training set. Ports whose
    /// training traffic is all zero keep their nominal bandwidth (no
    /// constraint reaches them).
    pub fn fit(self) -> Result<CalibrationFit, CalibrateError> {
        let h = self.arch.hierarchy();
        let mut fitted: BTreeMap<(MemoryId, PortId), u64> = BTreeMap::new();
        let mut ports = Vec::new();
        for (&(mid, port), a) in &self.acc {
            let old = h.mem(mid).ports()[port].bw_bits;
            if a.sum_traffic_sq <= 0.0 || a.sum_traffic_busy <= 0.0 {
                continue;
            }
            let beta = a.sum_traffic_busy / a.sum_traffic_sq;
            let bw = (1.0 / beta).round().max(1.0) as u64;
            fitted.insert((mid, port), bw);
            ports.push(PortFit {
                mem: h.mem(mid).name().to_string(),
                port,
                bw_bits: bw,
                old_bw_bits: old,
                samples: a.samples,
            });
        }
        if ports.is_empty() {
            return Err(CalibrateError::NoSamples);
        }
        let residuals = self
            .traces
            .iter()
            .map(|(layer, rows)| {
                let observed: f64 = rows.iter().map(|r| r.busy).sum();
                let predicted: f64 = rows
                    .iter()
                    .map(|r| {
                        let bw = fitted
                            .get(&(r.mem, r.port))
                            .copied()
                            .unwrap_or_else(|| h.mem(r.mem).ports()[r.port].bw_bits);
                        r.traffic / bw as f64
                    })
                    .sum();
                let error_pct = if observed == 0.0 && predicted == 0.0 {
                    0.0
                } else if observed == 0.0 {
                    f64::INFINITY
                } else {
                    (predicted - observed) / observed * 100.0
                };
                LayerResidual {
                    layer: layer.clone(),
                    observed,
                    predicted,
                    error_pct,
                }
            })
            .collect();
        let calibration = Calibration {
            arch: self.arch.name().to_string(),
            id: stable_id(self.arch.name(), &ports),
            ports,
        };
        Ok(CalibrationFit {
            calibration,
            residuals,
        })
    }
}

/// A content-derived identifier: FNV-1a over the canonical rendering of
/// the fit, so identical constants always share an id and any change to
/// them produces a new one (serve keys its cache fingerprint on this).
fn stable_id(arch: &str, ports: &[PortFit]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(arch.as_bytes());
    for p in ports {
        eat(p.mem.as_bytes());
        eat(&(p.port as u64).to_le_bytes());
        eat(&p.bw_bits.to_le_bytes());
    }
    format!("cal-{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn training_set(arch: &Architecture) -> Vec<(Layer, Mapping)> {
        let spatial = vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)];
        [(64u64, 96u64, 640u64), (32, 48, 320), (8, 16, 64)]
            .iter()
            .enumerate()
            .map(|(i, &(b, k, c))| {
                let layer = Layer::matmul(format!("train{i}"), b, k, c, Precision::int8_out24());
                let stack = LoopStack::from_pairs(&[
                    (Dim::C, c / 2),
                    (Dim::B, b.div_ceil(8)),
                    (Dim::K, k.div_ceil(16)),
                ]);
                let mapping = Mapping::with_greedy_alloc(
                    arch,
                    &layer,
                    SpatialUnroll::new(spatial.clone()),
                    stack,
                )
                .unwrap();
                (layer, mapping)
            })
            .collect()
    }

    /// A perturbed twin of `arch`: every port bandwidth doubled or
    /// halved (alternating), the "true" chip the traces come from.
    fn perturb(arch: &Architecture) -> Architecture {
        let mut out = arch.clone();
        let n = out.hierarchy().memories().len();
        for m in 0..n {
            let id = ulm_arch::MemoryId(m);
            let ports = out.hierarchy().mem(id).ports().len();
            for p in 0..ports {
                let old = out.hierarchy().mem(id).ports()[p].bw_bits;
                let new = if (m + p) % 2 == 0 {
                    old * 2
                } else {
                    (old / 2).max(1)
                };
                out.hierarchy_mut().mem_mut(id).set_port_bandwidth(p, new);
            }
        }
        out
    }

    /// Synthesizes the observations the "true" chip would produce:
    /// per-port busy = predicted traffic / true bandwidth.
    fn synth_observed(
        truth: &Architecture,
        model: LatencyModel,
        view: &MappedLayer<'_>,
    ) -> Vec<ObservedBusy> {
        let h = truth.hierarchy();
        let lowered = LoweredLayer::build(view, model.dtl_options());
        let mut traffic: BTreeMap<(MemoryId, PortId), f64> = BTreeMap::new();
        for d in lowered.dtls() {
            let w = d.data_bits as f64 * d.z_stall as f64;
            for e in &d.endpoints {
                *traffic.entry((e.mem, e.port)).or_insert(0.0) += w;
            }
        }
        traffic
            .iter()
            .map(|(&(mid, port), &t)| ObservedBusy {
                mem: h.mem(mid).name().to_string(),
                port,
                busy_cycles: t / h.mem(mid).ports()[port].bw_bits as f64,
            })
            .collect()
    }

    #[test]
    fn round_trip_recovers_perturbed_bandwidths_exactly() {
        let nominal = presets::case_study_chip(128);
        let truth = perturb(&nominal);
        let model = LatencyModel::new();
        let training = training_set(&nominal);

        let mut cal = Calibrator::new(&nominal, model);
        for (layer, mapping) in &training {
            let view = MappedLayer::new(layer, &nominal, mapping).unwrap();
            let observed = synth_observed(&truth, model, &view);
            cal.add_trace(&view, &observed).unwrap();
        }
        let fit = cal.fit().unwrap();

        // Every fitted port recovers the true bandwidth exactly...
        let th = truth.hierarchy();
        for p in &fit.calibration.ports {
            let id = th.find(&p.mem).unwrap();
            assert_eq!(
                p.bw_bits,
                th.mem(id).ports()[p.port].bw_bits,
                "port {}/{} not recovered",
                p.mem,
                p.port
            );
        }
        // ...so the training-set residuals vanish.
        for r in &fit.residuals {
            assert!(
                r.error_pct.abs() < 1e-9,
                "{}: residual {}%",
                r.layer,
                r.error_pct
            );
        }

        // Applying the calibration reproduces the true chip's latency
        // through the ordinary evaluation path.
        let (applied, delta) = fit.calibration.apply(&nominal).unwrap();
        assert_eq!(delta, InputDelta::BANDWIDTH);
        let mut s1 = crate::ModelScratch::default();
        let mut s2 = crate::ModelScratch::default();
        for (layer, mapping) in &training {
            let va = MappedLayer::new(layer, &applied, mapping).unwrap();
            let vt = MappedLayer::new(layer, &truth, mapping).unwrap();
            let a = model.evaluate_fast(&va, &mut s1);
            let t = model.evaluate_fast(&vt, &mut s2);
            assert_eq!(a.cc_total.to_bits(), t.cc_total.to_bits());
        }
    }

    #[test]
    fn calibration_id_is_content_stable() {
        let nominal = presets::case_study_chip(128);
        let truth = perturb(&nominal);
        let model = LatencyModel::new();
        let training = training_set(&nominal);
        let mut ids = Vec::new();
        for _ in 0..2 {
            let mut cal = Calibrator::new(&nominal, model);
            for (layer, mapping) in &training {
                let view = MappedLayer::new(layer, &nominal, mapping).unwrap();
                let observed = synth_observed(&truth, model, &view);
                cal.add_trace(&view, &observed).unwrap();
            }
            ids.push(cal.fit().unwrap().calibration.id);
        }
        assert_eq!(ids[0], ids[1]);
        assert!(ids[0].starts_with("cal-"));
    }

    #[test]
    fn typed_errors_on_bad_observations() {
        let nominal = presets::case_study_chip(128);
        let model = LatencyModel::new();
        let (layer, mapping) = training_set(&nominal).remove(0);
        let view = MappedLayer::new(&layer, &nominal, &mapping).unwrap();

        let mut cal = Calibrator::new(&nominal, model);
        let err = cal
            .add_trace(
                &view,
                &[ObservedBusy {
                    mem: "NOPE".into(),
                    port: 0,
                    busy_cycles: 1.0,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, CalibrateError::UnknownMemory { .. }));

        let err = cal
            .add_trace(
                &view,
                &[ObservedBusy {
                    mem: "GB".into(),
                    port: 99,
                    busy_cycles: 1.0,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, CalibrateError::BadPort { .. }));

        assert!(matches!(
            Calibrator::new(&nominal, model).fit(),
            Err(CalibrateError::NoSamples)
        ));
    }

    #[test]
    fn csv_parses_and_rejects_with_line_numbers() {
        let text = "layer,b,k,c,mem,port,busy_cycles\n\
                    # comment\n\
                    mm0,64,96,640,GB,0,123.5\n\
                    \n\
                    mm1, 32, 48, 320, W-LB, 1, 42\n";
        let rows = parse_measurements(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].layer, "mm0");
        assert_eq!(rows[0].dims, (64, 96, 640));
        assert_eq!(rows[1].observed.mem, "W-LB");
        assert_eq!(rows[1].observed.port, 1);

        let err = parse_measurements("mm0,64,96,640,GB,0\n").unwrap_err();
        assert!(matches!(err, CalibrateError::BadCsv { line: 1, .. }));
        let err = parse_measurements("ok,1,1,1,GB,0,1\nmm0,0,96,640,GB,0,5\n").unwrap_err();
        assert!(matches!(err, CalibrateError::BadCsv { line: 2, .. }));
    }

    #[test]
    fn apply_rejects_the_wrong_architecture() {
        let nominal = presets::case_study_chip(128);
        let cal = Calibration {
            arch: "not-this-chip".into(),
            id: "cal-0".into(),
            ports: vec![],
        };
        assert!(matches!(
            cal.apply(&nominal),
            Err(CalibrateError::ArchMismatch { .. })
        ));
    }
}
