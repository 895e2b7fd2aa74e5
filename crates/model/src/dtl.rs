//! Step 1 ("Divide"): decompose the memory system into per-operand Unit
//! Memories and per-direction Data Transfer Links (DTLs), and compute each
//! DTL's attributes — `ReqBW_u`, `X_REQ`, `X_REAL`, `MUW_u` and `SS_u`.

use crate::lower::Rows;
use crate::slots::ArchSlots;
use std::fmt;
use ulm_arch::{MemoryId, PortId, PortUse};
use ulm_mapping::MappedLayer;
use ulm_periodic::PeriodicWindow;
use ulm_workload::{Operand, Precision};

/// The role a DTL plays in the dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DtlKind {
    /// W/I block moving down: read from level `L+1`, written into `L`.
    RefillDown,
    /// O block moving up: read from level `L`, written into `L+1`.
    DrainUp,
    /// Partial sums returning for further accumulation: read from `L+1`,
    /// written into `L`.
    PsumReadback,
    /// The MAC array consuming W/I from the innermost level.
    ComputeFeed,
    /// The MAC array writing partial sums into the innermost O level.
    ComputeWriteback,
}

impl fmt::Display for DtlKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DtlKind::RefillDown => "refill",
            DtlKind::DrainUp => "drain",
            DtlKind::PsumReadback => "psum-rd",
            DtlKind::ComputeFeed => "feed",
            DtlKind::ComputeWriteback => "wb",
        };
        f.write_str(s)
    }
}

/// One port touched by a DTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Endpoint {
    /// The memory owning the port.
    pub mem: MemoryId,
    /// The port within that memory.
    pub port: PortId,
    /// Whether the DTL reads out of or writes into that memory.
    pub usage: PortUse,
}

/// The one or two ports a DTL occupies, stored inline so a [`Dtl`] is
/// `Copy` and DTL lists can be rebuilt without heap traffic.
#[derive(Debug, Clone, Copy)]
pub struct Endpoints {
    items: [Endpoint; 2],
    len: u8,
}

impl Endpoints {
    /// A single-port link (compute-facing).
    pub fn one(e: Endpoint) -> Self {
        Self {
            items: [e, e],
            len: 1,
        }
    }

    /// A two-port link (inter-memory).
    pub fn two(a: Endpoint, b: Endpoint) -> Self {
        Self {
            items: [a, b],
            len: 2,
        }
    }

    /// The endpoints as a slice.
    fn as_slice(&self) -> &[Endpoint] {
        &self.items[..self.len as usize]
    }
}

impl std::ops::Deref for Endpoints {
    type Target = [Endpoint];
    fn deref(&self) -> &[Endpoint] {
        self.as_slice()
    }
}

impl PartialEq for Endpoints {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'b> IntoIterator for &'b Endpoints {
    type Item = &'b Endpoint;
    type IntoIter = std::slice::Iter<'b, Endpoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl serde::Serialize for Endpoints {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(
            self.as_slice()
                .iter()
                .map(serde::Serialize::to_value)
                .collect(),
        )
    }
}

impl serde::Deserialize for Endpoints {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let items = <Vec<Endpoint> as serde::Deserialize>::from_value(v)?;
        match *items.as_slice() {
            [e] => Ok(Self::one(e)),
            [a, b] => Ok(Self::two(a, b)),
            _ => Err(serde::Error::custom(format!(
                "expected 1 or 2 endpoints, got {}",
                items.len()
            ))),
        }
    }
}

/// A single-operand data transfer link with all Step-1 attributes.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Dtl {
    /// The operand whose data this link moves.
    pub operand: Operand,
    /// The link's role.
    pub kind: DtlKind,
    /// Index (in the operand's chain) of the level whose block defines the
    /// link's period.
    pub level: usize,
    /// Bits moved per period (`Mem_DATA` at interface precision).
    pub data_bits: u64,
    /// `Mem_CC`: the period in cycles.
    pub period: u64,
    /// `Z`: number of periods over the computation phase.
    pub z: u64,
    /// Periods whose transfer can stall *computation*: `Z − 1` for
    /// inter-memory links (the first refill is the pre-load phase and the
    /// last drain is the off-load phase, both accounted separately per
    /// Fig. 1a), `Z` for the always-on compute-facing links.
    pub z_stall: u64,
    /// `ReqBW_u` in bits/cycle (Table I).
    pub req_bw: f64,
    /// `X_REQ = data_bits / ReqBW_u`: allowed transfer time per period.
    pub x_req: f64,
    /// `RealBW`: the narrower of the two port bandwidths involved.
    pub real_bw: f64,
    /// `X_REAL = data_bits / RealBW`: actual transfer time per period.
    pub x_real: f64,
    /// `SS_u = (X_REAL − X_REQ) × Z`: stall (+) or slack (−) in cycles.
    pub ss_u: f64,
    /// `MUW_u`: the allowed updating window as a periodic function.
    pub window: PeriodicWindow,
    /// The one or two ports the link occupies.
    pub endpoints: Endpoints,
}

impl Dtl {
    /// Total port-busy time of this DTL during computation:
    /// `X_REAL × z_stall`.
    pub fn busy(&self) -> f64 {
        self.x_real * self.z_stall as f64
    }

    /// `MUW_u` measure: `X_REQ × Z`.
    pub fn muw(&self) -> f64 {
        self.window.measure()
    }

    /// A short human-readable label, e.g. `"W refill @W-Reg"`.
    pub fn label(&self, view: &MappedLayer<'_>) -> String {
        let h = view.arch().hierarchy();
        let mem = h.chain(self.operand)[self.level];
        format!("{} {} @{}", self.operand, self.kind, h.mem(mem).name())
    }
}

/// Window shape selector for one link.
pub(crate) enum WindowShape {
    /// Update may overlap compute for the whole period (double-buffered
    /// memory, or non-DB with a relevant top loop): `X_REQ = Mem_CC`.
    Full,
    /// Keep-out zone: update allowed only in the *last* `1/n` of the
    /// period (non-DB refill/drain under an `n`-fold irrelevant top run).
    Trailing(u64),
    /// Update allowed only in the *first* `1/n` of the period (psum
    /// read-back must land before accumulation revisits the block).
    Leading(u64),
}

fn make_window(shape: WindowShape, period: u64, z: u64) -> (f64, PeriodicWindow) {
    let p = period as f64;
    match shape {
        WindowShape::Full => (p, PeriodicWindow::full(p, z).expect("positive period")),
        WindowShape::Trailing(n) => {
            let x = p / n as f64;
            (x, PeriodicWindow::trailing(p, x, z).expect("x <= period"))
        }
        WindowShape::Leading(n) => {
            let x = p / n as f64;
            (x, PeriodicWindow::new(p, 0.0, x, z).expect("x <= period"))
        }
    }
}

#[allow(clippy::too_many_arguments)] // a DTL is genuinely 9-dimensional
pub(crate) fn finish(
    operand: Operand,
    kind: DtlKind,
    level: usize,
    data_bits: u64,
    period: u64,
    z: u64,
    shape: WindowShape,
    real_bw: f64,
    endpoints: Endpoints,
    phase_aware_z: bool,
) -> Dtl {
    // The first refill of a level happens in the pre-load phase and the
    // final drain in the off-load phase (Fig. 1a), so only Z − 1 periods
    // can stall computation. Compute-facing links are active in all Z.
    let z_stall = match kind {
        DtlKind::ComputeFeed | DtlKind::ComputeWriteback => z,
        _ if phase_aware_z => z.saturating_sub(1),
        _ => z,
    };
    let (x_req, window) = make_window(shape, period, z_stall);
    let req_bw = data_bits as f64 / x_req;
    let x_real = data_bits as f64 / real_bw;
    let ss_u = (x_real - x_req) * z_stall as f64;
    Dtl {
        operand,
        kind,
        level,
        data_bits,
        period,
        z,
        z_stall,
        req_bw,
        x_req,
        real_bw,
        x_real,
        ss_u,
        window,
        endpoints,
    }
}

/// Options controlling DTL extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtlOptions {
    /// Also model the MAC-array-facing links of the innermost levels
    /// (default true). Disable to reproduce inter-memory-only analyses.
    pub compute_links: bool,
    /// Charge only `Z − 1` periods of each inter-memory link to the
    /// computation phase (default true): the first refill is the pre-load
    /// and the last drain the off-load. Disable to use the paper's
    /// literal `Z` (which double-counts those transfers on short nests).
    pub phase_aware_z: bool,
}

impl Default for DtlOptions {
    fn default() -> Self {
        Self {
            compute_links: true,
            phase_aware_z: true,
        }
    }
}

/// Bits per word of `op` crossing the interface above a level in its
/// refill (W/I) or drain (O) direction: outputs leave at final precision
/// once fully accumulated, as partial sums otherwise.
pub(crate) fn crossing_bits(precision: &Precision, op: Operand, final_above: bool) -> u64 {
    match op {
        Operand::W | Operand::I => precision.bits(op),
        Operand::O => precision.output_bits(final_above),
    }
}

/// Step 1 proper, the single DTL construction body: writes the DTL list
/// of `rows` into `out` in canonical order. Rows come from a lowered IR
/// or a batched-kernel lane and every architecture constant arrives
/// through `slots`, so equal rows and slot values give bit-identical
/// DTLs whichever evaluator asks.
pub(crate) fn build_dtls_with(
    precision: &Precision,
    opts: DtlOptions,
    rows: &impl Rows,
    slots: &impl ArchSlots,
    out: &mut Vec<Dtl>,
) {
    out.clear();
    for op in Operand::all() {
        // Inter-memory links: one per adjacent level pair, stopping at
        // the pin (KV-cache residents and fused intermediates never touch
        // the interfaces above it, so no link exists to price).
        for level in 0..rows.active(op) {
            let row = rows.row(op, level);
            let lc = slots.interface(op, level);
            // Refill (W/I): upper read -> lower write; the receiving
            // memory's buffering sets the window (Table I). Drain (O):
            // lower read -> upper write; the source block finishes
            // accumulating only in the last iteration of its top
            // irrelevant run, so a non-DB source gets a trailing window
            // scaled by that run.
            let kind = match op {
                Operand::W | Operand::I => DtlKind::RefillDown,
                Operand::O => DtlKind::DrainUp,
            };
            let shape = if lc.lower_db || row.run == 1 {
                WindowShape::Full
            } else {
                WindowShape::Trailing(row.run)
            };
            out.push(finish(
                op,
                kind,
                level,
                row.words * crossing_bits(precision, op, row.final_above),
                row.period,
                row.z,
                shape,
                lc.bw_bits as f64,
                lc.endpoints,
                opts.phase_aware_z,
            ));
            // Partial sums return when accumulation continues above.
            if op == Operand::O && !row.final_above {
                let pc = slots.psum(level);
                let shape = if pc.lower_db || row.run == 1 {
                    WindowShape::Full
                } else {
                    WindowShape::Leading(row.run)
                };
                out.push(finish(
                    op,
                    DtlKind::PsumReadback,
                    level,
                    row.words * precision.partial_sum_bits(),
                    row.period,
                    row.z,
                    shape,
                    pc.bw_bits as f64,
                    pc.endpoints,
                    opts.phase_aware_z,
                ));
            }
        }

        // MAC-array-facing links of the innermost level. Irrelevant
        // spatial unrolls are broadcast and touch the same word, so the
        // feed rate counts op-relevant unroll factors only.
        if opts.compute_links {
            let row = rows.row(op, 0);
            let kind = match op {
                Operand::W | Operand::I => DtlKind::ComputeFeed,
                Operand::O => DtlKind::ComputeWriteback,
            };
            let cc = slots.compute(op);
            out.push(finish(
                op,
                kind,
                0,
                rows.feed(op) * precision.bits(op) * row.period,
                row.period,
                row.z,
                WindowShape::Full,
                cc.bw_bits as f64,
                cc.endpoints,
                opts.phase_aware_z,
            ));
        }
    }
}

/// Refreshes the bandwidth-dependent columns of an existing DTL list in
/// place: `RealBW` (re-read from the architecture's ports), `X_REAL =
/// data_bits / RealBW` and `SS_u = (X_REAL − X_REQ) × z_stall` (the same
/// arithmetic as the full build, so the floats come out bit-identical).
/// Everything else —
/// periods, windows, `ReqBW_u`, endpoints — is bandwidth-independent
/// and untouched.
///
/// Only valid when the structure is clean: same workload, mapping and
/// architecture structure as the lowering that built the list (the
/// [`rebuild_dirty`](crate::LoweredLayer::rebuild_dirty) precondition).
pub(crate) fn refresh_bandwidth(view: &MappedLayer<'_>, lw: &mut crate::LoweredLayer) {
    let h = view.arch().hierarchy();
    let mut dtls = std::mem::take(lw.dtls_mut());
    for d in &mut dtls {
        // The endpoints recorded at build time name exactly the ports the
        // link occupies, so `RealBW` is the narrower of their current
        // bandwidths — the same `u64` min the full build takes through
        // its chain-and-port lookups, read without them.
        let real_bw = d
            .endpoints
            .iter()
            .map(|e| h.mem(e.mem).ports()[e.port].bw_bits)
            .min()
            .expect("every DTL occupies at least one port") as f64;
        d.real_bw = real_bw;
        d.x_real = d.data_bits as f64 / real_bw;
        d.ss_u = (d.x_real - d.x_req) * d.z_stall as f64;
    }
    *lw.dtls_mut() = dtls;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoweredLayer;
    use ulm_arch::presets;
    use ulm_mapping::{LoopStack, Mapping, SpatialUnroll};
    use ulm_workload::{Dim, Layer, Precision};

    fn toy_view() -> (ulm_arch::presets::PresetChip, Layer, Mapping) {
        let chip = presets::toy_chip();
        let layer = Layer::matmul("mm", 4, 4, 8, Precision::int8_acc24());
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 8), (Dim::B, 2), (Dim::K, 2)]),
        )
        .unwrap();
        (chip, layer, mapping)
    }

    #[test]
    fn toy_dtl_inventory() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let dtls = LoweredLayer::build(&view, DtlOptions::default()).into_dtls();
        // W refill, I refill, O drain (+ no psum readback: outputs final
        // above O-Reg), 3 compute links.
        let refills = dtls
            .iter()
            .filter(|d| d.kind == DtlKind::RefillDown)
            .count();
        let drains = dtls.iter().filter(|d| d.kind == DtlKind::DrainUp).count();
        let readbacks = dtls
            .iter()
            .filter(|d| d.kind == DtlKind::PsumReadback)
            .count();
        let compute = dtls
            .iter()
            .filter(|d| matches!(d.kind, DtlKind::ComputeFeed | DtlKind::ComputeWriteback))
            .count();
        assert_eq!(refills, 2);
        assert_eq!(drains, 1);
        assert_eq!(readbacks, 0);
        assert_eq!(compute, 3);
    }

    #[test]
    fn w_refill_attributes_match_hand_computation() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let dtls = LoweredLayer::build(&view, DtlOptions::default()).into_dtls();
        let w = dtls
            .iter()
            .find(|d| d.operand == Operand::W && d.kind == DtlKind::RefillDown)
            .unwrap();
        // W-Reg holds 2 words x 8b = 16 bits, refilled every cycle
        // (Mem_CC = 1, no temporal loops at the reg level).
        assert_eq!(w.data_bits, 16);
        assert_eq!(w.period, 1);
        assert_eq!(w.z, 32);
        // Non-DB, top loop run = 1 -> full window, ReqBW = 16 b/cy.
        assert!((w.req_bw - 16.0).abs() < 1e-9);
        // Link bandwidth: W-Reg write port 8 vs LB read 16 -> 8 b/cy.
        assert!((w.real_bw - 8.0).abs() < 1e-9);
        // X_REAL = 2 cycles vs X_REQ = 1 -> one stall cycle per period,
        // over Z − 1 = 31 compute-phase periods (the first refill is the
        // pre-load phase).
        assert_eq!(w.z_stall, 31);
        assert!((w.ss_u - 31.0).abs() < 1e-9);
    }

    #[test]
    fn output_stationary_drain_is_bursty() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let dtls = LoweredLayer::build(&view, DtlOptions::default()).into_dtls();
        let o = dtls
            .iter()
            .find(|d| d.operand == Operand::O && d.kind == DtlKind::DrainUp)
            .unwrap();
        // O-Reg holds 4 outputs accumulated over C8 (ir run = 8): the
        // drain window is the last 1/8 of the 8-cycle period = 1 cycle.
        // Outputs are final above the regs, so they are re-quantized to
        // 8 bits before leaving: 4 words x 8b = 32 bits per burst.
        assert_eq!(o.data_bits, 4 * 8);
        assert_eq!(o.period, 8);
        assert!((o.x_req - 1.0).abs() < 1e-9);
        assert!((o.req_bw - 32.0).abs() < 1e-9);
    }

    #[test]
    fn psum_readback_appears_when_c_split() {
        let (chip, layer, _) = toy_view();
        // Split C: C4 at O-Reg ... K2 ... C2 on top (ir for O above).
        let mapping = Mapping::with_greedy_alloc(
            &chip.arch,
            &layer,
            SpatialUnroll::new(chip.spatial.clone()),
            LoopStack::from_pairs(&[(Dim::C, 4), (Dim::B, 2), (Dim::K, 2), (Dim::C, 2)]),
        )
        .unwrap();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let dtls = LoweredLayer::build(&view, DtlOptions::default()).into_dtls();
        let readbacks: Vec<_> = dtls
            .iter()
            .filter(|d| d.kind == DtlKind::PsumReadback)
            .collect();
        assert_eq!(readbacks.len(), 1);
        // Partial sums travel at 24 bits.
        assert_eq!(readbacks[0].data_bits, 4 * 24);
        // And the drain also moves partials now.
        let drain = dtls
            .iter()
            .find(|d| d.operand == Operand::O && d.kind == DtlKind::DrainUp)
            .unwrap();
        assert_eq!(drain.data_bits, 4 * 24);
    }

    #[test]
    fn compute_feed_rates_use_relevant_unrolls_only() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let dtls = LoweredLayer::build(&view, DtlOptions::default()).into_dtls();
        let feed_w = dtls
            .iter()
            .find(|d| d.operand == Operand::W && d.kind == DtlKind::ComputeFeed)
            .unwrap();
        // Spatial K2|B2: W cares about K only -> 2 words x 8b per cycle.
        assert!((feed_w.req_bw - 16.0).abs() < 1e-9);
        // W-Reg read port = 32 b/cy -> slack, never stall.
        assert!(feed_w.ss_u <= 0.0);
    }

    #[test]
    fn disabling_compute_links_removes_them() {
        let (chip, layer, mapping) = toy_view();
        let view = MappedLayer::new(&layer, &chip.arch, &mapping).unwrap();
        let opts = DtlOptions {
            compute_links: false,
            ..DtlOptions::default()
        };
        let dtls = LoweredLayer::build(&view, opts).into_dtls();
        assert!(dtls
            .iter()
            .all(|d| !matches!(d.kind, DtlKind::ComputeFeed | DtlKind::ComputeWriteback)));
    }
}
