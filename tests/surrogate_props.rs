//! Property tests pinning [`SpecializedModel`] bit-identical to the
//! generic `evaluate_fast` path across workload dims and every
//! matmul-capable built-in preset (including the KV-cache and fusion-chip
//! paths), plus a calibration round-trip that recovers known constants
//! with zero training residuals.

use proptest::prelude::*;
use ulm::model::ObservedBusy;
use ulm::prelude::*;

/// The matmul-capable built-in presets. The fusion chip covers the
/// deeper LB-pinning hierarchy; the TPU-like chip covers systolic-style
/// port layouts.
fn preset(idx: usize) -> ulm::arch::presets::PresetChip {
    match idx {
        0 => presets::toy_chip(),
        1 => presets::validation_chip(),
        2 => presets::scaled_case_study_chip(16, 128),
        3 => presets::tpu_like_chip(16),
        _ => presets::fusion_chip(),
    }
}

/// One draw: a preset, a template layer, a handful of query points and
/// the model/layer flavor knobs.
type Case = (
    usize,
    (u64, u64, u64),
    Vec<(u64, u64, u64)>,
    bool,
    bool,
    bool,
);

fn arb_case() -> impl Strategy<Value = Case> {
    (
        0usize..5,
        (1u64..=96, 1u64..=96, 1u64..=384),
        proptest::collection::vec((1u64..=256, 1u64..=128, 1u64..=768), 1..4),
        any::<bool>(), // KV-cache-resident weights
        any::<bool>(), // accumulator-precision variant
        any::<bool>(), // bandwidth-unaware model
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `query` must match `query_oracle` — the generic from-scratch
    /// `Mapping::with_greedy_alloc` + `MappedLayer::new` +
    /// `evaluate_fast` path — bit for bit, on every feasible point, and
    /// reject every other point with the same `SurrogateError`.
    #[test]
    fn specialized_matches_evaluate_fast_bit_for_bit(
        (idx, (tb, tk, tc), queries, kv, acc, bw_unaware) in arb_case()
    ) {
        let chip = preset(idx);
        let precision = if acc {
            Precision::int8_acc24()
        } else {
            Precision::int8_out24()
        };
        let mut template = Layer::matmul("t", tb, tk, tc, precision);
        if kv {
            template = template.with_kv_cache(Operand::W);
        }
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let opts = MapperOptions {
            max_exhaustive: 100,
            samples: 10,
            ..MapperOptions::default()
        };
        let Ok(result) = Mapper::new(&chip.arch, &template, spatial)
            .with_options(opts)
            .search(Objective::Latency)
        else {
            return Ok(()); // template does not fit this preset at all
        };
        let shape = MappingShape::from_mapping(&result.best.mapping)
            .expect("search incumbents have well-formed shapes");
        let model = if bw_unaware {
            LatencyModel::bw_unaware()
        } else {
            LatencyModel::new()
        };
        let mut spec = SpecializedModel::prepare(model, &chip.arch, &template, shape)
            .expect("matmul templates specialize");
        // A zero dim is rejected, by both paths alike.
        for (b, k, c) in queries.into_iter().chain([(0, tk, tc)]) {
            match (spec.query(b, k, c), spec.query_oracle(b, k, c)) {
                (Ok(fast), Ok(oracle)) => {
                    prop_assert_eq!(fast.cc_total.to_bits(), oracle.cc_total.to_bits(),
                        "cc_total diverged at {}x{}x{} on preset {}", b, k, c, idx);
                    prop_assert_eq!(fast.cc_ideal.to_bits(), oracle.cc_ideal.to_bits());
                    prop_assert_eq!(fast.cc_spatial, oracle.cc_spatial);
                    prop_assert_eq!(fast.ss_overall.to_bits(), oracle.ss_overall.to_bits());
                    prop_assert_eq!(fast.preload, oracle.preload);
                    prop_assert_eq!(fast.offload, oracle.offload);
                    prop_assert_eq!(fast.utilization.to_bits(), oracle.utilization.to_bits());
                }
                // Both reject the point, for the same typed reason.
                (Err(fast), Err(oracle)) => prop_assert_eq!(fast, oracle),
                (fast, oracle) => prop_assert!(
                    false,
                    "feasibility diverged at {}x{}x{}: {:?} vs {:?}",
                    b, k, c, fast, oracle
                ),
            }
        }
    }
}

/// Per-port busy cycles that a hypothetical machine with `bw(port)`
/// effective bandwidth would report for this mapped layer: exactly
/// `traffic / bw`, the calibrator's own linear model.
fn synthetic_busy(
    arch: &Architecture,
    view: &MappedLayer<'_>,
    model: &LatencyModel,
    bw: impl Fn(&str, usize) -> u64,
) -> Vec<ObservedBusy> {
    let h = arch.hierarchy();
    let lowered = LoweredLayer::build(view, model.dtl_options());
    let mut traffic: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
    for d in lowered.dtls() {
        let weight = d.data_bits as f64 * d.z_stall as f64;
        for e in &d.endpoints {
            *traffic.entry((e.mem.0, e.port)).or_insert(0.0) += weight;
        }
    }
    traffic
        .into_iter()
        .filter(|&(_, t)| t > 0.0)
        .map(|((mem, port), t)| {
            let name = h.mem(MemoryId(mem)).name().to_string();
            let busy = t / bw(&name, port) as f64;
            ObservedBusy {
                mem: name,
                port,
                busy_cycles: busy,
            }
        })
        .collect()
}

/// Fitting against traces synthesized from known effective bandwidths
/// must recover those bandwidths exactly, leave zero residuals on the
/// training set, and flow into both evaluation paths: the applied
/// architecture drives the generic model and the surrogate to the same
/// bit-identical answers.
#[test]
fn calibration_roundtrip_recovers_known_constants() {
    let chip = presets::scaled_case_study_chip(16, 128);
    let arch = &chip.arch;
    let model = LatencyModel::new();
    // Ground truth: every port runs at half its nominal bandwidth.
    let half = |name: &str, port: usize| -> u64 {
        let h = arch.hierarchy();
        let id = h.find(name).expect("port names come from the hierarchy");
        (h.mem(id).ports()[port].bw_bits / 2).max(1)
    };

    let opts = MapperOptions {
        max_exhaustive: 200,
        samples: 20,
        ..MapperOptions::default()
    };
    let training = [(32u64, 48u64, 160u64), (64, 96, 640), (48, 64, 320)];
    let mut cal = Calibrator::new(arch, LatencyModel::new());
    let mut mappings = Vec::new();
    for &(b, k, c) in &training {
        let layer = Layer::matmul(format!("({b},{k},{c})"), b, k, c, Precision::int8_out24());
        let spatial = SpatialUnroll::new(chip.spatial.clone());
        let mapping = Mapper::new(arch, &layer, spatial)
            .with_options(opts)
            .search(Objective::Latency)
            .expect("training layers fit the case-study chip")
            .best
            .mapping;
        mappings.push((layer, mapping));
    }
    for (layer, mapping) in &mappings {
        let view = MappedLayer::new(layer, arch, mapping).unwrap();
        let observed = synthetic_busy(arch, &view, &model, half);
        cal.add_trace(&view, &observed).unwrap();
    }
    let fit = cal.fit().unwrap();

    // Round trip: the fit recovers the ground-truth constants exactly …
    assert!(!fit.calibration.ports.is_empty());
    for p in &fit.calibration.ports {
        assert_eq!(
            p.bw_bits,
            half(&p.mem, p.port),
            "port {}[{}] missed the known bandwidth",
            p.mem,
            p.port
        );
    }
    // … with zero residuals on the training set.
    for r in &fit.residuals {
        assert!(
            r.error_pct.abs() < 1e-9,
            "layer {} left a residual of {}%",
            r.layer,
            r.error_pct
        );
    }
    // The fit is a fixed point: identical constants, identical stable id.
    let mut again = Calibrator::new(arch, LatencyModel::new());
    for (layer, mapping) in &mappings {
        let view = MappedLayer::new(layer, arch, mapping).unwrap();
        let observed = synthetic_busy(arch, &view, &model, half);
        again.add_trace(&view, &observed).unwrap();
    }
    assert_eq!(again.fit().unwrap().calibration, fit.calibration);

    // The calibrated constants feed both paths: the applied architecture
    // carries the fitted bandwidths, and generic vs specialized
    // evaluation stay bit-identical on it.
    let (applied, delta) = fit.calibration.apply(arch).unwrap();
    assert!(!delta.is_empty());
    for p in &fit.calibration.ports {
        let id = applied.hierarchy().find(&p.mem).unwrap();
        assert_eq!(
            applied.hierarchy().mem(id).ports()[p.port].bw_bits,
            p.bw_bits
        );
    }
    let (layer, mapping) = &mappings[1];
    let shape = MappingShape::from_mapping(mapping).unwrap();
    let mut spec = SpecializedModel::prepare(LatencyModel::new(), &applied, layer, shape).unwrap();
    let dims = layer.shape();
    let (b, k, c) = (dims.dim(Dim::B), dims.dim(Dim::K), dims.dim(Dim::C));
    let fast = spec.query(b, k, c).unwrap();
    let oracle = spec.query_oracle(b, k, c).unwrap();
    assert_eq!(fast.cc_total.to_bits(), oracle.cc_total.to_bits());
    // Halving every effective bandwidth can only slow the layer down
    // relative to the nominal machine.
    let view = MappedLayer::new(layer, arch, mapping).unwrap();
    let nominal = LatencyModel::new().evaluate_fast(&view, &mut ModelScratch::default());
    assert!(fast.cc_total >= nominal.cc_total);
}
