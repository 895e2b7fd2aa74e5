//! The `ulm` subcommands.

use crate::args::{ArgError, Args};
use ulm::prelude::*;

/// Resolves `--arch` into an architecture plus its canonical spatial
/// unrolling. Accepts `case16` (default), `case32`, `case64`,
/// `validation` and `toy`; `--gb-bw` overrides the GB bandwidth of the
/// case-study family.
fn resolve_arch(args: &Args) -> Result<(Architecture, SpatialUnroll), UlmError> {
    if let Some(path) = args.get("arch-file") {
        let text = std::fs::read_to_string(path)?;
        let (arch, spatial) = ulm::arch::ArchDesc::from_json(&text)?.build()?;
        return Ok((arch, SpatialUnroll::new(spatial)));
    }
    let gb_bw = args.u64_or("gb-bw", 128)?;
    let name = args.get("arch").unwrap_or("case16");
    let chip = presets::by_name(name, gb_bw).ok_or_else(|| {
        UlmError::config(format!(
            "unknown --arch `{name}` (try {})",
            presets::NAMES.join("|")
        ))
    })?;
    Ok((chip.arch, SpatialUnroll::new(chip.spatial)))
}

/// Options read by [`resolve_arch`].
const ARCH_OPTIONS: &[&str] = &["arch", "arch-file", "gb-bw"];
/// Options read by [`resolve_layer`].
const LAYER_OPTIONS: &[&str] = &["layer", "precision"];
/// Options read by [`mapper_options`].
const MAPPER_OPTIONS: &[&str] = &["max-exhaustive", "samples", "bw-unaware"];
/// Options read by [`serve_options`].
const SERVICE_OPTIONS: &[&str] = &[
    "parallelism",
    "cache-capacity",
    "cache-dir",
    "no-timing",
    "max-line-len",
    "calibration",
];

/// Every option and flag `command` reads (`--help` aside, which every
/// command takes), or `None` for an unknown command.
pub fn accepted_options(command: &str) -> Option<Vec<&'static str>> {
    let (shared, own): (&[&[&str]], &[&str]) = match command {
        "evaluate" => (&[ARCH_OPTIONS, LAYER_OPTIONS, MAPPER_OPTIONS], &["json"]),
        "whatif" => (
            &[ARCH_OPTIONS, LAYER_OPTIONS, MAPPER_OPTIONS],
            &["set", "verify", "json"],
        ),
        "calibrate" => (
            &[ARCH_OPTIONS, MAPPER_OPTIONS],
            &["precision", "measurements", "verify", "out", "json"],
        ),
        "surrogate" => (
            &[ARCH_OPTIONS, LAYER_OPTIONS, MAPPER_OPTIONS],
            &[
                "calibration",
                "b-list",
                "k-list",
                "c-list",
                "verify",
                "json",
            ],
        ),
        "search" => (
            &[ARCH_OPTIONS, LAYER_OPTIONS, MAPPER_OPTIONS],
            &["objective", "all", "top", "stats"],
        ),
        "validate" => (&[MAPPER_OPTIONS], &["layers", "json"]),
        "dse" => (
            &[],
            &["gb-bw", "sides", "layer", "threads", "json", "stats"],
        ),
        "network" => (
            &[ARCH_OPTIONS, MAPPER_OPTIONS],
            &["overlap", "fuse", "file", "net"],
        ),
        "batch" => (&[SERVICE_OPTIONS], &[]),
        "serve" => (
            &[SERVICE_OPTIONS],
            &[
                "port",
                "max-connections",
                "idle-timeout-ms",
                "write-timeout-ms",
                "drain-timeout-ms",
                "shutdown-on-stdin-close",
            ],
        ),
        "cache" => (&[], &["cache-dir", "out", "from"]),
        _ => return None,
    };
    Some(
        shared
            .iter()
            .copied()
            .flatten()
            .chain(own)
            .copied()
            .collect(),
    )
}

fn resolve_precision(args: &Args) -> Result<Precision, ArgError> {
    let name = args.get("precision").unwrap_or("int8_out24");
    Precision::by_name(name).ok_or_else(|| ArgError::BadValue {
        key: "precision".into(),
        value: name.into(),
        expected: format!("precision ({})", Precision::NAMES.join("|")),
    })
}

fn resolve_layer(args: &Args) -> Result<Layer, ArgError> {
    let (b, k, c) = args.layer_dims((64, 96, 640))?;
    Ok(Layer::matmul(
        format!("({b},{k},{c})"),
        b,
        k,
        c,
        resolve_precision(args)?,
    ))
}

fn mapper_options(args: &Args) -> Result<MapperOptions, ArgError> {
    Ok(MapperOptions {
        max_exhaustive: args.u64_or("max-exhaustive", 3_000)? as u128,
        samples: args.u64_or("samples", 120)? as usize,
        bw_aware: !args.flag("bw-unaware"),
        ..MapperOptions::default()
    })
}

/// `ulm evaluate`: map one layer (best-latency search) and print the full
/// latency/energy report.
pub fn evaluate(args: &Args) -> Result<(), UlmError> {
    let (arch, spatial) = resolve_arch(args)?;
    let layer = resolve_layer(args)?;
    let result = Mapper::new(&arch, &layer, spatial)
        .with_options(mapper_options(args)?)
        .search(Objective::Latency)?;
    let view = MappedLayer::new(&layer, &arch, &result.best.mapping)?;
    let energy = EnergyModel::new().evaluate(&view);
    if args.flag("json") {
        let out = serde_json::json!({
            "arch": arch.name(),
            "layer": layer.name(),
            "mapping": format!("{}", result.best.mapping),
            "latency": result.best.latency,
            "energy": energy,
        });
        println!("{}", serde_json::to_string_pretty(&out)?);
    } else {
        println!("architecture: {arch}");
        println!("layer: {layer} ({} MACs)", layer.total_macs());
        println!("mapping: {}", result.best.mapping);
        print!("{}", result.best.latency);
        let rl = ulm::model::roofline(&view);
        println!(
            "roofline bound: {:.0} cc ({}-bound at {})",
            rl.bound_cycles(),
            if rl.memory_bound() {
                "memory"
            } else {
                "compute"
            },
            rl.bottleneck()
        );
        for fix in result.best.latency.bandwidth_fixes().iter().take(3) {
            println!(
                "fix: raise {} from {:.0} to {:.0} b/cy (removes {:.0} cc of stall)",
                fix.port, fix.current_bw, fix.required_bw, fix.stall
            );
        }
        print!("{energy}");
    }
    Ok(())
}

/// `ulm whatif`: evaluate a base design, apply `--set
/// mem.<name>.<knob>=<value>` architecture overrides (`size`, `bw`,
/// `read_bw`, `write_bw`; values like `2x` or absolute bits), and report
/// the latency/energy deltas. The base's best mapping is searched once
/// and re-evaluated on the modified architecture through the dirty-stage
/// delta path — only the lowering stages the overrides invalidate are
/// recomputed. With `--verify`, the incremental result is additionally
/// checked bit for bit against a cold evaluation of the modified design.
pub fn whatif(args: &Args) -> Result<(), UlmError> {
    let overrides: Vec<String> = args.get_all("set").iter().map(|s| s.to_string()).collect();
    if overrides.is_empty() {
        return Err(UlmError::config(
            "ulm whatif needs at least one --set mem.<name>.<knob>=<value>",
        ));
    }
    let (arch, spatial) = resolve_arch(args)?;
    let layer = resolve_layer(args)?;
    let mopts = mapper_options(args)?;
    let result = Mapper::new(&arch, &layer, spatial)
        .with_options(mopts)
        .search(Objective::Latency)?;
    let mapping = result.best.mapping;
    let (modified, delta) = apply_overrides(&arch, &overrides)?;

    let model = if mopts.bw_aware {
        LatencyModel::new()
    } else {
        LatencyModel::bw_unaware()
    };
    let mut scratch = ModelScratch::default();
    // Prime the stage pipeline on the base design, then rebuild only what
    // the overrides dirtied.
    let base_view = MappedLayer::new(&layer, &arch, &mapping)?;
    let (base, _) = model.evaluate_delta_fast(&base_view, InputDelta::ALL, &mut scratch);
    let view = MappedLayer::new(&layer, &modified, &mapping)?;
    let (fast, rebuild) = model.evaluate_delta_fast(&view, delta, &mut scratch);
    let energy = EnergyModel::new().evaluate_lowered(&view, scratch.lowered());
    let base_energy = result.best.energy;

    let verified = if args.flag("verify") {
        let cold = model.evaluate_fast(&view, &mut ModelScratch::default());
        if cold.cc_total.to_bits() != fast.cc_total.to_bits()
            || cold.ss_overall.to_bits() != fast.ss_overall.to_bits()
            || cold.utilization.to_bits() != fast.utilization.to_bits()
            || cold.preload != fast.preload
            || cold.offload != fast.offload
        {
            return Err(UlmError::config(format!(
                "whatif verification failed: incremental cc_total {} != cold {}",
                fast.cc_total, cold.cc_total
            )));
        }
        true
    } else {
        false
    };

    if args.flag("json") {
        let mut out = serde_json::json!({
            "arch": arch.name(),
            "layer": layer.name(),
            "mapping": format!("{mapping}"),
            "set": overrides,
            "base": {
                "cc_total": base.cc_total,
                "ss_overall": base.ss_overall,
                "utilization": base.utilization,
                "energy_fj": base_energy.total_fj,
            },
            "modified": {
                "cc_total": fast.cc_total,
                "ss_overall": fast.ss_overall,
                "utilization": fast.utilization,
                "energy_fj": energy.total_fj,
            },
            "delta": {
                "cc_total": fast.cc_total - base.cc_total,
                "energy_fj": energy.total_fj - base_energy.total_fj,
                "speedup": base.cc_total / fast.cc_total,
            },
            "rebuild": {
                "stages_rebuilt": rebuild.stages_rebuilt,
                "stages_skipped": rebuild.stages_skipped,
            },
        });
        if verified {
            if let serde_json::Value::Object(fields) = &mut out {
                fields.push(("verified".to_string(), serde_json::Value::Bool(true)));
            }
        }
        println!("{}", serde_json::to_string_pretty(&out)?);
    } else {
        println!("architecture: {arch}");
        println!("layer: {layer} ({} MACs)", layer.total_macs());
        println!("mapping: {mapping}");
        for over in &overrides {
            println!("override: {over}");
        }
        println!(
            "base:     {:>12.0} cc  U {:>5.1}%  {:>10.1} nJ",
            base.cc_total,
            base.utilization * 100.0,
            base_energy.total_pj() / 1000.0
        );
        println!(
            "modified: {:>12.0} cc  U {:>5.1}%  {:>10.1} nJ",
            fast.cc_total,
            fast.utilization * 100.0,
            energy.total_pj() / 1000.0
        );
        println!(
            "delta:    {:>+12.0} cc ({:.2}x speedup)  {:>+10.1} nJ",
            fast.cc_total - base.cc_total,
            base.cc_total / fast.cc_total,
            (energy.total_fj - base_energy.total_fj) / 1e6
        );
        println!(
            "rebuild: {} stages recomputed, {} reused",
            rebuild.stages_rebuilt, rebuild.stages_skipped
        );
        if verified {
            println!("verified: incremental result bit-identical to cold evaluation");
        }
    }
    Ok(())
}

/// The model selected by `--bw-unaware`.
fn latency_model(args: &Args) -> Result<LatencyModel, ArgError> {
    Ok(if mapper_options(args)?.bw_aware {
        LatencyModel::new()
    } else {
        LatencyModel::bw_unaware()
    })
}

/// Loads a calibration JSON written by `ulm calibrate --out`.
fn load_calibration(path: &str) -> Result<Calibration, UlmError> {
    let text = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&text)?)
}

/// The matmul training ladder `ulm calibrate` simulates when no
/// measurement CSV is supplied: a spread of shapes so every port of the
/// case-study family carries traffic in at least one trace.
const CALIBRATION_TRAINING_DIMS: &[(u64, u64, u64)] =
    &[(32, 48, 160), (64, 96, 640), (48, 64, 320), (96, 128, 512)];

/// Maps one layer with the best-latency search and returns its view
/// ingredients (the mapping must outlive the view).
fn best_mapping(
    arch: &Architecture,
    layer: &Layer,
    spatial: &SpatialUnroll,
    mopts: MapperOptions,
) -> Result<Mapping, UlmError> {
    Ok(Mapper::new(arch, layer, spatial.clone())
        .with_options(mopts)
        .search(Objective::Latency)?
        .best
        .mapping)
}

/// One measurement trace: layer name, `(B, K, C)` dims and the observed
/// per-port busy rows that belong to it.
type TraceGroup = (String, (u64, u64, u64), Vec<ulm::model::ObservedBusy>);

/// `ulm calibrate`: fit per-port `RealBW` constants for one architecture
/// preset against simulator traces (default) or an imported measurement
/// CSV (`--measurements`), report per-layer residuals, and optionally
/// persist the calibration (`--out`) for `ulm surrogate --calibration`
/// and `ulm serve --calibration`.
pub fn calibrate(args: &Args) -> Result<(), UlmError> {
    let (arch, spatial) = resolve_arch(args)?;
    let mopts = mapper_options(args)?;
    let precision = resolve_precision(args)?;
    let mut cal = Calibrator::new(&arch, latency_model(args)?);
    if let Some(path) = args.get("measurements") {
        // Imported measurements: one CSV row per (layer, port)
        // observation; consecutive rows of the same layer form one trace.
        let rows = ulm::model::parse_measurements(&std::fs::read_to_string(path)?)?;
        let mut groups: Vec<TraceGroup> = Vec::new();
        for r in rows {
            match groups.last_mut() {
                Some((name, dims, obs)) if *name == r.layer && *dims == r.dims => {
                    obs.push(r.observed)
                }
                _ => groups.push((r.layer, r.dims, vec![r.observed])),
            }
        }
        for (name, (b, k, c), obs) in &groups {
            let layer = Layer::matmul(name.clone(), *b, *k, *c, precision);
            let mapping = best_mapping(&arch, &layer, &spatial, mopts)?;
            let view = MappedLayer::new(&layer, &arch, &mapping)?;
            cal.add_trace(&view, obs)?;
        }
    } else {
        // Simulator traces: map each training layer, execute it in the
        // discrete-event simulator, and feed the observed per-port busy
        // cycles to the fit.
        let sim = Simulator::new();
        for &(b, k, c) in CALIBRATION_TRAINING_DIMS {
            let layer = Layer::matmul(format!("train-{b}x{k}x{c}"), b, k, c, precision);
            let mapping = best_mapping(&arch, &layer, &spatial, mopts)?;
            let view = MappedLayer::new(&layer, &arch, &mapping)?;
            let report = sim.simulate(&view)?;
            let h = arch.hierarchy();
            let observed: Vec<ulm::model::ObservedBusy> = report
                .ports
                .iter()
                .map(|p| ulm::model::ObservedBusy {
                    mem: h.mem(p.mem).name().to_string(),
                    port: p.port,
                    busy_cycles: p.busy_cycles,
                })
                .collect();
            cal.add_trace(&view, &observed)?;
        }
    }
    let fit = cal.fit()?;

    let verified = if args.flag("verify") {
        // The applied architecture must carry exactly the fitted
        // constants — this is the contract that lets the calibration
        // feed the generic model and the surrogate identically.
        let (calibrated, _delta) = fit.calibration.apply(&arch)?;
        let h = calibrated.hierarchy();
        for p in &fit.calibration.ports {
            let mid = h.find(&p.mem).ok_or_else(|| {
                UlmError::config(format!("calibrated arch lost memory `{}`", p.mem))
            })?;
            let got = h.mem(mid).ports()[p.port].bw_bits;
            if got != p.bw_bits {
                return Err(UlmError::config(format!(
                    "calibration verify failed: {}.port{} applied {} b/cy != fitted {}",
                    p.mem, p.port, got, p.bw_bits
                )));
            }
        }
        true
    } else {
        false
    };

    if let Some(out) = args.get("out") {
        std::fs::write(out, serde_json::to_string_pretty(&fit.calibration)?)?;
    }

    let mean_abs = if fit.residuals.is_empty() {
        0.0
    } else {
        fit.residuals.iter().map(|r| r.error_pct.abs()).sum::<f64>() / fit.residuals.len() as f64
    };
    if args.flag("json") {
        let mut out = serde_json::json!({
            "arch": arch.name(),
            "calibration": fit.calibration,
            "residuals": fit.residuals,
            "mean_abs_error_pct": mean_abs,
        });
        if verified {
            if let serde_json::Value::Object(fields) = &mut out {
                fields.push(("verified".to_string(), serde_json::Value::Bool(true)));
            }
        }
        println!("{}", serde_json::to_string_pretty(&out)?);
    } else {
        println!("architecture: {arch}");
        println!("calibration: {}", fit.calibration.id);
        for p in &fit.calibration.ports {
            println!(
                "  {}.port{}: {} -> {} b/cy ({} samples)",
                p.mem, p.port, p.old_bw_bits, p.bw_bits, p.samples
            );
        }
        for r in &fit.residuals {
            println!(
                "  {:<20} observed {:>12.1}  predicted {:>12.1}  err {:>+7.2}%",
                r.layer, r.observed, r.predicted, r.error_pct
            );
        }
        println!("mean |residual|: {mean_abs:.2}%");
        if verified {
            println!("verified: applied architecture carries the fitted constants");
        }
        if let Some(out) = args.get("out") {
            println!("wrote calibration to {out}");
        }
    }
    Ok(())
}

/// `ulm surrogate`: specialize the model once for `(architecture,
/// mapping shape)` — the shape comes from a one-time best-latency search
/// on the `--layer` template — then answer a workload-dimension sweep
/// through the partial-evaluation fast path. `--verify` checks every
/// point bit for bit against the generic pipeline; `--calibration`
/// applies fitted constants first so both paths use them.
pub fn surrogate(args: &Args) -> Result<(), UlmError> {
    let (mut arch, spatial) = resolve_arch(args)?;
    let mut calibration_id = None;
    if let Some(path) = args.get("calibration") {
        let cal = load_calibration(path)?;
        let (applied, _) = cal.apply(&arch)?;
        arch = applied;
        calibration_id = Some(cal.id);
    }
    let template = resolve_layer(args)?;
    let mopts = mapper_options(args)?;
    let mapping = best_mapping(&arch, &template, &spatial, mopts)?;
    let shape = MappingShape::from_mapping(&mapping)?;
    let mut spec = SpecializedModel::prepare(latency_model(args)?, &arch, &template, shape)?;

    let (_, tk, tc) = args.layer_dims((64, 96, 640))?;
    let bs = args.u64_list_or("b-list", &[16, 32, 64, 128, 256])?;
    let ks = args.u64_list_or("k-list", &[tk])?;
    let cs = args.u64_list_or("c-list", &[tc])?;
    let verify = args.flag("verify");

    let mut rows = Vec::new();
    let mut query_time = std::time::Duration::ZERO;
    let mut verified_points = 0usize;
    for &b in &bs {
        for &k in &ks {
            for &c in &cs {
                let t0 = std::time::Instant::now();
                let fast = spec.query(b, k, c)?;
                query_time += t0.elapsed();
                if verify {
                    let cold = spec.query_oracle(b, k, c)?;
                    if cold.cc_total.to_bits() != fast.cc_total.to_bits()
                        || cold.ss_overall.to_bits() != fast.ss_overall.to_bits()
                        || cold.utilization.to_bits() != fast.utilization.to_bits()
                        || cold.preload != fast.preload
                        || cold.offload != fast.offload
                    {
                        return Err(UlmError::config(format!(
                            "surrogate verification failed at {b}x{k}x{c}: \
                             specialized cc_total {} != generic {}",
                            fast.cc_total, cold.cc_total
                        )));
                    }
                    verified_points += 1;
                }
                rows.push((b, k, c, fast));
            }
        }
    }
    let stats = spec.stats();
    let points_per_sec = if query_time.as_secs_f64() > 0.0 {
        rows.len() as f64 / query_time.as_secs_f64()
    } else {
        f64::INFINITY
    };

    if args.flag("json") {
        let mut out = serde_json::json!({
            "arch": arch.name(),
            "template": template.name(),
            "shape": format!("{}", spec.shape()),
            "points": rows.iter().map(|(b, k, c, l)| serde_json::json!({
                "layer": format!("{b}x{k}x{c}"),
                "cc_total": l.cc_total,
                "ss_overall": l.ss_overall,
                "utilization": l.utilization,
            })).collect::<Vec<_>>(),
            "queries": stats.queries,
            "points_per_sec": points_per_sec,
        });
        if let serde_json::Value::Object(fields) = &mut out {
            if let Some(id) = &calibration_id {
                fields.push(("calibration_id".to_string(), serde_json::json!(id)));
            }
            if verify {
                fields.push((
                    "verified_points".to_string(),
                    serde_json::json!(verified_points),
                ));
            }
        }
        println!("{}", serde_json::to_string_pretty(&out)?);
    } else {
        println!("architecture: {arch}");
        println!("specialized for: {}", spec.shape());
        if let Some(id) = &calibration_id {
            println!("calibration: {id}");
        }
        for (b, k, c, l) in &rows {
            println!(
                "  {b:>5}x{k:<5}x{c:<5} {:>12.0} cc  U {:>5.1}%  stall {:>10.0}",
                l.cc_total,
                l.utilization * 100.0,
                l.ss_overall
            );
        }
        println!("{} queries, {points_per_sec:.0} points/s", stats.queries);
        if verify {
            println!("verified: {verified_points} points bit-identical to the generic pipeline");
        }
    }
    Ok(())
}

/// `ulm search`: explore the mapping space under an objective and print
/// the best mapping (or the `--all` top list).
pub fn search(args: &Args) -> Result<(), UlmError> {
    let (arch, spatial) = resolve_arch(args)?;
    let layer = resolve_layer(args)?;
    let name = args.get("objective").unwrap_or("latency");
    let objective = Objective::by_name(name).ok_or_else(|| ArgError::BadValue {
        key: "objective".into(),
        value: name.into(),
        expected: format!("objective ({})", Objective::NAMES.join("|")),
    })?;
    let mapper = Mapper::new(&arch, &layer, spatial).with_options(mapper_options(args)?);
    println!(
        "space: {} orderings ({} factors)",
        mapper.space_size(),
        mapper.factors().len()
    );
    if args.flag("all") {
        let mut all = mapper.enumerate_all()?;
        all.sort_by(|a, b| a.score(objective).total_cmp(&b.score(objective)));
        for em in all.iter().take(args.u64_or("top", 10)? as usize) {
            println!(
                "  {:>12.0} cc  {:>10.1} nJ  U {:>5.1}%  {}",
                em.latency.cc_total,
                em.energy.total_pj() / 1000.0,
                em.latency.utilization * 100.0,
                em.mapping
            );
        }
    } else {
        let r = mapper.search(objective)?;
        println!(
            "evaluated {} of {} generated ({})",
            r.stats.evaluated,
            r.stats.generated,
            if r.exhaustive {
                "exhaustive"
            } else {
                "sampled"
            }
        );
        if args.flag("stats") {
            println!(
                "stats: {} pruned, {} prefix reuses, {:.2} ms",
                r.stats.pruned, r.stats.cache_hits, r.wall_ms
            );
        }
        println!("best mapping: {}", r.best.mapping);
        print!("{}", r.best.latency);
        println!("energy: {:.1} nJ", r.best.energy.total_pj() / 1000.0);
    }
    Ok(())
}

/// `ulm validate`: model vs discrete-event simulator on the hand-tracking
/// layers (the Fig. 5c experiment).
pub fn validate(args: &Args) -> Result<(), UlmError> {
    let chip = presets::validation_chip();
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let limit = args.u64_or("layers", u64::MAX)? as usize;
    let layers = networks::handtracking_validation_layers();
    let mut rows = Vec::new();
    let mut acc_sum = 0.0;
    for layer in layers.iter().take(limit) {
        let best = Mapper::new(&chip.arch, layer, spatial.clone())
            .with_options(mapper_options(args)?)
            .search(Objective::Latency)?
            .best;
        let view = MappedLayer::new(layer, &chip.arch, &best.mapping)?;
        let sim = Simulator::new().simulate(&view)?;
        let acc = (1.0
            - (best.latency.cc_total - sim.total_cycles as f64).abs() / sim.total_cycles as f64)
            * 100.0;
        acc_sum += acc;
        rows.push((
            layer.name().to_string(),
            best.latency.cc_total,
            sim.total_cycles,
            acc,
        ));
    }
    if args.flag("json") {
        let out = serde_json::json!({
            "layers": rows.iter().map(|(n, m, s, a)| serde_json::json!({
                "layer": n, "model_cc": m, "sim_cc": s, "accuracy_pct": a
            })).collect::<Vec<_>>(),
            "mean_accuracy_pct": acc_sum / rows.len() as f64,
        });
        println!("{}", serde_json::to_string_pretty(&out)?);
    } else {
        for (n, m, s, a) in &rows {
            println!("{n:<24} model {m:>10.0}  sim {s:>10}  acc {a:>5.1}%");
        }
        println!("mean accuracy: {:.1}%", acc_sum / rows.len() as f64);
    }
    Ok(())
}

/// `ulm dse`: architecture design-space exploration with a Pareto front.
pub fn dse(args: &Args) -> Result<(), UlmError> {
    let parallelism = args.threads("threads")?;
    let gb_bw = args.u64_or("gb-bw", 128)?;
    if gb_bw == 0 {
        return Err(UlmError::config("--gb-bw must be positive"));
    }
    let sides = args.u64_list_or("sides", &[16, 32, 64])?;
    if let Some(bad) = sides.iter().find(|&&s| s < 2 || s % 2 != 0) {
        return Err(UlmError::config(format!(
            "--sides values must be even and >= 2, got {bad}"
        )));
    }
    let (b, k, c) = args.layer_dims((256, 256, 64))?;
    let layer = Layer::matmul(format!("({b},{k},{c})"), b, k, c, Precision::int8_out24());
    let pool = MemoryPool::default();
    let designs = enumerate_designs(&pool, &sides, gb_bw);
    println!("exploring {} designs at GB {gb_bw} b/cy …", designs.len());
    let opts = ExploreOptions {
        parallelism,
        ..ExploreOptions::default()
    };
    let (points, stats) = explore_with_stats(&designs, &layer, &opts);
    let front = pareto_front(&points);
    if args.flag("json") {
        let mut out = serde_json::json!({
            "evaluated": points.len(),
            "pareto": front.iter().map(|&i| &points[i]).collect::<Vec<_>>(),
        });
        if args.flag("stats") {
            if let serde_json::Value::Object(fields) = &mut out {
                fields.push(("stats".to_string(), serde_json::to_value(&stats)?));
            }
        }
        println!("{}", serde_json::to_string_pretty(&out)?);
    } else {
        if args.flag("stats") {
            println!(
                "stats: {} orderings generated, {} evaluated, {} pruned, {} prefix reuses, \
                 {:.1} ms",
                stats.search.generated,
                stats.search.evaluated,
                stats.search.pruned,
                stats.search.cache_hits,
                stats.wall_ms
            );
        }
        println!(
            "{} evaluated, {} on the Pareto front:",
            points.len(),
            front.len()
        );
        for &i in &front {
            let p = &points[i];
            println!(
                "  {:>2}x{:<2} wReg{} iReg{} oReg{} wLB{:>2}K iLB{:>2}K  {:>10.0} cc  {:>7.3} mm2",
                p.params.array_side,
                p.params.array_side,
                p.params.w_reg_words,
                p.params.i_reg_words,
                p.params.o_reg_words,
                p.params.w_lb_kb,
                p.params.i_lb_kb,
                p.latency,
                p.area_mm2
            );
        }
    }
    Ok(())
}

/// Resolves `--net`/`--file` into a layer list. Built-ins: `handtracking`
/// (default), `mobilenet`, `resnet18`, `alexnet`; `--file <path>` loads a
/// JSON network description instead. Conv/pointwise layers are Im2Col
/// lowered (the GEMM presets do not run depthwise natively; those layers
/// are skipped with a note).
fn resolve_network(args: &Args) -> Result<Vec<Layer>, UlmError> {
    let lowered = if let Some(path) = args.get("file") {
        let text = std::fs::read_to_string(path)?;
        let raw = ulm::workload::NetworkDesc::from_json(&text)?.to_layers()?;
        raw.iter().map(im2col).collect()
    } else {
        let name = args.get("net").unwrap_or("handtracking");
        networks::by_name(name).ok_or_else(|| {
            UlmError::config(format!(
                "unknown --net `{name}` ({})",
                networks::NAMES.join("|")
            ))
        })?
    };
    let mut layers = Vec::new();
    for l in lowered {
        match l {
            Ok(mm) => layers.push(mm),
            Err(e) => eprintln!("note: skipping {e}"),
        }
    }
    Ok(layers)
}

/// Parses one repeatable `--fuse layerA+layerB[+…]@MEM` spec into a
/// fused-segment descriptor; validation against the network and chip
/// happens inside the evaluator.
fn parse_fuse_spec(spec: &str) -> Result<FusedSegment, UlmError> {
    let bad = || {
        UlmError::config(format!(
            "`--fuse` must be layerA+layerB[+…]@MEM, got `{spec}`"
        ))
    };
    let (layers, pin) = spec.rsplit_once('@').ok_or_else(bad)?;
    let names: Vec<String> = layers.split('+').map(str::to_string).collect();
    if pin.is_empty() || names.iter().any(String::is_empty) {
        return Err(bad());
    }
    Ok(FusedSegment::new(names, pin))
}

/// `ulm network`: schedule a whole network end to end. `--arch` selects
/// the chip (default: the validation chip); repeatable
/// `--fuse logit+attend@LB` pins fused intermediates on chip.
pub fn network(args: &Args) -> Result<(), UlmError> {
    let (arch, spatial) = if args.get("arch").is_some() || args.get("arch-file").is_some() {
        resolve_arch(args)?
    } else {
        let chip = presets::validation_chip();
        (chip.arch, SpatialUnroll::new(chip.spatial))
    };
    let overlap = if args.flag("overlap") {
        InterLayerOverlap::WeightPrefetch
    } else {
        InterLayerOverlap::None
    };
    let fusion = args
        .get_all("fuse")
        .into_iter()
        .map(parse_fuse_spec)
        .collect::<Result<Vec<_>, _>>()?;
    let layers = resolve_network(args)?;
    let report = NetworkEvaluator::new(&arch, spatial)
        .with_overlap(overlap)
        .with_mapper_options(mapper_options(args)?)
        .with_fusion(fusion)
        .evaluate(&layers)?;
    print!("{report}");
    for seg in &report.segments {
        println!(
            "  fused @{}: {} edge(s), {} bits resident",
            seg.pin_name,
            seg.edges.len(),
            seg.footprint_bits()
        );
    }
    Ok(())
}

/// Service sizing shared by `ulm batch` and `ulm serve`. A
/// `--calibration <file>` feeds fitted constants to the service's
/// surrogate fast path (and its id into `/stats` and fingerprints).
fn serve_options(args: &Args) -> Result<ulm::serve::ServeOptions, UlmError> {
    let defaults = ulm::serve::ServeOptions::default();
    Ok(ulm::serve::ServeOptions {
        parallelism: args.threads("parallelism")?,
        cache_capacity: args.u64_or("cache-capacity", 4096)? as usize,
        queue_capacity: None,
        cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
        include_timing: !args.flag("no-timing"),
        max_line_len: args.u64_or("max-line-len", defaults.max_line_len as u64)? as usize,
        calibration: match args.get("calibration") {
            Some(path) => Some(load_calibration(path)?),
            None => None,
        },
    })
}

/// `--key <ms>` as an optional duration: 0 or absent disables it.
fn timeout_option(args: &Args, key: &str) -> Result<Option<std::time::Duration>, ArgError> {
    Ok(match args.u64_or(key, 0)? {
        0 => None,
        ms => Some(std::time::Duration::from_millis(ms)),
    })
}

/// `ulm batch`: answer NDJSON evaluation requests from stdin on stdout,
/// through the worker pool and the content-addressed result cache.
pub fn batch(args: &Args) -> Result<(), UlmError> {
    let service = ulm::serve::EvalService::open(serve_options(args)?)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let summary = ulm::serve::run_batch(&service, stdin.lock(), &mut out)?;
    let stats = service.cache_stats();
    eprintln!(
        "batch: {} requests ({} errors), cache {} hits / {} misses ({:.0}% hit rate)",
        summary.requests,
        summary.errors,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    Ok(())
}

/// `ulm serve`: the same NDJSON protocol over TCP, one line per request,
/// on one epoll event loop that multiplexes every connection (Linux only;
/// elsewhere it fails with `reactor/unsupported`).
pub fn serve(args: &Args) -> Result<(), UlmError> {
    let port = args.u64_or("port", 7878)?;
    let service = ulm::serve::EvalService::open(serve_options(args)?)?;
    if let Some(disk) = service.disk_stats() {
        eprintln!(
            "cache log: warmed {} entries from {} records{}",
            disk.warmed,
            disk.replayed_records,
            match &disk.recovered_from {
                Some(code) => format!(" (recovered from {code})"),
                None => String::new(),
            }
        );
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", port as u16))?;
    eprintln!(
        "serving NDJSON evaluation requests on {}",
        listener.local_addr()?
    );
    let defaults = ulm::reactor::ReactorOptions::default();
    let opts = ulm::reactor::ReactorOptions {
        max_connections: match args.u64_or("max-connections", 0)? {
            0 => defaults.max_connections,
            n => n as usize,
        },
        idle_timeout: timeout_option(args, "idle-timeout-ms")?,
        write_timeout: timeout_option(args, "write-timeout-ms")?,
        drain_timeout: timeout_option(args, "drain-timeout-ms")?.unwrap_or(defaults.drain_timeout),
        shutdown_on_stdin_close: args.flag("shutdown-on-stdin-close"),
        ..defaults
    };
    let summary = ulm::serve::run_reactor(&service, listener, opts)?;
    eprintln!(
        "reactor done: {} connections, {} requests, {} responses, \
         {} idle-closed, {} write-timeout, {} over-capacity, {} oversized, drained={}",
        summary.accepted,
        summary.requests,
        summary.responses,
        summary.closed_idle,
        summary.closed_write_timeout,
        summary.rejected_over_capacity,
        summary.oversized_lines,
        summary.drained_cleanly,
    );
    Ok(())
}

/// `ulm cache`: offline snapshot workflow for the durable result log —
/// `export` writes a compacted snapshot, `import` merges one into a cache
/// directory, `info` describes a log without touching it.
pub fn cache(args: &Args) -> Result<(), UlmError> {
    use ulm::serve::store::{read_log, write_log};
    let dir = || -> Result<std::path::PathBuf, UlmError> {
        args.get("cache-dir")
            .map(std::path::PathBuf::from)
            .ok_or_else(|| UlmError::config("ulm cache needs --cache-dir <dir>"))
    };
    let log_path = |dir: &std::path::Path| dir.join(ulm::serve::CACHE_LOG_FILE);
    match args.subcommand.as_deref() {
        Some("export") => {
            let out = args
                .get("out")
                .ok_or_else(|| UlmError::config("cache export needs --out <file>"))?;
            let (entries, report) = read_log(&log_path(&dir()?))?;
            if let Some(damage) = &report.corruption {
                eprintln!("warning: exporting valid prefix only ({damage})");
            }
            write_log(std::path::Path::new(out), &entries)?;
            println!(
                "exported {} entries ({} records read) to {out}",
                entries.len(),
                report.records
            );
        }
        Some("import") => {
            let from = args
                .get("from")
                .ok_or_else(|| UlmError::config("cache import needs --from <file>"))?;
            let (imported, report) = read_log(std::path::Path::new(from))?;
            if let Some(damage) = report.corruption {
                // Refuse damaged imports: a snapshot is supposed to be a
                // compacted, pristine file — damage means a bad copy.
                return Err(damage);
            }
            let target = log_path(&dir()?);
            let mut merged: std::collections::BTreeMap<u128, Vec<u8>> = match read_log(&target) {
                Ok((existing, _)) => existing.into_iter().collect(),
                // Absent target: start empty. A present-but-unreadable
                // target is a real error.
                Err(UlmError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    std::collections::BTreeMap::new()
                }
                Err(e) => return Err(e),
            };
            let before = merged.len();
            for (fp, payload) in imported {
                merged.insert(fp, payload);
            }
            let entries: Vec<(u128, Vec<u8>)> = merged.into_iter().collect();
            if let Some(parent) = target.parent() {
                std::fs::create_dir_all(parent)?;
            }
            write_log(&target, &entries)?;
            println!(
                "imported {} new entries ({} total) into {}",
                entries.len() - before,
                entries.len(),
                target.display()
            );
        }
        Some("info") => {
            let path = log_path(&dir()?);
            let bytes = std::fs::metadata(&path)?.len();
            let (entries, report) = read_log(&path)?;
            println!(
                "{}: {} bytes, {} records, {} distinct entries{}",
                path.display(),
                bytes,
                report.records,
                entries.len(),
                match &report.corruption {
                    Some(damage) =>
                        format!(", DAMAGED past byte {} ({damage})", report.valid_bytes),
                    None => ", clean".to_string(),
                }
            );
        }
        other => {
            return Err(UlmError::config(format!(
                "unknown cache action `{}` (export|import|info)",
                other.unwrap_or("<none>")
            )))
        }
    }
    Ok(())
}

/// The `ulm help` text.
const HELP: &str = "ulm — uniform latency model for DNN accelerators (DATE 2022 reproduction)

USAGE: ulm <command> [options]

COMMANDS
  evaluate   map one layer for lowest latency and print the full report
  whatif     re-evaluate the best mapping under --set knob overrides,
             incrementally, and report latency/energy deltas
  calibrate  fit per-port RealBW constants against simulator traces or a
             measurement CSV; report per-layer residuals (--out persists)
  surrogate  specialize the model once per (arch, mapping shape) and
             sweep workload dims through the closed-form fast path
  search     explore the mapping space (--objective latency|energy|edp, --all)
  validate   model vs discrete-event simulator on the hand-tracking layers
  dse        architecture design-space exploration with a Pareto front
  network    schedule a network end to end (--overlap, --fuse, --net)
  batch      answer NDJSON eval/search/stats requests from stdin on stdout
  serve      the same NDJSON protocol over TCP on one epoll event loop
             (Linux; --port, default 7878)
  cache      durable result log tools: cache export|import|info
  help       this text

COMMON OPTIONS
  --arch case16|case32|case64|validation|toy|fusion   (default case16)
  --arch-file <path.json>                      load a JSON architecture
  --gb-bw <bits/cycle>                         (default 128)
  --layer BxKxC                                (e.g. 64x96x640)
  --precision int8_out24|int8_acc24
  --samples <n>  --max-exhaustive <n>
  --threads <n>         dse: worker threads, one design each (0 = serial,
                        at most 256); every mapping search runs on one thread
  --stats               search/dse: print pruning/search statistics
  --objective latency|energy|edp   search: what to minimize (default latency)
  --all                 search: evaluate every mapping and list the best
  --top <n>             search --all: mappings to list (default 10)
  --sides 16,32,64      (dse)
  --layers <n>          (validate: limit layer count)
  --net handtracking|attention-prefill|attention-decode|mobilenet|
        resnet18|alexnet                        (network)
  --file <path.json>    (network: load a JSON network description)
  --fuse l1+l2[+…]@MEM  network: fuse consecutive layers depth-first,
                        pinning intermediates in MEM (repeatable)
  --set mem.<name>.<knob>=<value>   whatif: override size|bw|read_bw|write_bw
                        (value `2x`-style scale or absolute; repeatable)
  --verify              whatif: check the incremental result against a
                        cold evaluation of the modified design
                        calibrate: check the applied arch carries the fit
                        surrogate: check every point against the generic
                        pipeline, bit for bit
  --measurements <csv>  calibrate: import layer,b,k,c,mem,port,busy_cycles
                        rows instead of simulating the training ladder
  --out <file>          calibrate: persist the fitted calibration JSON
  --calibration <file>  surrogate/serve: apply a persisted calibration
  --b-list/--k-list/--c-list <n,…>   surrogate: workload sweep grid
                        (defaults: b 16,32,64,128,256; k,c from --layer)
  --json                machine-readable output
  --bw-unaware          use the stall-ignoring baseline model
  --overlap             weight-prefetch overlap (network)
  --parallelism <n>     worker threads (batch/serve; 0 = all cores, at most 256)
  --cache-capacity <n>  cached results (batch/serve; default 4096)
  --port <n>            TCP port (serve; default 7878)
  --max-connections <n> serve: concurrent-connection ceiling (0 = 65536)
  --cache-dir <dir>     batch/serve: persist results to <dir>/results.ulmlog
                        and warm the cache from it on startup
  --max-line-len <n>    request line length limit in bytes (default 1 MiB)
  --no-timing           omit elapsed_ms from responses (deterministic output)
  --idle-timeout-ms <n>     serve: close idle connections (0 = never)
  --write-timeout-ms <n>    serve: close slow-reading clients (0 = never)
  --drain-timeout-ms <n>    serve: shutdown drain budget (default 10000)
  --shutdown-on-stdin-close serve: exit cleanly when stdin reaches EOF
  --out <file>          cache export: snapshot destination
  --from <file>         cache import: snapshot to merge in";

/// `ulm help`.
pub fn help() {
    println!("{HELP}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    const COMMANDS: [&str; 11] = [
        "evaluate",
        "whatif",
        "calibrate",
        "surrogate",
        "search",
        "validate",
        "dse",
        "network",
        "batch",
        "serve",
        "cache",
    ];

    /// Every `--option` the help text names.
    fn help_options() -> Vec<&'static str> {
        HELP.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|w| w.strip_prefix("--"))
            .filter(|k| !k.is_empty())
            .collect()
    }

    #[test]
    fn every_option_in_help_is_accepted_and_every_accepted_one_is_in_help() {
        let accepted: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| accepted_options(c).expect("a known command"))
            .collect();
        let documented = help_options();
        for key in &documented {
            assert!(
                *key == "help" || accepted.contains(key),
                "--{key} is in `ulm help` but no command takes it"
            );
        }
        for key in &accepted {
            assert!(
                documented.contains(key),
                "--{key} is missing from `ulm help`"
            );
        }
        // The unannotated common options reach every command that maps a
        // layer on a chosen architecture.
        for command in ["evaluate", "whatif", "surrogate", "search"] {
            let own = accepted_options(command).unwrap();
            for key in [
                "arch",
                "arch-file",
                "gb-bw",
                "layer",
                "precision",
                "samples",
            ] {
                assert!(own.contains(&key), "`ulm {command}` rejects --{key}");
            }
        }
        assert_eq!(accepted_options("bogus"), None);
    }

    #[test]
    fn whatif_rejects_bad_knobs_with_namespaced_codes() {
        for (over, code) in [
            ("gb.bw=2x", "knob/unknown-path"),
            ("mem.NOPE.bw=2x", "knob/unknown-memory"),
            ("mem.GB.bw=fast", "knob/bad-value"),
            ("mem.GB.bw=0x", "knob/invalid-value"),
        ] {
            let args = parse(&["whatif", "--layer", "4x4x8", "--set", over]);
            let err = whatif(&args).expect_err(over);
            assert_eq!(err.code(), code, "{over}");
        }
        // No --set at all is a config error, not a knob error.
        let err = whatif(&parse(&["whatif", "--layer", "4x4x8"])).unwrap_err();
        assert_eq!(err.code(), "config/invalid");
    }

    #[test]
    fn whatif_verify_passes_on_a_real_override() {
        let args = parse(&[
            "whatif",
            "--layer",
            "8x16x32",
            "--max-exhaustive",
            "100",
            "--samples",
            "10",
            "--set",
            "mem.GB.bw=2x",
            "--verify",
            "--json",
        ]);
        whatif(&args).expect("incremental result must match cold evaluation");
    }
}
