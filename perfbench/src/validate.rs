//! The model's accuracy against the discrete-event simulator, recorded
//! by every traced run: a change that claims only speed must leave it
//! bit-identical.

use crate::metrics::{mean, Layers};
use ulm_arch::presets;
use ulm_mapper::{Mapper, MapperOptions, Objective};
use ulm_mapping::{MappedLayer, SpatialUnroll};
use ulm_workload::networks;

/// Records the model's accuracy against `ulm-sim` on the hand-tracking
/// validation layers, as `ulm validate --json` computes it (mean and
/// worst per-layer accuracy in %). Returns the number of layers that
/// could not be evaluated.
pub fn accuracy_into(layers: &mut Layers) -> u64 {
    let chip = presets::validation_chip();
    let spatial = SpatialUnroll::new(chip.spatial.clone());
    let opts = MapperOptions {
        max_exhaustive: 3_000,
        samples: 120,
        ..MapperOptions::default()
    };
    let mut acc = Vec::new();
    let mut failed = 0;
    for layer in &networks::handtracking_validation_layers() {
        let best = match Mapper::new(&chip.arch, layer, spatial.clone())
            .with_options(opts)
            .search(Objective::Latency)
        {
            Ok(r) => r.best,
            Err(_) => {
                failed += 1;
                continue;
            }
        };
        let sim = MappedLayer::new(layer, &chip.arch, &best.mapping)
            .ok()
            .and_then(|view| ulm_sim::Simulator::new().simulate(&view).ok());
        match sim {
            Some(sim) => {
                let cycles = sim.total_cycles as f64;
                acc.push((1.0 - (best.latency.cc_total - cycles).abs() / cycles) * 100.0);
            }
            None => failed += 1,
        }
    }
    layers.insert("accuracy.mean_pct", mean(&acc));
    layers.insert(
        "accuracy.worst_pct",
        acc.iter().copied().fold(f64::INFINITY, f64::min).min(100.0),
    );
    failed
}
