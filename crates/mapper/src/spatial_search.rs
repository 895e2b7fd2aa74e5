//! Spatial-mapping search: enumerate candidate spatial unrollings for a
//! layer on an array and search jointly over (spatial, temporal) — the
//! outer loop of a ZigZag-style DSE ("for each design point, mapping
//! optimization … is performed", Case study 3).

use crate::factorize::Factor;
use crate::{covered, EvaluatedMapping, Mapper, MapperError, MapperOptions, Objective};
use ulm_arch::Architecture;
use ulm_mapping::SpatialUnroll;
use ulm_workload::{Dim, Layer};

/// Options for spatial candidate generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialOptions {
    /// Dimensions allowed to unroll spatially (order matters only for
    /// display). Defaults to `K, B, C` — the GEMM-style axes.
    pub dims: Vec<Dim>,
    /// Minimum fraction of the MAC array a candidate must occupy.
    pub min_utilization: f64,
    /// Maximum number of candidates to keep (best utilization first).
    pub max_candidates: usize,
}

impl Default for SpatialOptions {
    fn default() -> Self {
        Self {
            dims: vec![Dim::K, Dim::B, Dim::C],
            min_utilization: 0.5,
            max_candidates: 24,
        }
    }
}

/// Enumerates spatial unrollings: per allowed dimension a divisor-bounded
/// factor, product within the array size, layer bounds respected,
/// filtered by utilization and sorted best-first.
pub fn spatial_candidates(
    arch: &Architecture,
    layer: &Layer,
    opts: &SpatialOptions,
) -> Vec<SpatialUnroll> {
    let macs = arch.mac_array().num_macs();
    let mut out: Vec<(u64, SpatialUnroll)> = Vec::new();
    // Depth-first over per-dim powers of two (hardware arrays are
    // power-of-two sided; non-power factors rarely map onto them).
    fn rec(
        dims: &[Dim],
        layer: &Layer,
        macs: u64,
        acc: &mut Vec<(Dim, u64)>,
        product: u64,
        out: &mut Vec<(u64, SpatialUnroll)>,
    ) {
        match dims.split_first() {
            None => {
                if product > 1 {
                    out.push((product, SpatialUnroll::new(acc.clone())));
                }
            }
            Some((&d, rest)) => {
                let bound = layer.shape().dim(d);
                let mut f = 1u64;
                while f <= bound.next_power_of_two() && product * f <= macs {
                    acc.push((d, f));
                    rec(rest, layer, macs, acc, product * f, out);
                    acc.pop();
                    f *= 2;
                }
            }
        }
    }
    let mut acc = Vec::new();
    rec(&opts.dims, layer, macs, &mut acc, 1, &mut out);
    out.retain(|(p, _)| (*p as f64 / macs as f64) >= opts.min_utilization);
    out.sort_by_key(|(p, _)| std::cmp::Reverse(*p));
    out.dedup_by(|a, b| a.1 == b.1);
    out.into_iter()
        .take(opts.max_candidates)
        .map(|(_, s)| s)
        .collect()
}

/// Searches jointly over spatial candidates and temporal orderings;
/// returns the best mapping and the spatial unrolling it uses. Each
/// candidate runs [`Mapper::search_fast`]; only the overall winner is
/// reported.
///
/// # Errors
///
/// Returns [`MapperError::NoLegalMapping`] if no candidate yields a legal
/// mapping.
pub fn search_spatial(
    arch: &Architecture,
    layer: &Layer,
    spatial_opts: &SpatialOptions,
    mapper_opts: MapperOptions,
    obj: Objective,
) -> Result<(SpatialUnroll, EvaluatedMapping), MapperError> {
    let candidates = spatial_candidates(arch, layer, spatial_opts);
    let mut tried = 0usize;
    let mut best: Option<(f64, Mapper<'_>, Vec<Factor>)> = None;
    for spatial in candidates {
        let mapper = Mapper::new(arch, layer, spatial).with_options(mapper_opts);
        match mapper.search_fast(obj) {
            Ok(r) => {
                tried += covered(r.exhaustive, r.space_size, r.stats.generated);
                if best.as_ref().is_none_or(|(score, ..)| r.score < *score) {
                    best = Some((r.score, mapper, r.ordering));
                }
            }
            Err(MapperError::NoLegalMapping { tried: t }) => tried += t,
        }
    }
    let (_, mapper, ordering) = best.ok_or(MapperError::NoLegalMapping { tried })?;
    let report = mapper
        .evaluate_ordering(&ordering)
        .expect("winning ordering was legal in the kernel");
    Ok((mapper.spatial.clone(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_arch::presets;
    use ulm_workload::Precision;

    #[test]
    fn candidates_respect_array_and_layer_bounds() {
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("l", 32, 64, 128, Precision::int8_acc24());
        let cands = spatial_candidates(&arch, &layer, &SpatialOptions::default());
        assert!(!cands.is_empty());
        for s in &cands {
            assert!(s.product() <= 256, "{s}");
            assert!(s.utilization(256) >= 0.5, "{s}");
            // No dim unrolled beyond its (power-of-two-rounded) bound.
            assert!(s.extent(Dim::B) <= 32);
            assert!(s.extent(Dim::K) <= 64);
            assert!(s.extent(Dim::C) <= 128);
        }
        // Best-utilization candidates first.
        assert!(cands[0].product() >= cands.last().unwrap().product());
    }

    #[test]
    fn small_layers_still_get_candidates() {
        // K=8 cannot fill a 256-MAC array alone; B and C must help, and
        // the utilization floor adapts to what is achievable.
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("s", 64, 8, 64, Precision::int8_acc24());
        let cands = spatial_candidates(&arch, &layer, &SpatialOptions::default());
        assert!(!cands.is_empty());
        assert!(cands[0].product() == 256, "{}", cands[0]);
    }

    #[test]
    fn joint_search_beats_or_matches_the_fixed_preset_spatial() {
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("j", 128, 128, 8, Precision::int8_out24());
        let opts = MapperOptions {
            max_exhaustive: 500,
            samples: 40,
            ..MapperOptions::default()
        };
        let fixed = Mapper::new(
            &arch,
            &layer,
            SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]),
        )
        .with_options(opts)
        .search(Objective::Latency)
        .unwrap();
        let (spatial, joint) = search_spatial(
            &arch,
            &layer,
            &SpatialOptions::default(),
            opts,
            Objective::Latency,
        )
        .unwrap();
        assert!(
            joint.latency.cc_total <= fixed.best.latency.cc_total + 1e-9,
            "joint {} (spatial {spatial}) lost to fixed {}",
            joint.latency.cc_total,
            fixed.best.latency.cc_total
        );
    }

    #[test]
    fn no_candidate_means_clean_error() {
        // A 1x1x1 layer cannot occupy >= 50% of a 256-MAC array.
        let arch = presets::case_study_chip(128);
        let layer = Layer::matmul("t", 1, 1, 1, Precision::int8_acc24());
        let r = search_spatial(
            &arch,
            &layer,
            &SpatialOptions::default(),
            MapperOptions::default(),
            Objective::Latency,
        );
        assert!(matches!(r, Err(MapperError::NoLegalMapping { .. })));
    }
}
