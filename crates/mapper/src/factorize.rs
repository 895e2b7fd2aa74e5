//! Prime factorization of loop bounds into orderable loop factors.

use ulm_workload::Dim;

/// Prime factorization of `n`, smallest factor first. `factorize(1)` is
/// empty.
///
/// # Example
///
/// ```
/// use ulm_mapper::factorize::factorize;
/// assert_eq!(factorize(12), vec![2, 2, 3]);
/// assert_eq!(factorize(1), Vec::<u64>::new());
/// assert_eq!(factorize(97), vec![97]);
/// ```
pub fn factorize(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut p = 2u64;
    while p * p <= n {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
        p += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// One temporal loop factor awaiting ordering: a prime iteration count
/// along one dimension.
pub type Factor = (Dim, u64);

/// The multiset of temporal loop factors a layer needs on top of a given
/// spatial unrolling: for each dimension, the prime factors of
/// `ceil(bound / spatial_extent)`.
pub fn temporal_factors(
    dims: &ulm_workload::DimSizes,
    spatial: &ulm_mapping::SpatialUnroll,
) -> Vec<Factor> {
    let mut out = Vec::new();
    for (dim, bound) in dims.iter() {
        let needed = bound.div_ceil(spatial.extent(dim));
        for p in factorize(needed) {
            out.push((dim, p));
        }
    }
    out
}

/// Number of distinct orderings of the factor multiset:
/// `n! / Π (multiplicity!)`, saturating at `u128::MAX`.
pub fn ordering_count(factors: &[Factor]) -> u128 {
    let mut numer: u128 = 1;
    for i in 1..=(factors.len() as u128) {
        numer = numer.saturating_mul(i);
    }
    if numer == u128::MAX {
        return u128::MAX;
    }
    // Each factor's multiplicity, counted at its first occurrence: the
    // multiset is a dozen or two factors, so a quadratic scan needs no
    // hashing and no copy.
    let mut denom: u128 = 1;
    for (i, f) in factors.iter().enumerate() {
        if factors[..i].contains(f) {
            continue;
        }
        let c = factors[i..].iter().filter(|g| *g == f).count() as u128;
        for j in 1..=c {
            denom = denom.saturating_mul(j);
        }
    }
    numer / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulm_mapping::SpatialUnroll;
    use ulm_workload::DimSizes;

    #[test]
    fn factorize_basics() {
        assert_eq!(factorize(360), vec![2, 2, 2, 3, 3, 5]);
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(1), Vec::<u64>::new());
    }

    #[test]
    fn temporal_factors_respect_spatial() {
        // B=64, K=96, C=640 over spatial K16|B8|C2 -> temporal 8, 6, 320.
        let dims = DimSizes::new(64, 96, 640, 1, 1, 1, 1);
        let spatial = SpatialUnroll::new(vec![(Dim::K, 16), (Dim::B, 8), (Dim::C, 2)]);
        let f = temporal_factors(&dims, &spatial);
        let prod_b: u64 = f
            .iter()
            .filter(|(d, _)| *d == Dim::B)
            .map(|(_, p)| p)
            .product();
        let prod_k: u64 = f
            .iter()
            .filter(|(d, _)| *d == Dim::K)
            .map(|(_, p)| p)
            .product();
        let prod_c: u64 = f
            .iter()
            .filter(|(d, _)| *d == Dim::C)
            .map(|(_, p)| p)
            .product();
        assert_eq!((prod_b, prod_k, prod_c), (8, 6, 320));
    }

    #[test]
    fn ceil_division_pads() {
        // B=10 over spatial B8 -> ceil = 2 (one padded iteration).
        let dims = DimSizes::new(10, 1, 1, 1, 1, 1, 1);
        let spatial = SpatialUnroll::new(vec![(Dim::B, 8)]);
        let f = temporal_factors(&dims, &spatial);
        assert_eq!(f, vec![(Dim::B, 2)]);
    }

    #[test]
    fn ordering_count_matches_multiset_formula() {
        // [2_B, 2_B, 3_K]: 3!/2! = 3 orderings.
        let f = vec![(Dim::B, 2), (Dim::B, 2), (Dim::K, 3)];
        assert_eq!(ordering_count(&f), 3);
        // Empty multiset: exactly one (empty) ordering.
        assert_eq!(ordering_count(&[]), 1);
    }
}
