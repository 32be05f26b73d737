//! Random coefficient generation.

use rand::Rng;

/// Draws coefficient vectors for random network coding.
///
/// The paper benchmarks with **fully dense** matrices — every coefficient
/// non-zero — noting that "the performance will be even higher with sparser
/// matrices". [`CoefficientRng`] supports both regimes via a density
/// parameter.
#[derive(Clone, Debug)]
pub struct CoefficientRng {
    density: f64,
}

impl CoefficientRng {
    /// Fully dense coefficients: every draw is uniform over `1..=255`
    /// (the paper's benchmark setting).
    pub fn dense() -> CoefficientRng {
        CoefficientRng { density: 1.0 }
    }

    /// Sparse coefficients: each position is non-zero with probability
    /// `density` (uniform over `1..=255` when non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not within `(0.0, 1.0]`.
    pub fn sparse(density: f64) -> CoefficientRng {
        assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1], got {density}");
        CoefficientRng { density }
    }

    /// Fills `out` with one coefficient vector draw.
    pub(crate) fn fill(&self, rng: &mut impl Rng, out: &mut [u8]) {
        if self.density >= 1.0 {
            for c in out.iter_mut() {
                *c = rng.gen_range(1..=255);
            }
        } else {
            for c in out.iter_mut() {
                *c = if rng.gen_bool(self.density) { rng.gen_range(1..=255) } else { 0 };
            }
        }
    }

    /// Allocates and fills a coefficient vector of length `n`.
    pub fn draw(&self, rng: &mut impl Rng, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill(rng, &mut out);
        out
    }
}

impl Default for CoefficientRng {
    fn default() -> Self {
        CoefficientRng::dense()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dense_never_draws_zero() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let coeffs = CoefficientRng::dense().draw(&mut rng, 10_000);
        assert!(coeffs.iter().all(|&c| c != 0));
    }

    #[test]
    fn sparse_density_is_respected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let coeffs = CoefficientRng::sparse(0.25).draw(&mut rng, 100_000);
        let nonzero = coeffs.iter().filter(|&&c| c != 0).count();
        let ratio = nonzero as f64 / coeffs.len() as f64;
        assert!((ratio - 0.25).abs() < 0.01, "observed density {ratio}");
    }

    #[test]
    #[should_panic]
    fn zero_density_is_rejected() {
        let _ = CoefficientRng::sparse(0.0);
    }

    #[test]
    fn draws_are_reproducible_with_seed() {
        let a = CoefficientRng::dense().draw(&mut rand::rngs::StdRng::seed_from_u64(42), 64);
        let b = CoefficientRng::dense().draw(&mut rand::rngs::StdRng::seed_from_u64(42), 64);
        assert_eq!(a, b);
    }
}
