//! Coded blocks.

use crate::error::Error;
use crate::segment::CodingConfig;

/// One coded block `x_j = Σ c_ji · b_i`: the coefficient vector that
/// produced it plus the `k`-byte coded payload.
///
/// The coefficients travel with the block (the standard practical-network-
/// coding header of Chou et al.), so any receiver can decode or recode
/// without coordination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedBlock {
    coefficients: Vec<u8>,
    payload: Vec<u8>,
}

impl CodedBlock {
    /// Assembles a coded block from its parts.
    pub fn new(coefficients: Vec<u8>, payload: Vec<u8>) -> CodedBlock {
        CodedBlock { coefficients, payload }
    }

    /// The coefficient vector `[c_1 … c_n]`.
    #[inline]
    pub fn coefficients(&self) -> &[u8] {
        &self.coefficients
    }

    /// The coded payload (`k` bytes).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Validates the block against a configuration.
    ///
    /// # Errors
    ///
    /// [`Error::CoefficientCountMismatch`] or [`Error::SizeMismatch`] when
    /// the block does not belong to a `(n, k)` generation of that shape.
    pub fn check(&self, config: CodingConfig) -> Result<(), Error> {
        if self.coefficients.len() != config.blocks() {
            return Err(Error::CoefficientCountMismatch {
                expected: config.blocks(),
                actual: self.coefficients.len(),
            });
        }
        if self.payload.len() != config.block_size() {
            return Err(Error::SizeMismatch {
                expected: config.block_size(),
                actual: self.payload.len(),
            });
        }
        Ok(())
    }

    /// Deconstructs into `(coefficients, payload)`.
    pub(crate) fn into_parts(self) -> (Vec<u8>, Vec<u8>) {
        (self.coefficients, self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CodingConfig {
        CodingConfig::new(4, 6).unwrap()
    }

    #[test]
    fn check_validates_shape() {
        let good = CodedBlock::new(vec![0; 4], vec![0; 6]);
        assert!(good.check(cfg()).is_ok());
        let bad_coeffs = CodedBlock::new(vec![0; 5], vec![0; 6]);
        assert!(matches!(
            bad_coeffs.check(cfg()),
            Err(Error::CoefficientCountMismatch { expected: 4, actual: 5 })
        ));
        let bad_payload = CodedBlock::new(vec![0; 4], vec![0; 7]);
        assert!(matches!(bad_payload.check(cfg()), Err(Error::SizeMismatch { .. })));
    }
}
