//! The codec registry: every coding backend this build can negotiate.
//!
//! An announce carries a [`CodecId`] byte; the receiver looks the id up
//! here to build the matching [`StreamCodecReceiver`](nc_rlnc::codec::StreamCodecReceiver). Senders pick their
//! backend at publish time by constructing the concrete sender (or via
//! [`make_sender`]) — the session machinery is backend-blind either way.
//!
//! The registry is total over [`CodecId`]: the wire layer already rejects
//! codec bytes this build does not know
//! ([`WireError::UnknownCodec`](crate::wire::WireError::UnknownCodec)),
//! so every id that reaches [`codec_for`] has a backend.

use nc_fft::Fft16Codec;
use nc_rlnc::circshift::CircShiftCodec;
use nc_rlnc::codec::{CodecId, DenseRlncCodec, ErasureCodec, StreamCodecSender};
use nc_rlnc::{CodingConfig, Error};
use std::sync::Arc;

static DENSE_RLNC: DenseRlncCodec = DenseRlncCodec;
static FFT16: Fft16Codec = Fft16Codec;
static CIRC_SHIFT: CircShiftCodec = CircShiftCodec;

/// The backend registered for `id`.
pub fn codec_for(id: CodecId) -> &'static dyn ErasureCodec {
    match id {
        CodecId::DenseRlnc => &DENSE_RLNC,
        CodecId::Fft16 => &FFT16,
        CodecId::CircShift => &CIRC_SHIFT,
        // `CodecId` is non_exhaustive, but `CodecId::from_wire` (the only
        // way wire input becomes an id) never yields ids beyond the above.
        _ => &DENSE_RLNC,
    }
}

/// Builds the sending half of `id`'s backend for `data` under `config` —
/// the publish-time convenience mirroring the receiver's announce path.
///
/// # Errors
///
/// The backend's shape errors (empty data, odd block size for GF(2^16)
/// codecs, …).
pub fn make_sender(
    id: CodecId,
    config: CodingConfig,
    data: &[u8],
) -> Result<Arc<dyn StreamCodecSender>, Error> {
    codec_for(id).make_sender(config, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_maps_every_id_to_its_own_backend() {
        for id in [CodecId::DenseRlnc, CodecId::Fft16, CodecId::CircShift] {
            assert_eq!(codec_for(id).id(), id);
        }
    }

    #[test]
    fn make_sender_builds_the_negotiated_backend() {
        let config = CodingConfig::new(4, 16).unwrap();
        let data = vec![7u8; 100];
        for id in [CodecId::DenseRlnc, CodecId::Fft16, CodecId::CircShift] {
            let sender = make_sender(id, config, &data).unwrap();
            assert_eq!(sender.codec(), id);
            assert_eq!(sender.original_len(), data.len());
        }
    }
}
