//! Element types storable in distributed arrays.

/// A fixed-size scalar that can live in a distributed array and be streamed
/// to checkpoint files in little-endian byte order.
///
/// The byte encoding is part of the checkpoint file format: it must be
/// stable across platforms and independent of the distribution, so each
/// implementation spells out its little-endian conversion explicitly.
pub trait Element: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Size of the encoded element in bytes.
    const SIZE: usize;

    /// Stable one-byte type code recorded in checkpoint manifests so a
    /// restart can verify it is loading the element type it expects.
    const CODE: u8;

    /// Writes the little-endian encoding into `out` (exactly `SIZE` bytes).
    fn write_le(&self, out: &mut [u8]);

    /// Reads an element from its little-endian encoding.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_element {
    ($($t:ty => $code:expr),*) => {$(
        impl Element for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const CODE: u8 = $code;

            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                let mut le = [0u8; std::mem::size_of::<$t>()];
                le.copy_from_slice(&bytes[..Self::SIZE]);
                <$t>::from_le_bytes(le)
            }
        }
    )*};
}

impl_element!(f64 => 1, f32 => 2, i64 => 3, i32 => 4, u64 => 5, u32 => 6, u8 => 7);

/// Encodes `vals` into `out` as little-endian bytes, element by element —
/// the stream and checkpoint byte format.
///
/// # Panics
///
/// If `out` is not exactly `vals.len() * T::SIZE` bytes long.
pub fn encode_into<T: Element>(vals: &[T], out: &mut [u8]) {
    assert_eq!(out.len(), vals.len() * T::SIZE, "encode_into: output length vs elements");
    for (v, chunk) in vals.iter().zip(out.chunks_exact_mut(T::SIZE)) {
        v.write_le(chunk);
    }
}

/// Decodes little-endian bytes into `out`, element by element: the
/// inverse of [`encode_into`].
///
/// # Panics
///
/// If `bytes` is not exactly `out.len() * T::SIZE` bytes long.
pub fn decode_into<T: Element>(bytes: &[u8], out: &mut [T]) {
    assert_eq!(bytes.len(), out.len() * T::SIZE, "decode_into: input length vs elements");
    for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
        *v = T::read_le(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<T: Element>(vals: &[T]) -> Vec<u8> {
        let mut out = vec![0u8; vals.len() * T::SIZE];
        encode_into(vals, &mut out);
        out
    }

    fn decode<T: Element>(bytes: &[u8]) -> Vec<T> {
        let mut out = vec![T::default(); bytes.len() / T::SIZE];
        decode_into(bytes, &mut out);
        out
    }

    #[test]
    fn roundtrip_f64() {
        let vals = [1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = encode(&vals);
        assert_eq!(bytes.len(), vals.len() * 8);
        assert_eq!(decode::<f64>(&bytes), vals);
    }

    #[test]
    fn roundtrip_various_types() {
        assert_eq!(decode::<i32>(&encode(&[-5i32, 7])), vec![-5, 7]);
        assert_eq!(decode::<u8>(&encode(&[0u8, 255])), vec![0, 255]);
        assert_eq!(decode::<u64>(&encode(&[u64::MAX])), vec![u64::MAX]);
        assert_eq!(decode::<f32>(&encode(&[3.5f32])), vec![3.5]);
    }

    #[test]
    fn encoding_is_little_endian() {
        let bytes = encode(&[1u32]);
        assert_eq!(bytes, vec![1, 0, 0, 0]);
    }

    #[test]
    fn empty_roundtrip() {
        let bytes = encode::<f64>(&[]);
        assert!(bytes.is_empty());
        assert!(decode::<f64>(&bytes).is_empty());
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn encode_into_rejects_a_short_buffer() {
        encode_into(&[1.0f64, 2.0], &mut [0u8; 15]);
    }
}
