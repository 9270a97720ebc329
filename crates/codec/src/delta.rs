//! XOR-delta predictive transform for fixed-width words.
//!
//! Neighbouring values of a smooth field share sign, exponent and leading
//! mantissa bits, so `x[i] ^ x[i-1]` is mostly zero bytes — which the RLE
//! and LZSS stages then collapse. This is the core idea of float compressors
//! such as FPC, restricted to the previous-value predictor.
//!
//! Size-preserving; trailing bytes that do not fill a word are copied.

use crate::{Codec, CodecError};

/// XOR each `width`-byte word with its predecessor.
#[derive(Debug, Clone, Copy)]
pub struct XorDelta {
    /// Word width in bytes (e.g. 8 for `f64`, 4 for `f32`).
    pub width: usize,
}

impl XorDelta {
    /// Create a transform for the given word width (1–16 bytes).
    pub fn new(width: usize) -> Self {
        assert!(
            (1..=16).contains(&width),
            "word width {width} out of range 1..=16"
        );
        XorDelta { width }
    }
}

impl Codec for XorDelta {
    fn name(&self) -> String {
        format!("xor-delta{}", self.width)
    }

    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        let w = self.width;
        out.clear();
        out.extend_from_slice(input);
        // Only full words participate; trailing remainder stays verbatim.
        let full = input.len() - input.len() % w;
        if full <= w {
            return;
        }
        // Every output byte is `input[i] ^ input[i - w]`, so the words
        // carry no dependency on each other: XOR the input against itself
        // shifted by one word, eight bytes at a time whatever `w` is.
        let mut dst = out[w..full].chunks_exact_mut(8);
        let mut lag = input[..full - w].chunks_exact(8);
        for (d, p) in (&mut dst).zip(&mut lag) {
            let x = u64::from_ne_bytes((&*d).try_into().expect("chunk is 8 bytes"))
                ^ u64::from_ne_bytes(p.try_into().expect("chunk is 8 bytes"));
            d.copy_from_slice(&x.to_ne_bytes());
        }
        for (d, p) in dst.into_remainder().iter_mut().zip(lag.remainder()) {
            *d ^= p;
        }
    }

    fn max_encoded_len(&self, n: usize) -> usize {
        n
    }

    fn decode_bounded(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<(), CodecError> {
        if input.len() > limit {
            return Err(crate::over_limit(&self.name(), limit));
        }
        out.clear();
        out.extend_from_slice(input);
        with_width!(self.width, accumulate(out));
        Ok(())
    }
}

/// A `W`-byte element (`W` ≤ 16) as an integer, zero-extended.
pub(crate) fn word_of<const W: usize>(elem: &[u8; W]) -> u128 {
    let mut bytes = [0u8; 16];
    bytes[..W].copy_from_slice(elem);
    u128::from_le_bytes(bytes)
}

/// Inverse of [`word_of`].
pub(crate) fn bytes_of<const W: usize>(word: u128) -> [u8; W] {
    word.to_le_bytes()[..W].try_into().expect("W is at most 16")
}

/// Running XOR over whole `W`-byte words, in place: the decode direction,
/// where each word needs the decoded word before it, so the chain is one
/// register XOR per word.
fn accumulate<const W: usize>(data: &mut [u8]) {
    let mut acc = 0u128;
    for word in data.chunks_exact_mut(W) {
        let word: &mut [u8; W] = word.try_into().expect("chunk is W bytes");
        acc ^= word_of(word);
        *word = bytes_of(acc);
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The byte-at-a-time loops the kernels replaced, kept as the
    //! reference the kernels are tested against.

    pub(crate) fn encode(w: usize, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        let full = input.len() - input.len() % w;
        for i in w..full {
            out[i] = input[i] ^ input[i - w];
        }
        out
    }

    pub(crate) fn decode(w: usize, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        let full = input.len() - input.len() % w;
        for i in w..full {
            out[i] ^= out[i - w]; // forward pass accumulates
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{byte_streams, CASES};
    use proptest::prelude::*;

    fn roundtrip(width: usize, data: &[u8]) {
        let c = XorDelta::new(width);
        let enc = c.encode(data);
        assert_eq!(enc.len(), data.len(), "size-preserving");
        assert_eq!(c.decode(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_widths_and_lengths() {
        let data: Vec<u8> = (0..123u8).collect();
        for w in [1, 2, 4, 8, 16] {
            roundtrip(w, &data);
        }
        roundtrip(8, &[]);
        roundtrip(8, &[1, 2, 3]); // shorter than one word
        roundtrip(8, &[9; 8]); // exactly one word
    }

    #[test]
    fn smooth_f64_becomes_sparse() {
        let field: Vec<f64> = (0..1024).map(|i| 300.0 + (i as f64) * 1e-4).collect();
        let bytes: Vec<u8> = field.iter().flat_map(|f| f.to_le_bytes()).collect();
        let enc = XorDelta::new(8).encode(&bytes);
        let zeros = enc.iter().filter(|&&b| b == 0).count();
        let raw_zeros = bytes.iter().filter(|&&b| b == 0).count();
        // Neighbouring values share sign/exponent/top-mantissa bits, so the
        // delta stream has far more zero bytes than the raw stream (the low
        // mantissa bytes stay noisy — that is expected for full precision).
        assert!(
            zeros > bytes.len() / 4 && zeros > raw_zeros,
            "expected sparser delta stream: {zeros}/{} zeros vs {raw_zeros} raw",
            bytes.len()
        );
    }

    #[test]
    fn constant_stream_is_all_zeros_after_first_word() {
        let bytes: Vec<u8> = std::iter::repeat_n(7.5f64.to_le_bytes(), 100)
            .flatten()
            .collect();
        let enc = XorDelta::new(8).encode(&bytes);
        assert!(enc[8..].iter().all(|&b| b == 0));
        assert_eq!(&enc[..8], &7.5f64.to_le_bytes());
    }

    #[test]
    fn trailing_remainder_untouched() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10]; // 10 bytes, width 4
        let enc = XorDelta::new(4).encode(&data);
        assert_eq!(&enc[8..], &data[8..], "remainder copied verbatim");
        assert_eq!(XorDelta::new(4).decode(&enc).unwrap(), data);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        let _ = XorDelta::new(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn kernels_equal_the_scalar_oracle(data in byte_streams(), width in 1usize..=16) {
            let c = XorDelta::new(width);
            let enc = oracle::encode(width, &data);
            prop_assert_eq!(&c.encode(&data), &enc);
            prop_assert_eq!(&c.decode(&enc).unwrap(), &oracle::decode(width, &enc));
            prop_assert_eq!(c.decode(&enc).unwrap(), data);
        }
    }
}
