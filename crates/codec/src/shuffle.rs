//! Byte-shuffle transform (HDF5 shuffle filter).
//!
//! For `n` elements of `width` bytes, output all first bytes, then all
//! second bytes, … Grouping the (nearly constant) exponent bytes of a float
//! field produces long runs for the RLE/LZSS stage. Size-preserving;
//! trailing bytes that do not fill an element are appended verbatim.
//!
//! The kernels transpose `BLOCK` (8) elements at a time in registers: each
//! element is read once and every byte plane receives one `u64` store per
//! block. With `DELTA` set the same pass also applies the
//! [`XorDelta`](crate::XorDelta) predictor of the same width, which is how
//! [`Pipeline`](crate::Pipeline) runs an adjacent `xor-deltaN,shuffleN`
//! pair; the bytes produced are those of the two stages run one after the
//! other.

use crate::delta::{bytes_of, word_of};
use crate::{Codec, CodecError};

/// Byte-transpose elements of a fixed width.
#[derive(Debug, Clone, Copy)]
pub struct Shuffle {
    /// Element width in bytes.
    pub width: usize,
}

impl Shuffle {
    /// Create a shuffle for the given element width (1–16 bytes).
    pub fn new(width: usize) -> Self {
        assert!(
            (1..=16).contains(&width),
            "element width {width} out of range 1..=16"
        );
        Shuffle { width }
    }
}

impl Codec for Shuffle {
    fn name(&self) -> String {
        format!("shuffle{}", self.width)
    }

    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(input, &mut out);
        out
    }

    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        shuffle::<false>(self.width, input, out);
    }

    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(input, &mut out)?;
        Ok(out)
    }

    fn decode_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        unshuffle::<false>(self.width, input, out);
        Ok(())
    }
}

/// `xor-deltaN` followed by `shuffleN` in one pass over the input; what
/// [`Pipeline::from_spec`](crate::Pipeline::from_spec) builds for the two
/// adjacent tokens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaShuffle {
    pub(crate) width: usize,
}

impl Codec for DeltaShuffle {
    fn name(&self) -> String {
        format!("xor-delta{0},shuffle{0}", self.width)
    }

    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(input, &mut out);
        out
    }

    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        shuffle::<true>(self.width, input, out);
    }

    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(input, &mut out)?;
        Ok(out)
    }

    fn decode_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        unshuffle::<true>(self.width, input, out);
        Ok(())
    }
}

/// Elements transposed per block: one `u64` lane per byte plane.
const BLOCK: usize = 8;

fn shuffle<const DELTA: bool>(width: usize, input: &[u8], out: &mut Vec<u8>) {
    // Not cleared first: the kernel overwrites all of `out`, so a buffer
    // that already holds this many bytes is not filled again.
    out.resize(input.len(), 0);
    with_width!(width, shuffle_w::<DELTA>(input, out));
}

fn unshuffle<const DELTA: bool>(width: usize, input: &[u8], out: &mut Vec<u8>) {
    out.resize(input.len(), 0); // as in `shuffle`
    with_width!(width, unshuffle_w::<DELTA>(input, out));
}

/// One lane per byte plane: byte `j` of lane `k` is byte `k` of element
/// `j`. With `W` and [`BLOCK`] constant the loops unroll into straight-line
/// code that the compiler lowers to register byte-interleaves.
fn lanes_of<const W: usize>(elems: &[[u8; W]; BLOCK]) -> [u64; W] {
    std::array::from_fn(|k| u64::from_le_bytes(elems.map(|e| e[k])))
}

/// Inverse of [`lanes_of`].
fn elems_of<const W: usize>(lanes: &[u64; W]) -> [[u8; W]; BLOCK] {
    let mut elems = [[0u8; W]; BLOCK];
    for (k, lane) in lanes.iter().enumerate() {
        for (e, b) in elems.iter_mut().zip(lane.to_le_bytes()) {
            e[k] = b;
        }
    }
    elems
}

fn shuffle_w<const W: usize, const DELTA: bool>(input: &[u8], out: &mut [u8]) {
    let n = input.len() / W;
    let (body, tail) = input.split_at(n * W);
    let (planes, out_tail) = out.split_at_mut(n * W);
    out_tail.copy_from_slice(tail);
    let mut prev = 0u128;
    let mut i = 0;
    let mut blocks = body.chunks_exact(BLOCK * W);
    for block in &mut blocks {
        let mut elems = [[0u8; W]; BLOCK];
        for (e, src) in elems.iter_mut().zip(block.chunks_exact(W)) {
            e.copy_from_slice(src);
        }
        if DELTA {
            for e in &mut elems {
                let cur = word_of(e);
                *e = bytes_of(cur ^ prev);
                prev = cur;
            }
        }
        for (k, lane) in lanes_of(&elems).iter().enumerate() {
            planes[k * n + i..][..BLOCK].copy_from_slice(&lane.to_le_bytes());
        }
        i += BLOCK;
    }
    // Fewer than BLOCK elements left. Without DELTA `prev` stays zero.
    let mut prev: [u8; W] = bytes_of(prev);
    for elem in blocks.remainder().chunks_exact(W) {
        for k in 0..W {
            planes[k * n + i] = elem[k] ^ prev[k];
            if DELTA {
                prev[k] = elem[k];
            }
        }
        i += 1;
    }
}

fn unshuffle_w<const W: usize, const DELTA: bool>(input: &[u8], out: &mut [u8]) {
    let n = input.len() / W;
    let (planes, tail) = input.split_at(n * W);
    let (body, out_tail) = out.split_at_mut(n * W);
    out_tail.copy_from_slice(tail);
    let mut acc = 0u128;
    let mut i = 0;
    let mut blocks = body.chunks_exact_mut(BLOCK * W);
    for block in &mut blocks {
        let mut lanes = [0u64; W];
        for (k, lane) in lanes.iter_mut().enumerate() {
            let bytes = planes[k * n + i..][..BLOCK]
                .try_into()
                .expect("slice is BLOCK bytes");
            *lane = u64::from_le_bytes(bytes);
        }
        let mut elems = elems_of(&lanes);
        if DELTA {
            for e in &mut elems {
                acc ^= word_of(e);
                *e = bytes_of(acc);
            }
        }
        for (dst, e) in block.chunks_exact_mut(W).zip(&elems) {
            dst.copy_from_slice(e);
        }
        i += BLOCK;
    }
    // Fewer than BLOCK elements left. Without DELTA `acc` stays zero.
    let mut acc: [u8; W] = bytes_of(acc);
    for elem in blocks.into_remainder().chunks_exact_mut(W) {
        for k in 0..W {
            elem[k] = planes[k * n + i] ^ acc[k];
            if DELTA {
                acc[k] = elem[k];
            }
        }
        i += 1;
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The byte-at-a-time loops the kernels replaced, kept as the
    //! reference the kernels are tested against.

    pub(crate) fn shuffle(w: usize, input: &[u8]) -> Vec<u8> {
        let n = input.len() / w;
        let mut out = Vec::with_capacity(input.len());
        for k in 0..w {
            for i in 0..n {
                out.push(input[i * w + k]);
            }
        }
        out.extend_from_slice(&input[n * w..]);
        out
    }

    pub(crate) fn unshuffle(w: usize, input: &[u8]) -> Vec<u8> {
        let n = input.len() / w;
        let mut out = vec![0u8; input.len()];
        for k in 0..w {
            for i in 0..n {
                out[i * w + k] = input[k * n + i];
            }
        }
        out[n * w..].copy_from_slice(&input[n * w..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::oracle as delta_oracle;
    use crate::testutil::{byte_streams, CASES};
    use proptest::prelude::*;

    fn roundtrip(width: usize, data: &[u8]) {
        let c = Shuffle::new(width);
        let enc = c.encode(data);
        assert_eq!(enc.len(), data.len());
        assert_eq!(c.decode(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_assorted() {
        let data: Vec<u8> = (0..100u8).collect();
        for w in [1, 2, 4, 8, 16] {
            roundtrip(w, &data);
        }
        roundtrip(8, &[]);
        roundtrip(8, &[1, 2, 3]); // shorter than one element
    }

    #[test]
    fn transpose_layout_exact() {
        // Two 4-byte elements: [a0 a1 a2 a3][b0 b1 b2 b3]
        let data = [0xa0, 0xa1, 0xa2, 0xa3, 0xb0, 0xb1, 0xb2, 0xb3];
        let enc = Shuffle::new(4).encode(&data);
        assert_eq!(enc, [0xa0, 0xb0, 0xa1, 0xb1, 0xa2, 0xb2, 0xa3, 0xb3]);
    }

    #[test]
    fn exponent_bytes_group_into_runs() {
        // f64 values in a narrow range share their top bytes.
        let field: Vec<f64> = (0..512).map(|i| 1000.0 + i as f64 * 0.25).collect();
        let bytes: Vec<u8> = field.iter().flat_map(|f| f.to_le_bytes()).collect();
        let shuffled = Shuffle::new(8).encode(&bytes);
        // The last `n` bytes are the top bytes of every element — all equal.
        let n = field.len();
        let top = &shuffled[7 * n..8 * n];
        assert!(
            top.windows(2).all(|w| w[0] == w[1]),
            "top bytes should be constant"
        );
    }

    #[test]
    fn remainder_preserved() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]; // 11 bytes, width 4
        let enc = Shuffle::new(4).encode(&data);
        assert_eq!(&enc[8..], &data[8..]);
        assert_eq!(Shuffle::new(4).decode(&enc).unwrap(), data);
    }

    #[test]
    fn a_reused_longer_buffer_is_cut_to_the_input() {
        let mut out = vec![0xee; 64];
        Shuffle::new(4).encode_into(&[1, 2, 3, 4, 5, 6, 7, 8, 9], &mut out);
        assert_eq!(out, [1, 5, 2, 6, 3, 7, 4, 8, 9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn kernels_equal_the_scalar_oracle(data in byte_streams(), width in 1usize..=16) {
            let plain = oracle::shuffle(width, &data);
            prop_assert_eq!(&Shuffle::new(width).encode(&data), &plain);
            prop_assert_eq!(&Shuffle::new(width).decode(&plain).unwrap(), &oracle::unshuffle(width, &plain));

            let fused = DeltaShuffle { width };
            let two_stage = oracle::shuffle(width, &delta_oracle::encode(width, &data));
            prop_assert_eq!(&fused.encode(&data), &two_stage);
            let back = delta_oracle::decode(width, &oracle::unshuffle(width, &two_stage));
            prop_assert_eq!(&fused.decode(&two_stage).unwrap(), &back);
            prop_assert_eq!(back, data);
        }
    }
}
