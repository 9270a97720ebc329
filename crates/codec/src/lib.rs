//! # codec
//!
//! Lossless compression codecs for scientific data, run by the Damaris
//! storage engine over each variable's `codec=` chain to reproduce the
//! paper's §IV.D result:
//!
//! > "In our previous work we used this spare time to add data compression
//! > in files, and achieved a 600 % compression ratio without any overhead
//! > on the simulation."
//!
//! Smooth atmospheric fields (CM1's wind, temperature and moisture arrays)
//! compress extremely well once the floating-point layout is rearranged:
//!
//! * [`Shuffle`] — byte-transpose of fixed-size elements (HDF5's shuffle
//!   filter): groups exponent bytes together, creating long runs,
//! * [`XorDelta`] — XOR each word with its predecessor (FPC-style
//!   predictive transform): neighbouring grid values share exponent and
//!   high mantissa bits, so deltas are mostly zero bytes,
//! * [`Rle`] — PackBits run-length coding, eats the zero runs,
//! * [`Lzss`] — LZ77-family dictionary coder for the general case,
//! * [`Pipeline`] — composition, e.g. `"xor-delta8,shuffle8,rle"`.
//!
//! All codecs are `bytes → bytes`, deterministic, and round-trip exactly
//! (property-tested, including NaN payloads).
//!
//! ## Byte identity
//!
//! The encoded bytes of a spec are part of the `.dh5` file format, so they
//! are fixed: the transforms work a machine word at a time (`u64` XORs, a
//! blocked in-register byte transpose, run scans eight bytes per compare),
//! and every one of them produces exactly the bytes of the byte-at-a-time
//! definition in its module docs, on every platform. The scalar
//! definitions are kept under `#[cfg(test)]` as the oracles the kernels are
//! property-tested against for every width and tail length, and
//! `tests/golden.rs` pins encoded bytes recorded before the kernels existed.
//!
//! ## Fusion
//!
//! [`Pipeline::from_spec`] runs an adjacent `xor-deltaN,shuffleN` pair *of
//! equal width* as one pass (each element read once, `N` byte planes
//! written) instead of two passes through an intermediate buffer. This is
//! an execution detail only: [`Pipeline::spec`], [`Pipeline::len`], the
//! spec stored in file metadata, and the encoded bytes are those of the
//! two stages, and data encoded either way decodes either way. Unequal
//! widths, a reversed order, or a stage in between run unfused.
//!
//! ```
//! use codec::{Codec, Pipeline};
//!
//! // Mostly base state with a localized bubble — the CM1 output regime.
//! let field: Vec<f64> = (0..4096)
//!     .map(|i| if (2000..2100).contains(&i) { 301.5 } else { 300.0 })
//!     .collect();
//! let raw: Vec<u8> = field.iter().flat_map(|f| f.to_le_bytes()).collect();
//! let pipe = Pipeline::from_spec("xor-delta8,shuffle8,rle").unwrap();
//! let packed = pipe.encode(&raw);
//! assert!(packed.len() * 6 < raw.len(), "CM1-like data reaches 6:1");
//! assert_eq!(pipe.decode(&packed).unwrap(), raw);
//! ```

/// Call `$f::<W>` (or `$f::<W, $extra>`) with the runtime `$width`, which
/// the codec constructors keep within 1–16, as the const `W`.
macro_rules! with_width {
    ($width:expr, $f:ident $(::<$extra:ident>)? ($($arg:expr),*)) => {
        match $width {
            1 => $f::<1 $(, $extra)?>($($arg),*),
            2 => $f::<2 $(, $extra)?>($($arg),*),
            3 => $f::<3 $(, $extra)?>($($arg),*),
            4 => $f::<4 $(, $extra)?>($($arg),*),
            5 => $f::<5 $(, $extra)?>($($arg),*),
            6 => $f::<6 $(, $extra)?>($($arg),*),
            7 => $f::<7 $(, $extra)?>($($arg),*),
            8 => $f::<8 $(, $extra)?>($($arg),*),
            9 => $f::<9 $(, $extra)?>($($arg),*),
            10 => $f::<10 $(, $extra)?>($($arg),*),
            11 => $f::<11 $(, $extra)?>($($arg),*),
            12 => $f::<12 $(, $extra)?>($($arg),*),
            13 => $f::<13 $(, $extra)?>($($arg),*),
            14 => $f::<14 $(, $extra)?>($($arg),*),
            15 => $f::<15 $(, $extra)?>($($arg),*),
            16 => $f::<16 $(, $extra)?>($($arg),*),
            w => unreachable!("width {w} was checked at construction"),
        }
    };
}

pub mod delta;
pub mod lzss;
pub mod pipeline;
pub mod rle;
pub mod shuffle;

pub use delta::XorDelta;
pub use lzss::Lzss;
pub use pipeline::{EncodeScratch, Pipeline};
pub use rle::Rle;
pub use shuffle::Shuffle;

use std::fmt;

/// Decode failure: the input is not a valid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(
    /// Description of the corruption.
    pub String,
);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// Construct from any displayable message.
    pub fn new(msg: impl Into<String>) -> Self {
        CodecError(msg.into())
    }
}

/// A lossless byte-stream transform.
pub trait Codec: Send + Sync {
    /// Stable identifier usable in [`Pipeline::from_spec`] and in file
    /// metadata.
    fn name(&self) -> String;

    /// Compress/transform `input`.
    fn encode(&self, input: &[u8]) -> Vec<u8>;

    /// Compress/transform `input` into `out`, reusing `out`'s capacity.
    ///
    /// `out` is cleared first; its allocation is kept, so a caller that
    /// feeds same-sized blocks through a long-lived buffer (the storage
    /// pipeline's per-variable scratch) stops allocating once capacity has
    /// been established. The default implementation falls back to
    /// [`Codec::encode`] and copies; the built-in codecs override it to
    /// write in place.
    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let encoded = self.encode(input);
        out.extend_from_slice(&encoded);
    }

    /// Invert [`Codec::encode`]. Errors on corrupt input; never panics.
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Invert [`Codec::encode`] into `out`, reusing `out`'s capacity as
    /// [`Codec::encode_into`] does. On an error `out` holds unspecified
    /// bytes. The default implementation falls back to [`Codec::decode`].
    fn decode_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        *out = self.decode(input)?;
        Ok(())
    }
}

/// Compression ratio as the paper quotes it: original ÷ compressed
/// (600 % ⇔ 6.0).
pub fn compression_ratio(original_len: usize, compressed_len: usize) -> f64 {
    if compressed_len == 0 {
        return f64::INFINITY;
    }
    original_len as f64 / compressed_len as f64
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Inputs shared by the kernel-against-oracle property tests.

    use proptest::prelude::*;

    /// Cases per property; the miri lane interprets every one of them.
    pub(crate) const CASES: u32 = if cfg!(miri) { 4 } else { 256 };

    /// 0–4 KiB (0–300 bytes under miri), so every width meets every tail
    /// length: noise, or the runs, ramps and noise islands the run-length
    /// scan has to tell apart.
    pub(crate) fn byte_streams() -> impl Strategy<Value = Vec<u8>> {
        let max = if cfg!(miri) { 300 } else { 4096 };
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..=max),
            proptest::collection::vec(
                prop_oneof![
                    (any::<u8>(), 1usize..300).prop_map(|(b, n)| vec![b; n]),
                    (any::<u8>(), 1usize..150)
                        .prop_map(|(b, n)| (0..n).map(|i| b.wrapping_add(i as u8)).collect()),
                    proptest::collection::vec(any::<u8>(), 1..40),
                ],
                0..max / 100,
            )
            .prop_map(move |chunks| {
                let mut bytes = chunks.concat();
                bytes.truncate(max);
                bytes
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_matches_paper_convention() {
        assert!((compression_ratio(600, 100) - 6.0).abs() < 1e-12);
        assert_eq!(compression_ratio(10, 0), f64::INFINITY);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CodecError::new("truncated").to_string(),
            "codec error: truncated"
        );
    }
}
