//! Codec composition and the spec-string registry.
//!
//! Damaris actions reference compression as a plugin parameter, e.g.
//! `<param name="pipeline" value="xor-delta8,shuffle8,rle"/>`. The
//! [`Pipeline`] type resolves such a spec into a chain of codecs; encoding
//! applies them left to right, decoding right to left.

use crate::shuffle::DeltaShuffle;
use crate::{Codec, CodecError, Lzss, Rle, Shuffle, XorDelta};

/// An ordered chain of codecs acting as one codec.
pub struct Pipeline {
    /// What runs: the spec's stages, with each adjacent
    /// `xor-deltaN,shuffleN` pair of equal width held as one fused stage.
    stages: Vec<Box<dyn Codec>>,
    /// Stages the spec names, fused or not.
    len: usize,
    spec: String,
}

/// One parsed spec token.
enum Stage {
    Rle,
    Lzss,
    XorDelta(usize),
    Shuffle(usize),
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec)
            .finish()
    }
}

impl Pipeline {
    /// Resolve a comma-separated spec string. Known stage names:
    ///
    /// * `rle` — PackBits run-length coding,
    /// * `lzss` — LZ77-family dictionary coder,
    /// * `shuffleN` — byte transpose of N-byte elements (N in 1–16),
    /// * `xor-deltaN` — XOR-with-predecessor over N-byte words,
    /// * `xor-delta` — shorthand for `xor-delta8`.
    pub fn from_spec(spec: &str) -> Result<Self, CodecError> {
        let tokens = spec
            .split(',')
            .map(str::trim)
            .filter(|token| !token.is_empty())
            .map(Self::stage)
            .collect::<Result<Vec<Stage>, CodecError>>()?;
        if tokens.is_empty() {
            return Err(CodecError::new(format!("empty pipeline spec '{spec}'")));
        }
        let mut stages: Vec<Box<dyn Codec>> = Vec::with_capacity(tokens.len());
        let mut rest = tokens.as_slice();
        while let [first, tail @ ..] = rest {
            rest = tail;
            stages.push(match (first, tail.first()) {
                (&Stage::XorDelta(width), Some(&Stage::Shuffle(w))) if w == width => {
                    rest = &tail[1..];
                    Box::new(DeltaShuffle { width })
                }
                (Stage::Rle, _) => Box::new(Rle),
                (Stage::Lzss, _) => Box::new(Lzss),
                (&Stage::XorDelta(width), _) => Box::new(XorDelta::new(width)),
                (&Stage::Shuffle(width), _) => Box::new(Shuffle::new(width)),
            });
        }
        Ok(Pipeline {
            stages,
            len: tokens.len(),
            spec: spec.to_string(),
        })
    }

    fn stage(token: &str) -> Result<Stage, CodecError> {
        let width = |digits: &str| {
            let w: usize = digits
                .parse()
                .map_err(|_| CodecError::new(format!("bad width in '{token}'")))?;
            if !(1..=16).contains(&w) {
                return Err(CodecError::new(format!(
                    "width {w} out of range in '{token}'"
                )));
            }
            Ok(w)
        };
        if token == "rle" {
            Ok(Stage::Rle)
        } else if token == "lzss" {
            Ok(Stage::Lzss)
        } else if token == "xor-delta" {
            Ok(Stage::XorDelta(8))
        } else if let Some(digits) = token.strip_prefix("xor-delta") {
            width(digits).map(Stage::XorDelta)
        } else if let Some(digits) = token.strip_prefix("shuffle") {
            width(digits).map(Stage::Shuffle)
        } else {
            Err(CodecError::new(format!("unknown codec '{token}'")))
        }
    }

    /// The spec string this pipeline was built from.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Number of stages the spec names.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pipeline has no stages (never true after `from_spec`).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The recommended pipeline for smooth `f64` fields (a good `codec=`
    /// for the storage engine's CM1 variables). Reaches the paper's ~6:1
    /// ratio on CM1-like data.
    pub fn default_f64() -> Self {
        Pipeline::from_spec("xor-delta8,shuffle8,rle,lzss").expect("builtin spec is valid")
    }

    /// The recommended pipeline for smooth `f32` fields.
    pub fn default_f32() -> Self {
        Pipeline::from_spec("xor-delta4,shuffle4,rle,lzss").expect("builtin spec is valid")
    }

    /// Encode through caller-owned scratch buffers, returning a slice into
    /// `scratch` that is valid until the next call.
    ///
    /// Stages ping-pong between the two scratch buffers via
    /// [`Codec::encode_into`], so after a warm-up encode has sized the
    /// buffers, steady-state encodes of same-sized blocks perform **no heap
    /// allocation** — the property the Damaris storage pipeline relies on to
    /// keep the dedicated core's compression stage allocation-free
    /// (observable through [`EncodeScratch::grows`]).
    pub fn encode_with<'a>(&self, input: &[u8], scratch: &'a mut EncodeScratch) -> &'a [u8] {
        let cap_before = scratch.capacity_bytes();
        scratch
            .ping_pong(input, self.stages.iter(), |stage, src, dst| {
                stage.encode_into(src, dst);
                debug_assert!(dst.len() <= stage.max_encoded_len(src.len()));
                Ok(())
            })
            .expect("encoding cannot fail");
        scratch.encodes += 1;
        if scratch.capacity_bytes() > cap_before {
            scratch.grows += 1;
        }
        scratch.result()
    }

    /// Decode through caller-owned scratch buffers, as
    /// [`Pipeline::encode_with`] encodes: the result is a slice into
    /// `scratch`, and a reader that decodes chunk after chunk through one
    /// scratch (`h5lite`'s `FileReader`) allocates nothing per chunk once
    /// the buffers have grown.
    ///
    /// The result may be at most `limit` bytes (the raw length a reader
    /// expects), and every stage stops with an error once its output passes
    /// the most that the stages before it can encode `limit` bytes into, so
    /// no input, however hostile its spec and bytes, makes a buffer larger.
    pub fn decode_with<'a>(
        &self,
        input: &[u8],
        limit: usize,
        scratch: &'a mut EncodeScratch,
    ) -> Result<&'a [u8], CodecError> {
        let bound = |i: usize| {
            self.stages[..i]
                .iter()
                .fold(limit, |n, stage| stage.max_encoded_len(n))
        };
        scratch.ping_pong(
            input,
            self.stages.iter().enumerate().rev(),
            |(i, stage), src, dst| stage.decode_bounded(src, dst, bound(i)),
        )?;
        Ok(scratch.result())
    }
}

/// Reusable ping-pong buffers for [`Pipeline::encode_with`] and
/// [`Pipeline::decode_with`].
///
/// Keep one per (variable, pipeline) and the encode path stops allocating
/// once the buffers have grown to the working-set size; the counters let
/// callers assert that reuse (`grows` stays flat while `encodes` climbs).
#[derive(Debug, Default)]
pub struct EncodeScratch {
    a: Vec<u8>,
    b: Vec<u8>,
    /// Which buffer the last call left its result in.
    in_a: bool,
    grows: u64,
    encodes: u64,
}

impl EncodeScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `stages` over `input`: the first writes `a`, every later one
    /// reads the buffer its predecessor wrote and writes the other. The
    /// roles are fixed by position, so across calls with one pipeline each
    /// buffer always receives the same stages and keeps the capacity they
    /// need.
    fn ping_pong<S>(
        &mut self,
        input: &[u8],
        mut stages: impl Iterator<Item = S>,
        apply: impl Fn(S, &[u8], &mut Vec<u8>) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        let first = stages.next().expect("from_spec rejects an empty pipeline");
        apply(first, input, &mut self.a)?;
        self.in_a = true;
        for stage in stages {
            let (src, dst) = if self.in_a {
                (&self.a, &mut self.b)
            } else {
                (&self.b, &mut self.a)
            };
            apply(stage, src, dst)?;
            self.in_a = !self.in_a;
        }
        Ok(())
    }

    /// What the last [`EncodeScratch::ping_pong`] produced.
    fn result(&mut self) -> &mut Vec<u8> {
        if self.in_a {
            &mut self.a
        } else {
            &mut self.b
        }
    }

    /// Total encodes performed through this scratch.
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Encodes that had to grow a scratch buffer. Stops increasing once the
    /// buffers reach the steady-state working size.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Bytes currently held across both buffers.
    pub fn capacity_bytes(&self) -> usize {
        self.a.capacity() + self.b.capacity()
    }
}

impl Codec for Pipeline {
    fn name(&self) -> String {
        self.spec.clone()
    }

    // The trait's buffers are handed over from a fresh scratch; callers
    // that want reuse keep an `EncodeScratch` and call the `_with` methods.
    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        let mut scratch = EncodeScratch::new();
        self.encode_with(input, &mut scratch);
        *out = std::mem::take(scratch.result());
    }

    fn max_encoded_len(&self, n: usize) -> usize {
        self.stages
            .iter()
            .fold(n, |n, stage| stage.max_encoded_len(n))
    }

    fn decode_bounded(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<(), CodecError> {
        let mut scratch = EncodeScratch::new();
        self.decode_with(input, limit, &mut scratch)?;
        *out = std::mem::take(scratch.result());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression_ratio;

    /// A CM1-like field: a uniform base state (most of the domain early in
    /// a simulation) with a smooth localized perturbation (the warm bubble).
    /// This is the data regime where the paper's 600 % ratio lives; a fully
    /// noisy mantissa (e.g. `sin` sampled everywhere) caps losslessly
    /// around 1.5:1 no matter the compressor.
    fn cm1_like_field(n: usize) -> Vec<u8> {
        let center = n as f64 / 2.0;
        let radius = n as f64 / 20.0;
        (0..n)
            .map(|i| {
                let d = (i as f64 - center).abs() / radius;
                if d < 1.0 {
                    300.0 + 2.0 * (1.0 - d * d) // smooth bubble
                } else {
                    300.0 // base state, bit-identical everywhere
                }
            })
            .flat_map(|f: f64| f.to_le_bytes())
            .collect()
    }

    fn smooth_field(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| {
                let x = i as f64 * 0.002;
                300.0 + 5.0 * x.sin() + 0.5 * (3.0 * x).cos()
            })
            .flat_map(|f: f64| f.to_le_bytes())
            .collect()
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(Pipeline::from_spec("rle").unwrap().len(), 1);
        assert_eq!(
            Pipeline::from_spec("xor-delta8, shuffle8 ,rle")
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            Pipeline::from_spec("xor-delta").unwrap().name(),
            "xor-delta"
        );
        assert!(Pipeline::from_spec("zstd").is_err());
        assert!(Pipeline::from_spec("").is_err());
        assert!(Pipeline::from_spec("shuffle0").is_err());
        assert!(Pipeline::from_spec("shuffle99").is_err());
        assert!(Pipeline::from_spec("xor-deltax").is_err());
    }

    #[test]
    fn pipeline_roundtrip() {
        let data = smooth_field(2048);
        for spec in [
            "rle",
            "lzss",
            "xor-delta8,rle",
            "xor-delta8,shuffle8,rle,lzss",
        ] {
            let p = Pipeline::from_spec(spec).unwrap();
            let enc = p.encode(&data);
            assert_eq!(p.decode(&enc).unwrap(), data, "spec {spec}");
        }
    }

    #[test]
    fn default_f64_hits_paper_ratio_on_cm1_like_data() {
        // The paper reports a 600 % (6:1) ratio on CM1 output: fields that
        // are mostly base state with localized smooth structure.
        let data = cm1_like_field(32 * 1024);
        let p = Pipeline::default_f64();
        let enc = p.encode(&data);
        let ratio = compression_ratio(data.len(), enc.len());
        assert!(
            ratio >= 6.0,
            "expected ≥6:1 on CM1-like f64 data, got {ratio:.2}:1"
        );
        assert_eq!(p.decode(&enc).unwrap(), data);
    }

    #[test]
    fn full_precision_smooth_data_still_shrinks() {
        // A field whose mantissa is busy everywhere compresses modestly but
        // must never expand by more than the LZSS flag overhead.
        let data = smooth_field(32 * 1024);
        let p = Pipeline::default_f64();
        let enc = p.encode(&data);
        assert!(enc.len() < data.len(), "{} vs {}", enc.len(), data.len());
        assert_eq!(p.decode(&enc).unwrap(), data);
    }

    #[test]
    fn constant_field_compresses_extremely() {
        let data: Vec<u8> = std::iter::repeat_n(1013.25f64.to_le_bytes(), 8192)
            .flatten()
            .collect();
        let p = Pipeline::default_f64();
        let enc = p.encode(&data);
        assert!(compression_ratio(data.len(), enc.len()) > 100.0);
    }

    #[test]
    fn encode_with_matches_encode_and_stops_growing() {
        let data = cm1_like_field(8 * 1024);
        let mut scratch = EncodeScratch::new();
        for spec in ["rle", "lzss", "xor-delta8,shuffle8,rle,lzss"] {
            let p = Pipeline::from_spec(spec).unwrap();
            assert_eq!(
                p.encode_with(&data, &mut scratch),
                p.encode(&data),
                "spec {spec}"
            );
        }
        // Warmed up: further encodes of same-sized data never grow scratch.
        let p = Pipeline::default_f64();
        let _ = p.encode_with(&data, &mut scratch);
        let grows = scratch.grows();
        let cap = scratch.capacity_bytes();
        for _ in 0..16 {
            let enc = p.encode_with(&data, &mut scratch);
            assert_eq!(p.decode(enc).unwrap(), data);
        }
        assert_eq!(scratch.grows(), grows, "steady state must not reallocate");
        assert_eq!(scratch.capacity_bytes(), cap);
        assert!(scratch.encodes() >= 20);
    }

    #[test]
    fn equal_width_delta_shuffle_pairs_fuse_and_nothing_else_changes() {
        // (spec, stages that run)
        for (spec, runs) in [
            ("xor-delta8,shuffle8,rle", 2),
            ("xor-delta, shuffle8", 1),
            ("xor-delta4,shuffle4,xor-delta4,shuffle4", 2),
            ("rle,xor-delta3,shuffle3,lzss", 3),
            ("xor-delta8,shuffle4,rle", 3),
            ("shuffle8,xor-delta8,rle", 3),
            ("xor-delta8,rle,shuffle8", 3),
        ] {
            let p = Pipeline::from_spec(spec).unwrap();
            assert_eq!(p.stages.len(), runs, "spec {spec}");
            assert_eq!(p.spec(), spec);
            assert_eq!(p.name(), spec);
            assert_eq!(p.len(), spec.split(',').count(), "spec {spec}");

            // The bytes are those of the named stages run one by one.
            let data = smooth_field(300);
            let data = &data[..data.len() - 3];
            let mut unfused = data.to_vec();
            for token in spec.split(',') {
                unfused = Pipeline::from_spec(token).unwrap().encode(&unfused);
            }
            assert_eq!(p.encode(data), unfused, "spec {spec}");
            assert_eq!(p.decode(&unfused).unwrap(), data, "spec {spec}");
        }
    }

    #[test]
    fn decode_with_reuses_the_scratch() {
        let p = Pipeline::from_spec("xor-delta8,shuffle8,rle").unwrap();
        let blocks = [cm1_like_field(4 * 1024), smooth_field(4 * 1024)];
        let mut scratch = EncodeScratch::new();
        let packed: Vec<Vec<u8>> = blocks.iter().map(|b| p.encode(b)).collect();
        assert_eq!(
            p.decode_with(&packed[0], blocks[0].len(), &mut scratch)
                .unwrap(),
            blocks[0]
        );
        let cap = scratch.capacity_bytes();
        for _ in 0..4 {
            for (enc, raw) in packed.iter().zip(&blocks) {
                assert_eq!(p.decode_with(enc, raw.len(), &mut scratch).unwrap(), raw);
            }
        }
        assert_eq!(
            scratch.capacity_bytes(),
            cap,
            "same-sized blocks: no growth"
        );
        assert!(p.decode_with(&[128], usize::MAX, &mut scratch).is_err());
    }

    #[test]
    fn scratch_is_sized_once_even_as_data_gets_less_compressible() {
        let p = Pipeline::from_spec("xor-delta8,shuffle8,rle").unwrap();
        let mut scratch = EncodeScratch::new();
        let n = 8 * 1024;
        let constant: Vec<u8> = std::iter::repeat_n(300.0f64.to_le_bytes(), n)
            .flatten()
            .collect();
        let _ = p.encode_with(&constant, &mut scratch);
        assert_eq!(scratch.grows(), 1);
        let noise: Vec<u8> = (0..8 * n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for data in [&cm1_like_field(n), &smooth_field(n), &noise, &constant] {
            let enc = p.encode_with(data, &mut scratch).to_vec();
            assert_eq!(&p.decode(&enc).unwrap(), data);
        }
        assert_eq!(
            scratch.grows(),
            1,
            "the first encode reserved the worst case"
        );
    }

    #[test]
    fn stage_order_matters_and_inverts_correctly() {
        let data = smooth_field(512);
        let a = Pipeline::from_spec("shuffle8,rle").unwrap();
        let b = Pipeline::from_spec("rle,shuffle8").unwrap();
        // Different orders produce different encodings…
        assert_ne!(a.encode(&data), b.encode(&data));
        // …but both invert.
        assert_eq!(a.decode(&a.encode(&data)).unwrap(), data);
        assert_eq!(b.decode(&b.encode(&data)).unwrap(), data);
    }
}
