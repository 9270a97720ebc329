//! Codec robustness: every `Pipeline::from_spec` combination must round-trip
//! adversarial inputs — empty, 1-byte, lengths that are not a multiple of the
//! element size, and incompressible random bytes. A storage pipeline that
//! silently corrupts an odd-sized trailing block loses simulation output, so
//! these are exercised both exhaustively (all stages, all ordered pairs) and
//! property-style over random stage chains.

use codec::pipeline::EncodeScratch;
use codec::{Codec, Pipeline};
use proptest::prelude::*;

/// Every stage name `Pipeline::from_spec` accepts, all widths included.
const STAGES: &[&str] = &[
    "rle",
    "lzss",
    "shuffle1",
    "shuffle2",
    "shuffle3",
    "shuffle4",
    "shuffle8",
    "shuffle16",
    "xor-delta",
    "xor-delta1",
    "xor-delta2",
    "xor-delta3",
    "xor-delta4",
    "xor-delta8",
    "xor-delta16",
];

fn xorshift_bytes(mut seed: u64, n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as u8
        })
        .collect()
}

/// The adversarial input set from the issue: empty, a single byte, a length
/// that is not a multiple of any element width, and incompressible noise.
fn adversarial_inputs() -> Vec<Vec<u8>> {
    vec![
        Vec::new(),
        vec![0x5a],
        xorshift_bytes(0xfeed, 13),
        xorshift_bytes(0xbeef, 4096),
        vec![0u8; 777],
    ]
}

fn assert_roundtrip(p: &Pipeline, data: &[u8]) {
    let enc = p.encode(data);
    assert_eq!(
        p.decode(&enc).as_deref(),
        Ok(data),
        "spec '{}' on {} bytes",
        p.spec(),
        data.len()
    );
    // The scratch-reuse path must produce byte-identical output.
    let mut scratch = EncodeScratch::new();
    assert_eq!(
        p.encode_with(data, &mut scratch),
        &enc[..],
        "spec '{}'",
        p.spec()
    );
}

#[test]
fn every_single_stage_roundtrips_adversarial_inputs() {
    for stage in STAGES {
        let p = Pipeline::from_spec(stage).unwrap();
        for data in adversarial_inputs() {
            assert_roundtrip(&p, &data);
        }
    }
}

#[test]
fn every_ordered_stage_pair_roundtrips_adversarial_inputs() {
    for a in STAGES {
        for b in STAGES {
            let p = Pipeline::from_spec(&format!("{a},{b}")).unwrap();
            for data in adversarial_inputs() {
                assert_roundtrip(&p, &data);
            }
        }
    }
}

#[test]
fn malformed_specs_fail_with_clear_errors() {
    for (spec, needle) in [
        ("", "empty pipeline spec"),
        (" , ,", "empty pipeline spec"),
        ("zstd", "unknown codec"),
        ("rle,gzip", "unknown codec"),
        ("shuffle0", "out of range"),
        ("shuffle17", "out of range"),
        ("xor-delta99", "out of range"),
        ("xor-deltax", "bad width"),
        ("shuffle-4", "bad width"),
    ] {
        let err = Pipeline::from_spec(spec).unwrap_err();
        assert!(
            err.to_string().contains(needle),
            "spec '{spec}': expected '{needle}' in '{err}'"
        );
    }
}

fn spec_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..STAGES.len(), 1..5)
        .prop_map(|idx| idx.iter().map(|&i| STAGES[i]).collect::<Vec<_>>().join(","))
}

fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u8>(), 1..2),
        proptest::collection::vec(any::<u8>(), 3..18),
        proptest::collection::vec(any::<u8>(), 100..1500),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_stage_chains_roundtrip(spec in spec_strategy(), data in input_strategy()) {
        let p = Pipeline::from_spec(&spec).unwrap();
        let enc = p.encode(&data);
        prop_assert_eq!(p.decode(&enc).unwrap(), data.clone());
        let mut scratch = EncodeScratch::new();
        prop_assert_eq!(p.encode_with(&data, &mut scratch), &enc[..]);
    }

    /// A valid encoding with bytes flipped, inserted or cut off decodes
    /// to an error or to at most the bound it was given, and never panics.
    #[test]
    fn mutated_encodings_decode_within_the_bound_or_fail(
        spec in spec_strategy(),
        data in input_strategy(),
        edits in proptest::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 1..6),
    ) {
        let p = Pipeline::from_spec(&spec).unwrap();
        let mut enc = p.encode(&data);
        for (kind, at, byte) in edits {
            let at = at % (enc.len() + 1);
            match kind {
                0 if at < enc.len() => enc[at] ^= byte | 1,
                1 => enc.insert(at, byte),
                _ => enc.truncate(at),
            }
        }
        let mut scratch = EncodeScratch::new();
        if let Ok(out) = p.decode_with(&enc, data.len(), &mut scratch) {
            prop_assert!(out.len() <= data.len());
        }
    }
}
