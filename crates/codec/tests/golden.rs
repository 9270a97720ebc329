//! Format stability without an oracle: fixed inputs and the bytes the
//! byte-at-a-time codecs produced for them (recorded at commit 7ee4a22,
//! before the word-parallel kernels and the fused stage existed). A `.dh5`
//! file stores these bytes, so a kernel that changes one of them breaks
//! every file already written.

use codec::{Codec, EncodeScratch, Pipeline};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// 37 `f64`s (base state, a ramp, a sign flip, a NaN) and 5 bytes that do
/// not fill an element.
fn small_input() -> Vec<u8> {
    let mut v: Vec<u8> = (0..37u32)
        .map(|i| match i {
            10..=17 => 300.0 + 0.125 * f64::from(i - 9),
            23 => -300.0,
            29 => f64::NAN,
            _ => 300.0,
        })
        .flat_map(|f: f64| f.to_le_bytes())
        .collect();
    v.extend_from_slice(&[1, 2, 2, 2, 3]);
    v
}

/// 8192 `f64`s, base state with a noisy ramp in the middle, and 3 tail
/// bytes. Only exact float operations, so the bytes are the same on every
/// platform.
fn large_input() -> Vec<u8> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    (0..8192u32)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = (s >> 40) as f64 * (1.0 / (1u64 << 34) as f64);
            if (3000..3600).contains(&i) {
                300.0 + f64::from(i - 3000) * 0.001953125 + noise
            } else {
                300.0
            }
        })
        .flat_map(|f: f64| f.to_le_bytes())
        .chain([7u8, 7, 7])
        .collect()
}

const SMALL_CM1_PIPELINE: &[u8] = &[
    0x81, 0x00, 0xc8, 0x00, 0x00, 0xc0, 0xf8, 0x00, 0x08, 0x02, 0x06, 0x02, 0x0e, 0x02, 0x06, 0x02,
    0x1e, 0x10, 0xf7, 0x00, 0xff, 0xc0, 0xfb, 0x00, 0x00, 0x72, 0xe5, 0x00, 0xff, 0x8a, 0xfb, 0x00,
    0x00, 0x40, 0xeb, 0x00, 0xff, 0x80, 0xfd, 0x00, 0xff, 0x3f, 0xfb, 0x00, 0x00, 0x01, 0xfe, 0x02,
    0x00, 0x03,
];

/// `(spec, encoded length, FNV-1a of the encoded bytes)`.
const SMALL: &[(&str, usize, u64)] = &[
    ("xor-delta8,shuffle8,rle", 50, 0x4863_3a98_ed38_a094),
    ("xor-delta4,shuffle4,rle", 54, 0x4526_322c_8362_2990),
    ("shuffle3,rle", 302, 0xa9f7_b308_7e6a_6e2b),
    ("xor-delta8,rle", 70, 0xa625_4579_acc9_c844),
    ("xor-delta5,shuffle5", 301, 0x382b_76e5_e88d_ef9f),
    ("rle", 226, 0x1b01_dac8_b18a_2ed1),
];

const LARGE: &[(&str, usize, u64)] = &[
    ("xor-delta8,shuffle8,rle", 3490, 0xa0b3_e64b_bbb8_2bf4),
    ("xor-delta8,shuffle8,rle,lzss", 2717, 0xb6bd_f573_c87e_9307),
    ("xor-delta4,shuffle4,rle", 5731, 0x3c3f_b0d0_988c_df03),
    ("shuffle8", 65539, 0x875e_bc4c_b646_9fa1),
    ("xor-delta8", 65539, 0xc831_da22_f608_cd0e),
    ("xor-delta3,shuffle3,rle", 66051, 0x2b1f_dac4_0fbc_f683),
    ("rle", 50391, 0x3985_a0b1_623e_cf7c),
];

fn check(input: &[u8], table: &[(&str, usize, u64)]) {
    let mut scratch = EncodeScratch::new();
    for &(spec, len, hash) in table {
        let p = Pipeline::from_spec(spec).unwrap();
        let enc = p.encode(input);
        assert_eq!((enc.len(), fnv1a(&enc)), (len, hash), "spec {spec}");
        assert_eq!(p.encode_with(input, &mut scratch), enc, "spec {spec}");
        assert_eq!(p.decode(&enc).unwrap(), input, "spec {spec}");
        assert_eq!(
            p.decode_with(&enc, input.len(), &mut scratch).unwrap(),
            input
        );
    }
}

#[test]
fn small_input_encodes_to_the_recorded_bytes() {
    let input = small_input();
    assert_eq!(input.len(), 301);
    let p = Pipeline::from_spec("xor-delta8,shuffle8,rle").unwrap();
    assert_eq!(p.encode(&input), SMALL_CM1_PIPELINE);
    assert_eq!(p.decode(SMALL_CM1_PIPELINE).unwrap(), input);
    check(&input, SMALL);
}

#[test]
fn large_input_encodes_to_the_recorded_bytes() {
    let input = large_input();
    assert_eq!((input.len(), fnv1a(&input)), (65539, 0xaf01_8306_b81e_9703));
    check(&input, LARGE);
}
