//! PackBits run-length coding.
//!
//! Control byte `c`:
//! * `0 ..= 127` — copy the next `c + 1` bytes literally,
//! * `129 ..= 255` — repeat the next byte `257 - c` times (runs of 2–128),
//! * `128` — reserved, never produced; rejected on decode.
//!
//! Worst case expansion is 1 byte per 128 literals (< 0.8 %).
//!
//! The encoder is greedy: at each position a run of two or more is emitted
//! as a run; otherwise a literal block extends until three equal bytes
//! start or the block is full. Both searches look at eight bytes per step.

use crate::{Codec, CodecError};

/// PackBits run-length codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rle;

/// Longest run and longest literal block one control byte can describe.
const MAX_BLOCK: usize = 128;

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

fn word_at(input: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(input[i..i + 8].try_into().expect("slice is 8 bytes"))
}

/// How many bytes from `i` on equal `input[i]`, counting at most
/// [`MAX_BLOCK`]. Compares eight bytes per step against the byte repeated
/// across a word; the first differing byte is the lowest set bit of the
/// XOR.
fn run_len(input: &[u8], i: usize) -> usize {
    let b = input[i];
    let window = &input[i..input.len().min(i + MAX_BLOCK)];
    let repeated = u64::from(b) * LO;
    let mut len = 0;
    let mut words = window.chunks_exact(8);
    for w in &mut words {
        let diff = word_at(w, 0) ^ repeated;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + words.remainder().iter().take_while(|&&x| x == b).count()
}

/// First `p` in `from..limit` where three equal bytes start, or `limit`.
/// Eight candidates per step: the word at `p` XORed with the words at
/// `p + 1` and `p + 2` has a zero byte exactly where a triple starts, and
/// the borrow trick marks the lowest zero byte exactly (it can only be
/// wrong above one).
fn next_triple(input: &[u8], from: usize, limit: usize) -> usize {
    let mut p = from;
    while p < limit && p + 10 <= input.len() {
        let x = word_at(input, p);
        let differs = (x ^ word_at(input, p + 1)) | (x ^ word_at(input, p + 2));
        let zero_bytes = differs.wrapping_sub(LO) & !differs & HI;
        if zero_bytes != 0 {
            return limit.min(p + (zero_bytes.trailing_zeros() / 8) as usize);
        }
        p += 8;
    }
    // Fewer than ten bytes of input left.
    while p < limit {
        if p + 2 < input.len() && input[p] == input[p + 1] && input[p] == input[p + 2] {
            return p;
        }
        p += 1;
    }
    limit
}

impl Codec for Rle {
    fn name(&self) -> String {
        "rle".to_string()
    }

    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let n = input.len();
        // The worst case (no run anywhere), reserved once: the output then
        // never grows as a field becomes less compressible over a run, and
        // the pushes below never reallocate.
        out.reserve(self.max_encoded_len(n));
        let mut i = 0;
        while i < n {
            let run = run_len(input, i);
            if run >= 2 {
                out.push((257 - run) as u8);
                out.push(input[i]);
                i += run;
            } else {
                // Collect literals until the next run of ≥ 3 (a 2-run is
                // cheaper to emit as literals than to break a literal block).
                let end = next_triple(input, i + 1, n.min(i + MAX_BLOCK));
                out.push((end - i - 1) as u8);
                out.extend_from_slice(&input[i..end]);
                i = end;
            }
        }
    }

    fn max_encoded_len(&self, n: usize) -> usize {
        // One control byte per literal block of at most MAX_BLOCK bytes; a
        // block cut short by a run is paid back by that run.
        n.saturating_add(n / MAX_BLOCK + 2)
    }

    fn decode_bounded(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<(), CodecError> {
        out.clear();
        let mut i = 0;
        while i < input.len() {
            let c = input[i];
            i += 1;
            let len = match c {
                0..=127 => c as usize + 1,
                128 => return Err(CodecError::new("rle: reserved control byte 128")),
                129..=255 => 257 - c as usize,
            };
            if len > limit - out.len() {
                return Err(crate::over_limit("rle", limit));
            }
            if c < 128 {
                if i + len > input.len() {
                    return Err(CodecError::new("rle: truncated literal block"));
                }
                out.extend_from_slice(&input[i..i + len]);
                i += len;
            } else {
                let b = *input
                    .get(i)
                    .ok_or_else(|| CodecError::new("rle: truncated run"))?;
                i += 1;
                out.resize(out.len() + len, b);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The byte-at-a-time encoder the word-wise scan replaced, kept as the
    //! reference it is tested against.

    pub(crate) fn encode(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let n = input.len();
        let mut i = 0;
        while i < n {
            // Measure the run starting at i.
            let b = input[i];
            let mut run = 1;
            while i + run < n && input[i + run] == b && run < 128 {
                run += 1;
            }
            if run >= 2 {
                out.push((257 - run) as u8);
                out.push(b);
                i += run;
            } else {
                let start = i;
                i += 1;
                while i < n && (i - start) < 128 {
                    let b = input[i];
                    let mut run = 1;
                    while i + run < n && input[i + run] == b && run < 3 {
                        run += 1;
                    }
                    if run >= 3 {
                        break;
                    }
                    i += 1;
                }
                let len = i - start;
                out.push((len - 1) as u8);
                out.extend_from_slice(&input[start..i]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{byte_streams, CASES};
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Rle;
        let enc = c.encode(data);
        let dec = c.decode(&enc).unwrap();
        assert_eq!(dec, data, "roundtrip mismatch");
        enc
    }

    #[test]
    fn empty_input() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn all_zeros_compresses_hard() {
        let enc = roundtrip(&[0u8; 10_000]);
        assert!(enc.len() <= 2 * (10_000 / 128 + 1), "got {}", enc.len());
    }

    #[test]
    fn incompressible_expands_bounded() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let enc = roundtrip(&data);
        assert!(enc.len() <= data.len() + data.len() / 128 + 2);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut data = vec![1, 2, 3];
        data.extend_from_slice(&[7; 50]);
        data.extend_from_slice(&[9, 8]);
        data.extend_from_slice(&[0; 300]);
        roundtrip(&data);
    }

    #[test]
    fn run_of_exactly_two() {
        roundtrip(&[5, 5, 1, 2, 3]);
    }

    #[test]
    fn run_longer_than_128_splits() {
        roundtrip(&[42u8; 129]);
        roundtrip(&[42u8; 257]);
    }

    #[test]
    fn decode_rejects_reserved_control() {
        assert!(Rle.decode(&[128]).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        assert!(Rle.decode(&[5, 1, 2]).is_err()); // literal block cut short
        assert!(Rle.decode(&[200]).is_err()); // run byte missing
    }

    /// `0, 1, 2, …` with no two neighbours equal, starting at `first`.
    fn literals(first: u8, n: usize) -> Vec<u8> {
        (0..n).map(|i| first.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn packbits_edge_cases_equal_the_scalar_oracle() {
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for run in [2usize, 3, 127, 128, 129, 257] {
            // Alone, after a literal, before a literal, and cut by the end
            // of input one byte into the word-wise tail.
            cases.push(vec![9; run]);
            cases.push([literals(1, 5), vec![9; run]].concat());
            cases.push([vec![9; run], literals(1, 5)].concat());
            cases.push([literals(1, 11), vec![9; run], literals(20, 3)].concat());
        }
        // A full literal block, then a run: the block must close at 128
        // and the run be measured afresh, even when it is only a pair.
        for run in [2usize, 3, 200] {
            cases.push([literals(0, 128), vec![77; run]].concat());
            cases.push([literals(0, 127), vec![77; run]].concat());
            cases.push([literals(0, 129), vec![77; run]].concat());
        }
        // Pairs inside a literal block stay literals; a pair at its start
        // is a run.
        cases.push(vec![1, 2, 2, 3, 4, 4, 5, 6, 6, 6, 7]);
        cases.push(vec![2, 2, 3, 4, 4, 5]);
        // A triple straddling every offset of a word boundary.
        for lead in 0..20 {
            cases.push([literals(0, lead), vec![200; 3], literals(100, 9)].concat());
            cases.push([literals(0, lead), vec![200; 3]].concat());
            cases.push([literals(0, lead), vec![200; 2]].concat());
        }
        for data in &cases {
            let enc = Rle.encode(data);
            assert_eq!(enc, oracle::encode(data), "input {data:?}");
            assert_eq!(&Rle.decode(&enc).unwrap(), data);
        }
    }

    #[test]
    fn output_is_reserved_once_at_the_worst_case() {
        let mut out = Vec::new();
        Rle.encode_into(&[0u8; 4096], &mut out);
        let cap = out.capacity();
        assert!(cap >= 4096 + 4096 / 128 + 2);
        let noise: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        Rle.encode_into(&noise, &mut out);
        assert_eq!(
            out.capacity(),
            cap,
            "less compressible input must not grow it"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn encoder_equals_the_scalar_oracle(data in byte_streams()) {
            let enc = Rle.encode(&data);
            prop_assert_eq!(&enc, &oracle::encode(&data));
            prop_assert_eq!(Rle.decode(&enc).unwrap(), data);
        }
    }
}
