//! LZSS dictionary coder.
//!
//! Classic LZ77 variant: a sliding window of [`WINDOW`] bytes, matches of
//! [`MIN_MATCH`]–[`MAX_MATCH`] bytes encoded as `(offset, length)` pairs,
//! literals passed through, an 8-item flag byte steering the decoder.
//! A hash-chain index keeps encoding roughly linear.
//!
//! Token format (after each flag byte, LSB first, 1 = match):
//! * literal: one byte,
//! * match: two bytes — `offset[11:4] | offset[3:0] << 4 | (len - MIN_MATCH)`
//!   packed little-endian as `o & 0xff`, `(o >> 8) << 4 | (len - 3)`.

use crate::{Codec, CodecError};

/// Sliding-window size (12-bit offsets).
pub const WINDOW: usize = 4096;
/// Shortest encodable match.
pub const MIN_MATCH: usize = 3;
/// Longest encodable match (4-bit length field).
pub const MAX_MATCH: usize = MIN_MATCH + 15;

const HASH_SIZE: usize = 1 << 13;
/// How many chain links to follow before giving up (speed/ratio knob).
const MAX_CHAIN: usize = 64;

/// LZSS codec with a 4 KiB window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lzss;

fn hash3(data: &[u8]) -> usize {
    let h = (data[0] as u32)
        .wrapping_mul(2654435761)
        .wrapping_add((data[1] as u32).wrapping_mul(40503))
        .wrapping_add(data[2] as u32);
    (h as usize) & (HASH_SIZE - 1)
}

impl Codec for Lzss {
    fn name(&self) -> String {
        "lzss".to_string()
    }

    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        let n = input.len();
        out.clear();
        out.reserve(n / 2 + 16);
        // head[h] = most recent position with hash h; prev[i % WINDOW] chains.
        // The tables are thread-local so steady-state encodes do not
        // allocate; they are reset on entry, which keeps the output a pure
        // function of `input` (cross-world byte-identity depends on this).
        thread_local! {
            static TABLES: std::cell::RefCell<(Vec<usize>, Vec<usize>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        TABLES.with(|t| {
            let mut t = t.borrow_mut();
            let (head, prev) = &mut *t;
            head.resize(HASH_SIZE, usize::MAX);
            head.fill(usize::MAX);
            prev.resize(WINDOW, usize::MAX);
            prev.fill(usize::MAX);

            let mut i = 0;
            let mut flag_pos = 0usize;
            let mut flag_bit = 8u8; // forces a new flag byte immediately
            let mut flags = 0u8;

            macro_rules! emit_flag {
                ($is_match:expr) => {
                    if flag_bit == 8 {
                        // Start a new flag byte; tokens follow it immediately.
                        out.push(0);
                        flag_pos = out.len() - 1;
                        flags = 0;
                        flag_bit = 0;
                    }
                    if $is_match {
                        flags |= 1 << flag_bit;
                    }
                    flag_bit += 1;
                    out[flag_pos] = flags;
                };
            }

            while i < n {
                let mut best_len = 0usize;
                let mut best_off = 0usize;
                if i + MIN_MATCH <= n {
                    let h = hash3(&input[i..]);
                    let mut cand = head[h];
                    let mut chain = 0;
                    while cand != usize::MAX && chain < MAX_CHAIN {
                        if i > cand && i - cand <= WINDOW {
                            let max_len = (n - i).min(MAX_MATCH);
                            let mut l = 0;
                            while l < max_len && input[cand + l] == input[i + l] {
                                l += 1;
                            }
                            if l > best_len {
                                best_len = l;
                                best_off = i - cand;
                                if l == MAX_MATCH {
                                    break;
                                }
                            }
                        } else if i <= cand || i - cand > WINDOW {
                            break; // chain left the window
                        }
                        cand = prev[cand % WINDOW];
                        chain += 1;
                    }
                }

                if best_len >= MIN_MATCH {
                    emit_flag!(true);
                    let off = best_off; // 1..=WINDOW
                    debug_assert!((1..=WINDOW).contains(&off));
                    let o = off - 1; // 0..=4095, 12 bits
                    out.push((o & 0xff) as u8);
                    out.push((((o >> 8) as u8) << 4) | ((best_len - MIN_MATCH) as u8));
                    // Index every position inside the match.
                    let end = i + best_len;
                    while i < end {
                        if i + MIN_MATCH <= n {
                            let h = hash3(&input[i..]);
                            prev[i % WINDOW] = head[h];
                            head[h] = i;
                        }
                        i += 1;
                    }
                } else {
                    emit_flag!(false);
                    out.push(input[i]);
                    if i + MIN_MATCH <= n {
                        let h = hash3(&input[i..]);
                        prev[i % WINDOW] = head[h];
                        head[h] = i;
                    }
                    i += 1;
                }
            }
        });
    }

    fn max_encoded_len(&self, n: usize) -> usize {
        // All literals: one flag byte per eight; a match is never longer
        // than the bytes it stands for.
        n.saturating_add(n.div_ceil(8))
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
            let flags = input[i];
            i += 1;
            for bit in 0..8 {
                if i >= input.len() {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    if out.len() == limit {
                        return Err(crate::over_limit("lzss", limit));
                    }
                    out.push(input[i]);
                    i += 1;
                } else {
                    if i + 1 >= input.len() {
                        return Err(CodecError::new("lzss: truncated match token"));
                    }
                    let lo = input[i] as usize;
                    let hi = input[i + 1] as usize;
                    i += 2;
                    let off = (lo | ((hi >> 4) << 8)) + 1;
                    let len = (hi & 0x0f) + MIN_MATCH;
                    if off > out.len() {
                        return Err(CodecError::new(format!(
                            "lzss: match offset {off} exceeds {} decoded bytes",
                            out.len()
                        )));
                    }
                    if len > limit - out.len() {
                        return Err(crate::over_limit("lzss", limit));
                    }
                    let start = out.len() - off;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = Lzss;
        let enc = c.encode(data);
        assert_eq!(c.decode(&enc).unwrap(), data, "roundtrip mismatch");
        enc
    }

    #[test]
    fn empty_and_tiny() {
        assert!(roundtrip(&[]).is_empty());
        roundtrip(&[1]);
        roundtrip(&[1, 2]);
        roundtrip(&[1, 2, 3]);
    }

    #[test]
    fn repetitive_text_compresses() {
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".repeat(20);
        let enc = roundtrip(&data);
        assert!(
            enc.len() * 4 < data.len(),
            "{} vs {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "aaaa..." forces matches that overlap their own output.
        let data = vec![b'a'; 1000];
        let enc = roundtrip(&data);
        assert!(enc.len() < 200);
    }

    #[test]
    fn incompressible_random_survives() {
        // Deterministic xorshift noise.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let enc = roundtrip(&data);
        // Worst case: 1 flag byte per 8 literals → 12.5 % expansion.
        assert!(enc.len() <= data.len() + data.len() / 8 + 2);
    }

    #[test]
    fn long_range_matches_within_window() {
        let mut data = vec![0u8; 0];
        let phrase: Vec<u8> = (0..64u8).collect();
        data.extend_from_slice(&phrase);
        data.extend(std::iter::repeat_n(0xee, 2000));
        data.extend_from_slice(&phrase); // still inside the 4096 window
        roundtrip(&data);
    }

    #[test]
    fn matches_beyond_window_not_used() {
        let phrase: Vec<u8> = (0..64u8).collect();
        let mut data = phrase.clone();
        data.extend(std::iter::repeat_n(0xee, WINDOW + 100));
        data.extend_from_slice(&phrase);
        roundtrip(&data); // correctness only; no ratio claim
    }

    #[test]
    fn decode_rejects_bad_offset() {
        // Flag byte 0b1 (match), token pointing 4096 back with nothing decoded.
        let bad = [0b1u8, 0xff, 0xf0];
        assert!(Lzss.decode(&bad).is_err());
    }

    #[test]
    fn decode_rejects_truncated_token() {
        let bad = [0b1u8, 0x05];
        assert!(Lzss.decode(&bad).is_err());
    }
}
