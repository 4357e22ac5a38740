//! The word sum: the one checksum every frame in the tree is sealed with.
//!
//! It is FNV-1a's offset basis and prime, but one step per 64-bit word:
//! the input is read as little-endian `u64` words, and only the last
//! zero to seven bytes take FNV-1a's byte step. A word step is
//! `h = (h ^ w) * prime; h ^= h >> 29` — xor, an odd multiply and a right
//! xorshift, each a bijection of the state for a fixed word — so two
//! inputs of one length that differ in one word (or one tail byte)
//! always sum differently. The multiply carries only upwards; the shift
//! folds the high bits it filled back into the low ones before the next
//! word lands there, which is what lets the sum see a pair of flipped
//! top bits in two different words.
//!
//! It takes one dependent multiply per eight bytes where FNV-1a took one
//! per byte, and it is as wide: 8 bytes in a binary trailer, 16 hex
//! digits in a text line. It seals the tagged-text `#sum` line
//! ([`crate::feed::append_wire`]), the columnar and patch frames, their
//! schema digests and the container header of `xdx-codec`, the chunk
//! frames of `xdx-net` (which fold their header fields in as words
//! first, through [`mix_word`]) and the plan-cache key of `xdx-runtime`.

/// FNV-1a's 64-bit offset basis: the sum's starting state.
pub const SUM_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime: the odd multiplier of every step.
const SUM_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one word into the sum state `h`.
#[inline]
pub fn mix_word(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(SUM_PRIME);
    h ^ (h >> 29)
}

/// Folds `bytes` into the sum state `h`: whole little-endian words
/// through [`mix_word`], then FNV-1a's byte step for the tail. It ends
/// a sum: two calls over the halves of an input do not sum as one call
/// over the whole.
pub fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = mix_word(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(SUM_PRIME);
    }
    h
}

/// The word sum of `bytes`.
pub fn word_sum(bytes: &[u8]) -> u64 {
    mix_bytes(SUM_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_sum_is_stable() {
        assert_eq!(word_sum(b""), SUM_BASIS);
        // One tail byte: FNV-1a's byte step, as FNV-1a of "a".
        assert_eq!(word_sum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(word_sum(b"a"), word_sum(b"b"));
        // A word and a tail byte.
        assert_eq!(word_sum(b"#feed\tx\nN"), 0x3944_b9cd_24f2_ac7e);
        assert_eq!(word_sum(&[0; 16]), 0x22d8_5fb8_01f1_b909);
    }
}
