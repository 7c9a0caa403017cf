//! DES block cipher, implemented from FIPS 46-3.
//!
//! The paper states UniDrive's metadata file is "DES encrypted" before
//! replication to the clouds (§4). We implement exactly that. (DES's
//! 56-bit key is far below modern standards; it is reproduced here for
//! fidelity to the paper, and the metadata layer keeps the cipher
//! pluggable.)
//!
//! Bit-numbering follows the standard: tables index bits 1..=64 from the
//! most significant bit of the 64-bit block.

/// Initial permutation.
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (inverse of IP).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion of the 32-bit half-block to 48 bits.
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17,
    18, 19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation applied to the S-box output.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// The eight S-boxes, each 4×16.
const SBOX: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6,
        12, 11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2,
        4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0,
        1, 10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1,
        3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10,
        1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0,
        15, 10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7,
        1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1,
        13, 14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12,
        9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3,
        5, 12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8,
        1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5,
        6, 11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4,
        10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Permuted choice 1: 64-bit key to 56 bits.
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3,
    60, 52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37,
    29, 21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2: 56 bits to the 48-bit round key.
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41,
    52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-rotation schedule per round.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// Applies `table` (1-based source bit indices from the MSB of a
/// `src_bits`-wide value) producing a `table.len()`-bit value. One bit
/// per step: it builds the lookup tables below and the key schedule,
/// never a block.
const fn permute(value: u64, src_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out <<= 1;
        out |= (value >> (src_bits - table[i] as u32)) & 1;
        i += 1;
    }
    out
}

/// S-box and P in one lookup: `SP[i][six]` is `P` applied to S-box
/// `i`'s output for the 6-bit input `six`, already in the box's nibble
/// of the 32-bit word, so a round is eight lookups XORed together.
static SP: [[u32; 64]; 8] = {
    let mut sp = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut six = 0;
        while six < 64 {
            let row = ((six & 0x20) >> 4) | (six & 1);
            let col = (six >> 1) & 0xF;
            let nibble = (SBOX[i][row * 16 + col] as u64) << (28 - 4 * i);
            sp[i][six] = permute(nibble, 32, &P) as u32;
            six += 1;
        }
        i += 1;
    }
    sp
};

/// A 64-bit permutation as sixteen nibble-indexed tables: entry
/// `[nibble][v]` is where the bits of `v`, sitting in input nibble
/// `nibble` (0 = most significant), land; a permutation is linear over
/// OR, so the sixteen entries of a block OR to its image. (2 KiB a
/// permutation: byte-indexed tables would halve the lookups and cost
/// 16 KiB of cache each, which a 26 KB metadata image does not repay.)
const fn nibble_tables(table: &[u8; 64]) -> [[u64; 16]; 16] {
    let mut out = [[0u64; 16]; 16];
    let mut nibble = 0;
    while nibble < 16 {
        let mut bit = 0;
        while bit < 4 {
            let lands = permute(1 << (63 - (4 * nibble + bit)), 64, table);
            let mut v = 0;
            while v < 16 {
                if v & (8 >> bit) != 0 {
                    out[nibble][v] |= lands;
                }
                v += 1;
            }
            bit += 1;
        }
        nibble += 1;
    }
    out
}

static IP_NIBBLES: [[u64; 16]; 16] = nibble_tables(&IP);
static FP_NIBBLES: [[u64; 16]; 16] = nibble_tables(&FP);

fn spread_nibbles(tables: &[[u64; 16]; 16], block: u64) -> u64 {
    let mut out = 0u64;
    for (i, table) in tables.iter().enumerate() {
        out |= table[(block >> (60 - 4 * i)) as usize & 0xF];
    }
    out
}

// `feistel` reads E as what it is — a 6-bit window sliding 4 bits at
// a time over the half-block, wrapping at both ends — instead of
// through a table. Hold the FIPS table to that.
const _: () = {
    let mut i = 0;
    while i < 48 {
        assert!(E[i] as usize == (4 * (i / 6) + i % 6 + 31) % 32 + 1);
        i += 1;
    }
};

/// The DES block cipher with a fixed key schedule.
///
/// # Examples
///
/// ```
/// use unidrive_crypto::Des;
///
/// let des = Des::new([0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1]);
/// let ct = des.encrypt_block([0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF]);
/// assert_eq!(ct, [0x85, 0xE8, 0x13, 0x54, 0x0F, 0x0A, 0xB4, 0x05]);
/// assert_eq!(des.decrypt_block(ct), [0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF]);
/// ```
#[derive(Debug, Clone)]
pub struct Des {
    /// Per round, the 48-bit key as `feistel` consumes it: the four
    /// even 6-bit groups in `[0]`, the four odd ones in `[1]`, each
    /// group at the top of its byte.
    round_keys: [[u32; 2]; 16],
}

impl Des {
    /// Builds the key schedule from an 8-byte key (parity bits ignored,
    /// per the standard).
    pub fn new(key: [u8; 8]) -> Self {
        let key64 = u64::from_be_bytes(key);
        let pc1 = permute(key64, 64, &PC1); // 56 bits
        let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
        let mut d = pc1 & 0x0FFF_FFFF;
        let mut round_keys = [[0u32; 2]; 16];
        for (halves, &shift) in round_keys.iter_mut().zip(&SHIFTS) {
            c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0FFF_FFFF;
            d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0FFF_FFFF;
            let key48 = permute((c << 28) | d, 56, &PC2);
            for i in 0..8 {
                halves[i % 2] |= ((key48 >> (42 - 6 * i)) as u32 & 0x3F) << (26 - 8 * (i / 2));
            }
        }
        Des { round_keys }
    }

    fn feistel(half: u32, round_key: &[u32; 2]) -> u32 {
        // E's neighbouring groups share two bits of the half-block but
        // every other group shares none: rotated so that group 0
        // (bits 32, 1..=5) or group 1 (bits 4..=9) leads, the half-block
        // holds four whole groups, one at the top of each byte.
        let keyed = [
            half.rotate_right(1) ^ round_key[0],
            half.rotate_left(3) ^ round_key[1],
        ];
        let mut out = 0u32;
        for (i, sp) in SP.iter().enumerate() {
            out ^= sp[(keyed[i % 2] >> (26 - 8 * (i / 2))) as usize & 0x3F];
        }
        out
    }

    fn crypt(&self, block: [u8; 8], decrypt: bool) -> [u8; 8] {
        let permuted = spread_nibbles(&IP_NIBBLES, u64::from_be_bytes(block));
        let mut left = (permuted >> 32) as u32;
        let mut right = permuted as u32;
        let mut round = |round_key: &[u32; 2]| {
            (left, right) = (right, left ^ Self::feistel(right, round_key));
        };
        if decrypt {
            self.round_keys.iter().rev().for_each(&mut round);
        } else {
            self.round_keys.iter().for_each(&mut round);
        }
        // Note the halves swap before the final permutation.
        let preoutput = ((right as u64) << 32) | left as u64;
        spread_nibbles(&FP_NIBBLES, preoutput).to_be_bytes()
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt_block(&self, block: [u8; 8]) -> [u8; 8] {
        self.crypt(block, false)
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt_block(&self, block: [u8; 8]) -> [u8; 8] {
        self.crypt(block, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_sim::SimRng;

    /// FIPS 46-3 read literally, one bit at a time through the tables:
    /// the cipher this file shipped before the lookup tables, kept as
    /// the oracle they are checked against.
    fn reference_crypt(key: [u8; 8], block: [u8; 8], decrypt: bool) -> [u8; 8] {
        let pc1 = permute(u64::from_be_bytes(key), 64, &PC1);
        let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
        let mut d = pc1 & 0x0FFF_FFFF;
        let mut round_keys = [0u64; 16];
        for (i, &shift) in SHIFTS.iter().enumerate() {
            c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0FFF_FFFF;
            d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0FFF_FFFF;
            round_keys[i] = permute((c << 28) | d, 56, &PC2);
        }
        let permuted = permute(u64::from_be_bytes(block), 64, &IP);
        let mut left = (permuted >> 32) as u32;
        let mut right = permuted as u32;
        for round in 0..16 {
            let rk = round_keys[if decrypt { 15 - round } else { round }];
            let expanded = permute(right as u64, 32, &E) ^ rk;
            let mut out = 0u32;
            for (box_idx, sbox) in SBOX.iter().enumerate() {
                let six = ((expanded >> (42 - 6 * box_idx)) & 0x3F) as usize;
                let row = ((six & 0x20) >> 4) | (six & 1);
                let col = (six >> 1) & 0xF;
                out = (out << 4) | sbox[row * 16 + col] as u32;
            }
            let next_right = left ^ permute(out as u64, 32, &P) as u32;
            left = right;
            right = next_right;
        }
        let preoutput = ((right as u64) << 32) | left as u64;
        permute(preoutput, 64, &FP).to_be_bytes()
    }

    #[test]
    fn tables_match_the_bitwise_reference() {
        let mut rng = SimRng::seed_from_u64(0xDE5_7AB1E);
        let mut cases = vec![([0u8; 8], [0u8; 8]), ([0xFF; 8], [0xFF; 8])];
        cases.extend((0..10_000).map(|_| (rng.next_u64().to_be_bytes(), rng.next_u64().to_be_bytes())));
        for (key, block) in cases {
            let des = Des::new(key);
            assert_eq!(
                des.encrypt_block(block),
                reference_crypt(key, block, false),
                "encrypt, key {key:02x?} block {block:02x?}"
            );
            assert_eq!(
                des.decrypt_block(block),
                reference_crypt(key, block, true),
                "decrypt, key {key:02x?} block {block:02x?}"
            );
        }
    }

    #[test]
    fn classic_walkthrough_vector() {
        // The vector from the original "How DES works" walkthrough.
        let des = Des::new([0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1]);
        let ct = des.encrypt_block([0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF]);
        assert_eq!(ct, [0x85, 0xE8, 0x13, 0x54, 0x0F, 0x0A, 0xB4, 0x05]);
    }

    #[test]
    fn nbs_known_answer_vectors() {
        // From the NBS/NIST known-answer test set.
        let cases: [([u8; 8], [u8; 8], [u8; 8]); 3] = [
            (
                // The classic "DES illustrated" example: encrypting
                // 0x8787878787878787 under this key yields all zeros.
                [0x0E, 0x32, 0x92, 0x32, 0xEA, 0x6D, 0x0D, 0x73],
                [0x87; 8],
                [0x00; 8],
            ),
            (
                [0x01; 8],
                [0x95, 0xF8, 0xA5, 0xE5, 0xDD, 0x31, 0xD9, 0x00],
                [0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            ),
            (
                [0x01; 8],
                [0x9D, 0x64, 0x55, 0x5A, 0x9A, 0x10, 0xB8, 0x52],
                [0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00],
            ),
        ];
        for (key, pt, ct) in cases {
            let des = Des::new(key);
            assert_eq!(des.encrypt_block(pt), ct, "key {key:02x?}");
            assert_eq!(des.decrypt_block(ct), pt);
        }
    }

    #[test]
    fn round_trip_many_blocks() {
        let des = Des::new([7, 1, 8, 2, 8, 1, 8, 2]);
        for i in 0u64..256 {
            let pt = i.wrapping_mul(0x0123_4567_89AB_CDEF).to_be_bytes();
            assert_eq!(des.decrypt_block(des.encrypt_block(pt)), pt);
        }
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let a = Des::new([1; 8]).encrypt_block([42; 8]);
        let b = Des::new([2; 8]).encrypt_block([42; 8]);
        assert_ne!(a, b);
    }

    #[test]
    fn complementation_property() {
        // DES famously satisfies E_k(p) = !E_!k(!p).
        let key = [0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1];
        let pt = [0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF];
        let not = |x: [u8; 8]| x.map(|b| !b);
        let normal = Des::new(key).encrypt_block(pt);
        let complemented = Des::new(not(key)).encrypt_block(not(pt));
        assert_eq!(not(normal), complemented);
    }
}
