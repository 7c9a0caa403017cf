//! Rabin fingerprinting over GF(2): the rolling hash behind
//! content-based segmentation (paper §6.1, citing LBFS).
//!
//! A window of [`WINDOW`] bytes is interpreted as a polynomial over
//! GF(2) and reduced modulo the irreducible polynomial [`DEFAULT_POLY`];
//! sliding the window by one byte updates the fingerprint in O(1) with
//! two table lookups. Window and polynomial are constants, so both
//! tables are computed at compile time: a hash costs no table work, and
//! a file that is never scanned (one at most 1.5 θ long) costs none at
//! all.

/// The LBFS polynomial: irreducible of degree 53 over GF(2).
pub const DEFAULT_POLY: u64 = 0x3DA3358B4DC173;

/// Rolling-hash window in bytes (LBFS).
pub const WINDOW: usize = 48;

/// Degree of [`DEFAULT_POLY`].
const DEG: u32 = degree(DEFAULT_POLY);

/// The fingerprint bits below the top byte.
const LOW_MASK: u64 = (1 << (DEG - 8)) - 1;

/// `(top_byte << deg) mod P` for the append step: a byte's contribution
/// once it is shifted past the top of the fingerprint register.
static APPEND: [u64; 256] = table(DEG);

/// `(byte · x^(8·WINDOW)) mod P`: a byte's contribution once it is the
/// oldest byte of the window *after* a new byte has been appended,
/// which removing it cancels.
static REMOVE: [u64; 256] = table(8 * WINDOW as u32);

/// Degree of a polynomial (position of the highest set bit).
const fn degree(p: u64) -> u32 {
    63 - p.leading_zeros()
}

/// `(value · x^shift) mod p` where `value` is a polynomial over GF(2).
const fn mod_shift(mut value: u64, shift: u32, p: u64) -> u64 {
    let deg = degree(p);
    let mut i = 0;
    while i < shift {
        value <<= 1;
        if value >> deg != 0 {
            value ^= p;
        }
        i += 1;
    }
    value
}

/// `(b · x^shift) mod DEFAULT_POLY` for every byte `b`.
const fn table(shift: u32) -> [u64; 256] {
    let mut out = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        out[b] = mod_shift(b as u64, shift, DEFAULT_POLY);
        b += 1;
    }
    out
}

/// Rolling Rabin hash over the [`WINDOW`]-byte window. It is one
/// fingerprint register; the tables it reads are shared constants.
///
/// # Examples
///
/// ```
/// use unidrive_chunker::{RabinHash, WINDOW};
///
/// let mut h = RabinHash::new();
/// let data: Vec<u8> = (0..=WINDOW as u8).collect();
/// // Fill the window, then roll.
/// for &b in &data[..WINDOW] {
///     h.push(b);
/// }
/// let full = h.fingerprint();
/// h.roll(data[0], data[WINDOW]);
/// assert_ne!(h.fingerprint(), full);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RabinHash {
    fingerprint: u64,
}

impl RabinHash {
    /// Creates an empty rolling hash.
    pub fn new() -> Self {
        RabinHash { fingerprint: 0 }
    }

    /// Current fingerprint (valid once [`WINDOW`] bytes were pushed).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Appends a byte without expiring one (used to fill the window).
    #[inline]
    pub fn push(&mut self, byte: u8) {
        self.fingerprint = append(self.fingerprint, byte);
    }

    /// Slides the window: expires `oldest`, appends `newest`.
    #[inline]
    pub fn roll(&mut self, oldest: u8, newest: u8) {
        self.push(newest);
        self.fingerprint ^= REMOVE[oldest as usize];
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        self.fingerprint = 0;
    }

    /// Convenience: fingerprint of the last [`WINDOW`] bytes of `data`
    /// computed from scratch (reference implementation for tests).
    pub fn fingerprint_of(data: &[u8]) -> u64 {
        let start = data.len().saturating_sub(WINDOW);
        data[start..].iter().fold(0, |f, &b| append(f, b))
    }
}

/// One append step: shift `byte` into `fingerprint`, reducing the byte
/// shifted out past the top.
#[inline]
fn append(fingerprint: u64, byte: u8) -> u64 {
    let top = fingerprint >> (DEG - 8);
    (((fingerprint & LOW_MASK) << 8) | byte as u64) ^ APPEND[top as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_matches_from_scratch() {
        let data: Vec<u8> = (0..500).map(|i| ((i * 37 + 11) % 256) as u8).collect();
        let mut h = RabinHash::new();
        for &b in &data[..WINDOW] {
            h.push(b);
        }
        assert_eq!(h.fingerprint(), RabinHash::fingerprint_of(&data[..WINDOW]));
        for i in WINDOW..data.len() {
            h.roll(data[i - WINDOW], data[i]);
            assert_eq!(
                h.fingerprint(),
                RabinHash::fingerprint_of(&data[..=i]),
                "mismatch at {i}"
            );
        }
    }

    #[test]
    fn fingerprint_depends_only_on_window() {
        // Two different prefixes, same final window bytes -> same hash.
        let suffix: Vec<u8> = (0..WINDOW).map(|i| (i * 7) as u8).collect();
        let mut a: Vec<u8> = vec![1, 2, 3, 4, 5];
        let mut b: Vec<u8> = vec![200, 100, 50];
        a.extend_from_slice(&suffix);
        b.extend_from_slice(&suffix);
        assert_eq!(RabinHash::fingerprint_of(&a), RabinHash::fingerprint_of(&b));
    }

    #[test]
    fn fingerprints_are_well_distributed() {
        let mut data = vec![0u8; WINDOW];
        let mut low_bits = std::collections::HashSet::new();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..2000u32 {
            for b in data.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 32) as u8;
            }
            low_bits.insert(RabinHash::fingerprint_of(&data) & 0xFFF);
        }
        // With 4096 buckets and 2000 samples, expect most to be distinct.
        assert!(low_bits.len() > 1400, "got {} distinct", low_bits.len());
    }

    #[test]
    fn reset_clears_state() {
        let mut h = RabinHash::new();
        for b in 0..20u8 {
            h.push(b);
        }
        h.reset();
        assert_eq!(h.fingerprint(), 0);
    }
}
