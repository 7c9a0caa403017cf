//! Rabin fingerprinting over GF(2): the rolling hash behind
//! content-based segmentation (paper §6.1, citing LBFS).
//!
//! A window of `w` bytes is interpreted as a polynomial over GF(2) and
//! reduced modulo an irreducible polynomial `P`; sliding the window by
//! one byte updates the fingerprint in O(1) with two table lookups.

/// The LBFS polynomial: irreducible of degree 53 over GF(2).
pub const DEFAULT_POLY: u64 = 0x3DA3358B4DC173;

/// Degree of a polynomial (position of the highest set bit).
fn degree(p: u64) -> u32 {
    63 - p.leading_zeros()
}

/// `(value · x^shift) mod p` where `value` is a polynomial over GF(2).
fn mod_shift(mut value: u64, shift: u32, p: u64) -> u64 {
    let deg = degree(p);
    for _ in 0..shift {
        value <<= 1;
        if value >> deg != 0 {
            value ^= p;
        }
    }
    value
}

/// Rolling Rabin hash over a fixed-size byte window.
///
/// # Examples
///
/// ```
/// use unidrive_chunker::RabinHash;
///
/// let mut h = RabinHash::new(16);
/// let data = b"abcdefghijklmnopqrstuvwxyz";
/// // Fill the window, then roll.
/// for &b in &data[..16] {
///     h.push(b);
/// }
/// let at_16 = h.fingerprint();
/// h.roll(data[0], data[16]);
/// assert_ne!(h.fingerprint(), at_16);
/// ```
#[derive(Debug, Clone)]
pub struct RabinHash {
    fingerprint: u64,
    deg: u32,
    low_mask: u64,
    /// `(top_byte << deg) mod P` for the append step.
    append_table: [u64; 256],
    /// `(byte · x^(8·window)) mod P` for removing the expired byte.
    remove_table: [u64; 256],
    window: usize,
}

impl RabinHash {
    /// Creates a rolling hash with the [`DEFAULT_POLY`] and the given
    /// window size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        let deg = degree(DEFAULT_POLY);
        let mut append_table = [0u64; 256];
        let mut remove_table = [0u64; 256];
        for b in 0..256u64 {
            // b's contribution once it is shifted past the top of the
            // fingerprint register.
            append_table[b as usize] = mod_shift(b, deg, DEFAULT_POLY);
            // b's contribution once it is the oldest byte of the window
            // *after* a new byte has been appended.
            remove_table[b as usize] = mod_shift(b, 8 * window as u32, DEFAULT_POLY);
        }
        RabinHash {
            fingerprint: 0,
            deg,
            low_mask: (1u64 << (deg - 8)) - 1,
            append_table,
            remove_table,
            window,
        }
    }

    /// The window size in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Current fingerprint (valid once `window` bytes were pushed).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Appends a byte without expiring one (used to fill the window).
    #[inline]
    pub fn push(&mut self, byte: u8) {
        let top = self.fingerprint >> (self.deg - 8);
        self.fingerprint = (((self.fingerprint & self.low_mask) << 8) | byte as u64)
            ^ self.append_table[top as usize];
    }

    /// Slides the window: expires `oldest`, appends `newest`.
    #[inline]
    pub fn roll(&mut self, oldest: u8, newest: u8) {
        self.push(newest);
        self.fingerprint ^= self.remove_table[oldest as usize];
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        self.fingerprint = 0;
    }

    /// Convenience: fingerprint of the last `window` bytes of `data`
    /// computed from scratch (reference implementation for tests).
    pub fn fingerprint_of(&self, data: &[u8]) -> u64 {
        let mut f = 0u64;
        let start = data.len().saturating_sub(self.window);
        for &b in &data[start..] {
            let top = f >> (self.deg - 8);
            f = (((f & self.low_mask) << 8) | b as u64) ^ self.append_table[top as usize];
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_matches_from_scratch() {
        let data: Vec<u8> = (0..500).map(|i| ((i * 37 + 11) % 256) as u8).collect();
        let window = 48;
        let mut h = RabinHash::new(window);
        for &b in &data[..window] {
            h.push(b);
        }
        let reference = RabinHash::new(window);
        assert_eq!(h.fingerprint(), reference.fingerprint_of(&data[..window]));
        for i in window..data.len() {
            h.roll(data[i - window], data[i]);
            assert_eq!(
                h.fingerprint(),
                reference.fingerprint_of(&data[..=i]),
                "mismatch at {i}"
            );
        }
    }

    #[test]
    fn fingerprint_depends_only_on_window() {
        // Two different prefixes, same final window bytes -> same hash.
        let window = 32;
        let suffix: Vec<u8> = (0..window).map(|i| (i * 7) as u8).collect();
        let mut a: Vec<u8> = vec![1, 2, 3, 4, 5];
        let mut b: Vec<u8> = vec![200, 100, 50];
        a.extend_from_slice(&suffix);
        b.extend_from_slice(&suffix);
        let h = RabinHash::new(window);
        assert_eq!(h.fingerprint_of(&a), h.fingerprint_of(&b));
    }

    #[test]
    fn fingerprints_are_well_distributed() {
        let window = 48;
        let h = RabinHash::new(window);
        let mut data = vec![0u8; window];
        let mut low_bits = std::collections::HashSet::new();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..2000u32 {
            for b in data.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 32) as u8;
            }
            low_bits.insert(h.fingerprint_of(&data) & 0xFFF);
        }
        // With 4096 buckets and 2000 samples, expect most to be distinct.
        assert!(low_bits.len() > 1400, "got {} distinct", low_bits.len());
    }

    #[test]
    fn reset_clears_state() {
        let mut h = RabinHash::new(8);
        for b in 0..20u8 {
            h.push(b);
        }
        h.reset();
        assert_eq!(h.fingerprint(), 0);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_rejected() {
        let _ = RabinHash::new(0);
    }
}
