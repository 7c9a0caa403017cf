//! Content-based file segmentation (paper §6.1).
//!
//! A file is divided at positions where the rolling fingerprint of the
//! trailing window matches a magic value — so boundaries depend only on
//! *content*, not offsets, and a local edit disturbs at most the
//! segments it touches. The paper constrains final segment sizes to
//! `(0.5 θ, 1.5 θ)`; we realize exactly that constraint by suppressing
//! cut points before `0.5 θ` and forcing one at `1.5 θ` (equivalent to
//! the paper's merge-small/split-large post-pass, but single-scan).
//!
//! Two rolling hashes implement the same contract, selected by
//! [`ChunkerKind`]: the paper-faithful LBFS [`RabinHash`] and the
//! FastCDC-style [gear hash](crate::GearHash), whose shift+add update
//! and skip-ahead over the minimum-size region make it several times
//! faster on the same core. Both have an exact fixed-width window
//! (48 bytes for Rabin, 64 for gear), which is what makes cut
//! decisions position-independent: a boundary depends only on the
//! bytes just before it.
//!
//! Each segment is identified by the SHA-1 of its content, giving
//! cross-file deduplication for free.

use unidrive_crypto::{Digest, Sha1};

use crate::gear::{scan_first_match, warm_at, GEAR_WINDOW};
use crate::rabin::RabinHash;

/// Which rolling hash finds the cut points. Both honour the same
/// `(0.5 θ, 1.5 θ)` size contract; they cut at different (but equally
/// content-defined) positions, so a store must pick one and stay with
/// it — mixing kinds re-chunks everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChunkerKind {
    /// LBFS-style Rabin fingerprint over a 48-byte window: the paper's
    /// algorithm, kept as the `--paper-fidelity` mode.
    #[default]
    Rabin,
    /// Gear hash (FastCDC-style): one shift+add+table-lookup per byte,
    /// wide unrolled scan, skip-ahead over the minimum-size region.
    Gear,
}

impl ChunkerKind {
    /// Short lowercase label, used as a metrics dimension.
    pub fn label(&self) -> &'static str {
        match self {
            ChunkerKind::Rabin => "rabin",
            ChunkerKind::Gear => "gear",
        }
    }
}

/// Parameters of the content-defined chunker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// Target (average) segment size θ in bytes.
    pub theta: usize,
    /// Rolling-hash window in bytes (Rabin only; the gear hash has an
    /// intrinsic 64-byte window).
    pub window: usize,
    /// Which rolling hash finds the cut points.
    pub kind: ChunkerKind,
}

impl ChunkerConfig {
    /// Creates a Rabin config with the given θ and the LBFS-style
    /// 48-byte window.
    ///
    /// # Panics
    ///
    /// Panics if `theta < 64`.
    pub fn new(theta: usize) -> Self {
        assert!(theta >= 64, "theta too small to chunk meaningfully");
        ChunkerConfig {
            theta,
            window: 48,
            kind: ChunkerKind::Rabin,
        }
    }

    /// Creates a gear-hash config with the given θ.
    ///
    /// # Panics
    ///
    /// Panics if `theta < 64`.
    pub fn gear(theta: usize) -> Self {
        ChunkerConfig::new(theta).with_kind(ChunkerKind::Gear)
    }

    /// Same config with a different [`ChunkerKind`].
    pub fn with_kind(mut self, kind: ChunkerKind) -> Self {
        self.kind = kind;
        self
    }

    /// The paper's default θ = 4 MB (Rabin — paper fidelity).
    pub fn paper_default() -> Self {
        ChunkerConfig::new(4 * 1024 * 1024)
    }

    /// Minimum segment size `0.5 θ`.
    pub fn min_size(&self) -> usize {
        self.theta / 2
    }

    /// Maximum segment size `1.5 θ`.
    pub fn max_size(&self) -> usize {
        self.theta + self.theta / 2
    }

    /// The effective warm-up window of the selected hash, which also
    /// floors the minimum segment size.
    pub(crate) fn effective_window(&self) -> usize {
        match self.kind {
            ChunkerKind::Rabin => self.window,
            ChunkerKind::Gear => GEAR_WINDOW,
        }
    }

    /// Minimum segment size floored by the warm-up window (a cut
    /// cannot be judged before one full window exists).
    pub(crate) fn effective_min(&self) -> usize {
        self.min_size().max(self.effective_window())
    }

    /// Number of mask bits: expected gap between eligible cut points
    /// is `0.5 θ`, so the mean size lands near θ inside
    /// `[0.5 θ, 1.5 θ)`.
    fn mask_bits(&self) -> u32 {
        (self.theta / 2).next_power_of_two().trailing_zeros()
    }

    /// Rabin cut-point mask (low bits; condition `fp & mask == mask`).
    pub(crate) fn mask(&self) -> u64 {
        (1u64 << self.mask_bits()) - 1
    }

    /// Gear cut-point mask: the *top* `mask_bits` bits (condition
    /// `fp & mask == 0`). High bits of the gear fingerprint receive
    /// contributions from every byte of the 64-byte window (a byte of
    /// age `a` lands shifted left by `a`, and carries only propagate
    /// upward), so judging them makes the cut depend on the whole
    /// window rather than the few newest bytes the low bits see.
    pub(crate) fn gear_mask(&self) -> u64 {
        let bits = self.mask_bits();
        if bits == 0 {
            0
        } else {
            ((1u64 << bits) - 1) << (64 - bits)
        }
    }
}

/// One content-defined segment of a file.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Byte offset within the file.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
    /// SHA-1 of the segment content (its identity in the segment pool).
    pub digest: Digest,
}

impl Segment {
    /// The half-open byte range of this segment.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// Splits `data` into content-defined segments.
///
/// Every byte belongs to exactly one segment; all segments except
/// possibly the last are within `[0.5 θ, 1.5 θ)`; boundaries are stable
/// under local edits.
///
/// # Examples
///
/// ```
/// use unidrive_chunker::{segment_bytes, ChunkerConfig};
///
/// let data = vec![7u8; 100_000];
/// let segs = segment_bytes(&data, &ChunkerConfig::new(16 * 1024));
/// let total: usize = segs.iter().map(|s| s.len).sum();
/// assert_eq!(total, data.len());
/// ```
pub fn segment_bytes(data: &[u8], config: &ChunkerConfig) -> Vec<Segment> {
    let mut segments = Vec::new();
    for (offset, len) in cut_points(data, config) {
        segments.push(Segment {
            offset,
            len,
            digest: Sha1::digest(&data[offset..offset + len]),
        });
    }
    segments
}

/// Computes `(offset, len)` pairs of the content-defined segmentation
/// without hashing the contents (the cheap half of [`segment_bytes`]).
///
/// Dispatches on [`ChunkerConfig::kind`]: the Rabin path walks the
/// paper's rolling scan; the gear path skips ahead over the
/// minimum-size region and runs the wide unrolled scan. Both produce
/// the *first eligible candidate* in `(start+min, start+max)` or a
/// forced cut at `start+max`.
pub fn cut_points(data: &[u8], config: &ChunkerConfig) -> Vec<(usize, usize)> {
    match config.kind {
        ChunkerKind::Rabin => cut_points_rabin(data, config),
        ChunkerKind::Gear => cut_points_gear(data, config),
    }
}

/// Serial Rabin scan (the paper's algorithm, byte-identical to the
/// pre-[`ChunkerKind`] implementation).
fn cut_points_rabin(data: &[u8], config: &ChunkerConfig) -> Vec<(usize, usize)> {
    if data.is_empty() {
        return Vec::new();
    }
    let mask = config.mask();
    let min = config.min_size().max(config.window);
    let max = config.max_size();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut hash = RabinHash::new(config.window);
    while data.len() - start > max {
        // Find the next cut in (start+min, start+max].
        let mut cut = start + max;
        // Prime the window over the last `window` bytes before the first
        // eligible position.
        hash.reset();
        let prime_from = start + min - config.window;
        for &b in &data[prime_from..start + min] {
            hash.push(b);
        }
        // Walk expiring/arriving bytes as a pair of zipped slices so the
        // inner loop carries no per-byte bounds checks (the loop guard
        // guarantees `start + max < data.len()`).
        let expiring = &data[prime_from..start + max - config.window];
        let arriving = &data[start + min..start + max];
        for (i, (&old, &new)) in expiring.iter().zip(arriving).enumerate() {
            if hash.fingerprint() & mask == mask {
                cut = start + min + i;
                break;
            }
            hash.roll(old, new);
        }
        out.push((start, cut - start));
        start = cut;
    }
    out.push((start, data.len() - start));
    out
}

/// Serial gear scan with skip-ahead: after each cut the scan jumps
/// straight to the first eligible position (`start + min`), re-warms
/// the 64-byte window there, and runs the wide unrolled first-match
/// kernel over `(start+min, start+max)`. Most of the minimum-size
/// region is never touched, which is (with the cheaper per-byte
/// update) where the gear path's speed comes from.
fn cut_points_gear(data: &[u8], config: &ChunkerConfig) -> Vec<(usize, usize)> {
    if data.is_empty() {
        return Vec::new();
    }
    let mask = config.gear_mask();
    let min = config.effective_min();
    let max = config.max_size();
    let mut out = Vec::new();
    let mut start = 0usize;
    while data.len() - start > max {
        // Candidate positions are [start+min, start+max); a position's
        // fingerprint is an exact function of the 64 bytes before it
        // (gear's exact-window lemma), so warming up at start+min gives
        // bit-identical fingerprints to a scan that rolled through from
        // the start of the file.
        let lo = start + min;
        let hi = start + max;
        let cut = match scan_first_match(&data[lo..hi], warm_at(data, lo), mask) {
            Some(off) => lo + off,
            None => hi,
        };
        out.push((start, cut - start));
        start = cut;
    }
    out.push((start, data.len() - start));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle of the size contract: replays the min/max
    /// state machine over the sorted list of *every* position whose
    /// fingerprint matches — next cut = first candidate in
    /// `[start+min, start+max)`, else forced at `start+max`. Candidates
    /// are position-independent (each is judged on its own trailing
    /// window), so this fold is what the skip-ahead scans must compute.
    fn fold_candidates(
        len: usize,
        config: &ChunkerConfig,
        candidates: &[usize],
    ) -> Vec<(usize, usize)> {
        if len == 0 {
            return Vec::new();
        }
        let min = config.effective_min();
        let max = config.max_size();
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut idx = 0usize;
        while len - start > max {
            while idx < candidates.len() && candidates[idx] < start + min {
                idx += 1;
            }
            let cut = if idx < candidates.len() && candidates[idx] < start + max {
                let c = candidates[idx];
                idx += 1;
                c
            } else {
                start + max
            };
            out.push((start, cut - start));
            start = cut;
        }
        out.push((start, len - start));
        out
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn cfg() -> ChunkerConfig {
        ChunkerConfig::new(8 * 1024)
    }

    #[test]
    fn segments_cover_input_exactly() {
        let data = pseudo_random(200_000, 1);
        let segs = segment_bytes(&data, &cfg());
        let mut pos = 0;
        for s in &segs {
            assert_eq!(s.offset, pos);
            pos += s.len;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn sizes_respect_paper_bounds() {
        let config = cfg();
        let data = pseudo_random(500_000, 2);
        let segs = segment_bytes(&data, &config);
        assert!(segs.len() > 10, "expected many segments, got {}", segs.len());
        for (i, s) in segs.iter().enumerate() {
            if i + 1 < segs.len() {
                assert!(
                    s.len >= config.min_size() && s.len < config.max_size() + 1,
                    "segment {i} size {} out of bounds",
                    s.len
                );
            } else {
                assert!(s.len <= config.max_size());
            }
        }
    }

    #[test]
    fn mean_size_is_near_theta() {
        let config = cfg();
        let data = pseudo_random(2_000_000, 3);
        let segs = segment_bytes(&data, &config);
        let mean = data.len() as f64 / segs.len() as f64;
        let theta = config.theta as f64;
        assert!(
            (0.6 * theta..1.4 * theta).contains(&mean),
            "mean {mean} vs theta {theta}"
        );
    }

    #[test]
    fn local_edit_disturbs_few_segments() {
        // The property that minimizes sync traffic: flipping one byte in
        // the middle changes only the digests of segments near the edit.
        let config = cfg();
        let mut data = pseudo_random(400_000, 4);
        let before = segment_bytes(&data, &config);
        data[200_000] ^= 0xFF;
        let after = segment_bytes(&data, &config);
        let before_set: std::collections::HashSet<_> =
            before.iter().map(|s| s.digest).collect();
        let changed = after
            .iter()
            .filter(|s| !before_set.contains(&s.digest))
            .count();
        assert!(
            changed <= 3,
            "a one-byte edit changed {changed} of {} segments",
            after.len()
        );
    }

    #[test]
    fn prepend_shifts_but_preserves_most_segments() {
        // Offset-based (fixed-size) chunking would invalidate everything.
        let config = cfg();
        let data = pseudo_random(400_000, 5);
        let before = segment_bytes(&data, &config);
        let mut shifted = pseudo_random(1000, 6);
        shifted.extend_from_slice(&data);
        let after = segment_bytes(&shifted, &config);
        let before_set: std::collections::HashSet<_> =
            before.iter().map(|s| s.digest).collect();
        let reused = after
            .iter()
            .filter(|s| before_set.contains(&s.digest))
            .count();
        assert!(
            reused * 2 > after.len(),
            "only {reused} of {} segments reused after prepend",
            after.len()
        );
    }

    #[test]
    fn identical_content_same_digests() {
        let data = pseudo_random(100_000, 7);
        let a = segment_bytes(&data, &cfg());
        let b = segment_bytes(&data, &cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn small_files_are_one_segment() {
        let config = cfg();
        for len in [1usize, 100, config.min_size(), config.max_size()] {
            let data = pseudo_random(len, 8);
            let segs = segment_bytes(&data, &config);
            assert_eq!(segs.len(), 1, "len {len}");
            assert_eq!(segs[0].len, len);
        }
    }

    #[test]
    fn empty_input_has_no_segments() {
        assert!(segment_bytes(&[], &cfg()).is_empty());
    }

    #[test]
    fn property_every_byte_covered_once_across_seeds_and_thetas() {
        // Coverage invariant: for any input and any θ, segments tile
        // the input exactly — contiguous, non-overlapping, complete.
        for theta in [1024usize, 4 * 1024, 64 * 1024] {
            let config = ChunkerConfig::new(theta);
            for seed in 0..8u64 {
                let len = 10_000 + (seed as usize * 7919) % 90_000;
                let data = pseudo_random(len, seed.wrapping_mul(97) + 5);
                let segs = segment_bytes(&data, &config);
                let mut pos = 0usize;
                for s in &segs {
                    assert_eq!(s.offset, pos, "theta={theta} seed={seed}");
                    assert!(s.len > 0, "theta={theta} seed={seed}: empty segment");
                    pos += s.len;
                }
                assert_eq!(pos, data.len(), "theta={theta} seed={seed}");
            }
        }
    }

    #[test]
    fn property_sizes_within_half_to_three_half_theta() {
        // Size invariant: every non-final segment lands in
        // [0.5 θ, 1.5 θ); the final one only has the upper bound.
        for theta in [1024usize, 8 * 1024, 32 * 1024] {
            let config = ChunkerConfig::new(theta);
            for seed in 20..26u64 {
                let data = pseudo_random(40 * theta, seed);
                let segs = segment_bytes(&data, &config);
                for (i, s) in segs.iter().enumerate() {
                    assert!(s.len <= config.max_size(), "theta={theta} seed={seed} seg {i}");
                    if i + 1 < segs.len() {
                        assert!(
                            s.len >= config.min_size(),
                            "theta={theta} seed={seed} seg {i}: {} < {}",
                            s.len,
                            config.min_size()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn property_boundaries_stable_under_prefix_edit() {
        // Stability invariant: editing bytes inside the first segment
        // leaves every later boundary untouched — the content-defined
        // cuts downstream of the edit depend only on local windows.
        let config = ChunkerConfig::new(8 * 1024);
        for seed in 40..46u64 {
            let data = pseudo_random(300_000, seed);
            let before = segment_bytes(&data, &config);
            assert!(before.len() > 3, "seed={seed}");
            let mut edited = data.clone();
            // Scribble over a run near the start (inside segment 0, past
            // the rolling window so segment 0's own cut can re-settle).
            for b in &mut edited[100..200] {
                *b ^= 0x5A;
            }
            let after = segment_bytes(&edited, &config);
            // All boundaries at or after the end of the edited segment
            // must be byte-identical.
            let stable_from = before[0].offset + before[0].len.max(after[0].len);
            let cuts = |segs: &[Segment]| {
                segs.iter()
                    .map(|s| s.offset + s.len)
                    .filter(|&c| c > stable_from)
                    .collect::<Vec<_>>()
            };
            assert_eq!(cuts(&before), cuts(&after), "seed={seed}");
        }
    }

    fn gear_cfg() -> ChunkerConfig {
        ChunkerConfig::gear(8 * 1024)
    }

    #[test]
    fn gear_segments_cover_input_exactly() {
        let data = pseudo_random(200_000, 1);
        let segs = segment_bytes(&data, &gear_cfg());
        let mut pos = 0;
        for s in &segs {
            assert_eq!(s.offset, pos);
            pos += s.len;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn gear_sizes_respect_paper_bounds() {
        let config = gear_cfg();
        let data = pseudo_random(500_000, 2);
        let segs = segment_bytes(&data, &config);
        assert!(segs.len() > 10, "expected many segments, got {}", segs.len());
        for (i, s) in segs.iter().enumerate() {
            assert!(s.len <= config.max_size(), "segment {i}");
            if i + 1 < segs.len() {
                assert!(s.len >= config.min_size(), "segment {i} size {}", s.len);
            }
        }
    }

    #[test]
    fn gear_mean_size_is_near_theta() {
        let config = gear_cfg();
        let data = pseudo_random(2_000_000, 3);
        let segs = segment_bytes(&data, &config);
        let mean = data.len() as f64 / segs.len() as f64;
        let theta = config.theta as f64;
        assert!(
            (0.6 * theta..1.4 * theta).contains(&mean),
            "mean {mean} vs theta {theta}"
        );
    }

    #[test]
    fn gear_local_edit_disturbs_few_segments() {
        let config = gear_cfg();
        let mut data = pseudo_random(400_000, 4);
        let before = segment_bytes(&data, &config);
        data[200_000] ^= 0xFF;
        let after = segment_bytes(&data, &config);
        let before_set: std::collections::HashSet<_> =
            before.iter().map(|s| s.digest).collect();
        let changed = after
            .iter()
            .filter(|s| !before_set.contains(&s.digest))
            .count();
        assert!(
            changed <= 3,
            "a one-byte edit changed {changed} of {} segments",
            after.len()
        );
    }

    #[test]
    fn gear_prepend_shifts_but_preserves_most_segments() {
        let config = gear_cfg();
        let data = pseudo_random(400_000, 5);
        let before = segment_bytes(&data, &config);
        let mut shifted = pseudo_random(1000, 6);
        shifted.extend_from_slice(&data);
        let after = segment_bytes(&shifted, &config);
        let before_set: std::collections::HashSet<_> =
            before.iter().map(|s| s.digest).collect();
        let reused = after
            .iter()
            .filter(|s| before_set.contains(&s.digest))
            .count();
        assert!(
            reused * 2 > after.len(),
            "only {reused} of {} segments reused after prepend",
            after.len()
        );
    }

    #[test]
    fn gear_constant_data_hits_max_size_segments() {
        // A constant window has one fingerprint; with overwhelming
        // probability it misses the mask, forcing max-size cuts — but
        // whichever way it goes, the size contract must hold.
        let config = gear_cfg();
        let data = vec![0u8; 200_000];
        let segs = segment_bytes(&data, &config);
        let mut pos = 0;
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.offset, pos);
            pos += s.len;
            assert!(s.len <= config.max_size());
            if i + 1 < segs.len() {
                assert!(s.len >= config.min_size());
            }
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn gear_kinds_cut_differently_but_both_lawfully() {
        // Sanity: the two kinds are different segmentations of the same
        // content (mixing them would re-chunk a store), yet both honour
        // the same contract.
        let data = pseudo_random(600_000, 21);
        let rabin = segment_bytes(&data, &cfg());
        let gear = segment_bytes(&data, &gear_cfg());
        assert_ne!(
            rabin.iter().map(|s| s.offset).collect::<Vec<_>>(),
            gear.iter().map(|s| s.offset).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gear_boundaries_stable_under_prefix_edit() {
        let config = gear_cfg();
        for seed in 60..66u64 {
            let data = pseudo_random(300_000, seed);
            let before = segment_bytes(&data, &config);
            assert!(before.len() > 3, "seed={seed}");
            let mut edited = data.clone();
            for b in &mut edited[100..200] {
                *b ^= 0x5A;
            }
            let after = segment_bytes(&edited, &config);
            let stable_from = before[0].offset + before[0].len.max(after[0].len);
            let cuts = |segs: &[Segment]| {
                segs.iter()
                    .map(|s| s.offset + s.len)
                    .filter(|&c| c > stable_from)
                    .collect::<Vec<_>>()
            };
            assert_eq!(cuts(&before), cuts(&after), "seed={seed}");
        }
    }

    #[test]
    fn fold_matches_serial_scan_for_both_kinds() {
        // fold_candidates over the full candidate set must reproduce
        // the skip-ahead scans exactly: skipping the minimum-size
        // region never skips a cut.
        for config in [cfg(), gear_cfg()] {
            let data = pseudo_random(400_000, 77);
            let min = config.effective_min();
            let mut candidates = Vec::new();
            match config.kind {
                ChunkerKind::Gear => {
                    let mask = config.gear_mask();
                    let mut h = warm_at(&data, min);
                    for c in min..data.len() {
                        if h & mask == 0 {
                            candidates.push(c);
                        }
                        h = (h << 1).wrapping_add(crate::gear::GEAR_TABLE[data[c] as usize]);
                    }
                }
                ChunkerKind::Rabin => {
                    let mask = config.mask();
                    let mut hash = RabinHash::new(config.window);
                    for &b in &data[min - config.window..min] {
                        hash.push(b);
                    }
                    for c in min..data.len() {
                        if hash.fingerprint() & mask == mask {
                            candidates.push(c);
                        }
                        hash.roll(data[c - config.window], data[c]);
                    }
                }
            }
            let folded = fold_candidates(data.len(), &config, &candidates);
            assert_eq!(
                folded,
                cut_points(&data, &config),
                "kind={}",
                config.kind.label()
            );
        }
    }

    #[test]
    fn constant_data_hits_max_size_segments() {
        // All-zero data never matches the magic mask, so cuts are forced
        // at max_size: the degenerate-content worst case terminates.
        let config = cfg();
        let data = vec![0u8; 100_000];
        let segs = segment_bytes(&data, &config);
        for (i, s) in segs.iter().enumerate() {
            if i + 1 < segs.len() {
                assert_eq!(s.len, config.max_size());
            }
        }
        // And all full-size segments dedup to one digest.
        let distinct: std::collections::HashSet<_> =
            segs[..segs.len() - 1].iter().map(|s| s.digest).collect();
        assert_eq!(distinct.len(), 1);
    }
}
