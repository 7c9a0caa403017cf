//! Content-based file segmentation (paper §6.1).
//!
//! A file is divided at positions where the LBFS-style Rabin
//! fingerprint ([`RabinHash`]) of the trailing 48-byte window matches a
//! magic value — so boundaries depend only on *content*, not offsets,
//! and a local edit disturbs at most the segments it touches. The paper
//! constrains final segment sizes to `(0.5 θ, 1.5 θ)`; we realize
//! exactly that constraint by suppressing cut points before `0.5 θ` and
//! forcing one at `1.5 θ` (equivalent to the paper's merge-small/
//! split-large post-pass, but single-scan). The window is exact, so a
//! boundary depends only on the bytes just before it, which is what
//! lets the scan skip the minimum-size region after each cut.
//!
//! Each segment is identified by the SHA-1 of its content, giving
//! cross-file deduplication for free.

use unidrive_crypto::{Digest, Sha1};

use crate::rabin::RabinHash;

/// Rolling-hash window in bytes (LBFS).
const WINDOW: usize = 48;

/// Parameters of the content-defined chunker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// Target (average) segment size θ in bytes.
    pub theta: usize,
}

impl ChunkerConfig {
    /// Creates a config with the given θ.
    ///
    /// # Panics
    ///
    /// Panics if `theta < 64`.
    pub fn new(theta: usize) -> Self {
        assert!(theta >= 64, "theta too small to chunk meaningfully");
        ChunkerConfig { theta }
    }

    /// The paper's default θ = 4 MB.
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

    /// Minimum segment size floored by the window (a cut cannot be
    /// judged before one full window exists).
    fn min_cut(&self) -> usize {
        self.min_size().max(WINDOW)
    }

    /// Cut-point mask (condition `fp & mask == mask`): the expected gap
    /// between eligible cut points is `0.5 θ`, so the mean size lands
    /// near θ inside `[0.5 θ, 1.5 θ)`.
    fn mask(&self) -> u64 {
        (1u64 << (self.theta / 2).next_power_of_two().trailing_zeros()) - 1
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
/// One serial Rabin scan with skip-ahead: after each cut it primes the
/// window just before `start + min` and rolls through
/// `(start+min, start+max)`, cutting at the first eligible candidate or
/// forcing a cut at `start+max`.
pub fn cut_points(data: &[u8], config: &ChunkerConfig) -> Vec<(usize, usize)> {
    if data.is_empty() {
        return Vec::new();
    }
    let mask = config.mask();
    let min = config.min_cut();
    let max = config.max_size();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut hash = RabinHash::new(WINDOW);
    while data.len() - start > max {
        // Find the next cut in (start+min, start+max].
        let mut cut = start + max;
        // Prime the window over the last `WINDOW` bytes before the first
        // eligible position.
        hash.reset();
        let prime_from = start + min - WINDOW;
        for &b in &data[prime_from..start + min] {
            hash.push(b);
        }
        // Walk expiring/arriving bytes as a pair of zipped slices so the
        // inner loop carries no per-byte bounds checks (the loop guard
        // guarantees `start + max < data.len()`).
        let expiring = &data[prime_from..start + max - WINDOW];
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle of the size contract: replays the min/max
    /// state machine over the sorted list of *every* position whose
    /// fingerprint matches — next cut = first candidate in
    /// `[start+min, start+max)`, else forced at `start+max`. Candidates
    /// are position-independent (each is judged on its own trailing
    /// window), so this fold is what the skip-ahead scan must compute.
    fn fold_candidates(
        len: usize,
        config: &ChunkerConfig,
        candidates: &[usize],
    ) -> Vec<(usize, usize)> {
        if len == 0 {
            return Vec::new();
        }
        let min = config.min_cut();
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

    #[test]
    fn fold_matches_serial_scan() {
        // fold_candidates over the full candidate set must reproduce
        // the skip-ahead scan exactly: skipping the minimum-size region
        // never skips a cut.
        let config = cfg();
        let data = pseudo_random(400_000, 77);
        let min = config.min_cut();
        let mask = config.mask();
        let mut candidates = Vec::new();
        let mut hash = RabinHash::new(WINDOW);
        for &b in &data[min - WINDOW..min] {
            hash.push(b);
        }
        for c in min..data.len() {
            if hash.fingerprint() & mask == mask {
                candidates.push(c);
            }
            hash.roll(data[c - WINDOW], data[c]);
        }
        let folded = fold_candidates(data.len(), &config, &candidates);
        assert_eq!(folded, cut_points(&data, &config));
    }

    #[test]
    fn cut_points_are_pinned() {
        // Every boundary of a fixed 1 MiB input at θ = 8 KiB: a change
        // that moves any Rabin boundary re-chunks every store.
        let data = pseudo_random(1 << 20, 29);
        let cuts = cut_points(&data, &cfg());
        #[rustfmt::skip]
        let want = [
            0, 12288, 20408, 25248, 37536, 41791, 52642, 57365, 69653, 81721, 90829, 98624,
            106657, 114950, 120443, 129737, 135092, 145854, 158101, 170389, 175405, 179606,
            184224, 188412, 199900, 209785, 215676, 221624, 225783, 238071, 247949, 253148,
            263509, 273326, 278431, 288115, 292636, 300670, 312958, 321142, 328298, 333542,
            345830, 351438, 356047, 366216, 372822, 385110, 392063, 402085, 407075, 412073,
            419514, 423793, 433010, 445298, 454427, 466288, 474607, 479682, 491970, 496162,
            500831, 506110, 515045, 521286, 525669, 530963, 536186, 543782, 556070, 565559,
            570497, 576459, 588225, 598720, 603007, 608596, 615955, 626001, 632888, 639419,
            644058, 651616, 662633, 668994, 673331, 677882, 690170, 696491, 704496, 716784,
            721927, 728890, 741178, 753131, 758427, 762525, 770849, 776628, 783729, 791189,
            796585, 805476, 812065, 819031, 825428, 829534, 841822, 846439, 851888, 861622,
            865873, 874682, 879180, 883695, 887968, 897043, 903612, 915900, 928188, 933983,
            938145, 947147, 951933, 957596, 969884, 982172, 988585, 996303, 1000809, 1005945,
            1012500, 1018996, 1023712, 1028095, 1036412,
        ];
        assert_eq!(cuts.iter().map(|&(offset, _)| offset).collect::<Vec<_>>(), want);
        let &(last, len) = cuts.last().expect("a non-empty input has a segment");
        assert_eq!(last + len, data.len());
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
