//! Randomized property tests of the content-defined chunker: the
//! invariants UniDrive's deduplication and update-traffic claims rest
//! on. Driven by the workspace's deterministic `SimRng` (seeded, so
//! failures reproduce exactly) instead of an external property-testing
//! crate.

use unidrive_chunker::{segment_bytes, ChunkerConfig};
use unidrive_sim::SimRng;

fn config() -> ChunkerConfig {
    ChunkerConfig::new(4096)
}

fn random_vec(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Segments tile the input exactly: contiguous, complete, in order.
#[test]
fn segments_tile_input() {
    let mut rng = SimRng::seed_from_u64(0xC401);
    for _ in 0..64 {
        let data = random_vec(&mut rng, 60_000);
        let segs = segment_bytes(&data, &config());
        let mut pos = 0usize;
        for s in &segs {
            assert_eq!(s.offset, pos);
            pos += s.len;
        }
        assert_eq!(pos, data.len());
    }
}

/// All segments except the final one respect the (0.5θ, 1.5θ] size
/// bounds; the final one only the upper bound.
#[test]
fn segment_sizes_bounded() {
    let mut rng = SimRng::seed_from_u64(0xC402);
    let cfg = config();
    for _ in 0..64 {
        let data = random_vec(&mut rng, 60_000);
        let segs = segment_bytes(&data, &cfg);
        for (i, s) in segs.iter().enumerate() {
            assert!(s.len <= cfg.max_size());
            if i + 1 < segs.len() {
                assert!(s.len >= cfg.min_size());
            }
        }
    }
}

/// Segmentation is a pure function of the content.
#[test]
fn segmentation_is_deterministic() {
    let mut rng = SimRng::seed_from_u64(0xC403);
    for _ in 0..32 {
        let data = random_vec(&mut rng, 30_000);
        assert_eq!(
            segment_bytes(&data, &config()),
            segment_bytes(&data, &config())
        );
    }
}

/// Digests identify content: identical slices <=> identical digests
/// within one run (no accidental collisions on random data).
#[test]
fn digests_match_content() {
    let mut rng = SimRng::seed_from_u64(0xC404);
    for _ in 0..32 {
        let data = random_vec(&mut rng, 30_000);
        let segs = segment_bytes(&data, &config());
        for s in &segs {
            let expect = unidrive_crypto::Sha1::digest(&data[s.range()]);
            assert_eq!(s.digest, expect);
        }
    }
}

/// Appending data never changes the digests of segments that end well
/// before the appended region (the dedup-stability property).
#[test]
fn appends_preserve_early_segments() {
    let mut rng = SimRng::seed_from_u64(0xC405);
    let cfg = config();
    for _ in 0..32 {
        let base_len = 20_000 + rng.below(20_000) as usize;
        let data: Vec<u8> = (0..base_len).map(|_| rng.next_u64() as u8).collect();
        let tail_len = 1 + rng.below(4_999) as usize;
        let tail: Vec<u8> = (0..tail_len).map(|_| rng.next_u64() as u8).collect();
        let before = segment_bytes(&data, &cfg);
        let mut extended = data.clone();
        extended.extend_from_slice(&tail);
        let after = segment_bytes(&extended, &cfg);
        // Every 'before' segment except possibly the last two must
        // reappear verbatim (the tail can merge into the final segment,
        // and the forced max-size cut before it may shift once).
        if before.len() > 2 {
            for (b, a) in before[..before.len() - 2].iter().zip(&after) {
                assert_eq!(b, a);
            }
        }
    }
}

/// Editing bytes inside an early segment leaves every boundary past
/// the edited segment untouched, across seeds × θ — cut decisions see
/// only their own trailing window.
#[test]
fn prefix_edit_keeps_downstream_boundaries() {
    for theta in [1024usize, 4096, 16 * 1024] {
        let cfg = ChunkerConfig::new(theta);
        let mut rng = SimRng::seed_from_u64(0xC406 ^ theta as u64);
        for _ in 0..8 {
            let data: Vec<u8> = (0..40 * theta).map(|_| rng.next_u64() as u8).collect();
            let before = segment_bytes(&data, &cfg);
            assert!(before.len() > 3, "theta={theta}");
            let mut edited = data.clone();
            for b in &mut edited[100..300] {
                *b ^= 0xA5;
            }
            let after = segment_bytes(&edited, &cfg);
            let stable_from = before[0].offset + before[0].len.max(after[0].len);
            let cuts = |segs: &[unidrive_chunker::Segment]| {
                segs.iter()
                    .map(|s| s.offset + s.len)
                    .filter(|&c| c > stable_from)
                    .collect::<Vec<_>>()
            };
            assert_eq!(cuts(&before), cuts(&after), "theta={theta}");
        }
    }
}
