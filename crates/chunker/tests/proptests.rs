//! Randomized property tests of the content-defined chunker: the
//! invariants UniDrive's deduplication and update-traffic claims rest
//! on. Driven by the workspace's deterministic `SimRng` (seeded, so
//! failures reproduce exactly) instead of an external property-testing
//! crate.

use unidrive_chunker::{segment_bytes, segment_bytes_after, ChunkerConfig};
use unidrive_crypto::Digest;
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

/// The `(digest, len)` cut of `data`, as a device keeps it.
fn cut_of(data: &[u8], cfg: &ChunkerConfig) -> Vec<(Digest, usize)> {
    segment_bytes(data, cfg).iter().map(|s| (s.digest, s.len)).collect()
}

/// One random edit of `old` for the re-cut property, and its name.
fn edited(old: &[u8], cfg: &ChunkerConfig, rng: &mut SimRng) -> (&'static str, Vec<u8>) {
    let mut new = old.to_vec();
    let cuts: Vec<usize> = segment_bytes(old, cfg).iter().map(|s| s.offset + s.len).collect();
    let at = |rng: &mut SimRng, n: usize| rng.below(n as u64 + 1) as usize;
    let noise = |rng: &mut SimRng, n: usize| (0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
    let kind = rng.below(10);
    let name = match kind {
        _ if old.is_empty() && kind < 8 => {
            let len = at(rng, 3 * cfg.theta);
            new = noise(rng, len);
            "write into an empty file"
        }
        0 => {
            // Strictly inside one segment.
            let segs = segment_bytes(old, cfg);
            let s = &segs[rng.below(segs.len() as u64) as usize];
            let from = s.offset + at(rng, s.len - 1);
            let len = 1 + at(rng, (s.offset + s.len - from).saturating_sub(1).min(64));
            for b in &mut new[from..(from + len).min(s.offset + s.len)] {
                *b ^= 1 + rng.below(255) as u8;
            }
            "overwrite inside a segment"
        }
        1 => {
            // Across the boundary after a segment.
            let cut = cuts[rng.below(cuts.len() as u64) as usize];
            let from = cut.saturating_sub(1 + at(rng, 40));
            let to = (cut + 1 + at(rng, 40)).min(old.len());
            for b in &mut new[from..to] {
                *b = !*b;
            }
            "overwrite across a boundary"
        }
        2 => {
            let pos = at(rng, old.len());
            let len = 1 + at(rng, cfg.theta);
            new.splice(pos..pos, noise(rng, len));
            "insert"
        }
        3 => {
            let from = at(rng, old.len());
            let to = (from + 1 + at(rng, cfg.theta)).min(old.len());
            new.drain(from..to);
            "delete"
        }
        4 => {
            let len = 1 + at(rng, 2 * cfg.theta);
            new.extend(noise(rng, len));
            "append"
        }
        5 => {
            let last = segment_bytes(old, cfg).last().expect("non-empty").offset;
            new.truncate(last + at(rng, old.len() - last - 1));
            "truncate into the last segment"
        }
        6 => {
            new.truncate(cuts[rng.below(cuts.len() as u64) as usize]);
            "truncate to a boundary"
        }
        7 => {
            new.clear();
            "empty the file"
        }
        8 => "no change",
        _ => {
            // Shorter than the file the cut came from: its lengths run
            // past the end.
            let len = at(rng, old.len());
            new = noise(rng, len);
            "an unrelated file"
        }
    };
    (name, new)
}

/// The re-cut returns exactly the full cut, whatever the edit since the
/// previous cut, at θ where ranges are shorter than the Rabin window's
/// skip region (64), at a typical θ (4096), and at a θ every file is
/// shorter than 1.5 θ of (one final segment, no scan at all).
#[test]
fn recut_after_an_edit_is_the_full_cut() {
    for (theta, max_len) in [(64usize, 3_000usize), (4096, 60_000), (65_536, 60_000)] {
        let cfg = ChunkerConfig::new(theta);
        let mut rng = SimRng::seed_from_u64(0xC407 ^ theta as u64);
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..400 {
            let old = match rng.below(16) {
                0 => Vec::new(),
                _ => random_vec(&mut rng, max_len),
            };
            let (edit, new) = edited(&old, &cfg, &mut rng);
            seen.insert(edit);
            let (segments, reused) = segment_bytes_after(&new, &cfg, &cut_of(&old, &cfg));
            assert_eq!(segments, segment_bytes(&new, &cfg), "theta={theta} round={round}: {edit}");
            assert!(reused <= new.len(), "theta={theta} round={round}: {edit}");
            if edit == "no change" {
                assert_eq!(reused, new.len(), "theta={theta} round={round}: an unchanged file scans");
            }
        }
        assert_eq!(seen.len(), 11, "theta={theta}: edits exercised {seen:?}");
    }
}
