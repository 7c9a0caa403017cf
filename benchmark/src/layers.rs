//! Layer costs measured by replaying a round's inputs through the
//! layers' public functions, and the bare HTTP stack against one
//! `MockS3` server. Both run outside the timed part of a round.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use unidrive_chunker::cut_points;
use unidrive_cloud::{CloudStore, MockS3, S3Cloud, S3Endpoint};
use unidrive_crypto::{MetadataCipher, Sha1};
use unidrive_erasure::Codec;
use unidrive_meta::{diff, SegmentId, SyncFolderImage};
use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;

use crate::script::Change;
use crate::stats::median;
use crate::world::Device;

/// Seconds and bytes per layer for one replayed round.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub scan_s: f64,
    pub scan_bytes: u64,
    pub sha_s: f64,
    pub segments: u64,
    pub dedup_hits: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub coded_bytes: u64,
    pub ingest_s: f64,
    pub image_bytes: u64,
    pub meta_encode_s: f64,
    pub meta_decode_s: f64,
    pub meta_diff_s: f64,
    pub cipher_s: f64,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(f());
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Replays the writer's `changes` (already committed) through chunker,
/// SHA-1, erasure codec, `DataPlane::segment_file`, the metadata codec,
/// diff and cipher. `before` is the writer's image before the round:
/// a segment it already stores is a dedup hit and is not coded.
pub fn replay(
    writer: &Device,
    changes: &[Change],
    before: &SyncFolderImage,
    passphrase: &str,
) -> Replay {
    let plane = writer.client.data_plane();
    let config = plane.config();
    let codec = Codec::for_config(&config.redundancy).expect("the client runs with this config");
    let indices: Vec<usize> = (0..config.redundancy.normal_block_count()).collect();
    let mut r = Replay::default();
    for change in changes {
        let Change::Put { path, data } = change else {
            continue;
        };
        let cuts = timed(&mut r.scan_s, || cut_points(data, &config.chunker));
        r.scan_bytes += data.len() as u64;
        r.segments += cuts.len() as u64;
        for (offset, len) in cuts {
            let segment = &data[offset..offset + len];
            let id = SegmentId(timed(&mut r.sha_s, || Sha1::digest(segment)));
            if before.segment(&id).is_some_and(|e| !e.blocks.is_empty()) {
                r.dedup_hits += 1;
                continue;
            }
            let blocks = timed(&mut r.encode_s, || codec.encode_blocks(segment, &indices));
            let shares: Vec<(usize, &[u8])> = blocks
                .iter()
                .enumerate()
                .take(codec.k())
                .map(|(i, b)| (i, &b[..]))
                .collect();
            let decoded = timed(&mut r.decode_s, || codec.decode(&shares, len));
            assert!(
                decoded.is_ok_and(|d| d == segment),
                "erasure round trip of a replayed segment"
            );
            r.coded_bytes += len as u64;
        }
        timed(&mut r.ingest_s, || plane.segment_file(path, data));
    }
    let image = writer.client.image();
    let encoded = timed(&mut r.meta_encode_s, || image.encode());
    r.image_bytes = encoded.len() as u64;
    let decoded = timed(&mut r.meta_decode_s, || SyncFolderImage::decode(&encoded));
    assert!(decoded.is_ok(), "metadata image round trip");
    timed(&mut r.meta_diff_s, || diff(before, image));
    let cipher = MetadataCipher::from_passphrase(passphrase);
    timed(&mut r.cipher_s, || cipher.encrypt(&encoded, r.image_bytes));
    r
}

/// Median milliseconds of bare `S3Cloud` calls over one connection.
#[derive(Debug, Clone, Default)]
pub struct HttpCosts {
    pub put_4k_ms: f64,
    pub put_1m_ms: f64,
    pub get_4k_ms: f64,
    pub get_1m_ms: f64,
    pub list_1k_ms: f64,
}

fn median_ms(reps: usize, mut op: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            op(i);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

pub fn http_costs(rt: &Arc<dyn Runtime>) -> HttpCosts {
    let server = MockS3::start().expect("bind a loopback MockS3 server");
    let cloud = S3Cloud::connect(rt, &S3Endpoint::new("bare", server.addr(), "unidrive"), 1);
    let small = Bytes::from(vec![0x5au8; 4 * 1024]);
    let large = Bytes::from(vec![0xa5u8; 1024 * 1024]);
    let put = |dir: &str, data: &Bytes, reps| {
        median_ms(reps, |i| {
            cloud
                .upload(&format!("{dir}/o{i:04}"), data.clone())
                .expect("bare put")
        })
    };
    let get = |dir: &str, reps| {
        median_ms(reps, |i| {
            black_box(cloud.download(&format!("{dir}/o{i:04}")).expect("bare get"));
        })
    };
    let mut costs = HttpCosts {
        put_4k_ms: put("small", &small, 200),
        put_1m_ms: put("large", &large, 24),
        ..HttpCosts::default()
    };
    costs.get_4k_ms = get("small", 200);
    costs.get_1m_ms = get("large", 24);
    for i in 0..1000 {
        cloud
            .upload(&format!("listed/o{i:04}"), Bytes::from_static(b"x"))
            .expect("bare put");
    }
    costs.list_1k_ms = median_ms(20, |_| {
        assert_eq!(cloud.list("listed").expect("bare list").len(), 1000);
    });
    costs
}
