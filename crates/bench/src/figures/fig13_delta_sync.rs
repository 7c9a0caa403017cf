//! **Figure 13** — effectiveness of Delta-sync (§7.2): syncing
//! 1024 × 100 KB files one after another, comparing the gross metadata
//! size at the sender against the metadata traffic actually transferred
//! after Delta-sync (base + delta split, λ compaction).
//!
//! Shape targets: metadata size grows linearly with the number of
//! files; the transferred traffic is ~13× smaller, with sparse peaks
//! where the delta is merged into a new base.

use crate::figures::Ctx;
use unidrive_crypto::Sha1;
use unidrive_meta::{DeltaLog, DeltaRecord, SegmentId, Snapshot, SyncFolderImage, VersionStamp};
use unidrive_workload::{Summary, TextTable};

pub fn run(_cx: &Ctx) {
    let files = 1024usize;
    let file_size = 100 * 1024u64;
    let ratio = 0.25;
    let floor = 10 * 1024;

    let mut image = SyncFolderImage::new();
    let mut delta = DeltaLog::new(VersionStamp::default());
    let mut base_size = image.encode().len();

    let mut gross_sizes = Vec::new();
    let mut traffic = Vec::new();
    let mut compactions = Vec::new();

    for i in 0..files {
        let seg = SegmentId(Sha1::digest(format!("file-{i}").as_bytes()));
        let stamp = VersionStamp {
            device: "sender".into(),
            counter: i as u64 + 1,
            timestamp_ns: i as u64,
        };
        let records = vec![
            DeltaRecord::EnsureSegment { id: seg, len: file_size, packed: None },
            DeltaRecord::AddBlock {
                id: seg,
                block: unidrive_meta::BlockRef {
                    index: (i % 5) as u16,
                    cloud: (i % 5) as u16,
                },
            },
            DeltaRecord::UpsertFile {
                path: format!("trial/file-{i:04}.dat"),
                snapshot: Snapshot {
                    segments: vec![seg],
                },
            },
        ];
        image.ensure_segment(seg, file_size);
        image.upsert_file(
            &format!("trial/file-{i:04}.dat"),
            Snapshot {
                segments: vec![seg],
            },
        );
        image.version = stamp.clone();
        delta.append(records, stamp.clone());

        let gross = image.encode().len();
        gross_sizes.push(gross as f64);
        if delta.should_compact(base_size, ratio, floor) {
            // The lock holder merges delta into a new base and uploads
            // the base: that is the traffic spike.
            base_size = gross;
            traffic.push(gross as f64);
            compactions.push(i);
            delta = DeltaLog::new(stamp);
        } else {
            traffic.push(delta.encoded_len() as f64);
        }
    }

    println!("Figure 13: metadata size vs transferred metadata traffic, 1024 x 100 KB updates\n");
    let mut table = TextTable::new(&["update #", "gross metadata KB", "transferred KB"]);
    for &i in &[0usize, 63, 127, 255, 511, 767, 1023] {
        table.row(vec![
            format!("{i}"),
            format!("{:.1}", gross_sizes[i] / 1024.0),
            format!("{:.1}", traffic[i] / 1024.0),
        ]);
    }
    println!("{}", table.render());

    let gross = Summary::of(&gross_sizes).expect("samples");
    let sent = Summary::of(&traffic).expect("samples");
    println!(
        "mean gross metadata {:.1} KB vs mean transferred {:.1} KB: {:.1}x reduction \
         (paper: 74.7 KB -> 5.7 KB, 13.1x)",
        gross.mean / 1024.0,
        sent.mean / 1024.0,
        gross.mean / sent.mean
    );
    println!(
        "{} base-merge peaks over {files} updates (paper: sparse peaks when delta merges)",
        compactions.len()
    );
    // Linearity check: size at the end ~= 2x size at the middle.
    let linearity = gross_sizes[1023] / gross_sizes[511];
    println!("gross size growth 512->1024 files: {linearity:.2}x (paper: linear, i.e. ~2x)");
}
