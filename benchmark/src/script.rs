//! Seeded inputs: what every writer changes in every round, and the
//! driver's own model of what each folder must then hold.

use std::collections::{BTreeMap, VecDeque};

use unidrive_sim::{SimRng, SplitMix64};
use unidrive_util::bytes::Bytes;

use crate::spec::Workload;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// One scripted local change.
#[derive(Debug, Clone)]
pub enum Change {
    Put { path: String, data: Bytes },
    Delete { path: String },
}

impl Change {
    pub fn path(&self) -> &str {
        match self {
            Change::Put { path, .. } | Change::Delete { path } => path,
        }
    }
}

/// Expected folder contents; every device must equal it after a round.
pub type Model = BTreeMap<String, Bytes>;

pub fn apply(model: &mut Model, changes: &[Change]) {
    for change in changes {
        match change {
            Change::Put { path, data } => {
                model.insert(path.clone(), data.clone());
            }
            Change::Delete { path } => {
                model.remove(path);
            }
        }
    }
}

/// Incompressible content, distinct per call, so nothing deduplicates
/// unless a workload repeats bytes on purpose.
fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut stream = SplitMix64::new(rng.next_u64());
    let mut out = vec![0u8; len];
    let mut words = out.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&stream.next_u64().to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = stream.next_u64().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
    out
}

/// The shape of one workload's rounds.
struct Shape {
    devices: usize,
    /// Files that stay for the whole run: `(count, bytes each)`.
    permanent: (usize, usize),
    /// New files per writer per round, and their size range in bytes.
    per_round: usize,
    size: (usize, usize),
    /// A round also deletes what round `r - lag` added (0 = never).
    lag: usize,
    /// Directories the new files are spread over.
    dirs: usize,
    /// Bytes overwritten in every permanent file per round.
    edit: usize,
    /// Whether all devices write in the same round; otherwise one does,
    /// and the two devices take turns unless `fixed_writer`.
    all_write: bool,
    fixed_writer: bool,
    /// Whether the lagged deletes are committed in an unmeasured round of
    /// their own instead of together with the new files.
    deletes_apart: bool,
}

fn shape(workload: Workload) -> Shape {
    let base = Shape {
        devices: 2,
        permanent: (0, 0),
        per_round: 0,
        size: (0, 0),
        lag: 0,
        dirs: 1,
        edit: 0,
        all_write: false,
        fixed_writer: false,
        deletes_apart: false,
    };
    match workload {
        Workload::WireBulk => Shape {
            per_round: 4,
            size: (8 * MIB, 8 * MIB),
            lag: 2,
            ..base
        },
        Workload::WireSmall => Shape {
            per_round: 160,
            size: (KIB, 16 * KIB),
            lag: 5,
            dirs: 8,
            ..base
        },
        Workload::WireEdit => Shape {
            permanent: (4, 12 * MIB),
            edit: 4 * KIB,
            ..base
        },
        Workload::WanBatch => {
            // One uploading and one downloading site, as in Fig. 11: the two
            // sites' paths differ, and a median over both directions would
            // sit between two modes. Block GC is a sequential delete per
            // block at WAN latency; committed with the new files it would
            // take longer than the transfers this workload is about.
            Shape {
                permanent: (16, MIB),
                per_round: 16,
                size: (MIB, MIB),
                lag: 2,
                fixed_writer: true,
                deletes_apart: true,
                ..base
            }
        }
        Workload::HotLock | Workload::HotOplog => Shape {
            devices: 4,
            permanent: (128, KIB),
            per_round: 1,
            size: (8 * KIB, 8 * KIB),
            all_write: true,
            ..base
        },
    }
}

pub struct Script {
    shape: Shape,
    rng: SimRng,
    /// Paths added by recent rounds, oldest first, for the lagged deletes.
    recent: VecDeque<Vec<String>>,
    /// Rounds scripted so far (pre-history and warm-up included).
    round: usize,
    /// Modification stamp of the next write; the client detects an edit
    /// by `(size, mtime)`.
    mtime: u64,
}

impl Script {
    pub fn new(workload: Workload, seed: u64) -> Script {
        Script {
            shape: shape(workload),
            rng: SimRng::derive(seed, &format!("syncbench/{}/inputs", workload.name())),
            recent: VecDeque::new(),
            round: 0,
            mtime: 1,
        }
    }

    pub fn devices(&self) -> usize {
        self.shape.devices
    }

    pub fn next_mtime(&mut self) -> u64 {
        self.mtime += 1;
        self.mtime
    }

    /// The devices that change their folder in the next round. With two
    /// devices the writer alternates so both directions are exercised.
    pub fn writers(&self) -> Vec<usize> {
        if self.shape.all_write {
            (0..self.shape.devices).collect()
        } else if self.shape.fixed_writer {
            vec![0]
        } else {
            vec![self.round % self.shape.devices]
        }
    }

    /// The deletes to commit, unmeasured, after the round just scripted.
    pub fn cleanup(&mut self) -> Option<(usize, Vec<Change>)> {
        if !self.shape.deletes_apart || self.recent.len() <= self.shape.lag {
            return None;
        }
        let old = self.recent.pop_front()?;
        Some((
            0,
            old.into_iter()
                .map(|path| Change::Delete { path })
                .collect(),
        ))
    }

    fn new_files(&mut self, writer: usize) -> Vec<Change> {
        let (lo, hi) = self.shape.size;
        (0..self.shape.per_round)
            .map(|i| {
                let len = lo + self.rng.below((hi - lo + 1) as u64) as usize;
                Change::Put {
                    path: format!(
                        "w{writer}/d{}/r{:04}_{i:03}.bin",
                        i % self.shape.dirs,
                        self.round
                    ),
                    data: Bytes::from(random_bytes(&mut self.rng, len)),
                }
            })
            .collect()
    }

    /// What device 0 commits during set-up: the permanent files plus
    /// `lag` rounds of pre-history, so the live set is already at its
    /// steady size when the first round runs.
    pub fn corpus(&mut self) -> Vec<Change> {
        let (count, len) = self.shape.permanent;
        let mut changes: Vec<Change> = (0..count)
            .map(|i| Change::Put {
                path: format!("keep/d{}/f{i:04}.bin", i % 8),
                data: Bytes::from(random_bytes(&mut self.rng, len)),
            })
            .collect();
        for _ in 0..self.shape.lag {
            let files = self.new_files(0);
            self.recent
                .push_back(files.iter().map(|c| c.path().to_owned()).collect());
            self.round += 1;
            changes.extend(files);
        }
        changes
    }

    /// The next round's changes, per writer (same order as
    /// [`writers`](Self::writers)). `model` is the state before the round.
    pub fn next_round(&mut self, model: &Model) -> Vec<(usize, Vec<Change>)> {
        let writers = self.writers();
        let mut added = Vec::new();
        let mut out = Vec::new();
        for (slot, &writer) in writers.iter().enumerate() {
            let mut changes = self.new_files(writer);
            added.extend(changes.iter().map(|c| c.path().to_owned()));
            let deletes_here = self.shape.lag > 0 && !self.shape.deletes_apart;
            if slot == 0 && deletes_here && self.recent.len() >= self.shape.lag {
                if let Some(old) = self.recent.pop_front() {
                    changes.extend(old.into_iter().map(|path| Change::Delete { path }));
                }
            }
            if self.shape.edit > 0 {
                for (path, data) in model.iter().filter(|(p, _)| p.starts_with("keep/")) {
                    let mut bytes = data.to_vec();
                    let at = self.rng.below((bytes.len() - self.shape.edit + 1) as u64) as usize;
                    let patch = random_bytes(&mut self.rng, self.shape.edit);
                    bytes[at..at + self.shape.edit].copy_from_slice(&patch);
                    changes.push(Change::Put {
                        path: path.clone(),
                        data: Bytes::from(bytes),
                    });
                }
            }
            out.push((writer, changes));
        }
        if self.shape.lag > 0 {
            self.recent.push_back(added);
        }
        self.round += 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: Workload, seed: u64) -> Vec<(String, usize, u8)> {
        let mut script = Script::new(workload, seed);
        let mut model = Model::new();
        apply(&mut model, &script.corpus());
        for _ in 0..3 {
            for (_, changes) in script.next_round(&model.clone()) {
                apply(&mut model, &changes);
            }
        }
        model
            .iter()
            .map(|(p, d)| (p.clone(), d.len(), d[0]))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        for workload in [Workload::WireSmall, Workload::HotLock] {
            assert_eq!(fingerprint(workload, 7), fingerprint(workload, 7));
            assert_ne!(fingerprint(workload, 7), fingerprint(workload, 8));
        }
    }

    #[test]
    fn lagged_deletes_hold_the_live_set_steady() {
        let mut script = Script::new(Workload::WireSmall, 1);
        let mut model = Model::new();
        apply(&mut model, &script.corpus());
        assert_eq!(model.len(), 800);
        for _ in 0..7 {
            for (_, changes) in script.next_round(&model.clone()) {
                apply(&mut model, &changes);
            }
            assert_eq!(model.len(), 800);
        }
    }

    #[test]
    fn edits_keep_the_size_and_change_one_range() {
        let mut script = Script::new(Workload::WireEdit, 1);
        let mut model = Model::new();
        apply(&mut model, &script.corpus());
        let before = model.clone();
        let rounds = script.next_round(&model);
        assert_eq!(rounds.len(), 1);
        apply(&mut model, &rounds[0].1);
        for (path, old) in &before {
            let new = &model[path];
            assert_eq!(new.len(), old.len());
            let differing = old.iter().zip(new.iter()).filter(|(a, b)| a != b).count();
            assert!(
                differing > 0 && differing <= 4 * KIB,
                "{path}: {differing} bytes differ"
            );
        }
    }
}
