//! The pluggable metadata plane: how a device coordinates reads and
//! commits of the shared [`SyncFolderImage`].
//!
//! UniDrive's paper design serializes every writer behind one quorum
//! lock over the whole image (the **lock** mode). The **oplog** mode
//! replaces that global serialization with per-device append-only
//! operation logs replicated to every cloud: writers append without
//! coordination, readers fold all visible ops in a total
//! `(lamport, device, seq)` order (see [`fold`](crate::fold)), and the
//! quorum lock survives only for base compaction. Both modes implement
//! [`MetaPlane`]; the sync client is written against the trait.

use std::time::Duration;

use crate::{SyncFolderImage, VersionStamp};
use unidrive_obs::SpanId;

/// Which metadata plane a client runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MetaMode {
    /// Paper §5.2: quorum lock around every metadata commit (default).
    #[default]
    Lock,
    /// Append-only per-device op logs; lock only for compaction.
    Oplog,
}

impl MetaMode {
    /// Parses `"lock"` / `"oplog"` (as accepted by `--meta-mode`).
    pub fn parse(s: &str) -> Option<MetaMode> {
        match s {
            "lock" => Some(MetaMode::Lock),
            "oplog" => Some(MetaMode::Oplog),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetaMode::Lock => "lock",
            MetaMode::Oplog => "oplog",
        }
    }
}

impl std::fmt::Display for MetaMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from a metadata-plane operation.
///
/// The union of the failure shapes of both planes: lock acquisition
/// (lock mode), quorum reads and writes (both modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneError {
    /// Could not win the quorum lock within the configured attempts.
    Contended {
        /// Rounds attempted.
        attempts: u32,
    },
    /// Fewer than a quorum of clouds are reachable at all.
    QuorumUnreachable {
        /// Clouds that answered.
        reachable: usize,
        /// Quorum size needed.
        quorum: usize,
    },
    /// Fewer clouds than a quorum acknowledged the write.
    QuorumWriteFailed {
        /// Clouds that stored the update.
        acked: usize,
        /// Quorum required.
        quorum: usize,
    },
    /// Metadata exists somewhere but no cloud serves a consistent,
    /// decryptable copy.
    Unreadable,
}

impl std::fmt::Display for PlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaneError::Contended { attempts } => {
                write!(f, "failed to acquire quorum lock after {attempts} attempts")
            }
            PlaneError::QuorumUnreachable { reachable, quorum } => write!(
                f,
                "only {reachable} clouds reachable, quorum of {quorum} required"
            ),
            PlaneError::QuorumWriteFailed { acked, quorum } => {
                write!(f, "metadata write reached {acked} clouds, quorum is {quorum}")
            }
            PlaneError::Unreadable => write!(f, "no cloud serves a consistent metadata copy"),
        }
    }
}

impl std::error::Error for PlaneError {}

/// Tunables of the quorum lock (paper §5.2): the lock plane takes it
/// around every commit, the oplog plane around every compaction, and
/// the fleet model contends it with the same defaults.
#[derive(Debug, Clone)]
pub struct LockConfig {
    /// Give up after this many lock-file uploads that lost; a waiting
    /// head also lists one upload at most this many times.
    pub max_attempts: u32,
    /// Base of the random backoff between rounds.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// ΔT: a foreign lock seen unrefreshed for this long is broken.
    pub stale_after: Duration,
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig {
            max_attempts: 12,
            backoff_base: Duration::from_millis(500),
            backoff_max: Duration::from_secs(15),
            // The paper's example ΔT = 120 s.
            stale_after: Duration::from_secs(120),
        }
    }
}

impl LockConfig {
    /// Ceiling of the random backoff after upload `attempt` (0-based)
    /// lost: the base doubled per upload, capped at `backoff_max`.
    pub fn backoff_cap(&self, attempt: u32) -> Duration {
        self.backoff_max
            .min(self.backoff_base * 2u32.saturating_pow(attempt))
    }

    /// Whether a head that has listed its file `lists` times, the file
    /// uploaded `age` ago, keeps it and lists again: at most
    /// `max_attempts` lists per upload, and only while the file is
    /// younger than ΔT/2 (older, others may break it).
    pub fn head_waits(&self, lists: u32, age: Duration) -> bool {
        lists < self.max_attempts && age < self.stale_after / 2
    }
}

/// How one round of the quorum lock ends for the contender that
/// listed the lock directories (paper §5.2, queued as in DESIGN §4
/// decision 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockVerdict {
    /// Our file is the only live one on a majority: we hold the lock.
    Hold,
    /// We lost, but our file sorts first among the files a majority of
    /// listings show: keep it and list again while
    /// [`LockConfig::head_waits`].
    Head,
    /// We lost behind another file: withdraw and back off.
    Lose,
}

/// The quorum lock's one rule. `listings` holds, for each cloud that
/// answered, the sort keys of the live lock files it listed (broken and
/// reclaimed files left out); `ours` is our file's key. Returns the
/// verdict and the number of clouds on which ours is the only live
/// file. A key counts once per listing; a cloud missing from
/// `listings` counts for nothing.
///
/// The lock plane keys a file by `(t, device)` as `parse_lock_name`
/// reads it; any `Ord` key that sorts contenders by when their acquire
/// started does.
pub fn lock_verdict<K: Ord>(
    listings: &[impl AsRef<[K]>],
    quorum: usize,
    ours: &K,
) -> (LockVerdict, usize) {
    let held = listings
        .iter()
        .map(AsRef::as_ref)
        .filter(|l| !l.is_empty() && l.iter().all(|k| k == ours))
        .count();
    if held >= quorum {
        return (LockVerdict::Hold, held);
    }
    let shown = |k: &K| listings.iter().filter(|l| l.as_ref().contains(k)).count() >= quorum;
    let first = listings.iter().flat_map(AsRef::as_ref).filter(|k| shown(k)).min();
    let verdict = if first == Some(ours) { LockVerdict::Head } else { LockVerdict::Lose };
    (verdict, held)
}

/// What one metadata step costs, in Web API calls on each cloud. The
/// paper builds every step, the lock included, from the five cloud
/// operations (§4, §5.2), so a step's cost is a call count per cloud.
///
/// The planes do not read this: they *are* the protocol. Tests in
/// `unidrive-core` count each step's calls on one cloud and assert them
/// equal to [`PROTOCOL_COSTS`], so a protocol change that moves a cost
/// fails until this statement moves with it; the fleet model charges
/// exactly these fields. A step the fleet does not model (polls,
/// lock-plane base compaction) has no field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolCosts {
    /// One quorum-lock round, won or lost: lock-file upload, lock
    /// directory list.
    pub lock_round: u64,
    /// A waiting head's further round: lock directory list (its file
    /// stays up).
    pub lock_poll: u64,
    /// A lost round's withdraw: lock-file delete.
    pub lock_withdraw: u64,
    /// A lock-plane commit under a won lock held less than ΔT/2:
    /// version download, delta upload, version upload, release delete.
    pub lock_commit: u64,
    /// An oplog append before its op-object reads: oplog directory
    /// list, upload of the new op object.
    pub oplog_append: u64,
    /// Each op object the append's listing shows that the device has
    /// not read from that cloud and its base does not cover: its
    /// download.
    pub oplog_op_file: u64,
    /// One uncontended oplog compaction: lock-file upload, lock
    /// directory list, base re-read, oplog directory list, base upload,
    /// base-mark upload, lock-file delete, superseded-mark delete.
    pub oplog_compact: u64,
    /// Each op object the compaction's new base covers: its delete.
    pub oplog_op_delete: u64,
}

/// The one statement of the metadata protocol's per-cloud cost.
pub const PROTOCOL_COSTS: ProtocolCosts = ProtocolCosts {
    lock_round: 2,
    lock_poll: 1,
    lock_withdraw: 1,
    lock_commit: 4,
    oplog_append: 2,
    oplog_op_file: 1,
    oplog_compact: 8,
    oplog_op_delete: 1,
};

/// Bounded-wait audit of the quorum lock: once an acquire has waited
/// this long across losing rounds it is flagged as starved
/// (`lock.starved` series, `starved` span attribute). At fleet scale
/// the randomized backoff is unfair, and a device spinning on a hot
/// folder must not do so unobserved; the lock plane and the fleet model
/// audit at the same bound.
pub const STARVATION_AUDIT: Duration = Duration::from_secs(30);

/// The merge callback [`MetaPlane::transact`] runs inside the
/// transaction: given the freshest remote image (`None` on a fresh
/// multi-cloud), returns the image + stamp to commit, or `None` to
/// abort cleanly.
pub type MergeFn<'a> =
    dyn FnMut(Option<&SyncFolderImage>) -> Option<(SyncFolderImage, VersionStamp)> + 'a;

/// A metadata coordination plane: polls for cloud updates and runs
/// commit transactions against the replicated [`SyncFolderImage`].
///
/// The commit API is transactional by construction: the plane performs
/// whatever coordination its mode requires (acquire the quorum lock,
/// or fold the op logs), hands the freshest remote image to the
/// caller's `build` closure, and publishes what the closure returns.
/// The closure runs *inside* the transaction, so a lock-mode plane
/// holds the lock across it and an oplog-mode plane derives the op
/// from exactly the folded state it read.
pub trait MetaPlane: Send {
    /// Cheap poll for a cloud update (Algorithm 1 lines 15–18).
    ///
    /// Returns `Some(image)` when the cloud holds a newer image than
    /// `current`, `None` when nothing moved (or nothing is reachable —
    /// polls never regress on partial visibility).
    ///
    /// # Errors
    ///
    /// [`PlaneError::Unreadable`] when an update is advertised but no
    /// consistent copy can be fetched.
    fn poll(
        &mut self,
        current: &SyncFolderImage,
        round: Option<SpanId>,
    ) -> Result<Option<SyncFolderImage>, PlaneError>;

    /// One commit transaction.
    ///
    /// The plane reads the freshest remote state and calls `build` with
    /// the remote image (`None` on a fresh multi-cloud). `build`
    /// returns the image to publish plus its version stamp, or `None`
    /// to abort the transaction cleanly. On success the plane returns
    /// the image the caller should adopt as its new synced state — in
    /// oplog mode this is the *folded* image (remote ops ∪ the new op),
    /// which may retain state the committed image dropped.
    ///
    /// # Errors
    ///
    /// [`PlaneError`] on lock, read or quorum-write failures. The
    /// caller's state is unchanged and the commit can be retried.
    fn transact(
        &mut self,
        current: &SyncFolderImage,
        round: Option<SpanId>,
        build: &mut MergeFn<'_>,
    ) -> Result<Option<SyncFolderImage>, PlaneError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_prints() {
        assert_eq!(MetaMode::parse("lock"), Some(MetaMode::Lock));
        assert_eq!(MetaMode::parse("oplog"), Some(MetaMode::Oplog));
        assert_eq!(MetaMode::parse("other"), None);
        assert_eq!(MetaMode::Lock.to_string(), "lock");
        assert_eq!(MetaMode::Oplog.to_string(), "oplog");
        assert_eq!(MetaMode::default(), MetaMode::Lock);
    }

    #[test]
    fn backoff_cap_doubles_up_to_the_ceiling() {
        let config = LockConfig::default();
        assert_eq!(config.backoff_cap(0), Duration::from_millis(500));
        assert_eq!(config.backoff_cap(3), Duration::from_secs(4));
        assert_eq!(config.backoff_cap(5), Duration::from_secs(15));
        assert_eq!(config.backoff_cap(u32::MAX), Duration::from_secs(15));
    }

    #[test]
    fn lock_verdict_table() {
        use LockVerdict::{Head, Hold, Lose};
        // Three clouds, quorum 2, our key 5; a cloud that did not
        // answer is left out of the listings.
        let case = |what: &str, listings: &[&[u32]], want: (LockVerdict, usize)| {
            assert_eq!(lock_verdict(listings, 2, &5), want, "{what}");
        };
        case("alone on a majority holds", &[&[5], &[5], &[3, 5]], (Hold, 2));
        case("alone on every cloud holds", &[&[5], &[5], &[5]], (Hold, 3));
        case("alone on a minority, first on a majority", &[&[5], &[5, 7], &[5, 7]], (Head, 1));
        case("a key on a minority does not take the head", &[&[3, 5], &[5, 7], &[5, 7]], (Head, 0));
        case("a key counts once per listing", &[&[3, 3, 5], &[5], &[7]], (Head, 1));
        case("a smaller key on a majority wins", &[&[3, 5], &[3, 5], &[5]], (Lose, 1));
        case("a missing cloud counts for nothing", &[&[5], &[7]], (Lose, 1));
    }

    #[test]
    fn a_head_waits_below_max_attempts_and_half_of_delta_t() {
        let config = LockConfig::default();
        let half = config.stale_after / 2;
        let max = config.max_attempts;
        assert!(config.head_waits(1, Duration::ZERO));
        assert!(config.head_waits(max - 1, half - Duration::from_nanos(1)));
        assert!(!config.head_waits(max, Duration::ZERO));
        assert!(!config.head_waits(1, half));
    }

    #[test]
    fn plane_errors_display() {
        let cases = [
            PlaneError::Contended { attempts: 3 },
            PlaneError::QuorumUnreachable { reachable: 1, quorum: 3 },
            PlaneError::QuorumWriteFailed { acked: 2, quorum: 3 },
            PlaneError::Unreadable,
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
