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
    /// Give up after this many failed acquisition rounds.
    pub max_attempts: u32,
    /// Base of the random backoff between rounds.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// ΔT: a foreign lock seen unrefreshed for this long is broken.
    pub stale_after: Duration,
    /// Bounded-wait audit: once an acquire has waited this long across
    /// losing rounds it is flagged as starved (`lock.starved` counter,
    /// `starved` span attribute) — at fleet scale the randomized
    /// backoff is unfair, and a device spinning on a hot folder must
    /// not do so unobserved.
    pub starvation_audit: Duration,
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig {
            max_attempts: 12,
            backoff_base: Duration::from_millis(500),
            backoff_max: Duration::from_secs(15),
            // The paper's example ΔT = 120 s.
            stale_after: Duration::from_secs(120),
            starvation_audit: Duration::from_secs(30),
        }
    }
}

impl LockConfig {
    /// Ceiling of the random backoff after losing round `attempt`
    /// (0-based): the base doubled per round, capped at `backoff_max`.
    pub fn backoff_cap(&self, attempt: u32) -> Duration {
        self.backoff_max
            .min(self.backoff_base * 2u32.saturating_pow(attempt))
    }
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
    /// A lost round's withdraw: lock-file delete.
    pub lock_withdraw: u64,
    /// A lock-plane commit under a won lock: version download, refresh
    /// upload + delete, delta upload, version upload, release delete.
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
    lock_withdraw: 1,
    lock_commit: 6,
    oplog_append: 2,
    oplog_op_file: 1,
    oplog_compact: 8,
    oplog_op_delete: 1,
};

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
