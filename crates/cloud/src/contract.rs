//! The [`CloudStore`] conformance suite: one set of behavioral checks
//! every backend — in-memory, on-disk, simulated, or real HTTP — must
//! pass identically.
//!
//! The trait documents a contract (five ops, path grammar,
//! read-after-write, `NotFound` edges, append semantics); this module
//! turns each clause into an executable check over `&dyn CloudStore`,
//! and [`cloud_contract_tests!`](crate::cloud_contract_tests)
//! instantiates the whole suite as `#[test]` functions for a given
//! backend.
//!
//! Backends differ in how a fresh store is produced and where the
//! check must run (a [`SimCloud`](crate::SimCloud) only works inside a
//! simulation task; an [`S3Cloud`](crate::S3Cloud) needs a live
//! [`MockS3`](crate::MockS3)), so the macro takes a *driver*: a
//! function receiving one check `fn(&dyn CloudStore)` that is
//! responsible for building the world, running the check against a
//! fresh store, and tearing the world down.
//!
//! ```
//! use unidrive_cloud::{cloud_contract_tests, CloudStore, MemCloud};
//!
//! mod mem_contract {
//!     use super::*;
//!     cloud_contract_tests!(|check: fn(&dyn CloudStore)| {
//!         check(&MemCloud::new("mem"));
//!     });
//! }
//! # fn main() {}
//! ```

use unidrive_util::bytes::Bytes;

use crate::{CloudError, CloudStore};

/// Upload stores bytes; download returns them unchanged; a second
/// upload to the same path replaces (not appends to) the object.
pub fn check_upload_download_roundtrip(cloud: &dyn CloudStore) {
    cloud
        .upload("ct/round/a.bin", Bytes::from_static(b"hello world"))
        .expect("upload");
    assert_eq!(
        cloud.download("ct/round/a.bin").expect("download"),
        Bytes::from_static(b"hello world")
    );
    // Replace semantics: shorter second write fully supersedes.
    cloud
        .upload("ct/round/a.bin", Bytes::from_static(b"bye"))
        .expect("re-upload");
    assert_eq!(
        cloud.download("ct/round/a.bin").expect("re-download"),
        Bytes::from_static(b"bye")
    );
    // Empty objects are legal.
    cloud.upload("ct/round/empty", Bytes::new()).expect("empty upload");
    assert!(cloud.download("ct/round/empty").expect("empty download").is_empty());
}

/// Upload auto-creates parents; `create_dir` is explicit, idempotent,
/// and listed directories report children with correct kinds/sizes.
pub fn check_create_dir_and_list(cloud: &dyn CloudStore) {
    cloud.create_dir("ct/tree/sub").expect("create_dir");
    cloud.create_dir("ct/tree/sub").expect("create_dir is idempotent");
    cloud
        .upload("ct/tree/f1", Bytes::from_static(b"12345"))
        .expect("upload");
    let mut listing = cloud.list("ct/tree").expect("list");
    listing.sort_by(|a, b| a.name.cmp(&b.name));
    let summary: Vec<(&str, u64, bool)> = listing
        .iter()
        .map(|e| (e.name.as_str(), e.size, e.is_dir))
        .collect();
    assert_eq!(summary, vec![("f1", 5, false), ("sub", 0, true)]);
    // Root listing via the empty path must work and contain "ct".
    let root = cloud.list("").expect("list root");
    assert!(
        root.iter().any(|e| e.name == "ct" && e.is_dir),
        "root listing missing ct: {root:?}"
    );
}

/// Delete removes an object, removes a directory recursively, and the
/// deleted names vanish from subsequent listings.
pub fn check_delete_object_and_dir(cloud: &dyn CloudStore) {
    cloud
        .upload("ct/del/keep.bin", Bytes::from_static(b"k"))
        .expect("upload keep");
    cloud
        .upload("ct/del/sub/deep.bin", Bytes::from_static(b"d"))
        .expect("upload deep");
    cloud.delete("ct/del/keep.bin").expect("delete object");
    assert!(matches!(
        cloud.download("ct/del/keep.bin"),
        Err(CloudError::NotFound { .. })
    ));
    // Recursive directory delete takes the nested object with it.
    cloud.delete("ct/del/sub").expect("delete dir");
    assert!(matches!(
        cloud.download("ct/del/sub/deep.bin"),
        Err(CloudError::NotFound { .. })
    ));
    let listing = cloud.list("ct/del").expect("list after deletes");
    assert!(listing.is_empty(), "leftovers: {listing:?}");
}

/// Downloading an absent object answers `NotFound` — never a panic,
/// never a transport error — under every dialect. Delete and list of
/// absent paths follow the dialect the store *declares* via
/// [`strict_not_found`](crate::CloudCaps::strict_not_found): the
/// strict dialect answers `NotFound`, the idempotent S3 dialect
/// succeeds (delete is a no-op, an absent prefix lists as empty).
/// Either way the claim must match the behavior, so the capability is
/// honest and both dialects are certified passing modes.
pub fn check_not_found_edges(cloud: &dyn CloudStore) {
    cloud
        .upload("ct/nf/present", Bytes::from_static(b"x"))
        .expect("upload");
    match cloud.download("ct/nf/ghost") {
        Err(CloudError::NotFound { .. }) => {}
        other => panic!("download of absent object: expected NotFound, got {other:?}"),
    }
    let strict = cloud.caps().strict_not_found;
    match (strict, cloud.delete("ct/nf/ghost")) {
        (true, Err(CloudError::NotFound { .. })) | (false, Ok(())) => {}
        (_, other) => panic!(
            "delete of absent object (strict_not_found={strict}): got {other:?}"
        ),
    }
    match (strict, cloud.list("ct/nf/ghost-dir")) {
        (true, Err(CloudError::NotFound { .. })) => {}
        (false, Ok(entries)) if entries.is_empty() => {}
        (_, other) => panic!(
            "list of absent directory (strict_not_found={strict}): got {other:?}"
        ),
    }
}

/// Malformed paths are rejected with `InvalidPath` by every mutating
/// and reading op, before any transport round trip can fail first.
pub fn check_invalid_path_rejected(cloud: &dyn CloudStore) {
    for bad in ["", "/abs", "trail/", "a//b", "a/../b", "."] {
        assert!(
            matches!(
                cloud.upload(bad, Bytes::from_static(b"x")),
                Err(CloudError::InvalidPath { .. })
            ),
            "upload accepted {bad:?}"
        );
        assert!(
            matches!(cloud.download(bad), Err(CloudError::InvalidPath { .. })),
            "download accepted {bad:?}"
        );
        assert!(
            matches!(cloud.delete(bad), Err(CloudError::InvalidPath { .. })),
            "delete accepted {bad:?}"
        );
        // list("") is the root — legal — so only non-empty bad shapes
        // apply to list and create_dir.
        if !bad.is_empty() {
            assert!(
                matches!(cloud.list(bad), Err(CloudError::InvalidPath { .. })),
                "list accepted {bad:?}"
            );
            assert!(
                matches!(cloud.create_dir(bad), Err(CloudError::InvalidPath { .. })),
                "create_dir accepted {bad:?}"
            );
        }
    }
}

/// Append creates an absent object and extends an existing one, and
/// repeated appends observe each other.
pub fn check_append_accumulates(cloud: &dyn CloudStore) {
    cloud
        .append("ct/app/log", Bytes::from_static(b"one|"))
        .expect("append creates");
    cloud
        .append("ct/app/log", Bytes::from_static(b"two|"))
        .expect("append extends");
    cloud
        .append("ct/app/log", Bytes::from_static(b"three"))
        .expect("append extends again");
    assert_eq!(
        cloud.download("ct/app/log").expect("download"),
        Bytes::from_static(b"one|two|three")
    );
}

/// When the store claims read-after-write (every bare backend must; a
/// delayed-visibility chaos wrapper may not), a completed upload is
/// immediately visible to download, list, and `exists`.
pub fn check_read_after_write(cloud: &dyn CloudStore) {
    if !cloud.caps().read_after_write {
        return;
    }
    for i in 0..4u32 {
        let path = format!("ct/raw/gen{i}");
        let body = Bytes::from(format!("generation {i}").into_bytes());
        cloud.upload(&path, body.clone()).expect("upload");
        assert_eq!(cloud.download(&path).expect("read own write"), body);
        assert!(cloud.exists(&path).expect("exists"), "{path} invisible to list");
    }
}

/// One conformance check: takes a fresh store, panics on violation.
pub type ContractCheck = fn(&dyn CloudStore);

/// Every check in the suite, for drivers that want to iterate instead
/// of instantiating the macro (e.g. to run the whole suite inside one
/// simulation task).
pub const ALL_CHECKS: &[(&str, ContractCheck)] = &[
    ("upload_download_roundtrip", check_upload_download_roundtrip),
    ("create_dir_and_list", check_create_dir_and_list),
    ("delete_object_and_dir", check_delete_object_and_dir),
    ("not_found_edges", check_not_found_edges),
    ("invalid_path_rejected", check_invalid_path_rejected),
    ("append_accumulates", check_append_accumulates),
    ("read_after_write", check_read_after_write),
];

/// Instantiates the [`contract`](crate::contract) conformance suite as
/// `#[test]` functions.
///
/// The single argument is a *driver* expression of type
/// `Fn(fn(&dyn CloudStore))`: for each check the driver must construct
/// a **fresh** store (checks assume a clean namespace), run the check
/// against it, and clean up. See the [module docs](crate::contract)
/// for a `MemCloud` example and `crates/cloud/tests/contract.rs` for
/// drivers covering disk, simulation, and HTTP backends.
#[macro_export]
macro_rules! cloud_contract_tests {
    ($driver:expr) => {
        #[test]
        fn contract_upload_download_roundtrip() {
            ($driver)($crate::contract::check_upload_download_roundtrip as fn(&dyn $crate::CloudStore));
        }
        #[test]
        fn contract_create_dir_and_list() {
            ($driver)($crate::contract::check_create_dir_and_list as fn(&dyn $crate::CloudStore));
        }
        #[test]
        fn contract_delete_object_and_dir() {
            ($driver)($crate::contract::check_delete_object_and_dir as fn(&dyn $crate::CloudStore));
        }
        #[test]
        fn contract_not_found_edges() {
            ($driver)($crate::contract::check_not_found_edges as fn(&dyn $crate::CloudStore));
        }
        #[test]
        fn contract_invalid_path_rejected() {
            ($driver)($crate::contract::check_invalid_path_rejected as fn(&dyn $crate::CloudStore));
        }
        #[test]
        fn contract_append_accumulates() {
            ($driver)($crate::contract::check_append_accumulates as fn(&dyn $crate::CloudStore));
        }
        #[test]
        fn contract_read_after_write() {
            ($driver)($crate::contract::check_read_after_write as fn(&dyn $crate::CloudStore));
        }
    };
}
