//! Walks shared by the integration tests.

use std::collections::BTreeSet;
use std::sync::Arc;

use unidrive::cloud::{CloudStore, MemCloud};
use unidrive::meta::{block_path, SyncFolderImage, BLOCKS_DIR};

/// The block objects in `stores` (the backing store of `cloud{i}` at
/// index `i`, which is `CloudId(i)`) that `image` does not name: bytes
/// no device can ever find or delete. A `SimCloud` passes its
/// `backing()`.
pub fn unnamed_block_objects(
    image: &SyncFolderImage,
    stores: impl IntoIterator<Item = Arc<MemCloud>>,
) -> Vec<String> {
    let mut unnamed = Vec::new();
    for (cloud, store) in stores.into_iter().enumerate() {
        let named: BTreeSet<String> = image
            .segments()
            .flat_map(|(id, entry)| {
                let here = entry
                    .blocks
                    .iter()
                    .filter(move |b| b.cloud as usize == cloud);
                here.map(move |b| block_path(id, b.index))
            })
            .collect();
        for object in store.list(BLOCKS_DIR).unwrap_or_default() {
            let path = format!("{BLOCKS_DIR}/{}", object.name);
            if !named.contains(&path) {
                unnamed.push(format!("cloud{cloud}:{path}"));
            }
        }
    }
    unnamed
}
