//! Walks shared by the integration tests.

use std::collections::BTreeSet;
use std::sync::Arc;

use unidrive::cloud::{CloudStore, SimCloud};
use unidrive::meta::{block_path, SyncFolderImage, BLOCKS_DIR};

/// The block objects on `clouds` (`cloud{i}` is `CloudId(i)`) that
/// `image` does not name: bytes no device can ever find or delete.
pub fn unnamed_block_objects(image: &SyncFolderImage, clouds: &[Arc<SimCloud>]) -> Vec<String> {
    let mut unnamed = Vec::new();
    for (cloud, handle) in clouds.iter().enumerate() {
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
        for object in handle.backing().list(BLOCKS_DIR).unwrap_or_default() {
            let path = format!("{BLOCKS_DIR}/{}", object.name);
            if !named.contains(&path) {
                unnamed.push(format!("cloud{cloud}:{path}"));
            }
        }
    }
    unnamed
}
