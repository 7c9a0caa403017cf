//! The copy budget of a block on the real wire, counted.
//!
//! A block is copied where information is created (the encode stripe,
//! the decode output) and where it crosses a socket (the reader's
//! buffer); every other layer hands on the same `Bytes`. This binary
//! installs a counting global allocator — it is its own test binary, so
//! the counter affects nothing else — and bounds the bytes allocated by
//! one 1 MiB `S3Cloud` PUT and GET over `MockS3` (client and server
//! together: both run in this process) and by one stripe encode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use unidrive_cloud::{CloudStore, MockS3, S3Cloud, S3Endpoint};
use unidrive_erasure::Codec;
use unidrive_sim::{RealRuntime, Runtime};
use unidrive_util::bytes::Bytes;

/// Bytes requested from the allocator since the process started. A
/// growing `realloc` counts its whole new size: it may move the block.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counter
// only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide and the harness runs tests on parallel
/// threads: each measurement holds this lock (a failed one poisons it
/// harmlessly: the guard protects no data).
static SERIAL: Mutex<()> = Mutex::new(());

const PAYLOAD: usize = 1 << 20;

/// Bytes allocated while `f` runs, as a multiple of [`PAYLOAD`].
fn payloads_allocated(f: impl FnOnce()) -> f64 {
    let before = ALLOCATED.load(Ordering::SeqCst);
    f();
    (ALLOCATED.load(Ordering::SeqCst) - before) as f64 / PAYLOAD as f64
}

fn payload() -> Bytes {
    (0..PAYLOAD).map(|i| (i * 31 % 251) as u8).collect()
}

/// A cloud over its own server, its one pooled connection already open
/// and the key already stored once, so what is measured is the request.
fn warm_cloud() -> (MockS3, S3Cloud, Bytes) {
    let server = MockS3::start().expect("bind mock server");
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    let cloud = S3Cloud::connect(&rt, &S3Endpoint::new("s3", server.addr(), "bucket"), 1);
    let data = payload();
    cloud.upload("blocks/b", data.clone()).unwrap();
    assert_eq!(cloud.download("blocks/b").unwrap(), data);
    (server, cloud, data)
}

#[test]
fn a_put_allocates_the_payload_once_the_servers_read_buffer() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (server, cloud, data) = warm_cloud();
    let ratio = payloads_allocated(|| cloud.upload("blocks/b", data.clone()).unwrap());
    eprintln!("1 MiB PUT allocates {ratio:.2}x the payload");
    assert!(ratio <= 1.25, "PUT allocated {ratio:.2}x the payload");
    assert_eq!(server.store().download("blocks/b").unwrap(), data);
}

#[test]
fn a_get_allocates_the_payload_once_plus_its_chunked_growth() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (_server, cloud, data) = warm_cloud();
    let mut got = Bytes::new();
    let ratio = payloads_allocated(|| got = cloud.download("blocks/b").unwrap());
    eprintln!("1 MiB GET allocates {ratio:.2}x the payload");
    // The body arrives chunked; its buffer doubles as chunks land.
    assert!(ratio <= 2.25, "GET allocated {ratio:.2}x the payload");
    assert_eq!(got, data);
}

#[test]
fn a_stripe_encode_allocates_one_stripe() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let codec = Codec::non_systematic(5, 3).unwrap();
    let data = payload();
    let indices = [0, 1, 2, 3, 4];
    // First use builds the generator rows' tables.
    codec.encode_blocks(&data, &indices);
    let stripe = codec.block_len(PAYLOAD) * indices.len();
    let mut blocks = Vec::new();
    let ratio = payloads_allocated(|| blocks = codec.encode_blocks(&data, &indices));
    let stripes = ratio * PAYLOAD as f64 / stripe as f64;
    eprintln!("encode_blocks allocates {stripes:.3} stripes");
    assert!((1.0..1.01).contains(&stripes), "{stripes:.3} stripes allocated");
    let shares: Vec<(usize, &[u8])> = blocks.iter().map(|b| &b[..]).enumerate().collect();
    assert_eq!(codec.decode(&shares[..3], PAYLOAD).unwrap(), data);
}
