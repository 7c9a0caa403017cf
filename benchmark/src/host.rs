//! Process accounting (`getrusage`) and the host stamp every report
//! carries, so a number is never compared across machines unknowingly.

/// Resource usage of this process so far, dead threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub max_rss_kib: u64,
    pub minor_faults: u64,
    pub ctx_switches: u64,
}

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut raw = RUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (guarded by the cfg above); the call writes only it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        user_s: secs(&raw.utime),
        sys_s: secs(&raw.stime),
        max_rss_kib: raw.maxrss as u64,
        minor_faults: raw.minflt as u64,
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

/// The machine and build a report was measured on, as a JSON object.
pub fn stamp_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (sha_ni, ssse3, avx2) = (
        std::is_x86_feature_detected!("sha"),
        std::is_x86_feature_detected!("ssse3"),
        std::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (sha_ni, ssse3, avx2) = (false, false, false);
    format!(
        "{{\"nproc\": {nproc}, \"arch\": \"{}\", \"sha_ni\": {sha_ni}, \"ssse3\": {ssse3}, \"avx2\": {avx2}, \
         \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        std::env::consts::ARCH,
        env!("SYNCBENCH_RUSTC"),
        env!("SYNCBENCH_PROFILE"),
    )
}
