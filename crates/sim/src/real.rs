//! Wall-clock implementation of [`Runtime`].
//!
//! Used by the examples and integration tests that sync real bytes
//! between real directories. Semantics match [`SimRuntime`]
//! (crate::SimRuntime) except that time is `std::time::Instant` based and
//! threads really sleep.

use std::sync::Arc;
use std::time::{Duration, Instant};

use unidrive_util::sync::{Condvar, Mutex};

use crate::{Notifier, Runtime, Time};

/// A [`Runtime`] backed by the operating system clock and scheduler.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use unidrive_sim::{RealRuntime, Runtime};
///
/// let rt = RealRuntime::new();
/// let t0 = rt.now();
/// rt.sleep(Duration::from_millis(5));
/// assert!(rt.now() - t0 >= Duration::from_millis(5));
/// ```
#[derive(Debug)]
pub struct RealRuntime {
    epoch: Instant,
}

impl RealRuntime {
    /// Creates a runtime whose epoch is "now".
    pub fn new() -> Self {
        RealRuntime {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealRuntime {
    fn default() -> Self {
        RealRuntime::new()
    }
}

impl Runtime for RealRuntime {
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn spawn_raw(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
        std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(f)
            .expect("failed to spawn OS thread");
    }

    fn notifier(&self) -> Arc<dyn Notifier> {
        Arc::new(RealNotifier {
            generation: Mutex::new(0),
            cv: Condvar::new(),
        })
    }
}

/// Condvar-based eventcount; see [`Notifier`].
#[derive(Debug)]
struct RealNotifier {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl Notifier for RealNotifier {
    fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    fn wait(&self, seen: u64) {
        let mut gen = self.generation.lock();
        while *gen == seen {
            self.cv.wait(&mut gen);
        }
    }

    fn notify_all(&self) {
        let mut gen = self.generation.lock();
        *gen += 1;
        self.cv.notify_all();
    }
}
