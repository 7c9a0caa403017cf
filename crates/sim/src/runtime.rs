//! The [`Runtime`] abstraction: everything UniDrive needs from "the world"
//! so that identical client code runs under wall-clock time
//! ([`RealRuntime`](crate::RealRuntime)) or deterministic virtual time
//! ([`SimRuntime`](crate::SimRuntime)).
//!
//! The surface is deliberately tiny: a clock, a sleeper, thread spawning,
//! and one blocking primitive, the [`Notifier`] eventcount. Every wait in
//! the sync client (idle transfer workers, the upload availability wait,
//! the HTTP connection pool, [`Task::join`]) parks on a notifier, so the
//! virtual-time engine can always tell when all actors are blocked and
//! time may advance — or, when nothing is pending, that the run is
//! deadlocked.

use std::sync::Arc;
use std::time::Duration;

use unidrive_util::sync::Mutex;

use crate::Time;

/// A broadcast wait/notify cell (an *eventcount*), the primitive behind
/// pull-based worker pools: an idle worker parks until state it polls
/// may have changed, without holding any lock across the wait and
/// without missing a wake-up.
///
/// The protocol prevents lost wake-ups by versioning notifications:
///
/// 1. read `seen = generation()`,
/// 2. check the predicate (under whatever lock guards it),
/// 3. if not satisfied, call `wait(seen)` — which returns immediately
///    if any `notify_all` landed after step 1.
///
/// Under a [`SimRuntime`](crate::SimRuntime) waiters wake in FIFO order
/// on the virtual clock (deterministic); under a
/// [`RealRuntime`](crate::RealRuntime) it is a condvar broadcast.
pub trait Notifier: Send + Sync {
    /// Current notification generation; bumped by every
    /// [`notify_all`](Notifier::notify_all).
    fn generation(&self) -> u64;

    /// Blocks until the generation advances past `seen`. Returns
    /// immediately if it already has.
    fn wait(&self, seen: u64);

    /// Advances the generation and wakes every current waiter.
    fn notify_all(&self);
}

/// The execution environment UniDrive runs in.
///
/// See the crate docs for the actor rules that apply under the simulated
/// runtime (most importantly: only block through this trait's primitives).
pub trait Runtime: Send + Sync {
    /// Current time since the runtime's epoch.
    fn now(&self) -> Time;

    /// Blocks the calling thread for `d`.
    fn sleep(&self, d: Duration);

    /// Spawns `f` on a new thread registered with the runtime.
    ///
    /// Prefer the typed [`spawn`] helper, which returns a joinable
    /// [`Task`].
    fn spawn_raw(&self, name: &str, f: Box<dyn FnOnce() + Send>);

    /// Creates a wait/notify cell; see [`Notifier`].
    fn notifier(&self) -> Arc<dyn Notifier>;
}

/// Handle to a value produced by a spawned thread; see [`spawn`].
pub struct Task<T> {
    result: Arc<Mutex<Option<T>>>,
    /// Generation 0 while the task runs; notified once when it ends,
    /// by returning or by panicking.
    done: Arc<dyn Notifier>,
}

impl<T> std::fmt::Debug for Task<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("finished", &(self.done.generation() > 0))
            .finish()
    }
}

impl<T: Send + 'static> Task<T> {
    /// Blocks until the task finishes and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the task itself panicked (its result was never stored).
    pub fn join(self) -> T {
        self.done.wait(0);
        self.result
            .lock()
            .take()
            .expect("task panicked before producing a result")
    }
}

/// Notifies a task's joiner when dropped, so a task that panics still
/// wakes it (during unwinding).
struct NotifyOnDrop(Arc<dyn Notifier>);

impl Drop for NotifyOnDrop {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// Spawns a closure on `rt`, returning a joinable [`Task`].
///
/// # Examples
///
/// ```
/// use unidrive_sim::{spawn, RealRuntime, Runtime};
/// use std::sync::Arc;
///
/// let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
/// let task = spawn(&rt, "worker", move || 2 + 2);
/// assert_eq!(task.join(), 4);
/// ```
pub fn spawn<T, F>(rt: &Arc<dyn Runtime>, name: &str, f: F) -> Task<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let result = Arc::new(Mutex::new(None));
    let done = rt.notifier();
    let (res2, done2) = (Arc::clone(&result), NotifyOnDrop(Arc::clone(&done)));
    rt.spawn_raw(
        name,
        Box::new(move || {
            let _done = done2;
            let value = f();
            *res2.lock() = Some(value);
        }),
    );
    Task { result, done }
}
