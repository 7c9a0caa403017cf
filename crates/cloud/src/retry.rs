//! Retry policy for transient Web API failures.
//!
//! The measurement study (paper §3.2) found not every Web API request
//! succeeds — success rates between ~82 % (real-world trial) and ~99 %.
//! UniDrive retries transient failures with bounded exponential backoff;
//! anything else (outage, quota) is surfaced so the scheduler can fail
//! over to a different cloud.
//!
//! The entry point is the builder-style [`Retry`]: construct it with a
//! runtime and policy, optionally attach observability and span
//! causality, then [`run`](Retry::run) the operation.

use std::sync::Arc;
use std::time::Duration;

use unidrive_obs::{Obs, SpanId};
use unidrive_sim::Runtime;

use crate::CloudError;

/// Bounded exponential backoff policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (including the first); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// Default policy: 4 attempts, 200 ms initial backoff doubling to at
    /// most 2 s.
    pub fn new() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(2),
        }
    }

    /// A policy that never retries.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Backoff to sleep before attempt number `attempt` (1-based; attempt
    /// 1 has no backoff). Saturates at `max_backoff`: neither a huge
    /// attempt number nor an extreme `initial_backoff` can overflow.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        // The shift exponent is clamped so the factor fits a u32, and the
        // multiply is checked: overflow means "longer than any cap we
        // could have", so it collapses to max_backoff.
        let factor = 1u32 << (attempt - 2).min(16);
        self.initial_backoff
            .checked_mul(factor)
            .map_or(self.max_backoff, |b| b.min(self.max_backoff))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

/// Builder-style retry loop: runs an operation under a [`RetryPolicy`],
/// sleeping on a [`Runtime`] between attempts, with optional
/// observability and span causality.
///
/// * [`obs`](Retry::obs) — each re-attempt records its backoff into
///   the `retry.backoff_ns` sample series (so its count is the number of
///   re-attempts); `retry.recovered` / `retry.exhausted` count how
///   retried operations ended. All three are labelled by the operation
///   label. Every wire attempt becomes a `wire.attempt` span carrying
///   the operation label, the 1-based attempt number, the backoff slept
///   before it (re-attempts only), and the outcome.
/// * [`span`](Retry::span) — parents those `wire.attempt` spans to the
///   given span (e.g. the engine's per-block span) on the given display
///   lane.
///
/// Without `obs`, the loop is silent (a no-op [`Obs`] is used).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use unidrive_cloud::{CloudError, Retry, RetryPolicy};
/// use unidrive_sim::{RealRuntime, Runtime};
///
/// let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
/// let mut calls = 0;
/// let result: Result<u32, CloudError> = Retry::new(&rt, &RetryPolicy::new()).run(|| {
///     calls += 1;
///     if calls < 3 {
///         Err(CloudError::transient("hiccup"))
///     } else {
///         Ok(99)
///     }
/// });
/// assert_eq!(result.unwrap(), 99);
/// assert_eq!(calls, 3);
/// ```
#[must_use = "Retry does nothing until .run(op) is called"]
pub struct Retry<'a> {
    rt: &'a Arc<dyn Runtime>,
    policy: &'a RetryPolicy,
    obs: Option<&'a Obs>,
    label: &'a str,
    parent: Option<SpanId>,
    track: u32,
}

impl std::fmt::Debug for Retry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retry")
            .field("policy", self.policy)
            .field("label", &self.label)
            .field("observed", &self.obs.is_some())
            .finish()
    }
}

impl<'a> Retry<'a> {
    /// Starts a retry builder over `rt` with `policy`.
    pub fn new(rt: &'a Arc<dyn Runtime>, policy: &'a RetryPolicy) -> Retry<'a> {
        Retry {
            rt,
            policy,
            obs: None,
            label: "op",
            parent: None,
            track: 0,
        }
    }

    /// Attaches observability: retry series and `wire.attempt` spans,
    /// labelled `label`.
    pub fn obs(mut self, obs: &'a Obs, label: &'a str) -> Retry<'a> {
        self.obs = Some(obs);
        self.label = label;
        self
    }

    /// Attaches span causality: each attempt becomes a `wire.attempt`
    /// span parented to `parent` on display lane `track`. Only effective
    /// together with [`obs`](Retry::obs).
    pub fn span(mut self, parent: Option<SpanId>, track: u32) -> Retry<'a> {
        self.parent = parent;
        self.track = track;
        self
    }

    /// Runs `op`, retrying retryable [`CloudError`]s per the policy.
    ///
    /// # Errors
    ///
    /// Returns the last error once attempts are exhausted, or immediately
    /// for non-retryable errors.
    pub fn run<T>(self, mut op: impl FnMut() -> Result<T, CloudError>) -> Result<T, CloudError> {
        let noop = Obs::noop();
        let obs = self.obs.unwrap_or(&noop);
        let mut attempt = 1;
        let mut backoff = Duration::ZERO;
        loop {
            let result = {
                let mut span = obs.span("wire.attempt", self.parent);
                span.set_track(self.track);
                span.attr_str("op", self.label);
                span.attr_u64("attempt", attempt as u64);
                if attempt > 1 {
                    span.attr_u64("backoff_ns", backoff.as_nanos() as u64);
                }
                let result = op();
                span.attr_bool("ok", result.is_ok());
                result
            };
            match result {
                Ok(v) => {
                    if attempt > 1 {
                        obs.series_add("retry.recovered", self.label, 1);
                    }
                    return Ok(v);
                }
                Err(e) if e.is_retryable() && attempt < self.policy.max_attempts => {
                    attempt += 1;
                    backoff = self.policy.backoff_before(attempt);
                    obs.series_observe("retry.backoff_ns", self.label, backoff.as_nanos() as u64);
                    if backoff > Duration::ZERO {
                        self.rt.sleep(backoff);
                    }
                }
                Err(e) => {
                    if attempt > 1 {
                        obs.series_add("retry.exhausted", self.label, 1);
                    }
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_sim::{RealRuntime, SimRuntime};

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(500),
        };
        assert_eq!(p.backoff_before(1), Duration::ZERO);
        assert_eq!(p.backoff_before(2), Duration::from_millis(100));
        assert_eq!(p.backoff_before(3), Duration::from_millis(200));
        assert_eq!(p.backoff_before(4), Duration::from_millis(400));
        assert_eq!(p.backoff_before(5), Duration::from_millis(500));
        assert_eq!(p.backoff_before(9), Duration::from_millis(500));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            initial_backoff: Duration::MAX,
            max_backoff: Duration::from_secs(5),
        };
        // Duration::MAX * 2 would panic without the checked multiply.
        assert_eq!(p.backoff_before(3), Duration::from_secs(5));
        // Huge attempt numbers clamp the shift exponent (no u32 overflow).
        assert_eq!(p.backoff_before(u32::MAX), Duration::from_secs(5));
        let q = RetryPolicy {
            max_attempts: 100,
            initial_backoff: Duration::from_secs(u64::MAX / 2),
            max_backoff: Duration::MAX,
        };
        // Overflowing growth collapses to the cap rather than wrapping.
        assert_eq!(q.backoff_before(50), Duration::MAX);
    }

    #[test]
    fn observed_retries_count_attempts_and_outcomes() {
        use unidrive_obs::Registry;
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let obs = Obs::with_registry(Registry::new());
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        };
        let mut calls = 0;
        let r = Retry::new(&rt, &policy).obs(&obs, "upload").run(|| {
            calls += 1;
            if calls < 3 {
                Err(CloudError::transient("hiccup"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(r.unwrap(), 7);
        let _: Result<(), _> = Retry::new(&rt, &policy)
            .obs(&obs, "upload")
            .run(|| Err(CloudError::transient("always")));
        // A re-attempt is one backoff sample.
        let series = obs.series_snapshot().unwrap();
        assert_eq!(series.merged("retry.backoff_ns").count, 4); // 2 + 2 re-attempts
        assert_eq!(series.merged("retry.recovered").sum, 1);
        assert_eq!(series.merged("retry.exhausted").sum, 1);
        let snap = obs.snapshot().unwrap();
        // One span per wire attempt; each re-attempt says what it slept.
        assert_eq!(snap.span_count("wire.attempt"), 6);
        let slept = |s: &&unidrive_obs::SpanRecord| s.attr("backoff_ns").is_some();
        assert_eq!(snap.spans.iter().filter(slept).count(), 4);
    }

    #[test]
    fn traced_retries_emit_parented_attempt_spans() {
        use unidrive_obs::{FieldValue, Registry};
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let obs = Obs::with_registry(Registry::new());
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        };
        let parent = obs.span("engine.block", None);
        let parent_id = parent.id().unwrap();
        let mut calls = 0;
        let r = Retry::new(&rt, &policy)
            .obs(&obs, "upload")
            .span(Some(parent_id), 4)
            .run(|| {
                calls += 1;
                if calls < 2 {
                    Err(CloudError::transient("hiccup"))
                } else {
                    Ok(())
                }
            });
        r.unwrap();
        parent.end();
        let snap = obs.snapshot().unwrap();
        let attempts: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "wire.attempt")
            .collect();
        assert_eq!(attempts.len(), 2);
        for (i, s) in attempts.iter().enumerate() {
            assert_eq!(s.parent, parent_id.0);
            assert_eq!(s.track, 4);
            assert_eq!(s.attr("attempt"), Some(&FieldValue::U(i as u64 + 1)));
        }
        assert_eq!(attempts[0].attr("ok"), Some(&FieldValue::B(false)));
        assert_eq!(attempts[1].attr("ok"), Some(&FieldValue::B(true)));
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        };
        let mut calls = 0;
        let r: Result<(), _> = Retry::new(&rt, &policy).run(|| {
            calls += 1;
            Err(CloudError::transient("always"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 3);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let mut calls = 0;
        let r: Result<(), _> = Retry::new(&rt, &RetryPolicy::new()).run(|| {
            calls += 1;
            Err(CloudError::unavailable("c"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_consumes_virtual_time() {
        let sim = SimRuntime::new(1);
        let rt = sim.clone().as_runtime();
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(10),
        };
        let t0 = sim.now();
        let _: Result<(), _> =
            Retry::new(&rt, &policy).run(|| Err(CloudError::transient("x")));
        // Backoffs: 1 s + 2 s = 3 s.
        assert_eq!((sim.now() - t0).as_secs_f64(), 3.0);
    }
}
