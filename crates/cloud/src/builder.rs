//! Builder-composed decorator stacks over any [`CloudStore`].
//!
//! Call sites used to hand-nest decorators (`SimCloud` →
//! `ChaosCloud` → `ObservedCloud` → ...), each picking its own order —
//! and order matters: retries *outside* the fault injector see (and
//! absorb) injected failures, observation *outside* everything times
//! what the caller actually experienced, and rate shaping belongs
//! *inside* chaos so throttle delays can themselves be disturbed.
//! [`CloudBuilder`] fixes the canonical order once:
//!
//! ```text
//! base → QpsShaper → ChaosCloud → RetryCloud → ObservedCloud
//! ```
//!
//! Every stage is optional; setters may be called in any order and the
//! stack still composes canonically. [`build`](CloudBuilder::build)
//! returns the composed store plus the [`ChaosCloud`] handle (when
//! configured) so harnesses keep access to fault accounting and the
//! availability switch.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use unidrive_cloud::{CloudBuilder, CloudStore, FaultPlan, MemCloud, RetryPolicy};
//! use unidrive_sim::{RealRuntime, Runtime};
//!
//! let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
//! let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
//!     .retry(RetryPolicy::no_retries())
//!     .chaos(&FaultPlan::new(7), "demo")
//!     .build();
//! assert_eq!(built.store.name(), "m");
//! assert!(built.chaos.is_some());
//! ```

use std::sync::Arc;

use unidrive_obs::Obs;
use unidrive_sim::Runtime;

use crate::health::CloudHealth;
use crate::qps::QpsShaper;
use crate::retry::{RetryCloud, RetryPolicy};
use crate::{ChaosCloud, CloudStore, FaultPlan, ObservedCloud};

/// The composed stack plus handles to stages that stay interactive.
pub struct BuiltCloud {
    /// The outermost store of the composed stack.
    pub store: Arc<dyn CloudStore>,
    /// The fault injector, when [`CloudBuilder::chaos`] was configured
    /// (harnesses need [`ChaosCloud::injected_faults`],
    /// [`ChaosCloud::set_available`], and the flat-probability knob).
    pub chaos: Option<Arc<ChaosCloud>>,
}

impl std::fmt::Debug for BuiltCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltCloud")
            .field("store", &self.store.name())
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

/// Composes decorators over a base store in the canonical order; see
/// the [module docs](self).
#[must_use = "CloudBuilder does nothing until .build() is called"]
pub struct CloudBuilder {
    rt: Arc<dyn Runtime>,
    base: Arc<dyn CloudStore>,
    qps: Option<(u64, u64)>,
    chaos: Option<(FaultPlan, String)>,
    retry: Option<RetryPolicy>,
    observed: Option<Arc<CloudHealth>>,
    obs: Option<Obs>,
}

impl std::fmt::Debug for CloudBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudBuilder")
            .field("base", &self.base.name())
            .field("qps", &self.qps.is_some())
            .field("chaos", &self.chaos.is_some())
            .field("retry", &self.retry.is_some())
            .field("observed", &self.observed.is_some())
            .finish()
    }
}

impl CloudBuilder {
    /// Starts a stack over `base`; with no stages configured,
    /// [`build`](CloudBuilder::build) returns `base` unchanged.
    pub fn new(rt: &Arc<dyn Runtime>, base: Arc<dyn CloudStore>) -> CloudBuilder {
        CloudBuilder {
            rt: Arc::clone(rt),
            base,
            qps: None,
            chaos: None,
            retry: None,
            observed: None,
            obs: None,
        }
    }

    /// Adds request-rate shaping: `rate_per_sec` requests sustained,
    /// `burst` of headroom (see [`QpsShaper`]).
    pub fn qps(mut self, rate_per_sec: u64, burst: u64) -> CloudBuilder {
        self.qps = Some((rate_per_sec, burst));
        self
    }

    /// Adds seeded fault injection. `salt` keeps RNG streams disjoint
    /// when several stacks share one plan (see
    /// [`ChaosCloud::with_label`]).
    pub fn chaos(mut self, plan: &FaultPlan, salt: &str) -> CloudBuilder {
        self.chaos = Some((plan.clone(), salt.to_owned()));
        self
    }

    /// Adds a store-level retry loop around everything below it.
    pub fn retry(mut self, policy: RetryPolicy) -> CloudBuilder {
        self.retry = Some(policy);
        self
    }

    /// Adds outermost latency/health observation feeding `health`.
    pub fn observed(mut self, health: Arc<CloudHealth>) -> CloudBuilder {
        self.observed = Some(health);
        self
    }

    /// Attaches observability to the stages that emit it: installed on
    /// the chaos stage, used by retry counters and the observed
    /// stage's series. Without it those stages run silent.
    pub fn obs(mut self, obs: &Obs) -> CloudBuilder {
        self.obs = Some(obs.clone());
        self
    }

    /// Composes the stack in canonical order and returns it with the
    /// interactive stage handles.
    pub fn build(self) -> BuiltCloud {
        let obs = self.obs.clone().unwrap_or_else(Obs::noop);
        let mut store = self.base;
        if let Some((rate, burst)) = self.qps {
            store = Arc::new(QpsShaper::new(store, Arc::clone(&self.rt), rate, burst));
        }
        let mut chaos_handle = None;
        if let Some((plan, salt)) = &self.chaos {
            let chaos = Arc::new(ChaosCloud::with_label(
                store,
                Arc::clone(&self.rt),
                plan,
                salt,
            ));
            if self.obs.is_some() {
                chaos.install_obs(obs.clone());
            }
            chaos_handle = Some(Arc::clone(&chaos));
            store = chaos;
        }
        if let Some(policy) = self.retry {
            store = Arc::new(RetryCloud::new(
                store,
                Arc::clone(&self.rt),
                policy,
                obs.clone(),
            ));
        }
        if let Some(health) = self.observed {
            store = Arc::new(ObservedCloud::new(store, Arc::clone(&self.rt), health, obs));
        }
        BuiltCloud {
            store,
            chaos: chaos_handle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::{CloudError, FaultEvent, FaultKind, MemCloud};
    use unidrive_sim::SimRuntime;
    use unidrive_util::bytes::Bytes;

    fn rt() -> Arc<dyn Runtime> {
        SimRuntime::new(0xb111d).as_runtime()
    }

    #[test]
    fn empty_builder_returns_base_unchanged() {
        let rt = rt();
        let base: Arc<dyn CloudStore> = Arc::new(MemCloud::new("m"));
        let built = CloudBuilder::new(&rt, Arc::clone(&base)).build();
        built.store.upload("f", Bytes::from_static(b"x")).unwrap();
        assert_eq!(base.download("f").unwrap(), Bytes::from_static(b"x"));
        assert!(built.chaos.is_none());
        // No wrapper masked the base's native append capability.
        assert!(built.store.caps().native_append);
    }

    #[test]
    fn canonical_order_is_independent_of_setter_order() {
        // Retry outside chaos: a retryable injected failure must be
        // absorbed even though .retry() was configured before .chaos().
        let rt = rt();
        let mut plan = FaultPlan::new(0x5eed);
        plan.push(FaultEvent::always(
            "m",
            FaultKind::TransientBurst { probability: 1.0 },
        ));
        let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
            .retry(RetryPolicy {
                max_attempts: 50,
                initial_backoff: std::time::Duration::from_millis(1),
                max_backoff: std::time::Duration::from_millis(1),
            })
            .chaos(&plan, "t")
            .build();
        // With p = 1.0 the op ultimately fails, but if (and only if)
        // the retry layer sits outside the injector, every one of the
        // 50 attempts reaches it and is counted as an injected fault.
        let chaos = built.chaos.as_ref().unwrap();
        let err = built.store.upload("f", Bytes::from_static(b"x")).unwrap_err();
        assert!(matches!(err, CloudError::Transient { .. }));
        assert!(chaos.injected_faults() >= 50, "retry sat outside chaos");
    }

    #[test]
    fn observed_stage_is_outermost_and_health_sees_failures() {
        let rt = rt();
        let mut plan = FaultPlan::new(9);
        plan.push(FaultEvent::always(
            "m",
            FaultKind::TransientBurst { probability: 1.0 },
        ));
        let health = CloudHealth::new("m", HealthConfig::default());
        let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
            .chaos(&plan, "t")
            .observed(Arc::clone(&health))
            .build();
        let _ = built.store.upload("f", Bytes::from_static(b"x"));
        let tracker = health.tracker();
        assert_eq!(tracker.name(), "m");
    }
}
