//! Builder-composed decorator stacks over any [`CloudStore`].
//!
//! Call sites used to hand-nest decorators (`SimCloud` →
//! `ChaosCloud` → `ObservedCloud` → ...), each picking its own order —
//! and order matters: observation *outside* the fault injector times
//! what the caller actually experienced, injected failures included.
//! [`CloudBuilder`] fixes the canonical order once:
//!
//! ```text
//! base → ChaosCloud → ObservedCloud
//! ```
//!
//! Retrying is not a stage: every product path retries per call site
//! through [`Retry`](crate::Retry), outside whatever stack it was
//! handed.
//!
//! Every stage is optional; setters may be called in any order and the
//! stack still composes canonically. [`build`](CloudBuilder::build)
//! returns the composed store plus the [`ChaosCloud`] handle (when
//! configured) so harnesses keep access to fault accounting.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use unidrive_cloud::{CloudBuilder, CloudStore, FaultPlan, MemCloud};
//! use unidrive_sim::{RealRuntime, Runtime};
//!
//! let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
//! let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
//!     .chaos(&FaultPlan::new(7), "demo")
//!     .build();
//! assert_eq!(built.store.name(), "m");
//! assert!(built.chaos.is_some());
//! ```

use std::sync::Arc;

use unidrive_obs::Obs;
use unidrive_sim::Runtime;

use crate::{ChaosCloud, CloudStore, FaultPlan, ObservedCloud};

/// The composed stack plus handles to stages that stay interactive.
pub struct BuiltCloud {
    /// The outermost store of the composed stack.
    pub store: Arc<dyn CloudStore>,
    /// The fault injector, when [`CloudBuilder::chaos`] was configured
    /// (harnesses read [`ChaosCloud::injected_faults`]).
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
    chaos: Option<(FaultPlan, String)>,
    observed: bool,
    obs: Option<Obs>,
}

impl std::fmt::Debug for CloudBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudBuilder")
            .field("base", &self.base.name())
            .field("chaos", &self.chaos.is_some())
            .field("observed", &self.observed)
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
            chaos: None,
            observed: false,
            obs: None,
        }
    }

    /// Adds seeded fault injection. `salt` keeps RNG streams disjoint
    /// when several stacks share one plan (see
    /// [`ChaosCloud::with_label`]).
    pub fn chaos(mut self, plan: &FaultPlan, salt: &str) -> CloudBuilder {
        self.chaos = Some((plan.clone(), salt.to_owned()));
        self
    }

    /// Adds outermost per-op observation: latency, attempt, error and
    /// byte series on the registry given to [`obs`](CloudBuilder::obs).
    pub fn observed(mut self) -> CloudBuilder {
        self.observed = true;
        self
    }

    /// Attaches observability to the stages that emit it: installed on
    /// the chaos stage and used by the observed stage's series.
    /// Without it those stages run silent.
    pub fn obs(mut self, obs: &Obs) -> CloudBuilder {
        self.obs = Some(obs.clone());
        self
    }

    /// Composes the stack in canonical order and returns it with the
    /// interactive stage handles.
    pub fn build(self) -> BuiltCloud {
        let obs = self.obs.clone().unwrap_or_else(Obs::noop);
        let mut store = self.base;
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
        if self.observed {
            store = Arc::new(ObservedCloud::new(store, Arc::clone(&self.rt), obs));
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
    use crate::{CloudError, FaultEvent, FaultKind, MemCloud};
    use unidrive_obs::Registry;
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
        assert_eq!(built.store.caps(), base.caps());
    }

    #[test]
    fn canonical_order_is_independent_of_setter_order() {
        // Observed outside chaos: an injected failure must reach the
        // `cloud.err` series even though .observed() was configured
        // before .chaos() — an observer *inside* the injector would
        // time the base store only and score the cloud clean.
        let rt = rt();
        let mut plan = FaultPlan::new(0x5eed);
        plan.push(FaultEvent::always(
            "m",
            FaultKind::TransientBurst { probability: 1.0 },
        ));
        let registry = Registry::new();
        registry.enable_series(1_000_000_000);
        let built = CloudBuilder::new(&rt, Arc::new(MemCloud::new("m")))
            .observed()
            .chaos(&plan, "t")
            .obs(&Obs::with_registry(Arc::clone(&registry)))
            .build();
        let err = built.store.upload("f", Bytes::from_static(b"x")).unwrap_err();
        assert!(matches!(err, CloudError::Transient { .. }));
        assert_eq!(built.chaos.as_ref().unwrap().injected_faults(), 1);
        let snap = registry.series_snapshot();
        let sum = |metric| snap.entry(metric, "m").unwrap().windows[0].stat.sum;
        assert_eq!(
            (sum("cloud.ops"), sum("cloud.err")),
            (1, 1),
            "observer sat inside chaos"
        );
    }
}
