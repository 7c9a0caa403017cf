//! Population-scale workload models for the fleet simulator.
//!
//! The per-user trial generators in [`gen`](crate::trial_population)
//! describe *one* user's files; this module describes how a whole
//! population of devices behaves over time: how often a device wakes
//! up with dirty data (arrivals), how much it syncs per session
//! (bounded-Pareto session sizes — file-sync traffic is heavy-tailed),
//! how devices go dormant and come back (churn), and how shared "hot"
//! folders concentrate contention on a few quorum locks (Zipf
//! popularity).
//!
//! Everything samples from a caller-supplied [`SimRng`] so the fleet
//! harness can derive one independent stream per `(seed, device,
//! activation)` and a run is a pure function of its seed.

use unidrive_sim::SimRng;

/// Exponential inter-arrival distribution with the given mean.
///
/// # Examples
///
/// ```
/// use unidrive_sim::SimRng;
/// use unidrive_workload::Exp;
///
/// let mut rng = SimRng::seed_from_u64(7);
/// let gap = Exp::new(600.0).sample(&mut rng);
/// assert!(gap > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    /// Mean of the distribution (1/λ).
    pub mean: f64,
}

impl Exp {
    /// An exponential with mean `mean` (clamped to a small positive
    /// floor so a zero mean cannot produce NaN).
    pub fn new(mean: f64) -> Exp {
        Exp { mean: mean.max(1e-9) }
    }

    /// Draws one value by inverse CDF.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // 1 - u is in (0, 1], so ln is finite.
        -self.mean * (1.0 - rng.next_f64()).ln()
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with tail index `alpha`.
///
/// Session sizes in file-sync workloads are heavy-tailed: most
/// sessions touch a few kilobytes of edits, a rare session dumps a
/// photo library. A bounded Pareto captures that while keeping a
/// finite worst case the simulator can budget for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// Tail index (> 0, ≠ 1 for the mean formula).
    pub alpha: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl BoundedPareto {
    /// A bounded Pareto on `[lo, hi]` with tail index `alpha`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> BoundedPareto {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo, "degenerate bounded Pareto");
        BoundedPareto { alpha, lo, hi }
    }

    /// Draws one value by inverse CDF.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.next_f64();
        let c = 1.0 - (self.lo / self.hi).powf(self.alpha);
        self.lo * (1.0 - u * c).powf(-1.0 / self.alpha)
    }

    /// Analytic mean (requires `alpha != 1`).
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        let norm = l.powf(a) / (1.0 - (l / h).powf(a));
        norm * (a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a))
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Used for hot-folder popularity: a handful of shared folders absorb
/// most of the fleet's lock traffic, which is exactly the contention
/// regime the quorum-lock path has to survive.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf over `n` ranks (n ≥ 1) with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there are no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// Activity class of a device, assigned deterministically by hashing
/// the device id (so the assignment is independent of every sampling
/// stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// Syncs rarely; small sessions.
    Light,
    /// The bulk of the population.
    Regular,
    /// Power user: frequent sessions, heavier tails.
    Heavy,
}

impl DeviceClass {
    /// Stable lowercase label, used as a series/metrics dimension.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeviceClass::Light => "light",
            DeviceClass::Regular => "regular",
            DeviceClass::Heavy => "heavy",
        }
    }

    /// Multiplier applied to the profile's mean inter-session gap
    /// (heavy users sync more often → smaller gap).
    pub fn gap_factor(&self) -> f64 {
        match self {
            DeviceClass::Light => 4.0,
            DeviceClass::Regular => 1.0,
            DeviceClass::Heavy => 0.35,
        }
    }

    /// Multiplier applied to session size.
    pub fn size_factor(&self) -> f64 {
        match self {
            DeviceClass::Light => 0.5,
            DeviceClass::Regular => 1.0,
            DeviceClass::Heavy => 2.5,
        }
    }
}

/// Arrival / churn / session-size model for a device population.
///
/// All sampling methods take an explicit [`SimRng`] so callers control
/// stream derivation; all time quantities are in seconds (the fleet
/// engine converts to virtual nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationProfile {
    /// Mean gap between sync sessions for a `Regular` device, seconds.
    pub mean_session_gap_secs: f64,
    /// Probability that after a session the device goes dormant
    /// instead of staying in its active rhythm.
    pub dormant_prob: f64,
    /// Mean dormancy duration, seconds.
    pub mean_dormant_secs: f64,
    /// Probability that a dormant transition is permanent churn —
    /// the device never returns inside the experiment horizon.
    pub churn_prob: f64,
    /// Session payload size distribution, bytes.
    pub session_bytes: BoundedPareto,
    /// Fraction of devices that are members of a shared hot folder.
    pub hot_fraction: f64,
    /// Zipf exponent for hot-folder popularity.
    pub hot_zipf_s: f64,
    /// Class mix: cumulative probabilities for (Light, Regular); the
    /// remainder is Heavy.
    pub class_cdf: (f64, f64),
}

impl PopulationProfile {
    /// Consumer sync population: sessions every ~10 min for a regular
    /// device, 30% of devices in shared folders, pronounced Zipf skew.
    pub fn consumer() -> PopulationProfile {
        PopulationProfile {
            mean_session_gap_secs: 600.0,
            dormant_prob: 0.15,
            mean_dormant_secs: 4.0 * 3600.0,
            churn_prob: 0.01,
            session_bytes: BoundedPareto::new(1.25, 16.0 * 1024.0, 512.0 * 1024.0 * 1024.0),
            hot_fraction: 0.30,
            hot_zipf_s: 1.1,
            class_cdf: (0.30, 0.85),
        }
    }

    /// Deterministic class assignment for `device`, independent of
    /// every sampling stream.
    pub fn class_of(&self, seed: u64, device: u64) -> DeviceClass {
        let mut rng = SimRng::derive(seed, &format!("pop/class/{device}"));
        let u = rng.next_f64();
        if u < self.class_cdf.0 {
            DeviceClass::Light
        } else if u < self.class_cdf.1 {
            DeviceClass::Regular
        } else {
            DeviceClass::Heavy
        }
    }

    /// Gap until the device's next session, in seconds. Draws the
    /// dormancy / churn mixture; returns `None` when the device churns
    /// permanently.
    pub fn next_gap_secs(&self, class: DeviceClass, rng: &mut SimRng) -> Option<f64> {
        if rng.chance(self.dormant_prob) {
            if rng.chance(self.churn_prob / self.dormant_prob.max(1e-9)) {
                return None;
            }
            Some(Exp::new(self.mean_dormant_secs).sample(rng))
        } else {
            Some(Exp::new(self.mean_session_gap_secs * class.gap_factor()).sample(rng))
        }
    }

    /// Session payload in bytes for a device of `class`.
    pub fn session_bytes(&self, class: DeviceClass, rng: &mut SimRng) -> u64 {
        (self.session_bytes.sample(rng) * class.size_factor()).round().max(1.0) as u64
    }

    /// Whether `device` is a member of a shared hot folder, and if so
    /// which one (Zipf-popular rank in `0..hot_folders`). Deterministic
    /// per device, independent of every sampling stream.
    pub fn hot_membership(&self, seed: u64, device: u64, zipf: &Zipf) -> Option<usize> {
        let mut rng = SimRng::derive(seed, &format!("pop/hot/{device}"));
        if rng.chance(self.hot_fraction) {
            Some(zipf.sample(&mut rng))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson;

    #[test]
    fn exp_mean_and_variance_within_tolerance() {
        let mut rng = SimRng::derive(11, "test/exp");
        let d = Exp::new(600.0);
        let xs: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let s = crate::Summary::of(&xs).unwrap();
        assert!((s.mean - 600.0).abs() / 600.0 < 0.03, "mean {}", s.mean);
        // Exponential: variance = mean².
        assert!((s.variance - 600.0 * 600.0).abs() / (600.0 * 600.0) < 0.08, "var {}", s.variance);
    }

    #[test]
    fn bounded_pareto_mean_matches_analytic() {
        let d = BoundedPareto::new(1.25, 16e3, 512e6);
        let mut rng = SimRng::derive(12, "test/pareto");
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let expect = d.mean();
        assert!((mean - expect).abs() / expect < 0.10, "mean {mean} vs {expect}");
        assert!(xs.iter().all(|&x| (16e3..=512e6).contains(&x)));
    }

    #[test]
    fn zipf_skews_toward_rank_zero() {
        let z = Zipf::new(50, 1.1);
        let mut rng = SimRng::derive(13, "test/zipf");
        let mut counts = vec![0u64; 50];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 empirical frequency tracks the pmf.
        let f0 = counts[0] as f64 / 50_000.0;
        assert!((f0 - z.pmf(0)).abs() / z.pmf(0) < 0.05, "f0 {f0} pmf {}", z.pmf(0));
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
    }

    #[test]
    fn derive_streams_are_independent_across_labels_and_devices() {
        // The fleet relies on derived streams (per bootstrap label, per
        // device session label) being statistically independent.
        let pairs = [
            ("fleet/boot/0", "fleet/boot/1"),
            ("fleet/boot/0", "fleet/dev/0/0"),
            ("fleet/dev/1/0", "fleet/dev/1/1"),
        ];
        for (la, lb) in pairs {
            let mut a = SimRng::derive(99, la);
            let mut b = SimRng::derive(99, lb);
            let xs: Vec<f64> = (0..4000).map(|_| a.next_f64()).collect();
            let ys: Vec<f64> = (0..4000).map(|_| b.next_f64()).collect();
            let r = pearson(&xs, &ys).unwrap();
            assert!(r.abs() < 0.06, "{la} vs {lb}: r = {r}");
        }
    }

    #[test]
    fn class_assignment_is_deterministic_and_mixed() {
        let p = PopulationProfile::consumer();
        let mut light = 0;
        let mut heavy = 0;
        for d in 0..10_000u64 {
            let c = p.class_of(42, d);
            assert_eq!(c, p.class_of(42, d));
            match c {
                DeviceClass::Light => light += 1,
                DeviceClass::Heavy => heavy += 1,
                DeviceClass::Regular => {}
            }
        }
        let lf = light as f64 / 10_000.0;
        let hf = heavy as f64 / 10_000.0;
        assert!((lf - 0.30).abs() < 0.03, "light {lf}");
        assert!((hf - 0.15).abs() < 0.03, "heavy {hf}");
    }

    #[test]
    fn churn_mixture_terminates_and_hot_membership_is_stable() {
        let p = PopulationProfile::consumer();
        let zipf = Zipf::new(20, p.hot_zipf_s);
        let mut rng = SimRng::derive(5, "test/churn");
        let mut churned = 0;
        for _ in 0..20_000 {
            if p.next_gap_secs(DeviceClass::Regular, &mut rng).is_none() {
                churned += 1;
            }
        }
        // churn_prob = 1% of sessions overall.
        let cf = churned as f64 / 20_000.0;
        assert!((cf - p.churn_prob).abs() < 0.005, "churn {cf}");
        let mut members = 0;
        for d in 0..5_000u64 {
            let m = p.hot_membership(42, d, &zipf);
            assert_eq!(m, p.hot_membership(42, d, &zipf));
            if m.is_some() {
                members += 1;
            }
        }
        let mf = members as f64 / 5_000.0;
        assert!((mf - p.hot_fraction).abs() < 0.04, "hot {mf}");
    }
}
