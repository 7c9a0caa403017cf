//! Per-cloud availability lanes, derived offline from the windowed
//! series.
//!
//! Nothing here runs while a sync does. Every cloud operation already
//! lands in the `cloud.ops` (attempts) and `cloud.err` (failed
//! attempts) counter series, window by window; [`health_lane`] replays
//! those closed windows through the availability state machine and is
//! its only statement:
//!
//! ```text
//!             ≥ 10 % errors                      ≥ 50 % errors
//!   +---------+ ----------------> +----------+ ----------------> +------+
//!   | HEALTHY |                   | DEGRADED |                   | DOWN |
//!   +---------+ <---------------- +----------+ <---------------- +------+
//!             2 consecutive clean                1 clean window
//!             windows (idle ones                 (then climbs via
//!             count)                              the same streak)
//! ```
//!
//! Degrading is immediate; recovery is damped, so one good window
//! between two outage bursts never flashes `healthy`. A window with
//! fewer than 3 attempts asserts nothing unless it erred (then it is
//! `degraded`, never `down`); a window with no attempts is idle and
//! counts as clean. The window width is whatever the series document
//! was recorded at — the function only sees window indices.
//!
//! Three readers: `obs_report` (the `H d X .` lanes of a bundle),
//! `chaos_soak`'s health round, and the fleet's outage test. The
//! per-cloud numbers that *decide* anything live in the transfer
//! scheduler's bandwidth probe, not here.

use std::collections::BTreeMap;

/// A sampled window is dirty (at least `degraded`) when one attempt in
/// this many failed: an error share of 10 % or more.
const DEGRADED_ONE_IN: u64 = 10;
/// ... and `down` when one in this many did: 50 % or more.
const DOWN_ONE_IN: u64 = 2;
/// Windows with fewer attempts are under-sampled: clean unless they
/// erred, and never `down`.
const MIN_ATTEMPTS: u64 = 3;
/// Consecutive clean windows that take `degraded` back to `healthy`.
const RECOVER_WINDOWS: u32 = 2;

/// Availability state of one cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Error share below 10 %.
    Healthy,
    /// Error share at or above 10 % in the latest active window, or
    /// climbing back from `Down`.
    Degraded,
    /// Error share at or above 50 %: the cloud is refusing or failing
    /// the workload.
    Down,
}

impl HealthState {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Down => "down",
        }
    }

    /// One-character lane glyph: `H`, `d` or `X`.
    pub fn glyph(self) -> char {
        match self {
            HealthState::Healthy => 'H',
            HealthState::Degraded => 'd',
            HealthState::Down => 'X',
        }
    }
}

/// One cloud's derived lane.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthLane {
    /// `(window index, state after it)` for every window that saw an
    /// attempt, ascending. Idle windows step recovery but have no row.
    pub windows: Vec<(u64, HealthState)>,
    /// `(window index, from, to)` in order; an idle window can be the
    /// one that completes a recovery.
    pub transitions: Vec<(u64, HealthState, HealthState)>,
}

impl HealthLane {
    /// The state after the last window evaluated.
    pub fn state(&self) -> HealthState {
        self.transitions
            .last()
            .map_or(HealthState::Healthy, |&(_, _, to)| to)
    }

    /// The lane over windows `lo..=hi`, one glyph per window (`.` for
    /// idle), so several clouds' lanes align column by column.
    pub fn ascii(&self, lo: u64, hi: u64) -> String {
        let mut lane = vec!['.'; (hi.saturating_sub(lo) + 1) as usize];
        for &(index, state) in &self.windows {
            if (lo..=hi).contains(&index) {
                lane[(index - lo) as usize] = state.glyph();
            }
        }
        lane.into_iter().collect()
    }

    fn transition(&mut self, window: u64, to: HealthState) {
        self.transitions.push((window, self.state(), to));
    }
}

/// Replays one cloud's closed windows — `(window index, attempts,
/// errors)`, ascending — through the availability state machine (see
/// the module docs). Gaps between rows, and the windows from the last
/// row up to `until` (exclusive), are idle.
pub fn health_lane(rows: &[(u64, u64, u64)], until: u64) -> HealthLane {
    /// One clean (or idle) window: builds the recovery streak.
    fn clean(lane: &mut HealthLane, streak: &mut u32, window: u64) {
        *streak += 1;
        match lane.state() {
            HealthState::Healthy => {}
            HealthState::Down => {
                lane.transition(window, HealthState::Degraded);
                *streak = 0;
            }
            HealthState::Degraded if *streak >= RECOVER_WINDOWS => {
                lane.transition(window, HealthState::Healthy);
            }
            HealthState::Degraded => {}
        }
    }
    /// Idle windows `from..to`. A healthy lane learns nothing from
    /// idleness, so a sparse series costs at most three steps a gap.
    fn idle(lane: &mut HealthLane, streak: &mut u32, from: u64, to: u64) {
        for window in from..to {
            if lane.state() == HealthState::Healthy {
                break;
            }
            clean(lane, streak, window);
        }
    }

    let mut lane = HealthLane::default();
    let mut streak = 0u32;
    let mut next = rows.first().map_or(until, |r| r.0);
    for &(index, attempts, errors) in rows {
        idle(&mut lane, &mut streak, next, index);
        next = index.saturating_add(1);
        if attempts == 0 {
            clean(&mut lane, &mut streak, index);
            continue;
        }
        let sampled = attempts >= MIN_ATTEMPTS;
        let dirty = if sampled {
            errors.saturating_mul(DEGRADED_ONE_IN) >= attempts
        } else {
            errors > 0
        };
        if dirty {
            streak = 0;
            let to = if sampled && errors.saturating_mul(DOWN_ONE_IN) >= attempts {
                HealthState::Down
            } else {
                HealthState::Degraded
            };
            // A degraded window does not lift a cloud out of `Down`.
            if to > lane.state() {
                lane.transition(index, to);
            }
        } else {
            clean(&mut lane, &mut streak, index);
        }
        let state = lane.state();
        lane.windows.push((index, state));
    }
    idle(&mut lane, &mut streak, next, until);
    lane
}

/// One counter series as `(window index, sum)` pairs, ascending.
pub type CounterWindows = Vec<(u64, u64)>;

/// One lane per cloud label of `ops` (the `cloud.ops` series by
/// label), its errors joined in from `err` (`cloud.err`), all lanes
/// evaluated to the same horizon: one past the last window any cloud
/// was attempted in.
pub fn health_lanes(
    ops: &BTreeMap<String, CounterWindows>,
    err: &BTreeMap<String, CounterWindows>,
) -> Vec<(String, HealthLane)> {
    let until = ops
        .values()
        .filter_map(|w| w.last())
        .map(|&(index, _)| index.saturating_add(1))
        .max()
        .unwrap_or(0);
    ops.iter()
        .map(|(cloud, windows)| {
            let errors = err.get(cloud).map_or(&[][..], Vec::as_slice);
            let rows: Vec<(u64, u64, u64)> = windows
                .iter()
                .map(|&(index, attempts)| {
                    let failed = errors
                        .binary_search_by_key(&index, |e| e.0)
                        .map_or(0, |i| errors[i].1);
                    (index, attempts, failed)
                })
                .collect();
            (cloud.clone(), health_lane(&rows, until))
        })
        .collect()
}

/// First and last window index any of `lanes` was attempted in — the
/// span to render them over so they align. `(0, 0)` when all are empty.
pub fn lane_span(lanes: &[(String, HealthLane)]) -> (u64, u64) {
    let indices = || lanes.iter().flat_map(|(_, l)| &l.windows).map(|w| w.0);
    (indices().min().unwrap_or(0), indices().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::HealthState::{Degraded as D, Down as X, Healthy as H};
    use super::*;

    /// Ten attempts, `errors` of them failed.
    fn of_ten(errors: &[u64]) -> Vec<(u64, u64, u64)> {
        errors
            .iter()
            .enumerate()
            .map(|(w, &e)| (w as u64, 10, e))
            .collect()
    }

    #[test]
    fn the_state_machine_case_by_case() {
        struct Case {
            name: &'static str,
            rows: Vec<(u64, u64, u64)>,
            until: u64,
            transitions: Vec<(u64, HealthState, HealthState)>,
            lane: &'static str,
        }
        let cases = [
            Case {
                name: "degrades immediately, recovers only after the streak",
                // 50 % ⇒ down; 10 % is still dirty; then one clean
                // window to degraded and two more to healthy.
                rows: of_ten(&[0, 5, 1, 0, 0, 0]),
                until: 6,
                transitions: vec![(1, H, X), (3, X, D), (5, D, H)],
                lane: "HXXddH",
            },
            Case {
                name: "down steps to degraded after one clean window",
                rows: of_ten(&[10, 0]),
                until: 2,
                transitions: vec![(0, H, X), (1, X, D)],
                lane: "Xd",
            },
            Case {
                name: "flap damping: single clean windows never flash healthy",
                rows: of_ten(&[2, 0, 2, 0, 2, 0, 2]),
                until: 7,
                transitions: vec![(0, H, D)],
                lane: "ddddddd",
            },
            Case {
                name: "two consecutive clean windows end a flap",
                rows: of_ten(&[2, 0, 2, 0, 0]),
                until: 5,
                transitions: vec![(0, H, D), (4, D, H)],
                lane: "ddddH",
            },
            Case {
                name: "flap damping holds across an idle window",
                // Window 1 is idle: streak 1. Window 2 is dirty again.
                rows: vec![(0, 10, 2), (2, 10, 2), (3, 10, 0)],
                until: 4,
                transitions: vec![(0, H, D)],
                lane: "d.dd",
            },
            Case {
                name: "idle windows count toward recovery",
                rows: vec![(0, 10, 2), (5, 10, 0)],
                until: 6,
                transitions: vec![(0, H, D), (2, D, H)],
                lane: "d....H",
            },
            Case {
                name: "trailing idle windows up to the horizon count too",
                rows: of_ten(&[10]),
                until: 4,
                transitions: vec![(0, H, X), (1, X, D), (3, D, H)],
                lane: "X...",
            },
            Case {
                name: "the horizon is exclusive",
                rows: of_ten(&[10]),
                until: 3,
                transitions: vec![(0, H, X), (1, X, D)],
                lane: "X..",
            },
            Case {
                name: "under-sampled windows assert nothing unless they erred",
                // 2 clean attempts: healthy. 1 of 2 failed: degraded,
                // and never down on that little evidence.
                rows: vec![(0, 2, 0), (1, 2, 1), (2, 2, 2)],
                until: 3,
                transitions: vec![(1, H, D)],
                lane: "Hdd",
            },
            Case {
                name: "a fully refused window is down, not idle",
                // Every attempt refused: errors == attempts. Also the
                // outage shape of an ObservedCloud probing at 4 ops a
                // window: clean, refused, then a clean climb back.
                rows: vec![(0, 4, 0), (1, 4, 4), (2, 4, 0), (3, 4, 0), (4, 4, 0)],
                until: 5,
                transitions: vec![(1, H, X), (2, X, D), (4, D, H)],
                lane: "HXddH",
            },
            Case {
                name: "a zero-attempt row is an idle window",
                rows: vec![(0, 10, 2), (1, 0, 0), (2, 0, 0)],
                until: 3,
                transitions: vec![(0, H, D), (2, D, H)],
                lane: "d..",
            },
            Case {
                name: "a degraded window does not lift a down cloud",
                rows: of_ten(&[6, 2]),
                until: 2,
                transitions: vec![(0, H, X)],
                lane: "XX",
            },
            Case {
                name: "no rows, no evidence",
                rows: vec![],
                until: 5,
                transitions: vec![],
                lane: ".....",
            },
        ];
        for c in cases {
            let lane = health_lane(&c.rows, c.until);
            assert_eq!(lane.transitions, c.transitions, "{}", c.name);
            assert_eq!(lane.ascii(0, c.until.max(1) - 1), c.lane, "{}", c.name);
            let last = c.transitions.last().map_or(H, |t| t.2);
            assert_eq!(lane.state(), last, "{}", c.name);
        }
    }

    #[test]
    fn a_sparse_series_does_not_walk_every_idle_window() {
        let lane = health_lane(&[(0, 10, 10), (u64::MAX - 1, 10, 0)], u64::MAX);
        assert_eq!(lane.transitions, [(0, H, X), (1, X, D), (3, D, H)]);
        assert_eq!(lane.windows, [(0, X), (u64::MAX - 1, H)]);
    }

    #[test]
    fn lanes_join_errors_by_window_and_share_one_horizon() {
        let series = |rows: &[(&str, &[(u64, u64)])]| -> BTreeMap<String, CounterWindows> {
            rows.iter()
                .map(|(cloud, w)| ((*cloud).to_owned(), w.to_vec()))
                .collect()
        };
        let ops = series(&[
            ("c0", &[(3, 10), (4, 10), (9, 10)]),
            ("c2", &[(3, 10), (4, 10), (5, 10)]),
        ]);
        let err = series(&[("c2", &[(4, 10)]), ("gone", &[(1, 1)])]);
        let lanes = health_lanes(&ops, &err);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lane_span(&lanes), (3, 9));
        assert_eq!(lanes[0].0, "c0");
        assert_eq!(lanes[0].1.ascii(3, 9), "HH....H");
        assert!(lanes[0].1.transitions.is_empty());
        // c2 stops at window 5 but is evaluated to c0's horizon (10):
        // its idle windows 6 and 7 complete the recovery.
        assert_eq!(lanes[1].1.ascii(3, 9), "HXd....");
        assert_eq!(lanes[1].1.transitions, [(4, H, X), (5, X, D), (7, D, H)]);
    }
}
