//! An exhaustive model of the quorum lock (paper §5.2): every
//! interleaving of 2–3 devices acquiring over 3 clouds, checked for
//! mutual exclusion.
//!
//! Each step is one cloud call of one device: the upload of its lock
//! file to one cloud, the listing of one lock directory, the delete of
//! its file from one cloud (which may be lost). Between steps a device
//! may crash, leaving its files behind, and ΔT may pass, after which any
//! file of a crashed device and any leftover of a lost delete is broken.
//! A device's round ends as `QuorumLock`'s does, by the product's own
//! rule: `unidrive_meta::lock_verdict` over the files each cloud listed
//! decides hold, head or lose, and `LockConfig::head_waits` with the
//! world's `lists` as `max_attempts` bounds a head's lists. A world of
//! one list per upload is the paper's loser rule, where every loser
//! withdraws; more lists are the queue.
//!
//! A file's key is its bit below: device-major, so files sort by
//! device. The model gives each device one acquire and ranks acquires
//! by when they started, so lower devices started first.
//! `cargo test --release -p unidrive-core --test lock_model` prints the
//! states each world reaches.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use unidrive_meta::{lock_verdict, LockConfig, LockVerdict};

const CLOUDS: usize = 3;
const QUORUM: usize = 2;
/// Room for the devices of one world; a world with fewer leaves the
/// rest `Done`.
const DEVICES: usize = 3;
const ALL: u8 = (1 << CLOUDS) - 1;
/// Room for the lock files of one acquire.
const UPLOADS: u8 = 2;

/// A set of lock files: device `d`'s upload `a` is bit `d * UPLOADS + a`.
type Files = u16;

fn file(d: usize, a: u8) -> Files {
    1 << (d * UPLOADS as usize + a as usize)
}

fn files_of(d: usize) -> Files {
    ((1 << UPLOADS) - 1) << (d * UPLOADS as usize)
}

/// Where one device is; `todo` is the clouds its current step has yet
/// to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Idle,
    Upload { a: u8, todo: u8 },
    /// The `round`-th listing of file `a`; `seen[c]` is what cloud `c`
    /// listed.
    List { a: u8, round: u8, todo: u8, seen: [Files; CLOUDS] },
    Withdraw { a: u8, todo: u8 },
    Hold { a: u8 },
    Release { a: u8, todo: u8 },
    Done,
    Crashed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    clouds: [Files; CLOUDS],
    devices: [Phase; DEVICES],
    crashed: bool,
}

/// The file device `d` is working with, if it is still alive.
fn current(p: Phase) -> Option<u8> {
    match p {
        Phase::Upload { a, .. }
        | Phase::List { a, .. }
        | Phase::Withdraw { a, .. }
        | Phase::Hold { a }
        | Phase::Release { a, .. } => Some(a),
        Phase::Idle | Phase::Done | Phase::Crashed => None,
    }
}

/// Files ΔT breaks: everything of a crashed or finished device, and any
/// file of a live one other than the one it is working with.
fn breakable(s: &State) -> Files {
    let mut out = 0;
    for (d, &p) in s.devices.iter().enumerate() {
        out |= files_of(d) & !current(p).map_or(0, |a| file(d, a));
    }
    out
}

/// How device `d`'s round over file `a` ends, given its listings.
fn verdict(d: usize, a: u8, seen: &[Files; CLOUDS]) -> LockVerdict {
    let keys = seen.map(|f| (0..Files::BITS).filter(|i| f >> i & 1 != 0).collect::<Vec<_>>());
    lock_verdict(&keys, QUORUM, &file(d, a).trailing_zeros()).0
}

/// Every state one step of device `d` leads to.
fn steps(w: World, s: &State, d: usize, out: &mut Vec<State>) {
    let clouds = 0..CLOUDS;
    let mut next = |f: &dyn Fn(&mut State)| {
        let mut n = *s;
        f(&mut n);
        out.push(n);
    };
    match s.devices[d] {
        Phase::Idle => next(&|n| n.devices[d] = Phase::Upload { a: 0, todo: ALL }),
        Phase::Upload { a, todo } => {
            for c in clouds.filter(|c| todo & 1 << c != 0) {
                next(&|n| {
                    n.clouds[c] |= file(d, a);
                    let todo = todo & !(1 << c);
                    let seen = [0; CLOUDS];
                    n.devices[d] = if todo == 0 {
                        Phase::List { a, round: 1, todo: ALL, seen }
                    } else {
                        Phase::Upload { a, todo }
                    };
                });
            }
        }
        Phase::List { a, round, todo, seen } => {
            for c in clouds.filter(|c| todo & 1 << c != 0) {
                next(&|n| {
                    // Our own leftovers are reclaimed as they are listed.
                    n.clouds[c] &= !(files_of(d) & !file(d, a));
                    let mut seen = seen;
                    seen[c] = n.clouds[c];
                    let todo = todo & !(1 << c);
                    n.devices[d] = match todo {
                        0 => match verdict(d, a, &seen) {
                            LockVerdict::Hold => Phase::Hold { a },
                            LockVerdict::Head if w.head_waits(round) => {
                                Phase::List { a, round: round + 1, todo: ALL, seen: [0; CLOUDS] }
                            }
                            _ => Phase::Withdraw { a, todo: ALL },
                        },
                        _ => Phase::List { a, round, todo, seen },
                    };
                });
            }
        }
        Phase::Withdraw { a, todo } | Phase::Release { a, todo } => {
            let withdrawing = matches!(s.devices[d], Phase::Withdraw { .. });
            for c in clouds.filter(|c| todo & 1 << c != 0) {
                for lost in [false, true] {
                    next(&|n| {
                        if !lost {
                            n.clouds[c] &= !file(d, a);
                        }
                        let todo = todo & !(1 << c);
                        n.devices[d] = match (todo, withdrawing) {
                            (0, true) if a + 1 < w.uploads => Phase::Upload { a: a + 1, todo: ALL },
                            (0, _) => Phase::Done,
                            (_, true) => Phase::Withdraw { a, todo },
                            (_, false) => Phase::Release { a, todo },
                        };
                    });
                }
            }
        }
        Phase::Hold { a } => next(&|n| n.devices[d] = Phase::Release { a, todo: ALL }),
        Phase::Done | Phase::Crashed => {}
    }
    if !s.crashed && current(s.devices[d]).is_some() {
        next(&|n| {
            n.devices[d] = Phase::Crashed;
            n.crashed = true;
        });
    }
}

/// Whether every live contender is a head that, listing the clouds as
/// they are now, would keep waiting, while nothing else can move: no
/// holder, no call in flight, nothing for ΔT to break.
fn all_waiting(s: &State) -> bool {
    let mut waiting = 0;
    for (d, &p) in s.devices.iter().enumerate() {
        match p {
            Phase::Idle | Phase::Done | Phase::Crashed => {}
            Phase::List { a, round, .. } if round > 1 => {
                let mut seen = s.clouds;
                for listed in &mut seen {
                    *listed &= !(files_of(d) & !file(d, a));
                }
                if verdict(d, a, &seen) != LockVerdict::Head {
                    return false;
                }
                waiting += 1;
            }
            _ => return false,
        }
    }
    waiting > 0 && breakable(s) & s.clouds.iter().fold(0, |m, c| m | c) == 0
}

/// `s` as one number, for the set of states seen (hashing it is much
/// cheaper than hashing the struct field by field).
fn pack(s: &State) -> u128 {
    let mut k = u128::from(s.crashed);
    let mut put = |v: u64, bits: u32| {
        debug_assert!(v < 1 << bits, "{v} needs more than {bits} bits");
        k = k << bits | u128::from(v);
    };
    for &c in &s.clouds {
        put(u64::from(c), 6);
    }
    for &p in &s.devices {
        let (kind, a, round, todo, seen) = match p {
            Phase::Idle => (0, 0, 0, 0, [0; CLOUDS]),
            Phase::Upload { a, todo } => (1, a, 0, todo, [0; CLOUDS]),
            Phase::List { a, round, todo, seen } => (2, a, round, todo, seen),
            Phase::Withdraw { a, todo } => (3, a, 0, todo, [0; CLOUDS]),
            Phase::Hold { a } => (4, a, 0, 0, [0; CLOUDS]),
            Phase::Release { a, todo } => (5, a, 0, todo, [0; CLOUDS]),
            Phase::Done => (6, 0, 0, 0, [0; CLOUDS]),
            Phase::Crashed => (7, 0, 0, 0, [0; CLOUDS]),
        };
        put(kind, 3);
        put(u64::from(a), 1);
        put(u64::from(round), 2);
        put(u64::from(todo), 3);
        for c in seen {
            put(u64::from(c), 6);
        }
    }
    k
}

/// The bounds of one explored world.
#[derive(Debug, Clone, Copy)]
struct World {
    devices: usize,
    /// Lock files one acquire uploads before it gives up (at most
    /// `UPLOADS`).
    uploads: u8,
    /// Lists of one file before a head gives up.
    lists: u8,
}

impl World {
    /// The product's bound on a head's lists, `lists` standing for
    /// `max_attempts`. A live device's file is never broken: age zero.
    fn head_waits(self, round: u8) -> bool {
        let lock = LockConfig { max_attempts: self.lists.into(), ..LockConfig::default() };
        lock.head_waits(round.into(), Duration::ZERO)
    }
}

/// Explores every state `w` reaches. Returns the number of states.
fn explore(w: World) -> usize {
    let mut start = State {
        clouds: [0; CLOUDS],
        devices: [Phase::Done; DEVICES],
        crashed: false,
    };
    start.devices[..w.devices].fill(Phase::Idle);
    let mut seen = HashSet::from([pack(&start)]);
    let mut queue = VecDeque::from([start]);
    let mut out = Vec::new();
    while let Some(s) = queue.pop_front() {
        let holders = s.devices.iter().filter(|p| matches!(p, Phase::Hold { .. })).count();
        assert!(holders <= 1, "{w:?}: {holders} holders in {s:?}");
        assert!(!all_waiting(&s), "{w:?}: every contender waits in {s:?}");
        out.clear();
        for d in 0..w.devices {
            steps(w, &s, d, &mut out);
        }
        // ΔT passes: everything breakable on a cloud is broken.
        let broken = breakable(&s);
        if s.clouds.iter().any(|c| c & broken != 0) {
            let mut n = s;
            n.clouds.iter_mut().for_each(|c| *c &= !broken);
            out.push(n);
        }
        for n in out.drain(..) {
            if seen.insert(pack(&n)) {
                queue.push_back(n);
            }
        }
    }
    seen.len()
}

#[test]
fn two_devices_never_hold_together() {
    for lists in [1, 3] {
        let w = World { devices: 2, uploads: 2, lists };
        println!("{w:?}: {} states", explore(w));
    }
}

#[test]
fn three_devices_never_hold_together() {
    for lists in [1, 2] {
        let w = World { devices: 3, uploads: 1, lists };
        println!("{w:?}: {} states", explore(w));
    }
}
