//! Host-speed calibration.
//!
//! The benchmark host is shared: its speed for the same work swings by
//! about 1.5× over spells of tens of seconds, depending on its
//! neighbours' load, and a spell can cover a whole run. Raw seconds then
//! say more about the neighbours than about the program. So the
//! benchmark times a fixed reference kernel before and after every round
//! and rescales the round's host times to a fixed reference speed:
//!
//! ```text
//! reported = measured × REFERENCE_S / (mean of the reference times around the round)
//! ```
//!
//! The kernel is this file's code only, the same on every commit, so a
//! faster simulator still reads faster, while a host slowdown that hits
//! the kernel and the simulator alike cancels out. It
//! mimics the simulator's mix: a binary-heap event queue, hash-map state
//! updates and periodic vector sorts over a working set of a few
//! megabytes. On the 2-vCPU host this benchmark was tuned on, 90 s of
//! alternating kernel passes and EC2-profile simulation batches showed an
//! interquartile range of 31% of the median for the raw batch times and
//! 9% for batch time over kernel time. Raw seconds are printed on the `#`
//! lines next to the rescaled ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's duration at the reference speed: about its
/// time on an uncontended host of the tuning machine. A constant, so
/// reported times compare across commits and runs.
pub const REFERENCE_S: f64 = 0.1;

/// Simulated events the kernel processes.
const EVENTS: u64 = 1_000_000;

/// The factor that rescales host seconds measured between two reference
/// passes, of `before` and `after` seconds, to the reference speed.
/// Rates divide by it.
pub fn speed(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

/// Wall seconds of one pass of the reference kernel.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(EVENTS)));
    start.elapsed().as_secs_f64()
}

/// A miniature discrete-event loop: pop the earliest timer, update the
/// state of a pseudo-random entity, re-arm the timer, and now and then
/// compact a log by sorting it.
fn kernel(events: u64) -> u64 {
    let mut timers: BinaryHeap<Reverse<(u64, u32)>> =
        (0..4096u32).map(|i| Reverse((i as u64, i))).collect();
    let mut state: HashMap<u32, u64> = HashMap::new();
    let mut log: Vec<u64> = Vec::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..events {
        let Reverse((t, id)) = timers.pop().expect("the timer set never empties");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let entry = state.entry(id ^ (x as u32 & 0xffff)).or_insert(0);
        *entry = entry.wrapping_add(t);
        acc = acc.wrapping_add(*entry);
        if x & 15 == 0 {
            log.push(x);
            if log.len() > 4096 {
                log.sort_unstable();
                log.truncate(1024);
            }
        }
        timers.push(Reverse((t + 1 + (x & 1023), id)));
    }
    acc ^ log.len() as u64 ^ state.len() as u64
}
