//! Host-speed gauge.
//!
//! On a shared virtual machine the same instructions can run up to about
//! twice as long for seconds or minutes at a time, when other tenants load
//! the physical cores. The slowdown shows in thread CPU time as much as in wall
//! time, so neither clock removes it. The gauge times a fixed piece of work
//! that shares no code with the program under test, next to the
//! measurement, and the benchmark scales the measured times by how much
//! slower the gauge ran than on the reference host. A change to the program
//! moves the measured times but not the gauge, so it shows in full.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// The gauge's time on the reference host: one vCPU of a 2.0 GHz Xeon,
/// in its fast state.
pub const REFERENCE_S: f64 = 450e-6;

/// Timed repetitions of the kernel per reading; the reading is their median.
const REPEATS: usize = 3;

/// A fixed kernel of allocation, formatting, ordered-map inserts, hashing
/// and sorting, the kinds of work the program spends its time on.
fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..1_500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(
            format!("urn:gauge:{}", x % 100_000),
            vec![i as u8; (x % 64) as usize],
        );
    }
    let mut h = DefaultHasher::new();
    for (k, v) in &map {
        k.hash(&mut h);
        v.hash(&mut h);
    }
    let mut keys: Vec<u64> = map.keys().map(|k| k.len() as u64 ^ h.finish()).collect();
    keys.sort_unstable();
    h.finish() ^ keys[0]
}

/// One reading: the median time of the kernel, in seconds.
pub fn read() -> f64 {
    let mut times = [0.0; REPEATS];
    for t in &mut times {
        let start = Instant::now();
        black_box(kernel());
        *t = start.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    times[REPEATS / 2]
}

/// Wall time in laps, with the gauge read between laps. Each lap is scaled
/// by the mean of the readings at its two ends; the readings themselves
/// are not timed.
pub struct Clock {
    lap_start: Instant,
    /// Wall time of the laps so far, in seconds.
    pub wall_s: f64,
    /// The same, scaled to the reference host's speed.
    pub scaled_s: f64,
    /// One reading before the first lap and one after each.
    pub readings: Vec<f64>,
}

impl Clock {
    /// Reads the gauge and starts the first lap.
    pub fn start() -> Clock {
        let first = read();
        Clock {
            lap_start: Instant::now(),
            wall_s: 0.0,
            scaled_s: 0.0,
            readings: vec![first],
        }
    }

    /// Ends the current lap, reads the gauge and starts the next lap.
    /// Returns the factor that scales times measured in the ended lap.
    pub fn lap(&mut self) -> f64 {
        let wall = self.lap_start.elapsed().as_secs_f64();
        let before = *self.readings.last().expect("read in start()");
        let after = read();
        self.readings.push(after);
        let factor = REFERENCE_S / ((before + after) / 2.0);
        self.wall_s += wall;
        self.scaled_s += wall * factor;
        self.lap_start = Instant::now();
        factor
    }
}
