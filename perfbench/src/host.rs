//! Host-speed correction for the end-to-end times.
//!
//! The hosts this benchmark runs on are shared, and other tenants change
//! how fast a core runs by up to a third, for seconds to minutes at a
//! time: longer than a run, so no estimator inside a run removes it. So
//! every timed request is followed by a fixed probe kernel that uses no
//! code of the repository, and the request's wall time is scaled to the
//! nominal host by the probes on either side of it:
//!
//! `nominal = wall × NOMINAL_PROBE_S / mean(probe before, probe after)`
//!
//! A slower host slows the request and the probes alike; a change to the
//! program moves the request alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bsld_obs::Stopwatch;

/// The probe's time on the nominal host: about its median on the 2-vCPU
/// host the bounds in `BENCHMARK.json` come from.
pub const NOMINAL_PROBE_S: f64 = 0.035;

/// Table the probe reads and writes at random: 4 MiB, past a core's own
/// cache, as the simulator's job and profile arrays are.
const TABLE_WORDS: usize = 1 << 19;
/// Steps of one probe.
const STEPS: u64 = 150_000;
/// Events the probe's heap holds, as an event queue would.
const HEAP_EVENTS: usize = 2048;

/// Probes the host between requests.
#[derive(Debug)]
pub struct Host {
    table: Vec<u64>,
    last_probe_s: f64,
}

impl Host {
    /// Sets up the probe and runs it once, to bracket the first request.
    pub fn new() -> Host {
        let mut h = Host {
            table: vec![1; TABLE_WORDS],
            last_probe_s: 0.0,
        };
        h.last_probe_s = h.probe();
        h
    }

    /// Probes the host and returns the factor that scales the wall time
    /// spent since the previous probe to the nominal host.
    pub fn scale(&mut self) -> f64 {
        let before = self.last_probe_s;
        self.last_probe_s = self.probe();
        2.0 * NOMINAL_PROBE_S / (before + self.last_probe_s)
    }

    /// The kernel: heap pushes and pops mixed with random reads and
    /// writes over the table. Returns its wall time.
    fn probe(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let sw = Stopwatch::start();
        let mut heap = BinaryHeap::with_capacity(HEAP_EVENTS + 1);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & mask;
            self.table[slot] = self.table[slot].wrapping_add(i);
            acc ^= self.table[((x >> 32) as usize) & mask];
            heap.push(Reverse((x >> 40, i)));
            if heap.len() > HEAP_EVENTS {
                acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse((t, _))| t));
            }
        }
        std::hint::black_box(acc);
        sw.elapsed_s()
    }
}

impl Default for Host {
    fn default() -> Self {
        Host::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_a_positive_factor() {
        let mut h = Host::new();
        let s = h.scale();
        assert!(s.is_finite() && s > 0.0);
    }
}
