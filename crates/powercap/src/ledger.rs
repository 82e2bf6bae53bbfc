//! The cluster power ledger: instantaneous draw as a step-function signal.

use bsld_model::GearId;
use bsld_power::{PowerModel, RailKind, RailSet};

/// Per-rail bookkeeping mirroring the aggregate ledger.
///
/// Each rail carries its own `P_active` table and `P_idle`, and integrates
/// its own draw on the same event stream. The aggregate fields of
/// [`PowerLedger`] are maintained independently (not derived from the
/// rails), so the single-rail default stays bit-identical to the
/// pre-rail ledger.
#[derive(Debug, Clone)]
struct RailAccount {
    kind: RailKind,
    p_active: Vec<f64>,
    p_idle: f64,
    /// This rail's share of the aggregate idle draw — used to split
    /// sleep-state draw (expressed as a fraction of aggregate `P_idle`)
    /// across rails.
    idle_share: f64,
    busy_power: f64,
    sleep_power: f64,
    power: f64,
    integral: f64,
    impulses: f64,
}

/// One rail's share of the total energy, as reported by
/// [`PowerLedger::rail_energies`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailEnergy {
    /// Which subsystem this rail meters.
    pub kind: RailKind,
    /// `∫ P_rail dt` plus this rail's share of wake impulses.
    pub energy: f64,
}

/// Tracks instantaneous cluster power and its exact time integral.
///
/// Draw decomposes into three components the ledger maintains
/// incrementally:
///
/// * **busy** — `Σ cpus × P_active(gear)` over running jobs;
/// * **idle** — awake-but-free processors at `P_idle`;
/// * **sleep** — sleeping processors at their state's fraction of
///   `P_idle`.
///
/// Every mutation first integrates the current level up to the mutation
/// time (the signal is piecewise constant between events, so the integral
/// is exact), then records the new level in the step series. Wake-up
/// energy penalties are charged as impulses: they contribute to
/// [`PowerLedger::energy`] but not to the power level.
///
/// When built from a multi-rail [`RailSet`] the same event stream is also
/// integrated per rail, attributing energy to CPU / memory / interconnect;
/// the aggregate (cap enforcement, peak, series) is always the sum of the
/// rails.
#[derive(Debug, Clone)]
pub struct PowerLedger {
    p_active: Vec<f64>,
    p_idle: f64,
    total: u32,
    busy: u32,
    sleeping: u32,
    busy_power: f64,
    sleep_power: f64,
    power: f64,
    last_t: u64,
    integral: f64,
    impulses: f64,
    peak: f64,
    series: Vec<(u64, f64)>,
    rails: Vec<RailAccount>,
}

impl PowerLedger {
    /// A ledger for a machine of `total` processors priced by `pm` as a
    /// single CPU rail, all idle-awake at time 0.
    pub fn new(pm: &dyn PowerModel, total: u32) -> PowerLedger {
        Self::from_parts(&[(RailKind::Cpu, pm)], total)
    }

    /// A ledger attributing draw across `rails` (one account per rail),
    /// all processors idle-awake at time 0. The aggregate tables are the
    /// per-gear sums of the rails'.
    pub fn with_rails(rails: &RailSet, total: u32) -> PowerLedger {
        let parts: Vec<(RailKind, &dyn PowerModel)> = rails
            .rails()
            .iter()
            .map(|r| (r.kind(), r.model()))
            .collect();
        Self::from_parts(&parts, total)
    }

    fn from_parts(parts: &[(RailKind, &dyn PowerModel)], total: u32) -> PowerLedger {
        assert!(!parts.is_empty(), "ledger needs at least one rail");
        let gears = parts[0].1.gears();
        let p_active: Vec<f64> = gears
            .ascending()
            .map(|(id, _)| parts.iter().map(|(_, m)| m.p_active(id)).sum())
            .collect();
        let p_idle: f64 = parts.iter().map(|(_, m)| m.p_idle()).sum();
        let rails: Vec<RailAccount> = parts
            .iter()
            .enumerate()
            .map(|(i, (kind, m))| {
                let idle_share = if p_idle > 0.0 {
                    m.p_idle() / p_idle
                } else if i == 0 {
                    1.0
                } else {
                    0.0
                };
                RailAccount {
                    kind: *kind,
                    p_active: gears.ascending().map(|(id, _)| m.p_active(id)).collect(),
                    p_idle: m.p_idle(),
                    idle_share,
                    busy_power: 0.0,
                    sleep_power: 0.0,
                    power: total as f64 * m.p_idle(),
                    integral: 0.0,
                    impulses: 0.0,
                }
            })
            .collect();
        let power = total as f64 * p_idle;
        PowerLedger {
            p_active,
            p_idle,
            total,
            busy: 0,
            sleeping: 0,
            busy_power: 0.0,
            sleep_power: 0.0,
            power,
            last_t: 0,
            integral: 0.0,
            impulses: 0.0,
            peak: power,
            series: vec![(0, power)],
            rails,
        }
    }

    /// Machine size this ledger prices.
    pub fn total_cpus(&self) -> u32 {
        self.total
    }

    /// `P_active` for `gear`, in the ledger's normalised units.
    pub fn p_active(&self, gear: GearId) -> f64 {
        self.p_active[gear.index()]
    }

    /// `P_idle` per awake-but-free processor.
    pub fn p_idle(&self) -> f64 {
        self.p_idle
    }

    /// Current cluster draw.
    pub fn power_now(&self) -> f64 {
        self.power
    }

    /// Highest draw observed so far.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Processors currently running jobs.
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Processors currently in a sleep state.
    pub fn sleeping(&self) -> u32 {
        self.sleeping
    }

    /// `∫ P dt` up to the last advanced instant, plus wake impulses.
    pub fn energy(&self) -> f64 {
        self.integral + self.impulses
    }

    /// `∫ P dt` alone (no impulses) up to the last advanced instant.
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// The step series `(time, power)`: the draw from each instant until
    /// the next entry. At most one entry per instant (the final level).
    pub fn series(&self) -> &[(u64, f64)] {
        &self.series
    }

    /// Per-rail energy up to the last advanced instant. Wake impulses are
    /// charged to the CPU rail (waking hardware is a processor event).
    pub fn rail_energies(&self) -> Vec<RailEnergy> {
        self.rails
            .iter()
            .map(|r| RailEnergy {
                kind: r.kind,
                energy: r.integral + r.impulses,
            })
            .collect()
    }

    /// Integrates the current level up to `t` (idempotent per instant).
    ///
    /// # Panics
    /// Panics in debug builds if `t` precedes the last recorded instant —
    /// ledger events must arrive in time order.
    pub fn advance(&mut self, t: u64) {
        debug_assert!(
            t >= self.last_t,
            "ledger time went backwards: {} < {}",
            t,
            self.last_t
        );
        if t > self.last_t {
            let dt = (t - self.last_t) as f64;
            self.integral += self.power * dt;
            for r in &mut self.rails {
                r.integral += r.power * dt;
            }
            self.last_t = t;
        }
    }

    fn recompute(&mut self, t: u64) {
        let idle = self.total - self.busy - self.sleeping;
        self.power = self.busy_power + idle as f64 * self.p_idle + self.sleep_power;
        self.peak = self.peak.max(self.power);
        for r in &mut self.rails {
            r.power = r.busy_power + idle as f64 * r.p_idle + r.sleep_power;
        }
        match self.series.last_mut() {
            Some(last) if last.0 == t => last.1 = self.power,
            _ => self.series.push((t, self.power)),
        }
    }

    /// A job started `cpus` processors at `gear` at time `t`.
    pub fn start(&mut self, t: u64, cpus: u32, gear: GearId) {
        self.advance(t);
        self.busy += cpus;
        debug_assert!(
            self.busy + self.sleeping <= self.total,
            "ledger overcommitted"
        );
        self.busy_power += cpus as f64 * self.p_active(gear);
        for r in &mut self.rails {
            r.busy_power += cpus as f64 * r.p_active[gear.index()];
        }
        self.recompute(t);
    }

    /// A job running `cpus` processors at `gear` completed at time `t`.
    pub fn finish(&mut self, t: u64, cpus: u32, gear: GearId) {
        self.advance(t);
        debug_assert!(self.busy >= cpus, "ledger finish without matching start");
        self.busy -= cpus;
        self.busy_power -= cpus as f64 * self.p_active(gear);
        for r in &mut self.rails {
            r.busy_power -= cpus as f64 * r.p_active[gear.index()];
        }
        if self.busy == 0 {
            self.busy_power = 0.0; // absorb float drift at quiescence
            for r in &mut self.rails {
                r.busy_power = 0.0;
            }
        }
        self.recompute(t);
    }

    /// A running job switched `cpus` processors from `from` to `to`.
    pub fn gear_change(&mut self, t: u64, cpus: u32, from: GearId, to: GearId) {
        self.advance(t);
        self.busy_power += cpus as f64 * (self.p_active(to) - self.p_active(from));
        for r in &mut self.rails {
            r.busy_power += cpus as f64 * (r.p_active[to.index()] - r.p_active[from.index()]);
        }
        self.recompute(t);
    }

    /// `n` awake-idle processors entered a sleep state drawing `p_state`
    /// each.
    pub fn sleep_enter(&mut self, t: u64, n: u32, p_state: f64) {
        self.advance(t);
        self.sleeping += n;
        debug_assert!(
            self.busy + self.sleeping <= self.total,
            "slept a busy processor"
        );
        self.sleep_power += n as f64 * p_state;
        for r in &mut self.rails {
            r.sleep_power += n as f64 * p_state * r.idle_share;
        }
        self.recompute(t);
    }

    /// `n` sleeping processors moved from a state drawing `old_p` each to
    /// one drawing `new_p` each.
    pub fn sleep_deepen(&mut self, t: u64, n: u32, old_p: f64, new_p: f64) {
        self.advance(t);
        self.sleep_power += n as f64 * (new_p - old_p);
        for r in &mut self.rails {
            r.sleep_power += n as f64 * (new_p - old_p) * r.idle_share;
        }
        self.recompute(t);
    }

    /// `n` processors woke from a state drawing `p_state` each, charging
    /// `energy` (total, not per processor) as a wake impulse.
    pub fn wake(&mut self, t: u64, n: u32, p_state: f64, energy: f64) {
        self.advance(t);
        debug_assert!(self.sleeping >= n, "woke more processors than sleep");
        self.sleeping -= n;
        self.sleep_power -= n as f64 * p_state;
        for r in &mut self.rails {
            r.sleep_power -= n as f64 * p_state * r.idle_share;
        }
        if self.sleeping == 0 {
            self.sleep_power = 0.0;
            for r in &mut self.rails {
                r.sleep_power = 0.0;
            }
        }
        self.impulses += energy;
        self.rails[0].impulses += energy;
        self.recompute(t);
    }

    /// Draw delta of starting `cpus` at `gear` when `from_idle` of them
    /// come from awake-idle and the rest from sources drawing
    /// `sourced_sleep_power` in total.
    pub fn start_delta(
        &self,
        cpus: u32,
        gear: GearId,
        from_idle: u32,
        sourced_sleep_power: f64,
    ) -> f64 {
        cpus as f64 * self.p_active(gear) - from_idle as f64 * self.p_idle - sourced_sleep_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_cluster::GearSet;
    use bsld_power::{Constant, Linear, PaperDvfs, Rail};

    fn ledger(total: u32) -> PowerLedger {
        PowerLedger::new(&PaperDvfs::paper(GearSet::paper()), total)
    }

    fn three_rails() -> RailSet {
        RailSet::new(vec![
            Rail::new(RailKind::Cpu, Box::new(PaperDvfs::paper(GearSet::paper()))),
            Rail::new(
                RailKind::Memory,
                Box::new(Linear::new(GearSet::paper(), 1.0, 3.0)),
            ),
            Rail::new(
                RailKind::Interconnect,
                Box::new(Constant::new(GearSet::paper(), 2.0)),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn starts_and_finishes_return_to_idle_floor() {
        let mut l = ledger(8);
        let floor = l.power_now();
        assert!(floor > 0.0, "idle machine still draws");
        let top = GearId(5);
        l.start(10, 4, top);
        assert!(l.power_now() > floor);
        l.finish(110, 4, top);
        assert!((l.power_now() - floor).abs() < 1e-9);
        assert_eq!(l.busy(), 0);
    }

    #[test]
    fn integral_matches_hand_computation() {
        let mut l = ledger(4);
        let p_idle = l.p_idle();
        let p_top = l.p_active(GearId(5));
        // [0,10): 4 idle. [10,30): 2 busy top + 2 idle. [30,50): idle.
        l.start(10, 2, GearId(5));
        l.finish(30, 2, GearId(5));
        l.advance(50);
        let expected =
            10.0 * 4.0 * p_idle + 20.0 * (2.0 * p_top + 2.0 * p_idle) + 20.0 * 4.0 * p_idle;
        assert!(
            (l.energy() - expected).abs() < 1e-9,
            "{} vs {expected}",
            l.energy()
        );
    }

    #[test]
    fn series_is_step_function_with_unique_instants() {
        let mut l = ledger(4);
        l.start(5, 1, GearId(2));
        l.start(5, 1, GearId(3));
        l.finish(9, 1, GearId(2));
        let times: Vec<u64> = l.series().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 5, 9], "same-instant updates must merge");
        for w in l.series().windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn gear_change_adjusts_level() {
        let mut l = ledger(2);
        l.start(0, 2, GearId(0));
        let low = l.power_now();
        l.gear_change(10, 2, GearId(0), GearId(5));
        assert!(l.power_now() > low);
        l.finish(20, 2, GearId(5));
        assert_eq!(l.busy(), 0);
        assert!((l.power_now() - 2.0 * l.p_idle()).abs() < 1e-9);
    }

    #[test]
    fn sleep_reduces_draw_and_wake_charges_impulse() {
        let mut l = ledger(4);
        let floor = l.power_now();
        let p_state = 0.2 * l.p_idle();
        l.sleep_enter(100, 3, p_state);
        assert!(l.power_now() < floor);
        assert_eq!(l.sleeping(), 3);
        let before = l.energy();
        l.advance(200);
        l.wake(200, 3, p_state, 1.5);
        assert_eq!(l.sleeping(), 0);
        assert!((l.power_now() - floor).abs() < 1e-9);
        assert!(
            l.energy() > before + 1.5 - 1e-9,
            "wake impulse must be charged"
        );
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut l = ledger(4);
        l.start(0, 4, GearId(5));
        let high = l.power_now();
        l.finish(10, 4, GearId(5));
        assert!((l.peak() - high).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn rejects_time_regression() {
        let mut l = ledger(2);
        l.start(10, 1, GearId(0));
        l.start(5, 1, GearId(0));
    }

    #[test]
    fn single_rail_energy_is_bit_identical_to_aggregate() {
        let mut l = ledger(8);
        l.start(10, 4, GearId(5));
        l.gear_change(40, 4, GearId(5), GearId(1));
        l.finish(90, 4, GearId(1));
        l.advance(120);
        let rails = l.rail_energies();
        assert_eq!(rails.len(), 1);
        assert_eq!(rails[0].kind, RailKind::Cpu);
        assert_eq!(rails[0].energy.to_bits(), l.energy().to_bits());
    }

    #[test]
    fn rail_energies_sum_to_aggregate() {
        let set = three_rails();
        let mut l = PowerLedger::with_rails(&set, 8);
        let p_state = 0.2 * l.p_idle();
        l.start(10, 4, GearId(5));
        l.gear_change(50, 4, GearId(5), GearId(2));
        l.finish(100, 4, GearId(2));
        l.sleep_enter(160, 6, p_state);
        l.wake(400, 6, p_state, 2.5);
        l.start(410, 2, GearId(0));
        l.finish(500, 2, GearId(0));
        l.advance(600);
        let rails = l.rail_energies();
        assert_eq!(rails.len(), 3);
        let sum: f64 = rails.iter().map(|r| r.energy).sum();
        assert!(
            (sum - l.energy()).abs() < 1e-9 * l.energy().max(1.0),
            "rails {sum} vs aggregate {}",
            l.energy()
        );
        // The wake impulse lands on the CPU rail.
        assert_eq!(rails[0].kind, RailKind::Cpu);
        assert!(rails.iter().all(|r| r.energy > 0.0));
    }

    #[test]
    fn multi_rail_aggregate_tables_are_sums() {
        let set = three_rails();
        let l = PowerLedger::with_rails(&set, 4);
        let top = GearSet::paper().top();
        let paper = PaperDvfs::paper(GearSet::paper());
        let expected = paper.p_active(top) + 3.0 + 2.0;
        assert!((l.p_active(top) - expected).abs() < 1e-12);
        assert!((l.p_idle() - (paper.p_idle() + 1.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn constant_rail_ignores_sleep_and_gears() {
        // A constant interconnect rail has idle_share > 0, so sleeping does
        // scale it down (sleep draw is expressed vs aggregate idle), but
        // gear changes must not move it.
        let set = three_rails();
        let mut l = PowerLedger::with_rails(&set, 4);
        l.start(0, 4, GearId(0));
        let net_before = l.rail_energies()[2].energy;
        l.gear_change(10, 4, GearId(0), GearId(5));
        l.advance(20);
        let rails = l.rail_energies();
        // [0,20): constant rail integrates 4 cpus × 2.0 per second.
        let expected_net = 20.0 * 4.0 * 2.0;
        assert!(
            (rails[2].energy - expected_net).abs() < 1e-9,
            "net rail {} vs {expected_net} (before gear change {net_before})",
            rails[2].energy
        );
    }
}
