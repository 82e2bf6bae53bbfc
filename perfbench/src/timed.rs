//! Timing wrappers around the engine's two policy surfaces.
//!
//! [`TimedPolicy`] and [`TimedHook`] implement the public
//! `bsld_sched::FrequencyPolicy` and `PowerHook` traits by forwarding
//! **every** method to the wrapped policy, timing the decision calls and
//! the profile probes the engine hands the policy. A method left to the
//! trait default would silently change the schedule (`pass_elision_safe`
//! turns pass elision off, `next_power_event` drops sleep retries), which
//! is why the fidelity test compares traced and untraced runs outcome by
//! outcome.

use std::cell::Cell;

use bsld_model::GearId;
use bsld_obs::Stopwatch;
use bsld_sched::{DecisionCtx, FrequencyPolicy, PowerHook};
use bsld_simkernel::Time;

/// Policy calls and the profile probes made inside them, for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyTally {
    /// `head_gear` + `backfill_gear` + `reserve_gear` calls.
    pub calls: u64,
    /// Wall time of those calls, probes included.
    pub call_s: f64,
    /// `fits` + `find_start` probes.
    pub probes: u64,
    /// Wall time of the probes.
    pub probe_s: f64,
    /// `fits` probes alone.
    pub fits: u64,
    /// `fits` probes that answered true.
    pub fits_true: u64,
}

/// Times a [`FrequencyPolicy`] and the profile probes it makes.
pub struct TimedPolicy<'a> {
    inner: &'a dyn FrequencyPolicy,
    tally: Cell<PolicyTally>,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn FrequencyPolicy) -> Self {
        TimedPolicy {
            inner,
            tally: Cell::new(PolicyTally::default()),
        }
    }

    /// The totals so far.
    pub fn tally(&self) -> PolicyTally {
        self.tally.get()
    }

    fn update(&self, f: impl FnOnce(&mut PolicyTally)) {
        let mut t = self.tally.get();
        f(&mut t);
        self.tally.set(t);
    }

    /// Records one decision call; read the tally only after the call
    /// returned, so probes recorded inside it are kept.
    fn call_done(&self, sw: &Stopwatch) {
        let s = sw.elapsed_s();
        self.update(|t| {
            t.calls += 1;
            t.call_s += s;
        });
    }
}

impl FrequencyPolicy for TimedPolicy<'_> {
    fn head_gear(&self, ctx: &DecisionCtx<'_>, start: Time) -> GearId {
        let sw = Stopwatch::start();
        let g = self.inner.head_gear(ctx, start);
        self.call_done(&sw);
        g
    }

    fn backfill_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        fits: &mut dyn FnMut(GearId) -> bool,
    ) -> Option<GearId> {
        let sw = Stopwatch::start();
        let mut probe = |gear: GearId| {
            let p = Stopwatch::start();
            let ok = fits(gear);
            let s = p.elapsed_s();
            self.update(|t| {
                t.probes += 1;
                t.probe_s += s;
                t.fits += 1;
                t.fits_true += u64::from(ok);
            });
            ok
        };
        let g = self.inner.backfill_gear(ctx, &mut probe);
        self.call_done(&sw);
        g
    }

    fn reserve_gear(
        &self,
        ctx: &DecisionCtx<'_>,
        find_start: &mut dyn FnMut(GearId) -> Time,
    ) -> (GearId, Time) {
        let sw = Stopwatch::start();
        let mut probe = |gear: GearId| {
            let p = Stopwatch::start();
            let start = find_start(gear);
            let s = p.elapsed_s();
            self.update(|t| {
                t.probes += 1;
                t.probe_s += s;
            });
            start
        };
        let out = self.inner.reserve_gear(ctx, &mut probe);
        self.call_done(&sw);
        out
    }

    fn pass_elision_safe(&self) -> bool {
        self.inner.pass_elision_safe()
    }
}

/// Hook calls of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HookTally {
    /// Calls into the hook, every method counted.
    pub calls: u64,
    /// Wall time inside them.
    pub self_s: f64,
}

/// Times a [`PowerHook`].
pub struct TimedHook<H> {
    inner: H,
    tally: Cell<HookTally>,
}

impl<H: PowerHook> TimedHook<H> {
    /// Wraps `inner`.
    pub fn new(inner: H) -> Self {
        TimedHook {
            inner,
            tally: Cell::new(HookTally::default()),
        }
    }

    /// The wrapped hook and the totals.
    pub fn into_parts(self) -> (H, HookTally) {
        (self.inner, self.tally.get())
    }
}

/// Runs `f` as one timed hook call.
fn hook_call<T>(tally: &Cell<HookTally>, f: impl FnOnce() -> T) -> T {
    let sw = Stopwatch::start();
    let out = f();
    let mut t = tally.get();
    t.calls += 1;
    t.self_s += sw.elapsed_s();
    tally.set(t);
    out
}

impl<H: PowerHook> PowerHook for TimedHook<H> {
    fn on_time(&mut self, now: Time) {
        hook_call(&self.tally, || self.inner.on_time(now));
    }

    fn admit_start(
        &mut self,
        now: Time,
        cpus: u32,
        gear: GearId,
        wq_others: usize,
        head: bool,
    ) -> Option<GearId> {
        hook_call(&self.tally, || {
            self.inner.admit_start(now, cpus, gear, wq_others, head)
        })
    }

    fn admission_declined(&mut self) {
        hook_call(&self.tally, || self.inner.admission_declined());
    }

    fn admit_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId) -> bool {
        hook_call(&self.tally, || {
            self.inner.admit_gear_change(now, cpus, from, to)
        })
    }

    fn on_job_start(&mut self, now: Time, cpus: u32, gear: GearId) {
        hook_call(&self.tally, || self.inner.on_job_start(now, cpus, gear));
    }

    fn on_job_finish(&mut self, now: Time, cpus: u32, gear: GearId) {
        hook_call(&self.tally, || self.inner.on_job_finish(now, cpus, gear));
    }

    fn on_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId) {
        hook_call(&self.tally, || {
            self.inner.on_gear_change(now, cpus, from, to)
        });
    }

    fn next_power_event(&self, now: Time) -> Option<Time> {
        hook_call(&self.tally, || self.inner.next_power_event(now))
    }
}
