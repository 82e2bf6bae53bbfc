//! The power-management hook.
//!
//! [`PowerHook`] is the engine's second policy surface, next to
//! [`crate::FrequencyPolicy`]: where the frequency policy picks a DVFS gear
//! per job from performance predictions alone, a power hook observes every
//! power-relevant event (starts, completions, mid-run gear changes, time
//! advancing) and may **veto or down-gear** a start or boost decision.
//! `bsld-powercap` implements it to track instantaneous cluster draw and
//! enforce cluster-level power budgets with idle sleep states; the engine
//! itself knows nothing about watts.
//!
//! # Contract
//!
//! * [`PowerHook::on_time`] is called whenever simulation time advances to
//!   an event instant, before any scheduling at that instant; it may be
//!   called repeatedly with the same time (once per event in an instant's
//!   batch) and must be idempotent per instant.
//! * [`PowerHook::admit_start`] is consulted immediately before a job would
//!   start. Returning `Some(g)` admits the job at gear `g` (which must be
//!   `<=` the proposed gear — admission may only *reduce* frequency);
//!   returning `None` defers the job (it stays queued and is retried at the
//!   next event). The engine re-checks profile fit when a backfill
//!   candidate is down-geared.
//! * [`PowerHook::admit_gear_change`] gates mid-run re-times (the dynamic
//!   boost extension): returning `false` skips the boost for that job.
//! * The `on_job_start` / `on_job_finish` / `on_gear_change` notifications
//!   fire after the corresponding state change is committed, exactly once
//!   per change, with the gear the job is entering/leaving.
//!
//! # Pass elision
//!
//! Attaching a hook does not by itself turn off the engine's pass elision
//! (see the `engine` module docs). The engine keeps eliding provably no-op
//! passes until the hook first *intervenes*: an [`PowerHook::admit_start`]
//! answer other than `Some(gear)` for the proposed gear (a veto or a
//! down-gear), or an admission the engine then declines (reported through
//! [`PowerHook::admission_declined`]). From then on every event takes a
//! full pass. Up to that point an elided pass offers the hook exactly the
//! starts a full pass would, so a hook sees the same `admit_start` calls
//! either way. [`PowerHook::on_time`] fires on every event, elided or not,
//! and same-instant arrivals are offered one at a time: a hooked run never
//! batches them, since a batch would change the `wq_others` a hook sees.
//!
//! Deferrals are safe from livelock because cluster power only changes at
//! event boundaries and every event triggers a fresh scheduling pass; a
//! run that can never proceed (a budget below a single job's minimum draw)
//! terminates with [`crate::SimError::Stalled`] instead of looping.

use bsld_model::GearId;
use bsld_simkernel::Time;

/// Observes and gates power-relevant scheduling decisions. See the module
/// docs for the exact calling contract.
pub trait PowerHook {
    /// Simulation time advanced to `now` (idempotent per instant).
    fn on_time(&mut self, now: Time);

    /// May veto (`None`) or down-gear a start decision. `head` is true for
    /// the head of the wait queue, false for backfill candidates.
    fn admit_start(
        &mut self,
        now: Time,
        cpus: u32,
        gear: GearId,
        wq_others: usize,
        head: bool,
    ) -> Option<GearId>;

    /// The engine could not honor the gear returned by the immediately
    /// preceding [`PowerHook::admit_start`] (a down-geared duration no
    /// longer fit the backfill window or the committed profile, or the
    /// selection policy could not serve the allocation): the start did
    /// **not** happen. Hooks that count admissions should reverse the
    /// corresponding bookkeeping here.
    fn admission_declined(&mut self) {}

    /// May veto a mid-run gear change (dynamic boost).
    fn admit_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId) -> bool;

    /// A job began executing `cpus` processors at `gear`.
    fn on_job_start(&mut self, now: Time, cpus: u32, gear: GearId);

    /// A job released `cpus` processors; it was last running at `gear`.
    fn on_job_finish(&mut self, now: Time, cpus: u32, gear: GearId);

    /// A running job switched `cpus` processors from `from` to `to`.
    fn on_gear_change(&mut self, now: Time, cpus: u32, from: GearId, to: GearId);

    /// The next instant strictly after `now` at which this hook's power
    /// state will change *on its own* (e.g. an idle sleep transition), or
    /// `None`. While jobs wait, the engine schedules a scheduling pass at
    /// this instant so starts deferred by a budget are retried when the
    /// autonomous change frees draw — job events alone would never revisit
    /// them on an otherwise quiet machine.
    fn next_power_event(&self, _now: Time) -> Option<Time> {
        None
    }
}

/// A hook that admits everything and records nothing; useful as a default
/// and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl PowerHook for NoopHook {
    fn on_time(&mut self, _now: Time) {}

    fn admit_start(
        &mut self,
        _now: Time,
        _cpus: u32,
        gear: GearId,
        _wq_others: usize,
        _head: bool,
    ) -> Option<GearId> {
        Some(gear)
    }

    fn admit_gear_change(&mut self, _now: Time, _cpus: u32, _from: GearId, _to: GearId) -> bool {
        true
    }

    fn on_job_start(&mut self, _now: Time, _cpus: u32, _gear: GearId) {}

    fn on_job_finish(&mut self, _now: Time, _cpus: u32, _gear: GearId) {}

    fn on_gear_change(&mut self, _now: Time, _cpus: u32, _from: GearId, _to: GearId) {}
}
