//! The event-driven EASY backfilling simulator.
//!
//! # Scheduling semantics
//!
//! On every event (job arrival or completion) the engine runs a scheduling
//! pass:
//!
//! 1. **Start head jobs.** While the head of the wait queue fits on the
//!    currently free processors it starts immediately (First Fit processor
//!    selection), at the gear chosen by the [`FrequencyPolicy`].
//! 2. **Reserve.** The remaining head job (if any) receives the only
//!    reservation: the earliest instant — according to the *requested*
//!    completion times of running jobs — at which its processors are
//!    available. The reservation (at its policy-chosen gear and dilated
//!    requested duration) is committed into the availability profile.
//! 3. **Backfill.** Every other queued job, in arrival order, may start now
//!    iff its dilated requested runtime fits the committed profile — i.e.
//!    iff it cannot delay the reservation. The gear is again chosen by the
//!    policy, which may decline.
//!
//! Because passes rerun on every completion, early finishes automatically
//! reschedule all queued jobs, as in the paper. Reservations are
//! re-derived each pass and can only move earlier, preserving the EASY
//! no-delay guarantee.
//!
//! # Incremental pass pipeline
//!
//! Naively, every event rebuilds the availability profile from *all*
//! running jobs and re-runs the whole pass — O(events × running jobs) of
//! pure re-derivation. The engine instead maintains:
//!
//! * a **sorted running-jobs index** (`expected_end → cpus`), so a rebuild
//!   is a merged in-order iteration instead of a scan-and-sort, feeding a
//!   **reusable** [`ProfileBuilder`]/profile buffer (no per-pass
//!   allocation);
//! * a **cached head reservation** plus the committed profile it lives in,
//!   kept alive across events and updated *in place*: a completion releases
//!   the finished job's remaining `[now, expected_end)` window
//!   ([`bsld_cluster::Profile::release_over`]), the stale reservation is
//!   released, the reservation is re-derived (it can only move earlier) and
//!   re-committed — no rebuild;
//! * **pass skipping** for arrival events that provably cannot change the
//!   schedule, and **batching** of same-instant arrivals (via the event
//!   queue's peek) into a single pass.
//!
//! A full rebuild only happens when the cache is genuinely invalidated: a
//! running job's *requested* end has been reached without its completion
//! event (same-instant ordering), a mid-run re-time (boost), a reservation
//! that starts "now" (contiguous-selection fragmentation), or a pass that
//! started the cached head.
//!
//! ## Pass-elision conditions
//!
//! Elision requires EASY mode with no trace collection and no boost, and
//! an elision-safe policy ([`crate::FrequencyPolicy::pass_elision_safe`])
//! — with or without backfilling, since batching changes the `wq_others`
//! a head decision sees. An arrival is then skipped (no pass at all) when
//! the queue was non-empty (so the head — which could not start at the
//! previous pass, and nothing has freed processors since — is unchanged)
//! and the arriving job needs more processors than are free, is declined
//! by `backfill_gear` against the cached committed profile, or backfilling
//! is off. Under the elision-safety contract every *older* queued job
//! keeps failing too (its wait only grew and the profile only weakened),
//! so outcomes are bit-identical to one full pass per event, which
//! `tests/reference_ab.rs` checks against a naive reference scheduler;
//! [`SimResult::stats`] exposes rebuild/skip counters.
//!
//! A [`PowerHook`] keeps elision until it first *intervenes*: it vetoes a
//! start, admits one below the proposed gear, or admits a start the engine
//! then declines (contiguous selection finds no block). Until then every
//! start happened as it would without the hook, and a skipped pass offers
//! the hook exactly the starts a full pass would: the arrival goes through
//! the same backfill path and `hook_admit`, and every older candidate fails
//! before it reaches the hook. From the first intervention on, the hook's
//! answers depend on power state the proof does not model (a deferred job
//! may be admitted after an arrival, a declined one re-offered once a
//! later start raised the draw), so every later event takes the full pass.
//! Same-instant arrivals are never batched under a hook: a larger batch
//! enlarges the `wq_others` that `admit_start` sees, which can open a soft
//! cap's escape hatch. `tests/hooked_elision.rs` checks hooked runs against
//! the same runs forced onto full passes.
//!
//! # Dynamic boost (paper future work)
//!
//! With [`BoostConfig`] enabled, whenever the wait queue is deeper than
//! `wq_limit` after a pass, every running job at a reduced gear is re-timed
//! to the top gear from "now" onwards. Completed work is converted through
//! the β model, a new completion event is scheduled (stale events are
//! invalidated by an epoch counter), and the gear change is recorded as a
//! new execution phase.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use bsld_cluster::{Cluster, ProcSet, ProcessorPool, Profile, ProfileBuilder, SelectionPolicy};
use bsld_model::{GearId, Job, JobId, JobOutcome, Phase};
use bsld_power::BetaModel;
use bsld_simkernel::{EventQueue, Time};

use crate::hook::PowerHook;
use crate::policy::{DecisionCtx, FrequencyPolicy};

/// The queueing discipline the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// EASY backfilling (the paper's substrate): one reservation for the
    /// queue head; other jobs backfill iff they cannot delay it.
    #[default]
    Easy,
    /// Conservative backfilling: *every* queued job holds a reservation
    /// (re-derived each event, in arrival order); a job starts early only
    /// into holes left by all earlier reservations. The classic
    /// lower-variance alternative to EASY, provided as an ablation
    /// substrate.
    Conservative,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Queueing discipline.
    pub mode: SchedMode,
    /// Enable backfilling (EASY step 3). `false` degrades EASY to plain
    /// FCFS with a head reservation — the ablation baseline. Ignored under
    /// [`SchedMode::Conservative`] (conservative *is* backfilling).
    pub backfill: bool,
    /// Resource selection policy: which processors a cleared job gets.
    pub selection: SelectionPolicy,
    /// Record a [`TraceEvent`] log of scheduling actions.
    pub collect_trace: bool,
    /// Enable the dynamic-boost extension.
    pub boost: Option<BoostConfig>,
    /// Cooperative-cancellation flag, polled once per event. When a caller
    /// raises it (e.g. a campaign cell's wall-time budget expired), the run
    /// returns [`SimError::Aborted`] at the next event instead of driving
    /// the workload to completion. `None` (the default) checks nothing.
    pub abort: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Deterministic trace sink (the `bsld-obs` trace plane): when set,
    /// the engine records structured sim-time events — arrivals, starts,
    /// finishes, pass outcomes (including elision), cap vetoes, retries,
    /// boosts — through it. Unlike [`EngineConfig::collect_trace`], a sink
    /// does *not* disable pass elision: skipped passes are themselves
    /// traced. `None` (the default) is a no-op: one branch per would-be
    /// event, no allocation.
    pub sink: Option<std::sync::Arc<dyn bsld_obs::TraceSink>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: SchedMode::Easy,
            backfill: true,
            selection: SelectionPolicy::FirstFit,
            collect_trace: false,
            boost: None,
            abort: None,
            sink: None,
        }
    }
}

/// Dynamic-boost extension parameters.
#[derive(Debug, Clone, Copy)]
pub struct BoostConfig {
    /// Boost running reduced jobs to the top gear whenever more than this
    /// many jobs are waiting after a scheduling pass.
    pub wq_limit: usize,
}

/// Scheduling actions, recorded when `collect_trace` is on.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A job began executing.
    Start {
        /// Time of the action.
        at: Time,
        /// The job.
        job: JobId,
        /// Assigned gear.
        gear: GearId,
        /// Whether the job started via backfilling (ahead of earlier
        /// arrivals).
        backfilled: bool,
        /// First processor index of the allocation (First Fit evidence).
        first_proc: u32,
    },
    /// A head-of-queue reservation was (re-)derived.
    Reserve {
        /// Time of the action.
        at: Time,
        /// The job holding the reservation.
        job: JobId,
        /// Reserved start time.
        start: Time,
        /// Gear the reservation was priced at.
        gear: GearId,
    },
    /// A job completed.
    Finish {
        /// Time of the action.
        at: Time,
        /// The job.
        job: JobId,
    },
    /// A running job was boosted to the top gear.
    Boost {
        /// Time of the action.
        at: Time,
        /// The job.
        job: JobId,
        /// Gear before the boost.
        from: GearId,
    },
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A job requests more processors than the machine has.
    JobTooLarge {
        /// The offending job.
        job: JobId,
        /// Processors requested.
        cpus: u32,
        /// Machine size.
        total: u32,
    },
    /// Jobs were not sorted by arrival time.
    ArrivalsNotSorted,
    /// The simulation ran out of events with jobs still waiting: a power
    /// hook vetoed every start and nothing is running whose completion
    /// could free budget — the configured power cap is infeasible for the
    /// workload.
    Stalled {
        /// Jobs left waiting when the event queue drained.
        waiting: usize,
    },
    /// The caller raised [`EngineConfig::abort`] mid-run (a wall-time
    /// budget expired, or the driver is shutting down); the partial state
    /// is discarded.
    Aborted,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::JobTooLarge { job, cpus, total } => {
                write!(f, "{job} requests {cpus} cpus but the machine has {total}")
            }
            SimError::ArrivalsNotSorted => write!(f, "jobs must be sorted by arrival time"),
            SimError::Stalled { waiting } => write!(
                f,
                "simulation stalled with {waiting} jobs waiting: the power cap admits no start"
            ),
            SimError::Aborted => write!(f, "simulation aborted by the caller"),
        }
    }
}

impl std::error::Error for SimError {}

/// Scheduling-pass statistics (diagnostics for the incremental engine).
///
/// Counter semantics: every *executed* pass increments `passes`; a pass
/// that rebuilt the availability profile from the running-jobs index also
/// increments `profile_rebuilds`; an event (or same-instant arrival batch)
/// whose pass was proven a no-op and skipped outright increments
/// `passes_skipped` and nothing else. Where pass elision is off (see the
/// module docs), `passes_skipped` stays 0 and every pass that reaches the
/// reservation step rebuilds. A hooked run counts as elided up to its
/// hook's first intervention and as unelided after it, and counts one pass
/// or skip per same-instant arrival where an unhooked run counts one per
/// batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Scheduling passes executed.
    pub passes: u64,
    /// Passes that rebuilt the availability profile from scratch.
    pub profile_rebuilds: u64,
    /// Events whose scheduling pass was provably a no-op and skipped.
    pub passes_skipped: u64,
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// One outcome per job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Completion time of the last job (simulation start is 0).
    pub makespan: Time,
    /// Scheduling-action log (when `collect_trace` was set).
    pub trace: Vec<TraceEvent>,
    /// Pass/rebuild/skip counters of the incremental engine.
    pub stats: PassStats,
}

enum Event {
    Arrive(JobId),
    Finish(JobId, u32),
    /// A no-op wake-up requested by the power hook: its power state will
    /// change autonomously at this instant (e.g. an idle sleep transition
    /// frees budget), so deferred starts deserve a fresh scheduling pass.
    PowerRetry,
}

struct RunningJob {
    cpus: u32,
    procs: ProcSet,
    start: Time,
    /// When the reservation bookkeeping expects the processors back
    /// (requested time, dilated to the current gear, from the current
    /// phase's start).
    expected_end: Time,
    /// Current gear.
    gear: GearId,
    /// Wall-clock start of the current phase.
    phase_start: Time,
    /// Completed phases before the current one.
    phases: Vec<Phase>,
    /// Top-frequency work-seconds completed before the current phase.
    work_done: f64,
    /// Requested-work-seconds budget consumed before the current phase
    /// (for re-deriving `expected_end` after a boost).
    requested_done: f64,
    /// Invalidates stale completion events after a re-time.
    epoch: u32,
}

/// The cached head-of-queue reservation (see the module docs): the window
/// committed into the live profile, remembered so later passes can release
/// and re-derive it in place.
#[derive(Debug, Clone, Copy)]
struct HeadReservation {
    head: JobId,
    start: Time,
    end: Time,
}

/// An in-flight simulation. Use [`simulate`] unless you need stepping.
pub struct Simulation<'a, P: FrequencyPolicy + ?Sized> {
    jobs: &'a [Job],
    policy: &'a P,
    time_model: &'a BetaModel,
    cfg: EngineConfig,
    top: GearId,
    hook: Option<&'a mut dyn PowerHook>,

    now: Time,
    /// The latest power-retry instant already scheduled (dedup guard).
    pending_retry: Option<Time>,
    events: EventQueue<Event>,
    pool: ProcessorPool,
    queue: VecDeque<JobId>,
    running: BTreeMap<JobId, RunningJob>,
    /// Sorted running-jobs index: expected (requested) end → cpus freed
    /// there. Rebuilding the profile is a merged in-order iteration of this
    /// map; completions/boosts keep it current.
    end_index: BTreeMap<Time, u32>,
    /// Reusable profile-construction buffers (no per-pass allocation).
    builder: ProfileBuilder,
    profile: Profile,
    /// The reservation currently committed into `profile`, if the cache is
    /// live.
    cache: Option<HeadReservation>,
    /// `(expected_end, cpus)` of the job completed by the current event,
    /// consumed by the next pass's in-place profile update.
    last_completion: Option<(Time, u32)>,
    /// Whether pass elision (cache + skip + batching) is permitted from
    /// here on; see the module docs for the exact conditions. Cleared for
    /// good at a power hook's first intervention.
    elide: bool,
    /// Scratch buffers reused across passes.
    scratch_candidates: Vec<JobId>,
    scratch_started: Vec<JobId>,
    outcomes: Vec<JobOutcome>,
    trace: Vec<TraceEvent>,
    stats: PassStats,
}

/// Runs `jobs` (sorted by arrival) on `cluster` under `policy`.
///
/// This is the whole-workload entry point used by every experiment.
pub fn simulate<P: FrequencyPolicy + ?Sized>(
    cluster: &Cluster,
    jobs: &[Job],
    policy: &P,
    time_model: &BetaModel,
    cfg: &EngineConfig,
) -> Result<SimResult, SimError> {
    Simulation::new(cluster, jobs, policy, time_model, cfg.clone())?.run()
}

/// Runs `jobs` on `cluster` under `policy` with a [`PowerHook`] observing
/// and gating every power-relevant decision (see `bsld-powercap`).
pub fn simulate_with_hook<P: FrequencyPolicy + ?Sized>(
    cluster: &Cluster,
    jobs: &[Job],
    policy: &P,
    time_model: &BetaModel,
    cfg: &EngineConfig,
    hook: &mut dyn PowerHook,
) -> Result<SimResult, SimError> {
    Simulation::new(cluster, jobs, policy, time_model, cfg.clone())?
        .with_hook(hook)
        .run()
}

impl<'a, P: FrequencyPolicy + ?Sized> Simulation<'a, P> {
    /// Validates inputs and prepares the event queue.
    pub fn new(
        cluster: &Cluster,
        jobs: &'a [Job],
        policy: &'a P,
        time_model: &'a BetaModel,
        cfg: EngineConfig,
    ) -> Result<Self, SimError> {
        for w in jobs.windows(2) {
            if w[1].arrival < w[0].arrival {
                return Err(SimError::ArrivalsNotSorted);
            }
        }
        for job in jobs {
            if job.cpus > cluster.cpus {
                return Err(SimError::JobTooLarge {
                    job: job.id,
                    cpus: job.cpus,
                    total: cluster.cpus,
                });
            }
        }
        let mut events = EventQueue::with_capacity(jobs.len() * 2);
        for job in jobs {
            events.push(job.arrival, Event::Arrive(job.id));
        }
        // Pass elision is only provably outcome-preserving under EASY with
        // no trace/boost and an elision-safe policy, with or without
        // backfilling: batching arrivals changes the head's `wq_others`.
        let elide = cfg.mode == SchedMode::Easy
            && !cfg.collect_trace
            && cfg.boost.is_none()
            && policy.pass_elision_safe();
        let pool = cluster.pool();
        Ok(Simulation {
            jobs,
            policy,
            time_model,
            cfg,
            top: time_model.gears().top(),
            hook: None,
            now: Time::ZERO,
            pending_retry: None,
            events,
            builder: ProfileBuilder::new(Time::ZERO, pool.total(), pool.total()),
            profile: Profile::flat(Time::ZERO, pool.total(), pool.total()),
            pool,
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            end_index: BTreeMap::new(),
            cache: None,
            last_completion: None,
            elide,
            scratch_candidates: Vec::new(),
            scratch_started: Vec::new(),
            outcomes: Vec::with_capacity(jobs.len()),
            trace: Vec::new(),
            stats: PassStats::default(),
        })
    }

    /// Attaches a [`PowerHook`] (builder style). The hook observes every
    /// start/completion/gear change and may veto or down-gear decisions.
    /// Pass elision stays on until the hook first intervenes, and
    /// same-instant arrivals are no longer batched (see the module docs).
    pub fn with_hook(mut self, hook: &'a mut dyn PowerHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Drives the event loop to completion.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let abort = self.cfg.abort.clone();
        let mut batch: Vec<JobId> = Vec::new();
        while let Some((t, ev)) = self.events.pop() {
            // One relaxed load per event — noise next to a scheduling
            // pass — buys prompt, deterministic cancellation: the run
            // never advances past the event at which the flag was seen.
            if let Some(flag) = &abort {
                if flag.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(SimError::Aborted);
                }
            }
            debug_assert!(t >= self.now, "event time went backwards");
            // Discard no-op events *before* advancing the hook's clock: a
            // stale Finish (from before a re-time) or an obsolete power
            // retry can sit later than the run's real makespan, and
            // advancing the ledger there would integrate energy past the
            // end of the run.
            match &ev {
                Event::Finish(id, epoch) => {
                    if self.running.get(id).is_none_or(|r| r.epoch != *epoch) {
                        continue;
                    }
                }
                Event::PowerRetry => {
                    // The wake-up is being delivered (or is obsolete):
                    // clear the dedup guard either way, so a hook that
                    // re-reports the same future instant is not swallowed
                    // by bookkeeping for an event that no longer exists.
                    if self.pending_retry == Some(t) {
                        self.pending_retry = None;
                    }
                    if self.queue.is_empty() {
                        continue;
                    }
                }
                Event::Arrive(_) => {}
            }
            self.now = t;
            if let Some(h) = self.hook.as_deref_mut() {
                h.on_time(t);
            }
            match ev {
                Event::Arrive(id) => {
                    self.queue.push_back(id);
                    self.emit(|| bsld_obs::TraceEvent::JobArrive {
                        t: t.as_micros(),
                        job: u64::from(id.0),
                    });
                    if self.elide {
                        // Batch-peek: workload arrivals are enqueued before
                        // any completion, so same-instant arrivals are
                        // delivered back to back; coalesce them into one
                        // pass (provably identical under elision without a
                        // hook — see the module docs).
                        batch.clear();
                        batch.push(id);
                        while self.hook.is_none()
                            && matches!(self.events.peek(), Some((t2, Event::Arrive(_))) if t2 == t)
                        {
                            match self.events.pop() {
                                Some((_, Event::Arrive(id2))) => {
                                    self.queue.push_back(id2);
                                    self.emit(|| bsld_obs::TraceEvent::JobArrive {
                                        t: t.as_micros(),
                                        job: u64::from(id2.0),
                                    });
                                    batch.push(id2);
                                }
                                _ => unreachable!("peeked arrival must pop"),
                            }
                        }
                        self.pass_after_arrivals(&batch);
                    } else {
                        self.schedule_pass();
                    }
                }
                Event::Finish(id, _) => {
                    self.complete(id);
                    self.schedule_pass();
                }
                Event::PowerRetry => {
                    self.emit(|| bsld_obs::TraceEvent::PowerRetry { t: t.as_micros() });
                    self.schedule_pass();
                }
            }
            self.maybe_boost();
            self.maybe_schedule_power_retry();
        }
        if !self.queue.is_empty() {
            // Only reachable when a power hook vetoes every start with
            // nothing running: the budget is infeasible for the workload.
            return Err(SimError::Stalled {
                waiting: self.queue.len(),
            });
        }
        debug_assert!(
            self.running.is_empty(),
            "jobs left running at end of simulation"
        );
        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.finish)
            .max()
            .unwrap_or(Time::ZERO);
        Ok(SimResult {
            outcomes: self.outcomes,
            makespan,
            trace: self.trace,
            stats: self.stats,
        })
    }

    /// The job record for `id`. Returns the `'a` workload lifetime (not
    /// tied to `&self`), so callers can keep the reference across mutable
    /// engine calls.
    fn job(&self, id: JobId) -> &'a Job {
        &self.jobs[id.index()]
    }

    /// Records a `bsld-obs` trace event on the configured sink. The
    /// closure defers event construction, so the disabled path (`sink =
    /// None`) costs one branch and allocates nothing.
    #[inline]
    fn emit(&self, ev: impl FnOnce() -> bsld_obs::TraceEvent) {
        if let Some(sink) = &self.cfg.sink {
            sink.record(ev());
        }
    }

    fn ctx<'b>(&'b self, job: &'b Job, wq_others: usize) -> DecisionCtx<'b> {
        DecisionCtx {
            now: self.now,
            job,
            wq_others,
            time_model: self.time_model,
        }
    }

    /// Schedules a wake-up at the hook's next autonomous power-state
    /// change while jobs wait. Without this, a start deferred on a fully
    /// idle machine would never be retried even though a pending sleep
    /// transition will lower draw below the budget — sleep transitions
    /// generate no job events of their own.
    fn maybe_schedule_power_retry(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let now = self.now;
        let Some(h) = self.hook.as_deref_mut() else {
            return;
        };
        let Some(at) = h.next_power_event(now) else {
            return;
        };
        if at <= now || self.pending_retry == Some(at) {
            return;
        }
        self.pending_retry = Some(at);
        self.events.push(at, Event::PowerRetry);
    }

    /// Tells the power hook (if any) that its last admission was not
    /// honored — the start it approved did not happen. That is an
    /// intervention: it ends pass elision.
    fn hook_declined(&mut self) {
        if let Some(h) = self.hook.as_deref_mut() {
            h.admission_declined();
            self.elide = false;
        }
    }

    /// Consults the power hook (if any) about starting `cpus` processors at
    /// `gear` right now. `None` means the start is deferred. Any answer but
    /// `Some(gear)` is an intervention: it ends pass elision.
    fn hook_admit(
        &mut self,
        cpus: u32,
        gear: GearId,
        wq_others: usize,
        head: bool,
    ) -> Option<GearId> {
        let now = self.now;
        let Some(h) = self.hook.as_deref_mut() else {
            return Some(gear);
        };
        let admitted = h.admit_start(now, cpus, gear, wq_others, head);
        debug_assert!(
            admitted.is_none_or(|g| g <= gear),
            "a power hook may only down-gear a start"
        );
        if admitted != Some(gear) {
            self.elide = false;
        }
        admitted
    }

    /// Attempts to start `id` right now at `gear` under the configured
    /// selection policy. Returns `false` (changing nothing) when the
    /// selection policy cannot serve the request — only possible with
    /// contiguous selection under fragmentation.
    fn try_start_job(&mut self, id: JobId, gear: GearId, backfilled: bool) -> bool {
        let job = &self.jobs[id.index()];
        let Some(procs) = self.pool.allocate(job.cpus, self.cfg.selection) else {
            return false;
        };
        let wall = self.time_model.dilate(job.runtime, job.beta, gear);
        let expected = self.time_model.dilate(job.requested, job.beta, gear);
        // Real traces contain jobs whose runtime exceeds the user estimate.
        // EASY's reservation bookkeeping treats the estimate as binding, so
        // an overrunning job is killed at its (dilated) requested time —
        // kill-at-request semantics, matching production batch systems.
        let wall = wall.min(expected);
        let finish_at = self.now + wall;
        self.events.push(finish_at, Event::Finish(id, 0));
        let first_proc = procs.first().unwrap_or(0);
        if self.cfg.collect_trace {
            self.trace.push(TraceEvent::Start {
                at: self.now,
                job: id,
                gear,
                backfilled,
                first_proc,
            });
        }
        self.emit(|| bsld_obs::TraceEvent::JobStart {
            t: self.now.as_micros(),
            job: u64::from(id.0),
            gear: u64::from(gear.0),
            cpus: u64::from(job.cpus),
            first_proc: u64::from(first_proc),
            backfilled,
        });
        let expected_end = self.now + expected;
        self.running.insert(
            id,
            RunningJob {
                cpus: job.cpus,
                procs,
                start: self.now,
                expected_end,
                gear,
                phase_start: self.now,
                phases: Vec::new(),
                work_done: 0.0,
                requested_done: 0.0,
                epoch: 0,
            },
        );
        *self.end_index.entry(expected_end).or_insert(0) += job.cpus;
        let now = self.now;
        if let Some(h) = self.hook.as_deref_mut() {
            h.on_job_start(now, job.cpus, gear);
        }
        true
    }

    /// Completes `id` at the current time.
    fn complete(&mut self, id: JobId) {
        let mut r = self
            .running
            .remove(&id)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("completion of a job that is not running");
        let first_proc = r.procs.first().unwrap_or(0);
        self.emit(|| bsld_obs::TraceEvent::JobFinish {
            t: self.now.as_micros(),
            job: u64::from(id.0),
            first_proc: u64::from(first_proc),
        });
        self.pool.release(&r.procs);
        self.end_index_remove(r.expected_end, r.cpus);
        // Remember the freed window: the next pass pulls the pending
        // release at `expected_end` forward to "now" in place instead of
        // rebuilding the profile.
        self.last_completion = Some((r.expected_end, r.cpus));
        let now = self.now;
        if let Some(h) = self.hook.as_deref_mut() {
            h.on_job_finish(now, r.cpus, r.gear);
        }
        let job = &self.jobs[id.index()];
        // Read before the last phase is pushed: with no earlier phase, the
        // job ran at `r.gear` throughout.
        let first_gear = r.phases.first().map_or(r.gear, |p| p.gear);
        let last_secs = self.now - r.phase_start;
        if last_secs > 0 || r.phases.is_empty() {
            r.phases.push(Phase {
                gear: r.gear,
                seconds: last_secs,
            });
        }
        let outcome = JobOutcome {
            id,
            cpus: job.cpus,
            arrival: job.arrival,
            start: r.start,
            finish: self.now,
            gear: first_gear,
            phases: r.phases,
            nominal_runtime: job.runtime,
            requested: job.requested,
        };
        debug_assert_eq!(outcome.validate(), Ok(()));
        if self.cfg.collect_trace {
            self.trace.push(TraceEvent::Finish {
                at: self.now,
                job: id,
            });
        }
        self.outcomes.push(outcome);
    }

    /// One scheduling pass under the configured discipline.
    fn schedule_pass(&mut self) {
        self.stats.passes += 1;
        let rebuilds_before = self.stats.profile_rebuilds;
        let running_before = self.running.len();
        match self.cfg.mode {
            SchedMode::Easy => self.schedule_pass_easy(),
            SchedMode::Conservative => self.schedule_pass_conservative(),
        }
        self.emit(|| bsld_obs::TraceEvent::Pass {
            t: self.now.as_micros(),
            pass: self.stats.passes + self.stats.passes_skipped,
            started: (self.running.len() - running_before) as u64,
            rebuilt: self.stats.profile_rebuilds > rebuilds_before,
            elided: false,
        });
    }

    /// Removes `cpus` freed at `at` from the sorted running-jobs index.
    fn end_index_remove(&mut self, at: Time, cpus: u32) {
        let entry = self
            .end_index
            .get_mut(&at)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("end_index entry for a running job");
        *entry -= cpus;
        if *entry == 0 {
            self.end_index.remove(&at);
        }
    }

    /// The cached head reservation, if the committed profile may serve the
    /// current instant: the cache is live, the reservation still lies in
    /// the future (a reservation "now" — contiguous-selection fragmentation
    /// — must be re-derived because it would drift as time advances), and
    /// no running job's requested end has been reached (such a release
    /// would need to be pushed to `now + 1`, which only a rebuild does).
    fn cache_usable(&self) -> Option<HeadReservation> {
        self.cache.filter(|c| {
            c.start > self.now
                && self
                    .end_index
                    .keys()
                    .next()
                    .is_none_or(|&first| first > self.now)
        })
    }

    /// Rebuilds the availability profile from the sorted running-jobs
    /// index into the reusable buffer.
    fn rebuild_profile(&mut self) {
        self.stats.profile_rebuilds += 1;
        self.builder
            .reset(self.now, self.pool.total(), self.pool.free_count());
        // A job whose expected end is at or before `now` is still
        // physically running (its completion event sits later in this
        // instant's event batch), so its processors become available
        // strictly after `now`.
        let floor = self.now + 1;
        for (&t, &cpus) in &self.end_index {
            self.builder.release(t.max(floor), cpus);
        }
        self.builder.build_into(&mut self.profile);
    }

    /// Removes `started` — a subsequence of the queue in queue order — in
    /// one O(queue) sweep.
    fn remove_started(&mut self, started: &[JobId]) {
        if started.is_empty() {
            return;
        }
        let mut next = 0;
        self.queue.retain(|&id| {
            if next < started.len() && id == started[next] {
                next += 1;
                false
            } else {
                true
            }
        });
        debug_assert_eq!(next, started.len(), "every started job was queued");
    }

    /// Handles a batch of same-instant arrivals (a single arrival under a
    /// power hook) under pass elision: skip the pass when provably a no-op,
    /// evaluate only the new jobs against the cached committed profile when
    /// possible, and fall back to a full pass otherwise. See the module
    /// docs for the safety argument.
    fn pass_after_arrivals(&mut self, batch: &[JobId]) {
        debug_assert!(self.elide);
        let prev_len = self.queue.len() - batch.len();
        if prev_len == 0 {
            // The new head may be able to start immediately: full pass
            // (which also re-establishes the cache).
            self.schedule_pass();
            return;
        }
        // The head is unchanged and still cannot start: nothing has freed
        // processors since the pass that left it queued (and a hook that
        // had vetoed it would have ended elision).
        if !self.cfg.backfill {
            // Without backfilling, an arrival behind a blocked head is
            // inert (the reservation is bookkeeping only).
            self.stats.passes_skipped += 1;
            self.emit(|| bsld_obs::TraceEvent::Pass {
                t: self.now.as_micros(),
                pass: self.stats.passes + self.stats.passes_skipped,
                started: 0,
                rebuilt: false,
                elided: true,
            });
            return;
        }
        if self.cache_usable().is_none() {
            self.schedule_pass();
            return;
        }
        debug_assert_eq!(
            self.cache.map(|c| c.head),
            self.queue.front().copied(),
            "live cache must describe the current head"
        );
        self.profile.advance_origin(self.now);
        // Evaluate only the new arrivals; every older candidate failed
        // against a profile that was no stronger and a wait that was no
        // longer, so by the elision-safety contract it keeps failing.
        let mut started = std::mem::take(&mut self.scratch_started);
        started.clear();
        self.backfill(batch, &mut started);
        if started.is_empty() {
            self.stats.passes_skipped += 1;
            self.emit(|| bsld_obs::TraceEvent::Pass {
                t: self.now.as_micros(),
                pass: self.stats.passes + self.stats.passes_skipped,
                started: 0,
                rebuilt: false,
                elided: true,
            });
        } else {
            self.stats.passes += 1;
            self.remove_started(&started);
            self.debug_check_profile();
            self.emit(|| bsld_obs::TraceEvent::Pass {
                t: self.now.as_micros(),
                pass: self.stats.passes + self.stats.passes_skipped,
                started: started.len() as u64,
                rebuilt: false,
                elided: false,
            });
        }
        started.clear();
        self.scratch_started = started;
    }

    /// Debug-build parity check: the incrementally maintained committed
    /// profile must be extensionally equal (for `t >= now`) to a fresh
    /// rebuild plus the cached reservation, and no longer than that
    /// rebuild can be: the origin, one step per distinct requested end and
    /// the reservation's two edges. The profile's queries scan its
    /// segments, so this bound keeps them O(running jobs), never
    /// O(history).
    #[cfg(debug_assertions)]
    fn debug_check_profile(&self) {
        let Some(c) = &self.cache else { return };
        debug_assert!(
            self.profile.segments().len() <= self.end_index.len() + 3,
            "committed profile has {} segments for {} distinct requested ends: {:?}",
            self.profile.segments().len(),
            self.end_index.len(),
            self.profile.segments(),
        );
        let mut b = ProfileBuilder::new(self.now, self.pool.total(), self.pool.free_count());
        let floor = self.now + 1;
        for (&t, &cpus) in &self.end_index {
            b.release(t.max(floor), cpus);
        }
        let mut fresh = b.build();
        fresh
            .commit(c.start, c.end, self.jobs[c.head.index()].cpus)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("cached reservation must fit a fresh profile");
        let points = std::iter::once(self.now)
            .chain(fresh.segments().iter().map(|&(t, _)| t))
            .chain(self.profile.segments().iter().map(|&(t, _)| t))
            .filter(|&t| t >= self.now);
        for t in points {
            debug_assert_eq!(
                self.profile.available_at(t),
                fresh.available_at(t),
                "incremental profile diverged at {t:?}\nnow={:?}\ncache={:?}\nincr={:?}\nfresh={:?}\nend_index={:?}",
                self.now,
                c,
                self.profile.segments(),
                fresh.segments(),
                self.end_index,
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_profile(&self) {}

    /// One EASY scheduling pass (see module docs).
    fn schedule_pass_easy(&mut self) {
        // Take the completion delta recorded by `complete` (if this pass
        // was triggered by one); it feeds the in-place profile update.
        let completion = self.last_completion.take();
        // Decide up front whether this pass may update the cached profile
        // in place; the guard must be evaluated before step 1 mutates the
        // pool (new running jobs always end strictly after `now`, so the
        // verdict stays valid through the pass). A job that completed
        // exactly at its expected end needs a rebuild: its pending release
        // may sit floored at `now + 1` (same-instant rebuild) while the
        // freed processors belong in the present.
        let cached = self.cache_usable().filter(|_| {
            self.elide && completion.is_none_or(|(expected_end, _)| expected_end > self.now)
        });
        let in_place = cached.is_some();
        // The reservation is re-derived below, in place or by a rebuild.
        self.cache = None;
        if let Some(c) = cached {
            // Drop fully-elapsed history so the profile stays proportional
            // to the number of running jobs, then release the stale
            // reservation and pull the completed job's pending release
            // forward to the present.
            self.profile.advance_origin(self.now);
            self.profile
                .release_over(c.start, c.end, self.jobs[c.head.index()].cpus)
                // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                .expect("cached reservation lies within the profile");
            if let Some((expected_end, cpus)) = completion {
                self.profile
                    .release_over(self.now, expected_end, cpus)
                    // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                    .expect("completed job's window lies within the profile");
            }
        }

        // Step 1: start head jobs that fit right now.
        while let Some(&head) = self.queue.front() {
            let job = self.job(head);
            if !self.pool.can_allocate(job.cpus, self.cfg.selection) {
                break;
            }
            let wq_others = self.queue.len() - 1;
            let gear = {
                let ctx = self.ctx(job, wq_others);
                self.policy.head_gear(&ctx, self.now)
            };
            // The power hook may down-gear the start or defer the head
            // entirely (it will be retried at the next event, when a
            // completion may have freed budget).
            let Some(gear) = self.hook_admit(job.cpus, gear, wq_others, true) else {
                self.emit(|| bsld_obs::TraceEvent::CapVeto {
                    t: self.now.as_micros(),
                    job: u64::from(head.0),
                    site: bsld_obs::VetoSite::Head,
                });
                break;
            };
            self.queue.pop_front();
            let ok = self.try_start_job(head, gear, false);
            debug_assert!(ok, "can_allocate promised the head would fit");
            if in_place {
                // Mirror the start into the live profile: busy until the
                // job's expected (requested) end, exactly what a rebuild
                // would derive.
                let end = self.running[&head].expected_end;
                self.profile
                    .commit(self.now, end, job.cpus)
                    // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                    .expect("started job's window fits the profile");
            }
        }
        let Some(&head) = self.queue.front() else {
            self.cache = None;
            return;
        };

        if !self.cfg.backfill && !self.cfg.collect_trace {
            // Without backfilling the reservation constrains nothing (the
            // head's actual start happens in step 1 of a later pass), so
            // deriving it would be bookkeeping for no observer.
            self.cache = None;
            return;
        }

        // Step 2: reserve for the head on the profile of running jobs.
        if !in_place {
            self.rebuild_profile();
        }
        let head_job = self.job(head);
        let res_start = self
            .profile
            .earliest_fit(head_job.cpus, 1, self.now)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("head job fits an empty machine");
        // Under count-complete selection policies step 1 already started
        // every head that fits now. Contiguous selection can be blocked by
        // fragmentation even when the count fits, in which case the
        // (count-based) reservation legitimately starts "now" and the head
        // retries at the next completion event.
        debug_assert!(
            res_start > self.now
                || self.cfg.selection == SelectionPolicy::ContiguousFirstFit
                || self.hook.is_some(),
            "head start now is handled in step 1"
        );
        let wq_others = self.queue.len() - 1;
        let res_gear = {
            let ctx = self.ctx(head_job, wq_others);
            self.policy.head_gear(&ctx, res_start)
        };
        let res_dur = self
            .time_model
            .dilate(head_job.requested, head_job.beta, res_gear);
        let res_end = res_start.saturating_add(res_dur);
        self.profile
            .commit(res_start, res_end, head_job.cpus)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("reservation fits by construction");
        if self.elide {
            self.cache = Some(HeadReservation {
                head,
                start: res_start,
                end: res_end,
            });
        }
        if self.cfg.collect_trace {
            self.trace.push(TraceEvent::Reserve {
                at: self.now,
                job: head,
                start: res_start,
                gear: res_gear,
            });
        }

        if !self.cfg.backfill {
            return;
        }

        // Step 3: backfill the rest of the queue in arrival order.
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend(self.queue.iter().skip(1).copied());
        let mut started = std::mem::take(&mut self.scratch_started);
        started.clear();
        self.backfill(&candidates, &mut started);
        self.remove_started(&started);
        if in_place {
            self.debug_check_profile();
        }
        candidates.clear();
        started.clear();
        self.scratch_candidates = candidates;
        self.scratch_started = started;
    }

    /// EASY step 3 over `candidates` (queued jobs, in queue order, behind
    /// the reserved head): each one that fits the free processors is
    /// offered to the policy against the committed profile and then to the
    /// power hook; jobs that start are committed into the profile and
    /// appended to `started`. Full passes and skipped-pass arrivals share
    /// it, so the hook sees the same admissions either way.
    fn backfill(&mut self, candidates: &[JobId], started: &mut Vec<JobId>) {
        for &id in candidates {
            let job = self.job(id);
            // Most candidates fail here (the queue is deep, the machine
            // full), so the width check stays ahead of every other cost.
            if job.cpus > self.pool.free_count() {
                continue;
            }
            let wq_others = self.queue.len() - 1 - started.len();
            let chosen = {
                let ctx = self.ctx(job, wq_others);
                let tm = self.time_model;
                let now = self.now;
                let profile_ref = &self.profile;
                let mut fits = |gear: GearId| {
                    let dur = tm.dilate(job.requested, job.beta, gear);
                    profile_ref.can_fit(now, job.cpus, dur)
                };
                self.policy.backfill_gear(&ctx, &mut fits)
            };
            if let Some(gear) = chosen {
                let Some(admitted) = self.hook_admit(job.cpus, gear, wq_others, false) else {
                    self.emit(|| bsld_obs::TraceEvent::CapVeto {
                        t: self.now.as_micros(),
                        job: u64::from(id.0),
                        site: bsld_obs::VetoSite::Backfill,
                    });
                    continue;
                };
                if admitted != gear {
                    // A down-geared backfill runs longer; it must still fit
                    // in front of the reservation or the job stays queued.
                    let dur = self.time_model.dilate(job.requested, job.beta, admitted);
                    if !self.profile.can_fit(self.now, job.cpus, dur) {
                        self.hook_declined();
                        self.emit(|| bsld_obs::TraceEvent::CapVeto {
                            t: self.now.as_micros(),
                            job: u64::from(id.0),
                            site: bsld_obs::VetoSite::Backfill,
                        });
                        continue;
                    }
                }
                if self.try_start_job(id, admitted, true) {
                    let dur = self.time_model.dilate(job.requested, job.beta, admitted);
                    self.profile
                        .commit(self.now, self.now.saturating_add(dur), job.cpus)
                        // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                        .expect("policy returned a gear that does not fit");
                    started.push(id);
                } else {
                    self.hook_declined();
                }
            }
        }
    }

    /// One conservative-backfilling pass: every queued job receives an
    /// earliest-fit reservation in arrival order (duration-aware per gear,
    /// via [`FrequencyPolicy::reserve_gear`]); jobs whose reservation
    /// starts now begin executing. Conservative passes always rebuild the
    /// profile (every queued job's reservation depends on every other), but
    /// share the incremental engine's sorted index, reusable buffers and
    /// O(queue) removal.
    fn schedule_pass_conservative(&mut self) {
        self.last_completion = None;
        self.rebuild_profile();

        let mut snapshot = std::mem::take(&mut self.scratch_candidates);
        snapshot.clear();
        snapshot.extend(self.queue.iter().copied());
        let mut started = std::mem::take(&mut self.scratch_started);
        started.clear();
        let mut earlier_still_waiting = false;
        for &id in &snapshot {
            let job = self.job(id);
            let wq_others = self.queue.len() - 1 - started.len();
            let (gear, start) = {
                let ctx = self.ctx(job, wq_others);
                let tm = self.time_model;
                let now = self.now;
                let profile_ref = &self.profile;
                let mut find_start = |g: GearId| {
                    let dur = tm.dilate(job.requested, job.beta, g);
                    profile_ref
                        .earliest_fit(job.cpus, dur, now)
                        // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                        .expect("every job fits an empty machine eventually")
                };
                self.policy.reserve_gear(&ctx, &mut find_start)
            };
            // The power hook may defer a start-now decision; the job keeps
            // its reservation (committed below) and is retried next event.
            // A down-geared admission runs longer than the window priced at
            // `gear`, so it is honored only if the longer window still fits
            // the committed profile; otherwise the job waits at its
            // original reservation.
            let admitted = if start == self.now {
                match self.hook_admit(job.cpus, gear, wq_others, !earlier_still_waiting) {
                    Some(g) if g == gear => Some(g),
                    Some(g) => {
                        let dur = self.time_model.dilate(job.requested, job.beta, g);
                        if self.profile.can_fit(self.now, job.cpus, dur) {
                            Some(g)
                        } else {
                            self.hook_declined();
                            self.emit(|| bsld_obs::TraceEvent::CapVeto {
                                t: self.now.as_micros(),
                                job: u64::from(id.0),
                                site: bsld_obs::VetoSite::Conservative,
                            });
                            None
                        }
                    }
                    None => {
                        self.emit(|| bsld_obs::TraceEvent::CapVeto {
                            t: self.now.as_micros(),
                            job: u64::from(id.0),
                            site: bsld_obs::VetoSite::Conservative,
                        });
                        None
                    }
                }
            } else {
                None
            };
            let started_gear = match admitted {
                Some(g) => {
                    let ok = self.try_start_job(id, g, earlier_still_waiting);
                    if !ok {
                        self.hook_declined();
                    }
                    ok.then_some(g)
                }
                None => None,
            };
            let commit_gear = started_gear.unwrap_or(gear);
            let dur = self.time_model.dilate(job.requested, job.beta, commit_gear);
            self.profile
                .commit(start, start.saturating_add(dur), job.cpus)
                // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
                .expect("reserve_gear start came from earliest_fit");
            if started_gear.is_some() {
                started.push(id);
            } else {
                earlier_still_waiting = true;
                if self.cfg.collect_trace {
                    self.trace.push(TraceEvent::Reserve {
                        at: self.now,
                        job: id,
                        start,
                        gear,
                    });
                }
            }
        }
        self.remove_started(&started);
        snapshot.clear();
        started.clear();
        self.scratch_candidates = snapshot;
        self.scratch_started = started;
    }

    /// Dynamic-boost extension: re-time running reduced jobs to the top
    /// gear when the queue is too deep.
    fn maybe_boost(&mut self) {
        let Some(boost) = self.cfg.boost else {
            return;
        };
        if self.queue.len() <= boost.wq_limit {
            return;
        }
        let ids: Vec<(JobId, GearId, u32)> = self
            .running
            .iter()
            .filter(|(_, r)| r.gear < self.top)
            .map(|(&id, r)| (id, r.gear, r.cpus))
            .collect();
        for (id, from, cpus) in ids {
            let now = self.now;
            let top = self.top;
            if let Some(h) = self.hook.as_deref_mut() {
                // A boost raises draw; the power hook may veto it.
                if !h.admit_gear_change(now, cpus, from, top) {
                    self.emit(|| bsld_obs::TraceEvent::BoostVeto {
                        t: now.as_micros(),
                        job: u64::from(id.0),
                    });
                    continue;
                }
            }
            self.retime_to(id, top);
            if self.cfg.collect_trace {
                self.trace.push(TraceEvent::Boost {
                    at: self.now,
                    job: id,
                    from,
                });
            }
            self.emit(|| bsld_obs::TraceEvent::Boost {
                t: now.as_micros(),
                job: u64::from(id.0),
                gear: u64::from(top.0),
            });
        }
    }

    /// Switches running job `id` to `gear` at the current instant,
    /// converting completed work through the β model and rescheduling its
    /// completion event.
    fn retime_to(&mut self, id: JobId, gear: GearId) {
        let job = &self.jobs[id.index()];
        let r = self
            .running
            .get_mut(&id)
            // audit:allow(R1): scheduler state invariant; the expect message states it, and the determinism suite exercises these paths
            .expect("retime of a job that is not running");
        if r.gear == gear {
            return;
        }
        let elapsed = self.now - r.phase_start;
        let coef_old = self.time_model.coef(job.beta, r.gear);
        r.work_done += elapsed as f64 / coef_old;
        r.requested_done += elapsed as f64 / coef_old;
        if elapsed > 0 {
            r.phases.push(Phase {
                gear: r.gear,
                seconds: elapsed,
            });
        }
        let remaining_work = (job.runtime as f64 - r.work_done).max(0.0);
        let remaining_requested = (job.requested as f64 - r.requested_done).max(remaining_work);
        let wall = self
            .time_model
            .wall_for_work(remaining_work, job.beta, gear)
            .max(1);
        let expected_wall = self
            .time_model
            .wall_for_work(remaining_requested, job.beta, gear)
            .max(wall);
        let from = r.gear;
        let cpus = r.cpus;
        let old_expected_end = r.expected_end;
        r.gear = gear;
        r.phase_start = self.now;
        r.expected_end = self.now + expected_wall;
        r.epoch += 1;
        let epoch = r.epoch;
        let new_expected_end = r.expected_end;
        self.end_index_remove(old_expected_end, cpus);
        *self.end_index.entry(new_expected_end).or_insert(0) += cpus;
        // A re-time moves the job's pending release; the cached profile no
        // longer matches (boost disables elision, but stay defensive).
        self.cache = None;
        self.events.push(self.now + wall, Event::Finish(id, epoch));
        let now = self.now;
        if let Some(h) = self.hook.as_deref_mut() {
            h.on_gear_change(now, cpus, from, gear);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedGearPolicy;
    use bsld_cluster::GearSet;

    fn cluster(cpus: u32) -> Cluster {
        Cluster::new("test", cpus, GearSet::paper())
    }

    fn tm() -> BetaModel {
        BetaModel::new(GearSet::paper())
    }

    fn top_policy() -> FixedGearPolicy {
        FixedGearPolicy::new(GearSet::paper().top())
    }

    /// j(id, arrival, cpus, runtime, requested)
    fn j(id: u32, arrival: u64, cpus: u32, runtime: u64, requested: u64) -> Job {
        Job::new(id, Time(arrival), cpus, runtime, requested)
    }

    fn run(cluster_cpus: u32, jobs: &[Job]) -> SimResult {
        let tm = tm();
        simulate(
            &cluster(cluster_cpus),
            jobs,
            &top_policy(),
            &tm,
            &EngineConfig {
                collect_trace: true,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn start_of(res: &SimResult, id: u32) -> Time {
        res.outcomes
            .iter()
            .find(|o| o.id == JobId(id))
            .unwrap()
            .start
    }

    #[test]
    fn single_job_starts_immediately() {
        let res = run(4, &[j(0, 10, 4, 100, 200)]);
        assert_eq!(res.outcomes.len(), 1);
        let o = &res.outcomes[0];
        assert_eq!(o.start, Time(10));
        assert_eq!(o.finish, Time(110));
        assert_eq!(res.makespan, Time(110));
    }

    #[test]
    fn fcfs_order_without_contention() {
        let jobs = vec![j(0, 0, 2, 100, 100), j(1, 5, 2, 100, 100)];
        let res = run(4, &jobs);
        assert_eq!(start_of(&res, 0), Time(0));
        assert_eq!(start_of(&res, 1), Time(5));
    }

    #[test]
    fn backfill_short_job_around_reservation() {
        // 4 cpus. J0 takes 3 cpus until t=100. J1 (head) needs 4 → reserved
        // at t=100. J2 (1 cpu, 50 s) fits before the reservation → backfills
        // at t=2. J3 (1 cpu, 200 s) would delay the reservation → waits.
        let jobs = vec![
            j(0, 0, 3, 100, 100),
            j(1, 1, 4, 100, 100),
            j(2, 2, 1, 50, 50),
            j(3, 3, 1, 200, 200),
        ];
        let res = run(4, &jobs);
        assert_eq!(start_of(&res, 0), Time(0));
        assert_eq!(start_of(&res, 1), Time(100));
        assert_eq!(start_of(&res, 2), Time(2), "J2 must backfill");
        assert_eq!(start_of(&res, 3), Time(200), "J3 must wait for the head");
        let backfilled: Vec<bool> = res
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Start {
                    job, backfilled, ..
                } if *job == JobId(2) => Some(*backfilled),
                _ => None,
            })
            .collect();
        assert_eq!(backfilled, vec![true]);
    }

    #[test]
    fn no_backfill_config_degrades_to_fcfs() {
        let jobs = vec![
            j(0, 0, 3, 100, 100),
            j(1, 1, 4, 100, 100),
            j(2, 2, 1, 50, 50),
        ];
        let tmm = tm();
        let res = simulate(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                backfill: false,
                ..Default::default()
            },
        )
        .unwrap();
        let s2 = res
            .outcomes
            .iter()
            .find(|o| o.id == JobId(2))
            .unwrap()
            .start;
        assert_eq!(s2, Time(200), "without backfilling J2 waits behind J1");
    }

    #[test]
    fn backfill_crossing_shadow_on_extra_processors() {
        // 4 cpus. J0 holds 2 until t=100. J1 (head, 3 cpus) reserved at 100.
        // J2 (1 cpu, 500 s) crosses the shadow time but uses the processor
        // the reservation leaves spare → must backfill at its arrival.
        let jobs = vec![
            j(0, 0, 2, 100, 100),
            j(1, 1, 3, 100, 100),
            j(2, 2, 1, 500, 500),
        ];
        let res = run(4, &jobs);
        assert_eq!(start_of(&res, 1), Time(100));
        assert_eq!(start_of(&res, 2), Time(2));
    }

    #[test]
    fn early_finish_reschedules_queue() {
        // J0 requests 1000 s but runs 10 s; J1 starts at t=10, not t=1000.
        let jobs = vec![j(0, 0, 4, 10, 1000), j(1, 1, 4, 50, 50)];
        let res = run(4, &jobs);
        assert_eq!(start_of(&res, 1), Time(10));
    }

    #[test]
    fn easy_guarantee_backfill_never_delays_head() {
        // Adversarial mix of backfill candidates; the head's start must
        // equal its start when backfilling is disabled.
        let jobs = vec![
            j(0, 0, 5, 100, 120),
            j(1, 1, 8, 200, 250), // head once J0 runs
            j(2, 2, 2, 40, 60),
            j(3, 3, 3, 90, 100),
            j(4, 4, 1, 500, 700),
            j(5, 5, 2, 10, 20),
        ];
        let tmm = tm();
        let with_bf = run(8, &jobs);
        let without_bf = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                backfill: false,
                ..Default::default()
            },
        )
        .unwrap();
        let head_with = with_bf
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .start;
        let head_without = without_bf
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .start;
        assert!(
            head_with <= head_without,
            "backfilling delayed the head: {head_with:?} > {head_without:?}"
        );
    }

    #[test]
    fn first_fit_takes_lowest_processors() {
        let jobs = vec![j(0, 0, 3, 100, 100), j(1, 0, 2, 100, 100)];
        let res = run(8, &jobs);
        let firsts: Vec<u32> = res
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Start { first_proc, .. } => Some(*first_proc),
                _ => None,
            })
            .collect();
        assert_eq!(firsts, vec![0, 3]);
    }

    #[test]
    fn simultaneous_finishes_are_deterministic() {
        let jobs = vec![
            j(0, 0, 2, 100, 100),
            j(1, 0, 2, 100, 100),
            j(2, 1, 4, 50, 50),
        ];
        let a = run(4, &jobs);
        let b = run(4, &jobs);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(start_of(&a, 2), Time(100));
    }

    #[test]
    fn rejects_oversize_job() {
        let tmm = tm();
        let err = simulate(
            &cluster(4),
            &[j(0, 0, 5, 10, 10)],
            &top_policy(),
            &tmm,
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::JobTooLarge {
                job: JobId(0),
                cpus: 5,
                total: 4
            }
        );
        assert!(err.to_string().contains("5 cpus"));
    }

    #[test]
    fn rejects_unsorted_arrivals() {
        let tmm = tm();
        let err = simulate(
            &cluster(4),
            &[j(0, 10, 1, 10, 10), j(1, 5, 1, 10, 10)],
            &top_policy(),
            &tmm,
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::ArrivalsNotSorted);
    }

    #[test]
    fn reduced_gear_dilates_runtime() {
        // Pin everything to the lowest gear: runtimes stretch by Coef(0.8).
        let tmm = tm();
        let low = FixedGearPolicy::new(GearId(0));
        let res = simulate(
            &cluster(4),
            &[j(0, 0, 4, 1000, 1000)],
            &low,
            &tmm,
            &EngineConfig::default(),
        )
        .unwrap();
        let o = &res.outcomes[0];
        assert_eq!(o.penalized_runtime(), tmm.dilate(1000, 0.5, GearId(0)));
        assert_eq!(o.gear, GearId(0));
        assert!(o.was_reduced(GearSet::paper().top()));
    }

    #[test]
    fn boost_retimes_running_reduced_job() {
        // One reduced job running alone; then a burst of arrivals deepens
        // the queue past wq_limit=0 and triggers a boost.
        let tmm = tm();
        let low = FixedGearPolicy::new(GearId(0));
        let jobs = vec![
            j(0, 0, 4, 1000, 1000),
            // Two arrivals at t=500 → queue depth 2 > 0 after the pass
            // (neither fits while J0 holds the machine).
            j(1, 500, 4, 10, 10),
            j(2, 500, 4, 10, 10),
        ];
        let res = simulate(
            &cluster(4),
            &jobs,
            &low,
            &tmm,
            &EngineConfig {
                boost: Some(BoostConfig { wq_limit: 1 }),
                collect_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        let o0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(
            o0.phases.len(),
            2,
            "boost must split execution into two phases"
        );
        assert_eq!(o0.phases[0].gear, GearId(0));
        assert_eq!(o0.phases[1].gear, GearSet::paper().top());
        // Boosted at t=500: 500 wall s at Coef≈1.9375 ⇒ ≈258 work-s done;
        // remaining ≈742 work-s at top ⇒ finish ≈ 500+742, well before the
        // un-boosted 1937.
        assert!(
            o0.finish < Time(1937),
            "boost must shorten the job: {:?}",
            o0.finish
        );
        assert!(res
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Boost { job, .. } if *job == JobId(0))));
        o0.validate().unwrap();
    }

    #[test]
    fn boost_does_not_fire_below_limit() {
        let tmm = tm();
        let low = FixedGearPolicy::new(GearId(0));
        let jobs = vec![j(0, 0, 4, 1000, 1000), j(1, 500, 4, 10, 10)];
        let res = simulate(
            &cluster(4),
            &jobs,
            &low,
            &tmm,
            &EngineConfig {
                boost: Some(BoostConfig { wq_limit: 1 }),
                collect_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        let o0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(o0.phases.len(), 1, "queue depth 1 must not trigger a boost");
    }

    #[test]
    fn conservative_protects_queued_reservations() {
        // 4 cpus. J0 (2 cpus) runs [0,100). J1 (3 cpus) is the head,
        // reserved [100,200). J2 (4 cpus) queues behind; J3 (1 cpu, 250 s)
        // arrives last.
        //
        // EASY backfills J3 immediately (it cannot delay the *head*), which
        // pushes J2 from 200 to 253. Conservative gives J2 its own
        // reservation at [200,300), so J3 must wait until 300.
        let jobs = vec![
            j(0, 0, 2, 100, 100),
            j(1, 1, 3, 100, 100),
            j(2, 2, 4, 100, 100),
            j(3, 3, 1, 250, 250),
        ];
        let tmm = tm();
        let easy = run(4, &jobs);
        let cons = simulate(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                collect_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(start_of(&easy, 3), Time(3), "EASY backfills the small job");
        assert_eq!(
            start_of(&easy, 2),
            Time(253),
            "EASY delays the queued wide job"
        );
        let cons_start = |id: u32| {
            cons.outcomes
                .iter()
                .find(|o| o.id == JobId(id))
                .unwrap()
                .start
        };
        assert_eq!(
            cons_start(2),
            Time(200),
            "conservative protects J2's reservation"
        );
        assert_eq!(
            cons_start(3),
            Time(300),
            "conservative delays the small job"
        );
        crate::validate::validate_schedule(&cons.outcomes, 4).unwrap();
    }

    #[test]
    fn conservative_matches_easy_on_contention_free_load() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| j(i, (i as u64) * 500, 2, 100, 150))
            .collect();
        let tmm = tm();
        let easy = run(8, &jobs);
        let cons = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                ..Default::default()
            },
        )
        .unwrap();
        for o in &easy.outcomes {
            let c = cons.outcomes.iter().find(|x| x.id == o.id).unwrap();
            assert_eq!(o.start, c.start, "{}: no queueing ⇒ same schedule", o.id);
        }
    }

    #[test]
    fn conservative_reschedules_on_early_finish() {
        let jobs = vec![j(0, 0, 4, 10, 1000), j(1, 1, 4, 50, 50)];
        let tmm = tm();
        let res = simulate(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                ..Default::default()
            },
        )
        .unwrap();
        let s1 = res
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .start;
        assert_eq!(
            s1,
            Time(10),
            "reservations must be re-derived on early completion"
        );
    }

    #[test]
    fn contiguous_selection_fragmentation_delays_jobs() {
        // 4 cpus. Long jobs pin processors 0 and 2; short jobs hold 1 and 3
        // until t=10. At t=10 two processors are free but not adjacent:
        // First Fit starts the 2-cpu job at 10, contiguous selection must
        // wait for the long jobs to finish at t=1000.
        let jobs = vec![
            j(0, 0, 1, 1000, 1000), // proc 0
            j(1, 0, 1, 10, 10),     // proc 1
            j(2, 0, 1, 1000, 1000), // proc 2
            j(3, 0, 1, 10, 10),     // proc 3
            j(4, 5, 2, 20, 20),     // needs two processors
        ];
        let tmm = tm();
        let ff = run(4, &jobs);
        assert_eq!(start_of(&ff, 4), Time(10));
        let contig = simulate(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                selection: SelectionPolicy::ContiguousFirstFit,
                collect_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        let s4 = contig
            .outcomes
            .iter()
            .find(|o| o.id == JobId(4))
            .unwrap()
            .start;
        assert_eq!(
            s4,
            Time(1000),
            "fragmentation must block contiguous selection"
        );
        crate::validate::validate_schedule(&contig.outcomes, 4).unwrap();
        // The allocation it finally gets is one contiguous range.
        let first_procs: Vec<u32> = contig
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Start {
                    job, first_proc, ..
                } if *job == JobId(4) => Some(*first_proc),
                _ => None,
            })
            .collect();
        assert_eq!(first_procs.len(), 1);
    }

    #[test]
    fn last_fit_selection_allocates_from_the_top() {
        let jobs = vec![j(0, 0, 2, 10, 10)];
        let tmm = tm();
        let res = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                selection: SelectionPolicy::LastFit,
                collect_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        let first = res
            .trace
            .iter()
            .find_map(|e| match e {
                TraceEvent::Start { first_proc, .. } => Some(*first_proc),
                _ => None,
            })
            .unwrap();
        assert_eq!(first, 6, "LastFit must pick processors 6 and 7");
    }

    #[test]
    fn conservative_is_deterministic() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| j(i, (i as u64) * 13, 1 + (i % 5), 30 + (i as u64 % 200), 400))
            .collect();
        let tmm = tm();
        let mk = || {
            simulate(
                &cluster(8),
                &jobs,
                &top_policy(),
                &tmm,
                &EngineConfig {
                    mode: SchedMode::Conservative,
                    ..Default::default()
                },
            )
            .unwrap()
            .outcomes
        };
        assert_eq!(mk(), mk());
    }

    /// A hook that down-gears every start to gear 0 (admits nothing at
    /// the proposed gear).
    struct DowngearHook {
        declined: u32,
    }

    impl crate::hook::PowerHook for DowngearHook {
        fn on_time(&mut self, _now: Time) {}

        fn admit_start(
            &mut self,
            _now: Time,
            _cpus: u32,
            _gear: GearId,
            _wq: usize,
            _head: bool,
        ) -> Option<GearId> {
            Some(GearId(0))
        }

        fn admission_declined(&mut self) {
            self.declined += 1;
        }

        fn admit_gear_change(&mut self, _now: Time, _c: u32, _f: GearId, _t: GearId) -> bool {
            true
        }

        fn on_job_start(&mut self, _now: Time, _cpus: u32, _gear: GearId) {}

        fn on_job_finish(&mut self, _now: Time, _cpus: u32, _gear: GearId) {}

        fn on_gear_change(&mut self, _now: Time, _c: u32, _f: GearId, _t: GearId) {}
    }

    #[test]
    fn conservative_honors_downgeared_admissions() {
        // A down-geared start-now must be honored when the longer window
        // fits the profile — the run completes with every job at gear 0
        // instead of stalling.
        let jobs = vec![j(0, 0, 2, 100, 100), j(1, 10, 4, 50, 50)];
        let tmm = tm();
        let mut hook = DowngearHook { declined: 0 };
        let res = crate::engine::simulate_with_hook(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig {
                mode: SchedMode::Conservative,
                ..Default::default()
            },
            &mut hook,
        )
        .unwrap();
        assert_eq!(res.outcomes.len(), 2, "no stall");
        for o in &res.outcomes {
            assert_eq!(
                o.gear,
                GearId(0),
                "{}: start must use the admitted gear",
                o.id
            );
        }
        crate::validate::validate_schedule(&res.outcomes, 4).unwrap();
    }

    #[test]
    fn easy_honors_downgeared_admissions() {
        let jobs = vec![j(0, 0, 4, 100, 100), j(1, 1, 1, 10, 10)];
        let tmm = tm();
        let mut hook = DowngearHook { declined: 0 };
        let res = crate::engine::simulate_with_hook(
            &cluster(4),
            &jobs,
            &top_policy(),
            &tmm,
            &EngineConfig::default(),
            &mut hook,
        )
        .unwrap();
        assert_eq!(res.outcomes.len(), 2);
        for o in &res.outcomes {
            assert_eq!(o.gear, GearId(0));
        }
    }

    #[test]
    fn overrunning_job_killed_at_request() {
        // A directly constructed job whose runtime exceeds the estimate
        // (real traces contain these) is killed at its requested time.
        let mut job = j(0, 0, 2, 100, 100);
        job.runtime = 500; // overrun past the 100 s estimate
        let res = run(4, &[job]);
        let o = &res.outcomes[0];
        assert_eq!(o.finish, Time(100), "killed at the dilated request");
        o.validate().unwrap();
        // A later job sees the processors free at the kill time.
        let mut over = j(0, 0, 4, 100, 100);
        over.runtime = 999;
        let jobs = vec![over, j(1, 10, 4, 50, 50)];
        let res = run(4, &jobs);
        assert_eq!(start_of(&res, 1), Time(100));
    }

    /// A workload mixing bursts, contention, exact estimates, overruns and
    /// early finishes — the A/B stress shape.
    fn ab_workload(n: u32) -> Vec<Job> {
        (0..n)
            .map(|i| {
                let arrival = (i as u64 / 3) * 7; // same-instant bursts of 3
                let cpus = 1 + i % 7;
                let runtime = 20 + (i as u64 * 37) % 400;
                let requested = if i % 5 == 0 {
                    runtime // exact estimate
                } else {
                    runtime + (i as u64 * 13) % 600
                };
                j(i, arrival, cpus, runtime, requested)
            })
            .collect()
    }

    fn run_with(jobs: &[Job], cpus: u32, cfg: &EngineConfig) -> SimResult {
        let tmm = tm();
        simulate(&cluster(cpus), jobs, &top_policy(), &tmm, cfg).unwrap()
    }

    #[test]
    fn trace_collection_forces_full_passes() {
        // collect_trace must keep per-event Reserve records: no elision.
        let jobs = ab_workload(40);
        let res = run_with(
            &jobs,
            8,
            &EngineConfig {
                collect_trace: true,
                ..Default::default()
            },
        );
        assert_eq!(res.stats.passes_skipped, 0);
    }

    #[test]
    fn outcome_count_matches_jobs() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| j(i, (i as u64) * 7, 1 + (i % 4), 50 + (i as u64 % 90), 200))
            .collect();
        let res = run(8, &jobs);
        assert_eq!(res.outcomes.len(), jobs.len());
        for o in &res.outcomes {
            o.validate().unwrap();
        }
    }

    #[test]
    fn raised_abort_flag_stops_the_run_at_the_first_event() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let jobs: Vec<Job> = (0..10).map(|i| j(i, i as u64, 1, 100, 200)).collect();
        let flag = Arc::new(AtomicBool::new(true));
        let err = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tm(),
            &EngineConfig {
                abort: Some(Arc::clone(&flag)),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, SimError::Aborted);
        // An unraised flag changes nothing: outcomes match the flagless run.
        flag.store(false, std::sync::atomic::Ordering::SeqCst);
        let watched = simulate(
            &cluster(8),
            &jobs,
            &top_policy(),
            &tm(),
            &EngineConfig {
                abort: Some(flag),
                ..Default::default()
            },
        )
        .unwrap();
        let plain = run(8, &jobs);
        assert_eq!(watched.outcomes, plain.outcomes);
    }
}
