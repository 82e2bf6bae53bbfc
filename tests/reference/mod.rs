//! A deliberately naive reference scheduler: the oracle the engine is
//! held to.
//!
//! The engine in `bsld::sched` earns its speed with a sorted running-jobs
//! index, a head reservation cached across events and updated in place,
//! pass skipping and same-instant batching. This module re-implements what
//! those must preserve, from the definitions: EASY backfilling (with and
//! without backfilling), conservative backfilling, the three processor
//! selection policies, kill-at-request, and the paper's frequency policies
//! (Figs. 1–2). It runs one full scheduling pass per event and carries
//! nothing between passes but the processors' owners, the wait queue and
//! the pending events. It shares no scheduling code with the engine: only
//! the model types, the β dilation and the predicted BSLD of Eq. 2.
//!
//! Out of scope: the dynamic boost and power hooks.

use std::collections::BTreeMap;
use std::ops::Bound;

use bsld::model::{bsld_predicted, GearId, Job, JobId, JobOutcome, Phase};
use bsld::power::BetaModel;
use bsld::simkernel::Time;

/// The paper's very-short-job threshold `Th` of Eq. 2, in seconds.
const SHORT_JOB_SECS: u64 = 600;

/// The queueing discipline.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// EASY: the queue head holds the only reservation; any other job
    /// starts early iff it cannot delay that reservation.
    Easy,
    /// EASY without backfilling: plain first come, first served.
    Fcfs,
    /// Conservative: every queued job holds a reservation, in arrival
    /// order, and starts when its reservation starts now.
    Conservative,
}

/// Which free processors a starting job gets.
#[derive(Clone, Copy)]
pub enum Selection {
    /// The lowest-indexed free processors.
    FirstFit,
    /// The highest-indexed free processors.
    LastFit,
    /// The lowest-indexed run of consecutive free processors.
    Contiguous,
}

/// The frequency policy.
#[derive(Clone, Copy)]
pub enum Policy {
    /// Every job at one gear.
    Fixed(GearId),
    /// The paper's BSLD-threshold policy.
    Bsld {
        /// `BSLD_threshold`.
        th: f64,
        /// `WQ_threshold`: DVFS is considered only while at most this many
        /// other jobs wait (`None` = no limit).
        wq: Option<usize>,
    },
}

/// What to simulate.
pub struct Config {
    /// Machine size.
    pub cpus: u32,
    /// Queueing discipline.
    pub mode: Mode,
    /// Processor selection.
    pub selection: Selection,
    /// Frequency policy.
    pub policy: Policy,
}

/// A finished run.
pub struct Run {
    /// One outcome per job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Scheduling passes that built an availability profile.
    pub profile_passes: u64,
}

/// Runs `jobs` (sorted by arrival, ids equal to their index, none wider
/// than the machine) to completion.
pub fn run(jobs: &[Job], tm: &BetaModel, cfg: &Config) -> Run {
    let mut sim = Sim {
        jobs,
        tm,
        cfg,
        now: Time::ZERO,
        events: BTreeMap::new(),
        pushed: 0,
        owner: vec![None; cfg.cpus as usize],
        waiting: Vec::new(),
        running: BTreeMap::new(),
        outcomes: Vec::new(),
        profile_passes: 0,
    };
    for job in jobs {
        sim.push(job.arrival, Event::Arrive(job.id));
    }
    while let Some(((t, _), event)) = sim.events.pop_first() {
        sim.now = t;
        match event {
            Event::Arrive(id) => sim.waiting.push(id),
            Event::Finish(id) => sim.finish(id),
        }
        match cfg.mode {
            Mode::Easy | Mode::Fcfs => sim.easy_pass(),
            Mode::Conservative => sim.conservative_pass(),
        }
    }
    assert!(sim.waiting.is_empty(), "jobs left waiting");
    Run {
        outcomes: sim.outcomes,
        profile_passes: sim.profile_passes,
    }
}

enum Event {
    Arrive(JobId),
    Finish(JobId),
}

struct Running {
    start: Time,
    gear: GearId,
    /// The requested time dilated to `gear`, from `start`.
    expected_end: Time,
}

struct Sim<'a> {
    jobs: &'a [Job],
    tm: &'a BetaModel,
    cfg: &'a Config,
    now: Time,
    /// Pending events, first in time, then in push order.
    events: BTreeMap<(Time, u64), Event>,
    pushed: u64,
    /// The job holding each processor.
    owner: Vec<Option<JobId>>,
    /// Waiting jobs in arrival order.
    waiting: Vec<JobId>,
    running: BTreeMap<JobId, Running>,
    outcomes: Vec<JobOutcome>,
    profile_passes: u64,
}

impl<'a> Sim<'a> {
    fn push(&mut self, at: Time, event: Event) {
        self.events.insert((at, self.pushed), event);
        self.pushed += 1;
    }

    fn job(&self, id: JobId) -> &'a Job {
        &self.jobs[id.index()]
    }

    fn free_count(&self) -> u32 {
        self.owner.iter().filter(|o| o.is_none()).count() as u32
    }

    /// The processors the selection policy gives a job of `n` cpus now.
    fn select(&self, n: u32) -> Option<Vec<usize>> {
        let n = n as usize;
        let free: Vec<usize> = (0..self.owner.len())
            .filter(|&p| self.owner[p].is_none())
            .collect();
        if free.len() < n {
            return None;
        }
        match self.cfg.selection {
            Selection::FirstFit => Some(free[..n].to_vec()),
            Selection::LastFit => Some(free[free.len() - n..].to_vec()),
            Selection::Contiguous => (0..=self.owner.len() - n)
                .find(|&s| self.owner[s..s + n].iter().all(Option::is_none))
                .map(|s| (s..s + n).collect()),
        }
    }

    /// Starts `id` now at `gear`; `false`, changing nothing, when the
    /// selection policy finds no processors for it.
    fn try_start(&mut self, id: JobId, gear: GearId) -> bool {
        let job = self.job(id);
        let Some(procs) = self.select(job.cpus) else {
            return false;
        };
        for p in procs {
            self.owner[p] = Some(id);
        }
        let requested = self.tm.dilate(job.requested, job.beta, gear);
        // Kill-at-request: a job overrunning its estimate stops there.
        let wall = self.tm.dilate(job.runtime, job.beta, gear).min(requested);
        self.running.insert(
            id,
            Running {
                start: self.now,
                gear,
                expected_end: self.now + requested,
            },
        );
        self.push(self.now + wall, Event::Finish(id));
        self.waiting.retain(|&w| w != id);
        true
    }

    fn finish(&mut self, id: JobId) {
        let r = self.running.remove(&id).expect("a finishing job runs");
        for slot in &mut self.owner {
            if *slot == Some(id) {
                *slot = None;
            }
        }
        let job = self.job(id);
        self.outcomes.push(JobOutcome {
            id,
            cpus: job.cpus,
            arrival: job.arrival,
            start: r.start,
            finish: self.now,
            gear: r.gear,
            phases: vec![Phase {
                gear: r.gear,
                seconds: self.now - r.start,
            }],
            nominal_runtime: job.runtime,
            requested: job.requested,
        });
    }

    /// The availability profile at this instant: the processors free now,
    /// every running job's released at its expected end, nothing committed.
    fn snapshot(&mut self) -> Profile {
        self.profile_passes += 1;
        // A job whose expected end is now still runs (its finish comes
        // later in this instant), so its processors return after now.
        let floor = self.now + 1;
        let mut deltas = BTreeMap::new();
        for (&id, r) in &self.running {
            *deltas.entry(r.expected_end.max(floor)).or_insert(0) += i64::from(self.job(id).cpus);
        }
        Profile {
            free: i64::from(self.free_count()),
            deltas,
        }
    }

    fn top(&self) -> GearId {
        self.tm.gears().top()
    }

    /// Gears from the lowest frequency up: the order Figs. 1–2 try them in.
    fn ascending(&self) -> impl Iterator<Item = GearId> + '_ {
        self.tm.gears().ascending().map(|(g, _)| g)
    }

    fn predicted(&self, job: &Job, wait: u64, gear: GearId) -> f64 {
        let coef = self.tm.coef(job.beta, gear);
        bsld_predicted(wait, job.requested, coef, SHORT_JOB_SECS)
    }

    /// The `WQ_threshold` gate for a job that is itself still waiting.
    fn gate_open(&self, wq: Option<usize>) -> bool {
        wq.is_none_or(|limit| self.waiting.len() - 1 <= limit)
    }

    /// MakeJobReservation (Fig. 1): the gear of a head job starting at
    /// `start`. The head is always scheduled, at the top gear if the WQ
    /// gate is closed or no lower gear keeps its predicted BSLD within the
    /// threshold.
    fn head_gear(&self, job: &Job, start: Time) -> GearId {
        match self.cfg.policy {
            Policy::Fixed(g) => g,
            Policy::Bsld { th, wq } if self.gate_open(wq) => {
                let wait = start.saturating_since(job.arrival);
                self.ascending()
                    .find(|&g| self.predicted(job, wait, g) <= th)
                    .unwrap_or(self.top())
            }
            Policy::Bsld { .. } => self.top(),
        }
    }

    /// BackfillJob (Fig. 2): the gear of a job starting now ahead of the
    /// head, or `None` to leave it queued. A gear must keep the predicted
    /// BSLD within the threshold and fit; over the WQ gate only the top
    /// gear is tried.
    fn backfill_gear(&self, job: &Job, fits: impl Fn(GearId) -> bool) -> Option<GearId> {
        match self.cfg.policy {
            Policy::Fixed(g) => fits(g).then_some(g),
            Policy::Bsld { th, wq } => {
                let wait = self.now.saturating_since(job.arrival);
                let ok = |g| self.predicted(job, wait, g) <= th && fits(g);
                if self.gate_open(wq) {
                    self.ascending().find(|&g| ok(g))
                } else {
                    Some(self.top()).filter(|&g| ok(g))
                }
            }
        }
    }

    /// Fig. 1 under conservative backfilling, where the start depends on
    /// the gear: each gear tried gets its own earliest start.
    fn reserve(&self, job: &Job, find_start: impl Fn(GearId) -> Time) -> (GearId, Time) {
        let top = || (self.top(), find_start(self.top()));
        match self.cfg.policy {
            Policy::Fixed(g) => (g, find_start(g)),
            Policy::Bsld { th, wq } if self.gate_open(wq) => self
                .ascending()
                .map(|g| (g, find_start(g)))
                .find(|&(g, start)| {
                    self.predicted(job, start.saturating_since(job.arrival), g) <= th
                })
                .unwrap_or_else(top),
            Policy::Bsld { .. } => top(),
        }
    }

    fn easy_pass(&mut self) {
        // Start the head while it can start now.
        while let Some(&head) = self.waiting.first() {
            let job = self.job(head);
            let gear = self.head_gear(job, self.now);
            if !self.try_start(head, gear) {
                break;
            }
        }
        let Some(&head) = self.waiting.first() else {
            return;
        };
        if self.cfg.mode == Mode::Fcfs {
            // The head's reservation would constrain nothing.
            return;
        }
        // Reserve the earliest instant the head's processors are free.
        let mut profile = self.snapshot();
        let job = self.job(head);
        let start = profile.earliest_fit(job.cpus, 1, self.now);
        let gear = self.head_gear(job, start);
        profile.commit(
            start,
            self.tm.dilate(job.requested, job.beta, gear),
            job.cpus,
        );
        // Backfill the rest of the queue in arrival order.
        let (tm, now) = (self.tm, self.now);
        let mut free = self.free_count();
        let candidates = self.waiting[1..].to_vec();
        for id in candidates {
            let job = self.job(id);
            if job.cpus > free {
                // Wider than the free processors: no gear fits.
                continue;
            }
            let dur = |g| tm.dilate(job.requested, job.beta, g);
            let Some(gear) = self.backfill_gear(job, |g| profile.fits(now, job.cpus, dur(g)))
            else {
                continue;
            };
            if self.try_start(id, gear) {
                profile.commit(now, dur(gear), job.cpus);
                free -= job.cpus;
            }
        }
    }

    fn conservative_pass(&mut self) {
        if self.waiting.is_empty() {
            return;
        }
        let mut profile = self.snapshot();
        let (tm, now) = (self.tm, self.now);
        for id in self.waiting.clone() {
            let job = self.job(id);
            let dur = |g| tm.dilate(job.requested, job.beta, g);
            let (gear, start) = self.reserve(job, |g| profile.earliest_fit(job.cpus, dur(g), now));
            // A reservation starting now starts the job unless contiguous
            // selection finds no run; its window is committed either way.
            if start == now {
                self.try_start(id, gear);
            }
            profile.commit(start, dur(gear), job.cpus);
        }
    }
}

/// Future availability: the processors free at the snapshot instant plus
/// every change after it, a release (+) or a committed window (− at its
/// start, + at its end). Queries scan every breakpoint.
struct Profile {
    free: i64,
    deltas: BTreeMap<Time, i64>,
}

impl Profile {
    /// `(t, processors free from t to the next breakpoint)` for `from` and
    /// every later breakpoint.
    fn steps_from(&self, from: Time) -> impl Iterator<Item = (Time, i64)> + '_ {
        let mut avail = self.free + self.deltas.range(..=from).map(|(_, d)| d).sum::<i64>();
        let later = self.deltas.range((Bound::Excluded(from), Bound::Unbounded));
        std::iter::once((from, avail)).chain(later.map(move |(&t, &d)| {
            avail += d;
            (t, avail)
        }))
    }

    /// Whether `cpus` processors stay free throughout `[start, start + dur)`.
    fn fits(&self, start: Time, cpus: u32, dur: u64) -> bool {
        let end = start.saturating_add(dur);
        self.steps_from(start)
            .take_while(|&(t, _)| t < end)
            .all(|(_, avail)| avail >= i64::from(cpus))
    }

    /// The earliest `t >= from` such that `cpus` processors stay free
    /// throughout `[t, t + dur)`: `from` or a breakpoint after it.
    fn earliest_fit(&self, cpus: u32, dur: u64, from: Time) -> Time {
        self.steps_from(from)
            .map(|(t, _)| t)
            .find(|&t| self.fits(t, cpus, dur))
            .expect("every job fits the machine once all else has ended")
    }

    /// Commits `cpus` processors over `[start, start + dur)`.
    fn commit(&mut self, start: Time, dur: u64, cpus: u32) {
        assert!(self.fits(start, cpus, dur), "committed window must fit");
        let cpus = i64::from(cpus);
        *self.deltas.entry(start).or_insert(0) -= cpus;
        *self.deltas.entry(start.saturating_add(dur)).or_insert(0) += cpus;
    }
}
