//! Future availability profile.
//!
//! The EASY scheduler reasons about the future with a *profile*: a
//! piecewise-constant function `t ↦ available processors` built from the
//! **requested** completion times of running jobs. The head-of-queue
//! reservation is committed into the profile, and backfill candidates are
//! checked against what remains — that single data structure encodes both
//! the "shadow time" and the "extra processors" of classic EASY
//! formulations, and stays correct under arbitrary commitments.
//!
//! All operations are integer/exact, so scheduling decisions are
//! deterministic.
//!
//! # Query complexity
//!
//! Queries scan the segment list. [`Profile::min_available`],
//! [`Profile::earliest_fit`] and the [`Profile::commit`] underflow check
//! binary-search the segment covering the window start, then walk forward
//! over the segments the window touches; mutations splice the segment
//! `Vec` and coalesce it. Everything is linear in the segment count, and
//! the count stays small. The list is coalesced (no two neighbours share
//! an availability), so an EASY scheduler's profile holds the origin, one
//! step per distinct requested end of a running job and the edges of the
//! head reservation, never its history; conservative backfilling adds the
//! edges of each queued job's reservation. Measured per query and
//! mutation: on 100k-job `gen-swf` replays (1 024 CPUs) the list averages
//! 38 segments under BSLD 2/NO and 24–25 under EASY and conservative
//! backfilling, peaking at 60; the paper grid at 5 000 jobs peaks at 16
//! (SDSC-Blue) to 88 (Thunder). The longest seen, conservative
//! backfilling over a 100k-job trace on 9 216 CPUs, averages 205. An
//! index over the list would have to be rebuilt on every mutation, and
//! mutations are about as many as queries, so keeping one current costs
//! more than the scans it saves, even on that replay. The property tests
//! hold the scans to independent oracles over [`Profile::segments`].

use bsld_simkernel::Time;
use std::ops::Range;

/// Errors from profile mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// A commitment would drive availability negative at the given time.
    Underflow {
        /// First instant at which the commitment exceeds availability.
        at: Time,
    },
    /// A commitment started before the profile origin.
    BeforeOrigin,
    /// A commitment had `end <= start`.
    EmptyWindow,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Underflow { at } => {
                write!(f, "commitment exceeds availability at {at:?}")
            }
            ProfileError::BeforeOrigin => write!(f, "commitment starts before profile origin"),
            ProfileError::EmptyWindow => write!(f, "commitment window is empty"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Builds a [`Profile`] from the set of running jobs.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    origin: Time,
    total: u32,
    free_now: u32,
    releases: Vec<(Time, u32)>,
}

impl ProfileBuilder {
    /// Starts a profile at `origin` for a machine of `total` processors of
    /// which `free_now` are currently idle.
    pub fn new(origin: Time, total: u32, free_now: u32) -> Self {
        assert!(free_now <= total, "free count exceeds machine size");
        ProfileBuilder {
            origin,
            total,
            free_now,
            releases: Vec::new(),
        }
    }

    /// Re-initialises the builder for a fresh profile, keeping the release
    /// buffer's allocation. This is the hot-path entry point: a scheduler
    /// that rebuilds a profile on every event reuses one builder instead of
    /// allocating a new release vector per pass.
    pub fn reset(&mut self, origin: Time, total: u32, free_now: u32) {
        assert!(free_now <= total, "free count exceeds machine size");
        self.origin = origin;
        self.total = total;
        self.free_now = free_now;
        self.releases.clear();
    }

    /// Registers that `cpus` processors become free at time `at` (a running
    /// job's expected completion). Times at or before the origin are folded
    /// into the current free count.
    pub fn release(&mut self, at: Time, cpus: u32) {
        if cpus == 0 {
            return;
        }
        if at <= self.origin {
            self.free_now += cpus;
            assert!(self.free_now <= self.total, "releases exceed machine size");
        } else {
            self.releases.push((at, cpus));
        }
    }

    /// Finalises the profile.
    pub fn build(mut self) -> Profile {
        let mut out = Profile {
            total: self.total,
            segs: Vec::with_capacity(self.releases.len() + 1),
        };
        self.build_into(&mut out);
        out
    }

    /// Finalises the profile into an existing [`Profile`], reusing its
    /// segment allocation. The builder stays usable (call
    /// [`ProfileBuilder::reset`] before the next pass).
    pub fn build_into(&mut self, out: &mut Profile) {
        self.releases.sort_unstable_by_key(|&(t, _)| t);
        out.total = self.total;
        out.segs.clear();
        out.segs.push((self.origin, self.free_now));
        let mut avail = self.free_now;
        for &(t, cpus) in &self.releases {
            avail += cpus;
            assert!(avail <= self.total, "releases exceed machine size");
            match out.segs.last_mut() {
                Some(last) if last.0 == t => last.1 = avail,
                _ => out.segs.push((t, avail)),
            }
        }
    }
}

/// Piecewise-constant future availability (see module docs).
///
/// Invariants: segment start times strictly increase, the first segment
/// starts at the profile origin, each availability is `≤ total`, no two
/// neighbouring segments share an availability, and the last segment
/// extends to infinity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    total: u32,
    segs: Vec<(Time, u32)>,
}

impl Profile {
    /// A trivial profile: `free` processors from `origin` forever.
    pub fn flat(origin: Time, total: u32, free: u32) -> Self {
        ProfileBuilder::new(origin, total, free).build()
    }

    /// The profile's origin (the "now" it was built at).
    #[inline]
    pub fn origin(&self) -> Time {
        self.segs[0].0
    }

    /// The machine size.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The underlying `(start, available)` segments (for tests/inspection).
    pub fn segments(&self) -> &[(Time, u32)] {
        &self.segs
    }

    /// Index of the segment covering `t` (clamped to the origin).
    fn seg_index(&self, t: Time) -> usize {
        match self.segs.binary_search_by_key(&t, |&(s, _)| s) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Available processors at time `t` (clamped to the origin).
    pub fn available_at(&self, t: Time) -> u32 {
        self.segs[self.seg_index(t)].1
    }

    /// The segments after `i` that a window ending at `end` touches: each
    /// one that starts before `end`.
    fn later_in_window(&self, i: usize, end: Time) -> impl Iterator<Item = &(Time, u32)> {
        self.segs[i + 1..]
            .iter()
            .take_while(move |&&(s, _)| s < end)
    }

    /// The first segment below `cpus` that a window starting in segment
    /// `i` and ending at `end` touches: segment `i` itself (even for an
    /// empty window), or a later one that starts before `end`.
    fn first_dip(&self, i: usize, end: Time, cpus: u32) -> Option<usize> {
        if self.segs[i].1 < cpus {
            return Some(i);
        }
        self.later_in_window(i, end)
            .position(|&(_, a)| a < cpus)
            .map(|n| i + 1 + n)
    }

    /// Minimum availability over the window `[start, start+dur)`.
    /// A zero-length window reads the instant `start`.
    pub fn min_available(&self, start: Time, dur: u64) -> u32 {
        let i = self.seg_index(start);
        self.later_in_window(i, start.saturating_add(dur))
            .fold(self.segs[i].1, |m, &(_, a)| m.min(a))
    }

    /// Whether `cpus` processors are continuously available over
    /// `[start, start+dur)`.
    #[inline]
    pub fn can_fit(&self, start: Time, cpus: u32, dur: u64) -> bool {
        cpus <= self.total && self.min_available(start, dur) >= cpus
    }

    /// Earliest `t ≥ not_before` such that `cpus` processors are available
    /// throughout `[t, t+dur)`, or `None` if no such time exists (only when
    /// `cpus > total` or a commitment blocks the horizon forever).
    pub fn earliest_fit(&self, cpus: u32, dur: u64, not_before: Time) -> Option<Time> {
        if cpus > self.total {
            return None;
        }
        let mut t = not_before.max(self.origin());
        let mut i = self.seg_index(t);
        while let Some(k) = self.first_dip(i, t.saturating_add(dur), cpus) {
            // Blocked: the next candidate is the start of the first later
            // segment with enough processors; there is none when the dip
            // lasts through the infinite tail.
            i = k + 1 + self.segs[k + 1..].iter().position(|&(_, a)| a >= cpus)?;
            t = self.segs[i].0;
        }
        Some(t)
    }

    /// Reserves `cpus` processors over `[start, end)`, reducing availability.
    ///
    /// The operation is atomic: on error the profile is unchanged.
    pub fn commit(&mut self, start: Time, end: Time, cpus: u32) -> Result<(), ProfileError> {
        if start < self.origin() {
            return Err(ProfileError::BeforeOrigin);
        }
        if end <= start {
            return Err(ProfileError::EmptyWindow);
        }
        if cpus == 0 {
            return Ok(());
        }
        // Validate first, so that a failed commit changes nothing.
        let i = self.seg_index(start);
        if let Some(k) = self.first_dip(i, end, cpus) {
            let at = self.segs[k].0.max(start);
            return Err(ProfileError::Underflow { at });
        }
        let window = self.split(i, start, end);
        for seg in &mut self.segs[window] {
            seg.1 -= cpus;
        }
        self.coalesce();
        Ok(())
    }

    /// Raises availability by `cpus` over `[start, end)` — the exact
    /// inverse of [`Profile::commit`]. An empty window is a no-op.
    ///
    /// This is the incremental-update primitive: when a running job
    /// finishes early, its pending release at the *requested* end can be
    /// pulled forward by releasing the remaining window in place instead of
    /// rebuilding the whole profile; likewise an obsolete reservation is
    /// removed by releasing its committed window.
    ///
    /// # Panics
    /// Panics if the release would drive availability above the machine
    /// size — that means the window was never committed, a caller bug.
    pub fn release_over(&mut self, start: Time, end: Time, cpus: u32) -> Result<(), ProfileError> {
        if start < self.origin() {
            return Err(ProfileError::BeforeOrigin);
        }
        if end <= start || cpus == 0 {
            return Ok(());
        }
        let window = self.split(self.seg_index(start), start, end);
        for seg in &mut self.segs[window] {
            seg.1 += cpus;
            assert!(
                seg.1 <= self.total,
                "release_over exceeds machine size at {:?}",
                seg.0
            );
        }
        self.coalesce();
        Ok(())
    }

    /// Advances the profile origin to `now`, discarding fully-elapsed
    /// segments. A long-lived, incrementally-updated profile must call
    /// this as simulation time moves forward or its segment list grows
    /// with history instead of with the number of running jobs. `now`
    /// earlier than the current origin is a no-op.
    pub fn advance_origin(&mut self, now: Time) {
        let i = self.seg_index(now);
        self.segs.drain(..i);
        if self.segs[0].0 < now {
            self.segs[0].0 = now;
        }
    }

    /// Splits segment boundaries at `start` (covered by segment `i`) and
    /// at `end`, and returns the range of segments inside `[start, end)`.
    /// An `end` of `Time::MAX` keeps the tail implicit.
    fn split(&mut self, mut i: usize, start: Time, end: Time) -> Range<usize> {
        if self.segs[i].0 < start {
            let avail = self.segs[i].1;
            self.segs.insert(i + 1, (start, avail));
            i += 1;
        }
        let j = i + 1 + self.later_in_window(i, end).count();
        if end < Time::MAX && self.segs.get(j).is_none_or(|&(s, _)| s > end) {
            let prev_avail = self.segs[j - 1].1;
            self.segs.insert(j, (end, prev_avail));
        }
        i..j
    }

    /// Merges adjacent segments with equal availability.
    fn coalesce(&mut self) {
        self.segs.dedup_by(|next, prev| prev.1 == next.1);
    }

    /// Debug invariant check used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.segs.is_empty() {
            return Err("profile has no segments".into());
        }
        for w in self.segs.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("segment starts not increasing: {:?}", w));
            }
            if w[1].1 == w[0].1 {
                return Err(format!(
                    "neighbouring segments share an availability: {w:?}"
                ));
            }
        }
        for &(t, a) in &self.segs {
            if a > self.total {
                return Err(format!(
                    "availability {a} exceeds total {} at {t:?}",
                    self.total
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profile: 10-cpu machine, 2 free now (t=100), releases of 3 at t=200
    /// and 5 at t=300.
    fn sample() -> Profile {
        let mut b = ProfileBuilder::new(Time(100), 10, 2);
        b.release(Time(200), 3);
        b.release(Time(300), 5);
        b.build()
    }

    #[test]
    fn builder_accumulates_releases() {
        let p = sample();
        assert_eq!(
            p.segments(),
            &[(Time(100), 2), (Time(200), 5), (Time(300), 10)]
        );
        assert_eq!(p.origin(), Time(100));
        assert_eq!(p.total(), 10);
        p.check_invariants().unwrap();
    }

    #[test]
    fn builder_folds_past_releases() {
        let mut b = ProfileBuilder::new(Time(100), 10, 2);
        b.release(Time(50), 3); // already free by the origin
        let p = b.build();
        assert_eq!(p.available_at(Time(100)), 5);
    }

    #[test]
    fn builder_merges_same_instant() {
        let mut b = ProfileBuilder::new(Time(0), 10, 0);
        b.release(Time(10), 2);
        b.release(Time(10), 3);
        let p = b.build();
        assert_eq!(p.segments(), &[(Time(0), 0), (Time(10), 5)]);
    }

    #[test]
    fn available_at_clamps_and_steps() {
        let p = sample();
        assert_eq!(p.available_at(Time(0)), 2); // clamped to origin
        assert_eq!(p.available_at(Time(100)), 2);
        assert_eq!(p.available_at(Time(199)), 2);
        assert_eq!(p.available_at(Time(200)), 5);
        assert_eq!(p.available_at(Time(1_000_000)), 10);
    }

    #[test]
    fn min_available_over_window() {
        let p = sample();
        assert_eq!(p.min_available(Time(150), 100), 2); // spans the t=200 step
        assert_eq!(p.min_available(Time(200), 100), 5);
        assert_eq!(p.min_available(Time(200), 101), 5);
        assert_eq!(p.min_available(Time(250), 100), 5); // [250,350) min(5,10)=5
        assert_eq!(p.min_available(Time(300), u64::MAX), 10);
    }

    #[test]
    fn earliest_fit_basic() {
        let p = sample();
        // 2 cpus fit immediately.
        assert_eq!(p.earliest_fit(2, 1000, Time(100)), Some(Time(100)));
        // 4 cpus must wait for the t=200 release.
        assert_eq!(p.earliest_fit(4, 1000, Time(100)), Some(Time(200)));
        // 8 cpus wait for t=300.
        assert_eq!(p.earliest_fit(8, 1, Time(100)), Some(Time(300)));
        // not_before is honoured.
        assert_eq!(p.earliest_fit(2, 10, Time(250)), Some(Time(250)));
        // Oversized request never fits.
        assert_eq!(p.earliest_fit(11, 1, Time(100)), None);
    }

    #[test]
    fn earliest_fit_skips_dips() {
        // 10 cpus; a commitment creates a dip: 10 free except [200,300) → 1.
        let mut p = Profile::flat(Time(0), 10, 10);
        p.commit(Time(200), Time(300), 9).unwrap();
        // A long job that would overlap the dip must start after it.
        assert_eq!(p.earliest_fit(5, 250, Time(0)), Some(Time(300)));
        // A short job fits before the dip.
        assert_eq!(p.earliest_fit(5, 200, Time(0)), Some(Time(0)));
        // One cpu fits anywhere.
        assert_eq!(p.earliest_fit(1, 10_000, Time(0)), Some(Time(0)));
    }

    #[test]
    fn commit_reduces_and_restores_window() {
        let mut p = Profile::flat(Time(0), 8, 8);
        p.commit(Time(10), Time(20), 3).unwrap();
        assert_eq!(p.available_at(Time(9)), 8);
        assert_eq!(p.available_at(Time(10)), 5);
        assert_eq!(p.available_at(Time(19)), 5);
        assert_eq!(p.available_at(Time(20)), 8);
        p.check_invariants().unwrap();
    }

    #[test]
    fn commit_stacks() {
        let mut p = Profile::flat(Time(0), 8, 8);
        p.commit(Time(10), Time(30), 3).unwrap();
        p.commit(Time(20), Time(40), 3).unwrap();
        assert_eq!(p.available_at(Time(15)), 5);
        assert_eq!(p.available_at(Time(25)), 2);
        assert_eq!(p.available_at(Time(35)), 5);
        assert_eq!(p.available_at(Time(40)), 8);
        p.check_invariants().unwrap();
    }

    #[test]
    fn commit_underflow_is_atomic() {
        let mut p = Profile::flat(Time(0), 8, 8);
        p.commit(Time(10), Time(30), 6).unwrap();
        let before = p.clone();
        let err = p.commit(Time(0), Time(50), 4).unwrap_err();
        assert_eq!(err, ProfileError::Underflow { at: Time(10) });
        assert_eq!(p, before, "failed commit must not mutate the profile");
    }

    #[test]
    fn commit_rejects_bad_windows() {
        let mut p = Profile::flat(Time(100), 8, 8);
        assert_eq!(
            p.commit(Time(50), Time(60), 1),
            Err(ProfileError::BeforeOrigin)
        );
        assert_eq!(
            p.commit(Time(100), Time(100), 1),
            Err(ProfileError::EmptyWindow)
        );
        assert_eq!(p.commit(Time(100), Time(200), 0), Ok(()));
    }

    #[test]
    fn commit_to_infinity() {
        let mut p = Profile::flat(Time(0), 8, 8);
        p.commit(Time(10), Time::MAX, 8).unwrap();
        assert_eq!(p.available_at(Time(9)), 8);
        assert_eq!(p.available_at(Time(10)), 0);
        assert_eq!(p.earliest_fit(1, 1, Time(20)), None);
        p.check_invariants().unwrap();
    }

    #[test]
    fn commit_on_release_boundary() {
        let p0 = sample(); // steps at 200 and 300
        let mut p = p0.clone();
        p.commit(Time(200), Time(300), 5).unwrap();
        assert_eq!(p.available_at(Time(200)), 0);
        assert_eq!(p.available_at(Time(300)), 10);
        p.check_invariants().unwrap();
    }

    #[test]
    fn builder_reset_reuses_allocation() {
        let mut b = ProfileBuilder::new(Time(0), 10, 2);
        b.release(Time(50), 3);
        let first = b.build_into_fresh();
        assert_eq!(first.segments(), &[(Time(0), 2), (Time(50), 5)]);
        // Reset and rebuild a different profile into the same buffer.
        b.reset(Time(100), 8, 1);
        b.release(Time(200), 7);
        let mut out = first;
        b.build_into(&mut out);
        assert_eq!(out.segments(), &[(Time(100), 1), (Time(200), 8)]);
        assert_eq!(out.total(), 8);
        out.check_invariants().unwrap();
    }

    impl ProfileBuilder {
        /// Test helper: build into a fresh profile without consuming self.
        fn build_into_fresh(&mut self) -> Profile {
            let mut p = Profile::flat(Time(0), 1, 1);
            self.build_into(&mut p);
            p
        }
    }

    #[test]
    fn build_into_matches_build() {
        let mut b1 = ProfileBuilder::new(Time(100), 10, 1);
        let mut b2 = ProfileBuilder::new(Time(100), 10, 1);
        for (t, c) in [(300u64, 5u32), (200, 3), (50, 1)] {
            b1.release(Time(t), c);
            b2.release(Time(t), c);
        }
        let built = b1.build();
        let mut reused = Profile::flat(Time(0), 1, 1);
        b2.build_into(&mut reused);
        assert_eq!(built, reused);
    }

    #[test]
    fn release_over_inverts_commit() {
        let mut p = sample();
        let before = p.clone();
        p.commit(Time(150), Time(250), 2).unwrap();
        assert_ne!(p, before);
        p.release_over(Time(150), Time(250), 2).unwrap();
        assert_eq!(p, before, "release_over must exactly invert commit");
        p.check_invariants().unwrap();
    }

    #[test]
    fn release_over_pulls_a_release_forward() {
        // A job expected to free 3 cpus at t=200 finishes early at t=120:
        // releasing [120, 200) makes the availability what a full rebuild
        // from the remaining jobs would produce.
        let p0 = sample();
        let mut p = p0.clone();
        p.release_over(Time(120), Time(200), 3).unwrap();
        assert_eq!(p.available_at(Time(119)), 2);
        assert_eq!(p.available_at(Time(120)), 5);
        assert_eq!(p.available_at(Time(200)), 5);
        assert_eq!(p.available_at(Time(300)), 10);
        p.check_invariants().unwrap();
    }

    #[test]
    fn release_over_edge_windows() {
        let mut p = Profile::flat(Time(0), 8, 8);
        p.commit(Time(10), Time::MAX, 8).unwrap();
        // Empty window is a no-op.
        p.release_over(Time(20), Time(20), 3).unwrap();
        assert_eq!(p.available_at(Time(20)), 0);
        // Unbounded windows release to the horizon.
        p.release_over(Time(20), Time::MAX, 8).unwrap();
        assert_eq!(p.available_at(Time(15)), 0);
        assert_eq!(p.available_at(Time(20)), 8);
        p.check_invariants().unwrap();
        let mut shifted = Profile::flat(Time(10), 8, 8);
        assert_eq!(
            shifted.release_over(Time(0), Time(5), 1),
            Err(ProfileError::BeforeOrigin)
        );
    }

    #[test]
    #[should_panic(expected = "release_over exceeds machine size")]
    fn release_over_rejects_uncommitted_window() {
        let mut p = Profile::flat(Time(0), 8, 8);
        let _ = p.release_over(Time(10), Time(20), 1);
    }

    #[test]
    fn advance_origin_drops_elapsed_segments() {
        let mut p = sample(); // origin 100, steps at 200 and 300
        p.advance_origin(Time(250));
        assert_eq!(p.segments(), &[(Time(250), 5), (Time(300), 10)]);
        assert_eq!(p.origin(), Time(250));
        assert_eq!(p.available_at(Time(250)), 5);
        assert_eq!(p.available_at(Time(400)), 10);
        p.check_invariants().unwrap();
        // No-op when earlier than the origin or on a boundary.
        p.advance_origin(Time(100));
        assert_eq!(p.origin(), Time(250));
        p.advance_origin(Time(300));
        assert_eq!(p.segments(), &[(Time(300), 10)]);
        p.check_invariants().unwrap();
    }

    #[test]
    fn earliest_fit_after_commit_matches_can_fit() {
        let mut p = Profile::flat(Time(0), 16, 16);
        p.commit(Time(100), Time(200), 16).unwrap();
        let t = p.earliest_fit(4, 150, Time(0)).unwrap();
        assert_eq!(t, Time(200));
        assert!(p.can_fit(t, 4, 150));
        assert!(!p.can_fit(Time(0), 4, 150));
        assert!(p.can_fit(Time(0), 4, 100)); // exactly up to the dip
    }
}
