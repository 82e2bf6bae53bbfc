//! Property tests for the availability profile — the data structure every
//! scheduling decision goes through.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld_cluster::{Profile, ProfileBuilder};
use bsld_simkernel::Time;
use proptest::prelude::*;

const TOTAL: u32 = 64;

/// Index of the segment covering `t`, clamped to the origin.
fn seg_index(segs: &[(Time, u32)], t: Time) -> usize {
    match segs.binary_search_by_key(&t, |&(s, _)| s) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) => i - 1,
    }
}

/// Linear-scan [`Profile::min_available`]: every segment the window
/// `[start, start + dur)` touches, and at least the one covering `start`.
fn min_available_linear(p: &Profile, start: Time, dur: u64) -> u32 {
    let segs = p.segments();
    let end = start.saturating_add(dur);
    let mut i = seg_index(segs, start);
    let mut min = segs[i].1;
    i += 1;
    while i < segs.len() && segs[i].0 < end {
        min = min.min(segs[i].1);
        i += 1;
    }
    min
}

/// Linear-scan [`Profile::earliest_fit`]: walks every segment of every
/// candidate window, hopping past each segment that blocks it.
fn earliest_fit_linear(p: &Profile, cpus: u32, dur: u64, not_before: Time) -> Option<Time> {
    if cpus > p.total() {
        return None;
    }
    let segs = p.segments();
    let mut t = not_before.max(p.origin());
    'candidate: loop {
        let window_end = t.saturating_add(dur);
        let mut j = seg_index(segs, t);
        loop {
            let (_, avail) = segs[j];
            let seg_end = segs.get(j + 1).map_or(Time::MAX, |&(s, _)| s);
            if avail < cpus {
                if seg_end == Time::MAX {
                    // Blocked forever (an infinite commitment).
                    return None;
                }
                t = seg_end;
                continue 'candidate;
            }
            if seg_end >= window_end {
                return Some(t);
            }
            j += 1;
        }
    }
}

/// Profile: 10-cpu machine, 2 free now (t=100), releases of 3 at t=200
/// and 5 at t=300.
fn sample() -> Profile {
    let mut b = ProfileBuilder::new(Time(100), 10, 2);
    b.release(Time(200), 3);
    b.release(Time(300), 5);
    b.build()
}

/// Exhaustively compares the queries against the oracles' scans over a
/// staircase profile with dips, across a grid of probe points,
/// sizes and durations (including dur = 0 and u64::MAX).
#[test]
fn indexed_queries_match_linear_oracles() {
    let mut p = Profile::flat(Time(0), 32, 32);
    for (s, e, c) in [
        (10u64, 50u64, 8u32),
        (20, 40, 8),
        (40, 90, 16),
        (60, 70, 15),
        (100, u64::MAX, 31),
    ] {
        let end = if e == u64::MAX { Time::MAX } else { Time(e) };
        p.commit(Time(s), end, c).unwrap();
    }
    p.check_invariants().unwrap();
    for t in 0..120u64 {
        for dur in [0u64, 1, 5, 30, 100, u64::MAX] {
            assert_eq!(
                p.min_available(Time(t), dur),
                min_available_linear(&p, Time(t), dur),
                "min_available at t={t} dur={dur}"
            );
            for cpus in [0u32, 1, 2, 8, 16, 17, 31, 32, 33] {
                assert_eq!(
                    p.earliest_fit(cpus, dur, Time(t)),
                    earliest_fit_linear(&p, cpus, dur, Time(t)),
                    "earliest_fit cpus={cpus} dur={dur} not_before={t}"
                );
            }
        }
    }
}

#[test]
fn indexed_queries_match_linear_after_every_mutation_kind() {
    let mut p = sample();
    p.commit(Time(150), Time(250), 2).unwrap();
    p.release_over(Time(150), Time(250), 2).unwrap();
    p.advance_origin(Time(220));
    p.check_invariants().unwrap();
    for t in 200..350u64 {
        for cpus in 0..=11u32 {
            assert_eq!(
                p.earliest_fit(cpus, 75, Time(t)),
                earliest_fit_linear(&p, cpus, 75, Time(t))
            );
        }
        assert_eq!(
            p.min_available(Time(t), 60),
            min_available_linear(&p, Time(t), 60)
        );
    }
}

/// Builds a random profile: some free-now count plus future releases that
/// never exceed the machine size.
fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        0u32..=32,
        proptest::collection::vec((1u64..10_000, 1u32..8), 0..20),
    )
        .prop_map(|(free_now, releases)| {
            let mut b = ProfileBuilder::new(Time(0), TOTAL, free_now);
            let mut budget = TOTAL - free_now;
            for (t, cpus) in releases {
                let cpus = cpus.min(budget);
                if cpus == 0 {
                    break;
                }
                budget -= cpus;
                b.release(Time(t), cpus);
            }
            b.build()
        })
}

/// A sequence of commit attempts to apply on top.
fn arb_commits() -> impl Strategy<Value = Vec<(u64, u64, u32)>> {
    proptest::collection::vec((0u64..12_000, 1u64..8_000, 1u32..TOTAL), 0..12)
}

/// A sequence of mutations: `(kind, offset, dur, cpus)`. Kinds 0 and 1
/// try to commit `cpus` for `dur` from `origin + offset`, kind 2 releases
/// what is left of an earlier successful commit and kind 3 advances the
/// origin by `offset / 4`: the calls the engine's in-place profile
/// updates make.
fn arb_mutations() -> impl Strategy<Value = Vec<(u8, u64, u64, u32)>> {
    proptest::collection::vec((0u8..4, 0u64..12_000, 1u64..8_000, 1u32..TOTAL), 0..16)
}

/// Applies [`arb_mutations`] to `p`.
fn mutate(p: &mut Profile, mutations: &[(u8, u64, u64, u32)]) {
    let mut committed: Vec<(Time, Time, u32)> = Vec::new();
    for &(kind, offset, dur, cpus) in mutations {
        match kind {
            0 | 1 => {
                let start = p.origin() + offset;
                let end = start.saturating_add(dur);
                if p.commit(start, end, cpus).is_ok() {
                    committed.push((start, end, cpus));
                }
            }
            2 if !committed.is_empty() => {
                let (start, end, cpus) = committed.remove(offset as usize % committed.len());
                p.release_over(start.max(p.origin()), end, cpus).unwrap();
            }
            _ => p.advance_origin(p.origin() + offset / 4),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants survive any sequence of (possibly failing) commits, and
    /// failed commits leave the profile untouched.
    #[test]
    fn commits_preserve_invariants(p in arb_profile(), commits in arb_commits()) {
        let mut p = p;
        for (start, dur, cpus) in commits {
            let before = p.clone();
            let end = Time(start.saturating_add(dur));
            match p.commit(Time(start), end, cpus) {
                Ok(()) => {
                    p.check_invariants().map_err(TestCaseError::fail)?;
                }
                Err(_) => {
                    prop_assert_eq!(&p, &before, "failed commit must not mutate");
                }
            }
        }
    }

    /// `earliest_fit` returns a window that actually fits, and no earlier
    /// boundary or the origin fits — i.e. it really is the earliest.
    #[test]
    fn earliest_fit_is_sound_and_minimal(
        p in arb_profile(),
        cpus in 1u32..=TOTAL,
        dur in 1u64..6_000,
        not_before in 0u64..8_000,
    ) {
        let nb = Time(not_before);
        if let Some(t) = p.earliest_fit(cpus, dur, nb) {
            prop_assert!(t >= nb);
            prop_assert!(p.can_fit(t, cpus, dur), "returned window must fit");
            // Minimality: candidate starts are `not_before` and segment
            // boundaries; anything strictly earlier must not fit.
            prop_assert!(t == nb || !p.can_fit(nb, cpus, dur));
            for &(seg_start, _) in p.segments() {
                if seg_start >= nb && seg_start < t {
                    prop_assert!(
                        !p.can_fit(seg_start, cpus, dur),
                        "earlier boundary {seg_start:?} fits but {t:?} was returned"
                    );
                }
            }
        } else {
            // The generated profiles are release-only (non-decreasing), so
            // a fit exists iff the final availability covers the request.
            let final_avail = p.segments().last().unwrap().1;
            prop_assert!(final_avail < cpus, "fit must exist when the tail has room");
        }
    }

    /// `min_available` over a window equals the pointwise minimum of
    /// `available_at` sampled at the window start and every boundary
    /// inside it.
    #[test]
    fn min_available_matches_pointwise(
        p in arb_profile(),
        start in 0u64..12_000,
        dur in 0u64..8_000,
    ) {
        let start = Time(start);
        let end = start.saturating_add(dur);
        let mut expected = p.available_at(start);
        for &(seg_start, _) in p.segments() {
            if seg_start > start && seg_start < end {
                expected = expected.min(p.available_at(seg_start));
            }
        }
        prop_assert_eq!(p.min_available(start, dur), expected);
    }

    /// The queries agree with the oracles on profiles shaped by random
    /// commits, releases and origin advances, probing every segment
    /// boundary (± 1) plus random offsets, with degenerate durations
    /// included.
    #[test]
    fn indexed_queries_match_linear_oracle(
        p in arb_profile(),
        mutations in arb_mutations(),
        probes in proptest::collection::vec((0u64..16_000, 0u64..10_000, 0u32..=TOTAL + 1), 1..24),
    ) {
        let mut p = p;
        mutate(&mut p, &mutations);
        p.check_invariants().map_err(TestCaseError::fail)?;
        let mut starts: Vec<u64> = p.segments().iter().map(|&(t, _)| t.as_secs()).collect();
        starts.extend(probes.iter().map(|&(t, _, _)| t));
        for &(seg_start, _) in p.segments() {
            starts.push(seg_start.as_secs().saturating_sub(1));
            starts.push(seg_start.as_secs().saturating_add(1));
        }
        for &t in &starts {
            for &(_, dur, cpus) in &probes {
                for d in [dur, 0, u64::MAX] {
                    prop_assert_eq!(
                        p.min_available(Time(t), d),
                        min_available_linear(&p, Time(t), d),
                        "min_available t={} dur={}", t, d
                    );
                    prop_assert_eq!(
                        p.earliest_fit(cpus, d, Time(t)),
                        earliest_fit_linear(&p, cpus, d, Time(t)),
                        "earliest_fit cpus={} dur={} not_before={}", cpus, d, t
                    );
                    prop_assert_eq!(
                        p.can_fit(Time(t), cpus, d),
                        cpus <= p.total() && min_available_linear(&p, Time(t), d) >= cpus,
                        "can_fit cpus={} dur={} start={}", cpus, d, t
                    );
                }
            }
        }
    }

    /// A committed window reduces availability by exactly `cpus` inside it
    /// and leaves it unchanged outside.
    #[test]
    fn commit_is_exact(
        p in arb_profile(),
        start in 0u64..10_000,
        dur in 1u64..4_000,
        cpus in 1u32..16,
    ) {
        let start = Time(start);
        let end = start + dur;
        let mut q = p.clone();
        if q.commit(start, end, cpus).is_ok() {
            // Probe inside, before, and after the window.
            let probes = [
                start,
                Time(start.as_secs() + dur / 2),
                Time(start.as_secs().saturating_sub(1)),
                end,
                Time(end.as_secs() + 10_000),
            ];
            for t in probes {
                let was = p.available_at(t);
                let now = q.available_at(t);
                if t >= start && t < end {
                    prop_assert_eq!(now, was - cpus, "inside window at {:?}", t);
                } else {
                    prop_assert_eq!(now, was, "outside window at {:?}", t);
                }
            }
        }
    }
}
