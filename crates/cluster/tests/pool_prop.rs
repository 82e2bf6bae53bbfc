//! Property tests for the processor pool: random allocate/release
//! sequences on machine sizes either side of 64-bit word edges, each call
//! checked against a naive pool of one flag per processor that picks
//! processors the way the reference scheduler (`tests/reference/`) does.

#![allow(clippy::unwrap_used)]
use bsld_cluster::{ProcSet, ProcessorPool, SelectionPolicy};
use proptest::prelude::*;

const POLICIES: [SelectionPolicy; 3] = [
    SelectionPolicy::FirstFit,
    SelectionPolicy::ContiguousFirstFit,
    SelectionPolicy::LastFit,
];

/// The naive pool: `free[p]` says whether processor `p` is free.
struct Naive {
    free: Vec<bool>,
}

impl Naive {
    /// The processors `policy` picks for `n`, or `None` if it cannot.
    fn select(&self, n: u32, policy: SelectionPolicy) -> Option<Vec<u32>> {
        let n = n as usize;
        let free = self.free_list();
        if free.len() < n {
            return None;
        }
        match policy {
            SelectionPolicy::FirstFit => Some(free[..n].to_vec()),
            SelectionPolicy::LastFit => Some(free[free.len() - n..].to_vec()),
            SelectionPolicy::ContiguousFirstFit => (0..=self.free.len() - n)
                .find(|&s| self.free[s..s + n].iter().all(|&f| f))
                .map(|s| (s as u32..(s + n) as u32).collect()),
        }
    }

    /// The free processors.
    fn free_list(&self) -> Vec<u32> {
        (0..self.free.len() as u32)
            .filter(|&p| self.free[p as usize])
            .collect()
    }
}

/// The canonical ranges of increasing indices: sorted, disjoint and
/// non-adjacent, the form [`ProcSet::ranges`] promises.
fn canonical(idx: &[u32]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &i in idx {
        match out.last_mut() {
            Some(last) if last.0 + last.1 == i => last.1 += 1,
            _ => out.push((i, 1)),
        }
    }
    out
}

/// The pool's free processors, read through First Fit on a copy.
fn free_ranges(pool: &ProcessorPool) -> Vec<(u32, u32)> {
    let set = pool.clone().allocate_first_fit(pool.free_count()).unwrap();
    set.ranges().to_vec()
}

/// Machine sizes: 1–200 (every word edge up to the fourth word) and the
/// paper-scale 1 024, 4 008 and 9 216.
fn arb_total() -> impl Strategy<Value = u32> {
    (0u32..8, 1u32..=200).prop_map(|(k, small)| match k {
        0 => 1024,
        1 => 4008,
        2 => 9216,
        _ => small,
    })
}

/// Calls `(kind, size, pick)`: kinds 0–4 allocate under `POLICIES[kind %
/// 3]` a count `size` picks below 70, up to one more than is free, or up
/// to one more than the machine; kinds 5–7 release the held set `pick`
/// selects.
fn arb_calls() -> impl Strategy<Value = Vec<(u8, u8, u32)>> {
    proptest::collection::vec((0u8..8, 0u8..3, 0u32..1 << 20), 0..80)
}

/// Replays `calls` on a pool of `total` processors and on the naive pool,
/// checking every call.
fn check(total: u32, calls: &[(u8, u8, u32)]) -> Result<(), TestCaseError> {
    let mut pool = ProcessorPool::new(total);
    let mut naive = Naive {
        free: vec![true; total as usize],
    };
    let mut held: Vec<ProcSet> = Vec::new();
    for (step, &(kind, size, pick)) in calls.iter().enumerate() {
        if kind >= 5 {
            if held.is_empty() {
                continue;
            }
            let set = held.swap_remove(pick as usize % held.len());
            pool.release(&set);
            for &(s, l) in set.ranges() {
                for p in s..s + l {
                    prop_assert!(!naive.free[p as usize], "step {step}: {p} held twice");
                    naive.free[p as usize] = true;
                }
            }
        } else {
            let policy = POLICIES[kind as usize % 3];
            let n = match size {
                0 => pick % 70,
                1 => pick % (pool.free_count() + 2),
                _ => pick % (total + 2),
            };
            let before = free_ranges(&pool);
            let can = pool.can_allocate(n, policy);
            let want = naive.select(n, policy);
            let got = pool.allocate(n, policy);
            prop_assert_eq!(
                can,
                got.is_some(),
                "step {step}: can_allocate({n}, {policy:?})"
            );
            match (got, want) {
                (Some(got), Some(want)) => {
                    prop_assert_eq!(
                        got.ranges(),
                        &canonical(&want)[..],
                        "step {step}: {policy:?} of {n} on {total}"
                    );
                    for &p in &want {
                        naive.free[p as usize] = false;
                    }
                    held.push(got);
                }
                (None, None) => {
                    prop_assert_eq!(
                        free_ranges(&pool),
                        before,
                        "step {step}: None changed the pool"
                    );
                }
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "step {step}: {policy:?} of {n} on {total}: got {got:?}, want {want:?}"
                    )));
                }
            }
        }
        let free = naive.free_list();
        prop_assert_eq!(
            pool.free_count(),
            free.len() as u32,
            "step {step}: free_count"
        );
        prop_assert_eq!(
            free_ranges(&pool),
            canonical(&free),
            "step {step}: free set"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every allocation picks the naive pool's processors, in canonical
    /// ranges; every release frees exactly its set; `free_count` and
    /// `can_allocate` agree with the naive pool; a refused request changes
    /// nothing.
    #[test]
    fn pool_matches_naive_oracle(total in arb_total(), calls in arb_calls()) {
        check(total, &calls)?;
    }
}

/// Every request size under each policy on machines ending either side of
/// a word edge: on an empty pool, and on pools whose only busy processors
/// sit at word edges: {63, 64, 128, 129}, {63, 128} and {64, 127}.
#[test]
fn word_edge_requests_match_naive_oracle() {
    for total in [63, 64, 65, 127, 128, 129, 191, 192, 193] {
        for n in 0..=total + 1 {
            for kind in 0..3 {
                check(total, &[(kind, 2, n)]).unwrap();
                for [a, b, c, d] in [[63, 2, 63, 2], [63, 1, 64, 1], [64, 1, 62, 1]] {
                    // First Fit takes four blocks; the first and the third
                    // go back.
                    let take = |n| (0, 2, n);
                    let calls = [
                        take(a),
                        take(b),
                        take(c),
                        take(d),
                        (5, 0, 0),
                        (5, 0, 2),
                        (kind, 2, n),
                    ];
                    check(total, &calls).unwrap();
                }
            }
        }
    }
}
