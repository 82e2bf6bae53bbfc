//! Processor pool with First Fit selection.
//!
//! The paper uses *First Fit* as its resource selection policy: a job is
//! mapped onto the lowest-indexed free processors. The pool tracks per-
//! processor occupancy in a bitset (one bit per processor, set = free) and
//! hands out allocations as sorted, disjoint index ranges ([`ProcSet`]),
//! which stay compact because First Fit naturally produces long runs.

/// A set of processor indices, stored as sorted, disjoint, non-adjacent
/// `[start, start+len)` ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcSet {
    ranges: Vec<(u32, u32)>, // (start, len), sorted by start
}

impl ProcSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ProcSet { ranges: Vec::new() }
    }

    /// Creates a set holding the single range `[start, start+len)`.
    pub fn from_range(start: u32, len: u32) -> Self {
        if len == 0 {
            return ProcSet::new();
        }
        ProcSet {
            ranges: vec![(start, len)],
        }
    }

    /// Number of processors in the set.
    pub fn count(&self) -> u32 {
        self.ranges.iter().map(|&(_, l)| l).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Appends a processor index; indices must be pushed in increasing
    /// order (the pool's First Fit scan guarantees this).
    fn push(&mut self, idx: u32) {
        if let Some(last) = self.ranges.last_mut() {
            debug_assert!(
                idx >= last.0 + last.1,
                "ProcSet::push requires increasing indices"
            );
            if idx == last.0 + last.1 {
                last.1 += 1;
                return;
            }
        }
        self.ranges.push((idx, 1));
    }

    /// Iterates the contained indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges.iter().flat_map(|&(s, l)| s..s + l)
    }

    /// The ranges `(start, len)` making up the set.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Whether the set contains `idx`.
    pub fn contains(&self, idx: u32) -> bool {
        self.ranges
            .binary_search_by(|&(s, l)| {
                if idx < s {
                    std::cmp::Ordering::Greater
                } else if idx >= s + l {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Whether the two sets share any processor.
    pub fn intersects(&self, other: &ProcSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (s1, l1) = self.ranges[i];
            let (s2, l2) = other.ranges[j];
            if s1 + l1 <= s2 {
                i += 1;
            } else if s2 + l2 <= s1 {
                j += 1;
            } else {
                return true;
            }
        }
        false
    }

    /// The smallest index in the set, if any.
    pub fn first(&self) -> Option<u32> {
        self.ranges.first().map(|&(s, _)| s)
    }
}

/// How processors are picked for a job once it is cleared to start.
///
/// The *resource selection policy* of the paper's simulator (Section 3.1):
/// job scheduling decides **when** a job runs, resource selection decides
/// **which processors** it gets. The paper uses First Fit; the others are
/// provided for the selection-policy ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Lowest-indexed free processors (the paper's policy). Never fails
    /// when enough processors are free.
    #[default]
    FirstFit,
    /// The first (lowest-indexed) *contiguous run* of free processors.
    /// Fails under fragmentation even when enough processors are free —
    /// models machines that require contiguous partitions.
    ContiguousFirstFit,
    /// Highest-indexed free processors. Never fails when enough are free;
    /// a contrast policy that concentrates fragmentation at the low end.
    LastFit,
}

/// The machine's processors, with bitset occupancy and First Fit selection.
#[derive(Debug, Clone)]
pub struct ProcessorPool {
    words: Vec<u64>, // bit set ⇒ processor free
    total: u32,
    free: u32,
}

impl ProcessorPool {
    /// Creates a pool of `total` processors, all free.
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "a cluster needs at least one processor");
        let nwords = (total as usize).div_ceil(64);
        let mut words = vec![u64::MAX; nwords];
        // Clear the bits beyond `total` in the last word.
        let tail = total as usize % 64;
        if tail != 0 {
            words[nwords - 1] = (1u64 << tail) - 1;
        }
        ProcessorPool {
            words,
            total,
            free: total,
        }
    }

    /// Total processor count.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Currently free processor count.
    #[inline]
    pub fn free_count(&self) -> u32 {
        self.free
    }

    /// Whether processor `idx` is free.
    pub fn is_free(&self, idx: u32) -> bool {
        debug_assert!(idx < self.total);
        self.words[idx as usize / 64] & (1 << (idx % 64)) != 0
    }

    /// Allocates the `n` lowest-indexed free processors (First Fit),
    /// or returns `None` (changing nothing) if fewer than `n` are free.
    pub fn allocate_first_fit(&mut self, n: u32) -> Option<ProcSet> {
        if n > self.free {
            return None;
        }
        if n == 0 {
            return Some(ProcSet::new());
        }
        let mut set = ProcSet::new();
        let mut remaining = n;
        for (w, word) in self.words.iter_mut().enumerate() {
            while *word != 0 && remaining > 0 {
                let bit = word.trailing_zeros();
                let idx = (w * 64) as u32 + bit;
                *word &= !(1u64 << bit);
                set.push(idx);
                remaining -= 1;
            }
            if remaining == 0 {
                break;
            }
        }
        debug_assert_eq!(remaining, 0, "free count said {} were available", n);
        self.free -= n;
        Some(set)
    }

    /// Allocates `n` processors under the given selection policy, or
    /// returns `None` (changing nothing) if the policy cannot serve the
    /// request. Only [`SelectionPolicy::ContiguousFirstFit`] can fail while
    /// `n <= free_count()`.
    pub fn allocate(&mut self, n: u32, policy: SelectionPolicy) -> Option<ProcSet> {
        match policy {
            SelectionPolicy::FirstFit => self.allocate_first_fit(n),
            SelectionPolicy::ContiguousFirstFit => self.allocate_contiguous(n),
            SelectionPolicy::LastFit => self.allocate_last_fit(n),
        }
    }

    /// Allocates the lowest-indexed run of `n` *consecutive* free
    /// processors, or `None` if no such run exists.
    pub fn allocate_contiguous(&mut self, n: u32) -> Option<ProcSet> {
        if n > self.free {
            return None;
        }
        if n == 0 {
            return Some(ProcSet::new());
        }
        // Scan maximal runs of set bits across word boundaries.
        let mut run_start = 0u32;
        let mut run_len = 0u32;
        for idx in 0..self.total {
            if self.words[idx as usize / 64] & (1 << (idx % 64)) != 0 {
                if run_len == 0 {
                    run_start = idx;
                }
                run_len += 1;
                if run_len == n {
                    for i in run_start..run_start + n {
                        self.words[i as usize / 64] &= !(1u64 << (i % 64));
                    }
                    self.free -= n;
                    return Some(ProcSet::from_range(run_start, n));
                }
            } else {
                run_len = 0;
            }
        }
        None
    }

    /// Allocates the `n` highest-indexed free processors.
    pub fn allocate_last_fit(&mut self, n: u32) -> Option<ProcSet> {
        if n > self.free {
            return None;
        }
        if n == 0 {
            return Some(ProcSet::new());
        }
        let mut picked: Vec<u32> = Vec::with_capacity(n as usize);
        let mut remaining = n;
        'outer: for w in (0..self.words.len()).rev() {
            while self.words[w] != 0 {
                let bit = 63 - self.words[w].leading_zeros();
                let idx = (w * 64) as u32 + bit;
                self.words[w] &= !(1u64 << bit);
                picked.push(idx);
                remaining -= 1;
                if remaining == 0 {
                    break 'outer;
                }
            }
        }
        debug_assert_eq!(remaining, 0);
        self.free -= n;
        picked.reverse(); // ProcSet::push requires increasing indices
        let mut set = ProcSet::new();
        for idx in picked {
            set.push(idx);
        }
        Some(set)
    }

    /// Whether `policy` could serve a request for `n` processors *right
    /// now*, without changing the pool.
    pub fn can_allocate(&self, n: u32, policy: SelectionPolicy) -> bool {
        if n > self.free {
            return false;
        }
        match policy {
            SelectionPolicy::FirstFit | SelectionPolicy::LastFit => true,
            SelectionPolicy::ContiguousFirstFit => {
                if n == 0 {
                    return true;
                }
                let mut run = 0u32;
                for idx in 0..self.total {
                    if self.words[idx as usize / 64] & (1 << (idx % 64)) != 0 {
                        run += 1;
                        if run == n {
                            return true;
                        }
                    } else {
                        run = 0;
                    }
                }
                false
            }
        }
    }

    /// Releases a previously allocated set back to the pool.
    ///
    /// # Panics
    /// Panics (in debug builds) if any processor in `set` was already free —
    /// that would mean double-release, a scheduler bug.
    pub fn release(&mut self, set: &ProcSet) {
        for &(start, len) in set.ranges() {
            for idx in start..start + len {
                let (w, b) = (idx as usize / 64, idx % 64);
                debug_assert_eq!(
                    self.words[w] & (1 << b),
                    0,
                    "double release of processor {idx}"
                );
                self.words[w] |= 1 << b;
            }
        }
        self.free += set.count();
        debug_assert!(self.free <= self.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procset_ranges_compact() {
        let mut s = ProcSet::new();
        for i in [0u32, 1, 2, 5, 6, 9] {
            s.push(i);
        }
        assert_eq!(s.ranges(), &[(0, 3), (5, 2), (9, 1)]);
        assert_eq!(s.count(), 6);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 5, 6, 9]);
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn procset_contains() {
        let s = ProcSet {
            ranges: vec![(2, 3), (10, 1)],
        };
        for i in [2, 3, 4, 10] {
            assert!(s.contains(i), "{i}");
        }
        for i in [0, 1, 5, 9, 11] {
            assert!(!s.contains(i), "{i}");
        }
    }

    #[test]
    fn procset_intersects() {
        let a = ProcSet {
            ranges: vec![(0, 4)],
        };
        let b = ProcSet {
            ranges: vec![(4, 4)],
        };
        let c = ProcSet {
            ranges: vec![(3, 1)],
        };
        assert!(!a.intersects(&b));
        assert!(a.intersects(&c));
        assert!(!b.intersects(&c));
        assert!(!a.intersects(&ProcSet::new()));
    }

    #[test]
    fn pool_first_fit_takes_lowest() {
        let mut p = ProcessorPool::new(10);
        let a = p.allocate_first_fit(4).unwrap();
        assert_eq!(a.ranges(), &[(0, 4)]);
        assert_eq!(p.free_count(), 6);
        let b = p.allocate_first_fit(3).unwrap();
        assert_eq!(b.ranges(), &[(4, 3)]);
        // Free the first block; next allocation reuses the hole first.
        p.release(&a);
        let c = p.allocate_first_fit(6).unwrap();
        assert_eq!(c.ranges(), &[(0, 4), (7, 2)]);
        assert_eq!(p.free_count(), 1);
    }

    #[test]
    fn pool_rejects_oversize_without_change() {
        let mut p = ProcessorPool::new(8);
        let _a = p.allocate_first_fit(5).unwrap();
        assert!(p.allocate_first_fit(4).is_none());
        assert_eq!(p.free_count(), 3);
    }

    #[test]
    fn pool_exact_word_boundaries() {
        let mut p = ProcessorPool::new(64);
        let a = p.allocate_first_fit(64).unwrap();
        assert_eq!(a.count(), 64);
        assert_eq!(p.free_count(), 0);
        p.release(&a);
        assert_eq!(p.free_count(), 64);

        let mut p = ProcessorPool::new(65);
        let a = p.allocate_first_fit(65).unwrap();
        assert_eq!(a.ranges(), &[(0, 65)]);
        p.release(&a);
        assert_eq!(p.free_count(), 65);
    }

    #[test]
    fn pool_large_cluster() {
        // The paper's largest system: LLNL Atlas, 9216 processors.
        let mut p = ProcessorPool::new(9216);
        assert_eq!(p.free_count(), 9216);
        let a = p.allocate_first_fit(9216).unwrap();
        assert_eq!(a.count(), 9216);
        assert!(p.allocate_first_fit(1).is_none());
        p.release(&a);
        assert_eq!(p.free_count(), 9216);
    }

    #[test]
    fn allocate_zero_is_empty() {
        let mut p = ProcessorPool::new(4);
        let a = p.allocate_first_fit(0).unwrap();
        assert!(a.is_empty());
        assert_eq!(p.free_count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn pool_rejects_zero_total() {
        let _ = ProcessorPool::new(0);
    }

    #[test]
    fn contiguous_allocation_needs_a_run() {
        let mut p = ProcessorPool::new(16);
        let a = p.allocate_first_fit(4).unwrap(); // [0,4)
        let _b = p.allocate_first_fit(4).unwrap(); // [4,8)
        p.release(&a); // free: [0,4) and [8,16)
        assert!(p.can_allocate(8, SelectionPolicy::ContiguousFirstFit));
        let c = p.allocate_contiguous(8).unwrap();
        assert_eq!(
            c.ranges(),
            &[(8, 8)],
            "first contiguous run of 8 starts at 8"
        );
        // 12 free processors total but no contiguous run of 5 left.
        p.release(&c);
        let _d = p.allocate_first_fit(2).unwrap(); // occupies [0,2) — wait, [0,4) free, takes 0,1
                                                   // free now: [2,4) and [8,16): runs of 2 and 8.
        assert!(p.can_allocate(8, SelectionPolicy::ContiguousFirstFit));
        assert!(!p.can_allocate(9, SelectionPolicy::ContiguousFirstFit));
        assert!(p.allocate_contiguous(9).is_none());
        assert!(
            p.can_allocate(9, SelectionPolicy::FirstFit),
            "non-contiguous still fits"
        );
    }

    #[test]
    fn contiguous_run_across_word_boundary() {
        let mut p = ProcessorPool::new(130);
        let a = p.allocate_first_fit(60).unwrap(); // [0,60)
        let run = p.allocate_contiguous(70).unwrap(); // must span words 0..3
        assert_eq!(run.ranges(), &[(60, 70)]);
        p.release(&a);
        p.release(&run);
        assert_eq!(p.free_count(), 130);
    }

    #[test]
    fn last_fit_takes_highest() {
        let mut p = ProcessorPool::new(70);
        let a = p.allocate_last_fit(3).unwrap();
        assert_eq!(a.ranges(), &[(67, 3)]);
        let b = p.allocate_last_fit(66).unwrap();
        assert_eq!(b.ranges(), &[(1, 66)]);
        assert_eq!(p.free_count(), 1);
        assert!(p.is_free(0));
        p.release(&a);
        p.release(&b);
        assert_eq!(p.free_count(), 70);
    }

    #[test]
    fn allocate_dispatches_policy() {
        let mut p = ProcessorPool::new(8);
        let ff = p.allocate(2, SelectionPolicy::FirstFit).unwrap();
        assert_eq!(ff.ranges(), &[(0, 2)]);
        let lf = p.allocate(2, SelectionPolicy::LastFit).unwrap();
        assert_eq!(lf.ranges(), &[(6, 2)]);
        let cf = p.allocate(4, SelectionPolicy::ContiguousFirstFit).unwrap();
        assert_eq!(cf.ranges(), &[(2, 4)]);
        assert_eq!(p.free_count(), 0);
    }

    #[test]
    fn zero_requests_always_succeed() {
        let mut p = ProcessorPool::new(4);
        for policy in [
            SelectionPolicy::FirstFit,
            SelectionPolicy::ContiguousFirstFit,
            SelectionPolicy::LastFit,
        ] {
            assert!(p.allocate(0, policy).unwrap().is_empty());
            assert!(p.can_allocate(0, policy));
        }
    }

    #[test]
    fn interleaved_alloc_release_is_consistent() {
        let mut p = ProcessorPool::new(100);
        let mut held: Vec<ProcSet> = Vec::new();
        // Deterministic pseudo-random walk.
        let mut state = 0x12345u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state.is_multiple_of(3) && !held.is_empty() {
                let idx = (state / 3) as usize % held.len();
                let s = held.swap_remove(idx);
                p.release(&s);
            } else {
                let n = (state % 17) as u32;
                if let Some(s) = p.allocate_first_fit(n) {
                    // No overlap with anything currently held.
                    for h in &held {
                        assert!(!h.intersects(&s));
                    }
                    held.push(s);
                }
            }
            let held_total: u32 = held.iter().map(|s| s.count()).sum();
            assert_eq!(p.free_count() + held_total, 100);
        }
    }
}
