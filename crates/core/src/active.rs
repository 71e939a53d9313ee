//! [`ActiveSet`]: the occupancy sets the fast stepper scans instead of
//! every port, VC, link or endpoint (DESIGN §6c).

/// A duplicate-free set of indices drawn from a universe `0..len` fixed
/// at construction: pending input slots, granted input VCs, staged output
/// VCs, busy links, NI VCs and endpoints that can send.
///
/// A bitset of `u64` words, so membership and ascending order are the
/// same bits: `insert`, `remove` and `contains` are O(1) and iteration
/// visits members in the ascending order of the full-scan oracles, which
/// the fairness rotation and the float-accumulation order depend on. The
/// member count lets the empty test and the scan of an empty set skip
/// `words`. `==` compares universes and members.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl ActiveSet {
    /// An empty set over the universe `0..len`.
    pub(crate) fn new(len: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; len.div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// The set of every `i` in `0..len` for which `member(i)` holds: how
    /// a restore rebuilds a set and how the audit re-derives it.
    pub(crate) fn from_fn(len: usize, mut member: impl FnMut(usize) -> bool) -> ActiveSet {
        let mut set = ActiveSet::new(len);
        for i in (0..len).filter(|&i| member(i)) {
            set.insert(i);
        }
        set
    }

    /// Adds `i`; returns whether it was absent.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "{i} outside the universe 0..{}", self.len);
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let absent = self.words[w] & bit == 0;
        if absent {
            self.words[w] |= bit;
            self.count += 1;
        }
        absent
    }

    /// Removes `i`; returns whether it was present.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "{i} outside the universe 0..{}", self.len);
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let present = self.words[w] & bit != 0;
        if present {
            self.words[w] &= !bit;
            self.count -= 1;
        }
        present
    }

    /// Whether `i` is a member.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Whether the set has no members.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The members in ascending order.
    #[inline]
    pub(crate) fn iter(&self) -> Iter<'_> {
        self.range(0, self.len)
    }

    /// The members rotated from `start`: those `>= start` ascending, then
    /// the wrap-around (those `< start`) ascending — the order of a full
    /// scan that starts at a rotating cursor.
    #[inline]
    pub(crate) fn iter_from(&self, start: usize) -> std::iter::Chain<Iter<'_>, Iter<'_>> {
        self.range(start, self.len).chain(self.range(0, start))
    }

    /// Visits the members in ascending order and removes those for which
    /// `keep` returns `false`.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for w in 0..self.words.len() {
            let mut bits = self.words[w];
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                if !keep(w * 64 + b as usize) {
                    self.words[w] &= !(1u64 << b);
                    self.count -= 1;
                }
            }
        }
    }

    /// The members in `lo..hi`, ascending.
    #[inline]
    fn range(&self, lo: usize, hi: usize) -> Iter<'_> {
        let words = match self.count {
            0 => &[],
            _ => &self.words[lo / 64..hi.div_ceil(64)],
        };
        Iter {
            bits: words.first().map_or(0, |&w| w & (!0u64 << (lo % 64))),
            words: words.get(1..).unwrap_or_default(),
            base: lo / 64 * 64,
            hi,
        }
    }
}

/// Ascending iterator over the members of an [`ActiveSet`] below `hi`.
pub(crate) struct Iter<'a> {
    /// Members not yet yielded of the word that starts at index `base`.
    bits: u64,
    /// The words after that one.
    words: &'a [u64],
    base: usize,
    hi: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (&w, rest) = self.words.split_first()?;
            (self.bits, self.words, self.base) = (w, rest, self.base + 64);
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        (i < self.hi).then_some(i)
    }
}

impl std::fmt::Debug for ActiveSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random inserts and removes over random universes (most not a
        /// multiple of 64) keep the set equal to a `BTreeSet` model:
        /// membership, ascending and rotated iteration, `retain` and
        /// equality with a set rebuilt by `from_fn`. Two in three ops
        /// insert, so sets fill up as well as drain.
        #[test]
        fn active_set_matches_a_btreeset_model(
            len in 1usize..200,
            ops in collection::vec((0u32..3, 0usize..1000), 0..80),
        ) {
            let mut set = ActiveSet::new(len);
            let mut model = BTreeSet::new();
            for &(op, x) in &ops {
                let i = x % len;
                if op < 2 {
                    prop_assert_eq!(set.insert(i), model.insert(i));
                } else {
                    prop_assert_eq!(set.remove(i), model.remove(&i));
                }
                for j in 0..len {
                    prop_assert_eq!(set.contains(j), model.contains(&j));
                }
                prop_assert!(!set.contains(len));
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                for start in 0..len {
                    let rotated: Vec<usize> = model.range(start..).chain(model.range(..start)).copied().collect();
                    prop_assert_eq!(set.iter_from(start).collect::<Vec<_>>(), rotated);
                }
                prop_assert_eq!(&set, &ActiveSet::from_fn(len, |j| model.contains(&j)));
                prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
            }
            let mut kept = set.clone();
            let mut visited = Vec::new();
            kept.retain(|j| {
                visited.push(j);
                j % 3 != 0
            });
            prop_assert_eq!(visited, model.iter().copied().collect::<Vec<_>>());
            model.retain(|j| j % 3 != 0);
            prop_assert_eq!(kept, ActiveSet::from_fn(len, |j| model.contains(&j)));
        }
    }

    #[test]
    fn sets_over_different_universes_differ() {
        assert_ne!(ActiveSet::new(10), ActiveSet::new(20));
        assert_eq!(ActiveSet::new(70), ActiveSet::from_fn(70, |_| false));
        let full = ActiveSet::from_fn(128, |_| true);
        assert_eq!(full.iter_from(64).take(2).collect::<Vec<_>>(), [64, 65]);
        assert_eq!(full.iter_from(127).nth(1), Some(0));
    }
}
