//! The temporal algebra of `when` and `valid` clauses, as a value type.
//!
//! TQuel's temporal expressions denote *events* and *intervals* built from
//! the implicit time attributes of participating tuples. A [`TInterval`]
//! is a pair of bounds at one-second resolution, with an event being the
//! degenerate case `lo == hi`. The predicates compare the stored attribute
//! values directly with `<=`, following TQuel's tuple calculus semantics:
//!
//! * `a overlap b` — the intervals share an instant: `max(lo) <= min(hi)`.
//! * `a precede b` — `a` ends no later than `b` begins: `a.hi <= b.lo`
//!   (meeting intervals precede, as in TQuel).
//! * `a equal b` — identical bounds.
//!
//! Queries do not evaluate this type: the binder lowers the same rules to
//! comparisons over the valid-time attributes
//! ([`crate::binder::Binder::lower_tpred`]). It builds stored rows, and it
//! is the model the lowering is tested against.
//!
//! Version *visibility* (whether a stored version exists at a given
//! transaction time) uses the half-open rule `start <= t < stop` instead —
//! see [`crate::bound::Visibility`] — so that a rollback to the exact
//! instant of an update sees exactly one version of each tuple.

use tdbms_kernel::TimeVal;

/// An interval (or degenerate event) in either valid or transaction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TInterval {
    /// First instant.
    pub lo: TimeVal,
    /// Last instant (inclusive, per the stored-attribute-value semantics).
    pub hi: TimeVal,
}

impl TInterval {
    /// An interval from `lo` to `hi`.
    pub fn new(lo: TimeVal, hi: TimeVal) -> Self {
        TInterval { lo, hi }
    }

    /// A degenerate event at `t`.
    pub fn event(t: TimeVal) -> Self {
        TInterval { lo: t, hi: t }
    }

    /// True if the bounds are inverted (an empty intersection result).
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// True for a degenerate event.
    pub fn is_event(&self) -> bool {
        self.lo == self.hi
    }

    /// `start of e` — the first instant as an event.
    pub fn start(&self) -> TInterval {
        TInterval::event(self.lo)
    }

    /// `end of e` — the last instant as an event.
    pub fn end(&self) -> TInterval {
        TInterval::event(self.hi)
    }

    /// `a overlap b` as a constructor: the intersection (possibly empty).
    pub fn intersect(&self, other: &TInterval) -> TInterval {
        TInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// `a extend b` as a constructor: the smallest covering interval.
    pub fn span(&self, other: &TInterval) -> TInterval {
        TInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The `overlap` predicate.
    pub fn overlaps(&self, other: &TInterval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The `precede` predicate.
    pub fn precedes(&self, other: &TInterval) -> bool {
        self.hi <= other.lo
    }

    /// The `equal` predicate.
    pub fn equals(&self, other: &TInterval) -> bool {
        self.lo == other.lo && self.hi == other.hi
    }

    /// Does this interval contain the instant `t`?
    pub fn contains(&self, t: TimeVal) -> bool {
        self.lo <= t && t <= self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u32) -> TimeVal {
        TimeVal::from_secs(secs)
    }

    fn iv(lo: u32, hi: u32) -> TInterval {
        TInterval::new(t(lo), t(hi))
    }

    #[test]
    fn intersect_and_span() {
        let a = iv(10, 20);
        let b = iv(15, 30);
        assert_eq!(a.intersect(&b), iv(15, 20));
        assert_eq!(a.span(&b), iv(10, 30));
        assert!(a.overlaps(&b));
        let c = iv(25, 30);
        assert!(a.intersect(&c).is_empty());
        assert!(!a.overlaps(&c));
        assert_eq!(a.span(&c), iv(10, 30));
    }

    #[test]
    fn meeting_intervals_overlap_at_the_boundary() {
        // Shared endpoint: attribute-value semantics say they overlap and
        // also that the first precedes the second.
        let a = iv(10, 20);
        let b = iv(20, 30);
        assert!(a.overlaps(&b));
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
    }

    #[test]
    fn events_behave_as_degenerate_intervals() {
        let e = TInterval::event(t(15));
        assert!(e.is_event());
        assert!(iv(10, 20).overlaps(&e));
        assert!(!iv(16, 20).overlaps(&e));
        assert!(e.precedes(&iv(15, 99)));
        assert!(e.precedes(&e));
    }

    #[test]
    fn start_end_are_events() {
        let a = iv(10, 20);
        assert_eq!(a.start(), TInterval::event(t(10)));
        assert_eq!(a.end(), TInterval::event(t(20)));
        assert!(a.start().is_event());
    }

    #[test]
    fn forever_bound_current_versions() {
        let current = TInterval::new(t(100), TimeVal::FOREVER);
        let now = TInterval::event(t(5000));
        assert!(current.overlaps(&now));
        assert!(current.contains(t(100)));
        assert!(current.contains(TimeVal::FOREVER));
        let closed = iv(100, 200);
        assert!(!closed.overlaps(&TInterval::event(t(5000))));
    }

    #[test]
    fn equal_predicate() {
        assert!(iv(1, 5).equals(&iv(1, 5)));
        assert!(!iv(1, 5).equals(&iv(1, 6)));
    }
}
