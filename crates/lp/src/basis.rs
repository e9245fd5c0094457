//! Warm-start basis handles.
//!
//! SherLock's Solver rebuilds its LP from scratch every round, but the
//! constraints only *accumulate*: the model solved in round `k+1` is the
//! round-`k` model plus new windows, new candidate variables, and the
//! resolve loop's `x = 1` fixings. Variable *indices* shift between rebuilds
//! as candidates appear, so a [`Basis`] records the optimal basis by
//! variable **name** — the one identity that is stable across rebuilds
//! (`read(f)^acq`-style names are deterministic per operation). Names are
//! stored as 64-bit FNV-1a fingerprints, computed once per variable when it
//! is added to the model.
//!
//! [`crate::Model::solve_warm`] maps a stored basis onto the new model
//! (unknown names are ignored, missing columns fall back to a bound), starts
//! the revised simplex from that vertex instead of the all-slack basis, and
//! writes the new optimum's basis back into the handle. Correctness never
//! depends on the mapping: a mismatched basis — or two names whose
//! fingerprints collide — only costs extra phase-1 pivots.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of a variable name: the identity a [`Basis`] keys
/// structural statuses by.
pub(crate) fn fingerprint(name: &str) -> u64 {
    name.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Seed of a word-wise content signature (see [`fold`]).
pub(crate) const SIG_SEED: u64 = FNV_OFFSET;

/// Folds one 64-bit word into a content signature. Row signatures and
/// hinge/abs tags fold `(fingerprint, coefficient bits)` words rather than
/// name bytes, so they cost two multiplies per coefficient.
pub(crate) fn fold(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// Hasher for maps keyed by fingerprints and signatures, which are already
/// hashes: one multiply spreads them over the table instead of SipHash.
#[derive(Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fold(self.0, u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = fold(self.0, w);
    }
}

/// A `HashMap` keyed by a fingerprint or signature.
pub(crate) type FpMap<V> = HashMap<u64, V, BuildHasherDefault<FpHasher>>;

/// Where one variable sat in an optimal basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis (value determined by the constraint system).
    Basic,
    /// Nonbasic at its lower bound (or at zero, for a free variable).
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
}

/// A by-name snapshot of an optimal simplex basis, reusable across model
/// rebuilds. An empty (default) basis makes [`crate::Model::solve_warm`]
/// behave exactly like a cold [`crate::Model::solve`].
#[derive(Clone, Debug, Default)]
pub struct Basis {
    /// Structural statuses keyed by the variable name's [`fingerprint`].
    statuses: FpMap<VarStatus>,
    /// Slack statuses keyed by a content signature of their row (rows have
    /// no names; the signature folds the row's `(fingerprint, coefficient)`
    /// pairs, relation, and rhs). Carrying these preserves the optimal
    /// active set — which rows were tight — not just which variables were
    /// basic.
    rows: FpMap<VarStatus>,
}

impl Basis {
    /// An empty basis (cold start).
    pub fn new() -> Self {
        Basis::default()
    }

    /// Whether no statuses are recorded.
    pub fn is_empty(&self) -> bool {
        self.statuses.is_empty() && self.rows.is_empty()
    }

    /// Number of recorded variable statuses.
    pub fn len(&self) -> usize {
        self.statuses.len()
    }

    /// Recorded status of a variable, by name.
    pub fn status(&self, name: &str) -> Option<VarStatus> {
        self.var_status(fingerprint(name))
    }

    /// Recorded status of a variable, by name fingerprint.
    pub(crate) fn var_status(&self, fp: u64) -> Option<VarStatus> {
        self.statuses.get(&fp).copied()
    }

    /// Number of recorded *basic* variables.
    pub fn basic_count(&self) -> usize {
        self.statuses
            .values()
            .filter(|s| **s == VarStatus::Basic)
            .count()
    }

    /// Forgets everything (next solve is cold).
    pub fn clear(&mut self) {
        self.statuses.clear();
        self.rows.clear();
    }

    pub(crate) fn record(&mut self, fp: u64, status: VarStatus) {
        self.statuses.insert(fp, status);
    }

    /// Recorded status of a row's slack, by row signature.
    pub(crate) fn row_status(&self, tag: u64) -> Option<VarStatus> {
        self.rows.get(&tag).copied()
    }

    pub(crate) fn record_row(&mut self, tag: u64, status: VarStatus) {
        self.rows.insert(tag, status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut b = Basis::new();
        assert!(b.is_empty());
        b.record(fingerprint("x^acq"), VarStatus::Basic);
        b.record(fingerprint("y^rel"), VarStatus::AtUpper);
        assert_eq!(b.len(), 2);
        assert_eq!(b.basic_count(), 1);
        assert_eq!(b.status("x^acq"), Some(VarStatus::Basic));
        assert_eq!(b.status("missing"), None);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn fingerprint_is_fnv1a() {
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
