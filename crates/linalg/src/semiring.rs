//! Semirings — the algebraic core of GraphBLAS-style graph algorithms.
//!
//! A [`Semiring`] supplies the (⊕, ⊗, 0) triple that replaces
//! (+, ×, 0.0) in matrix products. Choosing the semiring chooses the
//! graph algorithm: plus-times counts paths, min-plus computes shortest
//! distances, or-and computes reachability — the observation at the
//! heart of Kepner–Gilbert and of the paper's Fig. 4 machine.

/// A semiring over `T`: `add` is associative+commutative with identity
/// `zero()`; `mul` is associative and distributes over `add`; `zero`
/// annihilates `mul`. Sparse code also relies on `zero` being the
/// implicit value of absent entries.
pub trait Semiring<T: Copy>: Copy {
    /// The ⊕ identity / implicit sparse value.
    fn zero(&self) -> T;
    /// ⊕
    fn add(&self, a: T, b: T) -> T;
    /// ⊗
    fn mul(&self, a: T, b: T) -> T;
    /// Is this value the implicit zero (dropped from sparse output)?
    fn is_zero(&self, a: T) -> bool;
}

/// Implement [`Semiring`] from its (0, ⊕, ⊗) triple; `is_zero` compares
/// with the zero.
macro_rules! semiring {
    ($s:ty, $t:ty, $zero:expr, |$a:ident, $b:ident| $add:expr, $mul:expr) => {
        impl Semiring<$t> for $s {
            fn zero(&self) -> $t {
                $zero
            }
            fn add(&self, $a: $t, $b: $t) -> $t {
                $add
            }
            fn mul(&self, $a: $t, $b: $t) -> $t {
                $mul
            }
            fn is_zero(&self, a: $t) -> bool {
                a == $zero
            }
        }
    };
}

/// Standard arithmetic (+, ×, 0): path counting, PageRank, SpGEMM.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusTimes;
semiring!(PlusTimes, f64, 0.0, |a, b| a + b, a * b);
semiring!(PlusTimes, u64, 0, |a, b| a + b, a * b);

/// Tropical (min, +, ∞): shortest paths (Bellman–Ford as SpMV).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinPlus;
semiring!(MinPlus, f64, f64::INFINITY, |a, b| a.min(b), a + b);

/// Boolean (∨, ∧, false): reachability, BFS frontiers.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrAnd;
semiring!(OrAnd, bool, false, |a, b| a || b, a && b);

#[cfg(test)]
mod tests {
    use super::*;

    fn check_axioms<T: Copy + PartialEq + std::fmt::Debug>(s: impl Semiring<T>, vals: &[T]) {
        let z = s.zero();
        for &a in vals {
            assert_eq!(s.add(a, z), a, "additive identity");
            assert_eq!(s.add(z, a), a, "additive identity (comm)");
            assert!(s.is_zero(s.mul(a, z)), "zero annihilates");
            assert!(s.is_zero(s.mul(z, a)), "zero annihilates (left)");
            for &b in vals {
                assert_eq!(s.add(a, b), s.add(b, a), "add commutes");
                for &c in vals {
                    assert_eq!(
                        s.add(s.add(a, b), c),
                        s.add(a, s.add(b, c)),
                        "add associates"
                    );
                    assert_eq!(
                        s.mul(s.mul(a, b), c),
                        s.mul(a, s.mul(b, c)),
                        "mul associates"
                    );
                }
            }
        }
    }

    #[test]
    fn plus_times_axioms() {
        check_axioms::<f64>(PlusTimes, &[0.0, 1.0, 2.5, -3.0]);
        check_axioms::<u64>(PlusTimes, &[0, 1, 7]);
    }

    #[test]
    fn min_plus_axioms() {
        check_axioms::<f64>(MinPlus, &[f64::INFINITY, 0.0, 1.5, 10.0]);
        // Distributivity spot check: a + min(b,c) = min(a+b, a+c).
        let s = MinPlus;
        assert_eq!(
            s.mul(2.0, s.add(3.0, 5.0)),
            s.add(s.mul(2.0, 3.0), s.mul(2.0, 5.0))
        );
    }

    #[test]
    fn or_and_axioms() {
        check_axioms::<bool>(OrAnd, &[false, true]);
    }
}
