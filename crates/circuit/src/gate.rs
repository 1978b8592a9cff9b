//! Quantum gates.
//!
//! The gate set covers everything the paper's circuits need: the classical
//! reversible gates (X, CNOT, Toffoli, general multi-controlled NOT, SWAP)
//! on which the verification algorithm operates, plus the non-classical
//! gates (H, Z, S, T, phase rotations) required by the Draper QFT adder of
//! Fig. 1.1 and by counterexample circuits.

use std::fmt;

/// A single gate application, with qubit operands given as dense indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Pauli X (NOT).
    X(usize),
    /// Hadamard.
    H(usize),
    /// Pauli Z.
    Z(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// Inverse phase gate S† = diag(1, −i).
    Sdg(usize),
    /// T gate = diag(1, e^{iπ/4}).
    T(usize),
    /// T† gate.
    Tdg(usize),
    /// Arbitrary phase rotation diag(1, e^{iθ}).
    Phase {
        /// Rotation angle in radians.
        theta: f64,
        /// Target qubit.
        q: usize,
    },
    /// Controlled NOT.
    Cnot {
        /// Control qubit.
        c: usize,
        /// Target qubit.
        t: usize,
    },
    /// Controlled Z.
    Cz {
        /// Control qubit.
        c: usize,
        /// Target qubit.
        t: usize,
    },
    /// Controlled phase rotation.
    CPhase {
        /// Rotation angle in radians.
        theta: f64,
        /// Control qubit.
        c: usize,
        /// Target qubit.
        t: usize,
    },
    /// Swap two qubits.
    Swap(usize, usize),
    /// Toffoli (CCNOT).
    Toffoli {
        /// First control.
        c1: usize,
        /// Second control.
        c2: usize,
        /// Target qubit.
        t: usize,
    },
    /// Multi-controlled NOT with an arbitrary number of controls.
    Mcx {
        /// Control qubits (must be distinct from each other and the target).
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
    },
}

impl Gate {
    /// The qubits this gate touches, in operand order.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::Mcx { controls, target } => {
                let mut v = controls.clone();
                v.push(*target);
                v
            }
            fixed => {
                let (qs, n) = fixed.fixed_qubits();
                qs[..n].to_vec()
            }
        }
    }

    /// The operands of a fixed-arity gate, in [`Gate::qubits`] order, as
    /// an array and its used length (no allocation); `([0; 3], 0)` for
    /// [`Gate::Mcx`].
    fn fixed_qubits(&self) -> ([usize; 3], usize) {
        match *self {
            Gate::X(q)
            | Gate::H(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Phase { q, .. } => ([q, 0, 0], 1),
            Gate::Cnot { c, t } | Gate::Cz { c, t } | Gate::CPhase { c, t, .. } => ([c, t, 0], 2),
            Gate::Swap(a, b) => ([a, b, 0], 2),
            Gate::Toffoli { c1, c2, t } => ([c1, c2, t], 3),
            Gate::Mcx { .. } => ([0; 3], 0),
        }
    }

    /// `true` when the gate permutes computational-basis states — i.e. it
    /// belongs to the classical fragment the symbolic verifier handles
    /// (X and multi-controlled NOT in the paper's terms, plus SWAP).
    pub fn is_classical(&self) -> bool {
        matches!(
            self,
            Gate::X(_)
                | Gate::Cnot { .. }
                | Gate::Toffoli { .. }
                | Gate::Mcx { .. }
                | Gate::Swap(..)
        )
    }

    /// The inverse gate (self-inverse gates return a clone).
    #[must_use]
    pub fn inverse(&self) -> Gate {
        match self {
            Gate::S(q) => Gate::Sdg(*q),
            Gate::Sdg(q) => Gate::S(*q),
            Gate::T(q) => Gate::Tdg(*q),
            Gate::Tdg(q) => Gate::T(*q),
            Gate::Phase { theta, q } => Gate::Phase {
                theta: -theta,
                q: *q,
            },
            Gate::CPhase { theta, c, t } => Gate::CPhase {
                theta: -theta,
                c: *c,
                t: *t,
            },
            other => other.clone(),
        }
    }

    /// A short mnemonic for reporting (`"x"`, `"cnot"`, `"toffoli"`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::X(_) => "x",
            Gate::H(_) => "h",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Phase { .. } => "phase",
            Gate::Cnot { .. } => "cnot",
            Gate::Cz { .. } => "cz",
            Gate::CPhase { .. } => "cphase",
            Gate::Swap(..) => "swap",
            Gate::Toffoli { .. } => "toffoli",
            Gate::Mcx { .. } => "mcx",
        }
    }

    /// Checks operand validity: distinct qubits, all below `num_qubits`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self, num_qubits: usize) -> Result<(), String> {
        let (fixed, n) = self.fixed_qubits();
        let mut owned = match self {
            Gate::Mcx { .. } => self.qubits(),
            _ => Vec::new(),
        };
        let qs = if owned.is_empty() {
            &fixed[..n]
        } else {
            &owned[..]
        };
        if let Some(q) = qs.iter().find(|&&q| q >= num_qubits) {
            return Err(format!(
                "gate {} references qubit {q} but the circuit has {num_qubits} qubits",
                self.name()
            ));
        }
        // Fixed arity: compare the pairs; MCX: sort its own operand list.
        let repeated = if owned.is_empty() {
            (1..n).any(|i| qs[..i].contains(&qs[i]))
        } else {
            owned.sort_unstable();
            owned.windows(2).any(|w| w[0] == w[1])
        };
        if repeated {
            return Err(format!("gate {} has repeated qubit operands", self.name()));
        }
        Ok(())
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Phase { theta, q } => write!(f, "phase({theta:.4})[{q}]"),
            Gate::CPhase { theta, c, t } => write!(f, "cphase({theta:.4})[{c},{t}]"),
            other => {
                let qs: Vec<String> = other.qubits().iter().map(|q| q.to_string()).collect();
                write!(f, "{}[{}]", other.name(), qs.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_lists() {
        assert_eq!(Gate::X(3).qubits(), vec![3]);
        assert_eq!(Gate::Cnot { c: 0, t: 2 }.qubits(), vec![0, 2]);
        assert_eq!(
            Gate::Mcx {
                controls: vec![0, 1, 2],
                target: 5
            }
            .qubits(),
            vec![0, 1, 2, 5]
        );
    }

    #[test]
    fn classical_fragment() {
        assert!(Gate::X(0).is_classical());
        assert!(Gate::Toffoli { c1: 0, c2: 1, t: 2 }.is_classical());
        assert!(!Gate::H(0).is_classical());
        assert!(!Gate::Phase { theta: 0.2, q: 0 }.is_classical());
    }

    #[test]
    fn inverses() {
        assert_eq!(Gate::S(1).inverse(), Gate::Sdg(1));
        assert_eq!(Gate::X(1).inverse(), Gate::X(1));
        let p = Gate::Phase { theta: 0.5, q: 0 };
        match p.inverse() {
            Gate::Phase { theta, q } => {
                assert_eq!(theta, -0.5);
                assert_eq!(q, 0);
            }
            other => panic!("unexpected inverse {other:?}"),
        }
    }

    #[test]
    fn validation() {
        assert!(Gate::Cnot { c: 0, t: 0 }.validate(4).is_err());
        assert!(Gate::Cnot { c: 0, t: 5 }.validate(4).is_err());
        assert!(Gate::Cnot { c: 0, t: 1 }.validate(4).is_ok());
        assert!(Gate::Mcx {
            controls: vec![0, 1, 1],
            target: 2
        }
        .validate(4)
        .is_err());
    }

    #[test]
    fn display() {
        assert_eq!(
            Gate::Toffoli { c1: 0, c2: 1, t: 2 }.to_string(),
            "toffoli[0,1,2]"
        );
    }
}
