//! Seeded workload inputs, each with the verdicts fixed by its
//! construction — never by asking the verifier.
//!
//! * The paper's adders and MCX circuits are safe for every target.
//! * Inserting `X[x]; X[x];` anywhere is the identity, so it keeps the
//!   verdicts of the source it edits.
//! * Appending `CNOT[a[i], q[j]]` to an adder leaves `a[i]` restored but
//!   makes `q[j]`'s output depend on it: exactly `a[i]` is unsafe (a
//!   dirty-qubit leak).
//! * `CNOT[anc, t]` just before `release anc` in the MCX circuit copies
//!   the ancilla into the target: `anc` is unsafe (a missing uncompute).

use qb_circuit::Gate;
use qb_lang::{adder_source, elaborate, mcx_source, parse};
use qb_testutil::Rng;

/// One program with its known answer.
#[derive(Debug, Clone)]
pub struct Program {
    /// Row name (`adder-128`, `mcx-128-leak`, ...).
    pub name: String,
    /// QBorrow surface source.
    pub source: String,
    /// Source-level names of the targets that must come back unsafe;
    /// every other target must come back safe.
    pub unsafe_names: Vec<String>,
}

pub fn adder(n: usize) -> Program {
    Program {
        name: format!("adder-{n}"),
        source: adder_source(n),
        unsafe_names: Vec::new(),
    }
}

pub fn mcx(m: usize) -> Program {
    Program {
        name: format!("mcx-{m}"),
        source: mcx_source(m),
        unsafe_names: Vec::new(),
    }
}

/// `adder(n)` with `CNOT[a[i], q[j]]` appended, `i` and `j` drawn from
/// `rng`.
pub fn adder_leak(n: usize, rng: &mut Rng) -> Program {
    let i = rng.gen_range(1, n);
    let j = rng.gen_range(1, n + 1);
    let mut source = adder_source(n);
    source.push_str(&format!("CNOT[a[{i}], q[{j}]];\n"));
    Program {
        name: format!("adder-{n}-leak"),
        source,
        unsafe_names: vec![format!("a[{i}]")],
    }
}

/// `mcx(m)` with `CNOT[anc, t]` inserted before `release anc`.
pub fn mcx_leak(m: usize) -> Program {
    let source = mcx_source(m).replacen("release anc;", "CNOT[anc, t];\nrelease anc;", 1);
    Program {
        name: format!("mcx-{m}-leak"),
        source,
        unsafe_names: vec!["anc".to_string()],
    }
}

/// The programs of a sweep workload, generated from `seed`.
pub fn sweep_programs(workload: &str, seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    match workload {
        "sweep-sat" => vec![adder(128), adder(256), mcx(128)],
        "sweep-auto" => vec![
            adder(128),
            mcx(256),
            mcx(512),
            adder_leak(64, &mut rng),
            mcx_leak(128),
        ],
        other => panic!("not a sweep workload: {other}"),
    }
}

/// One edit of the serve-edit stream.
#[derive(Debug, Clone)]
pub struct Edit {
    pub kind: EditKind,
    pub source: String,
    pub unsafe_names: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// An `X` pair on a uniform qubit, inserted at a uniform position.
    ///
    /// `X` pairs fold away in the hash-consed formula arena, so this
    /// edit exercises apply-edit, the caches, routing and framing rather
    /// than the backend. `CNOT`/`CCNOT` pairs do not fold under the
    /// default `Simplify::Raw`: with them every SAT pair re-solves every
    /// target (0.4–1.8 s per pair on adder-64, against 6–10 ms for an
    /// `X` pair), and the workload would become a second SAT sweep.
    Neutral,
    /// A source this stream already sent.
    Revert,
    /// An appended `CNOT[a[i], q[j]]`.
    Mutant,
}

/// Seeded edit stream over the adder of width `n`, written out gate by
/// gate so an insertion can land at any gate position (and so the
/// re-encoded suffix after it varies in length).
pub struct EditStream {
    n: usize,
    header: String,
    gates: Vec<String>,
    names: Vec<String>,
    seen: Vec<Edit>,
    rng: Rng,
}

/// Reverts pick among at most this many sources already sent; the
/// unedited program always stays among them.
const SEEN_CAP: usize = 64;

impl EditStream {
    pub fn new(n: usize, seed: u64) -> EditStream {
        let program =
            elaborate(&parse(&adder_source(n)).expect("adder parses")).expect("adder elaborates");
        let name = |q: usize| program.qubit_name(q).to_string();
        let gates = program
            .circuit
            .gates()
            .iter()
            .map(|g| match g {
                Gate::X(q) => format!("X[{}];", name(*q)),
                Gate::Cnot { c, t } => format!("CNOT[{}, {}];", name(*c), name(*t)),
                Gate::Toffoli { c1, c2, t } => {
                    format!("CCNOT[{}, {}, {}];", name(*c1), name(*c2), name(*t))
                }
                other => panic!("the adder has no {other:?} gate"),
            })
            .collect();
        let mut stream = EditStream {
            n,
            header: format!("borrow@ q[{n}];\nborrow a[{}];\n", n - 1),
            gates,
            names: program.qubit_names.clone(),
            seen: Vec::new(),
            rng: Rng::new(seed),
        };
        let source = stream.render(None, "");
        stream.seen.push(Edit {
            kind: EditKind::Neutral,
            source,
            unsafe_names: Vec::new(),
        });
        stream
    }

    /// The unedited program (safe everywhere).
    pub fn base(&self) -> &str {
        &self.seen[0].source
    }

    fn render(&self, insert: Option<(usize, &str)>, append: &str) -> String {
        let mut out = self.header.clone();
        for (k, g) in self.gates.iter().enumerate() {
            if let Some((at, text)) = insert {
                if at == k {
                    out.push_str(text);
                }
            }
            out.push_str(g);
            out.push('\n');
        }
        if let Some((at, text)) = insert {
            if at == self.gates.len() {
                out.push_str(text);
            }
        }
        out.push_str(append);
        out
    }

    /// The next edit: 60% neutral insertions, 25% reverts, 15% mutants.
    pub fn next_edit(&mut self) -> Edit {
        let roll = self.rng.gen_below(100);
        let edit = if roll < 25 {
            let k = self.rng.gen_below(self.seen.len());
            Edit {
                kind: EditKind::Revert,
                ..self.seen[k].clone()
            }
        } else if roll < 40 {
            let i = self.rng.gen_range(1, self.n);
            let j = self.rng.gen_range(1, self.n + 1);
            Edit {
                kind: EditKind::Mutant,
                source: self.render(None, &format!("CNOT[a[{i}], q[{j}]];\n")),
                unsafe_names: vec![format!("a[{i}]")],
            }
        } else {
            let qubit = &self.names[self.rng.gen_below(self.names.len())];
            let gate = format!("X[{qubit}];");
            let at = self.rng.gen_range(0, self.gates.len() + 1);
            Edit {
                kind: EditKind::Neutral,
                source: self.render(Some((at, &format!("{gate}\n{gate}\n"))), ""),
                unsafe_names: Vec::new(),
            }
        };
        if edit.kind != EditKind::Revert {
            if self.seen.len() < SEEN_CAP {
                self.seen.push(edit.clone());
            } else {
                let k = self.rng.gen_range(1, SEEN_CAP);
                self.seen[k] = edit.clone();
            }
        }
        edit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_repeats_per_seed() {
        let a: Vec<String> = sweep_programs("sweep-auto", 7)
            .into_iter()
            .map(|p| p.source)
            .collect();
        let b: Vec<String> = sweep_programs("sweep-auto", 7)
            .into_iter()
            .map(|p| p.source)
            .collect();
        assert_eq!(a, b);
        let mut s1 = EditStream::new(16, 3);
        let mut s2 = EditStream::new(16, 3);
        for _ in 0..50 {
            assert_eq!(s1.next_edit().source, s2.next_edit().source);
        }
    }

    #[test]
    fn flat_adder_elaborates_to_the_same_circuit() {
        let stream = EditStream::new(16, 1);
        let flat = elaborate(&parse(stream.base()).unwrap()).unwrap();
        let looped = elaborate(&parse(&adder_source(16)).unwrap()).unwrap();
        assert_eq!(flat.circuit.gates(), looped.circuit.gates());
        assert_eq!(flat.qubit_names, looped.qubit_names);
        assert_eq!(flat.qubit_kinds, looped.qubit_kinds);
    }
}
