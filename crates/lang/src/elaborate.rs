//! Elaboration: from surface AST to a flat gate-level program.
//!
//! Elaboration resolves `let` constants, unrolls `for` loops (downwards
//! when the start bound exceeds the end bound, as the paper's `adder.qbr`
//! requires), allocates physical qubit indices to registers, tracks
//! borrow/alloc/release lifetimes, and validates every gate operand. The
//! result pairs a `qb_circuit::Circuit` with per-qubit metadata telling the
//! verifier which qubits are *borrowed dirty* (must be proven safely
//! uncomputed), *trusted dirty* (`borrow@`, verification skipped) or
//! *clean* (`alloc`, initially `|0⟩`).

use crate::ast::{Expr, GateKind, Program, RegRef, Stmt};
use crate::error::{LangError, Phase};
use crate::token::Span;
use qb_circuit::{Circuit, Gate};
use std::collections::HashMap;

/// How a register's qubits were obtained (paper §4 and §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QubitKind {
    /// `borrow` — dirty qubits whose safe uncomputation must be verified.
    BorrowedDirty,
    /// `borrow@` — dirty qubits with verification explicitly skipped.
    TrustedDirty,
    /// `alloc` — clean qubits starting in `|0⟩`.
    Clean,
}

/// Metadata for one declared register.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterInfo {
    /// Register name as written in the source.
    pub name: String,
    /// Borrow discipline of the register's qubits.
    pub kind: QubitKind,
    /// First physical qubit index.
    pub base: usize,
    /// Number of qubits (`None` for scalar registers used without
    /// indexing).
    pub size: Option<usize>,
    /// Gate index at which the register became live.
    pub live_from: usize,
    /// Gate index at which the register was released (`None` = live to the
    /// end of the program).
    pub released_at: Option<usize>,
}

impl RegisterInfo {
    /// Number of physical qubits (1 for scalars).
    pub fn width(&self) -> usize {
        self.size.unwrap_or(1)
    }

    /// The physical qubit indices of this register.
    pub fn qubits(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.width()
    }
}

/// A fully elaborated program: a circuit plus qubit/register metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ElaboratedProgram {
    /// The flat gate-level circuit.
    pub circuit: Circuit,
    /// Declared registers in declaration order.
    pub registers: Vec<RegisterInfo>,
    /// Source-level name of each physical qubit (e.g. `a[3]` or `t`).
    pub qubit_names: Vec<String>,
    /// Borrow discipline of each physical qubit.
    pub qubit_kinds: Vec<QubitKind>,
}

impl ElaboratedProgram {
    /// Total number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// The qubits declared with `borrow` (not `borrow@`): the dirty qubits
    /// whose safe uncomputation the verifier must establish.
    pub fn qubits_to_verify(&self) -> Vec<usize> {
        (0..self.num_qubits())
            .filter(|&q| self.qubit_kinds[q] == QubitKind::BorrowedDirty)
            .collect()
    }

    /// The clean (`alloc`) qubits, which start in `|0⟩`.
    pub fn clean_qubits(&self) -> Vec<usize> {
        (0..self.num_qubits())
            .filter(|&q| self.qubit_kinds[q] == QubitKind::Clean)
            .collect()
    }

    /// The display name of a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn qubit_name(&self, q: usize) -> &str {
        &self.qubit_names[q]
    }
}

/// Elaborates a parsed program.
///
/// # Errors
///
/// Reports the first violation: undefined names, duplicate declarations,
/// out-of-range indices, use after release, arity/operand errors, or
/// arithmetic overflow in constant expressions.
///
/// # Examples
///
/// ```
/// use qb_lang::{parse, elaborate};
/// let p = parse("let n = 3; borrow a[n]; X[a[1]]; CNOT[a[1], a[3]];").unwrap();
/// let e = elaborate(&p).unwrap();
/// assert_eq!(e.num_qubits(), 3);
/// assert_eq!(e.circuit.size(), 2);
/// assert_eq!(e.qubits_to_verify(), vec![0, 1, 2]);
/// ```
pub fn elaborate(program: &Program) -> Result<ElaboratedProgram, LangError> {
    let mut ctx = Context {
        scopes: vec![HashMap::new()],
        registers: Vec::new(),
        reg_index: HashMap::new(),
        gates: Vec::new(),
        qubit_names: Vec::new(),
        qubit_kinds: Vec::new(),
    };
    ctx.block(&program.statements)?;
    let mut circuit = Circuit::new(ctx.qubit_names.len());
    for (gate, span) in ctx.gates {
        circuit
            .try_push(gate)
            .map_err(|msg| LangError::at(Phase::Elaborate, span, msg))?;
    }
    Ok(ElaboratedProgram {
        circuit,
        registers: ctx.registers,
        qubit_names: ctx.qubit_names,
        qubit_kinds: ctx.qubit_kinds,
    })
}

struct Context {
    /// Constant scopes (innermost last).
    scopes: Vec<HashMap<String, i64>>,
    registers: Vec<RegisterInfo>,
    reg_index: HashMap<String, usize>,
    gates: Vec<(Gate, Span)>,
    qubit_names: Vec<String>,
    qubit_kinds: Vec<QubitKind>,
}

impl Context {
    fn block(&mut self, statements: &[Stmt]) -> Result<(), LangError> {
        for stmt in statements {
            self.statement(stmt)?;
        }
        Ok(())
    }

    fn statement(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Let { name, value, span } => {
                let v = self.eval(value)?;
                let scope = self.scopes.last_mut().expect("at least one scope");
                if scope.contains_key(name) {
                    return Err(LangError::at(
                        Phase::Elaborate,
                        *span,
                        format!("'{name}' is already defined in this scope"),
                    ));
                }
                scope.insert(name.clone(), v);
                Ok(())
            }
            Stmt::Borrow { reg, span } => self.declare(reg, QubitKind::BorrowedDirty, *span),
            Stmt::BorrowTrusted { reg, span } => self.declare(reg, QubitKind::TrustedDirty, *span),
            Stmt::Alloc { reg, span } => self.declare(reg, QubitKind::Clean, *span),
            Stmt::Release { name, span } => {
                let idx = *self.reg_index.get(name).ok_or_else(|| {
                    LangError::at(
                        Phase::Elaborate,
                        *span,
                        format!("release of undeclared register '{name}'"),
                    )
                })?;
                let reg = &mut self.registers[idx];
                if reg.released_at.is_some() {
                    return Err(LangError::at(
                        Phase::Elaborate,
                        *span,
                        format!("register '{name}' was already released"),
                    ));
                }
                reg.released_at = Some(self.gates.len());
                Ok(())
            }
            Stmt::Gate { kind, args, span } => {
                let qubits: Vec<usize> = args
                    .iter()
                    .map(|r| self.resolve_qubit(r))
                    .collect::<Result<_, _>>()?;
                let gate = match kind {
                    GateKind::X => Gate::X(qubits[0]),
                    GateKind::H => Gate::H(qubits[0]),
                    GateKind::Z => Gate::Z(qubits[0]),
                    GateKind::Cnot => Gate::Cnot {
                        c: qubits[0],
                        t: qubits[1],
                    },
                    GateKind::Swap => Gate::Swap(qubits[0], qubits[1]),
                    GateKind::Ccnot => Gate::Toffoli {
                        c1: qubits[0],
                        c2: qubits[1],
                        t: qubits[2],
                    },
                    GateKind::Mcx => {
                        let mut controls = qubits;
                        let target = controls.pop().expect("MCX has a target");
                        Gate::Mcx { controls, target }
                    }
                };
                self.gates.push((gate, *span));
                Ok(())
            }
            Stmt::For {
                var,
                start,
                end,
                body,
                span: _,
            } => {
                let s = self.eval(start)?;
                let e = self.eval(end)?;
                let step = if s <= e { 1 } else { -1 };
                // One scope serves every iteration: it is reset to the
                // loop variable alone before each pass over the body.
                self.scopes.push(HashMap::from([(var.clone(), s)]));
                let mut result = Ok(());
                for k in 0..=(e - s).abs() {
                    let scope = self.scopes.last_mut().expect("the loop scope");
                    scope.retain(|name, _| name == var);
                    *scope.get_mut(var).expect("the loop variable") = s + step * k;
                    result = self.block(body);
                    if result.is_err() {
                        break;
                    }
                }
                self.scopes.pop();
                result
            }
        }
    }

    fn declare(&mut self, reg: &RegRef, kind: QubitKind, span: Span) -> Result<(), LangError> {
        if self.reg_index.contains_key(&reg.name) {
            return Err(LangError::at(
                Phase::Elaborate,
                span,
                format!("register '{}' is already declared", reg.name),
            ));
        }
        if self.lookup(&reg.name).is_some() {
            return Err(LangError::at(
                Phase::Elaborate,
                span,
                format!("'{}' is already a constant", reg.name),
            ));
        }
        let size = match &reg.index {
            None => None,
            Some(expr) => {
                let v = self.eval(expr)?;
                if v < 1 {
                    return Err(LangError::at(
                        Phase::Elaborate,
                        span,
                        format!("register '{}' must have positive size, got {v}", reg.name),
                    ));
                }
                Some(v as usize)
            }
        };
        let base = self.qubit_names.len();
        let width = size.unwrap_or(1);
        for i in 0..width {
            let name = match size {
                None => reg.name.clone(),
                Some(_) => format!("{}[{}]", reg.name, i + 1),
            };
            self.qubit_names.push(name);
            self.qubit_kinds.push(kind);
        }
        self.reg_index
            .insert(reg.name.clone(), self.registers.len());
        self.registers.push(RegisterInfo {
            name: reg.name.clone(),
            kind,
            base,
            size,
            live_from: self.gates.len(),
            released_at: None,
        });
        Ok(())
    }

    fn resolve_qubit(&mut self, r: &RegRef) -> Result<usize, LangError> {
        let idx = *self.reg_index.get(&r.name).ok_or_else(|| {
            LangError::at(
                Phase::Elaborate,
                r.span,
                format!("undeclared register '{}'", r.name),
            )
        })?;
        // Evaluate the index before borrowing register info mutably.
        let index_value = match &r.index {
            None => None,
            Some(e) => Some(self.eval(e)?),
        };
        let gate_pos = self.gates.len();
        let reg = &self.registers[idx];
        if let Some(at) = reg.released_at {
            if gate_pos >= at {
                return Err(LangError::at(
                    Phase::Elaborate,
                    r.span,
                    format!("register '{}' is used after release", r.name),
                ));
            }
        }
        match (reg.size, index_value) {
            (None, None) => Ok(reg.base),
            (None, Some(_)) => Err(LangError::at(
                Phase::Elaborate,
                r.span,
                format!("register '{}' is scalar and cannot be indexed", r.name),
            )),
            (Some(_), None) => Err(LangError::at(
                Phase::Elaborate,
                r.span,
                format!("register '{}' is an array; an index is required", r.name),
            )),
            (Some(size), Some(i)) => {
                if i < 1 || i as usize > size {
                    Err(LangError::at(
                        Phase::Elaborate,
                        r.span,
                        format!(
                            "index {i} out of bounds for register '{}' of size {size} \
                             (indices are 1-based)",
                            r.name
                        ),
                    ))
                } else {
                    Ok(reg.base + i as usize - 1)
                }
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<i64> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn eval(&self, expr: &Expr) -> Result<i64, LangError> {
        match expr {
            Expr::Number(n) => Ok(*n),
            Expr::Var(name, span) => self.lookup(name).ok_or_else(|| {
                LangError::at(
                    Phase::Elaborate,
                    *span,
                    format!("undefined constant '{name}'"),
                )
            }),
            Expr::Neg(e) => self
                .eval(e)?
                .checked_neg()
                .ok_or_else(|| LangError::new(Phase::Elaborate, "arithmetic overflow")),
            Expr::Add(a, b) => self
                .eval(a)?
                .checked_add(self.eval(b)?)
                .ok_or_else(|| LangError::new(Phase::Elaborate, "arithmetic overflow")),
            Expr::Sub(a, b) => self
                .eval(a)?
                .checked_sub(self.eval(b)?)
                .ok_or_else(|| LangError::new(Phase::Elaborate, "arithmetic overflow")),
            Expr::Mul(a, b) => self
                .eval(a)?
                .checked_mul(self.eval(b)?)
                .ok_or_else(|| LangError::new(Phase::Elaborate, "arithmetic overflow")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> Result<ElaboratedProgram, LangError> {
        elaborate(&parse(src).unwrap())
    }

    #[test]
    fn allocates_registers_in_order() {
        let e = run("borrow@ q[2]; borrow a; alloc c[2]; X[q[1]]; X[a]; X[c[2]];").unwrap();
        assert_eq!(e.num_qubits(), 5);
        assert_eq!(e.qubit_names, vec!["q[1]", "q[2]", "a", "c[1]", "c[2]"]);
        assert_eq!(e.qubits_to_verify(), vec![2]);
        assert_eq!(e.clean_qubits(), vec![3, 4]);
        assert_eq!(e.circuit.gates(), &[Gate::X(0), Gate::X(2), Gate::X(4)]);
    }

    #[test]
    fn descending_for_loop_unrolls_downwards() {
        let e = run("let n = 4; borrow@ q[n]; for i = (n - 1) to 2 { X[q[i]]; }").unwrap();
        assert_eq!(e.circuit.gates(), &[Gate::X(2), Gate::X(1)]);
    }

    #[test]
    fn ascending_for_loop() {
        let e = run("borrow@ q[4]; for i = 2 to 3 { X[q[i]]; }").unwrap();
        assert_eq!(e.circuit.gates(), &[Gate::X(1), Gate::X(2)]);
    }

    #[test]
    fn loop_variable_is_scoped() {
        assert!(run("borrow@ q[3]; for i = 1 to 2 { X[q[i]]; } X[q[i]];").is_err());
    }

    #[test]
    fn nested_loops_shadow() {
        let e = run("borrow@ q[4]; for i = 1 to 2 { for i = 3 to 4 { X[q[i]]; } }").unwrap();
        assert_eq!(e.circuit.size(), 4);
        assert_eq!(e.circuit.gates()[0], Gate::X(2));
    }

    #[test]
    fn one_based_indexing_is_enforced() {
        assert!(run("borrow a[3]; X[a[0]];").is_err());
        assert!(run("borrow a[3]; X[a[4]];").is_err());
        assert!(run("borrow a[3]; X[a[3]];").is_ok());
    }

    #[test]
    fn scalar_vs_array_usage() {
        assert!(run("borrow t; X[t[1]];").is_err());
        assert!(run("borrow t[2]; X[t];").is_err());
    }

    #[test]
    fn use_after_release_is_rejected() {
        let err = run("borrow anc; X[anc]; release anc; X[anc];").unwrap_err();
        assert!(err.message.contains("after release"));
    }

    #[test]
    fn double_release_is_rejected() {
        assert!(run("borrow anc; release anc; release anc;").is_err());
    }

    #[test]
    fn duplicate_declaration_rejected() {
        assert!(run("borrow a; borrow a;").is_err());
        assert!(run("let a = 1; borrow a;").is_err());
    }

    #[test]
    fn undefined_names_are_reported() {
        assert!(run("X[a];").is_err());
        assert!(run("let x = y + 1;").is_err());
        assert!(run("release ghost;").is_err());
    }

    #[test]
    fn repeated_operands_rejected() {
        let err = run("borrow a[2]; CNOT[a[1], a[1]];").unwrap_err();
        assert!(err.message.contains("repeated"));
    }

    #[test]
    fn lifetimes_are_recorded() {
        let e = run("borrow a; X[a]; X[a]; release a; borrow b; X[b];").unwrap();
        let a = &e.registers[0];
        assert_eq!(a.live_from, 0);
        assert_eq!(a.released_at, Some(2));
        let b = &e.registers[1];
        assert_eq!(b.live_from, 2);
        assert_eq!(b.released_at, None);
    }

    #[test]
    fn mcx_lowering() {
        let e = run("borrow@ q[4]; MCX[q[1], q[2], q[3], q[4]];").unwrap();
        assert_eq!(
            e.circuit.gates()[0],
            Gate::Mcx {
                controls: vec![0, 1, 2],
                target: 3
            }
        );
    }

    #[test]
    fn negative_register_size_rejected() {
        assert!(run("let n = 0; borrow a[n];").is_err());
        assert!(run("borrow a[0 - 2];").is_err());
    }
}
