//! # qb-bench
//!
//! Shared harness code for regenerating the paper's tables and figures:
//! parameter sweeps over the two benchmark families (the `adder.qbr`
//! carry gadget of Fig. 6.2 and the borrowed-bit MCX of §10.4) across the
//! three decision backends, plus table printing used by the `exp_*`
//! experiment binaries.

use qb_core::{verify_program, BackendKind, BackendOptions, VerifyOptions};
use qb_formula::Simplify;
use qb_lang::{adder_source, elaborate, mcx_source, parse, ElaboratedProgram};
use std::time::Duration;

/// One measurement of a verification sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Benchmark family (`"adder"` / `"mcx"`).
    pub family: &'static str,
    /// Qubit count reported the way the paper reports it (total dirty
    /// qubits for the adder; control-count `n = 2m − 1` for MCX).
    pub n: usize,
    /// Backend name.
    pub backend: String,
    /// Simplification mode.
    pub simplify: String,
    /// Formula-construction (linear scan) time — excluded from the
    /// paper's reported durations.
    pub construct: Duration,
    /// Total solver time across all conditions (the paper's metric).
    pub solve: Duration,
    /// Number of dirty qubits verified.
    pub verified: usize,
    /// Whether everything was proven safe.
    pub all_safe: bool,
}

impl SweepRow {
    /// Formats the row for the experiment tables.
    pub fn render(&self) -> String {
        format!(
            "{:<6} n={:<5} backend={:<4} simplify={:<4} construct={:>9.3?} solve={:>10.3?} qubits={:<5} safe={}",
            self.family,
            self.n,
            self.backend,
            self.simplify,
            self.construct,
            self.solve,
            self.verified,
            self.all_safe
        )
    }
}

/// Builds the elaborated adder program for width `n`.
///
/// # Panics
///
/// Panics if the generated source fails to parse/elaborate (a bug).
pub fn adder_program(n: usize) -> ElaboratedProgram {
    elaborate(&parse(&adder_source(n)).expect("adder source parses"))
        .expect("adder source elaborates")
}

/// Builds the elaborated MCX program for ladder parameter `m`.
///
/// # Panics
///
/// Panics if the generated source fails to parse/elaborate (a bug).
pub fn mcx_program(m: usize) -> ElaboratedProgram {
    elaborate(&parse(&mcx_source(m)).expect("mcx source parses")).expect("mcx source elaborates")
}

/// Standard options for a backend/simplify pair.
pub fn options(backend: BackendKind, simplify: Simplify) -> VerifyOptions {
    VerifyOptions {
        backend,
        simplify,
        backend_options: BackendOptions::default(),
    }
}

/// Verifies one benchmark program and collects a sweep row.
///
/// # Panics
///
/// Panics when verification errors (e.g. ANF overflow) occur — the sweep
/// drivers pre-select feasible backend/mode combinations.
pub fn measure(
    family: &'static str,
    n: usize,
    program: &ElaboratedProgram,
    opts: &VerifyOptions,
) -> SweepRow {
    let report = verify_program(program, opts).expect("verification completes");
    SweepRow {
        family,
        n,
        backend: opts.backend.to_string(),
        simplify: format!("{:?}", opts.simplify).to_lowercase(),
        construct: report.construction_time,
        solve: report.solver_time,
        verified: report.verdicts.len(),
        all_safe: report.all_safe(),
    }
}

/// Prints a titled table of sweep rows.
pub fn print_table(title: &str, rows: &[SweepRow]) {
    println!("== {title}");
    for row in rows {
        println!("  {}", row.render());
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweeps_run() {
        let program = adder_program(8);
        let row = measure(
            "adder",
            8,
            &program,
            &options(BackendKind::Sat, Simplify::Raw),
        );
        assert!(row.all_safe);
        assert_eq!(row.verified, 7);

        let program = mcx_program(5);
        let row = measure(
            "mcx",
            9,
            &program,
            &options(BackendKind::Bdd, Simplify::Raw),
        );
        assert!(row.all_safe);
        assert_eq!(row.verified, 1);
    }
}
