//! Benches for the end-to-end verifier: scaled-down versions of the
//! paper's Fig. 6.3/6.4 sweeps, the Raw-vs-Full simplification ablation
//! (E15), and the incremental-session parallel fan-out. The full-size
//! tables come from the `exp_fig6_3` / `exp_fig6_4` binaries; the repo
//! benchmark is `perfbench/`.

use qb_bench::harness::{bench, group};
use qb_bench::{adder_program, mcx_program, options};
use qb_core::{verify_program, verify_program_parallel, BackendKind};
use qb_formula::Simplify;

fn adder_verify() {
    group("adder_verify");
    for n in [20usize, 35, 50] {
        let program = adder_program(n);
        for backend in [BackendKind::Sat, BackendKind::Bdd] {
            let opts = options(backend, Simplify::Raw);
            bench(&format!("{backend}/{n}"), 10, || {
                verify_program(&program, &opts).unwrap();
            });
        }
    }
}

fn mcx_verify() {
    group("mcx_verify");
    for m in [50usize, 100, 200] {
        let program = mcx_program(m);
        for backend in [BackendKind::Sat, BackendKind::Anf, BackendKind::Bdd] {
            let opts = options(backend, Simplify::Raw);
            bench(&format!("{backend}/{}", 2 * m - 1), 10, || {
                verify_program(&program, &opts).unwrap();
            });
        }
    }
}

fn simplify_ablation() {
    group("simplify_ablation");
    let program = adder_program(40);
    for simplify in [Simplify::Raw, Simplify::Full] {
        let opts = options(BackendKind::Sat, simplify);
        bench(&format!("sat_{simplify:?}"), 10, || {
            verify_program(&program, &opts).unwrap();
        });
    }
}

fn parallel_fanout() {
    group("parallel_fanout");
    let program = adder_program(40);
    let opts = options(BackendKind::Sat, Simplify::Raw);
    for jobs in [1usize, 2, 4] {
        bench(&format!("sat_raw_adder40_jobs{jobs}"), 5, || {
            verify_program_parallel(&program, &opts, jobs).unwrap();
        });
    }
}

fn main() {
    adder_verify();
    mcx_verify();
    simplify_ablation();
    parallel_fanout();
}
