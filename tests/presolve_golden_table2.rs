//! Golden identity of presolve on Table-2 formulations: the exact
//! presolve output (reduced model, reconstruction, every counter) for
//! four paper cells, two per II, is pinned by digest. These are the
//! models the Table-2 sweep spends its presolve time on — tens of
//! thousands of binaries made of implications and short at-most-one
//! families — so a faster presolve must still produce them bit for bit.

#[path = "../crates/bilp/tests/common/digest.rs"]
mod digest;

use cgra::arch::families::paper_configs;
use cgra::dfg::benchmarks;
use cgra::ilp::{presolve, PresolveConfig, Presolved};
use cgra::mapper::{Formulation, MapperOptions};
use cgra::mrrg::build_mrrg;

/// Pinned `(kernel, architecture, II, digest, vars before, vars after)`.
const CELLS: [(&str, &str, u32, u64, u64, u64); 4] = [
    ("accum", "homo-orth", 1, 0xcd97_e458_f212_8199, 15208, 14936),
    (
        "exp_4",
        "hetero-orth",
        1,
        0x5c20_742a_7afb_dbd2,
        11953,
        11689,
    ),
    (
        "mult_16",
        "homo-orth",
        2,
        0x7774_eb7f_14a7_0252,
        54991,
        53999,
    ),
    ("mac", "homo-diag", 2, 0x81c9_3c85_001b_bb24, 24877, 24541),
];

#[test]
fn table2_presolve_output_is_pinned() {
    let mut got = Vec::new();
    for &(kernel, arch, ii, ..) in &CELLS {
        let dfg = (benchmarks::all()
            .iter()
            .find(|e| e.name == kernel)
            .expect("Table-2 kernel exists")
            .build)();
        let config = paper_configs()
            .into_iter()
            .find(|c| c.contexts == 1 && c.label == arch)
            .expect("Table-2 architecture exists");
        let mrrg = build_mrrg(&config.arch, ii);
        let formulation = Formulation::build(&dfg, &mrrg, MapperOptions::default())
            .expect("the pinned cells reach the solver");
        let model = formulation.model();
        let p = presolve(model, &PresolveConfig::default());
        assert!(
            matches!(p, Presolved::Reduced { .. }),
            "{kernel}@{arch}/{ii}"
        );
        let s = p.stats();
        got.push((
            kernel,
            arch,
            ii,
            digest::digest(&p, model.num_vars()),
            s.vars_before,
            s.vars_after,
        ));
    }
    assert_eq!(got, CELLS);
}
