//! Differential soundness suite for the presolve pipeline: on a corpus of
//! structured models and a stream of seeded random models, solving with
//! presolve enabled must produce the same verdict and the same optimal
//! objective as solving the raw model — at 1 and at 4 threads — and
//! returned solutions must satisfy the *original* model. A separate test
//! pins the time-budget accounting: a huge probing budget must not let
//! total wall time exceed the `SolverConfig` deadline.

#[path = "common/corpus.rs"]
mod corpus;

use bilp::{Model, Outcome, Solver, SolverConfig};
use corpus::{cycle_cover, pigeonhole};
use std::time::{Duration, Instant};

fn config(presolve: bool, threads: usize, seed: u64) -> SolverConfig {
    SolverConfig {
        threads,
        seed,
        presolve,
        ..SolverConfig::default()
    }
}

/// Solves `model` with presolve off (reference) and on, at 1 and 4
/// threads, and checks verdict/objective agreement everywhere.
fn check_differential(model: &Model, label: &str) {
    let reference = Solver::with_config(config(false, 1, 0)).solve(model);
    for threads in [1usize, 4] {
        let mut solver = Solver::with_config(config(true, threads, 7));
        let presolved = solver.solve(model);
        match (&reference, &presolved) {
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            (
                Outcome::Optimal { objective: a, .. },
                Outcome::Optimal {
                    objective: b,
                    solution,
                },
            ) => {
                assert_eq!(a, b, "[{label}] threads={threads}: objective mismatch");
                assert_eq!(
                    model.check(|v| solution.value(v)),
                    Ok(()),
                    "[{label}] threads={threads}: expanded solution violates the original model"
                );
                assert_eq!(
                    solution.len(),
                    model.num_vars(),
                    "[{label}] threads={threads}: solution not in original variable space"
                );
            }
            other => panic!("[{label}] threads={threads}: verdict mismatch {other:?}"),
        }
    }
}

#[test]
fn corpus_verdicts_identical_with_presolve() {
    for (label, m) in corpus::structured() {
        check_differential(&m, label);
    }
}

#[test]
fn random_models_verdicts_identical_with_presolve() {
    for (case, m) in corpus::random_models().iter().enumerate() {
        check_differential(m, &format!("random-{case}"));
    }
}

/// Presolve time counts against the solver deadline: even with an
/// effectively unbounded probing budget on a large instance, the 50 ms
/// wall-clock budget must surface as `Unknown` promptly (the same bound
/// PR 1 pins for the search engine itself).
#[test]
fn presolve_time_counts_against_the_deadline() {
    let m = pigeonhole(70); // 4970 vars; exhaustive probing alone would far exceed 50 ms
    for threads in [1usize, 4] {
        let mut s = Solver::with_config(SolverConfig {
            time_limit: Some(Duration::from_millis(50)),
            threads,
            presolve: true,
            presolve_probe_budget: u64::MAX,
            ..SolverConfig::default()
        });
        let start = Instant::now();
        let out = s.solve(&m);
        let elapsed = start.elapsed();
        assert_eq!(out, Outcome::Unknown, "threads={threads}");
        assert!(
            elapsed < Duration::from_millis(250),
            "threads={threads}: 50 ms deadline overshot to {elapsed:?}"
        );
        assert!(
            s.stats().presolve.vars_before > 0,
            "presolve stats should be populated"
        );
    }
}

/// The escape hatch really is bit-for-bit: two sequential solves of the
/// same model with presolve off agree with each other down to the engine
/// counters, and `SolveStats.presolve` stays zeroed.
#[test]
fn presolve_off_path_reports_no_reduction() {
    let m = cycle_cover(9);
    let mut s = Solver::with_config(config(false, 1, 0));
    let out = s.solve(&m);
    assert!(matches!(out, Outcome::Optimal { .. }));
    assert_eq!(s.stats().presolve, bilp::PresolveStats::default());
}
