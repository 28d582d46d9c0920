//! The in-process workloads, `table2-sweep` and `route-min`.
//!
//! Both call the mapper directly through `cgra_mapper::Session`, one cell
//! at a time on one thread, with every solver query bounded by a conflict
//! budget and no wall-clock limit, so the same build does the same solver
//! work on every run. The seed only orders the cells.
//!
//! The untraced run times `Session::map_with`, the mapper's own entry
//! point. The traced run makes the same calls the mapper makes, one
//! public function at a time (`Formulation::build`, `bilp::presolve`,
//! `IncrementalSolver`, `Formulation::try_decode`, `validate_mapping`),
//! with a span around each; its work fingerprint must equal the untraced
//! one, which shows the two paths did the same work.

use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Fingerprint, LayerCounts, RunResult};
use bilp::{IncrementalSolver, Outcome, PresolveConfig, Presolved, SolverConfig};
use cgra_bench::PAPER_TABLE2;
use cgra_dfg::Dfg;
use cgra_mapper::{validate_mapping, Formulation, MapOutcome, MapperOptions, Mapping, Session};
use cgra_rng::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Conflict budget per solver query on both in-process workloads.
pub const CONFLICT_BUDGET: u64 = 2_000;

/// Times the set-up is repeated per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 15;

/// Table-2 column labels in `PAPER_TABLE2` order (II 1, then II 2).
pub(crate) const COLUMNS: [(&str, u32); 8] = [
    ("hetero-orth", 1),
    ("hetero-diag", 1),
    ("homo-orth", 1),
    ("homo-diag", 1),
    ("hetero-orth", 2),
    ("hetero-diag", 2),
    ("homo-orth", 2),
    ("homo-diag", 2),
];

/// The cells `table2-sweep` runs, as (kernel, architecture, II): a
/// fixed subset of the 152-cell grid that keeps the grid's three kinds of
/// cell in proportion at [`CONFLICT_BUDGET`] (7 of its 20 cells refuted
/// while the formulation is built, 2 of its 4 mapped cells and 47 of its
/// 128 out-of-budget cells), so that one pass fits a run. Within each
/// kind the cells were ranked by their time on the build that defined
/// this benchmark and sampled at evenly spaced ranks, so the subset's
/// latencies spread like the grid's without large gaps between
/// neighbouring ranks. The seed of a run only orders them.
pub(crate) const SWEEP_CELLS: [(&str, &str, u32); 56] = [
    ("accum", "hetero-orth", 1),
    ("accum", "hetero-diag", 1),
    ("accum", "homo-diag", 1),
    ("accum", "hetero-orth", 2),
    ("accum", "homo-orth", 2),
    ("mac", "homo-orth", 1),
    ("mac", "hetero-orth", 2),
    ("mac", "homo-diag", 2),
    ("add_10", "hetero-orth", 1),
    ("add_10", "homo-diag", 1),
    ("add_10", "hetero-orth", 2),
    ("add_14", "homo-diag", 1),
    ("add_16", "hetero-diag", 1),
    ("add_16", "hetero-orth", 2),
    ("mult_10", "homo-orth", 2),
    ("mult_14", "hetero-orth", 1),
    ("mult_14", "hetero-diag", 1),
    ("mult_14", "hetero-diag", 2),
    ("mult_16", "hetero-orth", 2),
    ("mult_16", "hetero-diag", 2),
    ("mult_16", "homo-orth", 2),
    ("mult_16", "homo-diag", 2),
    ("2x2-f", "hetero-orth", 1),
    ("2x2-f", "hetero-diag", 1),
    ("2x2-f", "hetero-orth", 2),
    ("2x2-f", "homo-orth", 2),
    ("2x2-f", "homo-diag", 2),
    ("2x2-p", "homo-diag", 1),
    ("2x2-p", "hetero-orth", 2),
    ("2x2-p", "hetero-diag", 2),
    ("2x2-p", "homo-orth", 2),
    ("2x2-p", "homo-diag", 2),
    ("cos_4", "hetero-orth", 1),
    ("cos_4", "hetero-diag", 2),
    ("cosh_4", "homo-orth", 1),
    ("cosh_4", "homo-diag", 1),
    ("cosh_4", "hetero-orth", 2),
    ("cosh_4", "hetero-diag", 2),
    ("cosh_4", "homo-diag", 2),
    ("exp_4", "hetero-orth", 1),
    ("exp_4", "hetero-diag", 1),
    ("exp_4", "homo-diag", 1),
    ("exp_5", "homo-orth", 2),
    ("exp_6", "hetero-orth", 1),
    ("exp_6", "hetero-orth", 2),
    ("exp_6", "homo-orth", 2),
    ("exp_6", "homo-diag", 2),
    ("sinh_4", "hetero-orth", 1),
    ("sinh_4", "hetero-diag", 1),
    ("sinh_4", "hetero-orth", 2),
    ("tay_4", "hetero-orth", 1),
    ("extreme", "hetero-orth", 1),
    ("extreme", "hetero-orth", 2),
    ("extreme", "hetero-diag", 2),
    ("weighted_sum", "hetero-orth", 1),
    ("weighted_sum", "homo-diag", 1),
];

/// The cells `route-min` optimises: every cell of the full grid that
/// `table2-sweep`'s settings map within [`CONFLICT_BUDGET`] on the build
/// that defined this benchmark. Fixed here, so the workload does not
/// change when a later build maps more or fewer cells.
const ROUTE_MIN_CELLS: [(&str, &str, u32); 4] = [
    ("accum", "homo-orth", 1),
    ("mac", "hetero-orth", 1),
    ("2x2-f", "hetero-diag", 1),
    ("2x2-p", "homo-orth", 2),
];

/// How often `route-min` repeats its cells per unit of work: each pass
/// does the same solver work, and the repeats give the tail rule enough
/// samples.
const ROUTE_MIN_REPEATS: usize = 7;

/// Spans recorded by the set-up rather than by the timed cells.
const SETUP_SPANS: [&str; 3] = ["dfg.text.parse", "arch.text.parse", "mrrg.build"];

/// One Table-2 cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId {
    pub kernel: usize,
    pub column: usize,
}

impl CellId {
    fn label(&self, kernels: &[(String, Dfg)]) -> String {
        let (arch, ii) = COLUMNS[self.column];
        format!("{}@{arch}/{ii}", kernels[self.kernel].0)
    }

    fn paper(&self) -> &'static str {
        PAPER_TABLE2[self.kernel].1[self.column]
    }
}

/// Parsed inputs plus one warm session per architecture.
struct Prepared {
    kernels: Vec<(String, Dfg)>,
    sessions: BTreeMap<String, Session>,
}

/// The outcome of one cell.
struct CellRun {
    cell: CellId,
    symbol: &'static str,
    optimal: bool,
    mapping: Option<(Mapping, usize)>,
    conflicts: u64,
    propagations: u64,
    elapsed: Duration,
}

fn options(optimize: bool) -> MapperOptions {
    MapperOptions {
        optimize,
        time_limit: None,
        conflict_limit: Some(CONFLICT_BUDGET),
        threads: 1,
        presolve: true,
        warm_start: false,
        seed_probes: 0,
        certify: false,
        ..MapperOptions::default()
    }
}

/// Kernel and architecture texts: the inputs the set-up parses.
fn input_texts() -> (Vec<String>, Vec<(String, String)>) {
    let kernels = cgra_dfg::benchmarks::all()
        .iter()
        .map(|e| cgra_dfg::text::print(&(e.build)()))
        .collect();
    let archs = cgra_arch::families::paper_configs()
        .into_iter()
        .filter(|c| c.contexts == 1)
        .map(|c| (c.label.to_owned(), cgra_arch::text::print(&c.arch)))
        .collect();
    (kernels, archs)
}

/// Parses every kernel and architecture and builds every (arch, II)
/// MRRG through a session. This is the work `setup_s` times.
fn set_up(kernel_texts: &[String], arch_texts: &[(String, String)], t: &mut Tracer) -> Prepared {
    let kernels = kernel_texts
        .iter()
        .map(|text| {
            let dfg = t.span("dfg.text.parse", |_| cgra_dfg::text::parse(text));
            let dfg = dfg.expect("printed kernels parse");
            (dfg.name().to_owned(), dfg)
        })
        .collect();
    let mut sessions = BTreeMap::new();
    for (label, text) in arch_texts {
        let arch = t.span("arch.text.parse", |_| cgra_arch::text::parse(text));
        let session = Session::new(arch.expect("printed architectures parse"), options(false));
        for ii in [1, 2] {
            t.span("mrrg.build", |_| session.mrrg(ii));
        }
        sessions.insert(label.clone(), session);
    }
    Prepared { kernels, sessions }
}

/// Runs one cell through `Session::map_with`.
fn run_cell(p: &Prepared, cell: CellId, optimize: bool) -> CellRun {
    let (arch, ii) = COLUMNS[cell.column];
    let session = &p.sessions[arch];
    let dfg = &p.kernels[cell.kernel].1;
    let start = Instant::now();
    let report = session.map_with(dfg, ii, options(optimize), None);
    let elapsed = start.elapsed();
    let symbol = report.outcome.table_symbol();
    let (mapping, optimal) = match report.outcome {
        MapOutcome::Mapped {
            mapping,
            routing_usage,
            optimal,
        } => (Some((mapping, routing_usage)), optimal),
        _ => (None, false),
    };
    CellRun {
        cell,
        symbol,
        optimal,
        mapping,
        conflicts: report.solver.engine.conflicts,
        propagations: report.solver.engine.propagations,
        elapsed,
    }
}

/// Runs one cell as the mapper's public steps, one span per step. Makes
/// the calls `IlpMapper::map` makes for these options: presolve with the
/// solver's default probe budget, then one incremental engine for the
/// feasibility query and (when optimising) the descent.
fn run_cell_traced(
    p: &Prepared,
    cell: CellId,
    optimize: bool,
    t: &mut Tracer,
    counts: &mut LayerCounts,
) -> CellRun {
    let (arch, ii) = COLUMNS[cell.column];
    let session = &p.sessions[arch];
    let dfg = &p.kernels[cell.kernel].1;
    let opts = options(optimize);
    let start = Instant::now();
    let mrrg = session.mrrg(ii);
    let mut run = CellRun {
        cell,
        symbol: "0",
        optimal: false,
        mapping: None,
        conflicts: 0,
        propagations: 0,
        elapsed: Duration::ZERO,
    };
    let built = t.span("mapper.formulation.build", |_| {
        Formulation::build(dfg, &mrrg, opts)
    });
    let formulation = match built {
        Ok(f) => f,
        Err(_) => {
            counts.refuted += 1;
            run.elapsed = start.elapsed();
            return run;
        }
    };
    counts.add_formulation(&formulation.stats());
    let model = formulation.model();
    let config = SolverConfig {
        time_limit: None,
        threads: 1,
        seed: opts.seed,
        conflict_limit: opts.conflict_limit,
        ..SolverConfig::default()
    };
    let pcfg = PresolveConfig {
        probe_budget: config.presolve_probe_budget,
        deadline: None,
        ..PresolveConfig::default()
    };
    let presolved = t.span("bilp.presolve", |_| bilp::presolve(model, &pcfg));
    let (reduced, reconstruction) = match presolved {
        Presolved::Infeasible { stats } => {
            counts.add_presolve(&stats);
            run.elapsed = start.elapsed();
            return run;
        }
        Presolved::Reduced {
            model,
            reconstruction,
            stats,
        } => {
            counts.add_presolve(&stats);
            (model, reconstruction)
        }
    };
    let mut solver = t.span("bilp.load", |_| {
        IncrementalSolver::new(
            &reduced,
            SolverConfig {
                presolve: false,
                ..config
            },
        )
    });
    let outcome = t.span("bilp.search", |_| {
        let first = solver.solve_feasible();
        if optimize && first.solution().is_some() {
            solver.optimize()
        } else {
            first
        }
    });
    let stats = solver.stats();
    counts.add_search(&stats);
    run.conflicts = stats.engine.conflicts;
    run.propagations = stats.engine.propagations;
    let (solution, optimal) = match outcome {
        Outcome::Optimal { solution, .. } => (solution, optimize),
        Outcome::Feasible { solution, .. } => (solution, false),
        Outcome::Infeasible => {
            run.elapsed = start.elapsed();
            return run;
        }
        Outcome::Unknown => {
            run.symbol = "T";
            run.elapsed = start.elapsed();
            return run;
        }
    };
    let decoded = t.span("mapper.mapping.decode", |_| {
        formulation.try_decode(dfg, &mrrg, &reconstruction.expand(&solution))
    });
    run.elapsed = start.elapsed();
    let Ok(mapping) = decoded else {
        run.symbol = "decode-error";
        return run;
    };
    let valid = t.span("mapper.mapping.validate", |_| {
        validate_mapping(dfg, &mrrg, &mapping)
    });
    run.elapsed = start.elapsed();
    if valid.is_err() {
        run.symbol = "invalid";
        return run;
    }
    let usage = mapping.routing_resource_usage(dfg);
    run.symbol = "1";
    run.optimal = optimal;
    run.mapping = Some((mapping, usage));
    run
}

/// Resolves (kernel, architecture, II) triples to grid cells.
pub(crate) fn cells(list: &[(&str, &str, u32)], kernels: &[(String, Dfg)]) -> Vec<CellId> {
    list.iter()
        .map(|&(kernel, arch, ii)| CellId {
            kernel: kernels
                .iter()
                .position(|(n, _)| n == kernel)
                .expect("listed kernel exists"),
            column: COLUMNS
                .iter()
                .position(|&c| c == (arch, ii))
                .expect("listed column exists"),
        })
        .collect()
}

/// Shuffles `items` in place (Fisher-Yates) with `rng`.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// The cells one run visits, in seeded order.
fn cell_order(route_min: bool, kernels: &[(String, Dfg)], units: usize, seed: u64) -> Vec<CellId> {
    let (list, repeats): (&[_], usize) = if route_min {
        (&ROUTE_MIN_CELLS, ROUTE_MIN_REPEATS)
    } else {
        (&SWEEP_CELLS, 1)
    };
    let once = cells(list, kernels);
    let mut order: Vec<CellId> = once
        .iter()
        .copied()
        .cycle()
        .take(once.len() * repeats * units)
        .collect();
    shuffle(&mut order, &mut Rng::seed_from_u64(seed));
    order
}

/// Checks every cell against the oracles, outside the timed region:
/// agreement with the paper where both decided, `validate_mapping` and
/// functional simulation of every mapping. Returns one line per failure.
fn oracle_failures(p: &Prepared, runs: &[CellRun]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in runs {
        let label = r.cell.label(&p.kernels);
        let paper = r.cell.paper();
        if !matches!(r.symbol, "1" | "0" | "T") {
            failures.push(format!("{label}: {}", r.symbol));
            continue;
        }
        if r.symbol != "T" && paper != "T" && r.symbol != paper {
            failures.push(format!("{label}: paper {paper}, measured {}", r.symbol));
        }
        let Some((mapping, _)) = &r.mapping else {
            continue;
        };
        let (arch_label, ii) = COLUMNS[r.cell.column];
        let session = &p.sessions[arch_label];
        let mrrg = session.mrrg(ii);
        let dfg = &p.kernels[r.cell.kernel].1;
        if let Err(e) = validate_mapping(dfg, &mrrg, mapping) {
            failures.push(format!("{label}: invalid mapping: {e}"));
        } else if let Err(e) =
            cgra_sim::verify_mapping_vectors(session.arch(), &mrrg, dfg, mapping, 4)
        {
            failures.push(format!("{label}: simulation disagrees: {e}"));
        }
    }
    failures
}

/// Runs `table2-sweep` (`route_min == false`) or `route-min`.
pub fn run(route_min: bool, seed: u64, units: usize, traced: bool) -> RunResult {
    let (kernel_texts, arch_texts) = input_texts();
    let mut tracer = Tracer::new(traced);
    let time_set_up = |t: &mut Tracer| {
        let start = Instant::now();
        let p = set_up(&kernel_texts, &arch_texts, t);
        (start.elapsed().as_secs_f64(), p)
    };
    // The set-up is timed SETUP_REPEATS times: once before the first cell
    // (that one serves the run, and is the one traced) and again at even
    // intervals between the cells, so the median does not hang on the
    // machine's speed at a single moment. The extra set-ups are dropped.
    let (first, p) = time_set_up(&mut tracer);
    let mut setups = vec![first];
    let cells = cell_order(route_min, &p.kernels, units, seed);
    let every = cells.len().div_ceil(SETUP_REPEATS - 1).max(1);

    let mut counts = LayerCounts::default();
    let mut runs = Vec::with_capacity(cells.len());
    for (i, &cell) in cells.iter().enumerate() {
        if traced {
            tracer.set_request(i as u64);
            runs.push(run_cell_traced(
                &p,
                cell,
                route_min,
                &mut tracer,
                &mut counts,
            ));
        } else {
            runs.push(run_cell(&p, cell, route_min));
        }
        if (i + 1) % every == 0 && setups.len() < SETUP_REPEATS {
            setups.push(time_set_up(&mut Tracer::new(false)).0);
        }
    }
    // The time spent in cells, without the interleaved set-ups.
    let wall: Duration = runs.iter().map(|r| r.elapsed).sum();
    for r in &runs {
        eprintln!(
            "{:<28} {}{} conflicts {:>7} {:>10.3} ms",
            r.cell.label(&p.kernels),
            r.symbol,
            if r.optimal { "*" } else { " " },
            r.conflicts,
            r.elapsed.as_secs_f64() * 1e3
        );
    }
    let failures = oracle_failures(&p, &runs);

    // The fingerprint lists each distinct cell once, in grid order, so it
    // does not depend on the seed's order or on the repeat count.
    let mut by_cell: BTreeMap<CellId, &CellRun> = BTreeMap::new();
    for r in &runs {
        by_cell.entry(r.cell).or_insert(r);
    }
    let verdicts: String = by_cell
        .values()
        .map(|r| if r.optimal { "*" } else { r.symbol })
        .collect();
    let fingerprint = Fingerprint {
        verdicts,
        conflicts: by_cell.values().map(|r| r.conflicts).sum(),
        propagations: by_cell.values().map(|r| r.propagations).sum(),
        routing_cost: by_cell
            .values()
            .filter_map(|r| r.mapping.as_ref().map(|m| m.1 as u64))
            .sum(),
        served: by_cell.len() as u64,
    };

    let latencies: Vec<f64> = runs.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).collect();
    let mut result = RunResult::new(fingerprint, wall);
    result.attempted = runs.len() as u64;
    result.failures = failures;
    result.notes.push(format!(
        "{} cells ({} distinct), wall {:.3} s",
        runs.len(),
        by_cell.len(),
        wall.as_secs_f64(),
    ));
    let cells_per_s = runs.len() as f64 / wall.as_secs_f64();
    let p50 = median(&latencies).expect("cells ran");
    let e = &mut result.end_to_end;
    e.insert("setup_s", median(&setups).expect("set-ups ran"));
    e.insert("cells_per_s", cells_per_s);
    e.insert("cell_p50_ms", p50);
    // One lane: every in-process query is a solve on warm MRRGs, so the
    // serve lane metrics read the same cells.
    e.insert("warm_p50_ms", p50);
    e.insert("cold_p50_ms", p50);
    e.insert("cold_per_s", cells_per_s);
    match tail(&latencies) {
        Some(t) => {
            for name in ["cell_tail_ms", "cold_tail_ms"] {
                e.insert(name, t.value);
            }
            result.notes.push(format!(
                "cell tail {} over {} samples ({} beyond)",
                t.label(),
                t.samples,
                t.beyond
            ));
        }
        None => result
            .failures
            .push(format!("{} cells are too few for a tail", runs.len())),
    }
    e.insert("peak_rss_mb", crate::peak_rss_mb(None));

    if traced {
        let self_times = tracer.self_times();
        result.add_span_metrics(&tracer);
        let l = &mut result.layers;
        let nodes: usize = p
            .sessions
            .values()
            .map(|s| s.mrrg(1).node_count() + s.mrrg(2).node_count())
            .sum();
        l.insert("mrrg.nodes", nodes as f64);
        counts.insert_into(l);
        let search_s = self_times.get("bilp.search").copied().unwrap_or_default();
        if search_s > Duration::ZERO {
            l.insert(
                "bilp.search.props_per_s",
                counts.engine.propagations as f64 / search_s.as_secs_f64(),
            );
        }
        let covered: Duration = self_times
            .iter()
            .filter(|(name, _)| !SETUP_SPANS.contains(name))
            .map(|(_, d)| *d)
            .sum();
        l.insert("trace.coverage", covered.as_secs_f64() / wall.as_secs_f64());
        result.spans = Some(tracer);
    }
    result
}
