//! Fixed-work benchmark of the CGRA mapper and its mapping service.
//!
//! ```text
//! cgra-benchmark --workload <table2-sweep|route-min|serve-mixed> --seed <n>
//!                --seconds <s> --trace <0|1> --serve-bin <path> --state-dir <dir>
//! ```
//!
//! `benchmark/run.sh` builds this program and the `cgra-serve` daemon
//! from the checkout and passes the last two options. Every run does a
//! fixed, seeded amount of work: `--seconds` picks how many units of work
//! (each sized to take about [`UNIT_SECONDS`] on a 2-core x86-64 host),
//! never how long to keep going, and every solver query is bounded by a
//! conflict budget with one solver thread. The same build therefore does
//! the same solver work on every run, and only CPU speed moves the
//! wall-clock numbers.
//!
//! Workloads:
//!
//! * `table2-sweep`: the paper's 152-cell Table 2 grid in seeded order,
//!   feasibility only, in process. Presolve and formulation changes show
//!   here.
//! * `route-min`: routing minimisation (objective (10)) of the cells
//!   `table2-sweep` maps, in process. Almost all of its time is CDCL
//!   search in one incremental solver per cell.
//! * `serve-mixed`: one `cgra-serve --workers 1` daemon; an open-loop
//!   warm lane replays a working set from the cache while a closed-loop
//!   cold lane sends requests that each need a solve.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics from spans recorded around
//! calls into the crates' public functions, with coverage (summed self
//! time over wall time) and tracing overhead against the untraced run.
//! Outputs are checked outside the timed region, and each run's work
//! fingerprint must equal that of every earlier run of the same build.
//! The last line of standard output is one JSON object.

mod inprocess;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Seconds one unit of work takes on a 2-core x86-64 host.
pub const UNIT_SECONDS: u64 = 30;

/// Every end-to-end metric with its unit. Every workload reports all of
/// them; see the workload modules for what each means there.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_tail_ms", "ms"),
    ("decided_cells", "count"),
    ("routing_cost", "count"),
    ("warm_p50_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("cold_tail_ms", "ms"),
    ("cold_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit. A layer a workload does not use
/// reads 0. Times are summed self time over the run.
const PER_LAYER: [(&str, &str); 43] = [
    ("dfg.text.parse_ms", "ms"),
    ("arch.text.parse_ms", "ms"),
    ("mrrg.build_ms", "ms"),
    ("mrrg.nodes", "count"),
    ("mapper.formulation.build_ms", "ms"),
    ("mapper.formulation.vars", "count"),
    ("mapper.formulation.constraints", "count"),
    ("mapper.formulation.refuted", "count"),
    ("bilp.presolve.ms", "ms"),
    ("bilp.presolve.var_reduction", "ratio"),
    ("bilp.load.ms", "ms"),
    ("bilp.search.ms", "ms"),
    ("bilp.search.props_per_s", "1/s"),
    ("bilp.search.conflicts", "count"),
    ("bilp.search.propagations", "count"),
    ("bilp.search.decisions", "count"),
    ("bilp.search.restarts", "count"),
    ("bilp.search.learnt_clauses", "count"),
    ("bilp.search.inprocessings", "count"),
    ("bilp.search.gc_runs", "count"),
    ("bilp.search.incumbents", "count"),
    ("mapper.mapping.decode_ms", "ms"),
    ("mapper.mapping.validate_ms", "ms"),
    ("serve.cache.key_ms", "ms"),
    ("serve.wire.parse_ms", "ms"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.cache.disk_share", "ratio"),
    ("serve.service.handle_ms", "ms"),
    ("serve.warm_tail_ms", "ms"),
    ("serve.reactor.overhead_ms", "ms"),
    ("serve.service.wait_ms", "ms"),
    ("serve.service.solve_ms", "ms"),
    ("serve.stats.solves", "count"),
    ("serve.stats.coalesced", "count"),
    ("serve.stats.rejected", "count"),
    ("serve.stats.shed_deadline", "count"),
    ("serve.stats.shed_brownout", "count"),
    ("serve.stats.frames", "count"),
    ("serve.stats.backpressure_events", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// The span names whose summed self time becomes a `<name>_ms` or
/// `<name>.ms` layer metric.
const SPAN_METRICS: [(&str, &str); 13] = [
    ("dfg.text.parse", "dfg.text.parse_ms"),
    ("arch.text.parse", "arch.text.parse_ms"),
    ("mrrg.build", "mrrg.build_ms"),
    ("mapper.formulation.build", "mapper.formulation.build_ms"),
    ("bilp.presolve", "bilp.presolve.ms"),
    ("bilp.load", "bilp.load.ms"),
    ("bilp.search", "bilp.search.ms"),
    ("mapper.mapping.decode", "mapper.mapping.decode_ms"),
    ("mapper.mapping.validate", "mapper.mapping.validate_ms"),
    ("serve.cache.key", "serve.cache.key_ms"),
    ("serve.wire.parse", "serve.wire.parse_ms"),
    ("serve.service.handle", "serve.service.handle_ms"),
    ("serve.reactor.overhead", "serve.reactor.overhead_ms"),
];

/// What a run did, independent of how fast: the same build must produce
/// the same fingerprint on every run of a workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// One symbol per distinct cell in a fixed order: `1` mapped, `*`
    /// mapped and proven optimal, `0` infeasible, `T` out of budget.
    pub verdicts: String,
    /// Conflicts summed over the distinct cells.
    pub conflicts: u64,
    /// Propagations summed over the distinct cells.
    pub propagations: u64,
    /// Routing resources summed over the distinct cells' mappings.
    pub routing_cost: u64,
    /// Requests served (serve-mixed) or distinct cells run (in process).
    pub served: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verdicts={} conflicts={} propagations={} routing_cost={} served={}",
            self.verdicts, self.conflicts, self.propagations, self.routing_cost, self.served
        )
    }
}

/// Work counters of the mapping layers, summed over a run's cells.
#[derive(Debug, Default)]
pub struct LayerCounts {
    vars: u64,
    constraints: u64,
    /// Cells the formulation builder refuted before any solver ran.
    pub refuted: u64,
    vars_before: u64,
    vars_after: u64,
    pub engine: bilp::EngineStats,
    incumbents: u64,
}

impl LayerCounts {
    pub fn add_formulation(&mut self, f: &cgra_mapper::FormulationStats) {
        self.vars += (f.f_vars + f.r_vars + f.rs_vars + f.swap_vars) as u64;
        self.constraints += f.constraints as u64;
    }

    pub fn add_presolve(&mut self, p: &bilp::PresolveStats) {
        self.vars_before += p.vars_before;
        self.vars_after += p.vars_after;
    }

    pub fn add_search(&mut self, s: &bilp::SolveStats) {
        self.engine.absorb(&s.engine);
        self.incumbents += s.incumbents;
    }

    pub fn insert_into(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("mapper.formulation.vars", self.vars as f64);
        layers.insert("mapper.formulation.constraints", self.constraints as f64);
        layers.insert("mapper.formulation.refuted", self.refuted as f64);
        if self.vars_before > 0 {
            layers.insert(
                "bilp.presolve.var_reduction",
                1.0 - self.vars_after as f64 / self.vars_before as f64,
            );
        }
        let e = &self.engine;
        for (name, v) in [
            ("bilp.search.conflicts", e.conflicts),
            ("bilp.search.propagations", e.propagations),
            ("bilp.search.decisions", e.decisions),
            ("bilp.search.restarts", e.restarts),
            ("bilp.search.learnt_clauses", e.learnt_clauses),
            ("bilp.search.inprocessings", e.inprocessings),
            ("bilp.search.gc_runs", e.gc_runs),
            ("bilp.search.incumbents", self.incumbents),
        ] {
            layers.insert(name, v as f64);
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    /// One line per failed operation or oracle violation.
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub fingerprint: Fingerprint,
    /// Wall time of the timed phase.
    pub wall: Duration,
    pub notes: Vec<String>,
    pub spans: Option<trace::Tracer>,
}

impl RunResult {
    pub fn new(fingerprint: Fingerprint, wall: Duration) -> Self {
        RunResult {
            attempted: 0,
            failures: Vec::new(),
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
            fingerprint,
            wall,
            notes: Vec::new(),
            spans: None,
        }
    }

    /// Turns span self times into layer metrics.
    pub fn add_span_metrics(&mut self, tracer: &trace::Tracer) {
        let self_times = tracer.self_times();
        for (span, metric) in SPAN_METRICS {
            if let Some(d) = self_times.get(span) {
                self.layers.insert(metric, d.as_secs_f64() * 1e3);
            }
        }
        self.layers.insert("trace.spans", tracer.len() as f64);
    }
}

/// Peak resident set size in MB (`VmHWM`) of this process, or of `pid`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    state_dir: PathBuf,
}

const USAGE: &str = "usage: cgra-benchmark --workload <table2-sweep|route-min|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1> --serve-bin <path> --state-dir <dir>";

fn fail(message: &str) -> ! {
    eprintln!("cgra-benchmark: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut state_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag}: `{v}` is not a whole number")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)),
            "--seconds" => seconds = Some(number(&value)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => fail(&format!("unknown option `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    if !["table2-sweep", "route-min", "serve-mixed"].contains(&workload.as_str()) {
        fail(&format!("unknown workload `{workload}`"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds is required")),
        trace: trace.unwrap_or_else(|| fail("--trace is required")),
        serve_bin: serve_bin.unwrap_or_else(|| fail("--serve-bin is required")),
        state_dir: state_dir.unwrap_or_else(|| fail("--state-dir is required")),
    }
}

/// Identifies the build: a digest of this program and the daemon.
fn build_id(serve_bin: &Path) -> String {
    let mut h = cgra_dfg::ContentHasher::new("cgra-benchmark-build");
    for path in [std::env::current_exe().ok(), Some(serve_bin.to_path_buf())]
        .into_iter()
        .flatten()
    {
        h.write_bytes(&std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// What earlier runs of this build recorded for one workload and amount
/// of work.
struct History {
    path: PathBuf,
    build: String,
    fingerprint: Option<String>,
    untraced_wall_s: Option<f64>,
}

impl History {
    fn load(state_dir: &Path, workload: &str, units: usize, build: &str) -> History {
        let path = state_dir
            .join("history")
            .join(format!("{workload}-{units}.txt"));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key).map(str::to_owned))
        };
        let same_build = field("build ").as_deref() == Some(build);
        History {
            path,
            build: build.to_owned(),
            fingerprint: field("fingerprint ").filter(|_| same_build),
            untraced_wall_s: field("wall_s ")
                .filter(|_| same_build)
                .and_then(|w| w.parse().ok()),
        }
    }

    /// Records `fingerprint`, or reports how it differs from the one an
    /// earlier run of this build recorded.
    fn check(&mut self, fingerprint: &Fingerprint) -> Result<(), String> {
        let now = fingerprint.to_string();
        match &self.fingerprint {
            Some(earlier) if *earlier != now => Err(format!(
                "work fingerprint differs from an earlier run of this build: {earlier}"
            )),
            _ => {
                self.fingerprint = Some(now);
                Ok(())
            }
        }
    }

    fn save(&self) -> std::io::Result<()> {
        let mut text = format!("build {}\n", self.build);
        if let Some(f) = &self.fingerprint {
            let _ = writeln!(text, "fingerprint {f}");
        }
        if let Some(w) = self.untraced_wall_s {
            let _ = writeln!(text, "wall_s {w}");
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, text)
    }
}

/// Units of work a run does for `--seconds`.
fn units(args: &Args) -> usize {
    (args.seconds as f64 / UNIT_SECONDS as f64).round().max(1.0) as usize
}

fn run_workload(args: &Args, traced: bool) -> RunResult {
    let units = units(args);
    match args.workload.as_str() {
        "table2-sweep" => inprocess::run(false, args.seed, units, traced),
        "route-min" => inprocess::run(true, args.seed, units, traced),
        _ => serve::run(&args.serve_bin, &args.state_dir, args.seed, units, traced),
    }
}

fn main() {
    let args = parse_args();
    let build = build_id(&args.serve_bin);
    let mut history = History::load(&args.state_dir, &args.workload, units(&args), &build);
    let mut failures = Vec::new();
    if args.trace && history.untraced_wall_s.is_none() {
        // Tracing overhead needs an untraced run of this build to
        // compare with; make one first.
        let plain = run_workload(&args, false);
        history.untraced_wall_s = Some(plain.wall.as_secs_f64());
        failures.extend(history.check(&plain.fingerprint).err());
    }
    let mut result = run_workload(&args, args.trace);
    result.failures.append(&mut failures);
    // Exact measures of the answers, over the distinct cells answered.
    let fp = &result.fingerprint;
    let decided = fp.verdicts.chars().filter(|&v| v != 'T').count();
    let routing = fp.routing_cost;
    result.end_to_end.insert("decided_cells", decided as f64);
    result.end_to_end.insert("routing_cost", routing as f64);

    println!(
        "workload {} seed {} build {build}",
        args.workload, args.seed
    );
    println!("fingerprint {}", result.fingerprint);
    if let Err(e) = history.check(&result.fingerprint) {
        result.failures.push(e);
    }
    if args.trace {
        if let Some(untraced) = history.untraced_wall_s {
            result
                .layers
                .insert("trace.overhead", result.wall.as_secs_f64() / untraced - 1.0);
        }
        if let Some(spans) = &result.spans {
            let path = args
                .state_dir
                .join("traces")
                .join(format!("{}-{}.jsonl", args.workload, args.seed));
            match spans.write(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => result.failures.push(format!("cannot write spans: {e}")),
            }
        }
    } else {
        history.untraced_wall_s = Some(result.wall.as_secs_f64());
    }
    if let Err(e) = history.save() {
        result
            .failures
            .push(format!("cannot record run history: {e}"));
    }
    for note in &result.notes {
        println!("{note}");
    }
    for f in &result.failures {
        println!("FAILED: {f}");
    }

    let (names, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if args.trace {
        (&PER_LAYER, &result.layers)
    } else {
        (&END_TO_END, &result.end_to_end)
    };
    let mut correct = result.failures.is_empty();
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) | None if args.trace => 0.0,
            _ => {
                println!("FAILED: metric {name} was not measured");
                correct = false;
                continue;
            }
        };
        println!("{name:<34} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let failed = (result.failures.len() as u64).min(result.attempted);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        result.attempted,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_whose_work_differs_fails() {
        let mut history = History {
            path: PathBuf::new(),
            build: "b".to_owned(),
            fingerprint: None,
            untraced_wall_s: None,
        };
        let first = Fingerprint {
            verdicts: "1T0".to_owned(),
            conflicts: 5,
            ..Fingerprint::default()
        };
        assert!(history.check(&first).is_ok());
        assert!(history.check(&first.clone()).is_ok());
        let other = Fingerprint {
            conflicts: 6,
            ..first
        };
        assert!(history.check(&other).is_err());
    }
}
