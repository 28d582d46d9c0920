//! The `serve-mixed` workload: one `cgra-serve --workers 1` daemon, two
//! lanes, one client process with two threads and two connections.
//!
//! * The **warm lane** is one connection running open loop at
//!   [`WARM_RATE`] requests per second over a working set of Table-2
//!   requests. Each request is timed from the moment it was due, so a
//!   stall also counts against the requests queued behind it.
//! * The **cold lane** is one connection running closed loop over the
//!   `table2-sweep` cells, each request made unique by a seeded `seed` option,
//!   so every one misses the cache and solves under a conflict budget
//!   with one solver thread.
//!
//! Before the run an untimed step solves the working set once on a
//! throw-away daemon, which leaves it in an on-disk cache segment. The
//! timed set-up then spawns a fresh daemon on that segment (read-only,
//! so no run writes to it) and sends every working-set request once,
//! which promotes the results from disk into memory. Every request line
//! is rendered before timing starts.
//!
//! Lane metrics: `warm_p50_ms` reads the warm lane and `cold_*` the cold
//! lane; `cells_per_s`, `cell_p50_ms` and `cell_tail_ms` read the cold
//! lane too, since each cold request is one solved cell. The warm tail is
//! reported with the layers (`serve.warm_tail_ms`).

use crate::inprocess::{cells, shuffle, CellId, COLUMNS, SWEEP_CELLS};
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use crate::{Fingerprint, LayerCounts, RunResult};
use cgra_bench::PAPER_TABLE2;
use cgra_dfg::Dfg;
use cgra_mapper::{validate_mapping, MapOutcome};
use cgra_mrrg::{build_mrrg, Mrrg};
use cgra_rng::Rng;
use cgra_serve::client::decode_response;
use cgra_serve::json::{obj, s, Json};
use cgra_serve::service::{Service, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Conflict budget per solver query of every serve request.
const CONFLICT_BUDGET: u64 = 300;

/// Warm-lane request rate, well below the daemon's capacity.
const WARM_RATE: u64 = 250;

/// Seconds the warm lane runs per unit of work: about as long as the
/// cold lane takes for its cells on a 2-core x86-64 host, so the lanes
/// contend for most of the run.
const WARM_SECONDS: u64 = 36;

/// Passes the cold lane makes over the `table2-sweep` cells per unit of
/// work; every request of every pass carries its own seed.
const COLD_PASSES: usize = 2;

/// Times the daemon set-up is repeated per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// The working set: the cells of the two smallest kernels, cheap to
/// solve in the untimed preparation.
const WORKING_SET: [(&str, &str, u32); 16] = [
    ("accum", "hetero-orth", 1),
    ("accum", "hetero-diag", 1),
    ("accum", "homo-orth", 1),
    ("accum", "homo-diag", 1),
    ("accum", "hetero-orth", 2),
    ("accum", "hetero-diag", 2),
    ("accum", "homo-orth", 2),
    ("accum", "homo-diag", 2),
    ("mac", "hetero-orth", 1),
    ("mac", "hetero-diag", 1),
    ("mac", "homo-orth", 1),
    ("mac", "homo-diag", 1),
    ("mac", "hetero-orth", 2),
    ("mac", "hetero-diag", 2),
    ("mac", "homo-orth", 2),
    ("mac", "homo-diag", 2),
];

/// One connection with a pre-rendered-line round trip.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one line (already ending in `\n`) with a single write and
    /// reads one response line.
    fn roundtrip(&mut self, line: &[u8]) -> std::io::Result<String> {
        self.writer.write_all(line)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

/// A running daemon.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Daemon {
    fn spawn(bin: &Path, cache_dir: &Path, read_only: bool) -> std::io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--deadline-secs",
            "0",
        ])
        .arg("--cache-dir")
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        if read_only {
            cmd.arg("--cache-read-only");
        }
        let mut child = cmd.spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut log = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!(
                    "daemon exited before listening: {log}"
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_owned();
            }
            log.push_str(&line);
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut stderr, &mut rest);
            log + &rest
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(drain),
        })
    }

    /// The `stats` command's counters.
    fn stats(&self) -> std::io::Result<Json> {
        let mut conn = Conn::open(&self.addr)?;
        let reply = conn.roundtrip(b"{\"id\":\"stats\",\"cmd\":\"stats\"}\n")?;
        decode_response(&reply)
            .map(|ok| ok.result)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Asks the daemon to shut down and waits until it has exited.
    fn stop(mut self) -> std::io::Result<()> {
        let asked = Conn::open(&self.addr)
            .and_then(|mut c| c.roundtrip(b"{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n"));
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let log = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        asked?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(std::io::Error::other(format!(
                "daemon exited with {s}: {log}"
            ))),
            None => Err(std::io::Error::other(
                "daemon did not exit after shutdown; killed",
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on an error path: never leave a daemon behind.
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}

/// One request: its cell and its pre-rendered line.
struct Request {
    cell: CellId,
    line: Vec<u8>,
}

/// Inputs shared by every request: kernels and architecture texts.
struct Inputs {
    kernels: Vec<(String, Dfg)>,
    kernel_texts: Vec<String>,
    arch_texts: BTreeMap<&'static str, String>,
    archs: BTreeMap<&'static str, cgra_arch::Architecture>,
}

impl Inputs {
    fn new() -> Inputs {
        let kernels: Vec<(String, Dfg)> = cgra_dfg::benchmarks::all()
            .iter()
            .map(|e| (e.name.to_owned(), (e.build)()))
            .collect();
        let kernel_texts = kernels
            .iter()
            .map(|(_, d)| cgra_dfg::text::print(d))
            .collect();
        let mut arch_texts = BTreeMap::new();
        let mut archs = BTreeMap::new();
        for c in cgra_arch::families::paper_configs() {
            arch_texts.insert(c.label, cgra_arch::text::print(&c.arch));
            archs.insert(c.label, c.arch);
        }
        Inputs {
            kernels,
            kernel_texts,
            arch_texts,
            archs,
        }
    }

    /// Renders a `map` request line, newline included.
    fn render(&self, id: &str, cell: CellId, seed: u64) -> Request {
        let (arch, ii) = COLUMNS[cell.column];
        let options = obj(vec![
            ("threads", Json::Int(1)),
            ("presolve", Json::Bool(true)),
            ("conflict_limit", Json::Int(CONFLICT_BUDGET as i64)),
            ("seed", Json::Int(seed as i64)),
        ]);
        let doc = obj(vec![
            ("id", s(id)),
            ("cmd", s("map")),
            ("dfg", s(self.kernel_texts[cell.kernel].clone())),
            ("arch", s(self.arch_texts[arch].clone())),
            ("ii", Json::Int(ii as i64)),
            ("options", options),
        ]);
        let mut line = doc.to_string().into_bytes();
        line.push(b'\n');
        Request { cell, line }
    }
}

/// A reply and how long it took.
struct Timed {
    request: usize,
    reply: std::io::Result<String>,
    due: Instant,
    sent: Instant,
    done: Instant,
}

/// Sends the requests `order` names over one connection. With a
/// `period` the lane runs open loop: request `i` is due at
/// `start + i * period` and is timed from then, however late it goes
/// out. Without one it runs closed loop: each request goes out as soon as
/// the previous reply is in.
fn lane(
    addr: &str,
    lines: &[Request],
    order: &[usize],
    period: Option<Duration>,
    start: Instant,
) -> Vec<Timed> {
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            return vec![Timed {
                request: 0,
                reply: Err(e),
                due: start,
                sent: start,
                done: start,
            }]
        }
    };
    let mut out = Vec::with_capacity(order.len());
    for (i, &r) in order.iter().enumerate() {
        let now = Instant::now();
        let due = period.map_or(now, |p| start + p * i as u32);
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let reply = conn.roundtrip(&lines[r].line);
        let failed = reply.is_err();
        out.push(Timed {
            request: r,
            reply,
            due,
            sent,
            done: Instant::now(),
        });
        if failed {
            break;
        }
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_i64).unwrap_or(0) as f64
}

/// Runs the workload. The daemons' cache segment lives in a directory of
/// its own under `state_dir`, removed again at the end.
pub fn run(bin: &Path, state_dir: &Path, seed: u64, units: usize, traced: bool) -> RunResult {
    let dir = state_dir.join(format!("serve-{}", std::process::id()));
    let result = run_in(bin, &dir, seed, units, traced);
    let _ = std::fs::remove_dir_all(&dir);
    result.unwrap_or_else(|e| {
        let mut r = RunResult::new(Fingerprint::default(), Duration::ZERO);
        r.attempted = 1;
        r.failures.push(format!("serve-mixed could not run: {e}"));
        r
    })
}

fn run_in(
    bin: &Path,
    dir: &Path,
    seed: u64,
    units: usize,
    traced: bool,
) -> std::io::Result<RunResult> {
    let inputs = Inputs::new();
    let working: Vec<Request> = cells(&WORKING_SET, &inputs.kernels)
        .into_iter()
        .enumerate()
        .map(|(i, cell)| inputs.render(&format!("w{i}"), cell, 0))
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut cold_cells: Vec<CellId> = (0..units * COLD_PASSES)
        .flat_map(|_| cells(&SWEEP_CELLS, &inputs.kernels))
        .collect();
    shuffle(&mut cold_cells, &mut rng);
    // A fresh seed per cold request and per run: no request repeats an
    // earlier one, so each misses the cache and solves.
    let cold: Vec<Request> = cold_cells
        .iter()
        .enumerate()
        .map(|(i, &cell)| inputs.render(&format!("c{i}"), cell, rng.next_u64() >> 1))
        .collect();
    let warm_count = (WARM_RATE * WARM_SECONDS) as usize * units;
    let warm_order: Vec<usize> = (0..warm_count)
        .map(|_| rng.gen_range(0..working.len()))
        .collect();

    // Untimed preparation: solve the working set once into a segment.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let mrrgs = Mrrgs::default();
    let first_replies: Vec<String> = {
        let daemon = Daemon::spawn(bin, dir, false)?;
        let mut conn = Conn::open(&daemon.addr)?;
        let replies = working
            .iter()
            .map(|r| conn.roundtrip(&r.line))
            .collect::<std::io::Result<Vec<String>>>()?;
        drop(conn);
        daemon.stop()?;
        replies
    };
    let mut failures = Vec::new();
    // The first replies are the reference every warm reply must match;
    // they pass the same checks as cold replies.
    let mut working_checked = Vec::with_capacity(working.len());
    let first_results: Vec<String> = first_replies
        .iter()
        .zip(&working)
        .enumerate()
        .map(|(i, (reply, req))| {
            match check_reply(&inputs, &mrrgs, req.cell, Ok(reply)) {
                Ok(c) => working_checked.push(c),
                Err(e) => failures.push(format!("working-set request w{i}: {e}")),
            }
            decode_response(reply).map_or_else(|_| String::new(), |ok| ok.result_text)
        })
        .collect();

    // Timed set-up: daemon spawn to first accepted request, plus promoting
    // the working set from the segment. The last daemon serves the run.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut daemon = None;
    let mut setup_replies = Vec::new();
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let d = Daemon::spawn(bin, dir, true)?;
        let mut conn = Conn::open(&d.addr)?;
        let replies = working
            .iter()
            .map(|r| conn.roundtrip(&r.line))
            .collect::<std::io::Result<Vec<String>>>()?;
        setups.push(start.elapsed().as_secs_f64());
        drop(conn);
        setup_replies.extend(replies.into_iter().enumerate());
        if i + 1 == SETUP_REPEATS {
            daemon = Some(d);
        } else {
            d.stop()?;
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let before = daemon.stats()?;

    // The measured phase: both lanes start together.
    let cold_order: Vec<usize> = (0..cold.len()).collect();
    let warm_period = Duration::from_nanos(1_000_000_000 / WARM_RATE);
    let barrier = Barrier::new(3);
    let (warm_runs, cold_runs, wall) = std::thread::scope(|scope| {
        let addr = daemon.addr.as_str();
        let barrier = &barrier;
        let warm = scope.spawn(|| {
            barrier.wait();
            lane(
                addr,
                &working,
                &warm_order,
                Some(warm_period),
                Instant::now(),
            )
        });
        let cold = scope.spawn(|| {
            barrier.wait();
            lane(addr, &cold, &cold_order, None, Instant::now())
        });
        barrier.wait();
        let start = Instant::now();
        let warm = warm.join().expect("warm lane does not panic");
        let cold = cold.join().expect("cold lane does not panic");
        (warm, cold, start.elapsed())
    });
    let after = daemon.stats()?;
    let peak_rss = crate::peak_rss_mb(Some(daemon.child.id()));
    daemon.stop()?;

    // Oracles, outside the timed region.
    let mut served = 0u64;
    for (i, reply) in &setup_replies {
        check_warm(*i, reply, &first_results, &mut failures);
    }
    let mut warm_latency = Vec::with_capacity(warm_runs.len());
    let mut lag = Vec::with_capacity(warm_runs.len());
    for t in &warm_runs {
        match &t.reply {
            Ok(reply) => {
                served += 1;
                check_warm(t.request, reply, &first_results, &mut failures);
            }
            Err(e) => failures.push(format!("warm request failed: {e}")),
        }
        warm_latency.push(ms(t.done - t.due));
        lag.push(ms(t.sent - t.due));
    }
    if warm_runs.len() < warm_order.len() {
        failures.push(format!(
            "warm lane stopped after {} of {} requests",
            warm_runs.len(),
            warm_order.len()
        ));
    }
    let mut cold_checked = Vec::with_capacity(cold_runs.len());
    let mut cold_latency = Vec::with_capacity(cold_runs.len());
    for t in &cold_runs {
        cold_latency.push(ms(t.done - t.sent));
        let req = &cold[t.request];
        match check_reply(
            &inputs,
            &mrrgs,
            req.cell,
            t.reply.as_ref().map_err(|e| e.to_string()),
        ) {
            Ok(c) => {
                served += 1;
                cold_checked.push(c);
            }
            Err(e) => failures.push(format!("cold request c{}: {e}", t.request)),
        }
    }
    if cold_runs.len() < cold.len() {
        failures.push(format!(
            "cold lane stopped after {} of {} requests",
            cold_runs.len(),
            cold.len()
        ));
    }

    let cold_wall = cold_runs
        .last()
        .zip(cold_runs.first())
        .map_or(wall, |(l, f)| l.done - f.sent);
    // Every distinct cell the run answered, warm or cold.
    let mut by_cell: BTreeMap<CellId, &Checked> = BTreeMap::new();
    for c in working_checked.iter().chain(&cold_checked) {
        by_cell.entry(c.cell).or_insert(c);
    }
    let fingerprint = Fingerprint {
        verdicts: by_cell.values().map(|c| c.symbol).collect(),
        conflicts: by_cell
            .values()
            .map(|c| c.report.solver.engine.conflicts)
            .sum(),
        propagations: by_cell
            .values()
            .map(|c| c.report.solver.engine.propagations)
            .sum(),
        routing_cost: by_cell.values().map(|c| c.routing as u64).sum(),
        served,
    };
    // The warm lane runs for a fixed time; the cold lane's duration is
    // what speed changes move.
    let mut result = RunResult::new(fingerprint, cold_wall);
    result.attempted = (warm_order.len() + cold.len() + working.len() * (SETUP_REPEATS + 1)) as u64;
    result.failures = failures;
    let warm_tail = tail(&warm_latency);
    let cold_tail = tail(&cold_latency);
    for (lane, t) in [("warm", &warm_tail), ("cold", &cold_tail)] {
        match t {
            Some(t) => result.notes.push(format!(
                "{lane} lane: tail {} over {} samples ({} beyond)",
                t.label(),
                t.samples,
                t.beyond
            )),
            None => result
                .failures
                .push(format!("{lane} lane has too few samples for a tail")),
        }
    }
    let ladder: Vec<String> = [500, 900, 950, 990, 999]
        .iter()
        .map(|&pm| format!("{:.3}", percentile(&warm_latency, pm).unwrap_or(0.0)))
        .collect();
    result.notes.push(format!(
        "warm lane p50/p90/p95/p99/p99.9: {} ms",
        ladder.join(" / ")
    ));
    result.notes.push(format!(
        "warm {} requests at {WARM_RATE}/s, cold {} requests in {:.3} s, wall {:.3} s, \
         generator lag p99 {:.3} ms",
        warm_runs.len(),
        cold_runs.len(),
        cold_wall.as_secs_f64(),
        wall.as_secs_f64(),
        percentile(&lag, 990).unwrap_or(0.0)
    ));
    let e = &mut result.end_to_end;
    e.insert("setup_s", median(&setups).unwrap_or(0.0));
    if let (Some(w50), Some(c50), Some(wt), Some(ct)) = (
        median(&warm_latency),
        median(&cold_latency),
        warm_tail,
        cold_tail,
    ) {
        let cold_per_s = cold_runs.len() as f64 / cold_wall.as_secs_f64();
        e.insert("warm_p50_ms", w50);
        e.insert("cold_p50_ms", c50);
        e.insert("cold_tail_ms", ct.value);
        e.insert("cold_per_s", cold_per_s);
        e.insert("cells_per_s", cold_per_s);
        e.insert("cell_p50_ms", c50);
        e.insert("cell_tail_ms", ct.value);
        // Warm replies stall for milliseconds whenever the host holds up
        // one of the two cores, which happens to a varying 1-10% of them
        // from run to run; a tail inside that share cannot be held to an
        // end-to-end bound, so it is reported with the layers.
        result.layers.insert("serve.warm_tail_ms", wt.value);
    }
    e.insert("peak_rss_mb", peak_rss);

    if traced {
        let l = &mut result.layers;
        let delta = |k: &str| counter(&after, k) - counter(&before, k);
        for (metric, key) in [
            ("serve.stats.solves", "solves"),
            ("serve.stats.coalesced", "coalesced"),
            ("serve.stats.rejected", "rejected"),
            ("serve.stats.shed_deadline", "shed_deadline"),
            ("serve.stats.shed_brownout", "shed_brownout"),
            ("serve.stats.frames", "frames"),
            ("serve.stats.backpressure_events", "backpressure_events"),
        ] {
            l.insert(metric, delta(key));
        }
        let hits = delta("cache_hits");
        let map_requests = delta("requests");
        if map_requests > 0.0 {
            l.insert("serve.cache.hit_share", hits / map_requests);
        }
        if hits > 0.0 {
            l.insert("serve.cache.disk_share", delta("cache_disk_hits") / hits);
        }
        l.insert("loadgen.lag_p99_ms", percentile(&lag, 990).unwrap_or(0.0));
        let wait: f64 = cold_checked.iter().map(|c| ms(c.wait)).sum();
        let solve: f64 = cold_checked.iter().map(|c| ms(c.solve)).sum();
        l.insert("serve.service.wait_ms", wait);
        l.insert("serve.service.solve_ms", solve);
        // The daemon's own counts for the cold solves, read from the
        // reports it returned.
        let mut counts = LayerCounts::default();
        for c in &cold_checked {
            counts.refuted += u64::from(c.refuted);
            counts.add_formulation(&c.report.formulation);
            counts.add_presolve(&c.report.solver.presolve);
            counts.add_search(&c.report.solver);
        }
        counts.insert_into(l);
        let mut tracer = Tracer::new(true);
        replay_in_process(&working, &warm_runs, dir, &mut tracer);
        let tcp: f64 = warm_runs.iter().map(|t| ms(t.done - t.sent)).sum();
        let handle = tracer
            .self_times()
            .get("serve.service.handle")
            .map_or(0.0, |d| ms(*d));
        result.add_span_metrics(&tracer);
        let l = &mut result.layers;
        l.insert("serve.reactor.overhead_ms", tcp - handle);
        let observed: f64 = tcp + cold_latency.iter().sum::<f64>();
        l.insert("trace.coverage", (handle + wait + solve) / observed);
        result.spans = Some(tracer);
    }
    Ok(result)
}

/// Checks one warm reply: a success whose `result` is byte-identical to
/// the first reply to the same request.
fn check_warm(i: usize, reply: &str, first: &[String], failures: &mut Vec<String>) {
    match decode_response(reply) {
        Ok(ok) if ok.result_text == first[i] => {}
        Ok(_) => failures.push(format!("warm reply to w{i} differs from the first reply")),
        Err(e) => failures.push(format!("warm request w{i} failed: {e}")),
    }
}

/// A checked cold reply.
struct Checked {
    cell: CellId,
    symbol: &'static str,
    refuted: bool,
    routing: usize,
    report: cgra_mapper::MapReport,
    wait: Duration,
    solve: Duration,
}

/// MRRGs for decoding replies, built on demand outside the timed region.
#[derive(Default)]
struct Mrrgs(std::cell::RefCell<BTreeMap<usize, Arc<Mrrg>>>);

impl Mrrgs {
    fn get(&self, inputs: &Inputs, column: usize) -> Arc<Mrrg> {
        let (arch, ii) = COLUMNS[column];
        Arc::clone(
            self.0
                .borrow_mut()
                .entry(column)
                .or_insert_with(|| Arc::new(build_mrrg(&inputs.archs[arch], ii))),
        )
    }
}

/// Decodes a `map` reply and checks it: a success, no contradiction with
/// the paper, and any mapping valid and functionally correct in
/// simulation.
fn check_reply(
    inputs: &Inputs,
    mrrgs: &Mrrgs,
    cell: CellId,
    reply: Result<&String, String>,
) -> Result<Checked, String> {
    let ok = decode_response(reply?).map_err(|e| e.to_string())?;
    let served = ok.served.ok_or("reply has no `served` block")?;
    let (arch, _) = COLUMNS[cell.column];
    let dfg = &inputs.kernels[cell.kernel].1;
    let mrrg = mrrgs.get(inputs, cell.column);
    let report = cgra_serve::wire::decode_map_report(dfg, &mrrg, &ok.result)
        .map_err(|e| format!("undecodable report: {e}"))?;
    let symbol = report.outcome.table_symbol();
    let paper = PAPER_TABLE2[cell.kernel].1[cell.column];
    if symbol != "T" && paper != "T" && symbol != paper {
        return Err(format!("paper {paper}, served {symbol}"));
    }
    let mut routing = 0;
    if let MapOutcome::Mapped {
        mapping,
        routing_usage,
        ..
    } = &report.outcome
    {
        validate_mapping(dfg, &mrrg, mapping).map_err(|e| format!("invalid mapping: {e}"))?;
        cgra_sim::verify_mapping_vectors(&inputs.archs[arch], &mrrg, dfg, mapping, 4)
            .map_err(|e| format!("simulation disagrees: {e}"))?;
        routing = *routing_usage;
    }
    Ok(Checked {
        cell,
        symbol,
        refuted: matches!(report.outcome, MapOutcome::Infeasible { reason: Some(_) }),
        routing,
        report,
        wait: served.wait,
        solve: served.solve,
    })
}

/// The traced run's view of the warm path: every warm request of the run
/// replayed through an in-process `Service` on the same segment, timing
/// `Service::handle` and, separately, the wire parse and raw cache key it
/// computes on the way. The graph parses the memo saves are timed once
/// per working-set request, as the daemon paid them during set-up.
fn replay_in_process(working: &[Request], warm: &[Timed], dir: &Path, t: &mut Tracer) {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: Some(dir.to_path_buf()),
        cache_read_only: true,
        deadline: None,
        ..ServiceConfig::default()
    });
    let text = |r: &Request| String::from_utf8_lossy(&r.line).trim_end().to_owned();
    for r in working {
        let line = text(r);
        let Ok(request) = cgra_serve::wire::parse_request(&line) else {
            continue;
        };
        if let cgra_serve::RequestBody::Map { dfg, arch, .. } = &request.body {
            t.span("dfg.text.parse", |_| cgra_dfg::text::parse(dfg).is_ok());
            t.span("arch.text.parse", |_| cgra_arch::text::parse(arch).is_ok());
        }
        service.handle(&line);
    }
    let lines: Vec<String> = working.iter().map(text).collect();
    for (i, timed) in warm.iter().enumerate() {
        t.set_request(i as u64);
        let line = &lines[timed.request];
        let request = t.span("serve.wire.parse", |_| {
            cgra_serve::wire::parse_request(line)
        });
        if let Ok(cgra_serve::Request {
            body:
                cgra_serve::RequestBody::Map {
                    dfg,
                    arch,
                    ii,
                    options,
                },
            ..
        }) = &request
        {
            t.span("serve.cache.key", |_| {
                cgra_serve::cache::raw_request_key("map", dfg, arch, *ii, options)
            });
        }
        t.span("serve.service.handle", |_| service.handle(line));
    }
    service.initiate_shutdown();
    service.join_workers();
}
