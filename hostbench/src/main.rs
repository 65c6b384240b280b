//! `hostbench` — what one simulation costs the host, end to end and layer
//! by layer.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the simulator from this one process through its public API
//! (`World::new`, `build_programs`, `World::run`), one simulation at a
//! time, with one engine worker and no batch pool, pinned to one CPU.
//! Every run builds a fresh `World`, so the modelled caches start empty.
//!
//! * `--trace 0` is the **end-to-end pass**: back-to-back runs of the
//!   workload for `--seconds`, reporting medians of host set-up time, run
//!   time and process CPU, the peak resident memory, the simulated
//!   completion time and the share of runs that passed the output gate.
//! * `--trace 1` is the **layer pass**: repeated passes that wrap every
//!   program and the engine in thread clocks, trace one run losslessly for
//!   the per-layer counts, snapshot one run, and time each layer's core
//!   call alone; plus one `cni-run` cross-check and parallel-engine probe.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

// The repository's clippy configuration bans the host clock so that
// simulated results never depend on it; timing the host is this
// benchmark's whole purpose.
#![allow(clippy::disallowed_methods)]

mod host;
mod probes;
mod workloads;

use cni::{ProcCtx, Program, RunReport, TraceEvent, TraceSink, World};
use cni_apps::experiments::build_programs;
use host::ThreadTimes;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::{digest, Workload, DEFAULT_SEED};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?
            .to_string();
        let v = it
            .next()
            .ok_or_else(|| format!("missing value for --{key}"))?;
        kv.insert(key, v);
    }
    let mut take = |key: &str| kv.remove(key).ok_or_else(|| format!("--{key} is required"));
    let name = take("workload")?;
    let workload = Workload::find(&name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = take("seed")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer".to_string())?;
    let seconds = take("seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or_else(|| "--seconds wants a whole number of at least 1".to_string())?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What the result line reports, accumulated over the process.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Gate violations that are not a failed run (e.g. a layer count that
    /// did not repeat).
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Count one simulation run; a failed one is logged with its message.
    fn run<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn result_line(&self) -> String {
        let mut m = serde_json::Map::new();
        for &(name, value, unit) in &self.metrics {
            m.insert(
                name.to_string(),
                serde_json::json!({"value": value, "unit": unit}),
            );
        }
        serde_json::json!({
            "correct": self.failed == 0 && self.errors.is_empty(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(m),
        })
        .to_string()
    }
}

/// Run `f`, turning a panic (a simulator assertion, a detected deadlock, a
/// panicking program) into an error carrying its message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())),
    }
}

/// The output gate. At [`DEFAULT_SEED`] every report must match the
/// workload's recorded digest; at any other seed every report of the
/// process must match the first one (the end-to-end pass, or the layer
/// pass's reference run), tracing fields aside.
struct Gate {
    expected: Option<u64>,
}

impl Gate {
    fn new(w: &Workload, seed: u64) -> Gate {
        Gate {
            expected: (seed == DEFAULT_SEED).then_some(w.golden),
        }
    }

    fn check(&mut self, what: &str, report: &RunReport) -> Result<(), String> {
        let d = digest(report);
        match self.expected {
            None => {
                self.expected = Some(d);
                Ok(())
            }
            Some(e) if e == d => Ok(()),
            Some(e) => Err(format!(
                "{what}: report digest {d:#018x} differs from the expected {e:#018x}"
            )),
        }
    }
}

/// One plain run: fresh world, build the programs, run.
struct Plain {
    setup: Duration,
    run: Duration,
    cpu: Duration,
    events: u64,
    report: RunReport,
}

/// `World::new` + `build_programs`, timed.
fn set_up(w: &Workload, seed: u64) -> (World, Vec<Program>, Duration) {
    let t = Instant::now();
    let mut world = World::new(w.config(seed));
    let progs = build_programs(&mut world, w.app);
    (world, progs, t.elapsed())
}

fn plain_run(w: &Workload, seed: u64) -> Result<Plain, String> {
    guarded(|| {
        let (mut world, progs, setup) = set_up(w, seed);
        let c0 = host::process_cpu();
        let t1 = Instant::now();
        let report = world.run(progs);
        let run = t1.elapsed();
        let cpu = host::process_cpu().saturating_sub(c0);
        Ok(Plain {
            setup,
            run,
            cpu,
            events: world.events_dispatched(),
            report,
        })
    })
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Extra set-ups (without a run) after each end-to-end run.
const SETUP_ONLY_REPS: usize = 3;

fn end_to_end(w: &Workload, args: &Args, out: &mut Outcome) {
    let mut gate = Gate::new(w, args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut setup, mut run, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut sim_wall_ms = 0.0;
    loop {
        let k = out.attempted;
        let r = plain_run(w, args.seed)
            .and_then(|p| gate.check(&format!("run {k}"), &p.report).map(|()| p));
        if let Some(p) = out.run(&format!("run {k}"), r) {
            println!(
                "run {k}: setup {:.6} s, run {:.6} s, cpu {:.6} s",
                p.setup.as_secs_f64(),
                p.run.as_secs_f64(),
                p.cpu.as_secs_f64()
            );
            setup.push(p.setup.as_secs_f64());
            run.push(p.run.as_secs_f64());
            cpu.push(p.cpu.as_secs_f64());
            sim_wall_ms = p.report.wall.as_ms_f64();
        }
        // Set-up alone, a few times after each run, so the set-up median
        // rests on several times more samples spread over the whole pass.
        for _ in 0..SETUP_ONLY_REPS {
            match guarded(|| Ok(set_up(w, args.seed).2)) {
                Ok(el) => setup.push(el.as_secs_f64()),
                Err(e) => out.errors.push(format!("set-up: {e}")),
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    // Each timing: median, the largest sample (too few samples for a tail
    // percentile with ten samples beyond it) and the sample count.
    for (name, v) in [("run_s", &run), ("setup_s", &setup), ("cpu_s", &cpu)] {
        println!(
            "{name:<12} median {:.6} s, max {:.6} s, n={}",
            median(v),
            max(v),
            v.len()
        );
    }
    let ok = out.attempted - out.failed;
    println!("failed_runs  {} of {} attempted", out.failed, out.attempted);
    let rss = host::peak_rss_mb();
    println!("peak_rss_mb  {rss:.1} MiB");
    println!("sim_wall_ms  {sim_wall_ms} ms (simulated completion time)");
    out.metric("run_s", median(&run), "s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("cpu_s", median(&cpu), "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("sim_wall_ms", sim_wall_ms, "ms");
    out.metric(
        "ok_runs_pct",
        100.0 * ok as f64 / out.attempted.max(1) as f64,
        "%",
    );
}

/// The per-layer numbers of one layer pass: exact counts (which must
/// repeat across passes) and host timings (reported as medians).
#[derive(Default)]
struct LayerPass {
    counts: BTreeMap<&'static str, (f64, &'static str)>,
    times: BTreeMap<&'static str, (f64, &'static str)>,
}

/// The thread-clock split of one run: every program and the engine are
/// wrapped to read their own CPU clock and run-queue wait at entry and
/// exit.
struct Split {
    wall: Duration,
    engine: ThreadTimes,
    programs: ThreadTimes,
    events: u64,
    report: RunReport,
}

fn split_run(w: &Workload, seed: u64) -> Result<Split, String> {
    guarded(|| {
        let (mut world, progs, _) = set_up(w, seed);
        let acc: Arc<Mutex<ThreadTimes>> = Arc::default();
        let progs: Vec<Program> = progs
            .into_iter()
            .map(|prog| {
                let acc = acc.clone();
                Box::new(move |ctx: &mut ProcCtx<'_>| {
                    let t0 = ThreadTimes::now();
                    prog(ctx);
                    let d = ThreadTimes::now().since(t0);
                    let mut a = acc.lock().expect("split accumulator unpoisoned");
                    a.cpu += d.cpu;
                    a.runq += d.runq;
                }) as Program
            })
            .collect();
        let e0 = ThreadTimes::now();
        let t0 = Instant::now();
        let report = world.run(progs);
        let wall = t0.elapsed();
        let engine = ThreadTimes::now().since(e0);
        let programs = *acc.lock().expect("split accumulator unpoisoned");
        Ok(Split {
            wall,
            engine,
            programs,
            events: world.events_dispatched(),
            report,
        })
    })
}

/// What one lossless traced run yields.
struct Traced {
    wall: Duration,
    records: u64,
    switches: u64,
    mean_queue_depth: f64,
    decompose: Duration,
    report: RunReport,
}

fn traced_run(w: &Workload, seed: u64) -> Result<Traced, String> {
    guarded(|| {
        // An unbounded ring: the ring only grows as events arrive, and a
        // bounded one would silently drop the oldest events.
        let sink = TraceSink::ring(usize::MAX);
        let mut world = World::new(w.config(seed));
        world.set_trace(sink.clone());
        let progs = build_programs(&mut world, w.app);
        let t0 = Instant::now();
        let report = world.run(progs);
        let wall = t0.elapsed();
        let summary = sink
            .summary()
            .ok_or("the traced run kept no trace summary")?;
        if summary.dropped != 0 || summary.span_drops != 0 {
            return Err(format!(
                "the trace dropped {} events ({} span events)",
                summary.dropped, summary.span_drops
            ));
        }
        let records = sink.drain();
        if records.len() as u64 != summary.recorded {
            return Err(format!(
                "drained {} trace records of {} recorded",
                records.len(),
                summary.recorded
            ));
        }
        let (mut switches, mut dispatches, mut pending) = (0u64, 0u64, 0u64);
        for r in &records {
            match r.event {
                TraceEvent::CothreadSwitch { enter: true, .. } => switches += 1,
                TraceEvent::QueueDispatch { pending: p, .. } => {
                    dispatches += 1;
                    pending += u64::from(p);
                }
                _ => {}
            }
        }
        let t1 = Instant::now();
        let obs = cni_obs::decompose(&cni::SpanTree::build(&records));
        std::hint::black_box(obs);
        let decompose = t1.elapsed();
        Ok(Traced {
            wall,
            records: records.len() as u64,
            switches,
            mean_queue_depth: pending as f64 / dispatches.max(1) as f64,
            decompose,
            report,
        })
    })
}

/// A run with the replay journal on and a checkpoint callback that takes
/// and encodes about four snapshots.
struct Snapshots {
    taken: u64,
    max_bytes: u64,
    ns_per_byte: f64,
    report: RunReport,
}

fn snapshot_run(w: &Workload, seed: u64, events: u64) -> Result<Snapshots, String> {
    guarded(|| {
        let mut world = World::new(w.config(seed));
        world.enable_journal();
        let progs = build_programs(&mut world, w.app);
        let acc = Rc::new(RefCell::new((Duration::ZERO, 0u64, 0u64, 0u64)));
        let sink = acc.clone();
        world.set_checkpoint(
            (events / 4).max(1),
            Box::new(move |w: &World| {
                let t = Instant::now();
                let bytes = cni_snap::value_to_bytes(&w.take_snapshot());
                let el = t.elapsed();
                let mut a = sink.borrow_mut();
                let n = bytes.len() as u64;
                a.0 += el;
                a.1 += n;
                a.2 = a.2.max(n);
                a.3 += 1;
            }),
        );
        let report = world.run(progs);
        drop(world);
        let (time, total, max_bytes, taken) = *acc.borrow();
        Ok(Snapshots {
            taken,
            max_bytes,
            ns_per_byte: time.as_nanos() as f64 / total.max(1) as f64,
            report,
        })
    })
}

fn layer_pass(
    w: &Workload,
    seed: u64,
    events: u64,
    gate: &mut Gate,
    out: &mut Outcome,
) -> Option<LayerPass> {
    let split = out.run(
        "split run",
        split_run(w, seed).and_then(|s| gate.check("split run", &s.report).map(|()| s)),
    )?;
    let traced = out.run(
        "traced run",
        traced_run(w, seed).and_then(|t| gate.check("traced run", &t.report).map(|()| t)),
    )?;
    let snaps = out.run(
        "snapshot run",
        snapshot_run(w, seed, events)
            .and_then(|s| gate.check("snapshot run", &s.report).map(|()| s)),
    )?;
    let cfg = w.config(seed);
    let probes = out.run("probe world", guarded(|| Ok(probes::ctx_hits(&cfg))))?;

    let r = &split.report;
    let sum = |f: fn(&cni_nic::NicStats) -> u64| r.nic.iter().map(f).sum::<u64>();
    let dsm = |f: fn(&cni_dsm::DsmStats) -> u64| r.dsm.iter().map(f).sum::<u64>();
    let mut p = LayerPass::default();
    let mut count = |name, v: u64, unit| {
        p.counts.insert(name, (v as f64, unit));
    };
    count("core.events", split.events, "count");
    count("sim.cothread.switches", traced.switches, "count");
    count("trace.events", traced.records, "count");
    count("atm.cells", sum(|n| n.tx_cells), "count");
    count(
        "pathfinder.classify_cells",
        sum(|n| n.classify_cells),
        "count",
    );
    count("nic.aih_dispatches", sum(|n| n.aih_dispatches), "count");
    let lookups = sum(|n| n.tx_page_lookups);
    count("nic.msgcache.lookups", lookups, "count");
    count(
        "nic.dma_bytes_to_board",
        sum(|n| n.dma_bytes_to_board),
        "bytes",
    );
    count("nic.interrupts", sum(|n| n.interrupts), "count");
    count("nic.coll_combines", sum(|n| n.coll_combines), "count");
    count("dsm.messages", r.messages, "count");
    count("dsm.read_faults", dsm(|d| d.read_faults), "count");
    count("dsm.write_faults", dsm(|d| d.write_faults), "count");
    count("dsm.page_fetches", dsm(|d| d.page_fetches), "count");
    count("dsm.diff_fetches", dsm(|d| d.diff_fetches), "count");
    count("core.transport.retransmits", r.faults.retransmits, "count");
    count("faults.cells_dropped", r.faults.cells_dropped, "count");
    count("snap.bytes", snaps.max_bytes, "bytes");
    let hits = sum(|n| n.tx_cache_hits);
    p.counts.insert(
        "nic.msgcache.hit_ratio",
        (hits as f64 / lookups.max(1) as f64, "ratio"),
    );
    let f = &r.faults;
    p.counts.insert(
        "core.transport.useful_ratio",
        (
            f.retransmits.saturating_sub(f.duplicates) as f64 / f.retransmits.max(1) as f64,
            "ratio",
        ),
    );
    p.counts
        .insert("sim.queue.mean_depth", (traced.mean_queue_depth, "count"));

    let wall = split.wall.as_secs_f64();
    let prog = split.programs.cpu.as_secs_f64();
    let engine = split.engine.cpu.as_secs_f64();
    let runq = split.programs.runq.as_secs_f64() + split.engine.runq.as_secs_f64();
    let handoff = wall - prog - engine;
    let roundtrip = probes::cothread_roundtrip();
    let queue = probes::queue_push_pop(traced.mean_queue_depth.round() as usize);
    let (seg, reasm) = probes::aal5(cfg.page_bytes);
    let classify = probes::classify();
    let lookup = probes::msgcache_lookup(&cfg);
    let (dcreate, dapply) = probes::diff(&cfg);
    let (read, write) = probes;
    let mut time = |name, v: f64, unit| {
        p.times.insert(name, (v, unit));
    };
    time("core.pass_wall_s", wall, "s");
    time("apps.program_cpu_s", prog, "s");
    time("core.engine_cpu_s", engine, "s");
    time("sim.cothread.handoff_s", handoff, "s");
    time("sim.cothread.runq_wait_s", runq, "s");
    time(
        "sim.cothread.ns_per_switch",
        handoff * 1e9 / traced.switches.max(1) as f64,
        "ns",
    );
    time(
        "core.ns_per_event",
        wall * 1e9 / split.events.max(1) as f64,
        "ns",
    );
    // The share of the pass's wall time on neither thread clock, such as
    // the co-threads' own code around each program closure. On one CPU the
    // handoffs' own CPU time falls inside the two clocks.
    time("unattributed_share", handoff / wall, "ratio");
    time(
        "trace.overhead_pct",
        100.0 * (traced.wall.as_secs_f64() / wall - 1.0),
        "%",
    );
    time("obs.decompose_s", traced.decompose.as_secs_f64(), "s");
    time("snap.take_ns_per_byte", snaps.ns_per_byte, "ns/B");
    for (name, probe) in [
        ("core.ctx.read_hit_ns", read),
        ("core.ctx.write_hit_ns", write),
        ("sim.cothread.roundtrip_ns", roundtrip),
        ("sim.queue.push_pop_ns", queue),
        ("atm.aal5.segment_ns_per_cell", seg),
        ("atm.aal5.reassemble_ns_per_cell", reasm),
        ("pathfinder.classify_ns", classify),
        ("nic.msgcache.lookup_ns", lookup),
        ("dsm.diff.create_ns", dcreate),
        ("dsm.diff.apply_ns", dapply),
    ] {
        time(name, probe.ns_per_op, "ns");
        println!(
            "probe {name:<34} {:>10.1} ns/op over {} ops",
            probe.ns_per_op, probe.ops
        );
    }
    println!(
        "pass: wall {wall:.3} s = programs {prog:.3} s + engine {engine:.3} s + handoff {handoff:.3} s; \
         run-queue wait {runq:.3} s; {} snapshots",
        snaps.taken
    );
    Some(p)
}

/// Run the same configuration through `cni-run`: serially, to check the
/// simulated completion time matches this process's, and on two engine
/// workers, to check the parallel report is byte-identical and time it.
/// Returns the parallel speedup, or `None` when `cni-run` or its
/// `--engine-workers` flag is not available.
fn cni_run_probe(w: &Workload, seed: u64, report: &RunReport) -> Result<Option<f64>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name("cni-run");
    if !exe.is_file() {
        println!("cni-run not found next to hostbench; pdes.speedup_w2 absent");
        return Ok(None);
    }
    let run = |extra: &[&str]| {
        let t = Instant::now();
        let o = Command::new(&exe)
            .args(w.cli)
            .args(["--seed", &seed.to_string(), "--json"])
            .args(extra)
            .output()
            .map_err(|e| format!("cannot run cni-run: {e}"))?;
        Ok::<_, String>((t.elapsed(), o))
    };
    let (serial_t, serial) = run(&[])?;
    if !serial.status.success() {
        return Err(format!(
            "cni-run failed: {}",
            String::from_utf8_lossy(&serial.stderr)
        ));
    }
    let json: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&serial.stdout).trim())
            .map_err(|e| format!("cni-run printed no JSON report: {e:?}"))?;
    let wall_ms = json.get("wall_ms").and_then(|v| v.as_f64());
    let messages = json.get("messages").and_then(|v| v.as_u64());
    if wall_ms != Some(report.wall.as_ms_f64()) || messages != Some(report.messages) {
        return Err(format!(
            "cni-run reports wall {wall_ms:?} ms / {messages:?} messages, this process {} ms / {}",
            report.wall.as_ms_f64(),
            report.messages
        ));
    }
    let (par_t, par) = run(&["--engine-workers", "2"])?;
    if !par.status.success() {
        println!("cni-run --engine-workers 2 unavailable; pdes.speedup_w2 absent");
        return Ok(None);
    }
    if par.stdout != serial.stdout {
        return Err("the 2-worker report differs from the serial one".to_string());
    }
    let speedup = serial_t.as_secs_f64() / par_t.as_secs_f64();
    println!(
        "cni-run: sim wall {} ms matches; 2 workers {:.3} s vs serial {:.3} s (speedup {speedup:.3}x, byte-identical)",
        report.wall.as_ms_f64(),
        par_t.as_secs_f64(),
        serial_t.as_secs_f64()
    );
    Ok(Some(speedup))
}

fn layers(w: &Workload, args: &Args, out: &mut Outcome, all_cpus: &host::CpuSet) {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut gate = Gate::new(w, args.seed);
    // The reference: a plain end-to-end run of the same configuration.
    let Some(base) = out.run(
        "reference run",
        plain_run(w, args.seed).and_then(|p| gate.check("reference run", &p.report).map(|()| p)),
    ) else {
        return;
    };
    let mut passes = Vec::new();
    // At least two passes, so the counts are seen to repeat.
    while passes.len() < 2 || Instant::now() < deadline {
        match layer_pass(w, args.seed, base.events, &mut gate, out) {
            Some(p) => passes.push(p),
            None => break,
        }
    }
    // `cni-run` inherits this thread's CPUs; the 2-worker engine needs two.
    host::set_affinity(all_cpus);
    let speedup = out.run("cni-run probe", cni_run_probe(w, args.seed, &base.report));
    let Some(first) = passes.first() else {
        return;
    };
    for (name, &(v, unit)) in &first.counts {
        if let Some(other) = passes.iter().find(|p| p.counts[name].0 != v) {
            out.errors.push(format!(
                "{name} did not repeat: {v} vs {}",
                other.counts[name].0
            ));
        }
        println!("{name:<34} {v} {unit}");
        out.metric(name, v, unit);
    }
    for (name, &(_, unit)) in &first.times {
        let v: Vec<f64> = passes.iter().map(|p| p.times[name].0).collect();
        println!("{name:<34} median {:.6} {unit} (n={})", median(&v), v.len());
        out.metric(name, median(&v), unit);
    }
    let lookups = first.counts["nic.msgcache.lookups"].0;
    println!("nic.msgcache.hit_ratio base: {lookups} lookups");
    let retx = first.counts["core.transport.retransmits"].0;
    println!("core.transport.useful_ratio base: {retx} retransmits");
    if let Some(Some(s)) = speedup {
        out.metric("pdes.speedup_w2", s, "x");
    }
    println!("layer process peak RSS {:.1} MiB", host::peak_rss_mb());
}

/// The commit this checkout was built from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "hostbench: {e}\nusage: hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "hostbench {} seed {} for {} s, {} pass; host_cores {}, git rev {}",
        args.workload.name,
        args.seed,
        args.seconds,
        if args.trace { "layer" } else { "end-to-end" },
        host::host_cores(),
        git_rev()
    );
    // One CPU for the whole simulation: engine and co-threads alternate, so
    // one is all it can use, and on a shared host the latency of waking a
    // thread on another, idle CPU swings run time by up to half between
    // runs while CPU time holds.
    let all_cpus = host::pin_to_one_cpu();
    let mut out = Outcome::default();
    if args.trace {
        layers(args.workload, &args, &mut out, &all_cpus);
    } else {
        end_to_end(args.workload, &args, &mut out);
    }
    for e in &out.errors {
        eprintln!("FAILED check: {e}");
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
