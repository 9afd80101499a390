//! The repository benchmark: four privacy-analysis workloads over the
//! gepeto crates, measured end to end with tracing off, plus a separate
//! traced run that breaks the time down by layer.
//!
//! ```text
//! perfbench --workload kmeans|regroup|djcluster|linking|all
//!           --seed N --seconds S --trace 0|1
//!           [--threads 2] [--size full|tiny]
//! ```
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! how to read them. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod stats;
mod workloads;

use gepeto_telemetry::{LedgerScope, Recorder};
use layers::{LayerValues, PhaseBreakdown, MB};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{DjCluster, Kmeans, Linking, Op, Regroup, Size, Workload};

/// The workloads, in report order.
const WORKLOADS: [&str; 4] = ["kmeans", "regroup", "djcluster", "linking"];

/// The end-to-end metrics of a timed run, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("traces_per_s", "traces/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("heap_peak_mb", "MB"),
];

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest operations of each kind (tracing off, tracing on) a traced run
/// measures.
const MIN_OPS_EACH: usize = 2;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    size: Size,
    setup_reps: usize,
    wrong_output: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            threads: 2,
            size: Size::Full,
            setup_reps: SETUP_REPS,
            wrong_output: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--wrong-output" {
                args.wrong_output = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |what: &str| -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("{flag}: '{value}' is not {what}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = num("an integer")?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .map_err(|_| format!("--seconds: '{value}' is not a number"))?
                }
                "--trace" => args.trace = num("0 or 1")? != 0,
                "--threads" => args.threads = num("a thread count")?.max(1) as usize,
                "--size" => args.size = Size::parse(value)?,
                "--setup-reps" => args.setup_reps = num("a count")?.max(1) as usize,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} or all",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// What one workload run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Measurements of one operation.
struct Measured<O> {
    run_s: f64,
    cpu_s: f64,
    heap_peak: f64,
    allocated: f64,
    allocs: f64,
    pool: PoolDelta,
    op: Result<Op<O>, String>,
}

#[derive(Debug, Clone, Copy, Default)]
struct PoolDelta {
    threads: f64,
    tasks: f64,
    steals: f64,
    batches: f64,
    busy_s: f64,
}

/// Runs and measures one operation under an `operation` span of `spans`
/// (the span's id identifies the run in the span dump).
fn measure<W: Workload>(
    w: &W,
    inputs: &mut W::Inputs,
    rec: &Recorder,
    spans: &Recorder,
) -> Measured<W::Output> {
    let span = spans.span("operation", &[]);
    let pool_before = gepeto_pool::global_stats();
    let ledger = LedgerScope::open();
    let cpu_before = stats::process_cpu_s();
    let started = Instant::now();
    let op = std::hint::black_box(w.run(inputs, rec, spans));
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu_before;
    let mem = ledger.close();
    span.end();
    let pool_after = gepeto_pool::global_stats();
    Measured {
        run_s,
        cpu_s,
        heap_peak: mem.peak_delta as f64,
        allocated: mem.allocated as f64,
        allocs: mem.allocs as f64,
        pool: PoolDelta {
            threads: pool_after.threads as f64,
            tasks: pool_after.tasks.saturating_sub(pool_before.tasks) as f64,
            steals: pool_after.steals.saturating_sub(pool_before.steals) as f64,
            batches: pool_after.batches.saturating_sub(pool_before.batches) as f64,
            busy_s: pool_after.busy_ns().saturating_sub(pool_before.busy_ns()) as f64 / 1e9,
        },
        op,
    }
}

/// Verifies a measured operation; returns whether it counts as correct,
/// logging why not.
fn check<W: Workload>(
    w: &W,
    name: &str,
    inputs: &W::Inputs,
    reference: &W::Reference,
    m: &mut Measured<W::Output>,
    wrong_output: bool,
) -> bool {
    let verdict = match &mut m.op {
        Err(e) => Err(format!("returned an error: {e}")),
        Ok(op) => {
            if wrong_output {
                w.corrupt(&mut op.output);
            }
            w.verify(inputs, &op.output, reference)
        }
    };
    match verdict {
        Ok(()) => true,
        Err(why) => {
            eprintln!("perfbench: {name}: operation failed verification: {why}");
            false
        }
    }
}

/// Plans the set-up of `seed` (untimed), sets the inputs up `reps` times
/// (keeping the last) and returns them with the median set-up time.
fn setup<W: Workload>(
    w: &W,
    seed: u64,
    reps: usize,
    spans: &Recorder,
) -> Result<(W::Inputs, f64), String> {
    let plan = w.plan(seed);
    let mut times = Vec::with_capacity(reps);
    let mut inputs = None;
    for _ in 0..reps {
        drop(inputs.take());
        let span = spans.span("setup", &[]);
        let started = Instant::now();
        inputs = Some(w.setup(&plan, spans)?);
        times.push(started.elapsed().as_secs_f64());
        span.end();
    }
    let inputs = inputs.expect("at least one set-up");
    Ok((inputs, stats::median(&times)))
}

/// Timed mode: tracing off; operations until `--seconds` of them have
/// been measured; every end-to-end metric.
fn timed<W: Workload>(w: &W, name: &str, args: &Args) -> Result<Report, String> {
    let spans = Recorder::disabled();
    let (mut inputs, setup_s) = setup(w, args.seed, args.setup_reps, &spans)?;
    let traces = w.input_traces(&inputs) as f64;
    let reference = w.reference(&inputs);
    let rec = Recorder::disabled();
    let (mut run_s, mut cpu_s, mut heap) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut measured) = (0u64, 0u64, 0.0);
    while attempted == 0 || measured < args.seconds {
        let mut m = measure(w, &mut inputs, &rec, &spans);
        measured += m.run_s;
        eprintln!(
            "perfbench: {name}: operation {}: {:.4} s wall, {:.4} s cpu, {:.2} MB heap peak",
            attempted + 1,
            m.run_s,
            m.cpu_s,
            m.heap_peak / MB
        );
        let wrong = args.wrong_output && attempted == 0;
        attempted += 1;
        if check(w, name, &inputs, &reference, &mut m, wrong) {
            run_s.push(m.run_s);
            cpu_s.push(m.cpu_s);
            heap.push(m.heap_peak / MB);
        } else {
            failed += 1;
        }
    }
    let run = stats::median(&run_s);
    let values = [
        run,
        stats::ratio(traces, run),
        setup_s,
        stats::median(&cpu_s),
        stats::median(&heap),
    ];
    eprintln!(
        "perfbench: {name}: {attempted} operations, {failed} failed (failed_ratio {}), {} input traces",
        failed as f64 / attempted as f64,
        traces
    );
    Ok(Report {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_owned(), v, u))
            .collect(),
    })
}

/// The untraced layer values of one measured operation.
fn untraced_layers<O>(m: &Measured<O>, op: &Op<O>) -> LayerValues {
    let mut v = layers::job_metrics(&op.jobs, m.run_s, m.heap_peak);
    v.extend(op.layers.iter().map(|(k, x)| (*k, *x)));
    let p = m.pool;
    v.insert("pool.threads", p.threads);
    v.insert("pool.tasks", p.tasks);
    v.insert("pool.steals", p.steals);
    v.insert("pool.batches", p.batches);
    v.insert("pool.busy_s", p.busy_s);
    v.insert(
        "pool.utilization",
        stats::ratio(p.busy_s, p.threads * m.run_s),
    );
    v.insert(
        "pool.blind_ratio",
        (1.0 - stats::ratio(p.busy_s, m.cpu_s)).max(0.0),
    );
    v.insert("alloc.allocated_mb", m.allocated / MB);
    v.insert("alloc.allocs", m.allocs);
    v.insert("run.untraced_s", m.run_s);
    v
}

/// The phase breakdown of one traced operation, plus the benchmark-span
/// values it closed.
fn traced_layers(rec: &Recorder, run_s: f64, spans: LayerValues) -> LayerValues {
    let phases = PhaseBreakdown::from_events(&rec.events());
    let mut v = spans;
    v.extend(phases.phase_s.iter().map(|(k, x)| (*k, *x)));
    v.insert("mapred.traced_job_s", phases.job_s);
    v.insert("mapred.unattributed_s", phases.unattributed_s);
    v.insert("mapred.task_n", phases.tasks.n as f64);
    v.insert("mapred.task_p50_ms", phases.tasks.p50);
    v.insert("mapred.task_tail_ms", phases.tasks.tail);
    v.insert("mapred.task_tail_pct", phases.tasks.tail_pct);
    if let Some(&s) = phases.reduce_max_s.get("dj-cluster") {
        v.insert("djcluster.reduce_max_s", s);
    }
    v.insert("run.traced_s", run_s);
    v
}

/// Benchmark spans whose self time is a per-layer metric.
const SPAN_METRICS: [(&str, &str); 5] = [
    ("geolife.generate", "geolife.generate_s"),
    ("synth.to_dfs", "synth.to_dfs_s"),
    ("dfs.put", "dfs.put_s"),
    ("sanitize.apply", "sanitize.apply_s"),
    ("attacks.fingerprints", "attacks.fingerprint_s"),
];

/// The per-layer values of the benchmark spans recorded on `spans` from
/// event `from` on.
fn span_layers(spans: &Recorder, from: usize) -> LayerValues {
    let selfs = layers::self_seconds(&spans.events_from(from));
    SPAN_METRICS
        .iter()
        .filter_map(|&(span, metric)| Some((metric, *selfs.get(span)?)))
        .collect()
}

/// Traced mode: untraced operations for the job, pool and allocator
/// numbers, alternating with operations with tracing on for the phase
/// breakdown; a `--threads 1` child process for the speed-up; every
/// per-layer metric.
fn traced<W: Workload>(w: &W, name: &str, args: &Args) -> Result<Report, String> {
    let spans = Recorder::enabled();
    let (mut inputs, _) = setup(w, args.seed, 1, &spans)?;
    let mut values = span_layers(&spans, 0);
    values.extend(w.setup_layers(&inputs));
    let reference = w.reference(&inputs);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Untraced and traced operations alternate, so drift and warm-up
    // reach both alike and their ratio is the tracing overhead.
    let mut untraced = Vec::new();
    let mut traced_ops = Vec::new();
    let mut measured = 0.0;
    while attempted < 64
        && (untraced.len() < MIN_OPS_EACH
            || traced_ops.len() < MIN_OPS_EACH
            || measured < args.seconds)
    {
        let tracing = attempted % 2 == 1;
        let rec = if tracing {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let from = spans.events().len();
        let mut m = measure(w, &mut inputs, &rec, &spans);
        measured += m.run_s;
        attempted += 1;
        if !check(w, name, &inputs, &reference, &mut m, false) {
            failed += 1;
        } else if tracing {
            traced_ops.push(traced_layers(&rec, m.run_s, span_layers(&spans, from)));
        } else if let Ok(op) = &m.op {
            untraced.push(untraced_layers(&m, op));
        }
    }

    let from = spans.events().len();
    let extras = {
        let _span = spans.span("extras", &[]);
        w.traced_extras(&inputs, &spans)
    };
    values.extend(span_layers(&spans, from));
    values.extend(extras);
    values.extend(layers::median_values(&untraced));
    values.extend(layers::median_values(&traced_ops));

    let untraced_s = values.get("run.untraced_s").copied().unwrap_or(0.0);
    let traced_s = values.get("run.traced_s").copied().unwrap_or(0.0);
    values.insert("trace.overhead_ratio", stats::ratio(traced_s, untraced_s));
    let map_s = values.get("mapred.map_s").copied().unwrap_or(0.0);
    let evals = values.get("geo.distance_evals").copied().unwrap_or(0.0);
    values.insert("geo.evals_per_s", stats::ratio(evals, map_s));
    let threads1_s = single_thread_run_s(name, args)?;
    values.insert("run.threads1_s", threads1_s);
    values.insert("pool.speedup", stats::ratio(threads1_s, untraced_s));

    write_spans(name, args, &spans);
    if values.get("pool.blind_ratio").copied().unwrap_or(0.0) > 0.5 {
        eprintln!(
            "perfbench: {name}: most CPU time ran outside pool-visible tasks \
             (pool.blind_ratio {:.2}); pool.utilization does not describe this workload",
            values["pool.blind_ratio"]
        );
    }
    Ok(Report {
        attempted,
        failed,
        metrics: layers::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_owned(), values.get(n).copied().unwrap_or(0.0), u))
            .collect(),
    })
}

/// `run_s` at `--threads 1` (median of the operations of a 3 s run),
/// measured in a child process because the pool's thread count is fixed
/// once per process.
fn single_thread_run_s(name: &str, args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            "3",
            "--trace",
            "0",
            "--threads",
            "1",
            "--setup-reps",
            "1",
            "--size",
            args.size.as_str(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("--threads 1 run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("--threads 1 run exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    gepeto_telemetry::json::Json::parse(last)
        .ok()
        .and_then(|j| j.get("metrics")?.get("run_s")?.get("value")?.as_f64())
        .ok_or_else(|| format!("--threads 1 run printed no run_s: {last}"))
}

/// Where runs leave their span dumps and spill files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the benchmark's spans as JSON lines and logs each name's self
/// time.
fn write_spans(name: &str, args: &Args, spans: &Recorder) {
    let path = out_dir().join(format!("spans-{name}-seed{}.jsonl", args.seed));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        spans.write_jsonl(&mut out)?;
        out.flush()
    });
    match written {
        Ok(()) => eprintln!("perfbench: {name}: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: {name}: could not write {}: {e}", path.display()),
    }
    for (span, s) in layers::self_seconds(&spans.events()) {
        eprintln!("perfbench: {name}: span {span}: {s:.6} s self time");
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Report, String> {
    fn go<W: Workload>(w: W, name: &str, args: &Args) -> Result<Report, String> {
        if args.trace {
            traced(&w, name, args)
        } else {
            timed(&w, name, args)
        }
    }
    match name {
        "kmeans" => go(Kmeans::new(args.size), name, args),
        "regroup" => go(Regroup::new(args.size), name, args),
        "djcluster" => go(DjCluster::new(args.size), name, args),
        "linking" => go(Linking::new(args.size), name, args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Spill files stay inside the benchmark's own output directory.
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);
    gepeto_pool::set_threads(args.threads);
    gepeto_pool::global();

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in &names {
        let report = match run_workload(name, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        for (metric, value, unit) in &report.metrics {
            if !value.is_finite() {
                eprintln!("perfbench: {name}: {metric} is not finite");
                return ExitCode::from(1);
            }
            println!("{name:<10} {metric:<28} {value:>16.6} {unit}");
        }
        attempted += report.attempted;
        failed += report.failed;
        let prefix = |m: String| {
            if names.len() > 1 {
                format!("{name}.{m}")
            } else {
                m
            }
        };
        metrics.extend(
            report
                .metrics
                .into_iter()
                .map(|(m, v, u)| (prefix(m), v, u)),
        );
    }
    println!("{}", json_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
