//! The `gepeto` subcommands.

use crate::args::Args;
use gepeto::prelude::*;
use gepeto::sanitize::Sanitizer;
use gepeto_geo::DistanceMetric;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::journal::JournalEntry;
use gepeto_mapred::{commit, ChaosPlan, IoFaultPlan, JobError, RetryPolicy, RunJournal};
use gepeto_model::plt;
use gepeto_telemetry::{Recorder, Reporter};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Top-level usage text.
pub const USAGE: &str = "\
gepeto — GEoPrivacy-Enhancing TOolkit on MapReduce

USAGE:
    gepeto <command> [--flag value]...

COMMANDS:
    generate    Generate a synthetic GeoLife-calibrated dataset
                  --users N (178) --scale S (0.01) --seed X --plt-dir DIR
    report      Print dataset statistics
                  --users N --scale S --seed X
    sample      MapReduce down-sampling (paper §V)
                  --window SECS (60) --technique upper|middle --chunk-kb N (1024)
                  --memory-budget SIZE routes through a by-user shuffle that
                  spills to disk past SIZE bytes per partition (64k/16m/2g)
    kmeans      MapReduce k-means (paper §VI)
                  --k N (11) --distance haversine|sqeuclidean|euclidean|manhattan
                  --delta D (0.5) --max-iter N (150) --combiner true|false
                  --chunk-kb N (1024) --parapluie true|false
                  --memory-budget SIZE caps in-memory shuffle per partition
    synth       Stream a deterministic synthetic workload through a job
                  --users N (100000) --days N (1) --seed X --chunk-mb N (64)
                  --workload sampling|kmeans --memory-budget SIZE
                  --window SECS (60) --k N (11) --max-iter N (5)
    djcluster   MapReduce DJ-Cluster + preprocessing (paper §VII)
                  --radius M (60) --minpts N (4) --speed MPS (1.0)
                  --window SECS (60) --mr-rtree true|false
    attack      POI extraction + MMC de-anonymization demo (§VIII)
                  --users N (20) --scale S (0.02)
    sanitize    Apply a mechanism and measure the privacy/utility trade-off
                  --mechanism gaussian|uniform|aggregate|cloak|mixzone|temporal
                  --param M (100: sigma/radius/cell meters or window secs) --k N (2)
    semantics   Label POIs home/work/leisure, print semantic trajectories (§II)\n                  --users N (10) --scale S (0.015)\n    predict     MMC next-place prediction evaluation (§VIII)
                  --users N (15) --scale S (0.02) --train-fraction F (0.6)
    viz         Render the dataset as SVG + GeoJSON (+ ASCII density)
                  --out DIR (required) --width PX (900)
    resume      Resume a killed durable run: gepeto resume RUN_DIR [--flag v]...
                  Re-dispatches the MANIFEST argv; committed reduce
                  partitions and checkpoints replay instead of re-running.
    help        This text

Shared dataset flags: --users, --scale, --seed.
Host parallelism: --threads N sizes the work-stealing pool every command
runs its map/reduce tasks, k-means kernels and spill merges on (default:
all cores). --threads 1 runs everything inline and produces byte-identical
output to any other thread count; pool activity is exported as
gepeto_pool_* in the Prometheus exposition.
Observability (sample, kmeans, djcluster): --metrics-out PATH.jsonl dumps
the telemetry event stream (phase spans, per-task durations with locality
tags, counters) as JSON Lines and prints a run summary table; --summary
prints the summary table to stderr; --explain prints the critical-path
report (host span chain + virtual-cluster makespan attribution) and the
per-node ASCII Gantt timeline to stderr; --trace-out PATH.json exports
the host span tree and the virtual-cluster schedule (sched.*, chaos.*,
IO-fault and spill events) as a Chrome trace-event file — open it in
ui.perfetto.dev, or gate it with 'gepeto-bench validate-trace'.
Live monitoring (sample, kmeans, djcluster): --watch[=SECS] prints a
jobtracker-style heartbeat line (task progress, shuffle bytes, recovery
counters, per-node busy time) to stderr every SECS seconds (default 2);
--prom-out PATH rewrites PATH as a Prometheus text exposition on the
same cadence (and once at exit); --folded-out PATH writes collapsed
flamegraph stacks (host self-time; plus PATH.virtual with the simulated
cluster's per-task makespan attribution and PATH.alloc with exclusive
heap-allocation bytes per span) for inferno/flamegraph.pl.
Artifacts are written even when the run aborts mid-flight.
Fault injection (sample, kmeans, djcluster): --crash N@T[,N@T...] kills
node N at virtual second T; --degrade N@T@FACTOR[,...] slows node N by
FACTOR from virtual second T. --driver-retries N (0) with
--retry-backoff SECS (5) makes the drivers re-submit a job that dies
from their last checkpoint (k-means centroids, DJ-Cluster stage
outputs) instead of propagating the error; with --run-dir it applies
too, and the journal is the checkpoint.
IO fault injection: --io-faults eio=P,torn=P,bitrot=P,enospc=SIZE,
slow=SECS_PER_MIB,streak=N,seed=X injects deterministic storage faults
under every spill and commit; retries/quarantines surface in --summary
and the Prometheus exposition (gepeto_io_*, gepeto_spill_runs_*).
Durability (sample, kmeans, synth): --run-dir DIR journals the run into
DIR (write-ahead journal.log, committed reduce partitions, MANIFEST,
OUTPUT artifact); 'gepeto resume DIR' finishes a killed run
bit-identically, replaying committed work instead of re-executing it.
With any observability flag, every attempt also streams its telemetry
to DIR/telemetry/attempt-NNN.jsonl; the post-hoc artifacts
(--metrics-out, --folded-out, --trace-out) are then stitched across all
attempts of the run — pre-kill work, replayed partitions and re-executed
tasks show up as distinct attempt lanes of one causal timeline.
Exit codes: 0 success, 1 usage/environment error, 3 job failed after
exhausting retries (artifacts still flushed), 4 driver panic.
";

/// Error prefix `main` maps to the job-failure exit code: the command
/// ran, but the MapReduce job itself died (chaos exhausted its retries,
/// unrecoverable storage loss) — distinct from usage errors and panics.
pub const JOB_FAILED_PREFIX: &str = "job failed: ";

fn job_failed(e: JobError) -> String {
    format!("{JOB_FAILED_PREFIX}{e}")
}

fn dataset_from(args: &Args, default_users: usize, default_scale: f64) -> Result<Dataset, String> {
    let users = args.get_or("users", default_users)?;
    let scale = args.get_or("scale", default_scale)?;
    let seed = args.get_or("seed", GeneratorConfig::paper().seed)?;
    let cfg = GeneratorConfig {
        users,
        scale,
        seed,
        ..GeneratorConfig::paper()
    };
    Ok(SyntheticGeoLife::new(cfg).generate())
}

fn cluster_from(args: &Args) -> Result<Cluster, String> {
    let base = if args.get_or("parapluie", false)? {
        Cluster::parapluie()
    } else {
        Cluster::local(4, 2)
    };
    Ok(base.with_chaos(chaos_from(args)?))
}

/// Builds the run's [`ChaosPlan`] from `--crash N@T[,N@T...]` and
/// `--degrade N@T@FACTOR[,...]` (times in virtual seconds).
fn chaos_from(args: &Args) -> Result<ChaosPlan, String> {
    let mut plan = ChaosPlan::none();
    if let Some(spec) = args.get("crash") {
        for item in spec.split(',') {
            let (node, at) = item
                .split_once('@')
                .ok_or_else(|| format!("--crash '{item}': expected NODE@SECONDS"))?;
            plan = plan.crash_node(
                node.parse()
                    .map_err(|_| format!("--crash '{item}': bad node '{node}'"))?,
                at.parse()
                    .map_err(|_| format!("--crash '{item}': bad time '{at}'"))?,
            );
        }
    }
    if let Some(spec) = args.get("degrade") {
        for item in spec.split(',') {
            let parts: Vec<&str> = item.split('@').collect();
            let [node, at, factor] = parts.as_slice() else {
                return Err(format!("--degrade '{item}': expected NODE@SECONDS@FACTOR"));
            };
            plan = plan.degrade_node(
                node.parse()
                    .map_err(|_| format!("--degrade '{item}': bad node '{node}'"))?,
                at.parse()
                    .map_err(|_| format!("--degrade '{item}': bad time '{at}'"))?,
                factor
                    .parse()
                    .map_err(|_| format!("--degrade '{item}': bad factor '{factor}'"))?,
            );
        }
    }
    if let Some(spec) = args.get("io-faults") {
        plan = plan.io_faults(io_faults_from(spec)?);
    }
    Ok(plan)
}

/// Parses `--io-faults eio=P,torn=P,bitrot=P,enospc=SIZE,slow=S,streak=N,
/// seed=X` into an [`IoFaultPlan`] (all keys optional).
fn io_faults_from(spec: &str) -> Result<IoFaultPlan, String> {
    let mut pairs = Vec::new();
    let mut seed = 1u64;
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        let (key, value) = item
            .split_once('=')
            .ok_or_else(|| format!("--io-faults '{item}': expected KEY=VALUE"))?;
        if key == "seed" {
            seed = value
                .parse()
                .map_err(|_| format!("--io-faults seed: cannot parse '{value}'"))?;
        } else {
            pairs.push((key, value));
        }
    }
    let mut plan = IoFaultPlan::new(seed);
    for (key, value) in pairs {
        let prob = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("--io-faults {key}: cannot parse '{v}'"))
        };
        plan = match key {
            "eio" => plan.eio(prob(value)?),
            "torn" => plan.torn(prob(value)?),
            "bitrot" => plan.bitrot(prob(value)?),
            "slow" => plan.slow(prob(value)?),
            "streak" => plan.eio_streak(
                value
                    .parse()
                    .map_err(|_| format!("--io-faults streak: cannot parse '{value}'"))?,
            ),
            "enospc" => plan.disk_capacity(parse_bytes(value).ok_or_else(|| {
                format!("--io-faults enospc: cannot parse '{value}' (want bytes or 64k/16m/2g)")
            })? as u64),
            other => return Err(format!("--io-faults: unknown key '{other}'")),
        };
    }
    Ok(plan)
}

/// Attaches the `--run-dir` write-ahead journal when asked for: records
/// the launch in the MANIFEST (first writer wins, so a resume keeps the
/// original argv) and journals a `RunStart`.
fn run_journal_from(args: &Args, command: &str) -> Result<Option<Arc<RunJournal>>, String> {
    let Some(dir) = args.get("run-dir") else {
        return Ok(None);
    };
    let journal = RunJournal::attach(std::path::Path::new(dir))?;
    let mut argv = vec![command.to_string()];
    argv.extend(args.to_argv());
    journal.write_manifest(&argv)?;
    journal.append(&JournalEntry::RunStart {
        command: command.to_string(),
    })?;
    Ok(Some(Arc::new(journal)))
}

/// Commits `text` as the run's `OUTPUT` artifact through the atomic
/// commit protocol, journals it, and seals the run: after the
/// `RunComplete` entry a resume is a no-op, and the per-run spill root
/// is swept.
fn commit_output(journal: &RunJournal, chaos: &ChaosPlan, text: &str) -> Result<(), String> {
    let path = journal.dir().join("OUTPUT");
    if path.exists() {
        commit::quarantine(&path, chaos);
    }
    let receipt = commit::commit_bytes_verified(&path, text.as_bytes(), "run-output", chaos)
        .map_err(|e| e.to_string())?;
    journal.append(&JournalEntry::ArtifactCommit {
        name: "OUTPUT".to_string(),
        path: path.display().to_string(),
        checksum: receipt.checksum,
    })?;
    journal.append(&JournalEntry::RunComplete)?;
    journal.sweep_spill();
    println!("run journal: OUTPUT committed to {}", path.display());
    Ok(())
}

/// Bit-exact digest text of a sampled dataset: trace count plus an
/// FNV-1a over every field (floats via their IEEE-754 bit patterns) in
/// output order — two runs produced identical output iff these bytes
/// are identical.
fn dataset_output_text(command: &str, ds: &Dataset) -> String {
    use std::hash::Hasher;
    let mut h = gepeto_mapred::hash::FnvHasher::default();
    for t in ds.iter_traces() {
        h.write_u32(t.user);
        h.write_i64(t.timestamp.0);
        h.write_u64(t.point.lat.to_bits());
        h.write_u64(t.point.lon.to_bits());
        h.write_u32(t.altitude.to_bits());
    }
    format!(
        "command: {command}\ntraces: {}\nusers: {}\nfnv64: {:016x}\n",
        ds.num_traces(),
        ds.num_users(),
        h.finish()
    )
}

/// Bit-exact digest text of a k-means result: every centroid's full bit
/// pattern, so resumed and undisturbed runs can be diffed byte-for-byte.
fn kmeans_output_text(result: &kmeans::KMeansResult) -> String {
    let mut s = format!(
        "command: kmeans\niterations: {}\nconverged: {}\n",
        result.iterations, result.converged
    );
    for (i, c) in result.centroids.iter().enumerate() {
        s.push_str(&format!(
            "centroid {i}: {:016x}:{:016x} ({:.6}, {:.6})\n",
            c.lat.to_bits(),
            c.lon.to_bits(),
            c.lat,
            c.lon
        ));
    }
    s
}

/// Parses `--memory-budget SIZE` into bytes. Accepts plain bytes or a
/// `k`/`m`/`g` suffix (`64m`, `512K`, `2g`); `None` when absent.
fn memory_budget_from(args: &Args) -> Result<Option<usize>, String> {
    let Some(raw) = args.get("memory-budget") else {
        return Ok(None);
    };
    parse_bytes(raw)
        .map(Some)
        .ok_or_else(|| format!("--memory-budget: cannot parse '{raw}' (want bytes or 64k/16m/2g)"))
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix.
fn parse_bytes(raw: &str) -> Option<usize> {
    let raw = raw.trim();
    let (digits, shift) = match raw.chars().last()? {
        'k' | 'K' => (&raw[..raw.len() - 1], 10u32),
        'm' | 'M' => (&raw[..raw.len() - 1], 20),
        'g' | 'G' => (&raw[..raw.len() - 1], 30),
        _ => (raw, 0),
    };
    let n: usize = digits.parse().ok()?;
    n.checked_shl(shift)
}

/// Builds the driver [`RetryPolicy`] from `--driver-retries` and
/// `--retry-backoff`; zero retries by default.
fn retry_policy_from(args: &Args) -> Result<RetryPolicy, String> {
    Ok(RetryPolicy::none()
        .retries(args.get_or("driver-retries", 0u32)?)
        .backoff(args.get_or("retry-backoff", 5.0f64)?))
}

fn dfs_with(args: &Args, cluster: &Cluster, ds: &Dataset) -> Result<Dfs<MobilityTrace>, String> {
    let chunk_kb: usize = args.get_or("chunk-kb", 1024usize)?;
    let mut dfs = gepeto::dfs_io::trace_dfs(cluster, chunk_kb * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "input", ds).map_err(|e| e.to_string())?;
    Ok(dfs)
}

/// Builds the run's [`Recorder`]: a monitored recorder (event stream +
/// live progress registry) when a live flag (`--watch`, `--prom-out`)
/// is given, a plain recording one for the post-hoc flags
/// (`--metrics-out`, `--summary`, `--explain`, `--folded-out`,
/// `--trace-out`) and for journaled runs (`--run-dir` archives every
/// attempt's telemetry for resume stitching), and a no-op handle
/// otherwise.
fn recorder_from(args: &Args) -> Recorder {
    if args.get("watch").is_some() || args.get("prom-out").is_some() {
        Recorder::monitored()
    } else if args.get("metrics-out").is_some()
        || args.get("folded-out").is_some()
        || args.get("trace-out").is_some()
        || args.get("run-dir").is_some()
        || args.get_flag("summary")
        || args.get_flag("explain")
    {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// Starts the per-attempt telemetry segment flusher under
/// `<run-dir>/telemetry/` and journals its provenance, so a later
/// resume can stitch every attempt into one causal trace. Archive
/// failures degrade to a warning — observability must never kill a
/// durable run.
fn start_archive(args: &Args, rec: &Recorder) -> Option<gepeto_telemetry::ArchiveWriter> {
    use gepeto_telemetry::archive;
    let dir = PathBuf::from(args.get("run-dir")?);
    if !rec.is_enabled() {
        return None;
    }
    let (attempt, path) = match archive::next_segment_path(&dir) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "telemetry archive: {}: {e} (continuing without)",
                dir.display()
            );
            return None;
        }
    };
    if let Ok(run_id) = archive::ensure_run_id(&dir) {
        if let Some(monitor) = rec.monitor() {
            let argv: Vec<String> = std::env::args().skip(1).collect();
            monitor.set_run_info(&run_id, &argv.join(" "));
        }
    }
    if let Ok(journal) = RunJournal::attach(&dir) {
        let _ = journal.append(&JournalEntry::TelemetrySegment {
            attempt,
            path: path.display().to_string(),
        });
    }
    match gepeto_telemetry::ArchiveWriter::start(rec.clone(), path, Duration::from_millis(200)) {
        Ok(writer) => Some(writer),
        Err(e) => {
            eprintln!(
                "telemetry archive: {}: {e} (continuing without)",
                dir.display()
            );
            None
        }
    }
}

/// Parses `--watch[=SECS]`: `None` when absent, the default 2 s
/// heartbeat for the bare flag, else the given interval.
fn watch_interval(args: &Args) -> Result<Option<f64>, String> {
    match args.get("watch") {
        None => Ok(None),
        Some("true") => Ok(Some(2.0)),
        Some(raw) => match raw.parse::<f64>() {
            Ok(secs) if secs > 0.0 => Ok(Some(secs)),
            _ => Err(format!("--watch: bad interval '{raw}' (want seconds > 0)")),
        },
    }
}

/// Starts the background heartbeat/exposition reporter when `--watch`
/// or `--prom-out` asks for one. Status lines go to stderr only under
/// `--watch`; `--prom-out` alone refreshes the exposition file
/// silently on the default cadence.
fn reporter_from(args: &Args, rec: &Recorder) -> Result<Option<Reporter>, String> {
    let watch = watch_interval(args)?;
    let prom_out = args.get("prom-out").map(PathBuf::from);
    if watch.is_none() && prom_out.is_none() {
        return Ok(None);
    }
    let Some(monitor) = rec.monitor() else {
        return Ok(None);
    };
    let every = Duration::from_secs_f64(watch.unwrap_or(2.0));
    Ok(Some(Reporter::start(
        monitor,
        every,
        prom_out,
        watch.is_some(),
    )))
}

/// Runs `body` with the drivers' [`RunCtx`] (the run's recorder plus the
/// `--driver-retries` policy) under the run's observability harness: the
/// live heartbeat/exposition reporter covers the whole run, and the
/// post-hoc artifacts are emitted afterwards — even when the run
/// itself aborts (chaos exhaustion, driver-retry failure), so a failed
/// run still leaves its event stream and flamegraph behind.
fn observed(
    args: &Args,
    retry: RetryPolicy,
    body: impl FnOnce(&RunCtx) -> Result<(), String>,
) -> Result<(), String> {
    let ctx = RunCtx {
        telemetry: recorder_from(args),
        retry,
    };
    let rec = &ctx.telemetry;
    let archive = start_archive(args, rec);
    let reporter = reporter_from(args, rec)?;
    // A panicking driver must still leave its artifacts behind, exactly
    // like an aborting one — flush, then let `main` map the resumed
    // panic to its own exit code.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
    if let Some(reporter) = reporter {
        reporter.stop();
    }
    // Seal this attempt's segment before the post-hoc artifacts read the
    // archive back — they stitch across every sealed attempt.
    if let Some(archive) = archive {
        archive.stop();
    }
    let artifacts = finish_metrics(args, rec);
    match result {
        Ok(outcome) => outcome.and(artifacts),
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Emits the run's observability outputs: the JSONL event stream plus a
/// summary table for `--metrics-out`, the summary table on stderr for
/// `--summary`, the critical-path + timeline reports on stderr for
/// `--explain`, collapsed flamegraph stacks for `--folded-out`, and a
/// Chrome trace-event export for `--trace-out`.
///
/// Under `--run-dir` the event-stream artifacts (`--metrics-out`,
/// `--folded-out`, `--trace-out`) are built from the *stitched* archive
/// — every attempt of the run, rebased into one causal timeline — while
/// `--summary`/`--explain` keep describing the attempt that just ran.
fn finish_metrics(args: &Args, rec: &Recorder) -> Result<(), String> {
    // The stream feeding the file artifacts: the stitched cross-attempt
    // archive when one exists, else this process's live events with the
    // final counter totals appended (segments already carry theirs).
    let segments = args
        .get("run-dir")
        .map(|dir| gepeto_telemetry::load_segments(std::path::Path::new(dir)))
        .unwrap_or_default();
    let attempts = segments.len();
    let events = if segments.is_empty() {
        let mut events = rec.events();
        let max_ts = events.iter().map(|e| e.ts_us).max().unwrap_or(0);
        events.extend(gepeto_telemetry::counter_events(&rec.counters(), max_ts));
        events
    } else {
        gepeto_telemetry::stitch(&segments)
    };
    if let Some(path) = args.get("folded-out") {
        std::fs::write(path, gepeto_telemetry::host_folded(&events))
            .map_err(|e| format!("--folded-out {path}: {e}"))?;
        let mut written = format!("flamegraph: host stacks -> {path}");
        if let Some(virtual_stacks) = gepeto_telemetry::virtual_folded(&events) {
            let vpath = format!("{path}.virtual");
            std::fs::write(&vpath, virtual_stacks)
                .map_err(|e| format!("--folded-out {vpath}: {e}"))?;
            written.push_str(&format!(", virtual stacks -> {vpath}"));
        }
        if let Some(alloc_stacks) = gepeto_telemetry::alloc_folded(&events) {
            let apath = format!("{path}.alloc");
            std::fs::write(&apath, alloc_stacks)
                .map_err(|e| format!("--folded-out {apath}: {e}"))?;
            written.push_str(&format!(", alloc stacks -> {apath}"));
        }
        eprintln!("{written}");
    }
    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, gepeto_telemetry::write_chrome_trace(&events))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        eprintln!(
            "trace: {} events{} -> {path} (open in ui.perfetto.dev)",
            events.len(),
            if attempts > 1 {
                format!(", stitched across {attempts} attempts")
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = args.get("metrics-out") {
        let file = std::fs::File::create(path).map_err(|e| format!("--metrics-out {path}: {e}"))?;
        let mut writer = std::io::BufWriter::new(file);
        gepeto_telemetry::write_jsonl(&mut writer, &events)
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
        println!("\n{}", rec.summary().render());
        println!("telemetry: {} events written to {path}", events.len());
    }
    if args.get_flag("summary") {
        eprintln!("{}", rec.summary().render());
    }
    if args.get_flag("explain") {
        eprint!("{}", rec.critical_path().render());
        if let Some(vcp) = rec.virtual_critical_path() {
            eprint!("{}", vcp.render());
        }
        if let Some(timeline) = rec.timeline() {
            eprint!("{}", timeline.render());
        }
    }
    Ok(())
}

fn print_job(label: &str, stats: &gepeto_mapred::JobStats) {
    println!(
        "{label}: {} map tasks, {} reduce tasks | real {:.2?} | sim makespan {:.1} s \
         (startup {:.0} s) | locality {}/{}/{} | shuffle {} B",
        stats.map_tasks,
        stats.reduce_tasks,
        stats.real_elapsed,
        stats.sim.makespan_s,
        stats.sim.cluster_startup_s,
        stats.sim.data_local,
        stats.sim.rack_local,
        stats.sim.remote,
        stats.sim.shuffle_bytes,
    );
    let c = |name| stats.counter(name);
    let [retries, reexecuted, failed_over, blacklisted] = [
        builtin::TASK_RETRIES,
        builtin::REEXECUTED_MAPS,
        builtin::FAILED_OVER_READS,
        builtin::BLACKLISTED_NODES,
    ]
    .map(c);
    if retries + reexecuted + failed_over + blacklisted > 0 {
        println!(
            "  recovery: {retries} task retries | {reexecuted} re-executed maps | \
             {failed_over} failed-over reads | {blacklisted} blacklisted nodes | \
             {:.1} s burned by failed attempts",
            stats.sim.failed_attempt_s,
        );
    }
    let [io_retries, torn, quarantined, replayed] = [
        builtin::IO_RETRIES,
        builtin::TORN_WRITES,
        builtin::RUNS_QUARANTINED,
        builtin::JOURNAL_REPLAYED,
    ]
    .map(c);
    if io_retries + torn + quarantined + replayed > 0 {
        println!(
            "  durability: {io_retries} io retries | {torn} torn writes detected | \
             {quarantined} runs quarantined | {replayed} reduce tasks replayed from artifacts",
        );
    }
}

/// Dispatches a parsed command — shared by `main` and [`resume`].
pub fn dispatch(cmd: &str, args: &Args) -> Result<(), String> {
    let threads = args.get_or("threads", 0usize)?;
    if threads > 0 && !gepeto_pool::set_threads(threads) {
        eprintln!("--threads {threads}: pool already sized; flag ignored");
    }
    match cmd {
        "generate" => generate(args),
        "sample" => sample(args),
        "kmeans" => kmeans(args),
        "synth" => synth(args),
        "djcluster" => djcluster(args),
        "attack" => attack(args),
        "sanitize" => sanitize(args),
        "predict" => predict(args),
        "semantics" => semantics(args),
        "viz" => viz(args),
        "report" => report(args),
        other => Err(format!("unknown command '{other}'; try 'gepeto help'")),
    }
}

/// `gepeto resume <run-dir> [--flag value ...]`: re-dispatches the argv
/// recorded in the run directory's MANIFEST (extra flags override it).
/// Stale spill runs are swept first; committed reduce partitions and
/// driver checkpoints then replay instead of re-executing, so the
/// resumed run completes bit-identically to an undisturbed one. A run
/// whose journal already holds `RunComplete` is a no-op.
pub fn resume(run_dir: &str, overrides: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(run_dir);
    let manifest = RunJournal::read_manifest(&dir)?;
    let (cmd, rest) = manifest
        .split_first()
        .ok_or_else(|| format!("resume: empty MANIFEST in {run_dir}"))?;
    let journal = RunJournal::attach(&dir)?;
    if journal.is_complete() {
        println!(
            "resume: run already complete; OUTPUT at {}",
            dir.join("OUTPUT").display()
        );
        return Ok(());
    }
    journal.sweep_spill();
    let committed = journal
        .entries()
        .iter()
        .filter(|e| matches!(e, JournalEntry::ReduceCommit { .. }))
        .count();
    drop(journal);
    let mut args = Args::parse(rest)?;
    args.overlay(&Args::parse(overrides)?);
    eprintln!(
        "resume: re-dispatching '{cmd}' from {run_dir} \
         ({committed} committed reduce partition(s) on file)"
    );
    dispatch(cmd, &args)
}

/// `gepeto generate`
pub fn generate(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 178, 0.01)?;
    let stats = DatasetStats::compute(&ds);
    println!("{stats}");
    if let Some(dir) = args.get("plt-dir") {
        let dir = std::path::Path::new(dir);
        for trail in ds.trails() {
            let user_dir = dir.join(format!("{:03}/Trajectory", trail.user));
            std::fs::create_dir_all(&user_dir).map_err(|e| e.to_string())?;
            let mut body = String::new();
            for t in trail.traces() {
                body.push_str(&plt::format_line(t));
                body.push('\n');
            }
            std::fs::write(user_dir.join("trajectory.plt"), body).map_err(|e| e.to_string())?;
        }
        println!(
            "\nwrote {} PLT user directories under {}",
            ds.num_users(),
            dir.display()
        );
    }
    Ok(())
}

/// `gepeto report`
pub fn report(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 178, 0.01)?;
    println!("{}", DatasetStats::compute(&ds));
    Ok(())
}

/// `gepeto sample`
pub fn sample(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 178, 0.01)?;
    let cluster = cluster_from(args)?;
    let mut dfs = dfs_with(args, &cluster, &ds)?;
    let t = args.get("technique").unwrap_or("upper");
    let technique = sampling::Technique::parse(t).ok_or(format!("unknown technique '{t}'"))?;
    let cfg = sampling::SamplingConfig::new(args.get_or("window", 60i64)?, technique);
    let budget = memory_budget_from(args)?;
    let retry = retry_policy_from(args)?;
    let journal = run_journal_from(args, "sample")?;
    observed(args, retry, |ctx| {
        // A budget or a journal needs the reduce phase (spill codec,
        // committed partitions); otherwise sampling is map-only.
        let (sampled, stats) = if budget.is_some() || journal.is_some() {
            let journal = journal.as_ref();
            sampling::mapreduce_sample_grouped(
                &cluster, &mut dfs, "input", &cfg, budget, journal, ctx,
            )
        } else {
            sampling::mapreduce_sample(&cluster, &mut dfs, "input", &cfg, ctx)
        }
        .map_err(job_failed)?;
        println!(
            "sampling window {} s: {} -> {} traces ({:.2} %)",
            cfg.window_secs,
            ds.num_traces(),
            sampled.num_traces(),
            100.0 * sampled.num_traces() as f64 / ds.num_traces().max(1) as f64
        );
        print_job("job", &stats);
        print_spill(&stats);
        if let Some(j) = &journal {
            commit_output(j, &cluster.chaos, &dataset_output_text("sample", &sampled))?;
        }
        Ok(())
    })
}

/// Prints the out-of-core shuffle/reduce counters when the job spilled.
fn print_spill(stats: &gepeto_mapred::JobStats) {
    use gepeto_mapred::counters::builtin;
    let get = |key: &str| stats.counters.get(key).copied().unwrap_or(0);
    let (bytes, files, groups) = (
        get(builtin::SPILLED_BYTES),
        get(builtin::SPILL_FILES),
        get(builtin::SPILLED_GROUPS),
    );
    if bytes + files + groups > 0 {
        println!("  out-of-core: {bytes} B spilled across {files} run files | {groups} reduce groups overflowed");
    }
}

/// `gepeto synth`: generate a deterministic synthetic mobility workload
/// (streamed user-by-user, never materializing the dataset) into the
/// DFS, then push it through a MapReduce workload — optionally under a
/// `--memory-budget` small enough to force the shuffle out of core.
pub fn synth(args: &Args) -> Result<(), String> {
    let users = args.get_or("users", 100_000u64)?;
    if users == 0 || users > u64::from(u32::MAX) {
        return Err(format!("--users {users}: want 1..=u32::MAX"));
    }
    let cfg = gepeto_synth::SynthConfig::new(users)
        .seed(args.get_or("seed", 20130520u64)?)
        .days(args.get_or("days", 1u32)?);
    let cluster = cluster_from(args)?;
    let chunk_mb: usize = args.get_or("chunk-mb", 64usize)?;
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, chunk_mb << 20);
    println!(
        "synth: {} users x {} day(s), seed {} -> ~{} traces (~{:.1} MB as PLT)",
        cfg.users,
        cfg.days,
        cfg.seed,
        cfg.estimated_traces(),
        cfg.estimated_plt_bytes() as f64 / (1024.0 * 1024.0),
    );
    let t0 = std::time::Instant::now();
    cfg.to_dfs(&mut dfs, "synth").map_err(|e| e.to_string())?;
    println!(
        "synth: streamed into DFS in {:.2?} ({} blocks, {} B)",
        t0.elapsed(),
        dfs.num_blocks("synth").unwrap_or(0),
        dfs.file_bytes("synth").unwrap_or(0),
    );
    let budget = memory_budget_from(args)?;
    let workload = args.get("workload").unwrap_or("sampling").to_string();
    let retry = retry_policy_from(args)?;
    let journal = run_journal_from(args, "synth")?;
    observed(args, retry, |ctx| match workload.as_str() {
        "sampling" => {
            let scfg = sampling::SamplingConfig::new(
                args.get_or("window", 60i64)?,
                sampling::Technique::ClosestToUpperLimit,
            );
            let (sampled, stats) = sampling::mapreduce_sample_grouped(
                &cluster,
                &mut dfs,
                "synth",
                &scfg,
                budget,
                journal.as_ref(),
                ctx,
            )
            .map_err(job_failed)?;
            println!(
                "sampling window {} s: kept {} traces across {} users",
                scfg.window_secs,
                sampled.num_traces(),
                sampled.num_users(),
            );
            print_job("job", &stats);
            print_spill(&stats);
            if let Some(j) = &journal {
                commit_output(j, &cluster.chaos, &dataset_output_text("synth", &sampled))?;
            }
            Ok(())
        }
        "kmeans" => {
            let kcfg = kmeans::KMeansConfig {
                k: args.get_or("k", 11usize)?,
                max_iterations: args.get_or("max-iter", 5usize)?,
                seed: args.get_or("seed", 1u64)?,
                use_combiner: args.get_or("combiner", false)?,
                memory_budget: budget,
                ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
            };
            let result =
                kmeans::mapreduce_kmeans(&cluster, &mut dfs, "synth", &kcfg, journal.as_ref(), ctx)
                    .map_err(job_failed)?;
            println!(
                "k-means: k={} converged={} after {} iterations",
                kcfg.k, result.converged, result.iterations
            );
            if let Some(last) = result.per_iteration.last() {
                print_job("last iteration", &last.job);
                print_spill(&last.job);
            }
            if let Some(j) = &journal {
                commit_output(j, &cluster.chaos, &kmeans_output_text(&result))?;
            }
            Ok(())
        }
        other => Err(format!("--workload '{other}': want sampling|kmeans")),
    })
}

/// `gepeto kmeans`
pub fn kmeans(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 178, 0.01)?;
    let cluster = cluster_from(args)?;
    let mut dfs = dfs_with(args, &cluster, &ds)?;
    let distance = DistanceMetric::parse(args.get("distance").unwrap_or("sqeuclidean"))
        .ok_or("unknown distance metric")?;
    let cfg = kmeans::KMeansConfig {
        k: args.get_or("k", 11usize)?,
        distance,
        convergence_delta: args.get_or("delta", 0.5f64)?,
        max_iterations: args.get_or("max-iter", 150usize)?,
        seed: args.get_or("seed", 1u64)?,
        use_combiner: args.get_or("combiner", false)?,
        memory_budget: memory_budget_from(args)?,
    };
    let retry = retry_policy_from(args)?;
    let journal = run_journal_from(args, "kmeans")?;
    observed(args, retry, |ctx| {
        let result =
            kmeans::mapreduce_kmeans(&cluster, &mut dfs, "input", &cfg, journal.as_ref(), ctx)
                .map_err(job_failed)?;
        println!(
            "k-means: k={} distance={} converged={} after {} iterations",
            cfg.k,
            cfg.distance.name(),
            result.converged,
            result.iterations
        );
        if result.job_retries > 0 {
            println!(
                "driver: {} whole-job re-submissions recovered from checkpoints",
                result.job_retries
            );
        }
        let mean_iter_sim: f64 = result
            .per_iteration
            .iter()
            .map(|i| i.job.sim.makespan_s)
            .sum::<f64>()
            / result.iterations.max(1) as f64;
        println!("mean simulated iteration time: {mean_iter_sim:.1} s");
        if let Some(last) = result.per_iteration.last() {
            print_job("last iteration", &last.job);
            print_spill(&last.job);
        }
        for (i, c) in result.centroids.iter().enumerate() {
            println!("  centroid {i}: ({:.6}, {:.6})", c.lat, c.lon);
        }
        if let Some(j) = &journal {
            commit_output(j, &cluster.chaos, &kmeans_output_text(&result))?;
        }
        Ok(())
    })
}

/// `gepeto djcluster`
pub fn djcluster(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 178, 0.01)?;
    let cluster = cluster_from(args)?;
    let mut dfs = dfs_with(args, &cluster, &ds)?;
    // The paper clusters the *sampled* dataset; do the same.
    let window = args.get_or("window", 60i64)?;
    let scfg = sampling::SamplingConfig::new(window, sampling::Technique::ClosestToUpperLimit);
    let retry = retry_policy_from(args)?;
    let untraced = RunCtx {
        retry,
        ..RunCtx::default()
    };
    let (sampled, _) = sampling::mapreduce_sample(&cluster, &mut dfs, "input", &scfg, &untraced)
        .map_err(job_failed)?;
    gepeto::dfs_io::put_dataset(&mut dfs, "sampled", &sampled).map_err(|e| job_failed(e.into()))?;
    let cfg = djcluster::DjConfig {
        radius_m: args.get_or("radius", 60.0f64)?,
        min_pts: args.get_or("minpts", 4usize)?,
        speed_threshold_mps: args.get_or("speed", 1.0f64)?,
        dup_threshold_m: args.get_or("dup", 0.5f64)?,
    };
    let rtree_cfg = args
        .get_or("mr-rtree", true)?
        .then(gepeto::rtree_build::RTreeBuildConfig::default);
    observed(args, retry, |ctx| {
        let (clustering, pre, stats) = djcluster::mapreduce_djcluster_full(
            &cluster,
            &mut dfs,
            "sampled",
            &cfg,
            rtree_cfg.as_ref(),
            ctx,
        )
        .map_err(job_failed)?;
        let job_retries = pre.job_retries + stats.job_retries;
        if job_retries > 0 {
            println!("driver: {job_retries} whole-job re-submissions recovered from checkpoints");
        }
        println!(
            "preprocessing: {} -> {} (speed filter) -> {} (dedup)",
            pre.input, pre.after_speed_filter, pre.after_dedup
        );
        println!(
            "DJ-Cluster: {} clusters, {} noise traces",
            clustering.clusters.len(),
            clustering.noise
        );
        print_job("cluster job", &stats.cluster_job);
        Ok(())
    })
}

/// `gepeto attack`
pub fn attack(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 20, 0.02)?;
    let cfg = djcluster::DjConfig::default();
    let pois = attacks::extract_pois_dataset(&ds, &cfg);
    let mut with_home = 0usize;
    for (user, user_pois) in &pois {
        if let Some(home) = attacks::infer_home(user_pois) {
            with_home += 1;
            println!(
                "user {user}: {} POIs, home ≈ ({:.5}, {:.5}), {} visits",
                user_pois.len(),
                home.center.lat,
                home.center.lon,
                home.visits
            );
        }
    }
    println!("\nhome inferred for {with_home}/{} users", ds.num_users());

    // MMC de-anonymization: train on the first half of each trail, attack
    // with the second half.
    let mut gallery = std::collections::BTreeMap::new();
    let mut targets = Vec::new();
    for trail in ds.trails() {
        let traces = trail.traces().to_vec();
        if traces.len() < 200 {
            continue;
        }
        let mid = traces.len() / 2;
        let train = gepeto_model::Trail::new(trail.user, traces[..mid].to_vec());
        let test = gepeto_model::Trail::new(trail.user, traces[mid..].to_vec());
        if let (Some(g), Some(t)) = (
            attacks::learn_mmc(&train, &cfg),
            attacks::learn_mmc(&test, &cfg),
        ) {
            gallery.insert(trail.user, g);
            targets.push((trail.user, t));
        }
    }
    let mut hits = 0usize;
    for (truth, target) in &targets {
        let ranked = attacks::mmc::deanonymize(&gallery, target);
        if ranked.first().map(|r| r.0) == Some(*truth) {
            hits += 1;
        }
    }
    if !targets.is_empty() {
        println!(
            "MMC de-anonymization: {hits}/{} users re-identified ({:.0} %)",
            targets.len(),
            100.0 * hits as f64 / targets.len() as f64
        );
    }
    Ok(())
}

/// `gepeto sanitize`
pub fn sanitize(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 20, 0.02)?;
    let param = args.get_or("param", 100.0f64)?;
    let seed = args.get_or("seed", 1u64)?;
    let mechanism: Box<dyn Sanitizer> = match args.get("mechanism").unwrap_or("gaussian") {
        "gaussian" => Box::new(sanitize::GaussianMask {
            sigma_m: param,
            seed,
        }),
        "uniform" => Box::new(sanitize::UniformMask {
            radius_m: param,
            seed,
        }),
        "aggregate" => Box::new(sanitize::SpatialAggregation { cell_m: param }),
        "cloak" => Box::new(sanitize::SpatialCloaking {
            cell_m: param,
            k: args.get_or("k", 2usize)?,
        }),
        "temporal" => Box::new(sanitize::TemporalCloaking {
            window_secs: param.max(1.0) as i64,
        }),
        "mixzone" => {
            // Zones at the city center and two offsets.
            let c = GeneratorConfig::paper().city_center;
            Box::new(sanitize::MixZones {
                zones: vec![
                    sanitize::MixZone {
                        center: c,
                        radius_m: param,
                    },
                    sanitize::MixZone {
                        center: GeoPoint::new(c.lat + 0.02, c.lon + 0.02),
                        radius_m: param,
                    },
                ],
            })
        }
        other => return Err(format!("unknown mechanism '{other}'")),
    };
    let sanitized = mechanism.apply(&ds);
    let cfg = djcluster::DjConfig::default();
    let reference = attacks::extract_pois_dataset(&ds, &cfg);
    let attacked = attacks::extract_pois_dataset(&sanitized, &cfg);
    let (mut recall_sum, mut n) = (0.0, 0usize);
    for (user, ref_pois) in &reference {
        if ref_pois.is_empty() {
            continue;
        }
        let empty = Vec::new();
        let att = attacked.get(user).unwrap_or(&empty);
        recall_sum += metrics::poi_recall(ref_pois, att, 150.0);
        n += 1;
    }
    println!("mechanism:          {}", mechanism.name());
    println!(
        "POI recall (attack): {:.1} % over {n} users",
        100.0 * recall_sum / n.max(1) as f64
    );
    println!(
        "mean displacement:   {:.1} m",
        metrics::mean_displacement_m(&ds, &sanitized)
    );
    println!(
        "trace retention:     {:.1} %",
        100.0 * metrics::retention(&ds, &sanitized)
    );
    Ok(())
}

/// `gepeto predict`
pub fn predict(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 15, 0.02)?;
    let fraction = args.get_or("train-fraction", 0.6f64)?;
    let cfg = djcluster::DjConfig::default();
    let mut evaluated = 0usize;
    let (mut acc_sum, mut base_sum) = (0.0f64, 0.0f64);
    println!("user | states | transitions | MMC top-1 | baseline");
    println!("-----+--------+-------------+-----------+---------");
    for trail in ds.trails() {
        if let Some((_, report)) = attacks::evaluate_next_place(trail, &cfg, fraction) {
            evaluated += 1;
            acc_sum += report.accuracy();
            base_sum += report.baseline_accuracy();
            println!(
                "{:>4} | {:>6} | {:>11} | {:>8.0} % | {:>6.0} %",
                trail.user,
                report.states,
                report.transitions,
                100.0 * report.accuracy(),
                100.0 * report.baseline_accuracy()
            );
        }
    }
    if evaluated == 0 {
        return Err("no trail was predictable (try a larger --scale)".into());
    }
    println!(
        "\nmean over {evaluated} users: MMC {:.0} % vs baseline {:.0} %",
        100.0 * acc_sum / evaluated as f64,
        100.0 * base_sum / evaluated as f64
    );
    Ok(())
}

/// `gepeto viz`
pub fn viz(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 15, 0.01)?;
    let dir = std::path::PathBuf::from(args.get("out").ok_or("viz requires --out DIR")?);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let width = args.get_or("width", 900u32)?;

    // SVG: traces + trails + inferred homes.
    let cfg = djcluster::DjConfig::default();
    let pois = attacks::extract_pois_dataset(&ds, &cfg);
    let mut markers = Vec::new();
    let mut flat_pois = Vec::new();
    for (user, user_pois) in &pois {
        if let Some(home) = attacks::infer_home(user_pois) {
            markers.push((home.center, format!("home {user}")));
        }
        for p in user_pois {
            flat_pois.push((*user, p.clone()));
        }
    }
    let mut map = gepeto::viz::SvgMap::for_dataset(&ds, width);
    map.add_trails(&ds)
        .add_dataset(&ds, 1.5)
        .add_markers(&markers);
    std::fs::write(dir.join("map.svg"), map.render()).map_err(|e| e.to_string())?;
    std::fs::write(
        dir.join("traces.geojson"),
        gepeto::viz::geojson::dataset_points(&ds),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(
        dir.join("trails.geojson"),
        gepeto::viz::geojson::dataset_trails(&ds),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(
        dir.join("pois.geojson"),
        gepeto::viz::geojson::pois(&flat_pois),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "wrote map.svg, traces.geojson, trails.geojson, pois.geojson to {}",
        dir.display()
    );
    println!(
        "\ndensity ({} traces):\n{}",
        ds.num_traces(),
        gepeto::viz::ascii_density(&ds, 18, 60)
    );
    Ok(())
}

/// `gepeto semantics`
pub fn semantics(args: &Args) -> Result<(), String> {
    let ds = dataset_from(args, 10, 0.015)?;
    let cfg = djcluster::DjConfig::default();
    println!("user | label   | place (lat, lon)     | time share");
    println!("-----+---------+----------------------+-----------");
    for trail in ds.trails() {
        let (labeled, traj) = attacks::semantic_trajectory(trail, &cfg);
        let total: i64 = traj
            .visits
            .iter()
            .map(|v| v.duration_secs)
            .sum::<i64>()
            .max(1);
        for (poi, label) in &labeled {
            let label_time = traj.time_at(*label);
            // Only print each label once per user (home/work) plus the
            // aggregated leisure line.
            if *label == attacks::PoiLabel::Leisure
                && labeled
                    .iter()
                    .position(|(p, l)| *l == attacks::PoiLabel::Leisure && p == poi)
                    != labeled
                        .iter()
                        .position(|(_, l)| *l == attacks::PoiLabel::Leisure)
            {
                continue;
            }
            println!(
                "{:>4} | {:<7} | ({:.5}, {:.5}) | {:>8.0} %",
                trail.user,
                label.to_string(),
                poi.center.lat,
                poi.center.lon,
                100.0 * label_time as f64 / total as f64
            );
        }
    }
    println!(
        "\nThe adversary reads a person's life pattern — where they sleep, \
         work and spend free time — from coordinates alone (§II semantic \
         trajectories)."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn report_runs_on_tiny_dataset() {
        assert!(report(&args("--users 2 --scale 0.002")).is_ok());
    }

    #[test]
    fn sample_runs_and_validates_technique() {
        assert!(sample(&args("--users 2 --scale 0.002 --window 60")).is_ok());
        assert!(sample(&args("--users 2 --scale 0.002 --technique middle")).is_ok());
        let err = sample(&args("--users 2 --scale 0.002 --technique bogus")).unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn kmeans_runs_and_validates_distance() {
        assert!(kmeans(&args("--users 2 --scale 0.002 --k 3 --max-iter 3")).is_ok());
        assert!(kmeans(&args("--users 2 --scale 0.002 --distance nope")).is_err());
    }

    #[test]
    fn djcluster_runs_small() {
        assert!(djcluster(&args("--users 2 --scale 0.002 --mr-rtree false")).is_ok());
    }

    #[test]
    fn parse_bytes_handles_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("16M"), Some(16 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes(" 1k "), Some(1024));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("-1"), None);
    }

    #[test]
    fn sample_accepts_memory_budget() {
        assert!(sample(&args("--users 2 --scale 0.002 --memory-budget 1")).is_ok());
        let err = sample(&args("--users 2 --scale 0.002 --memory-budget huge")).unwrap_err();
        assert!(err.contains("memory-budget"));
    }

    #[test]
    fn synth_runs_sampling_under_tiny_budget() {
        assert!(synth(&args("--users 50 --chunk-mb 1 --memory-budget 1 --summary")).is_ok());
    }

    #[test]
    fn synth_runs_kmeans_workload() {
        assert!(synth(&args(
            "--users 30 --chunk-mb 1 --workload kmeans --k 3 --max-iter 2 --memory-budget 64"
        ))
        .is_ok());
        let err = synth(&args("--users 10 --workload bogus")).unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn synth_rejects_zero_users() {
        assert!(synth(&args("--users 0")).is_err());
    }

    #[test]
    fn sanitize_validates_mechanism() {
        assert!(sanitize(&args(
            "--users 2 --scale 0.003 --mechanism gaussian --param 50"
        ))
        .is_ok());
        assert!(sanitize(&args(
            "--users 2 --scale 0.003 --mechanism temporal --param 300"
        ))
        .is_ok());
        let err = sanitize(&args("--users 2 --scale 0.003 --mechanism quantum")).unwrap_err();
        assert!(err.contains("quantum"));
    }

    #[test]
    fn viz_requires_out_dir() {
        let err = viz(&args("--users 2 --scale 0.002")).unwrap_err();
        assert!(err.contains("--out"));
        let dir = std::env::temp_dir().join("gepeto-cli-viz-test");
        let flags = format!("--users 2 --scale 0.002 --out {}", dir.display());
        assert!(viz(&args(&flags)).is_ok());
        assert!(dir.join("map.svg").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn kmeans_metrics_out_writes_jsonl() {
        let path = std::env::temp_dir().join("gepeto-cli-metrics-test.jsonl");
        let flags = format!(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --metrics-out {}",
            path.display()
        );
        assert!(kmeans(&args(&flags)).is_ok());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 0);
        assert!(body.contains("kmeans.iteration"));
        assert!(body.contains("phase.map"));
        assert!(body.contains("locality"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn summary_and_explain_flags_run() {
        assert!(sample(&args("--users 2 --scale 0.002 --summary")).is_ok());
        assert!(kmeans(&args(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --explain --crash 1@3"
        ))
        .is_ok());
        assert!(djcluster(&args(
            "--users 2 --scale 0.002 --mr-rtree false --summary --explain"
        ))
        .is_ok());
    }

    #[test]
    fn malformed_flag_value_is_an_error() {
        assert!(report(&args("--users abc")).is_err());
        assert!(sample(&args("--users 2 --scale 0.002 --window abc")).is_err());
    }

    #[test]
    fn chaos_flags_parse_and_run() {
        // A crashed node mid-run must not change the command's success.
        assert!(sample(&args("--users 2 --scale 0.002 --crash 0@30")).is_ok());
        assert!(kmeans(&args(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --crash 1@40,2@80 --degrade 0@0@2.5"
        ))
        .is_ok());
        let err = sample(&args("--users 2 --scale 0.002 --crash zero@30")).unwrap_err();
        assert!(err.contains("bad node"));
        let err = sample(&args("--users 2 --scale 0.002 --crash 0")).unwrap_err();
        assert!(err.contains("NODE@SECONDS"));
        let err = kmeans(&args("--users 2 --scale 0.002 --degrade 0@1")).unwrap_err();
        assert!(err.contains("NODE@SECONDS@FACTOR"));
    }

    #[test]
    fn io_fault_flags_parse_and_run() {
        // A storage-fault soup under a starvation budget must still
        // succeed — repairs are the engine's job, not the caller's.
        assert!(sample(&args(
            "--users 2 --scale 0.002 --memory-budget 1 \
             --io-faults eio=0.5,torn=0.5,bitrot=0.3,seed=9 --summary"
        ))
        .is_ok());
        assert!(kmeans(&args(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --memory-budget 1 \
             --io-faults torn=1.0,slow=0.5,streak=1"
        ))
        .is_ok());
        let err = sample(&args("--users 2 --scale 0.002 --io-faults eio=oops")).unwrap_err();
        assert!(err.contains("eio"), "{err}");
        let err = sample(&args("--users 2 --scale 0.002 --io-faults frob=1")).unwrap_err();
        assert!(err.contains("unknown"), "{err}");
    }

    #[test]
    fn job_failures_carry_the_exit_code_prefix() {
        // All nodes dead at t=0: retries exhaust and the error string is
        // classified as a job failure (exit 3), not a usage error.
        let err = kmeans(&args(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --crash 0@0,1@0,2@0,3@0",
        ))
        .unwrap_err();
        assert!(err.starts_with(JOB_FAILED_PREFIX), "{err}");
        // Usage errors stay unprefixed.
        let err = kmeans(&args("--users abc")).unwrap_err();
        assert!(!err.starts_with(JOB_FAILED_PREFIX), "{err}");
    }

    #[test]
    fn watch_and_prom_out_write_a_live_exposition_under_chaos() {
        let path = std::env::temp_dir().join("gepeto-cli-prom-test.prom");
        let flags = format!(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --crash 1@40 \
             --watch=0.05 --prom-out {}",
            path.display()
        );
        assert!(kmeans(&args(&flags)).is_ok());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(
            body.contains("# TYPE gepeto_map_tasks_done counter"),
            "{body}"
        );
        assert!(body.contains("gepeto_jobs_finished_total"), "{body}");
        assert!(body.contains("le=\"+Inf\""), "{body}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn watch_interval_parses_and_rejects_garbage() {
        assert_eq!(watch_interval(&args("--watch")).unwrap(), Some(2.0));
        assert_eq!(watch_interval(&args("--watch=0.5")).unwrap(), Some(0.5));
        assert_eq!(watch_interval(&args("--k 3")).unwrap(), None);
        assert!(watch_interval(&args("--watch=fast")).is_err());
        assert!(watch_interval(&args("--watch=-1")).is_err());
    }

    #[test]
    fn metrics_out_survives_an_aborted_run() {
        // Crash every node at t=0: the job cannot finish and the
        // command must fail — but the event stream still lands.
        let path = std::env::temp_dir().join("gepeto-cli-abort-test.jsonl");
        let _ = std::fs::remove_file(&path);
        let flags = format!(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 \
             --crash 0@0,1@0,2@0,3@0 --metrics-out {}",
            path.display()
        );
        assert!(kmeans(&args(&flags)).is_err());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 0);
        assert!(body.contains("chaos.crash"), "{body}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn folded_out_writes_host_and_virtual_stacks() {
        let path = std::env::temp_dir().join("gepeto-cli-folded-test.folded");
        let vpath = std::env::temp_dir().join("gepeto-cli-folded-test.folded.virtual");
        let flags = format!(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --folded-out {}",
            path.display()
        );
        assert!(kmeans(&args(&flags)).is_ok());
        let host = std::fs::read_to_string(&path).unwrap();
        assert!(host.lines().all(|l| l.rsplit_once(' ').is_some()));
        assert!(host.contains("kmeans"), "{host}");
        let virt = std::fs::read_to_string(&vpath).unwrap();
        assert!(virt.contains(";map;"), "{virt}");
        // The ledger attributes heap bytes to every span, so the alloc
        // fold exists and its frames carry numeric exclusive weights.
        let apath = std::env::temp_dir().join("gepeto-cli-folded-test.folded.alloc");
        let alloc = std::fs::read_to_string(&apath).unwrap();
        assert!(alloc.lines().count() > 0);
        assert!(alloc.lines().all(|l| l
            .rsplit_once(' ')
            .is_some_and(|(_, w)| w.parse::<u64>().is_ok())));
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(vpath);
        let _ = std::fs::remove_file(apath);
    }

    #[test]
    fn driver_retries_use_the_checkpointed_drivers() {
        assert!(kmeans(&args(
            "--users 2 --scale 0.002 --k 2 --max-iter 2 --driver-retries 2 --retry-backoff 1"
        ))
        .is_ok());
        assert!(djcluster(&args(
            "--users 2 --scale 0.002 --mr-rtree false --driver-retries 2"
        ))
        .is_ok());
    }
}
