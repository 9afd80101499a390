//! The paper's three workloads, instrumented for `gepeto-bench`.
//!
//! Each run builds the synthetic GeoLife-calibrated dataset, loads it
//! into a fresh DFS on the virtual Parapluie cluster, executes the
//! workload with an enabled telemetry [`Recorder`], and folds the job
//! statistics plus the captured trace into a [`BenchReport`].

use crate::report::{BenchReport, HostBlock};
use crate::{convergence_delta_for, dataset, parapluie};
use gepeto::prelude::*;
use gepeto_geo::DistanceMetric;
use gepeto_mapred::JobStats;
use gepeto_pool::PoolStats;
use gepeto_telemetry::{LedgerScope, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Folds the pool-counter movement across the workload window into the
/// report's [`HostBlock`]. Counters are process-cumulative, so the
/// block is the delta between the snapshot taken before the workload
/// started and the one taken after it finished.
fn host_block(before: &PoolStats, wall_ms: u64) -> HostBlock {
    let after = gepeto_pool::global_stats();
    let threads = after.threads as u64;
    let busy_s = after.busy_ns().saturating_sub(before.busy_ns()) as f64 / 1e9;
    let idle_s = (threads as f64 * wall_ms as f64 / 1e3 - busy_s).max(0.0);
    HostBlock {
        threads,
        tasks: after.tasks.saturating_sub(before.tasks),
        steals: after.steals.saturating_sub(before.steals),
        busy_s,
        idle_s,
    }
}

/// Knobs of one bench invocation; env-independent so tests can pin the
/// shape without mutating `GEPETO_SCALE`.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Users in the synthetic dataset (the paper's full cut is 178).
    pub users: usize,
    /// Dataset/chunk scale factor.
    pub scale: f64,
    /// k-means cluster count (the paper uses 11).
    pub k: usize,
    /// k-means iteration cap — kept small so a bench run is bounded
    /// even when the convergence delta is not reached.
    pub max_iterations: usize,
    /// Unscaled DFS chunk size in MB (the paper's HDFS block is 64 MB).
    pub chunk_mb: usize,
}

impl BenchConfig {
    /// The defaults at a given scale: the paper's full 178-user cut.
    pub fn at_scale(scale: f64) -> Self {
        Self {
            users: 178,
            scale,
            k: 11,
            max_iterations: 8,
            chunk_mb: 64,
        }
    }

    fn chunk_bytes(&self) -> usize {
        ((self.chunk_mb as f64 * 1e6 * self.scale) as usize).max(4 * 1024)
    }

    fn setup(&self) -> (Arc<Dataset>, Cluster, Dfs<MobilityTrace>) {
        let ds = dataset(self.users, self.scale);
        let cluster = parapluie();
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, self.chunk_bytes());
        gepeto::dfs_io::put_dataset(&mut dfs, "input", &ds).unwrap();
        (ds, cluster, dfs)
    }
}

/// Runs one workload by name (`sampling`, `kmeans`, `djcluster`,
/// `synth`).
pub fn run_workload(name: &str, cfg: &BenchConfig) -> Result<BenchReport, String> {
    match name {
        "sampling" => run_sampling(cfg),
        "kmeans" => run_kmeans(cfg),
        "djcluster" => run_djcluster(cfg),
        "synth" => run_synth(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected sampling, kmeans, djcluster or synth)"
        )),
    }
}

/// Workload 1: distributed sampling, 1-minute window, closest-to-upper.
pub fn run_sampling(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let (_ds, cluster, mut dfs) = cfg.setup();
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let telemetry = Recorder::enabled();
    let ctx = RunCtx::from(&telemetry);
    let ledger = LedgerScope::open();
    let pool_before = gepeto_pool::global_stats();
    let started = Instant::now();
    let (_sampled, stats) = sampling::mapreduce_sample(&cluster, &mut dfs, "input", &scfg, &ctx)
        .map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_millis() as u64;
    let mem = ledger.close();
    Ok(BenchReport::from_run(
        "sampling",
        cfg.scale,
        cfg.users,
        wall_ms,
        &[&stats],
        &telemetry,
        mem,
        host_block(&pool_before, wall_ms),
    ))
}

/// Workload 2: iterative k-means (k = 11, squared Euclidean).
pub fn run_kmeans(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let (_ds, cluster, mut dfs) = cfg.setup();
    let metric = DistanceMetric::SquaredEuclidean;
    let kcfg = kmeans::KMeansConfig {
        max_iterations: cfg.max_iterations,
        convergence_delta: convergence_delta_for(metric),
        k: cfg.k,
        ..kmeans::KMeansConfig::paper(metric)
    };
    let telemetry = Recorder::enabled();
    let ctx = RunCtx::from(&telemetry);
    let ledger = LedgerScope::open();
    let pool_before = gepeto_pool::global_stats();
    let started = Instant::now();
    let result = kmeans::mapreduce_kmeans(&cluster, &mut dfs, "input", &kcfg, None, &ctx)
        .map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_millis() as u64;
    let mem = ledger.close();
    let jobs: Vec<&JobStats> = result.per_iteration.iter().map(|it| &it.job).collect();
    Ok(BenchReport::from_run(
        "kmeans",
        cfg.scale,
        cfg.users,
        wall_ms,
        &jobs,
        &telemetry,
        mem,
        host_block(&pool_before, wall_ms),
    ))
}

/// Workload 4: the out-of-core tier. A `GEPETO_SCALE`-sized slice of a
/// million-user synthetic day is streamed into the DFS (never holding
/// more than one user's trail in memory) and regrouped through the
/// by-user shuffle under a memory budget small enough to force the
/// external spill/merge path at every scale — `GEPETO_SCALE=1.0` runs
/// the full million users.
pub fn run_synth(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let users = ((1_000_000.0 * cfg.scale) as u64).clamp(16, u64::from(u32::MAX));
    let synth = gepeto_synth::SynthConfig::new(users);
    let cluster = parapluie();
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, cfg.chunk_bytes());
    let telemetry = Recorder::enabled();
    let ctx = RunCtx::from(&telemetry);
    let ledger = LedgerScope::open();
    let pool_before = gepeto_pool::global_stats();
    let started = Instant::now();
    synth.to_dfs(&mut dfs, "input").map_err(|e| e.to_string())?;
    // ~1/64 of the whole shuffle per partition: a handful of sorted
    // runs per reducer regardless of scale, floored so tiny smoke runs
    // still exercise the spill path.
    let budget = (synth.estimated_plt_bytes() / 64).max(4 * 1024) as usize;
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let (_grouped, stats) = sampling::mapreduce_sample_grouped(
        &cluster,
        &mut dfs,
        "input",
        &scfg,
        Some(budget),
        None,
        &ctx,
    )
    .map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_millis() as u64;
    let mem = ledger.close();
    Ok(BenchReport::from_run(
        "synth",
        cfg.scale,
        users as usize,
        wall_ms,
        &[&stats],
        &telemetry,
        mem,
        host_block(&pool_before, wall_ms),
    ))
}

/// Workload 3: the full DJ-Cluster pipeline — sampling, preprocessing
/// (speed filter + dedup), MapReduce R-tree build, clustering — as the
/// CLI runs it.
pub fn run_djcluster(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let (_ds, cluster, mut dfs) = cfg.setup();
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let dj = djcluster::DjConfig::default();
    let rtree_cfg = gepeto::rtree_build::RTreeBuildConfig::default();
    let telemetry = Recorder::enabled();
    let ledger = LedgerScope::open();
    let pool_before = gepeto_pool::global_stats();
    let started = Instant::now();
    // The sampling stage runs untraced: only the clustering pipeline's
    // events feed the report's telemetry.
    let (sampled, sample_stats) =
        sampling::mapreduce_sample(&cluster, &mut dfs, "input", &scfg, &RunCtx::default())
            .map_err(|e| e.to_string())?;
    put_dataset(&mut dfs, "sampled", &sampled).map_err(|e| e.to_string())?;
    let ctx = RunCtx::from(&telemetry);
    let (_clustering, pre, stats) = djcluster::mapreduce_djcluster_full(
        &cluster,
        &mut dfs,
        "sampled",
        &dj,
        Some(&rtree_cfg),
        &ctx,
    )
    .map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_millis() as u64;
    let mem = ledger.close();
    let mut jobs: Vec<&JobStats> = vec![&sample_stats];
    jobs.extend(pre.jobs.stages());
    jobs.push(&stats.cluster_job);
    Ok(BenchReport::from_run(
        "djcluster",
        cfg.scale,
        cfg.users,
        wall_ms,
        &jobs,
        &telemetry,
        mem,
        host_block(&pool_before, wall_ms),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{compare, BenchReport, SCHEMA};

    fn tiny() -> BenchConfig {
        BenchConfig {
            users: 3,
            scale: 0.002,
            k: 3,
            max_iterations: 2,
            chunk_mb: 64,
        }
    }

    #[test]
    fn sampling_report_is_valid_and_self_compares_clean() {
        let report = run_sampling(&tiny()).unwrap();
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.workload, "sampling");
        assert_eq!(report.jobs, 1);
        assert!(report.map_tasks >= 1);
        assert!(report.makespan_s > 0.0, "Parapluie replay must take time");
        assert!(!report.tasks.is_empty(), "task quantiles missing");
        assert!(
            !report.critical_path.is_empty(),
            "virtual critical path missing"
        );
        let share: f64 = report.critical_path.iter().map(|p| p.share).sum();
        assert!((share - 1.0).abs() < 1e-6, "phase shares sum to {share}");

        let back = BenchReport::from_json(&report.to_json()).unwrap();
        let cmp = compare(&report, &back, 1.0);
        assert!(cmp.regressions.is_empty());
        assert!(cmp.notes.is_empty());
    }

    #[test]
    fn reports_carry_pool_activity_in_the_host_block() {
        let report = run_sampling(&tiny()).unwrap();
        assert!(report.host.threads >= 1, "{:?}", report.host);
        assert!(report.host.tasks > 0, "{:?}", report.host);
        // busy + idle partition the executors' wall time, so both are
        // finite and non-negative by construction.
        assert!(report.host.busy_s >= 0.0 && report.host.idle_s >= 0.0);
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.host.threads, report.host.threads);
        assert_eq!(back.host.tasks, report.host.tasks);
    }

    #[test]
    fn kmeans_report_counts_one_job_per_iteration() {
        let report = run_kmeans(&tiny()).unwrap();
        assert_eq!(report.workload, "kmeans");
        assert!(report.jobs >= 1 && report.jobs <= 2);
        assert!(report.reduce_tasks > 0, "k-means jobs have reducers");
    }

    #[test]
    fn synth_report_records_spill_counters() {
        let report = run_synth(&tiny()).unwrap();
        assert_eq!(report.workload, "synth");
        assert_eq!(report.jobs, 1);
        assert!(report.reduce_tasks > 0, "by-user regrouping has reducers");
        let counter = |key: &str| {
            report
                .counters
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v)
        };
        let spilled = counter(gepeto_mapred::counters::builtin::SPILLED_BYTES);
        let files = counter(gepeto_mapred::counters::builtin::SPILL_FILES);
        assert!(
            spilled > 0 && files > 0,
            "the synth tier must exercise the out-of-core shuffle, got {:?}",
            report.counters
        );

        // The budgeted synth tier fills the whole mem block: allocator
        // peaks from the ledger, budget accounting from the engine.
        assert!(report.mem.peak_bytes > 0);
        assert!(report.mem.allocated_bytes > 0);
        assert!(report.mem.allocs > 0);
        assert!(report.mem.budget_bytes > 0);
        assert!(report.mem.accounted_peak > 0);

        let back = BenchReport::from_json(&report.to_json()).unwrap();
        let cmp = compare(&report, &back, 1.0);
        assert!(cmp.regressions.is_empty());
    }

    #[test]
    fn djcluster_report_spans_the_whole_pipeline() {
        let report = run_djcluster(&tiny()).unwrap();
        assert_eq!(report.workload, "djcluster");
        assert!(
            report.jobs >= 4,
            "sampling + 2 preprocess + rtree + cluster jobs, got {}",
            report.jobs
        );
    }
}
