//! Live monitoring integration: the acceptance scenario for the
//! heartbeat/exposition/flamegraph layer. A chaos k-means run under a
//! monitored recorder must (a) expose the injected crash through the
//! live gauges, (b) keep the progress counters consistent (done never
//! exceeds total, everything drains on success), and (c) produce a
//! folded-stack export whose total self-time agrees with the
//! [`CriticalPath`] wall time to within 1%.

use gepeto::prelude::*;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{ChaosPlan, SimParams};
use gepeto_telemetry::Recorder;

fn dataset() -> Dataset {
    SyntheticGeoLife::new(GeneratorConfig {
        users: 6,
        scale: 0.006,
        ..GeneratorConfig::paper()
    })
    .generate()
}

fn unit_cluster(chaos: ChaosPlan) -> Cluster {
    let mut c = Cluster::local(3, 2).with_chaos(chaos);
    c.sim = SimParams::unit_time();
    c
}

fn run_kmeans(chaos: ChaosPlan, rec: &Recorder) -> kmeans::KMeansResult {
    let ds = dataset();
    let cluster = unit_cluster(chaos);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 8 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
    let cfg = kmeans::KMeansConfig {
        k: 5,
        convergence_delta: 1e-6,
        max_iterations: 6,
        ..kmeans::KMeansConfig::paper(gepeto_geo::DistanceMetric::SquaredEuclidean)
    };
    let ctx = RunCtx::from(rec);
    kmeans::mapreduce_kmeans(&cluster, &mut dfs, "d", &cfg, None, &ctx).unwrap()
}

#[test]
fn crash_recovery_is_visible_in_the_live_gauges() {
    let rec = Recorder::monitored();
    let monitor = rec.monitor().expect("monitored recorder has a registry");
    let result = run_kmeans(ChaosPlan::none().crash_node(0, 1.5), &rec);
    assert!(result.iterations > 0);

    let snap = monitor.snapshot();
    // The injected node-0 crash forces map re-execution; the registry
    // must have seen it, not just the post-hoc JobStats.
    assert!(
        snap.counter(builtin::REEXECUTED_MAPS) > 0,
        "snapshot: {snap:?}"
    );
    assert!(
        snap.counter(builtin::CRASH_KILLED) + snap.counter(builtin::TASK_RETRIES) > 0,
        "snapshot: {snap:?}"
    );
    // All work drained: one job per iteration (plus none leaked).
    assert_eq!(snap.jobs_started, snap.jobs_finished);
    assert_eq!(snap.jobs_started, result.iterations as u64);
    assert_eq!(snap.map_tasks_done, snap.map_tasks_total);
    assert_eq!(snap.reduce_tasks_done, snap.reduce_tasks_total);
    assert!(snap.counter(builtin::SHUFFLE_BYTES) > 0);
    // The k-means driver published its convergence state.
    assert_eq!(snap.driver_iteration, result.iterations as u64);
    assert!(snap.driver_delta.is_finite());
    // Only surviving nodes kept accruing busy time; node 0 stopped at
    // the crash, so its busy time must be below the busiest survivor.
    assert_eq!(snap.node_busy_s.len(), 3);
    let max_busy = snap.node_busy_s.iter().cloned().fold(0.0, f64::max);
    assert!(snap.node_busy_s[0] < max_busy, "snapshot: {snap:?}");

    let line = snap.status_line();
    assert!(line.contains("reexec"), "{line}");
    assert!(line.contains("iter"), "{line}");
}

#[test]
fn progress_counters_never_run_ahead_of_their_totals() {
    let rec = Recorder::monitored();
    let monitor = rec.monitor().unwrap();
    // Interleave snapshots with work: totals are announced before
    // completions are counted, so done <= total at every observation.
    let before = monitor.snapshot();
    assert_eq!(before.map_tasks_done, 0);
    run_kmeans(ChaosPlan::none(), &rec);
    let after = monitor.snapshot();
    assert!(after.map_tasks_done >= before.map_tasks_done);
    assert!(after.map_tasks_done <= after.map_tasks_total);
    assert!(after.reduce_tasks_done <= after.reduce_tasks_total);
}

#[test]
fn memory_budget_accounting_bounds_the_shuffle_peak() {
    let ds = dataset();
    let cluster = unit_cluster(ChaosPlan::none());
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 8 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let mut run = |budget: Option<usize>, rec: &Recorder| {
        let ctx = RunCtx::from(rec);
        sampling::mapreduce_sample_grouped(&cluster, &mut dfs, "d", &scfg, budget, None, &ctx)
            .unwrap()
    };

    // Unbudgeted, the whole by-user shuffle buffers in memory and the
    // accounted peak is the largest partition.
    let free_rec = Recorder::enabled();
    let (free_out, free_stats) = run(None, &free_rec);
    let free_peak = free_stats.counters[builtin::MEM_ACCOUNTED_PEAK];
    assert!(free_peak > 0);
    assert!(!free_stats.counters.contains_key(builtin::MEM_BUDGET_BYTES));

    // A budget well below that peak engages spilling, which keeps the
    // buffered watermark strictly under the unbudgeted one — the
    // unbudgeted run exceeds this budget by construction.
    let budget = (free_peak / 4).max(64) as usize;
    let rec = Recorder::enabled();
    let (out, stats) = run(Some(budget), &rec);
    let peak = stats.counters[builtin::MEM_ACCOUNTED_PEAK];
    assert_eq!(stats.counters[builtin::MEM_BUDGET_BYTES], budget as u64);
    assert!(
        peak < free_peak,
        "budgeted {peak} vs unbudgeted {free_peak}"
    );
    assert!(free_peak > budget as u64);
    // Overshoot (if any — trigger granularity is one map bucket) is
    // recorded as exactly peak - budget.
    let over = stats
        .counters
        .get(builtin::MEM_PEAK_OVER_BUDGET)
        .copied()
        .unwrap_or(0);
    assert_eq!(over, peak.saturating_sub(budget as u64));

    // Spilling changes memory, never results: outputs are identical.
    assert_eq!(free_out, out);

    // Both summaries carry the memory lines the flag surfaces.
    let budgeted_summary = rec.summary().render();
    assert!(
        budgeted_summary.contains("memory: budget"),
        "{budgeted_summary}"
    );
    assert!(
        budgeted_summary.contains("heap: peak"),
        "{budgeted_summary}"
    );
    let free_summary = free_rec.summary().render();
    assert!(
        free_summary.contains("memory: unbudgeted, accounted peak"),
        "{free_summary}"
    );
}

#[test]
fn folded_stacks_account_for_the_critical_path_wall_time() {
    let rec = Recorder::monitored();
    run_kmeans(ChaosPlan::none().crash_node(0, 1.5), &rec);

    let folded = rec.host_folded();
    let total_us: u64 = folded
        .lines()
        .map(|l| {
            l.rsplit_once(' ')
                .expect("folded line")
                .1
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    let cp = rec.critical_path();
    let diff = total_us.abs_diff(cp.total_us) as f64;
    assert!(
        diff <= cp.total_us as f64 * 0.01,
        "folded total {total_us} us vs critical path {} us",
        cp.total_us
    );
    // The hot frames of the run are in the export.
    assert!(folded.contains("kmeans"), "{folded}");

    // The virtual fold attributes the dominant job's scheduled
    // attempts per task and node. The crash leaves node 0 dead for the
    // later (dominant) iterations, so no frame may land on it.
    let virt = rec.virtual_folded().expect("virtual stacks");
    assert!(virt.contains(";map;"), "{virt}");
    assert!(virt.contains(";reduce;"), "{virt}");
    assert!(!virt.contains("@n0"), "{virt}");
}
