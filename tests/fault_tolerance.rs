//! Fault tolerance: the whole GEPETO pipeline under injected task
//! failures — results must match the failure-free runs exactly, with the
//! retries visible in the counters (the jobtracker's "monitoring tasks
//! and handling failures" role, §III).

use gepeto::prelude::*;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{FailurePlan, SimParams};

fn dataset() -> Dataset {
    SyntheticGeoLife::new(GeneratorConfig {
        users: 6,
        scale: 0.006,
        ..GeneratorConfig::paper()
    })
    .generate()
}

fn clusters() -> (Cluster, Cluster) {
    let clean = Cluster::local(3, 2);
    let flaky = Cluster::local(3, 2).with_failures(FailurePlan {
        map_fail_prob: 0.3,
        reduce_fail_prob: 0.3,
        seed: 99,
        max_attempts: 200,
    });
    (clean, flaky)
}

#[test]
fn sampling_survives_failures_unchanged() {
    let ds = dataset();
    let (clean, flaky) = clusters();
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToMiddle);
    let run = |cluster: &Cluster| {
        let mut dfs = gepeto::dfs_io::trace_dfs(cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        sampling::mapreduce_sample(cluster, &mut dfs, "d", &cfg, &RunCtx::default()).unwrap()
    };
    let (a, _) = run(&clean);
    let (b, stats) = run(&flaky);
    assert_eq!(a, b);
    assert!(
        stats
            .counters
            .get("mapred.task.retries")
            .copied()
            .unwrap_or(0)
            > 0,
        "p=0.3 over many tasks must trigger retries"
    );
}

#[test]
fn kmeans_survives_failures_unchanged() {
    let ds = dataset();
    let (clean, flaky) = clusters();
    let cfg = kmeans::KMeansConfig {
        k: 5,
        convergence_delta: 1e-6,
        max_iterations: 15,
        ..kmeans::KMeansConfig::paper(gepeto_geo::DistanceMetric::SquaredEuclidean)
    };
    let run = |cluster: &Cluster| {
        let mut dfs = gepeto::dfs_io::trace_dfs(cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        kmeans::mapreduce_kmeans(cluster, &mut dfs, "d", &cfg, None, &RunCtx::default()).unwrap()
    };
    let a = run(&clean);
    let b = run(&flaky);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.converged, b.converged);
    for (x, y) in a.centroids.iter().zip(&b.centroids) {
        assert!((x.lat - y.lat).abs() < 1e-12 && (x.lon - y.lon).abs() < 1e-12);
    }
}

#[test]
fn djcluster_survives_failures_unchanged() {
    let ds = dataset();
    let (clean, flaky) = clusters();
    let cfg = djcluster::DjConfig::default();
    let run = |cluster: &Cluster| {
        let mut dfs = gepeto::dfs_io::trace_dfs(cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        let (clustering, pre, _) = djcluster::mapreduce_djcluster_full(
            cluster,
            &mut dfs,
            "d",
            &cfg,
            None,
            &RunCtx::default(),
        )
        .unwrap();
        (
            clustering.canonical_ids(),
            clustering.noise,
            pre.after_dedup,
        )
    };
    assert_eq!(run(&clean), run(&flaky));
}

#[test]
fn injected_failures_charge_virtual_time_and_move_the_makespan() {
    // Under unit-time sim parameters every attempt costs exactly 1
    // virtual second, so the makespan comparison is deterministic: the
    // flaky cluster must replay strictly slower because each failed
    // attempt charges a partial task body before the re-run.
    let ds = dataset();
    let mut clean = Cluster::local(3, 2);
    clean.sim = SimParams::unit_time();
    let flaky = clean.clone().with_failures(FailurePlan {
        map_fail_prob: 0.3,
        reduce_fail_prob: 0.3,
        seed: 99,
        max_attempts: 200,
    });
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToMiddle);
    let run = |cluster: &Cluster| {
        let mut dfs = gepeto::dfs_io::trace_dfs(cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        sampling::mapreduce_sample(cluster, &mut dfs, "d", &cfg, &RunCtx::default()).unwrap()
    };
    let (a, clean_stats) = run(&clean);
    let (b, flaky_stats) = run(&flaky);
    assert_eq!(a, b, "failures must never change the output");
    assert!(flaky_stats.counter(builtin::TASK_RETRIES) > 0);
    assert_eq!(
        flaky_stats.counter(builtin::TASK_RETRIES),
        flaky_stats
            .counters
            .get("mapred.task.retries")
            .copied()
            .unwrap_or(0),
        "JobStats::counter must read the builtin counter"
    );
    assert!(
        flaky_stats.sim.failed_attempt_s > 0.0,
        "failed attempts must charge virtual runtime"
    );
    assert!(
        flaky_stats.sim.makespan_s > clean_stats.sim.makespan_s,
        "failures must move the makespan: flaky {} vs clean {}",
        flaky_stats.sim.makespan_s,
        clean_stats.sim.makespan_s
    );
}

#[test]
fn job_fails_cleanly_when_attempts_exhausted() {
    let ds = dataset();
    let doomed = Cluster::local(2, 2).with_failures(FailurePlan {
        map_fail_prob: 1.0,
        reduce_fail_prob: 0.0,
        seed: 1,
        max_attempts: 2,
    });
    let mut dfs = gepeto::dfs_io::trace_dfs(&doomed, 32 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let err =
        sampling::mapreduce_sample(&doomed, &mut dfs, "d", &cfg, &RunCtx::default()).unwrap_err();
    assert!(matches!(
        err,
        gepeto_mapred::JobError::TaskFailed { phase: "map", .. }
    ));
}
