//! Chaos harness integration: whole-pipeline behavior under scripted
//! node crashes, replica corruption and degradation. The engine contract
//! under test: a survivable failure never changes any output bit (host
//! results are computed independently of the virtual schedule), it only
//! moves the virtual makespan and the recovery statistics; an
//! unsurvivable failure surfaces as a typed error, never a panic or a
//! silent wrong answer.

use gepeto::prelude::*;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{
    ChaosPlan, Dfs, DfsError, Emitter, FailurePlan, FnMapper, JobError, JournalEntry, MapOnlyJob,
    RetryPolicy, RunJournal, SimParams,
};
use std::sync::Arc;

fn dataset() -> Dataset {
    SyntheticGeoLife::new(GeneratorConfig {
        users: 6,
        scale: 0.006,
        ..GeneratorConfig::paper()
    })
    .generate()
}

/// 3 nodes × 2 slots with unit-time sim parameters: every attempt costs
/// exactly 1 virtual second, so scripted crash times deterministically
/// land on the same task attempts in every run.
fn unit_cluster(chaos: ChaosPlan) -> Cluster {
    let mut c = Cluster::local(3, 2).with_chaos(chaos);
    c.sim = SimParams::unit_time();
    c
}

fn centroid_bits(centroids: &[GeoPoint]) -> Vec<(u64, u64)> {
    centroids
        .iter()
        .map(|p| (p.lat.to_bits(), p.lon.to_bits()))
        .collect()
}

/// The acceptance scenario: a datanode crashes mid-run under an
/// iterative driver. The job must finish, the centroids must be
/// *bit-identical* to the no-chaos run, and the recovery work (map
/// re-execution, replica failover) must be visible in the stats.
#[test]
fn kmeans_survives_a_datanode_crash_bit_identically() {
    let ds = dataset();
    let cfg = kmeans::KMeansConfig {
        k: 5,
        convergence_delta: 1e-6,
        max_iterations: 15,
        ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
    };
    let run = |chaos: ChaosPlan| {
        let cluster = unit_cluster(chaos);
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 8 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        kmeans::mapreduce_kmeans(&cluster, &mut dfs, "d", &cfg, None, &RunCtx::default()).unwrap()
    };
    let clean = run(ChaosPlan::none());
    // Node 0 dies 1.5 virtual seconds into the first iteration's map
    // phase: its completed wave-1 maps are invalidated, its in-flight
    // attempts are killed, and its chunk replicas go dark for the rest
    // of the run.
    let chaotic = run(ChaosPlan::none().crash_node(0, 1.5));

    assert_eq!(clean.iterations, chaotic.iterations);
    assert_eq!(clean.converged, chaotic.converged);
    assert_eq!(
        centroid_bits(&clean.centroids),
        centroid_bits(&chaotic.centroids),
        "a survivable crash must not change a single output bit"
    );
    let total = |r: &kmeans::KMeansResult, f: fn(&gepeto_mapred::JobStats) -> u64| -> u64 {
        r.per_iteration.iter().map(|it| f(&it.job)).sum()
    };
    assert!(
        total(&chaotic, |j| j.counter(builtin::REEXECUTED_MAPS)) > 0,
        "no re-executions"
    );
    assert!(
        total(&chaotic, |j| j.counter(builtin::FAILED_OVER_READS)) > 0,
        "no failovers"
    );
    assert_eq!(total(&clean, |j| j.counter(builtin::REEXECUTED_MAPS)), 0);
    assert_eq!(total(&clean, |j| j.counter(builtin::FAILED_OVER_READS)), 0);
    let makespan = |r: &kmeans::KMeansResult| -> f64 {
        r.per_iteration.iter().map(|it| it.job.sim.makespan_s).sum()
    };
    assert!(
        makespan(&chaotic) > makespan(&clean),
        "recovery work must cost virtual time: {} vs {}",
        makespan(&chaotic),
        makespan(&clean)
    );
}

#[test]
fn single_job_crash_recovery_shows_up_in_stats_and_counters() {
    let ds = dataset();
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToMiddle);
    let run = |chaos: ChaosPlan| {
        let cluster = unit_cluster(chaos);
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 8 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        sampling::mapreduce_sample(&cluster, &mut dfs, "d", &cfg, &RunCtx::default()).unwrap()
    };
    let (clean, _) = run(ChaosPlan::none());
    let (survived, stats) = run(ChaosPlan::none().crash_node(1, 1.5));
    assert_eq!(clean, survived);
    assert!(stats.counter(builtin::REEXECUTED_MAPS) > 0);
    assert!(stats.counter(builtin::FAILED_OVER_READS) > 0);
    // The builtin counters carry the sim report's recovery tallies.
    assert_eq!(
        stats.counters.get(builtin::REEXECUTED_MAPS).copied(),
        Some(stats.sim.reexecuted_maps as u64)
    );
    assert_eq!(
        stats.counters.get(builtin::FAILED_OVER_READS).copied(),
        Some(stats.sim.failed_over_reads as u64)
    );
}

#[test]
fn corrupt_replicas_force_failover_never_a_wrong_answer() {
    let cluster_base = Cluster::local(3, 2);
    let mut dfs = Dfs::new(cluster_base.topology.clone(), 64, 3);
    dfs.put_fixed("r", (0..200u64).collect(), 8).unwrap();
    // Corrupt the primary replica of every chunk.
    let mut chaos = ChaosPlan::none();
    for &id in dfs.blocks_of("r").unwrap() {
        chaos = chaos.corrupt_replica(id, dfs.block(id).replicas[0]);
    }
    let doubler = || {
        FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(off, v * 2);
        })
    };
    let mut cluster = cluster_base.clone().with_chaos(chaos);
    cluster.sim = SimParams::unit_time();
    let corrupt = MapOnlyJob::new("double", &cluster, &dfs, "r", doubler())
        .run()
        .unwrap();
    let clean = MapOnlyJob::new("double", &cluster_base, &dfs, "r", doubler())
        .run()
        .unwrap();
    assert_eq!(clean.output, corrupt.output);
    assert!(corrupt.stats.counter(builtin::FAILED_OVER_READS) > 0);
    assert_eq!(
        corrupt.stats.counter(builtin::REEXECUTED_MAPS),
        0,
        "nothing crashed"
    );
}

#[test]
fn all_replicas_lost_is_a_typed_error_not_a_panic() {
    let base = Cluster::local(4, 2);
    let mut dfs = Dfs::new(base.topology.clone(), 64, 2);
    dfs.put_fixed("r", (0..100u64).collect(), 8).unwrap();
    // Crash both replica holders of the first chunk before the job.
    let victim = dfs.blocks_of("r").unwrap()[0];
    let mut chaos = ChaosPlan::none();
    for &n in &dfs.block(victim).replicas {
        chaos = chaos.crash_node(n, 0.0);
    }
    let mut cluster = base.with_chaos(chaos);
    cluster.sim = SimParams::unit_time();
    let mapper = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
        out.emit(off, *v);
    });
    let err = MapOnlyJob::new("id", &cluster, &dfs, "r", mapper)
        .run()
        .unwrap_err();
    assert_eq!(err, JobError::Dfs(DfsError::AllReplicasLost(victim)));
}

#[test]
fn checkpointed_kmeans_retries_dead_jobs_and_matches_the_clean_run() {
    let ds = dataset();
    let cfg = kmeans::KMeansConfig {
        k: 4,
        convergence_delta: 1e-6,
        max_iterations: 10,
        ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
    };
    let clean = {
        let cluster = unit_cluster(ChaosPlan::none());
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        kmeans::mapreduce_kmeans(&cluster, &mut dfs, "d", &cfg, None, &RunCtx::default()).unwrap()
    };
    // An aggressive failure plan with a tiny attempt budget kills whole
    // jobs; the checkpointed driver re-submits each dead iteration under
    // a fresh job name (re-rolling the per-attempt failure hashes) and
    // resumes from the last good centroids.
    let retrying = RunCtx {
        retry: RetryPolicy::default().retries(50),
        ..RunCtx::default()
    };
    let flaky_run = |journal: Option<&Arc<RunJournal>>| {
        // Seed chosen so attempt 0 of several iterations dies (27 map
        // tasks at p=0.4 with a 2-attempt budget kill most submissions)
        // while a re-submission under the re-rolled `.rN` name succeeds
        // within the retry budget — deterministic by construction.
        let cluster = unit_cluster(ChaosPlan::none()).with_failures(FailurePlan {
            map_fail_prob: 0.4,
            reduce_fail_prob: 0.0,
            seed: 18,
            max_attempts: 2,
        });
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        kmeans::mapreduce_kmeans(&cluster, &mut dfs, "d", &cfg, journal, &retrying).unwrap()
    };
    let flaky = flaky_run(None);
    assert!(
        flaky.job_retries > 0,
        "p=0.35 with max_attempts=1 must kill at least one job"
    );
    assert_eq!(clean.iterations, flaky.iterations);
    assert_eq!(
        centroid_bits(&clean.centroids),
        centroid_bits(&flaky.centroids),
        "checkpoint-resume must reproduce the clean trajectory exactly"
    );

    // The journaled arm: the same flaky plan under a run journal, where
    // the journal checkpoint is what each re-submission resumes from.
    let run_dir = std::env::temp_dir().join(format!(
        "gepeto-chaos-journaled-kmeans-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    let journal = Arc::new(RunJournal::attach(&run_dir).unwrap());
    let journaled = flaky_run(Some(&journal));
    assert!(
        journaled.job_retries > 0,
        "no journaled job was re-submitted"
    );
    assert_eq!(clean.iterations, journaled.iterations);
    assert_eq!(
        centroid_bits(&clean.centroids),
        centroid_bits(&journaled.centroids),
        "journal + retries must reproduce the clean trajectory exactly"
    );
    let checkpoints = journal
        .entries()
        .into_iter()
        .filter(|e| matches!(e, JournalEntry::Checkpoint { label, .. } if label == "kmeans"))
        .count();
    assert_eq!(
        checkpoints, journaled.iterations,
        "one checkpoint per iteration"
    );
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn djcluster_retries_dead_jobs_and_matches_the_clean_run() {
    let ds = dataset();
    let cfg = djcluster::DjConfig::default();
    let run = |cluster: &Cluster, ctx: &RunCtx| {
        let mut dfs = gepeto::dfs_io::trace_dfs(cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
        djcluster::mapreduce_djcluster_full(cluster, &mut dfs, "d", &cfg, None, ctx).unwrap()
    };
    let (clean, _, _) = run(&unit_cluster(ChaosPlan::none()), &RunCtx::default());
    // Seed chosen the way the k-means test's was (and the same one):
    // attempt 0 of both the preprocessing and the clustering stage dies
    // (p=0.4 per map attempt with a 2-attempt budget) while a
    // re-submission under the re-rolled `.rN` name succeeds within the
    // retry budget — deterministic by construction. Most seeds exhaust
    // even 50 re-submissions of the speed-filter job.
    let flaky_cluster = unit_cluster(ChaosPlan::none()).with_failures(FailurePlan {
        map_fail_prob: 0.4,
        reduce_fail_prob: 0.0,
        seed: 18,
        max_attempts: 2,
    });
    let retrying = RunCtx {
        retry: RetryPolicy::default().retries(50),
        ..RunCtx::default()
    };
    let (flaky, pre, stats) = run(&flaky_cluster, &retrying);
    assert!(
        pre.job_retries + stats.job_retries > 0,
        "the failure plan killed no DJ-Cluster job"
    );
    assert_eq!(clean.canonical_ids(), flaky.canonical_ids());
    assert_eq!(clean.noise, flaky.noise);
}

#[test]
fn makespan_overhead_grows_with_the_number_of_crashes() {
    // One record per chunk → exactly 48 unit-time map tasks; 4 nodes ×
    // 2 slots → 6 clean waves. Deterministic schedule, deterministic
    // overhead.
    let run = |chaos: ChaosPlan| {
        let mut cluster = Cluster::local(4, 2).with_chaos(chaos);
        cluster.sim = SimParams::unit_time();
        let mut dfs = Dfs::new(cluster.topology.clone(), 8, 3);
        dfs.put_fixed("r", (0..48u64).collect(), 8).unwrap();
        let mapper = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(off, *v);
        });
        let result = MapOnlyJob::new("id", &cluster, &dfs, "r", mapper)
            .run()
            .unwrap();
        (result.output, result.stats)
    };
    let (out0, s0) = run(ChaosPlan::none());
    let (out1, s1) = run(ChaosPlan::none().crash_node(0, 1.5));
    let (out2, s2) = run(ChaosPlan::none().crash_node(0, 1.5).crash_node(1, 2.5));
    assert_eq!(out0, out1);
    assert_eq!(out0, out2);
    assert!(
        s0.sim.makespan_s < s1.sim.makespan_s,
        "one crash: {} !< {}",
        s0.sim.makespan_s,
        s1.sim.makespan_s
    );
    assert!(
        s1.sim.makespan_s < s2.sim.makespan_s,
        "two crashes: {} !< {}",
        s1.sim.makespan_s,
        s2.sim.makespan_s
    );
    assert_eq!(s0.counter(builtin::REEXECUTED_MAPS), 0);
    assert!(s1.counter(builtin::REEXECUTED_MAPS) > 0);
    assert!(s2.counter(builtin::REEXECUTED_MAPS) >= s1.counter(builtin::REEXECUTED_MAPS));
}

#[test]
fn degraded_nodes_slow_the_replay_without_touching_output() {
    // Unit-time startup plus a real per-record cost so degradation (which
    // multiplies compute, not startup) is visible in the makespan.
    let mut params = SimParams::unit_time();
    params.per_record_us = 100_000.0; // 0.1 s per record
    let run = |chaos: ChaosPlan| {
        let mut cluster = Cluster::local(3, 2).with_chaos(chaos);
        cluster.sim = params;
        let mut dfs = Dfs::new(cluster.topology.clone(), 32, 3);
        dfs.put_fixed("r", (0..120u64).collect(), 8).unwrap();
        let mapper = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(off, v + 1);
        });
        let result = MapOnlyJob::new("inc", &cluster, &dfs, "r", mapper)
            .run()
            .unwrap();
        (result.output, result.stats.sim.makespan_s)
    };
    let (clean_out, clean_s) = run(ChaosPlan::none());
    let (slow_out, slow_s) = run(ChaosPlan::none().degrade_node(0, 0.0, 4.0));
    assert_eq!(clean_out, slow_out);
    assert!(
        slow_s > clean_s,
        "a 4x degraded node must stretch the makespan: {slow_s} vs {clean_s}"
    );
}

#[test]
fn rereplication_after_a_crash_protects_against_the_next_one() {
    // First crash: heal. Second crash of another original replica
    // holder: the healed copies keep every chunk readable.
    let base = Cluster::local(5, 2);
    let mut dfs = Dfs::new(base.topology.clone(), 64, 2);
    dfs.put_fixed("r", (0..200u64).collect(), 8).unwrap();
    let chaos = ChaosPlan::none().crash_node(0, 0.0);
    let report = dfs.rereplicate(&chaos);
    assert!(report.lost_blocks.is_empty());
    // Node 1 dies too; without healing, any chunk whose replicas were
    // exactly {0, 1} would now be lost.
    let both = chaos.crash_node(1, 0.0);
    let mut cluster = base.with_chaos(both);
    cluster.sim = SimParams::unit_time();
    let mapper = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
        out.emit(off, *v);
    });
    let result = MapOnlyJob::new("id", &cluster, &dfs, "r", mapper)
        .run()
        .unwrap();
    assert_eq!(result.output.len(), 200);
}
