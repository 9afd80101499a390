//! Out-of-core execution contract: routing a shuffle through the
//! spill-to-disk path must never change a single output bit relative to
//! the all-in-memory path, and a node crash in the middle of a spilling
//! run must recover to the same bits. Inputs come from `gepeto-synth`,
//! the deterministic streaming workload generator, so every case is
//! reproducible from its `(users, seed)` pair.

use gepeto::prelude::*;
use gepeto::sampling::{self, SamplingConfig, Technique};
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{run_with_recovery_io, ChaosPlan, IoFaultPlan, RetryPolicy, SimParams};
use gepeto_synth::SynthConfig;
use gepeto_telemetry::Recorder;
use proptest::prelude::*;

/// Bit-exact fingerprint of a dataset: float coordinates compared via
/// `to_bits`, so "equal" means equal down to the last mantissa bit.
fn bits(ds: &Dataset) -> Vec<(u32, i64, u64, u64, u32)> {
    ds.to_traces()
        .iter()
        .map(|t| {
            (
                t.user,
                t.timestamp.0,
                t.point.lat.to_bits(),
                t.point.lon.to_bits(),
                t.altitude.to_bits(),
            )
        })
        .collect()
}

fn synth_dfs(cluster: &Cluster, users: u64, seed: u64, chunk: usize) -> Dfs<MobilityTrace> {
    let mut dfs = gepeto::dfs_io::trace_dfs(cluster, chunk);
    SynthConfig::new(users)
        .seed(seed)
        .to_dfs(&mut dfs, "synth")
        .unwrap();
    dfs
}

fn counter(stats: &gepeto_mapred::JobStats, key: &str) -> u64 {
    stats.counters.get(key).copied().unwrap_or(0)
}

/// Runs the by-user regrouping shuffle over a synth workload under the
/// given memory budget and returns (output, stats).
fn regroup(
    users: u64,
    seed: u64,
    window: i64,
    budget: Option<usize>,
) -> (Dataset, gepeto_mapred::JobStats) {
    let cluster = Cluster::local(4, 2);
    let mut dfs = synth_dfs(&cluster, users, seed, 16 * 1024);
    let cfg = SamplingConfig::new(window, Technique::ClosestToUpperLimit);
    let ctx = RunCtx::default();
    sampling::mapreduce_sample_grouped(&cluster, &mut dfs, "synth", &cfg, budget, None, &ctx)
        .unwrap()
}

/// The by-user regrouping shuffle with a storage-fault plan injected
/// beneath the spill writer.
fn regroup_chaos(
    users: u64,
    seed: u64,
    window: i64,
    budget: Option<usize>,
    chaos: ChaosPlan,
) -> (Dataset, gepeto_mapred::JobStats) {
    let mut cluster = Cluster::local(4, 2).with_chaos(chaos);
    cluster.sim = SimParams::unit_time();
    let mut dfs = synth_dfs(&cluster, users, seed, 16 * 1024);
    let cfg = SamplingConfig::new(window, Technique::ClosestToUpperLimit);
    let ctx = RunCtx::default();
    sampling::mapreduce_sample_grouped(&cluster, &mut dfs, "synth", &cfg, budget, None, &ctx)
        .unwrap()
}

/// The acceptance property at a fixed scale where both paths fit in
/// memory: a 1-byte budget forces every partition out of core, and the
/// merged output is bit-identical to the unbudgeted run.
#[test]
fn spilled_shuffle_output_is_bit_identical_to_in_memory() {
    let (in_mem, clean_stats) = regroup(40, 7, 60, None);
    let (spilled, spill_stats) = regroup(40, 7, 60, Some(1));

    assert_eq!(counter(&clean_stats, builtin::SPILL_FILES), 0);
    assert!(counter(&spill_stats, builtin::SPILL_FILES) > 0, "no spill");
    assert!(counter(&spill_stats, builtin::SPILLED_BYTES) > 0);
    assert!(
        counter(&spill_stats, builtin::SPILLED_GROUPS) > 0,
        "a 1-byte budget must also overflow reduce groups"
    );
    assert_eq!(
        bits(&in_mem),
        bits(&spilled),
        "spill/merge changed output bits"
    );
    assert!(in_mem.num_traces() > 0, "vacuous comparison");
}

/// k-means under a starvation budget: every iteration's partial-sum
/// shuffle spills, and the centroids still land on identical bits.
#[test]
fn kmeans_under_budget_matches_in_memory_centroids() {
    let cluster = Cluster::local(4, 2);
    let mut dfs = synth_dfs(&cluster, 30, 3, 16 * 1024);
    let base = kmeans::KMeansConfig {
        k: 4,
        max_iterations: 4,
        ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
    };
    let starved = kmeans::KMeansConfig {
        memory_budget: Some(1),
        ..base.clone()
    };
    let ctx = RunCtx::default();
    let clean = kmeans::mapreduce_kmeans(&cluster, &mut dfs, "synth", &base, None, &ctx).unwrap();
    let spilled =
        kmeans::mapreduce_kmeans(&cluster, &mut dfs, "synth", &starved, None, &ctx).unwrap();

    let spill_files: u64 = spilled
        .per_iteration
        .iter()
        .map(|it| counter(&it.job, builtin::SPILL_FILES))
        .sum();
    assert!(spill_files > 0, "budgeted k-means never spilled");
    assert_eq!(clean.iterations, spilled.iterations);
    let centroid_bits = |r: &kmeans::KMeansResult| -> Vec<(u64, u64)> {
        r.centroids
            .iter()
            .map(|c| (c.lat.to_bits(), c.lon.to_bits()))
            .collect()
    };
    assert_eq!(centroid_bits(&clean), centroid_bits(&spilled));
}

/// Chaos: a datanode dies while the shuffle is spilling. The re-executed
/// attempts rebuild their runs from scratch and the merged output is
/// still bit-identical to the undisturbed spilling run.
#[test]
fn crash_mid_spill_recovers_bit_identically() {
    let run = |chaos: ChaosPlan| {
        let mut cluster = Cluster::local(3, 2).with_chaos(chaos);
        cluster.sim = SimParams::unit_time();
        let mut dfs = synth_dfs(&cluster, 120, 11, 4 * 1024);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let ctx = RunCtx::default();
        sampling::mapreduce_sample_grouped(&cluster, &mut dfs, "synth", &cfg, Some(64), None, &ctx)
            .unwrap()
    };
    let (clean, clean_stats) = run(ChaosPlan::none());
    let (chaotic, chaotic_stats) = run(ChaosPlan::none().crash_node(0, 1.5));

    assert!(counter(&clean_stats, builtin::SPILL_FILES) > 0);
    assert!(counter(&chaotic_stats, builtin::SPILL_FILES) > 0);
    assert!(
        chaotic_stats.counter(builtin::TASK_RETRIES)
            + chaotic_stats.counter(builtin::REEXECUTED_MAPS)
            + chaotic_stats.counter(builtin::FAILED_OVER_READS)
            > 0,
        "the crash was a no-op; move it earlier"
    );
    assert_eq!(
        bits(&clean),
        bits(&chaotic),
        "crash-mid-spill recovery changed output bits"
    );
}

/// Storage chaos: transient EIOs, torn writes, and bit-rot all firing
/// under a starvation budget. The commit/verify/quarantine machinery
/// must absorb every fault — the counters prove faults actually fired,
/// and the merged output is still bit-identical to the calm spill run.
#[test]
fn spill_under_io_faults_is_bit_identical_and_counts_repairs() {
    let (calm, _) = regroup(40, 7, 60, Some(1));
    let plan = IoFaultPlan::new(13).eio(0.3).torn(0.4).bitrot(0.25);
    let (faulted, stats) = regroup_chaos(40, 7, 60, Some(1), ChaosPlan::none().io_faults(plan));

    let repairs = counter(&stats, builtin::IO_RETRIES)
        + counter(&stats, builtin::TORN_WRITES)
        + counter(&stats, builtin::RUNS_QUARANTINED);
    assert!(
        repairs > 0,
        "fault plan was a no-op; raise the probabilities"
    );
    assert_eq!(
        bits(&calm),
        bits(&faulted),
        "storage faults changed output bits"
    );
}

/// ENOSPC degradation: a virtual disk too small for the starved run's
/// spill footprint fails the job with `DiskFull`; the storage-aware
/// recovery loop re-runs it with a grown memory budget that no longer
/// needs the disk, and the output matches the unconstrained run's bits.
#[test]
fn enospc_recovers_by_growing_the_memory_budget() {
    let (unconstrained, _) = regroup(20, 5, 60, None);

    let chaos = ChaosPlan::none().io_faults(IoFaultPlan::new(1).disk_capacity(512));
    let mut cluster = Cluster::local(4, 2).with_chaos(chaos);
    cluster.sim = SimParams::unit_time();
    let mut dfs = synth_dfs(&cluster, 20, 5, 16 * 1024);
    let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
    let policy = RetryPolicy::none()
        .io_retries(3)
        .enospc_factor((64 * 1024 * 1024) as f64);
    let ((sampled, _), resubmissions) = run_with_recovery_io(
        "sampling-by-user",
        &cluster,
        &mut dfs,
        &policy,
        &Recorder::disabled(),
        |_, dfs, advice| {
            // 1 byte forces every partition out of core; after one
            // ENOSPC the advised budget is large enough to spill nothing.
            let budget = advice.scaled_budget(&policy, Some(1));
            sampling::mapreduce_sample_grouped(
                &cluster,
                &mut dfs.clone(),
                "synth",
                &cfg,
                budget,
                None,
                &RunCtx::default(),
            )
        },
    )
    .unwrap();
    assert!(resubmissions >= 1, "the 512-byte disk never filled up");
    assert_eq!(bits(&unconstrained), bits(&sampled));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The equivalence holds for arbitrary workload seeds, user counts,
    /// sampling windows and budget sizes — budgets in 1..4096 land
    /// anywhere between "everything spills" and "nothing spills".
    #[test]
    fn spill_equivalence_holds_for_arbitrary_workloads(
        users in 1u64..12,
        seed in any::<u64>(),
        window in 1i64..10_000,
        budget in 1usize..4096,
    ) {
        let (in_mem, _) = regroup(users, seed, window, None);
        let (spilled, _) = regroup(users, seed, window, Some(budget));
        prop_assert_eq!(bits(&in_mem), bits(&spilled));
    }

    /// Bit-identity also holds under arbitrary storage-fault plans:
    /// whatever mix of transient EIOs, torn writes, and bit-rot a seed
    /// produces, repaired spill runs merge to the same bytes.
    #[test]
    fn spill_equivalence_survives_arbitrary_io_faults(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        eio in 0.0f64..0.5,
        torn in 0.0f64..0.6,
        bitrot in 0.0f64..0.4,
    ) {
        let (calm, _) = regroup(8, seed, 60, Some(1));
        let plan = IoFaultPlan::new(fault_seed).eio(eio).torn(torn).bitrot(bitrot);
        let (faulted, _) = regroup_chaos(8, seed, 60, Some(1), ChaosPlan::none().io_faults(plan));
        prop_assert_eq!(bits(&calm), bits(&faulted));
    }
}
