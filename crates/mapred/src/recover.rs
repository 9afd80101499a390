//! Driver-level job recovery: retry budgets, virtual-time backoff and
//! DFS healing between attempts.
//!
//! The engine's jobtracker already retries individual *task* attempts;
//! this module is the layer above it — what a driver does when an entire
//! job dies (every replica of a chunk unreadable, a task out of
//! attempts, the cluster out of live nodes). Every workload driver in
//! `gepeto` (sampling, k-means, each DJ-Cluster stage) submits each of
//! its jobs through [`run_with_recovery`] under the retry policy of its
//! run context. The drivers keep their state *outside* the job — the
//! k-means loop its last good centroids (checkpointed into the run
//! journal when there is one), DJ-Cluster the previous stage's output
//! file — so a failed job costs one attempt, not the whole computation.
//! With [`RetryPolicy::none`] the helper is a single attempt under the
//! bare job name.
//!
//! Between attempts the helper:
//!
//! 1. re-replicates under-replicated DFS blocks onto surviving nodes
//!    ([`crate::dfs::Dfs::rereplicate`]), the namenode's reaction to a
//!    datanode death;
//! 2. advances the shared virtual clock by an exponential backoff, so
//!    recovery time shows up in the replayed makespan;
//! 3. re-submits under the name `{base}.r{attempt}` — a distinct job
//!    name, so deterministic failure injection re-rolls its per-attempt
//!    coin flips exactly like a real resubmission would. Attempt 0 keeps
//!    the bare name, keeping no-failure runs byte-identical to drivers
//!    that never heard of recovery.

use crate::dfs::Dfs;
use crate::job::JobError;
use crate::topology::Cluster;
use gepeto_telemetry::Recorder;

/// How hard a driver tries to keep a job alive across whole-job
/// failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-submissions after the first attempt (0 = fail fast).
    pub max_job_retries: u32,
    /// Virtual seconds charged before the first re-submission.
    pub backoff_s: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
    /// Extra re-submissions reserved for storage failures
    /// ([`JobError::Io`] / [`JobError::DiskFull`]) — these draw from
    /// their own budget so a flaky disk does not eat the node-failure
    /// budget.
    pub io_retries: u32,
    /// Virtual seconds charged before an IO re-submission (doubles per
    /// IO failure).
    pub io_backoff_s: f64,
    /// How much the advised memory budget *grows* after each ENOSPC —
    /// a larger budget spills fewer bytes, shrinking the disk
    /// footprint (graceful degradation: trade RAM for disk).
    pub enospc_budget_factor: f64,
}

impl RetryPolicy {
    /// No retries: the first [`JobError`] is final.
    pub fn none() -> Self {
        Self {
            max_job_retries: 0,
            backoff_s: 0.0,
            backoff_factor: 1.0,
            io_retries: 0,
            io_backoff_s: 0.0,
            enospc_budget_factor: 1.0,
        }
    }

    /// Sets the retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_job_retries = n;
        self
    }

    /// Sets the initial virtual-time backoff in seconds.
    pub fn backoff(mut self, secs: f64) -> Self {
        self.backoff_s = secs.max(0.0);
        self
    }

    /// Sets the storage-failure retry budget (builder style).
    pub fn io_retries(mut self, n: u32) -> Self {
        self.io_retries = n;
        self
    }

    /// Sets the initial IO backoff in virtual seconds (builder style).
    pub fn io_backoff(mut self, secs: f64) -> Self {
        self.io_backoff_s = secs.max(0.0);
        self
    }

    /// Sets the ENOSPC budget growth factor (builder style; min 1).
    pub fn enospc_factor(mut self, factor: f64) -> Self {
        self.enospc_budget_factor = factor.max(1.0);
        self
    }
}

impl Default for RetryPolicy {
    /// Two re-submissions, 5 virtual seconds of backoff doubling each
    /// time — roughly Hadoop's `mapreduce.am.max-attempts` posture —
    /// plus three storage retries with a short 1 s backoff and 2×
    /// budget growth per ENOSPC.
    fn default() -> Self {
        Self {
            max_job_retries: 2,
            backoff_s: 5.0,
            backoff_factor: 2.0,
            io_retries: 3,
            io_backoff_s: 1.0,
            enospc_budget_factor: 2.0,
        }
    }
}

/// What the storage-aware recovery loop tells each attempt about the
/// state of the disk, so drivers can degrade gracefully instead of
/// failing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageAdvice {
    /// Storage-classified failures seen so far (EIO exhaustion etc.).
    pub io_failures: u32,
    /// ENOSPC failures seen so far.
    pub enospc_failures: u32,
}

impl StorageAdvice {
    /// The memory budget this attempt should run with: `base` grown by
    /// the policy's ENOSPC factor once per disk-full failure. A `None`
    /// base (fully in-memory) stays `None`.
    pub fn scaled_budget(&self, policy: &RetryPolicy, base: Option<usize>) -> Option<usize> {
        base.map(|b| {
            let factor = policy
                .enospc_budget_factor
                .max(1.0)
                .powi(self.enospc_failures.min(16) as i32);
            (b as f64 * factor) as usize
        })
    }
}

fn is_storage(err: &JobError) -> bool {
    matches!(err, JobError::Io(_) | JobError::DiskFull(_))
}

/// Runs `run` until it succeeds or the retry budget is spent.
///
/// `run` receives the attempt's job name (`base_name`, then
/// `{base_name}.r1`, `.r2`, …) and a shared reference to the DFS; between
/// attempts the DFS is healed via [`Dfs::rereplicate`] against the
/// cluster's chaos plan and the virtual clock advances by the policy's
/// backoff. Returns the successful value together with the number of
/// retries that were needed (0 = first attempt succeeded). The last
/// error is returned unchanged once the budget is exhausted.
pub fn run_with_recovery<V, T, F>(
    base_name: &str,
    cluster: &Cluster,
    dfs: &mut Dfs<V>,
    policy: &RetryPolicy,
    telemetry: &Recorder,
    mut run: F,
) -> Result<(T, u32), JobError>
where
    V: Clone,
    F: FnMut(&str, &Dfs<V>) -> Result<T, JobError>,
{
    run_with_recovery_io(
        base_name,
        cluster,
        dfs,
        policy,
        telemetry,
        |name, dfs, _| run(name, dfs),
    )
}

/// The storage-aware variant of [`run_with_recovery`]: `run` also
/// receives a [`StorageAdvice`] describing the disk failures seen so
/// far, so an attempt after an ENOSPC can re-run with a grown memory
/// budget ([`StorageAdvice::scaled_budget`]) and spill fewer bytes.
///
/// Storage-classified failures ([`JobError::Io`], [`JobError::DiskFull`])
/// draw from the policy's separate `io_retries` budget with the shorter
/// `io_backoff_s` virtual backoff; everything else uses the ordinary job
/// budget. Returns the value and the *total* number of re-submissions.
///
/// # Errors
/// The last [`JobError`] once the relevant budget is exhausted.
pub fn run_with_recovery_io<V, T, F>(
    base_name: &str,
    cluster: &Cluster,
    dfs: &mut Dfs<V>,
    policy: &RetryPolicy,
    telemetry: &Recorder,
    mut run: F,
) -> Result<(T, u32), JobError>
where
    V: Clone,
    F: FnMut(&str, &Dfs<V>, &StorageAdvice) -> Result<T, JobError>,
{
    let mut backoff = policy.backoff_s;
    let mut io_backoff = policy.io_backoff_s;
    let mut job_fails = 0u32;
    let mut advice = StorageAdvice::default();
    let mut attempt = 0u32;
    loop {
        let job_name = if attempt == 0 {
            base_name.to_string()
        } else {
            format!("{base_name}.r{attempt}")
        };
        match run(&job_name, &*dfs, &advice) {
            Ok(value) => return Ok((value, attempt)),
            Err(err) => {
                let storage = is_storage(&err);
                let budget_left = if storage {
                    advice.io_failures + advice.enospc_failures < policy.io_retries
                } else {
                    job_fails < policy.max_job_retries
                };
                if !budget_left {
                    return Err(err);
                }
                telemetry.point(
                    if storage {
                        "driver.io_retry"
                    } else {
                        "driver.retry"
                    },
                    (attempt + 1) as f64,
                    &[("job", base_name), ("error", &err.to_string())],
                );
                if storage {
                    if matches!(err, JobError::DiskFull(_)) {
                        advice.enospc_failures += 1;
                    } else {
                        advice.io_failures += 1;
                    }
                    cluster.chaos.advance(io_backoff);
                    io_backoff *= 2.0;
                } else {
                    job_fails += 1;
                    let report = dfs.rereplicate(&cluster.chaos);
                    if report.new_replicas > 0 || !report.lost_blocks.is_empty() {
                        telemetry.point(
                            "driver.rereplicated",
                            report.new_replicas as f64,
                            &[
                                ("job", base_name),
                                ("lost_blocks", &report.lost_blocks.len().to_string()),
                            ],
                        );
                    }
                    cluster.chaos.advance(backoff);
                    backoff *= policy.backoff_factor.max(0.0);
                }
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::dfs::DfsError;

    fn tiny_dfs(cluster: &Cluster) -> Dfs<u64> {
        let mut dfs = Dfs::new(cluster.topology.clone(), 64, 2);
        dfs.put_fixed("f", (0..32u64).collect(), 8).unwrap();
        dfs
    }

    #[test]
    fn first_attempt_success_keeps_the_bare_name() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = tiny_dfs(&cluster);
        let mut names = Vec::new();
        let (value, retries) = run_with_recovery(
            "job",
            &cluster,
            &mut dfs,
            &RetryPolicy::default(),
            &Recorder::disabled(),
            |name, _| {
                names.push(name.to_string());
                Ok(42)
            },
        )
        .unwrap();
        assert_eq!((value, retries), (42, 0));
        assert_eq!(names, ["job"]);
    }

    #[test]
    fn retries_get_suffixed_names_and_are_counted() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = tiny_dfs(&cluster);
        let mut names = Vec::new();
        let (value, retries) = run_with_recovery(
            "job",
            &cluster,
            &mut dfs,
            &RetryPolicy::default(),
            &Recorder::disabled(),
            |name, _| {
                names.push(name.to_string());
                if names.len() < 3 {
                    Err(JobError::ClusterDead)
                } else {
                    Ok("ok")
                }
            },
        )
        .unwrap();
        assert_eq!((value, retries), ("ok", 2));
        assert_eq!(names, ["job", "job.r1", "job.r2"]);
    }

    #[test]
    fn budget_exhausted_returns_the_last_error() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = tiny_dfs(&cluster);
        let err = run_with_recovery(
            "job",
            &cluster,
            &mut dfs,
            &RetryPolicy::default().retries(1),
            &Recorder::disabled(),
            |_, _| -> Result<(), _> { Err(JobError::Dfs(DfsError::AllReplicasLost(7))) },
        )
        .unwrap_err();
        assert_eq!(err, JobError::Dfs(DfsError::AllReplicasLost(7)));
    }

    #[test]
    fn none_policy_fails_fast() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = tiny_dfs(&cluster);
        let mut calls = 0;
        let err = run_with_recovery(
            "job",
            &cluster,
            &mut dfs,
            &RetryPolicy::none(),
            &Recorder::disabled(),
            |_, _| -> Result<(), _> {
                calls += 1;
                Err(JobError::ClusterDead)
            },
        )
        .unwrap_err();
        assert_eq!(err, JobError::ClusterDead);
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_advances_the_virtual_clock_exponentially() {
        let chaos = ChaosPlan::none();
        let cluster = Cluster::local(2, 2).with_chaos(chaos.clone());
        let mut dfs = tiny_dfs(&cluster);
        let mut calls = 0;
        let (_, retries) = run_with_recovery(
            "job",
            &cluster,
            &mut dfs,
            &RetryPolicy::default(), // 5s backoff, ×2
            &Recorder::disabled(),
            |_, _| {
                calls += 1;
                if calls < 3 {
                    Err(JobError::ClusterDead)
                } else {
                    Ok(())
                }
            },
        )
        .unwrap();
        assert_eq!(retries, 2);
        // Two failed attempts: 5s + 10s of backoff on the shared clock.
        assert!((chaos.now() - 15.0).abs() < 1e-9, "clock: {}", chaos.now());
    }

    #[test]
    fn storage_failures_draw_their_own_budget_and_grow_the_advice() {
        let chaos = ChaosPlan::none();
        let cluster = Cluster::local(2, 2).with_chaos(chaos.clone());
        let mut dfs = tiny_dfs(&cluster);
        let policy = RetryPolicy::default().retries(0).io_retries(3);
        let mut budgets = Vec::new();
        let (_, retries) = run_with_recovery_io(
            "job",
            &cluster,
            &mut dfs,
            &policy,
            &Recorder::disabled(),
            |_, _, advice: &StorageAdvice| {
                budgets.push(advice.scaled_budget(&policy, Some(1000)));
                match budgets.len() {
                    1 => Err(JobError::DiskFull("spill: no room".into())),
                    2 => Err(JobError::Io("transient EIO persisted".into())),
                    3 => Err(JobError::DiskFull("still tight".into())),
                    _ => Ok(()),
                }
            },
        )
        .unwrap();
        assert_eq!(retries, 3, "three storage failures absorbed");
        // ENOSPC failures double the advised budget; plain IO does not.
        assert_eq!(budgets, [Some(1000), Some(2000), Some(2000), Some(4000)]);
        // IO backoff: 1 + 2 + 4 virtual seconds.
        assert!((chaos.now() - 7.0).abs() < 1e-9, "clock: {}", chaos.now());
    }

    #[test]
    fn storage_budget_exhaustion_returns_the_storage_error() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = tiny_dfs(&cluster);
        let mut calls = 0;
        let err = run_with_recovery_io(
            "job",
            &cluster,
            &mut dfs,
            &RetryPolicy::default().retries(5).io_retries(1),
            &Recorder::disabled(),
            |_, _, _| -> Result<(), _> {
                calls += 1;
                Err(JobError::DiskFull("full".into()))
            },
        )
        .unwrap_err();
        assert!(matches!(err, JobError::DiskFull(_)));
        assert_eq!(calls, 2, "io budget, not the job budget, applies");
    }

    #[test]
    fn none_budget_stays_in_memory_regardless_of_enospc() {
        let advice = StorageAdvice {
            io_failures: 0,
            enospc_failures: 3,
        };
        assert_eq!(advice.scaled_budget(&RetryPolicy::default(), None), None);
    }

    #[test]
    fn failed_attempts_heal_the_dfs_between_tries() {
        // Node 0 dies immediately; every block it held is under-replicated
        // until rereplicate copies it onto a survivor.
        let chaos = ChaosPlan::none().crash_node(0, 0.0);
        let cluster = Cluster::local(3, 2).with_chaos(chaos.clone());
        let mut dfs = Dfs::new(cluster.topology.clone(), 64, 2);
        dfs.put_fixed("f", (0..32u64).collect(), 8).unwrap();
        let telemetry = Recorder::enabled();
        let mut calls = 0;
        run_with_recovery(
            "job",
            &cluster,
            &mut dfs,
            &RetryPolicy::default().retries(1),
            &telemetry,
            |_, dfs| {
                calls += 1;
                if calls == 1 {
                    Err(JobError::ClusterDead)
                } else {
                    // After healing, every block must be readable without
                    // touching the dead node.
                    for &id in dfs.blocks_of("f").unwrap() {
                        let replicas = dfs.readable_replicas(id, &chaos, chaos.now());
                        assert!(!replicas.contains(&0));
                        assert!(!replicas.is_empty(), "block {id} unreadable after heal");
                    }
                    Ok(())
                }
            },
        )
        .unwrap();
        let retried: Vec<_> = telemetry
            .events()
            .into_iter()
            .filter(|e| e.name == "driver.retry")
            .collect();
        assert_eq!(retried.len(), 1);
    }
}
