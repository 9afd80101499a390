//! Aggregate reporting for multi-job pipelines.
//!
//! DJ-Cluster's preprocessing runs "two MapReduce jobs executed in
//! pipeline: the output of the first job constitutes the input of the
//! second one" (§VII-A), and k-means submits one job per iteration. This
//! module accumulates the per-job statistics of such a chain into a single
//! report: total virtual time (cluster startup counted once), locality
//! totals and shuffle volume.

use crate::job::JobStats;
use std::time::Duration;

/// Accumulated statistics of a chain of jobs.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    stages: Vec<JobStats>,
}

impl PipelineReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one finished job.
    pub fn add(&mut self, stats: JobStats) {
        self.stages.push(stats);
    }

    /// The per-job statistics, in execution order.
    pub fn stages(&self) -> &[JobStats] {
        &self.stages
    }

    /// Number of jobs in the chain.
    pub fn num_jobs(&self) -> usize {
        self.stages.len()
    }

    /// Total real wall-clock time across jobs.
    pub fn real_elapsed(&self) -> Duration {
        self.stages.iter().map(|s| s.real_elapsed).sum()
    }

    /// Total virtual makespan across jobs, *excluding* cluster startup.
    pub fn sim_makespan_s(&self) -> f64 {
        self.stages.iter().map(|s| s.sim.makespan_s).sum()
    }

    /// Virtual end-to-end time: one cluster startup plus every job's
    /// makespan (daemons stay up between chained jobs, §VI).
    pub fn sim_total_s(&self) -> f64 {
        let startup = self.stages.first().map_or(0.0, |s| s.sim.cluster_startup_s);
        startup + self.sim_makespan_s()
    }

    /// Total bytes shuffled across all jobs.
    pub fn shuffle_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.sim.shuffle_bytes).sum()
    }

    /// Sum of map tasks across all jobs.
    pub fn map_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.map_tasks).sum()
    }

    /// `(data_local, rack_local, remote)` totals across all jobs.
    pub fn locality(&self) -> (usize, usize, usize) {
        self.stages.iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.sim.data_local,
                acc.1 + s.sim.rack_local,
                acc.2 + s.sim.remote,
            )
        })
    }

    /// Counter `name` folded across every job by its metric-table rule
    /// (running totals add, high-water marks keep the largest).
    pub fn counter(&self, name: &str) -> u64 {
        let fold = gepeto_telemetry::metrics::fold_of(name);
        self.stages
            .iter()
            .fold(0, |acc, s| fold.apply(acc, s.counter(name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::builtin;
    use crate::sim::SimReport;
    use std::collections::BTreeMap;

    fn stats(name: &str, makespan: f64, startup: f64) -> JobStats {
        JobStats {
            name: name.into(),
            map_tasks: 4,
            reduce_tasks: 1,
            real_elapsed: Duration::from_millis(10),
            sim: SimReport {
                makespan_s: makespan,
                cluster_startup_s: startup,
                data_local: 3,
                rack_local: 1,
                remote: 0,
                shuffle_bytes: 100,
                ..SimReport::default()
            },
            counters: BTreeMap::from([
                (builtin::TASK_RETRIES.to_owned(), 1),
                (builtin::REEXECUTED_MAPS.to_owned(), 2),
                (builtin::FAILED_OVER_READS.to_owned(), 1),
                (builtin::MEM_BUDGET_BYTES.to_owned(), 64),
            ]),
        }
    }

    #[test]
    fn empty_report() {
        let r = PipelineReport::new();
        assert_eq!(r.num_jobs(), 0);
        assert_eq!(r.sim_total_s(), 0.0);
        assert_eq!(r.real_elapsed(), Duration::ZERO);
    }

    #[test]
    fn accumulates_jobs_with_single_startup() {
        let mut r = PipelineReport::new();
        r.add(stats("filter-moving", 10.0, 25.0));
        r.add(stats("dedup", 5.0, 25.0));
        assert_eq!(r.num_jobs(), 2);
        assert_eq!(r.sim_makespan_s(), 15.0);
        assert_eq!(r.sim_total_s(), 40.0); // 25 counted once
        assert_eq!(r.shuffle_bytes(), 200);
        assert_eq!(r.map_tasks(), 8);
        assert_eq!(r.locality(), (6, 2, 0));
        assert_eq!(r.real_elapsed(), Duration::from_millis(20));
        assert_eq!(r.stages()[1].name, "dedup");
        assert_eq!(r.counter(builtin::TASK_RETRIES), 2);
        assert_eq!(r.counter(builtin::REEXECUTED_MAPS), 4);
        assert_eq!(r.counter(builtin::FAILED_OVER_READS), 2);
        // A high-water mark folds by max across jobs, not by sum.
        assert_eq!(r.counter(builtin::MEM_BUDGET_BYTES), 64);
    }
}
