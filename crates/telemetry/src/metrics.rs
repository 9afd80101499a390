//! The metric table: every engine counter is declared here, once.
//!
//! A row gives the counter's dotted name, how repeated observations
//! fold (a running total or a high-water mark), its unit, how the bench
//! `compare` gate treats drift, its live Prometheus family and its help
//! text. Everything that surfaces a counter derives from the row: the
//! job `Counters` and [`crate::Recorder`] aggregates fold by it, the
//! [`crate::Monitor`] keeps one live slot per row and exports the rows
//! that name a family, `--summary` and the perf-diff engine read values
//! by its names, and bench `compare` looks up its gate class. Adding a
//! counter is adding one row.

/// How repeated observations of one counter combine across tasks,
/// iterations, jobs and resumed attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// A running total: observations add.
    Sum,
    /// A high-water mark: the fold keeps the largest observation.
    Max,
}

impl Fold {
    /// Folds `value` into the accumulated `acc`.
    pub fn apply(self, acc: u64, value: u64) -> u64 {
        match self {
            Fold::Sum => acc + value,
            Fold::Max => acc.max(value),
        }
    }
}

/// What one unit of a counter measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Events, records, tasks or calls.
    Count,
    /// Bytes.
    Bytes,
    /// Milliseconds (of virtual or executor time).
    Ms,
}

/// How bench `compare` treats a counter that moved between a baseline
/// and a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Workload cost: drift is reported as a note.
    Cost,
    /// Exempt from drift notes: durability tallies (retries, repairs,
    /// replays) follow fault-injection luck and resume history, memory
    /// already gates through the report's `mem` block, and host figures
    /// follow the machine.
    Exempt,
}

/// One row of the metric table.
#[derive(Debug)]
pub struct Metric {
    /// Dotted counter name, as it appears in `JobStats.counters`, the
    /// event stream and bench reports.
    pub name: &'static str,
    /// How observations fold.
    pub fold: Fold,
    /// What the value measures.
    pub unit: Unit,
    /// How bench `compare` treats drift.
    pub gate: Gate,
    /// Family in the live Prometheus exposition; `None` for counters
    /// that are only reported per job (or whose name a process-wide
    /// gauge already uses).
    pub family: Option<&'static str>,
    /// One-line description (the exposition's `# HELP` text).
    pub help: &'static str,
}

macro_rules! metric_table {
    ($($id:ident = $name:literal, $fold:ident, $unit:ident, $gate:ident, $family:expr,
        $help:literal;)*) => {
        /// The dotted name of every table counter.
        pub mod names {
            $(
                #[doc = $help]
                pub const $id: &str = $name;
            )*
        }

        /// Every counter, in exposition order.
        pub const METRICS: &[Metric] = &[$(
            Metric {
                name: names::$id,
                fold: Fold::$fold,
                unit: Unit::$unit,
                gate: Gate::$gate,
                family: $family,
                help: $help,
            },
        )*];
    };
}

metric_table! {
    SHUFFLE_BYTES = "mapred.shuffle.bytes", Sum, Bytes, Cost,
        Some("gepeto_shuffle_bytes_total"),
        "Bytes shuffled between map and reduce.";
    TASK_RETRIES = "mapred.task.retries", Sum, Count, Cost,
        Some("gepeto_task_retries_total"),
        "Failure-injected task retries.";
    REEXECUTED_MAPS = "mapred.maps.reexecuted", Sum, Count, Cost,
        Some("gepeto_reexecuted_maps_total"),
        "Map tasks re-executed after output loss.";
    FAILED_OVER_READS = "dfs.reads.failed_over", Sum, Count, Cost,
        Some("gepeto_failed_over_reads_total"),
        "Block reads failed over to a replica.";
    BLACKLISTED_NODES = "mapred.nodes.blacklisted", Sum, Count, Cost,
        Some("gepeto_blacklisted_nodes_total"),
        "Nodes blacklisted by the failure policy.";
    CRASH_KILLED = "mapred.attempts.crash_killed", Sum, Count, Cost,
        Some("gepeto_crash_killed_attempts_total"),
        "Attempts killed mid-flight by node crashes.";
    DISTANCE_EVALS = "kernel.distance_evals", Sum, Count, Cost,
        Some("gepeto_kernel_distance_evals_total"),
        "Point-to-centroid distance evaluations in the clustering kernels.";
    SORT_SKIPPED = "shuffle.sort_skipped", Sum, Count, Cost,
        Some("gepeto_shuffle_sort_skipped_total"),
        "Reduce partitions that took the sort-skipping fast path.";
    SHUFFLE_BYTES_SAVED = "shuffle.bytes_saved", Sum, Bytes, Cost,
        Some("gepeto_shuffle_bytes_saved_total"),
        "Shuffle bytes avoided by compressed payload encodings.";
    SPILLED_BYTES = "shuffle.spilled_bytes", Sum, Bytes, Cost,
        Some("gepeto_shuffle_spilled_bytes_total"),
        "Intermediate bytes spilled to disk by memory-bounded shuffles.";
    SPILL_FILES = "shuffle.spill_files", Sum, Count, Cost,
        Some("gepeto_shuffle_spill_files_total"),
        "Sorted spill runs written to disk by memory-bounded map tasks.";
    SPILLED_GROUPS = "reduce.spilled_groups", Sum, Count, Cost,
        Some("gepeto_reduce_spilled_groups_total"),
        "Reduce groups whose value lists spilled past the memory budget.";
    IO_RETRIES = "io.retries", Sum, Count, Exempt,
        Some("gepeto_io_retries_total"),
        "IO operations retried after transient storage faults.";
    TORN_WRITES = "io.torn_writes_detected", Sum, Count, Exempt,
        Some("gepeto_io_torn_writes_detected_total"),
        "Torn (partial) writes caught by commit verification.";
    RUNS_QUARANTINED = "spill.runs_quarantined", Sum, Count, Exempt,
        Some("gepeto_spill_runs_quarantined_total"),
        "Corrupt spill runs quarantined by verifying reads.";
    IO_STALL_MS = "io.stall_ms", Sum, Ms, Exempt,
        Some("gepeto_io_stall_ms_total"),
        "Virtual milliseconds stalled on storage faults and slow disks.";
    JOURNAL_REPLAYED = "journal.replayed_tasks", Sum, Count, Exempt,
        Some("gepeto_journal_replayed_tasks_total"),
        "Reduce tasks replayed from committed artifacts on resume.";
    SPILLED_RECORDS = "mapred.spilled.records", Sum, Count, Cost, None,
        "Intermediate pairs written out by map tasks after combining.";
    MAP_INPUT_RECORDS = "mapred.map.input.records", Sum, Count, Cost, None,
        "Records read by all map tasks.";
    MAP_OUTPUT_RECORDS = "mapred.map.output.records", Sum, Count, Cost, None,
        "Pairs emitted by all map tasks, before combining.";
    COMBINE_INPUT_RECORDS = "mapred.combine.input.records", Sum, Count, Cost, None,
        "Pairs entering combiners.";
    COMBINE_OUTPUT_RECORDS = "mapred.combine.output.records", Sum, Count, Cost, None,
        "Pairs leaving combiners (what actually shuffles).";
    REDUCE_INPUT_GROUPS = "mapred.reduce.input.groups", Sum, Count, Cost, None,
        "Distinct keys presented to reduce calls.";
    REDUCE_INPUT_RECORDS = "mapred.reduce.input.records", Sum, Count, Cost, None,
        "Pairs consumed by all reduce tasks.";
    REDUCE_OUTPUT_RECORDS = "mapred.reduce.output.records", Sum, Count, Cost, None,
        "Pairs emitted by all reduce tasks.";
    MEM_BUDGET_BYTES = "mem.budget_bytes", Max, Bytes, Exempt, None,
        "Configured per-partition spill budget (0 = unbudgeted).";
    MEM_ACCOUNTED_PEAK = "mem.accounted_peak", Max, Bytes, Exempt, None,
        "High-water mark of the engine's budget-accounted shuffle buffers.";
    MEM_PEAK_OVER_BUDGET = "mem.peak_over_budget_bytes", Max, Bytes, Exempt, None,
        "How far the accounted peak crossed the budget (0 when within it).";
    MEM_PEAK_BYTES = "mem.peak_bytes", Max, Bytes, Exempt, None,
        "Allocator-measured peak live heap over a job's window.";
    MEM_ALLOCATED_BYTES = "mem.allocated_bytes", Sum, Bytes, Exempt, None,
        "Bytes allocated over a job's window.";
    MEM_ALLOCS = "mem.allocs", Sum, Count, Exempt, None,
        "Allocation calls over a job's (or a span's) window.";
    MEM_LIVE_BYTES = "mem.live_bytes", Max, Bytes, Exempt, None,
        "Live heap sampled at every phase boundary.";
    SPILL_ESTIMATE_ERROR = "spill.estimate_error_bytes", Sum, Bytes, Exempt, None,
        "Absolute gap between each spill's estimated and written bytes, summed.";
    HOST_BUSY_MS = "host.busy_ms", Sum, Ms, Exempt, None,
        "Executor milliseconds the pool spent running tasks.";
    HOST_IDLE_MS = "host.idle_ms", Sum, Ms, Exempt, None,
        "Executor milliseconds the pool spent not running tasks.";
    HOST_STEALS = "host.steals", Sum, Count, Exempt, None,
        "Steal-half operations between pool workers.";
    HOST_THREADS = "host.threads", Max, Count, Exempt, None,
        "Pool executors, the submitting thread included.";
}

/// The table row named `name`, if it is an engine counter.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The position of `name` in [`METRICS`].
pub(crate) fn index(name: &str) -> Option<usize> {
    METRICS.iter().position(|m| m.name == name)
}

/// How `name` folds; counters outside the table (user and workload
/// counters) are running totals.
pub fn fold_of(name: &str) -> Fold {
    metric(name).map_or(Fold::Sum, |m| m.fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_families_distinct() {
        for (i, a) in METRICS.iter().enumerate() {
            for b in &METRICS[i + 1..] {
                assert_ne!(a.name, b.name);
                if a.family.is_some() {
                    assert_ne!(a.family, b.family, "{} / {}", a.name, b.name);
                }
            }
        }
    }

    #[test]
    fn folds_follow_the_table() {
        assert_eq!(fold_of(names::IO_RETRIES).apply(3, 4), 7);
        assert_eq!(fold_of(names::MEM_BUDGET_BYTES).apply(64, 64), 64);
        assert_eq!(fold_of("workload.custom").apply(1, 2), 3);
    }
}
