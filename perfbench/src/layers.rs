//! Per-layer measurement: the benchmark's own spans around each public
//! call it makes, the per-layer metric table, and the phase breakdown
//! derived from an enabled [`Recorder`]'s existing `job`/`phase.*`/
//! `task.*` spans.

use crate::stats::{self, Summary};
use gepeto_mapred::JobStats;
use gepeto_telemetry::{Event, EventKind, Recorder};
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric the traced mode emits, with its unit, in
/// report order. `BENCHMARK.json`'s `per_layer` list mirrors this table.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("geolife.generate_s", "s"),
    ("synth.to_dfs_s", "s"),
    ("dfs.put_s", "s"),
    ("dfs.blocks", "count"),
    ("dfs.mb", "MB"),
    ("mapred.jobs", "count"),
    ("mapred.job_s", "s"),
    ("mapred.job_p50_ms", "ms"),
    ("mapred.job_tail_ms", "ms"),
    ("mapred.job_tail_pct", "pct"),
    ("driver.self_s", "s"),
    ("mapred.shuffle_mb", "MB"),
    ("mapred.records_in", "count"),
    ("mapred.map_s", "s"),
    ("mapred.sort_s", "s"),
    ("mapred.shuffle_s", "s"),
    ("mapred.merge_s", "s"),
    ("mapred.reduce_s", "s"),
    ("mapred.unattributed_s", "s"),
    ("mapred.traced_job_s", "s"),
    ("mapred.task_n", "count"),
    ("mapred.task_p50_ms", "ms"),
    ("mapred.task_tail_ms", "ms"),
    ("mapred.task_tail_pct", "pct"),
    ("spill.mb", "MB"),
    ("spill.files", "count"),
    ("spill.amplification", "ratio"),
    ("spill.estimate_error_ratio", "ratio"),
    ("mem.accounted_peak_mb", "MB"),
    ("mem.heap_over_budget_ratio", "ratio"),
    ("io.stall_ms", "ms"),
    ("geo.distance_evals", "count"),
    ("geo.evals_per_s", "1/s"),
    ("djcluster.preprocess_s", "s"),
    ("djcluster.rtree_s", "s"),
    ("djcluster.cluster_s", "s"),
    ("djcluster.reduce_max_s", "s"),
    ("djcluster.shuffle_saved_ratio", "ratio"),
    ("sanitize.apply_s", "s"),
    ("attacks.fingerprint_s", "s"),
    ("attacks.users", "count"),
    ("attacks.user_p50_ms", "ms"),
    ("attacks.user_tail_ms", "ms"),
    ("attacks.user_tail_pct", "pct"),
    ("attacks.user_max_ms", "ms"),
    ("attacks.user_skew", "ratio"),
    ("pool.threads", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.batches", "count"),
    ("pool.busy_s", "s"),
    ("pool.utilization", "ratio"),
    ("pool.blind_ratio", "ratio"),
    ("pool.speedup", "ratio"),
    ("alloc.allocated_mb", "MB"),
    ("alloc.allocs", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("run.untraced_s", "s"),
    ("run.traced_s", "s"),
    ("run.threads1_s", "s"),
];

/// Bytes per reported MB.
pub const MB: f64 = 1e6;

/// Per-layer values gathered from one or more operations, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Folds several operations' values into one: the per-metric median.
pub fn median_values(ops: &[LayerValues]) -> LayerValues {
    let mut keys: Vec<&'static str> = ops.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vals: Vec<f64> = ops.iter().filter_map(|m| m.get(k).copied()).collect();
            (k, stats::median(&vals))
        })
        .collect()
}

// ---------------------------------------------------------------------
// The benchmark's own spans
// ---------------------------------------------------------------------

/// Runs `f` inside a span named `name` on `spans`, the recorder that
/// holds the benchmark's own spans (disabled on timed runs).
pub fn spanned<R>(spans: &Recorder, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = spans.span(name, &[]);
    f()
}

/// Self time of every span closed in `events` (its duration minus the
/// part of it its children cover), summed per span name, in seconds.
pub fn self_seconds(events: &[Event]) -> LayerValues {
    let mut starts: HashMap<u64, (&'static str, u64, f64)> = HashMap::new();
    let mut closed: Vec<(u64, &'static str, u64, f64, f64)> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::SpanStart => {
                starts.insert(e.span_id, (e.name, e.parent_id, e.ts_us as f64));
            }
            EventKind::SpanEnd => {
                if let (Some(&(name, parent, start)), Some(d)) = (starts.get(&e.span_id), e.dur_us)
                {
                    closed.push((e.span_id, name, parent, start, start + d as f64));
                }
            }
            _ => {}
        }
    }
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for &(_, _, parent, start, end) in &closed {
        children.entry(parent).or_default().push((start, end));
    }
    let mut out = LayerValues::new();
    for &(id, name, _, start, end) in &closed {
        let covered = children.get(&id).map_or(0.0, |c| union_length(c));
        *out.entry(name).or_insert(0.0) += (end - start - covered) / 1e6;
    }
    out
}

/// Total length covered by a set of possibly overlapping intervals.
fn union_length(intervals: &[(f64, f64)]) -> f64 {
    let mut v = intervals.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

// ---------------------------------------------------------------------
// Job statistics (tracing off)
// ---------------------------------------------------------------------

fn counter(job: &JobStats, key: &str) -> f64 {
    job.counters.get(key).copied().unwrap_or(0) as f64
}

fn counter_sum(jobs: &[JobStats], key: &str) -> f64 {
    jobs.iter().fold(0.0, |a, j| a + counter(j, key))
}

fn counter_max(jobs: &[JobStats], key: &str) -> f64 {
    jobs.iter().map(|j| counter(j, key)).fold(0.0, f64::max)
}

/// The `gepeto-mapred` job, spill and kernel metrics of one operation,
/// read from the [`JobStats`] its drivers returned. `run_s` is the
/// operation's wall time and `heap_peak` its allocator peak in bytes.
pub fn job_metrics(jobs: &[JobStats], run_s: f64, heap_peak: f64) -> LayerValues {
    use gepeto_mapred::counters::builtin as c;
    let job_secs: Vec<f64> = jobs.iter().map(|j| j.real_elapsed.as_secs_f64()).collect();
    // Folded from +0.0: an empty f64 `sum()` is -0.0.
    let job_s = job_secs.iter().fold(0.0, |a, b| a + b);
    let job_ms: Vec<f64> = job_secs.iter().map(|s| s * 1e3).collect();
    let jobs_summary = stats::summarize(&job_ms);
    let shuffle = counter_sum(jobs, c::SHUFFLE_BYTES);
    let spilled = counter_sum(jobs, c::SPILLED_BYTES);
    let budget = counter_max(jobs, c::MEM_BUDGET_BYTES);
    let mut m = LayerValues::new();
    m.insert("mapred.jobs", jobs.len() as f64);
    m.insert("mapred.job_s", job_s);
    m.insert("mapred.job_p50_ms", jobs_summary.p50);
    m.insert("mapred.job_tail_ms", jobs_summary.tail);
    m.insert("mapred.job_tail_pct", jobs_summary.tail_pct);
    m.insert("driver.self_s", (run_s - job_s).max(0.0));
    m.insert("mapred.shuffle_mb", shuffle / MB);
    m.insert("mapred.records_in", counter_sum(jobs, c::MAP_INPUT_RECORDS));
    m.insert("spill.mb", spilled / MB);
    m.insert("spill.files", counter_sum(jobs, c::SPILL_FILES));
    m.insert("spill.amplification", stats::ratio(spilled, shuffle));
    m.insert(
        "spill.estimate_error_ratio",
        stats::ratio(counter_sum(jobs, c::SPILL_ESTIMATE_ERROR), spilled),
    );
    m.insert(
        "mem.accounted_peak_mb",
        counter_max(jobs, c::MEM_ACCOUNTED_PEAK) / MB,
    );
    m.insert(
        "mem.heap_over_budget_ratio",
        stats::ratio(heap_peak, budget),
    );
    m.insert("io.stall_ms", counter_sum(jobs, c::IO_STALL_MS));
    m.insert("geo.distance_evals", counter_sum(jobs, c::DISTANCE_EVALS));
    m
}

// ---------------------------------------------------------------------
// Phase breakdown (tracing on)
// ---------------------------------------------------------------------

/// The engine phases a job's wall splits into. Nested phases win over
/// the phase they run inside, so every instant of a job is charged to at
/// most one phase.
const PHASES: [(&str, &str, u8); 6] = [
    ("phase.map", "mapred.map_s", 0),
    ("phase.shuffle", "mapred.shuffle_s", 0),
    ("phase.reduce", "mapred.reduce_s", 0),
    ("phase.combine", "mapred.map_s", 1),
    ("phase.sort", "mapred.sort_s", 2),
    ("phase.merge", "mapred.merge_s", 3),
];

#[derive(Debug, Clone)]
struct RecSpan {
    name: &'static str,
    parent: u64,
    start: f64,
    end: f64,
    job: Option<String>,
}

/// What the `job`/`phase.*`/`task.*` spans of one traced operation say.
#[derive(Debug, Default)]
pub struct PhaseBreakdown {
    /// Phase self seconds, by metric name (`mapred.map_s`, ...).
    pub phase_s: LayerValues,
    /// Σ job span wall.
    pub job_s: f64,
    /// Σ job span wall − Σ phase self time.
    pub unattributed_s: f64,
    /// Map and reduce task durations, ms.
    pub tasks: Summary,
    /// Longest reduce task per job name, seconds.
    pub reduce_max_s: BTreeMap<String, f64>,
}

impl PhaseBreakdown {
    pub fn from_events(events: &[Event]) -> Self {
        let mut spans: HashMap<u64, RecSpan> = HashMap::new();
        for e in events {
            match e.kind {
                EventKind::SpanStart => {
                    spans.insert(
                        e.span_id,
                        RecSpan {
                            name: e.name,
                            parent: e.parent_id,
                            start: e.ts_us as f64,
                            end: f64::NAN,
                            job: e.label("job").map(str::to_owned),
                        },
                    );
                }
                EventKind::SpanEnd => {
                    if let (Some(s), Some(d)) = (spans.get_mut(&e.span_id), e.dur_us) {
                        s.end = s.start + d as f64;
                    }
                }
                _ => {}
            }
        }
        spans.retain(|_, s| s.end.is_finite());
        // The `job` span each span belongs to (its nearest `job`
        // ancestor, or itself).
        let job_of = |mut id: u64| -> Option<u64> {
            for _ in 0..64 {
                let s = spans.get(&id)?;
                if s.name == "job" {
                    return Some(id);
                }
                id = s.parent;
            }
            None
        };
        let mut per_job: HashMap<u64, Vec<(f64, f64, &'static str, u8)>> = HashMap::new();
        let mut task_ms = Vec::new();
        let mut out = PhaseBreakdown::default();
        for (&id, s) in &spans {
            if let Some(&(_, metric, prio)) = PHASES.iter().find(|p| p.0 == s.name) {
                if let Some(job) = job_of(id) {
                    per_job
                        .entry(job)
                        .or_default()
                        .push((s.start, s.end, metric, prio));
                }
            }
            if s.name == "task.map" || s.name == "task.reduce" {
                task_ms.push((s.end - s.start) / 1e3);
            }
            if s.name == "task.reduce" {
                let name = job_of(id)
                    .and_then(|j| spans[&j].job.clone())
                    .unwrap_or_default();
                let secs = (s.end - s.start) / 1e6;
                let slot = out.reduce_max_s.entry(name).or_insert(0.0);
                *slot = slot.max(secs);
            }
        }
        for (&id, s) in spans.iter().filter(|(_, s)| s.name == "job") {
            let phases = per_job.remove(&id).unwrap_or_default();
            let attributed = attribute(&phases, &mut out.phase_s);
            out.job_s += (s.end - s.start) / 1e6;
            out.unattributed_s += ((s.end - s.start) - attributed).max(0.0) / 1e6;
        }
        for v in out.phase_s.values_mut() {
            *v /= 1e6;
        }
        out.tasks = stats::summarize(&task_ms);
        out
    }
}

/// Charges every instant covered by `phases` to the highest-priority
/// phase open at that instant; returns the total covered time (µs).
fn attribute(phases: &[(f64, f64, &'static str, u8)], into: &mut LayerValues) -> f64 {
    let mut cuts: Vec<f64> = phases.iter().flat_map(|p| [p.0, p.1]).collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut covered = 0.0;
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let owner = phases
            .iter()
            .filter(|p| p.0 <= a && p.1 >= b)
            .max_by_key(|p| p.3);
        if let Some(p) = owner {
            *into.entry(p.2).or_insert(0.0) += b - a;
            covered += b - a;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_length(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_length(&[]), 0.0);
    }

    #[test]
    fn nested_phases_take_precedence() {
        let mut into = BTreeMap::new();
        let covered = attribute(
            &[
                (0.0, 10.0, "mapred.reduce_s", 0),
                (2.0, 4.0, "mapred.sort_s", 2),
                (3.0, 5.0, "mapred.sort_s", 2),
            ],
            &mut into,
        );
        assert_eq!(covered, 10.0);
        assert_eq!(into["mapred.sort_s"], 3.0);
        assert_eq!(into["mapred.reduce_s"], 7.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = Recorder::enabled();
        spanned(&spans, "root", || {
            spanned(&spans, "child", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            })
        });
        let selfs = self_seconds(&spans.events());
        assert!(selfs["child"] >= 0.02);
        assert!(selfs["root"] < selfs["child"]);
        let off = Recorder::disabled();
        spanned(&off, "x", || ());
        assert!(self_seconds(&off.events()).is_empty());
    }
}
