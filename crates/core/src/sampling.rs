//! Down-sampling (§V, Figures 2–3, Table I): a temporal aggregation that
//! merges all mobility traces inside a time window into a single
//! *representative* trace.
//!
//! Two techniques, as in the paper: the representative is the trace
//! closest to the **upper limit** of the window (Figure 2), or the trace
//! closest to the **middle** of the window (Figure 3).
//!
//! The MapReduce version is a map-only job ("the reduce phase is not
//! necessary as sampling represents a computationally cheap operation").
//! Each mapper streams its chunk, tracking the best candidate of the
//! current `(user, window)` and emitting it when the window closes. A
//! chunk boundary that splits a window can therefore yield one extra
//! representative for that window — the same artifact the paper's
//! Hadoop implementation has; [`sequential_sample`] is the exact
//! single-machine reference.
//!
//! ```
//! use gepeto::sampling::{sequential_sample, SamplingConfig, Technique};
//! use gepeto_model::{Dataset, GeoPoint, MobilityTrace, Timestamp};
//!
//! // Three traces in one 60 s window, one in the next.
//! let ds = Dataset::from_traces([5i64, 29, 58, 61].map(|s| {
//!     MobilityTrace::new(1, GeoPoint::new(39.9, 116.4), Timestamp(s))
//! }));
//! let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
//! let sampled = sequential_sample(&ds, &cfg);
//! let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
//! assert_eq!(secs, vec![58, 61]); // Figure 2: latest trace per window
//! ```

use crate::run::{map_traces, RunCtx};
use gepeto_mapred::{
    Cluster, Dfs, Emitter, JobError, JobStats, MapReduceJob, Mapper, Reducer, RunJournal,
};
use gepeto_model::{Dataset, MobilityTrace, Trail, UserId};
use gepeto_telemetry::Recorder;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the representative trace of a window is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// The trace closest to the upper limit of the time window (Fig. 2).
    ClosestToUpperLimit,
    /// The trace closest to the middle of the time window (Fig. 3).
    ClosestToMiddle,
}

impl Technique {
    /// Distance (in seconds, lower is better) from a trace at `ts` to the
    /// reference instant of window `[w0, w0 + window)`.
    fn badness(self, ts: i64, w0: i64, window: i64) -> i64 {
        match self {
            // The reference is the (exclusive) upper limit; every trace is
            // below it, so the latest trace wins.
            Technique::ClosestToUpperLimit => w0 + window - ts,
            Technique::ClosestToMiddle => (ts - (w0 + window / 2)).abs(),
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "upper" | "upper-limit" | "end" => Some(Self::ClosestToUpperLimit),
            "middle" | "center" => Some(Self::ClosestToMiddle),
            _ => None,
        }
    }
}

/// Sampling parameters: the window size (the paper evaluates 60 s, 300 s
/// and 600 s) and the representative-selection technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Window length in seconds (> 0).
    pub window_secs: i64,
    /// Representative selection.
    pub technique: Technique,
}

impl SamplingConfig {
    /// A config; panics if `window_secs` is not positive.
    pub fn new(window_secs: i64, technique: Technique) -> Self {
        assert!(window_secs > 0, "sampling window must be positive");
        Self {
            window_secs,
            technique,
        }
    }
}

/// Exact sequential reference: samples each user's trail independently
/// with global (absolute-time) windows.
pub fn sequential_sample(dataset: &Dataset, cfg: &SamplingConfig) -> Dataset {
    let trails = dataset.trails().map(|t| sample_trail(t, cfg));
    Dataset::from_trails(trails.collect::<Vec<_>>())
}

/// Samples a single trail.
pub fn sample_trail(trail: &Trail, cfg: &SamplingConfig) -> Trail {
    // At most one representative per window, and the trail is
    // time-ordered, so the span divided by the window length bounds the
    // output — pre-size to that instead of growing through reallocation.
    // Saturating arithmetic throughout: a trail spanning the whole i64
    // timestamp range must degrade to "pre-size to the trace count",
    // not overflow.
    let traces = trail.traces();
    let windows = match (traces.first(), traces.last()) {
        (Some(a), Some(b)) => {
            let span = b.timestamp.secs().saturating_sub(a.timestamp.secs());
            (span / cfg.window_secs)
                .saturating_add(1)
                .clamp(1, i64::try_from(traces.len()).unwrap_or(i64::MAX)) as usize
        }
        _ => 0,
    };
    let mut out = Vec::with_capacity(windows);
    let mut state: Option<WindowState> = None;
    for t in trail.traces() {
        push_trace(&mut state, t, cfg, &mut |tr| out.push(tr));
    }
    if let Some(s) = state {
        out.push(s.best);
    }
    Trail::new(trail.user, out)
}

/// The streaming state: current `(user, window)` plus its best candidate.
#[derive(Clone, Debug)]
struct WindowState {
    user: UserId,
    window: i64,
    best: MobilityTrace,
    best_badness: i64,
}

/// Core streaming step shared by the sequential and MapReduce paths.
fn push_trace(
    state: &mut Option<WindowState>,
    t: &MobilityTrace,
    cfg: &SamplingConfig,
    emit: &mut impl FnMut(MobilityTrace),
) {
    let window = t.timestamp.secs().div_euclid(cfg.window_secs);
    let badness = cfg.technique.badness(
        t.timestamp.secs(),
        window * cfg.window_secs,
        cfg.window_secs,
    );
    match state {
        Some(s) if s.user == t.user && s.window == window => {
            if badness < s.best_badness {
                s.best = *t;
                s.best_badness = badness;
            }
        }
        Some(s) => {
            emit(s.best);
            *state = Some(WindowState {
                user: t.user,
                window,
                best: *t,
                best_badness: badness,
            });
        }
        None => {
            *state = Some(WindowState {
                user: t.user,
                window,
                best: *t,
                best_badness: badness,
            });
        }
    }
}

/// The paper's sampling mapper: a pure filter with per-window state.
#[derive(Clone)]
pub struct SamplingMapper {
    cfg: SamplingConfig,
    state: Option<WindowState>,
}

impl SamplingMapper {
    /// A mapper applying `cfg`.
    pub fn new(cfg: SamplingConfig) -> Self {
        Self { cfg, state: None }
    }
}

impl Mapper<MobilityTrace> for SamplingMapper {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        let cfg = self.cfg;
        push_trace(&mut self.state, value, &cfg, &mut |t| out.emit(t.user, t));
    }

    fn cleanup(&mut self, out: &mut Emitter<UserId, MobilityTrace>) {
        if let Some(s) = self.state.take() {
            out.emit(s.best.user, s.best);
        }
    }
}

/// Runs sampling as a map-only MapReduce job over `input` and returns the
/// sampled dataset plus the job statistics. The job's spans are captured
/// under a `sampling` span, and a `sampling.throughput` point records the
/// end-to-end records/second — the number Table I's per-window rows
/// normalize against. The job runs under
/// [`gepeto_mapred::run_with_recovery`] with `ctx.retry`.
pub fn mapreduce_sample(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    cfg: &SamplingConfig,
    ctx: &RunCtx,
) -> Result<(Dataset, JobStats), JobError> {
    let telemetry = &ctx.telemetry;
    let span = telemetry.span(
        "sampling",
        &[("input", input), ("window", &cfg.window_secs.to_string())],
    );
    let mapper = SamplingMapper::new(*cfg);
    let (traces, stats, _) = map_traces("sampling", cluster, dfs, input, mapper, ctx)?;
    span.end();
    let input_records = dfs.num_records(input)? as f64;
    let elapsed = stats.real_elapsed.as_secs_f64();
    if elapsed > 0.0 {
        telemetry.point(
            "sampling.throughput",
            input_records / elapsed,
            &[("input", input)],
        );
    }
    Ok((Dataset::from_traces(traces), stats))
}

/// [`mapreduce_sample`] with telemetry only, over a shared DFS (run on a
/// metadata-only clone) — the signature the `perfbench/` benchmark calls.
pub fn mapreduce_sample_with(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &SamplingConfig,
    telemetry: &Recorder,
) -> Result<(Dataset, JobStats), JobError> {
    mapreduce_sample(cluster, &mut dfs.clone(), input, cfg, &telemetry.into())
}

/// Identity reducer that regroups sampled traces per user — the
/// reduce-side variant of sampling used when the output should arrive
/// user-grouped (and the shuffle it adds is what the out-of-core spill
/// path exercises at scale).
#[derive(Clone)]
pub struct RegroupReducer;

impl Reducer<UserId, MobilityTrace> for RegroupReducer {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn reduce(
        &mut self,
        key: &UserId,
        values: &[MobilityTrace],
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        for v in values {
            out.emit(*key, *v);
        }
    }
}

/// Sampling with a full shuffle: maps with [`SamplingMapper`], then
/// regroups the representatives per user through a real reduce phase.
/// Always registers the trace spill codec, so a memory budget — either
/// the explicit `memory_budget` argument or the `mapred.memory.budget`
/// config key — makes the shuffle spill to disk instead of holding every
/// intermediate pair in memory.
///
/// Under a write-ahead [`RunJournal`] every reduce partition's output is
/// committed into the run directory, so a killed run resumed against the
/// same journal replays the committed partitions from disk instead of
/// re-shuffling them — bit-identically. The job runs under
/// [`gepeto_mapred::run_with_recovery`] with `ctx.retry`.
pub fn mapreduce_sample_grouped(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    cfg: &SamplingConfig,
    memory_budget: Option<usize>,
    journal: Option<&Arc<RunJournal>>,
    ctx: &RunCtx,
) -> Result<(Dataset, JobStats), JobError> {
    let telemetry = &ctx.telemetry;
    let span = telemetry.span(
        "sampling-by-user",
        &[("input", input), ("window", &cfg.window_secs.to_string())],
    );
    let codec = crate::spill_codecs::trace_codec();
    let (result, _) = ctx.submit("sampling-by-user", cluster, dfs, |name, dfs| {
        let mapper = SamplingMapper::new(*cfg);
        let job = MapReduceJob::new(name, cluster, dfs, input, mapper, RegroupReducer)
            .reducers(cluster.topology.num_nodes())
            .pair_bytes(|_, t| t.approx_plt_bytes())
            .telemetry(telemetry.clone());
        let job = match memory_budget {
            Some(bytes) => job.memory_budget_with(bytes, codec.clone()),
            None => job.spill_codec(codec.clone()),
        };
        match journal {
            Some(j) => job.durable_with(j.clone(), codec.clone()).run(),
            None => job.run(),
        }
    })?;
    span.end();
    let dataset = Dataset::from_traces(result.output.into_iter().map(|(_, t)| t));
    Ok((dataset, result.stats))
}

/// [`mapreduce_sample_grouped`] without a journal, with telemetry only,
/// over a shared DFS (run on a metadata-only clone) — the signature the
/// `perfbench/` benchmark calls.
pub fn mapreduce_sample_by_user(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &SamplingConfig,
    memory_budget: Option<usize>,
    telemetry: &Recorder,
) -> Result<(Dataset, JobStats), JobError> {
    let (mut dfs, ctx) = (dfs.clone(), RunCtx::from(telemetry));
    mapreduce_sample_grouped(cluster, &mut dfs, input, cfg, memory_budget, None, &ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_model::{GeoPoint, Timestamp};

    fn tr(user: UserId, secs: i64) -> MobilityTrace {
        MobilityTrace::new(
            user,
            GeoPoint::new(40.0 + secs as f64 * 1e-6, 116.0),
            Timestamp(secs),
        )
    }

    #[test]
    fn sample_trail_presizing_survives_extreme_timestamps() {
        // A trail spanning the whole representable time range: the
        // span subtraction and the `span / window + 1` estimate would
        // both overflow without saturating arithmetic.
        let trail = Trail::new(1, vec![tr(1, i64::MIN + 1), tr(1, 0), tr(1, i64::MAX - 1)]);
        let cfg = SamplingConfig::new(1, Technique::ClosestToUpperLimit);
        let sampled = sample_trail(&trail, &cfg);
        assert_eq!(sampled.len(), 3, "three windows, three representatives");
    }

    #[test]
    fn upper_limit_takes_latest_trace_per_window() {
        // Window 60: [0,60) holds 5, 20, 59 → 59; [60,120) holds 61 → 61.
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 20), tr(1, 59), tr(1, 61)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let sampled = sequential_sample(&ds, &cfg);
        let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
        assert_eq!(secs, vec![59, 61]);
    }

    #[test]
    fn middle_takes_trace_closest_to_center() {
        // Window 60, center 30: traces at 5, 29, 55 → 29 wins.
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 29), tr(1, 55)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToMiddle);
        let sampled = sequential_sample(&ds, &cfg);
        let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
        assert_eq!(secs, vec![29]);
    }

    #[test]
    fn techniques_differ_on_the_same_input() {
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 29), tr(1, 55)]);
        let up = sequential_sample(
            &ds,
            &SamplingConfig::new(60, Technique::ClosestToUpperLimit),
        );
        let mid = sequential_sample(&ds, &SamplingConfig::new(60, Technique::ClosestToMiddle));
        assert_eq!(up.iter_traces().next().unwrap().timestamp.secs(), 55);
        assert_eq!(mid.iter_traces().next().unwrap().timestamp.secs(), 29);
    }

    #[test]
    fn windows_are_per_user() {
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 15), tr(2, 10), tr(2, 25)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let sampled = sequential_sample(&ds, &cfg);
        assert_eq!(sampled.num_traces(), 2); // one window each
        assert_eq!(sampled.num_users(), 2);
    }

    #[test]
    fn negative_timestamps_window_correctly() {
        // div_euclid keeps windows aligned across zero.
        let ds = Dataset::from_traces(vec![tr(1, -61), tr(1, -59), tr(1, -1), tr(1, 1)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let sampled = sequential_sample(&ds, &cfg);
        let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
        // Windows: [-120,-60) → -61; [-60,0) → -1; [0,60) → 1.
        assert_eq!(secs, vec![-61, -1, 1]);
    }

    #[test]
    fn empty_dataset_samples_to_empty() {
        let cfg = SamplingConfig::new(60, Technique::ClosestToMiddle);
        assert!(sequential_sample(&Dataset::new(), &cfg).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = SamplingConfig::new(0, Technique::ClosestToMiddle);
    }

    #[test]
    fn mapreduce_equals_sequential_single_chunk() {
        let traces: Vec<MobilityTrace> = (0..500).map(|i| tr(1 + (i % 3) as u32, i * 7)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 1 << 20); // everything in one chunk
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let (mr, stats) =
            mapreduce_sample(&cluster, &mut dfs, "d", &cfg, &RunCtx::default()).unwrap();
        assert_eq!(stats.map_tasks, 1);
        assert_eq!(mr, sequential_sample(&ds, &cfg));
    }

    #[test]
    fn mapreduce_boundary_artifact_is_bounded() {
        let traces: Vec<MobilityTrace> = (0..2_000).map(|i| tr(1, i * 3)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 4_096); // ~64 traces per chunk
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let chunks = dfs.num_blocks("d").unwrap();
        assert!(chunks > 10);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let (mr, _) = mapreduce_sample(&cluster, &mut dfs, "d", &cfg, &RunCtx::default()).unwrap();
        let seq = sequential_sample(&ds, &cfg);
        // Each chunk boundary can split at most one window in two.
        let diff = mr.num_traces() as i64 - seq.num_traces() as i64;
        assert!(
            (0..(chunks as i64)).contains(&diff),
            "diff {diff}, chunks {chunks}"
        );
    }

    #[test]
    fn to_dfs_variant_writes_output_file() {
        let ds = Dataset::from_traces((0..100).map(|i| tr(1, i * 10)).collect::<Vec<_>>());
        let cluster = Cluster::local(2, 2);
        let mut dfs = trace_dfs(&cluster, 1 << 16);
        put_dataset(&mut dfs, "in", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToMiddle);
        let (sampled, stats) =
            mapreduce_sample(&cluster, &mut dfs, "in", &cfg, &RunCtx::default()).unwrap();
        put_dataset(&mut dfs, "out", &sampled).unwrap();
        assert!(dfs.exists("out"));
        assert!(stats.map_tasks >= 1);
        assert!(dfs.num_records("out").unwrap() < 100);
    }

    #[test]
    fn sample_by_user_matches_map_only_output() {
        let traces: Vec<MobilityTrace> = (0..800).map(|i| tr(1 + (i % 4) as u32, i * 9)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 4_096);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let (map_only, _) =
            mapreduce_sample(&cluster, &mut dfs, "d", &cfg, &RunCtx::default()).unwrap();
        let ctx = RunCtx::default();
        let (grouped, _) =
            mapreduce_sample_grouped(&cluster, &mut dfs, "d", &cfg, None, None, &ctx).unwrap();
        assert_eq!(grouped, map_only);
    }

    #[test]
    fn sample_by_user_spills_under_a_tiny_budget_without_changing_output() {
        let traces: Vec<MobilityTrace> = (0..800).map(|i| tr(1 + (i % 4) as u32, i * 9)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 4_096);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let ctx = RunCtx::default();
        let (unbounded, base) =
            mapreduce_sample_grouped(&cluster, &mut dfs, "d", &cfg, None, None, &ctx).unwrap();
        let (spilled, stats) =
            mapreduce_sample_grouped(&cluster, &mut dfs, "d", &cfg, Some(1), None, &ctx).unwrap();
        assert_eq!(spilled, unbounded);
        use gepeto_mapred::counters::builtin;
        assert!(
            stats.counters[builtin::SPILL_FILES] > 0,
            "{:?}",
            stats.counters
        );
        assert!(stats.counters[builtin::SPILLED_BYTES] > 0);
        assert!(!base.counters.contains_key(builtin::SPILL_FILES));
    }

    #[test]
    fn technique_parse() {
        assert_eq!(
            Technique::parse("upper"),
            Some(Technique::ClosestToUpperLimit)
        );
        assert_eq!(Technique::parse("MIDDLE"), Some(Technique::ClosestToMiddle));
        assert_eq!(Technique::parse("mean"), None);
    }
}
