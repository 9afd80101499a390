//! DJ-Cluster — Density-Joinable Clustering (§VII, Figure 5, Table IV,
//! Algorithms 4–5).
//!
//! The paper's three phases, each expressed in MapReduce:
//!
//! 1. **Preprocessing** — two pipelined map-only jobs: the first keeps
//!    stationary traces (speed between the neighboring traces below a
//!    small threshold ε), the second removes redundant consecutive
//!    traces (almost the same coordinate, different timestamps).
//! 2. **Neighborhood identification** — mappers load an R-tree from the
//!    distributed cache and compute, for each trace, its radius-`r`
//!    neighborhood; traces with fewer than `MinPts` neighbors are marked
//!    as noise (Algorithm 4).
//! 3. **Merging** — a single reducer joins all neighborhoods sharing at
//!    least one trace into clusters (Algorithm 5); the output clusters
//!    are non-overlapping and hold at least `MinPts` traces each.
//!
//! The sequential functions are the exact single-machine references; the
//! MapReduce clustering phase produces *identical* clusters because
//! radius queries are exact regardless of how the R-tree was built.
//!
//! ```
//! use gepeto::djcluster::{sequential_djcluster, DjConfig};
//! use gepeto_model::{GeoPoint, MobilityTrace, Timestamp};
//!
//! // A dense dwell spot plus one faraway stray.
//! let mut traces: Vec<MobilityTrace> = (0..8)
//!     .map(|i| MobilityTrace::new(
//!         1,
//!         GeoPoint::new(39.9 + (i % 3) as f64 * 1e-5, 116.4),
//!         Timestamp(i * 60),
//!     ))
//!     .collect();
//! traces.push(MobilityTrace::new(1, GeoPoint::new(39.5, 116.0), Timestamp(9_999)));
//! let clustering = sequential_djcluster(&traces, &DjConfig::default());
//! assert_eq!(clustering.clusters.len(), 1); // the dwell spot
//! assert_eq!(clustering.noise, 1);          // the stray
//! ```

use crate::rtree_build::{mapreduce_build_rtree, RTreeBuildConfig};
use crate::run::{map_traces, RunCtx};
use gepeto_geo::distance::equirectangular_m;
use gepeto_geo::RTree;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{
    Cluster, Counters, Dfs, DistributedCache, Emitter, JobError, JobStats, MapReduceJob, Mapper,
    PipelineReport, Reducer, TaskContext,
};
use gepeto_model::{Dataset, MobilityTrace, UserId};
use gepeto_telemetry::Recorder;
use std::collections::HashMap;
use std::sync::Arc;

const RTREE_CACHE_KEY: &str = "djcluster.rtree";

/// DJ-Cluster parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DjConfig {
    /// Neighborhood radius `r` in meters.
    pub radius_m: f64,
    /// Minimum neighborhood population `MinPts` (the query point counts).
    pub min_pts: usize,
    /// Preprocessing speed threshold ε in m/s; the paper uses a small
    /// value ("2 km/h ≈ 0.55 m/s"-scale). Traces moving faster are
    /// discarded.
    pub speed_threshold_mps: f64,
    /// Redundancy threshold in meters for the duplicate-removal job.
    pub dup_threshold_m: f64,
}

impl Default for DjConfig {
    fn default() -> Self {
        Self {
            radius_m: 60.0,
            min_pts: 4,
            speed_threshold_mps: 1.0,
            dup_threshold_m: 0.5,
        }
    }
}

/// Trace counts through the preprocessing pipeline — the rows of
/// Table IV.
#[derive(Debug, Clone)]
pub struct PreprocessStats {
    /// Traces before preprocessing.
    pub input: usize,
    /// After the moving-trace filter.
    pub after_speed_filter: usize,
    /// After duplicate removal.
    pub after_dedup: usize,
    /// Engine statistics of the two pipelined jobs.
    pub jobs: PipelineReport,
    /// Whole-job re-submissions the two jobs needed.
    pub job_retries: u64,
}

/// A finished clustering: the clusters (each a set of traces) plus the
/// number of traces marked as noise.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Non-overlapping clusters, each with ≥ `MinPts` members.
    pub clusters: Vec<Vec<MobilityTrace>>,
    /// Traces whose neighborhood was too sparse.
    pub noise: usize,
}

impl Clustering {
    /// Canonical form for comparisons: clusters as sorted lists of
    /// `(user, timestamp)` ids, clusters sorted by first member.
    pub fn canonical_ids(&self) -> Vec<Vec<(UserId, i64)>> {
        let mut out: Vec<Vec<(UserId, i64)>> = self
            .clusters
            .iter()
            .map(|c| {
                let mut ids: Vec<(UserId, i64)> =
                    c.iter().map(|t| (t.user, t.timestamp.secs())).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------
// Phase 1: preprocessing
// ---------------------------------------------------------------------

/// The speed of `cur` estimated from its neighbors, as the paper defines
/// it: distance between the previous and next traces over their time
/// difference (one-sided at trail edges).
fn neighbor_speed(
    prev: Option<&MobilityTrace>,
    cur: &MobilityTrace,
    next: Option<&MobilityTrace>,
) -> f64 {
    let (a, b) = match (prev, next) {
        (Some(p), Some(n)) => (p, n),
        (Some(p), None) => (p, cur),
        (None, Some(n)) => (cur, n),
        (None, None) => return 0.0,
    };
    let dt = b.timestamp.delta(a.timestamp);
    if dt <= 0 {
        return 0.0;
    }
    equirectangular_m(a.point, b.point) / dt as f64
}

/// Streaming speed filter over one user-ordered run of traces; shared by
/// the sequential reference and the mapper.
#[derive(Clone, Default)]
struct SpeedFilterState {
    prev: Option<MobilityTrace>,
    cur: Option<MobilityTrace>,
}

impl SpeedFilterState {
    fn push(&mut self, t: &MobilityTrace, threshold: f64, emit: &mut impl FnMut(MobilityTrace)) {
        // A user switch closes the previous run.
        if self.cur.map(|c| c.user) != Some(t.user) && self.cur.is_some() {
            self.flush(threshold, emit);
        }
        if let Some(cur) = self.cur {
            if neighbor_speed(self.prev.as_ref(), &cur, Some(t)) <= threshold {
                emit(cur);
            }
            self.prev = Some(cur);
        }
        self.cur = Some(*t);
    }

    fn flush(&mut self, threshold: f64, emit: &mut impl FnMut(MobilityTrace)) {
        if let Some(cur) = self.cur.take() {
            if neighbor_speed(self.prev.as_ref(), &cur, None) <= threshold {
                emit(cur);
            }
        }
        self.prev = None;
    }
}

/// Map-only job 1: keep stationary traces, discard moving ones.
#[derive(Clone)]
pub struct SpeedFilterMapper {
    threshold: f64,
    state: SpeedFilterState,
}

impl Mapper<MobilityTrace> for SpeedFilterMapper {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        if let Some(t) = ctx.config.get_f64("speed.threshold") {
            self.threshold = t;
        }
    }

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        let threshold = self.threshold;
        self.state
            .push(value, threshold, &mut |t| out.emit(t.user, t));
    }

    fn cleanup(&mut self, out: &mut Emitter<UserId, MobilityTrace>) {
        let threshold = self.threshold;
        self.state.flush(threshold, &mut |t| out.emit(t.user, t));
    }
}

/// Map-only job 2: keep the first trace of each redundant run.
#[derive(Clone)]
pub struct DedupMapper {
    threshold_m: f64,
    last_kept: Option<MobilityTrace>,
}

impl Mapper<MobilityTrace> for DedupMapper {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        if let Some(t) = ctx.config.get_f64("dup.threshold") {
            self.threshold_m = t;
        }
    }

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        let keep = match &self.last_kept {
            Some(last) if last.user == value.user => {
                equirectangular_m(last.point, value.point) > self.threshold_m
            }
            _ => true,
        };
        if keep {
            out.emit(value.user, *value);
            self.last_kept = Some(*value);
        }
    }
}

/// Sequential reference for the whole preprocessing phase.
pub fn sequential_preprocess(dataset: &Dataset, cfg: &DjConfig) -> Dataset {
    let mut kept = Vec::new();
    for trail in dataset.trails() {
        let mut state = SpeedFilterState::default();
        let mut stationary = Vec::new();
        for t in trail.traces() {
            state.push(t, cfg.speed_threshold_mps, &mut |x| stationary.push(x));
        }
        state.flush(cfg.speed_threshold_mps, &mut |x| stationary.push(x));
        // Dedup.
        let mut last: Option<MobilityTrace> = None;
        for t in stationary {
            let keep = match &last {
                Some(l) => equirectangular_m(l.point, t.point) > cfg.dup_threshold_m,
                None => true,
            };
            if keep {
                kept.push(t);
                last = Some(t);
            }
        }
    }
    Dataset::from_traces(kept)
}

/// Runs the two pipelined preprocessing jobs (Figure 5) under a
/// `djcluster.preprocess` span, writing the filtered dataset to `output`
/// on the DFS and returning the Table IV counts. Each job runs under
/// [`gepeto_mapred::run_with_recovery`] with `ctx.retry`; the pipeline
/// hop itself is the checkpoint — a job death never re-runs the stage
/// before it.
pub fn mapreduce_preprocess(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    output: &str,
    cfg: &DjConfig,
    ctx: &RunCtx,
) -> Result<PreprocessStats, JobError> {
    let telemetry = &ctx.telemetry;
    let span = telemetry.span("djcluster.preprocess", &[("input", input)]);
    let input_count = dfs.num_records(input)?;
    let mut jobs = PipelineReport::new();

    // Job 1: filter moving traces.
    let speed_filter = SpeedFilterMapper {
        threshold: cfg.speed_threshold_mps,
        state: SpeedFilterState::default(),
    };
    let (stationary, stats1, r1) =
        map_traces("dj-filter-moving", cluster, dfs, input, speed_filter, ctx)?;
    let after_speed_filter = stationary.len();
    jobs.add(stats1);

    // Pipeline hop: job 1's output becomes job 2's input.
    let intermediate = format!("{output}.stationary");
    if dfs.exists(&intermediate) {
        dfs.delete(&intermediate)?;
    }
    dfs.put_with_sizer(&intermediate, stationary, |t| t.approx_plt_bytes())?;

    // Job 2: remove redundant consecutive traces.
    let dedup = DedupMapper {
        threshold_m: cfg.dup_threshold_m,
        last_kept: None,
    };
    let (deduped, stats2, r2) = map_traces("dj-dedup", cluster, dfs, &intermediate, dedup, ctx)?;
    let after_dedup = deduped.len();
    jobs.add(stats2);

    if dfs.exists(output) {
        dfs.delete(output)?;
    }
    dfs.put_with_sizer(output, deduped, |t| t.approx_plt_bytes())?;
    telemetry.point(
        "djcluster.preprocessed",
        after_dedup as f64,
        &[("input", input)],
    );
    span.end();
    Ok(PreprocessStats {
        input: input_count,
        after_speed_filter,
        after_dedup,
        jobs,
        job_retries: u64::from(r1 + r2),
    })
}

// ---------------------------------------------------------------------
// Phases 2–3: neighborhood identification + merging
// ---------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation).
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A neighborhood's sorted trace ids, delta-encoded as LEB128 varints:
/// the first id raw, every later one as the gap to its predecessor.
///
/// Neighborhood ids are dense indexes into the preprocessed input and the
/// R-tree returns spatially close traces, so the gaps are tiny — one or
/// two bytes each instead of the eight a raw `u64` costs. The shuffle of
/// the merge job is *nothing but* neighborhood payloads, so this encoding
/// directly cuts the job's simulated `shuffle_bytes`; the saving is
/// surfaced through [`builtin::SHUFFLE_BYTES_SAVED`]. Decoding streams
/// via [`EncodedNeighborhood::iter`], so the merge reducer never
/// materializes the raw `Vec<u64>` again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedNeighborhood {
    bytes: Vec<u8>,
}

impl EncodedNeighborhood {
    /// Encodes an ascending-sorted id list (the mapper sorts before
    /// emitting, exactly as the uncompressed path did).
    pub fn encode_sorted(ids: &[u64]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] <= w[1]), "ids must be sorted");
        let mut bytes = Vec::with_capacity(ids.len() * 2);
        let mut prev = 0u64;
        for &id in ids {
            write_varint(&mut bytes, id - prev);
            prev = id;
        }
        Self { bytes }
    }

    /// Encoded payload size in bytes — the job's `pair_bytes` sizer, and
    /// what the raw `8 * ids.len()` is compared against for the
    /// bytes-saved counter.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the neighborhood holds no ids.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Streaming decoder over the original ascending id sequence.
    pub fn iter(&self) -> NeighborhoodIds<'_> {
        NeighborhoodIds {
            bytes: &self.bytes,
            prev: 0,
        }
    }

    /// Decodes back to the id vector (tests and diagnostics; the hot
    /// path streams with [`Self::iter`]).
    pub fn decode(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for &'a EncodedNeighborhood {
    type Item = u64;
    type IntoIter = NeighborhoodIds<'a>;

    fn into_iter(self) -> NeighborhoodIds<'a> {
        self.iter()
    }
}

/// Iterator of [`EncodedNeighborhood::iter`]: reads one varint delta per
/// step and adds it to the running previous id.
#[derive(Debug, Clone)]
pub struct NeighborhoodIds<'a> {
    bytes: &'a [u8],
    prev: u64,
}

impl Iterator for NeighborhoodIds<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mut delta = 0u64;
        let mut shift = 0u32;
        loop {
            let (&b, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            delta |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        self.prev += delta;
        Some(self.prev)
    }
}

/// Algorithm 4: the neighborhood mapper. Loads the R-tree in `setup`,
/// queries each trace's radius-`r` neighborhood, marks sparse traces as
/// noise (via a counter), and emits `(const, neighborhood)` so a single
/// reducer sees every neighborhood. Payloads shuffle delta-encoded (see
/// [`EncodedNeighborhood`]); the bytes saved versus raw ids accumulate
/// into [`builtin::SHUFFLE_BYTES_SAVED`] on task cleanup.
#[derive(Clone)]
pub struct NeighborhoodMapper {
    radius_m: f64,
    min_pts: usize,
    rtree: Option<Arc<RTree<u64>>>,
    bytes_saved: u64,
    counters: Option<Counters>,
}

impl Mapper<MobilityTrace> for NeighborhoodMapper {
    type KOut = u8;
    type VOut = EncodedNeighborhood;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.rtree = Some(ctx.cache.expect(RTREE_CACHE_KEY));
        if let Some(r) = ctx.config.get_f64("dj.radius") {
            self.radius_m = r;
        }
        if let Some(m) = ctx.config.get_usize("dj.minpts") {
            self.min_pts = m;
        }
        self.counters = Some(ctx.counters.clone());
    }

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<u8, EncodedNeighborhood>,
    ) {
        let tree = self.rtree.as_ref().expect("setup ran");
        let mut neighborhood: Vec<u64> = tree
            .within_radius_m(value.point, self.radius_m)
            .iter()
            .map(|e| e.payload)
            .collect();
        if neighborhood.len() < self.min_pts {
            // markAsNoise: nothing shuffles; the driver counts it.
            return;
        }
        neighborhood.sort_unstable();
        let encoded = EncodedNeighborhood::encode_sorted(&neighborhood);
        self.bytes_saved += (8 * neighborhood.len()).saturating_sub(encoded.encoded_len()) as u64;
        out.emit(0, encoded);
    }

    fn cleanup(&mut self, _out: &mut Emitter<u8, EncodedNeighborhood>) {
        if let Some(c) = &self.counters {
            c.inc(builtin::SHUFFLE_BYTES_SAVED, self.bytes_saved);
        }
        self.bytes_saved = 0;
    }
}

/// Algorithm 5: the single merging reducer — union-find over trace ids
/// joins every pair of neighborhoods sharing a trace. Neighborhoods are
/// decoded in place off their varint payloads, and — there being a single
/// key — the reducer opts out of the shuffle sort.
#[derive(Clone)]
pub struct MergeReducer;

impl Reducer<u8, EncodedNeighborhood> for MergeReducer {
    type KOut = u32;
    type VOut = Vec<u64>;

    /// Every pair lands in the one `key = 0` group and the output is
    /// sorted internally, so sorted shuffle input buys nothing.
    const SORTED_INPUT: bool = false;

    fn reduce(
        &mut self,
        _key: &u8,
        values: &[EncodedNeighborhood],
        out: &mut Emitter<u32, Vec<u64>>,
    ) {
        let mut uf = UnionFind::default();
        for neighborhood in values {
            let mut ids = neighborhood.iter();
            let Some(first) = ids.next() else {
                continue;
            };
            uf.union(first, first);
            for id in ids {
                uf.union(first, id);
            }
        }
        let mut clusters: HashMap<u64, Vec<u64>> = HashMap::new();
        for neighborhood in values {
            for id in neighborhood {
                clusters.entry(uf.find(id)).or_default().push(id);
            }
        }
        let mut sorted: Vec<Vec<u64>> = clusters
            .into_values()
            .map(|mut members| {
                members.sort_unstable();
                members.dedup();
                members
            })
            .collect();
        sorted.sort();
        for (i, members) in sorted.into_iter().enumerate() {
            out.emit(i as u32, members);
        }
    }
}

#[derive(Default, Clone)]
struct UnionFind {
    parent: HashMap<u64, u64>,
}

impl UnionFind {
    fn find(&mut self, x: u64) -> u64 {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: u64, b: u64) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(rb, ra);
        }
    }
}

/// Statistics of the clustering phases (2 and 3).
#[derive(Debug, Clone)]
pub struct DjClusterStats {
    /// The neighborhood + merge job.
    pub cluster_job: JobStats,
    /// R-tree construction report (when built with MapReduce).
    pub rtree_report: Option<crate::rtree_build::RTreeBuildReport>,
    /// Whole-job re-submissions the neighborhood+merge job needed.
    pub job_retries: u64,
}

/// Runs DJ-Cluster phases 2–3 on an already-preprocessed `input` file,
/// under a `djcluster.cluster` span.
///
/// The R-tree over the input is built with the MapReduce pipeline of
/// [`crate::rtree_build`] when `rtree_cfg` is given, or directly
/// otherwise, then shipped to mappers through the distributed cache. The
/// neighborhood+merge job runs under [`gepeto_mapred::run_with_recovery`]
/// with `ctx.retry`; the R-tree lives in the driver, so it survives job
/// deaths and is not rebuilt on retry (its own build jobs take no retry
/// policy).
pub fn mapreduce_djcluster(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    cfg: &DjConfig,
    rtree_cfg: Option<&RTreeBuildConfig>,
    ctx: &RunCtx,
) -> Result<(Clustering, DjClusterStats), JobError> {
    let telemetry = &ctx.telemetry;
    let span = telemetry.span("djcluster.cluster", &[("input", input)]);
    let (rtree, rtree_report) = {
        let _rtree_span = telemetry.span("djcluster.rtree", &[]);
        match rtree_cfg {
            Some(rc) => {
                let (t, r) = mapreduce_build_rtree(cluster, dfs, input, rc)?;
                (t, Some(r))
            }
            None => (
                crate::rtree_build::direct_build_rtree(dfs, input, 16)?,
                None,
            ),
        }
    };
    let traces = dfs.read(input)?;

    let cache = {
        let mut c = DistributedCache::new();
        c.insert_arc(RTREE_CACHE_KEY, Arc::new(rtree));
        c
    };
    let mapper = NeighborhoodMapper {
        radius_m: cfg.radius_m,
        min_pts: cfg.min_pts,
        rtree: None,
        bytes_saved: 0,
        counters: None,
    };
    let (result, job_retries) = ctx.submit("dj-cluster", cluster, dfs, |name, dfs| {
        MapReduceJob::new(name, cluster, dfs, input, mapper.clone(), MergeReducer)
            .reducers(1) // the merge "must be done by a centralized entity"
            .cache(cache.clone())
            .pair_bytes(|_, n| n.encoded_len())
            .telemetry(telemetry.clone())
            .run()
    })?;

    let clusters: Vec<Vec<MobilityTrace>> = result
        .output
        .iter()
        .map(|(_, members)| members.iter().map(|&id| traces[id as usize]).collect())
        .collect();
    let clustered: usize = clusters.iter().map(Vec::len).sum();
    let noise = traces.len() - clustered;
    telemetry.point(
        "djcluster.clusters",
        clusters.len() as f64,
        &[("noise", &noise.to_string())],
    );
    span.end();
    Ok((
        Clustering { clusters, noise },
        DjClusterStats {
            cluster_job: result.stats,
            rtree_report,
            job_retries: u64::from(job_retries),
        },
    ))
}

/// Exact sequential reference for phases 2–3.
pub fn sequential_djcluster(traces: &[MobilityTrace], cfg: &DjConfig) -> Clustering {
    let items: Vec<(gepeto_model::GeoPoint, u64)> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| (t.point, i as u64))
        .collect();
    let tree = RTree::bulk_load(items);
    let mut uf = UnionFind::default();
    let mut dense: Vec<Vec<u64>> = Vec::new();
    for t in traces.iter() {
        let mut n: Vec<u64> = tree
            .within_radius_m(t.point, cfg.radius_m)
            .iter()
            .map(|e| e.payload)
            .collect();
        if n.len() < cfg.min_pts {
            continue;
        }
        n.sort_unstable();
        dense.push(n);
    }
    for n in &dense {
        let first = n[0];
        for &id in n {
            uf.union(first, id);
        }
    }
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    for n in &dense {
        for &id in n {
            groups.entry(uf.find(id)).or_default().push(id);
        }
    }
    let mut clusters: Vec<Vec<MobilityTrace>> = groups
        .into_values()
        .map(|mut members| {
            members.sort_unstable();
            members.dedup();
            members.iter().map(|&i| traces[i as usize]).collect()
        })
        .collect();
    clusters.sort_by_key(|c: &Vec<MobilityTrace>| {
        c.first().map(|t| (t.user, t.timestamp)).unwrap_or_default()
    });
    let clustered: usize = clusters.iter().map(Vec::len).sum();
    Clustering {
        clusters,
        noise: traces.len() - clustered,
    }
}

/// End-to-end convenience: preprocess then cluster, returning everything,
/// with all phase timings captured under a root `djcluster` span. Both
/// stages run under `ctx` (see [`mapreduce_preprocess`] and
/// [`mapreduce_djcluster`]); each stage's stats count its own
/// re-submissions.
pub fn mapreduce_djcluster_full(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    cfg: &DjConfig,
    rtree_cfg: Option<&RTreeBuildConfig>,
    ctx: &RunCtx,
) -> Result<(Clustering, PreprocessStats, DjClusterStats), JobError> {
    let span = ctx.telemetry.span("djcluster", &[("input", input)]);
    let pre_name = format!("{input}.preprocessed");
    if dfs.exists(&pre_name) {
        dfs.delete(&pre_name)?;
    }
    let pre = mapreduce_preprocess(cluster, dfs, input, &pre_name, cfg, ctx)?;
    let (clustering, stats) = mapreduce_djcluster(cluster, dfs, &pre_name, cfg, rtree_cfg, ctx)?;
    span.end();
    Ok((clustering, pre, stats))
}

/// [`mapreduce_djcluster_full`] with telemetry only — the signature the
/// `perfbench/` benchmark calls.
pub fn mapreduce_djcluster_full_with(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    cfg: &DjConfig,
    rtree_cfg: Option<&RTreeBuildConfig>,
    telemetry: &Recorder,
) -> Result<(Clustering, PreprocessStats, DjClusterStats), JobError> {
    mapreduce_djcluster_full(cluster, dfs, input, cfg, rtree_cfg, &telemetry.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_model::{GeoPoint, Timestamp};

    /// A trail that dwells at two spots with a fast trip in between.
    fn dwell_trip_dwell() -> Dataset {
        let mut traces = Vec::new();
        let spot_a = GeoPoint::new(39.90, 116.40);
        let spot_b = GeoPoint::new(39.92, 116.42);
        let mut t = 0i64;
        // Dwell A: 20 samples, 5 s apart, ~2 m GPS wobble (slow enough for
        // the speed filter, wide enough for the 0.5 m dedup threshold).
        for i in 0..20 {
            let p = GeoPoint::new(spot_a.lat + (i % 3) as f64 * 2e-5, spot_a.lon);
            traces.push(MobilityTrace::new(1, p, Timestamp(t)));
            t += 5;
        }
        // Trip: 10 samples at ~10 m/s.
        for i in 1..=10 {
            let frac = i as f64 / 10.0;
            let p = GeoPoint::new(
                spot_a.lat + (spot_b.lat - spot_a.lat) * frac,
                spot_a.lon + (spot_b.lon - spot_a.lon) * frac,
            );
            t += 30;
            traces.push(MobilityTrace::new(1, p, Timestamp(t)));
        }
        // Dwell B.
        for i in 0..20 {
            let p = GeoPoint::new(spot_b.lat, spot_b.lon + (i % 3) as f64 * 2e-5);
            t += 5;
            traces.push(MobilityTrace::new(1, p, Timestamp(t)));
        }
        Dataset::from_traces(traces)
    }

    #[test]
    fn speed_filter_drops_the_trip() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let pre = sequential_preprocess(&ds, &cfg);
        // The ~10 trip traces are gone; most dwell traces survive
        // (dedup may eat a few of the jittered dwell points).
        assert!(pre.num_traces() >= 30, "{}", pre.num_traces());
        assert!(pre.num_traces() < 45, "{}", pre.num_traces());
    }

    #[test]
    fn dedup_removes_exact_repeats() {
        let p = GeoPoint::new(39.9, 116.4);
        let traces: Vec<MobilityTrace> = (0..10)
            .map(|i| MobilityTrace::new(1, p, Timestamp(i * 60)))
            .collect();
        let ds = Dataset::from_traces(traces);
        let pre = sequential_preprocess(&ds, &DjConfig::default());
        assert_eq!(pre.num_traces(), 1);
    }

    #[test]
    fn mapreduce_preprocess_matches_sequential_single_chunk() {
        let ds = dwell_trip_dwell();
        let cluster = Cluster::local(2, 2);
        let mut dfs = trace_dfs(&cluster, 1 << 20);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = DjConfig::default();
        let stats =
            mapreduce_preprocess(&cluster, &mut dfs, "d", "out", &cfg, &RunCtx::default()).unwrap();
        let seq = sequential_preprocess(&ds, &cfg);
        assert_eq!(stats.input, ds.num_traces());
        assert_eq!(stats.after_dedup, seq.num_traces());
        assert!(stats.after_speed_filter >= stats.after_dedup);
        assert_eq!(stats.jobs.num_jobs(), 2);
        let out = crate::dfs_io::read_dataset(&dfs, "out").unwrap();
        assert_eq!(out, seq);
    }

    #[test]
    fn clustering_finds_the_two_dwell_spots() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig {
            radius_m: 50.0,
            min_pts: 4,
            ..DjConfig::default()
        };
        let pre = sequential_preprocess(&ds, &cfg);
        let clustering = sequential_djcluster(&pre.to_traces(), &cfg);
        assert_eq!(clustering.clusters.len(), 2, "noise={}", clustering.noise);
        for c in &clustering.clusters {
            assert!(c.len() >= cfg.min_pts);
        }
    }

    #[test]
    fn clusters_are_non_overlapping() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let pre = sequential_preprocess(&ds, &cfg);
        let clustering = sequential_djcluster(&pre.to_traces(), &cfg);
        let mut seen = std::collections::HashSet::new();
        for c in &clustering.clusters {
            for t in c {
                assert!(
                    seen.insert((t.user, t.timestamp.secs(), t.point.lat.to_bits())),
                    "trace in two clusters"
                );
            }
        }
    }

    #[test]
    fn sparse_points_are_noise() {
        // 3 isolated points: all noise under min_pts = 4.
        let traces: Vec<MobilityTrace> = (0..3)
            .map(|i| {
                MobilityTrace::new(
                    1,
                    GeoPoint::new(39.0 + i as f64, 116.0),
                    Timestamp(i as i64 * 1000),
                )
            })
            .collect();
        let clustering = sequential_djcluster(&traces, &DjConfig::default());
        assert!(clustering.clusters.is_empty());
        assert_eq!(clustering.noise, 3);
    }

    #[test]
    fn mapreduce_clustering_equals_sequential() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 1_024); // multiple chunks
        let pre = sequential_preprocess(&ds, &cfg);
        put_dataset(&mut dfs, "pre", &pre).unwrap();
        let (mr, stats) =
            mapreduce_djcluster(&cluster, &mut dfs, "pre", &cfg, None, &RunCtx::default()).unwrap();
        let seq = sequential_djcluster(&dfs.read("pre").unwrap(), &cfg);
        assert_eq!(mr.canonical_ids(), seq.canonical_ids());
        assert_eq!(mr.noise, seq.noise);
        assert_eq!(stats.cluster_job.reduce_tasks, 1, "single merging reducer");
    }

    #[test]
    fn varint_delta_roundtrips_sorted_id_lists() {
        // Deterministic xorshift over assorted list shapes, plus edge
        // values straddling every varint byte-length boundary.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 0],
            vec![127, 128, 16_383, 16_384, 2_097_151, 2_097_152],
            vec![u64::MAX - 1, u64::MAX],
            vec![0, u64::MAX],
        ];
        for len in [1usize, 2, 17, 300] {
            let mut ids: Vec<u64> = (0..len).map(|_| rand() % 1_000_000).collect();
            ids.sort_unstable();
            cases.push(ids);
        }
        for ids in cases {
            let enc = EncodedNeighborhood::encode_sorted(&ids);
            assert_eq!(enc.decode(), ids, "roundtrip failed for {ids:?}");
            assert_eq!(enc.is_empty(), ids.is_empty());
            // Streaming twice gives the same sequence (iter borrows).
            assert_eq!(enc.iter().count(), ids.len());
        }
    }

    #[test]
    fn delta_encoding_beats_raw_ids_on_dense_neighborhoods() {
        // Dense index neighborhoods — the real shape after preprocessing.
        let ids: Vec<u64> = (100..600).collect();
        let enc = EncodedNeighborhood::encode_sorted(&ids);
        let raw = 8 * ids.len();
        assert!(
            enc.encoded_len() * 3 < raw,
            "encoded {} vs raw {raw}",
            enc.encoded_len()
        );
    }

    #[test]
    fn clustering_shuffle_is_compressed_and_sort_skipped() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 1_024);
        let pre = sequential_preprocess(&ds, &cfg);
        put_dataset(&mut dfs, "pre", &pre).unwrap();
        let (_, stats) =
            mapreduce_djcluster(&cluster, &mut dfs, "pre", &cfg, None, &RunCtx::default()).unwrap();
        let saved = stats.cluster_job.counters[builtin::SHUFFLE_BYTES_SAVED];
        assert!(saved > 0, "compression saved nothing");
        // The encoded shuffle plus the saving reconstructs the raw size,
        // and the encoding wins by a wide margin on dense indexes.
        let shuffled = stats.cluster_job.sim.shuffle_bytes;
        assert!(
            saved >= 2 * shuffled,
            "saved {saved} vs shuffled {shuffled}"
        );
        // The single-key merge reducer skips the shuffle sort.
        assert_eq!(stats.cluster_job.counters[builtin::SORT_SKIPPED], 1);
    }

    #[test]
    fn mapreduce_clustering_with_mapreduce_rtree() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 1_024);
        let pre = sequential_preprocess(&ds, &cfg);
        put_dataset(&mut dfs, "pre", &pre).unwrap();
        let rc = RTreeBuildConfig {
            partitions: 3,
            ..RTreeBuildConfig::default()
        };
        let (mr, stats) = mapreduce_djcluster(
            &cluster,
            &mut dfs,
            "pre",
            &cfg,
            Some(&rc),
            &RunCtx::default(),
        )
        .unwrap();
        let seq = sequential_djcluster(&dfs.read("pre").unwrap(), &cfg);
        assert_eq!(mr.canonical_ids(), seq.canonical_ids());
        assert!(stats.rtree_report.is_some());
    }

    #[test]
    fn full_pipeline_runs_end_to_end() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(2, 2);
        let mut dfs = trace_dfs(&cluster, 1 << 16);
        put_dataset(&mut dfs, "raw", &ds).unwrap();
        let (clustering, pre, _) =
            mapreduce_djcluster_full(&cluster, &mut dfs, "raw", &cfg, None, &RunCtx::default())
                .unwrap();
        assert_eq!(pre.input, ds.num_traces());
        assert!(pre.after_dedup <= pre.after_speed_filter);
        assert_eq!(clustering.clusters.len(), 2);
    }

    #[test]
    fn empty_input_clusters_to_nothing() {
        let clustering = sequential_djcluster(&[], &DjConfig::default());
        assert!(clustering.clusters.is_empty());
        assert_eq!(clustering.noise, 0);
    }
}
