//! k-means clustering (§VI, Figure 4, Tables II–III).
//!
//! The MapReduce formulation implements **each iteration as one MapReduce
//! job**: the map phase assigns every mobility trace to its closest
//! centroid (Algorithm 1), the reduce phase averages each cluster's
//! points into the new centroid (Algorithm 2), and the driver
//! (Algorithm 3) iterates until the centroids stabilize or `maxIter` is
//! reached. The initialization "requires no distribution because it is
//! computationally cheap": k random traces are drawn on a single node.
//!
//! The related-work optimization §VI discusses — a **combiner** that
//! pre-sums each mapper's points locally so only one partial sum per
//! (mapper, cluster) is shuffled — is available via
//! [`KMeansConfig::use_combiner`].
//!
//! ```
//! use gepeto::kmeans::{sequential_kmeans, KMeansConfig};
//! use gepeto_geo::DistanceMetric;
//! use gepeto_model::GeoPoint;
//!
//! // Two obvious blobs.
//! let mut points = Vec::new();
//! for i in 0..20 {
//!     points.push(GeoPoint::new(39.90 + i as f64 * 1e-4, 116.40));
//!     points.push(GeoPoint::new(39.99 + i as f64 * 1e-4, 116.49));
//! }
//! let cfg = KMeansConfig { k: 2, convergence_delta: 1e-9, ..KMeansConfig::paper(DistanceMetric::SquaredEuclidean) };
//! let result = sequential_kmeans(&points, &cfg);
//! assert!(result.converged);
//! assert_eq!(result.centroids.len(), 2);
//! ```

use crate::RunCtx;
use gepeto_geo::{assign_points_pooled, CentroidsSoa, ClusterSum, DistanceMetric, PointsSoa};
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{
    Cluster, Counters, Dfs, DistributedCache, Emitter, JobConfig, JobError, JobStats, JournalEntry,
    MapReduceJob, Mapper, Reducer, RunJournal, TaskContext,
};
use gepeto_model::{GeoPoint, MobilityTrace};
use gepeto_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Cache key under which the current centroids are shipped to mappers
/// (the paper's mappers `load from file` in `setup`; the distributed
/// cache is our file).
pub const CENTROIDS_CACHE_KEY: &str = "kmeans.centroids";

/// The runtime arguments of the paper's Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters (`k`); the paper's experiments use 11.
    pub k: usize,
    /// `distanceMeasure`: squared Euclidean or Haversine in the paper.
    pub distance: DistanceMetric,
    /// `convergencedelta`: iteration stops when no centroid moves more
    /// than this (units of `distance`); the paper uses 0.5.
    pub convergence_delta: f64,
    /// `maxIter`: hard iteration cap; the paper uses 150.
    pub max_iterations: usize,
    /// Seed of the single-node random initialization.
    pub seed: u64,
    /// Enables the map-side combiner (§VI related work).
    pub use_combiner: bool,
    /// Shuffle memory budget in bytes: iteration jobs whose map output
    /// exceeds it spill sorted runs to local disk instead of holding the
    /// whole partition in memory. `None` keeps the all-in-memory path.
    pub memory_budget: Option<usize>,
}

impl KMeansConfig {
    /// The paper's runtime arguments: k = 11, delta = 0.5, maxIter = 150.
    pub fn paper(distance: DistanceMetric) -> Self {
        Self {
            k: 11,
            distance,
            convergence_delta: 0.5,
            max_iterations: 150,
            seed: 2,
            use_combiner: false,
            memory_budget: None,
        }
    }
}

/// Statistics of one k-means iteration (one MapReduce job).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Largest centroid movement in this iteration (metric units).
    pub max_shift: f64,
    /// The iteration job's engine statistics.
    pub job: JobStats,
}

/// The outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids, cluster id = index.
    pub centroids: Vec<GeoPoint>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the convergence delta was reached before `maxIter`.
    pub converged: bool,
    /// Per-iteration job statistics (empty for the sequential runner).
    pub per_iteration: Vec<IterationStats>,
    /// Whole-job re-submissions the driver needed (0 for the sequential
    /// runner and whenever the retry policy is
    /// [`gepeto_mapred::RetryPolicy::none`]).
    pub job_retries: u64,
}

/// Partial sum of points assigned to one cluster — the intermediate
/// value type. With the combiner enabled, one of these per
/// (mapper, cluster) is all that crosses the shuffle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSum {
    /// Sum of latitudes.
    pub lat_sum: f64,
    /// Sum of longitudes.
    pub lon_sum: f64,
    /// Number of points accumulated.
    pub count: u64,
}

impl PointSum {
    fn of(p: GeoPoint) -> Self {
        Self {
            lat_sum: p.lat,
            lon_sum: p.lon,
            count: 1,
        }
    }

    fn add(&mut self, other: &Self) {
        self.lat_sum += other.lat_sum;
        self.lon_sum += other.lon_sum;
        self.count += other.count;
    }

    fn mean(&self) -> Option<GeoPoint> {
        (self.count > 0).then(|| {
            GeoPoint::new(
                self.lat_sum / self.count as f64,
                self.lon_sum / self.count as f64,
            )
        })
    }
}

/// Index of the centroid closest to `p` under `metric`.
pub fn nearest_centroid(p: GeoPoint, centroids: &[GeoPoint], metric: DistanceMetric) -> u32 {
    debug_assert!(!centroids.is_empty());
    let mut best = 0u32;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = metric.between(p, *c);
        if d < best_d {
            best_d = d;
            best = i as u32;
        }
    }
    best
}

/// Assigns every point to its nearest centroid (final labeling pass).
///
/// Runs on the columnar [`CentroidsSoa`] kernel — the centroid-side
/// trigonometry is hoisted out of the per-point loop, while the argmin is
/// bit-identical to [`nearest_centroid`]. Chunks fan out over the global
/// work-stealing pool; labels come back in input order regardless of the
/// thread count.
pub fn assign_points(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> Vec<u32> {
    let soa = CentroidsSoa::new(centroids, metric);
    assign_points_pooled(points, &soa)
}

/// Single-node random initialization: k distinct traces from the input
/// (k is clamped to the dataset size).
pub fn initial_centroids(points: &[GeoPoint], k: usize, seed: u64) -> Vec<GeoPoint> {
    assert!(!points.is_empty(), "cannot initialize k-means on no points");
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);
    // Partial Fisher–Yates over indices.
    let mut indices: Vec<usize> = (0..points.len()).collect();
    for i in 0..k {
        let j = rng.random_range(i..indices.len());
        indices.swap(i, j);
    }
    indices[..k].iter().map(|&i| points[i]).collect()
}

/// The chunk size of the sequential assign+sum reduction. Chunk results
/// are folded in chunk order, so the accumulation order (and hence the
/// floating-point result) is independent of the worker count.
const SEQ_CHUNK: usize = 16_384;

/// Turns per-cluster [`ClusterSum`]s into new centroids; clusters that
/// received no point keep their previous centroid.
fn sums_to_centroids(sums: &[ClusterSum], centroids: &[GeoPoint]) -> Vec<GeoPoint> {
    sums.iter()
        .zip(centroids)
        .map(|(s, &old)| {
            if s.count > 0 {
                GeoPoint::new(s.lat_sum / s.count as f64, s.lon_sum / s.count as f64)
            } else {
                old
            }
        })
        .collect()
}

/// One sequential assignment+update step; returns the new centroids.
/// Empty clusters keep their previous centroid.
///
/// Runs the fused assign + partial-sum kernel of [`CentroidsSoa`]: one
/// pass per chunk that both assigns and accumulates, with the same
/// chunking and fold order (and therefore bit-identical centroids) as
/// the original two-pass loop.
pub fn sequential_iteration(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> Vec<GeoPoint> {
    let k = centroids.len();
    let soa = CentroidsSoa::new(centroids, metric);
    let chunks: Vec<&[GeoPoint]> = points.chunks(SEQ_CHUNK).collect();
    let partials = gepeto_pool::global().map_indexed(chunks.len(), |c| {
        let mut local = vec![ClusterSum::default(); k];
        soa.assign_sum_points(chunks[c], &mut local);
        local
    });
    sums_to_centroids(&merge_chunk_sums(partials, k), centroids)
}

/// Folds per-chunk partial sums **in chunk order** — the fixed
/// accumulation order that keeps centroids bit-identical at any thread
/// count (and to the pre-pool sequential reduction).
fn merge_chunk_sums(partials: Vec<Vec<ClusterSum>>, k: usize) -> Vec<ClusterSum> {
    let mut total = vec![ClusterSum::default(); k];
    for partial in &partials {
        for (t, p) in total.iter_mut().zip(partial) {
            t.merge(p);
        }
    }
    total
}

/// [`sequential_iteration`] over pre-split coordinate columns — what
/// [`sequential_kmeans`] runs so the lat/lon split is paid once for the
/// whole run, not once per iteration. Same chunking, same fold order,
/// bit-identical centroids.
fn columnar_iteration(
    cols: &PointsSoa,
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> Vec<GeoPoint> {
    let k = centroids.len();
    let soa = CentroidsSoa::new(centroids, metric);
    let lat_chunks: Vec<&[f64]> = cols.lat.chunks(SEQ_CHUNK).collect();
    let lon_chunks: Vec<&[f64]> = cols.lon.chunks(SEQ_CHUNK).collect();
    let partials = gepeto_pool::global().map_indexed(lat_chunks.len(), |c| {
        let mut local = vec![ClusterSum::default(); k];
        soa.assign_sum(lat_chunks[c], lon_chunks[c], &mut local);
        local
    });
    sums_to_centroids(&merge_chunk_sums(partials, k), centroids)
}

/// The full sequential baseline.
pub fn sequential_kmeans(points: &[GeoPoint], cfg: &KMeansConfig) -> KMeansResult {
    let mut centroids = initial_centroids(points, cfg.k, cfg.seed);
    let cols = PointsSoa::from_points(points);
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.max_iterations {
        let next = columnar_iteration(&cols, &centroids, cfg.distance);
        iterations += 1;
        let shift = max_shift(&centroids, &next, cfg.distance);
        centroids = next;
        if shift <= cfg.convergence_delta {
            converged = true;
            break;
        }
    }
    KMeansResult {
        centroids,
        iterations,
        converged,
        per_iteration: Vec::new(),
        job_retries: 0,
    }
}

/// Mean distance from each point to its assigned centroid — the
/// objective k-means descends; used to pick the best restart.
pub fn within_cluster_cost(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    // Chunks run on the pool; the final sum folds every per-point
    // distance in input order (not per-chunk partials), reproducing the
    // sequential accumulation bit for bit at any thread count.
    let chunks: Vec<&[GeoPoint]> = points.chunks(SEQ_CHUNK).collect();
    let per_chunk: Vec<Vec<f64>> = gepeto_pool::global().map_indexed(chunks.len(), |i| {
        chunks[i]
            .iter()
            .map(|&p| {
                centroids
                    .iter()
                    .map(|&c| metric.between(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    });
    let total: f64 = per_chunk.iter().flatten().sum();
    total / points.len() as f64
}

/// Runs [`sequential_kmeans`] `restarts` times with seeds
/// `cfg.seed..cfg.seed + restarts` and keeps the run with the lowest
/// [`within_cluster_cost`] — the standard defense against the local
/// minima the paper lists among k-means' limitations.
pub fn sequential_kmeans_restarts(
    points: &[GeoPoint],
    cfg: &KMeansConfig,
    restarts: usize,
) -> KMeansResult {
    assert!(restarts >= 1);
    (0..restarts as u64)
        .map(|i| {
            sequential_kmeans(
                points,
                &KMeansConfig {
                    seed: cfg.seed + i,
                    ..cfg.clone()
                },
            )
        })
        .min_by(|a, b| {
            within_cluster_cost(points, &a.centroids, cfg.distance)
                .partial_cmp(&within_cluster_cost(points, &b.centroids, cfg.distance))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one restart")
}

fn max_shift(old: &[GeoPoint], new: &[GeoPoint], metric: DistanceMetric) -> f64 {
    old.iter()
        .zip(new)
        .map(|(&a, &b)| metric.between(a, b))
        .fold(0.0, f64::max)
}

/// Algorithm 1: the assignment mapper. Loads the centroids in `setup`,
/// assigns each trace through the columnar [`CentroidsSoa`] kernel, and
/// (when the combiner is off) emits one `PointSum` per trace.
///
/// Distance evaluations are accumulated locally and flushed to the
/// [`builtin::DISTANCE_EVALS`] counter in `cleanup`, so the hot loop
/// never touches the shared counter lock.
#[derive(Clone)]
pub struct KMeansMapper {
    metric: DistanceMetric,
    soa: Arc<CentroidsSoa>,
    distance_evals: u64,
    counters: Option<Counters>,
}

impl KMeansMapper {
    fn new(metric: DistanceMetric) -> Self {
        Self {
            metric,
            soa: Arc::new(CentroidsSoa::new(&[], metric)),
            distance_evals: 0,
            counters: None,
        }
    }
}

impl Mapper<MobilityTrace> for KMeansMapper {
    type KOut = u32;
    type VOut = PointSum;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        let centroids = ctx.cache.expect::<Vec<GeoPoint>>(CENTROIDS_CACHE_KEY);
        let metric = ctx
            .config
            .get("distanceMeasure")
            .and_then(DistanceMetric::parse);
        if let Some(m) = metric {
            self.metric = m;
        }
        self.soa = Arc::new(CentroidsSoa::new(&centroids, self.metric));
        self.counters = Some(ctx.counters.clone());
    }

    fn map(&mut self, _offset: u64, value: &MobilityTrace, out: &mut Emitter<u32, PointSum>) {
        let cid = self.soa.nearest(value.point);
        self.distance_evals += self.soa.len() as u64;
        out.emit(cid, PointSum::of(value.point));
    }

    fn cleanup(&mut self, _out: &mut Emitter<u32, PointSum>) {
        if let Some(c) = &self.counters {
            c.inc(builtin::DISTANCE_EVALS, self.distance_evals);
        }
        self.distance_evals = 0;
    }
}

/// The §VI combiner: sums all `PointSum`s a single mapper produced for a
/// cluster, making the shuffled volume independent of the chunk size.
#[derive(Clone, Copy)]
pub struct KMeansCombiner;

impl gepeto_mapred::Combiner<u32, PointSum> for KMeansCombiner {
    fn combine(&mut self, _key: &u32, values: &[PointSum]) -> Vec<PointSum> {
        let mut acc = PointSum {
            lat_sum: 0.0,
            lon_sum: 0.0,
            count: 0,
        };
        for v in values {
            acc.add(v);
        }
        vec![acc]
    }
}

/// Algorithm 2: the update reducer — averages a cluster's points into the
/// new centroid.
///
/// Declares `SORTED_INPUT = false`: each cluster id is reduced
/// independently and the driver writes the result by id, so key-ordered
/// groups buy nothing — the engine skips the partition sort.
#[derive(Clone)]
pub struct KMeansReducer;

impl Reducer<u32, PointSum> for KMeansReducer {
    type KOut = u32;
    type VOut = GeoPoint;
    const SORTED_INPUT: bool = false;

    fn reduce(&mut self, key: &u32, values: &[PointSum], out: &mut Emitter<u32, GeoPoint>) {
        let mut acc = PointSum {
            lat_sum: 0.0,
            lon_sum: 0.0,
            count: 0,
        };
        for v in values {
            acc.add(v);
        }
        if let Some(mean) = acc.mean() {
            out.emit(*key, mean);
        }
    }
}

/// Algorithm 3: the driver — one MapReduce job per iteration until
/// convergence or `maxIter` (Figure 4's workflow).
///
/// The run is wrapped in a `kmeans` span, every iteration gets a
/// `kmeans.iteration` child span, and the centroid movement is recorded
/// as a `kmeans.shift` point — the convergence trajectory Figure 4's
/// workflow monitors.
///
/// Each iteration's job runs under [`gepeto_mapred::run_with_recovery`]
/// with `ctx.retry`: the loop keeps the last good centroids outside the
/// job, so a whole-job death costs one attempt, not the run. Healing
/// re-places replicas, hence `&mut` DFS.
///
/// With a `journal` the run is crash-safe: each iteration is a uniquely
/// named job (`kmeans-i{n:03}`, else `kmeans-iteration`) whose reduce
/// partitions are committed into the run directory, and each finished
/// iteration's centroids are checkpointed into the journal bit-exactly.
/// A resumed run restores the last checkpoint and the in-flight
/// iteration replays its committed partitions, so a SIGKILL anywhere
/// lands on the same final centroids. Unique names are load-bearing:
/// reduce artifacts are keyed by job name, so a reused name would replay
/// a stale iteration's output on resume.
///
/// `per_iteration` holds only the iterations executed by *this*
/// process; checkpoint-restored iterations contribute no stats.
pub fn mapreduce_kmeans(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    cfg: &KMeansConfig,
    journal: Option<&Arc<RunJournal>>,
    ctx: &RunCtx,
) -> Result<KMeansResult, JobError> {
    let telemetry = &ctx.telemetry;
    let run_span = telemetry.span("kmeans", &[("input", input), ("k", &cfg.k.to_string())]);
    let restored = journal
        .and_then(|j| j.last_checkpoint(KMEANS_CHECKPOINT_LABEL))
        .and_then(|p| decode_kmeans_checkpoint(&p));
    let (mut iterations, mut converged, mut centroids) = match restored {
        Some(state) => state,
        None => (0, false, sample_points(dfs, input, cfg.k, cfg.seed)?),
    };
    if iterations > 0 {
        telemetry.point("kmeans.resumed", iterations as f64, &[("input", input)]);
    }
    let mut per_iteration = Vec::new();
    let mut job_retries = 0u64;
    while !converged && iterations < cfg.max_iterations {
        // `span()` (not `run_span.child()`) so the iteration enters the
        // recorder's context stack and the iteration's job span nests
        // under it on the critical path.
        let iter_span = telemetry.span(
            "kmeans.iteration",
            &[("iter", &(iterations + 1).to_string())],
        );
        let job_name = match journal {
            Some(_) => format!("kmeans-i{:03}", iterations + 1),
            None => "kmeans-iteration".to_string(),
        };
        let ((next, job), retries) = ctx.submit(&job_name, cluster, dfs, |name, dfs| {
            iteration_job(
                name, cluster, dfs, input, &centroids, cfg, journal, telemetry,
            )
        })?;
        job_retries += u64::from(retries);
        iterations += 1;
        let shift = max_shift(&centroids, &next, cfg.distance);
        telemetry.point("kmeans.shift", shift, &[("iter", &iterations.to_string())]);
        if let Some(m) = telemetry.monitor() {
            m.set_driver_progress(iterations as u64, shift);
        }
        centroids = next;
        converged = shift <= cfg.convergence_delta;
        if let Some(j) = journal {
            j.append(&JournalEntry::Checkpoint {
                label: KMEANS_CHECKPOINT_LABEL.to_string(),
                payload: encode_kmeans_checkpoint(iterations, converged, &centroids),
            })
            .map_err(JobError::Io)?;
        }
        iter_span.end();
        per_iteration.push(IterationStats {
            iteration: iterations,
            max_shift: shift,
            job,
        });
    }
    run_span.end();
    Ok(KMeansResult {
        centroids,
        iterations,
        converged,
        per_iteration,
        job_retries,
    })
}

/// [`mapreduce_kmeans`] with telemetry only, over a shared DFS (run on a
/// metadata-only clone) — the signature the `perfbench/` benchmark calls.
pub fn mapreduce_kmeans_with(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &KMeansConfig,
    telemetry: &Recorder,
) -> Result<KMeansResult, JobError> {
    let ctx = RunCtx::from(telemetry);
    mapreduce_kmeans(cluster, &mut dfs.clone(), input, cfg, None, &ctx)
}

/// Journal label under which [`mapreduce_kmeans`] checkpoints each
/// finished iteration's centroids.
pub const KMEANS_CHECKPOINT_LABEL: &str = "kmeans";

/// Encodes `(iteration, converged, centroids)` as the checkpoint
/// payload: centroid floats travel as hex bit patterns, so the decoded
/// state is the same bits the driver checkpointed.
fn encode_kmeans_checkpoint(iteration: usize, converged: bool, centroids: &[GeoPoint]) -> String {
    let mut s = format!("{iteration} {}", u8::from(converged));
    for c in centroids {
        s.push_str(&format!(
            " {:016x}:{:016x}",
            c.lat.to_bits(),
            c.lon.to_bits()
        ));
    }
    s
}

fn decode_kmeans_checkpoint(payload: &str) -> Option<(usize, bool, Vec<GeoPoint>)> {
    let mut parts = payload.split(' ');
    let iteration = parts.next()?.parse().ok()?;
    let converged = parts.next()? == "1";
    let mut centroids = Vec::new();
    for pair in parts {
        let (lat, lon) = pair.split_once(':')?;
        centroids.push(GeoPoint::new(
            f64::from_bits(u64::from_str_radix(lat, 16).ok()?),
            f64::from_bits(u64::from_str_radix(lon, 16).ok()?),
        ));
    }
    Some((iteration, converged, centroids))
}

/// One MapReduce k-means iteration: assignment (map) + update (reduce).
pub fn mapreduce_iteration(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    centroids: &[GeoPoint],
    cfg: &KMeansConfig,
) -> Result<(Vec<GeoPoint>, JobStats), JobError> {
    iteration_job(
        "kmeans-iteration",
        cluster,
        dfs,
        input,
        centroids,
        cfg,
        None,
        &Recorder::disabled(),
    )
}

/// The iteration job under `job_name`, optionally committing its reduce
/// partitions into a run journal.
#[allow(clippy::too_many_arguments)]
fn iteration_job(
    job_name: &str,
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    centroids: &[GeoPoint],
    cfg: &KMeansConfig,
    journal: Option<&Arc<RunJournal>>,
    telemetry: &Recorder,
) -> Result<(Vec<GeoPoint>, JobStats), JobError> {
    let cache = DistributedCache::new().with(CENTROIDS_CACHE_KEY, centroids.to_vec());
    let config = JobConfig::new()
        .set("k", cfg.k)
        .set(
            "distanceMeasure",
            format!("{:?}", cfg.distance).to_lowercase(),
        )
        .set("convergencedelta", cfg.convergence_delta)
        .set("maxIter", cfg.max_iterations);
    let mapper = KMeansMapper::new(cfg.distance);
    let job = MapReduceJob::new(job_name, cluster, dfs, input, mapper, KMeansReducer)
        .reducers(cluster.topology.num_nodes())
        .config(config)
        .cache(cache)
        .telemetry(telemetry.clone())
        .pair_bytes(|_, _| std::mem::size_of::<(u32, PointSum)>());
    let job = match cfg.memory_budget {
        Some(bytes) => job.memory_budget_with(bytes, crate::spill_codecs::point_sum_codec()),
        None => job.spill_codec(crate::spill_codecs::point_sum_codec()),
    };
    let job = match journal {
        Some(j) => job.durable_with(j.clone(), crate::spill_codecs::centroid_codec()),
        None => job,
    };
    let result = if cfg.use_combiner {
        job.with_combiner(KMeansCombiner).run()?
    } else {
        job.run()?
    };
    // Clusters that received no point keep their previous centroid.
    let mut next = centroids.to_vec();
    for (cid, mean) in result.output {
        next[cid as usize] = mean;
    }
    Ok((next, result.stats))
}

/// Draws `k` traces from the input file without reading it entirely —
/// the paper's cheap single-node initialization.
fn sample_points(
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    k: usize,
    seed: u64,
) -> Result<Vec<GeoPoint>, JobError> {
    let total = dfs.num_records(input)?;
    assert!(total > 0, "cannot initialize k-means on an empty file");
    let k = k.min(total);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picks: Vec<usize> = Vec::with_capacity(k);
    while picks.len() < k {
        let idx = rng.random_range(0..total);
        if !picks.contains(&idx) {
            picks.push(idx);
        }
    }
    picks.sort_unstable();
    let mut points = Vec::with_capacity(k);
    let mut next = picks.iter().peekable();
    let mut offset = 0usize;
    'outer: for &block_id in dfs.blocks_of(input)? {
        let block = dfs.block(block_id);
        while let Some(&&idx) = next.peek() {
            if idx < offset + block.data.len() {
                points.push(block.data[idx - offset].point);
                next.next();
            } else {
                offset += block.data.len();
                continue 'outer;
            }
        }
        break;
    }
    Ok(points)
}

// ---------------------------------------------------------------------
// k-medians: the outlier-robust variant §VI alludes to ("another
// drawback of using the mean as the center of the cluster instead of the
// median is that outliers can have a sensible impact").
// ---------------------------------------------------------------------

/// Component-wise median of a set of points (the k-medians center).
pub fn component_median(points: &mut [(f64, f64)]) -> Option<GeoPoint> {
    if points.is_empty() {
        return None;
    }
    let mid = points.len() / 2;
    let med = |vals: &mut Vec<f64>| -> f64 {
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if vals.len() % 2 == 1 {
            vals[mid]
        } else {
            (vals[mid - 1] + vals[mid]) / 2.0
        }
    };
    let mut lats: Vec<f64> = points.iter().map(|p| p.0).collect();
    let mut lons: Vec<f64> = points.iter().map(|p| p.1).collect();
    Some(GeoPoint::new(med(&mut lats), med(&mut lons)))
}

/// One sequential k-medians step: assign to nearest center, update each
/// center to the component-wise median of its points.
pub fn sequential_median_iteration(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> Vec<GeoPoint> {
    let k = centroids.len();
    let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); k];
    for &p in points {
        buckets[nearest_centroid(p, centroids, metric) as usize].push((p.lat, p.lon));
    }
    buckets
        .iter_mut()
        .zip(centroids)
        .map(|(b, &old)| component_median(b).unwrap_or(old))
        .collect()
}

/// The k-medians assignment mapper: emits the raw point per cluster —
/// unlike the mean, the median is not decomposable, so **no combiner can
/// shrink this shuffle** (the flip side of the §VI optimization).
#[derive(Clone)]
pub struct KMediansMapper {
    metric: DistanceMetric,
    centroids: Arc<Vec<GeoPoint>>,
}

impl Mapper<MobilityTrace> for KMediansMapper {
    type KOut = u32;
    type VOut = (f64, f64);

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.centroids = ctx.cache.expect::<Vec<GeoPoint>>(CENTROIDS_CACHE_KEY);
    }

    fn map(&mut self, _offset: u64, value: &MobilityTrace, out: &mut Emitter<u32, (f64, f64)>) {
        let cid = nearest_centroid(value.point, &self.centroids, self.metric);
        out.emit(cid, (value.point.lat, value.point.lon));
    }
}

/// The k-medians update reducer.
#[derive(Clone)]
pub struct KMediansReducer;

impl Reducer<u32, (f64, f64)> for KMediansReducer {
    type KOut = u32;
    type VOut = GeoPoint;

    fn reduce(&mut self, key: &u32, values: &[(f64, f64)], out: &mut Emitter<u32, GeoPoint>) {
        let mut pts = values.to_vec();
        if let Some(center) = component_median(&mut pts) {
            out.emit(*key, center);
        }
    }
}

/// One MapReduce k-medians iteration.
pub fn mapreduce_median_iteration(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    centroids: &[GeoPoint],
    cfg: &KMeansConfig,
) -> Result<(Vec<GeoPoint>, JobStats), JobError> {
    let cache = DistributedCache::new().with(CENTROIDS_CACHE_KEY, centroids.to_vec());
    let result = MapReduceJob::new(
        "kmedians-iteration",
        cluster,
        dfs,
        input,
        KMediansMapper {
            metric: cfg.distance,
            centroids: Arc::new(Vec::new()),
        },
        KMediansReducer,
    )
    .reducers(cluster.topology.num_nodes())
    .cache(cache)
    .pair_bytes(|_, _| std::mem::size_of::<(u32, (f64, f64))>())
    .run()?;
    let mut next = centroids.to_vec();
    for (cid, center) in result.output {
        next[cid as usize] = center;
    }
    Ok((next, result.stats))
}

// ---------------------------------------------------------------------
// Choosing k: "the parameter has to be specified by the user or inferred
// by cross-validation" (§VI).
// ---------------------------------------------------------------------

/// Cost curve over candidate `k`s plus the elbow pick (the largest
/// relative drop in within-cluster cost, a standard heuristic stand-in
/// for the cross-validation the paper mentions).
pub fn select_k(
    points: &[GeoPoint],
    candidates: &[usize],
    base: &KMeansConfig,
) -> (Vec<(usize, f64)>, usize) {
    assert!(!candidates.is_empty());
    let curve: Vec<(usize, f64)> = candidates
        .iter()
        .map(|&k| {
            let cfg = KMeansConfig { k, ..base.clone() };
            // Restarts smooth out local minima, which would otherwise make
            // the cost curve non-monotone and fool the elbow pick.
            let result = sequential_kmeans_restarts(points, &cfg, 4);
            (
                k,
                within_cluster_cost(points, &result.centroids, cfg.distance),
            )
        })
        .collect();
    let mut best = curve[0].0;
    let mut best_gain = f64::NEG_INFINITY;
    for w in curve.windows(2) {
        let (_, prev_cost) = w[0];
        let (k, cost) = w[1];
        let gain = if prev_cost > 0.0 {
            (prev_cost - cost) / prev_cost
        } else {
            0.0
        };
        if gain > best_gain {
            best_gain = gain;
            best = k;
        }
    }
    (curve, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_model::{Dataset, Timestamp};

    /// Three well-separated blobs of points.
    fn blobs() -> Vec<GeoPoint> {
        let mut pts = Vec::new();
        for (cx, cy) in [(40.0, 116.0), (40.3, 116.3), (39.7, 116.6)] {
            for i in 0..60 {
                let d = (i as f64) * 1e-4;
                pts.push(GeoPoint::new(cx + d * ((i % 7) as f64 - 3.0) / 3.0, cy + d));
            }
        }
        pts
    }

    fn blob_dataset() -> Dataset {
        Dataset::from_traces(
            blobs()
                .into_iter()
                .enumerate()
                .map(|(i, p)| MobilityTrace::new(0, p, Timestamp(i as i64))),
        )
    }

    fn cfg(metric: DistanceMetric) -> KMeansConfig {
        KMeansConfig {
            k: 3,
            distance: metric,
            convergence_delta: 1e-9,
            max_iterations: 100,
            // A seed whose random init lands one centroid per blob (random
            // initialization can hit local minima, as §VI notes; see also
            // `sequential_kmeans_restarts`).
            seed: 2,
            use_combiner: false,
            memory_budget: None,
        }
    }

    #[test]
    fn sequential_finds_the_three_blobs() {
        let points = blobs();
        let result = sequential_kmeans_restarts(&points, &cfg(DistanceMetric::SquaredEuclidean), 8);
        assert!(result.converged);
        assert_eq!(result.centroids.len(), 3);
        // Each blob center has a centroid within ~0.05 degrees.
        for (cx, cy) in [(40.0, 116.0), (40.3, 116.3), (39.7, 116.6)] {
            let best = result
                .centroids
                .iter()
                .map(|c| ((c.lat - cx).powi(2) + (c.lon - cy).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.05, "no centroid near ({cx},{cy}): {best}");
        }
    }

    #[test]
    fn assignment_is_consistent_with_centroids() {
        let points = blobs();
        let result = sequential_kmeans(&points, &cfg(DistanceMetric::Euclidean));
        let labels = assign_points(&points, &result.centroids, DistanceMetric::Euclidean);
        assert_eq!(labels.len(), points.len());
        // Every point is closer to its own centroid than to the others.
        for (p, &l) in points.iter().zip(&labels) {
            let own = DistanceMetric::Euclidean.between(*p, result.centroids[l as usize]);
            for c in &result.centroids {
                assert!(own <= DistanceMetric::Euclidean.between(*p, *c) + 1e-12);
            }
        }
    }

    #[test]
    fn squared_euclidean_and_euclidean_agree_on_assignment() {
        let points = blobs();
        let cs = initial_centroids(&points, 3, 5);
        assert_eq!(
            assign_points(&points, &cs, DistanceMetric::Euclidean),
            assign_points(&points, &cs, DistanceMetric::SquaredEuclidean),
        );
    }

    #[test]
    fn initial_centroids_are_input_points_and_deterministic() {
        let points = blobs();
        let a = initial_centroids(&points, 5, 99);
        let b = initial_centroids(&points, 5, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for c in &a {
            assert!(points.iter().any(|p| p == c));
        }
        // Distinct picks.
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
    }

    #[test]
    fn k_clamped_to_dataset_size() {
        let points = vec![GeoPoint::new(1.0, 2.0), GeoPoint::new(3.0, 4.0)];
        assert_eq!(initial_centroids(&points, 10, 1).len(), 2);
    }

    #[test]
    fn mapreduce_iteration_matches_sequential() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 2_048); // several chunks
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 7);
        let c = cfg(DistanceMetric::SquaredEuclidean);
        let (mr, _) = mapreduce_iteration(&cluster, &dfs, "pts", &centroids, &c).unwrap();
        let seq = sequential_iteration(&points, &centroids, c.distance);
        for (a, b) in mr.iter().zip(&seq) {
            assert!((a.lat - b.lat).abs() < 1e-9, "{a:?} vs {b:?}");
            assert!((a.lon - b.lon).abs() < 1e-9);
        }
    }

    #[test]
    fn soa_assignment_is_bit_identical_to_scalar_for_all_metrics() {
        let points = blobs();
        let centroids = initial_centroids(&points, 5, 11);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::SquaredEuclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Haversine,
        ] {
            let scalar: Vec<u32> = points
                .iter()
                .map(|&p| nearest_centroid(p, &centroids, metric))
                .collect();
            assert_eq!(
                assign_points(&points, &centroids, metric),
                scalar,
                "{metric:?}"
            );
        }
    }

    #[test]
    fn fused_iteration_is_bit_identical_to_two_pass_reference() {
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 7);
        for metric in [DistanceMetric::SquaredEuclidean, DistanceMetric::Haversine] {
            // The pre-optimization reference: assign, then sum, in input
            // order (one chunk — blobs() is far below the chunk size).
            let mut sums = vec![
                PointSum {
                    lat_sum: 0.0,
                    lon_sum: 0.0,
                    count: 0
                };
                centroids.len()
            ];
            for &p in &points {
                sums[nearest_centroid(p, &centroids, metric) as usize].add(&PointSum::of(p));
            }
            let want: Vec<GeoPoint> = sums
                .iter()
                .zip(&centroids)
                .map(|(s, &old)| s.mean().unwrap_or(old))
                .collect();
            let got = sequential_iteration(&points, &centroids, metric);
            let cols = PointsSoa::from_points(&points);
            let col = columnar_iteration(&cols, &centroids, metric);
            for ((g, c), w) in got.iter().zip(&col).zip(&want) {
                assert_eq!(g.lat.to_bits(), w.lat.to_bits(), "{metric:?}");
                assert_eq!(g.lon.to_bits(), w.lon.to_bits(), "{metric:?}");
                assert_eq!(c.lat.to_bits(), w.lat.to_bits(), "{metric:?}");
                assert_eq!(c.lon.to_bits(), w.lon.to_bits(), "{metric:?}");
            }
        }
    }

    #[test]
    fn mapreduce_iteration_counts_evals_and_skips_sorts() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 7);
        let c = cfg(DistanceMetric::SquaredEuclidean);
        let (_, stats) = mapreduce_iteration(&cluster, &dfs, "pts", &centroids, &c).unwrap();
        // Every trace is compared against every centroid exactly once.
        assert_eq!(
            stats.counters[builtin::DISTANCE_EVALS],
            (points.len() * centroids.len()) as u64
        );
        // KMeansReducer opts out of sorting: every reduce task skips.
        assert_eq!(
            stats.counters[builtin::SORT_SKIPPED],
            stats.reduce_tasks as u64
        );
    }

    #[test]
    fn combiner_does_not_change_the_result_but_cuts_shuffle() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let centroids = initial_centroids(&blobs(), 3, 7);
        let plain_cfg = cfg(DistanceMetric::Haversine);
        let comb_cfg = KMeansConfig {
            use_combiner: true,
            ..plain_cfg.clone()
        };
        let (a, sa) = mapreduce_iteration(&cluster, &dfs, "pts", &centroids, &plain_cfg).unwrap();
        let (b, sb) = mapreduce_iteration(&cluster, &dfs, "pts", &centroids, &comb_cfg).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x.lat - y.lat).abs() < 1e-9);
            assert!((x.lon - y.lon).abs() < 1e-9);
        }
        assert!(
            sb.sim.shuffle_bytes < sa.sim.shuffle_bytes / 2,
            "combiner shuffle {} vs plain {}",
            sb.sim.shuffle_bytes,
            sa.sim.shuffle_bytes
        );
    }

    #[test]
    fn full_mapreduce_kmeans_converges_like_sequential() {
        let ds = blob_dataset();
        let cluster = Cluster::local(4, 2);
        let mut dfs = trace_dfs(&cluster, 4_096);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let c = KMeansConfig {
            convergence_delta: 1e-7,
            ..cfg(DistanceMetric::SquaredEuclidean)
        };
        let mr = mapreduce_kmeans(&cluster, &mut dfs, "pts", &c, None, &RunCtx::default()).unwrap();
        assert!(mr.converged, "did not converge in {} iters", mr.iterations);
        assert_eq!(mr.per_iteration.len(), mr.iterations);
        // Centroids land on the three blob centers.
        for (cx, cy) in [(40.0, 116.0), (40.3, 116.3), (39.7, 116.6)] {
            let best = mr
                .centroids
                .iter()
                .map(|c| ((c.lat - cx).powi(2) + (c.lon - cy).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.05, "no centroid near ({cx},{cy})");
        }
        // Shifts shrink towards convergence.
        let first = mr.per_iteration.first().unwrap().max_shift;
        let last = mr.per_iteration.last().unwrap().max_shift;
        assert!(last <= first);
        assert!(last <= c.convergence_delta);
    }

    #[test]
    fn haversine_is_costlier_than_squared_euclidean() {
        // The Table III effect, measured on the metric itself.
        let points = blobs();
        let cs = initial_centroids(&points, 3, 7);
        let time = |m: DistanceMetric| {
            let t0 = std::time::Instant::now();
            for _ in 0..200 {
                let _ = assign_points(&points, &cs, m);
            }
            t0.elapsed()
        };
        let se = time(DistanceMetric::SquaredEuclidean);
        let hv = time(DistanceMetric::Haversine);
        assert!(
            hv > se,
            "haversine {hv:?} should cost more than squared euclidean {se:?}"
        );
    }

    #[test]
    fn component_median_basics() {
        assert!(component_median(&mut []).is_none());
        let mut one = vec![(1.0, 2.0)];
        assert_eq!(component_median(&mut one), Some(GeoPoint::new(1.0, 2.0)));
        let mut odd = vec![(1.0, 10.0), (3.0, 30.0), (2.0, 20.0)];
        assert_eq!(component_median(&mut odd), Some(GeoPoint::new(2.0, 20.0)));
        let mut even = vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)];
        assert_eq!(component_median(&mut even), Some(GeoPoint::new(2.5, 25.0)));
    }

    #[test]
    fn median_is_robust_to_an_outlier() {
        // One far outlier drags the mean but not the median.
        let mut points: Vec<GeoPoint> = (0..20)
            .map(|i| GeoPoint::new(40.0 + (i % 5) as f64 * 1e-4, 116.0))
            .collect();
        points.push(GeoPoint::new(45.0, 120.0)); // outlier
        let centroids = vec![GeoPoint::new(40.0, 116.0)];
        let mean = sequential_iteration(&points, &centroids, DistanceMetric::Euclidean);
        let median = sequential_median_iteration(&points, &centroids, DistanceMetric::Euclidean);
        let d = |p: GeoPoint| ((p.lat - 40.0).powi(2) + (p.lon - 116.0).powi(2)).sqrt();
        assert!(d(mean[0]) > 0.1, "mean should be dragged: {:?}", mean[0]);
        assert!(d(median[0]) < 0.01, "median should hold: {:?}", median[0]);
    }

    #[test]
    fn mapreduce_kmedians_matches_sequential() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 1);
        let c = cfg(DistanceMetric::SquaredEuclidean);
        let (mr, _) = mapreduce_median_iteration(&cluster, &dfs, "pts", &centroids, &c).unwrap();
        let seq = sequential_median_iteration(&points, &centroids, c.distance);
        for (a, b) in mr.iter().zip(&seq) {
            assert!((a.lat - b.lat).abs() < 1e-12 && (a.lon - b.lon).abs() < 1e-12);
        }
    }

    #[test]
    fn kmedians_shuffle_exceeds_combined_kmeans() {
        // The median is not decomposable: its shuffle volume scales with
        // the points, whereas the combined mean shuffles one partial sum
        // per (mapper, cluster).
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let centroids = initial_centroids(&blobs(), 3, 1);
        let c = KMeansConfig {
            use_combiner: true,
            ..cfg(DistanceMetric::SquaredEuclidean)
        };
        let (_, mean_stats) = mapreduce_iteration(&cluster, &dfs, "pts", &centroids, &c).unwrap();
        let (_, median_stats) =
            mapreduce_median_iteration(&cluster, &dfs, "pts", &centroids, &c).unwrap();
        assert!(
            median_stats.sim.shuffle_bytes > mean_stats.sim.shuffle_bytes * 3,
            "median {} vs combined mean {}",
            median_stats.sim.shuffle_bytes,
            mean_stats.sim.shuffle_bytes
        );
    }

    #[test]
    fn select_k_finds_the_blob_count() {
        let points = blobs();
        let base = KMeansConfig {
            max_iterations: 30,
            convergence_delta: 1e-9,
            ..cfg(DistanceMetric::SquaredEuclidean)
        };
        let (curve, best) = select_k(&points, &[1, 2, 3, 4, 5, 6], &base);
        assert_eq!(curve.len(), 6);
        // Cost is non-increasing in k (up to local-minimum noise at the
        // tail) and collapses at k = 3 for three well-separated blobs.
        assert!(curve[0].1 > curve[2].1);
        assert_eq!(best, 3, "{curve:?}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_rejected() {
        let cluster = Cluster::local(2, 1);
        let mut dfs = trace_dfs(&cluster, 1_024);
        dfs.put_with_sizer("empty", vec![], |_| 64).unwrap();
        let cfg = cfg(DistanceMetric::Euclidean);
        let _ = mapreduce_kmeans(&cluster, &mut dfs, "empty", &cfg, None, &RunCtx::default());
    }
}
