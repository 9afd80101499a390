//! The four benchmark workloads: how each builds its inputs from a seed,
//! computes its reference, runs one operation through the crates' public
//! drivers, and checks the operation's output.

use crate::layers::{spanned, LayerValues, MB};
use crate::stats::{self, Digest};
use gepeto::attacks::{self, linking::linking_accuracy, LinkResult};
use gepeto::djcluster::{self, Clustering, DjConfig};
use gepeto::kmeans::{self, KMeansConfig};
use gepeto::rtree_build::RTreeBuildConfig;
use gepeto::sampling::{self, SamplingConfig, Technique};
use gepeto::sanitize::{GaussianMask, Sanitizer};
use gepeto_geo::{haversine_m, DistanceMetric};
use gepeto_geolife::{GeneratorConfig, SyntheticGeoLife};
use gepeto_mapred::{Cluster, Dfs, JobStats};
use gepeto_model::{Dataset, GeoPoint, MobilityTrace, UserId};
use gepeto_synth::SynthConfig;
use gepeto_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Input sizes: `Full` is the benchmark, `Tiny` the smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(Size::Full),
            "tiny" => Ok(Size::Tiny),
            other => Err(format!("unknown size '{other}' (expected full or tiny)")),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// `full` at full size, `tiny` otherwise.
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// The result of one operation: its output plus the statistics of every
/// MapReduce job it ran, and any workload-specific layer values.
pub struct Op<O> {
    pub output: O,
    pub jobs: Vec<JobStats>,
    pub layers: LayerValues,
}

impl<O> Op<O> {
    fn new(output: O, jobs: Vec<JobStats>) -> Self {
        Self {
            output,
            jobs,
            layers: LayerValues::new(),
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    type Plan;
    type Inputs;
    type Reference;
    type Output;

    /// What the set-up needs to know about `seed` before it starts,
    /// worked out outside the timed set-up.
    fn plan(&self, seed: u64) -> Self::Plan;

    /// Generates the inputs from the plan and loads them where the
    /// operation reads them (the DFS for the MapReduce workloads).
    fn setup(&self, plan: &Self::Plan, spans: &Recorder) -> Result<Self::Inputs, String>;

    /// Input traces one operation processes.
    fn input_traces(&self, inputs: &Self::Inputs) -> u64;

    /// Layer values of the set-up itself (DFS blocks and bytes).
    fn setup_layers(&self, _inputs: &Self::Inputs) -> LayerValues {
        LayerValues::new()
    }

    /// The expected result, computed outside every timed region.
    fn reference(&self, inputs: &Self::Inputs) -> Self::Reference;

    /// One operation: inputs loaded → complete result. `rec` is a
    /// disabled recorder on timed runs; `spans` records the benchmark's
    /// own spans around the public calls.
    fn run(
        &self,
        inputs: &mut Self::Inputs,
        rec: &Recorder,
        spans: &Recorder,
    ) -> Result<Op<Self::Output>, String>;

    /// Checks an operation's output against the reference.
    fn verify(
        &self,
        inputs: &Self::Inputs,
        output: &Self::Output,
        reference: &Self::Reference,
    ) -> Result<(), String>;

    /// Damages an output, so tests can show a wrong output is caught.
    fn corrupt(&self, output: &mut Self::Output);

    /// Extra per-layer measurements of the traced run, made after the
    /// operations.
    fn traced_extras(&self, _inputs: &Self::Inputs, _spans: &Recorder) -> LayerValues {
        LayerValues::new()
    }
}

// ---------------------------------------------------------------------
// Shared inputs
// ---------------------------------------------------------------------

/// Users in the paper's GeoLife cut.
const GEOLIFE_USERS: usize = 178;
/// Scale of the cheap probe populations the per-user sizes are read from.
const PROBE_SCALE: f64 = 0.05;
/// Generator seed of the per-user size profile (the paper calibration's).
const PROFILE_SEED: u64 = 20130520;

fn geolife_config(seed: u64, scale: f64) -> GeneratorConfig {
    GeneratorConfig {
        users: GEOLIFE_USERS,
        scale,
        seed,
        ..GeneratorConfig::paper()
    }
}

/// How one seed's 178-user GeoLife-calibrated population is generated:
/// the scale each user is generated at.
pub struct PopulationPlan {
    seed: u64,
    users: Vec<(UserId, f64)>,
}

/// The per-user generation scales of each seed's population, at `scale`.
///
/// The generator draws each user's trace count from a log-normal, so the
/// total and the heaviest user vary with the seed; left alone, that
/// would make a run's cost depend more on the seed than on the code. The
/// per-user counts are therefore pinned to one profile (the sorted
/// counts of the paper seed's population) while the seed still decides
/// everything else: geography, sessions, timing and noise. A probe of the
/// seed's population at a small scale tells each user's draw, and each
/// user is then generated at the scale that lands on its profile count.
/// The heaviest probe user gets the heaviest count, and so on down.
///
/// The probes are the benchmark's own work, not input generation, so
/// they run here, before the set-up timer starts.
fn geolife_plans(seeds: &[u64], scale: f64) -> Vec<PopulationPlan> {
    let counts = |seed: u64| -> Vec<(usize, UserId)> {
        let mut c: Vec<(usize, UserId)> = SyntheticGeoLife::new(geolife_config(seed, PROBE_SCALE))
            .generate()
            .trails()
            .map(|t| (t.len(), t.user))
            .collect();
        c.sort_unstable();
        c
    };
    let profile = counts(PROFILE_SEED);
    seeds
        .iter()
        .map(|&seed| PopulationPlan {
            seed,
            // A user's trace count is linear in the scale, so scaling the
            // probe scale by target ÷ probe count lands on the target.
            users: counts(seed)
                .iter()
                .zip(&profile)
                .map(|(&(probed, user), &(target, _))| {
                    (user, scale * target as f64 / probed as f64)
                })
                .collect(),
        })
        .collect()
}

/// Generates the planned populations, users in parallel on the pool.
fn geolife_populations(plans: &[PopulationPlan], spans: &Recorder) -> Vec<Dataset> {
    spanned(spans, "geolife.generate", || {
        plans
            .iter()
            .map(|plan| {
                let trails = gepeto_pool::global().map_indexed(plan.users.len(), |i| {
                    let (user, user_scale) = plan.users[i];
                    SyntheticGeoLife::new(geolife_config(plan.seed, user_scale)).generate_user(user)
                });
                Dataset::from_trails(trails)
            })
            .collect()
    })
}

fn geolife_population(plan: &PopulationPlan, spans: &Recorder) -> Dataset {
    geolife_populations(std::slice::from_ref(plan), spans)
        .pop()
        .expect("one population per plan")
}

/// A fresh DFS on the paper's Parapluie cluster holding `dataset` as
/// `input`.
fn load_dfs(
    dataset: &Dataset,
    chunk_bytes: usize,
    spans: &Recorder,
) -> Result<(Cluster, Dfs<MobilityTrace>), String> {
    let cluster = Cluster::parapluie();
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, chunk_bytes);
    spanned(spans, "dfs.put", || {
        gepeto::dfs_io::put_dataset(&mut dfs, "input", dataset)
    })
    .map_err(|e| e.to_string())?;
    Ok((cluster, dfs))
}

fn dfs_layers(dfs: &Dfs<MobilityTrace>) -> LayerValues {
    let mut m = LayerValues::new();
    m.insert("dfs.blocks", dfs.num_blocks("input").unwrap_or(0) as f64);
    m.insert("dfs.mb", dfs.file_bytes("input").unwrap_or(0) as f64 / MB);
    m
}

fn dataset_digest(ds: &Dataset) -> u64 {
    let mut d = Digest::default();
    for trail in ds.trails() {
        d.word(u64::from(trail.user));
        d.word(trail.len() as u64);
        for t in trail.traces() {
            d.word(u64::from(t.user));
            d.word(t.point.lat.to_bits());
            d.word(t.point.lon.to_bits());
            d.word(t.timestamp.0 as u64);
            d.word(u64::from(t.altitude.to_bits()));
        }
    }
    d.finish()
}

fn same_digest(got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("digest {got:016x}, expected {want:016x}"))
    }
}

fn sampling_config() -> SamplingConfig {
    SamplingConfig::new(60, Technique::ClosestToUpperLimit)
}

/// Applies the sequential `step` to every chunk of DFS file `name` on its
/// own, as the tasks of a map-only job see them, and concatenates the
/// results in chunk order.
fn per_chunk(
    dfs: &Dfs<MobilityTrace>,
    name: &str,
    step: impl Fn(&Dataset) -> Dataset,
) -> Vec<MobilityTrace> {
    let mut out = Vec::new();
    for chunk in dfs.stream(name).expect("reference input exists") {
        let chunk = chunk.expect("reference input is readable");
        out.extend(step(&Dataset::from_traces(chunk.iter().copied())).to_traces());
    }
    out
}

fn sizer(t: &MobilityTrace) -> usize {
    t.approx_plt_bytes()
}

// ---------------------------------------------------------------------
// kmeans
// ---------------------------------------------------------------------

/// Largest accepted within-cluster cost, relative to the sequential
/// Lloyd reference run for the same number of rounds from the same
/// initial centroids. One-sided: a lower cost always passes. The
/// MapReduce driver lands within 1e-11 of the reference, while the last
/// of the ten rounds lowers the cost by 7.8e-4 or more on the seeds in
/// the README, so a run one round short fails.
const KMEANS_COST_TOLERANCE: f64 = 1e-4;

/// Iterative k-means over the GeoLife cut: one MapReduce job per round.
pub struct Kmeans {
    scale: f64,
    k: usize,
    rounds: usize,
    chunk_bytes: usize,
}

pub struct KmeansInputs {
    cluster: Cluster,
    dfs: Dfs<MobilityTrace>,
    points: Vec<GeoPoint>,
}

/// The centroids of one k-means operation, and the input records each
/// round's job read.
pub struct KmeansOutput {
    centroids: Vec<GeoPoint>,
    round_records: Vec<u64>,
}

impl Kmeans {
    pub fn new(size: Size) -> Self {
        Self {
            scale: size.pick(1.0, 0.01),
            k: size.pick(11, 4),
            rounds: size.pick(10, 3),
            chunk_bytes: size.pick(1 << 20, 64 << 10),
        }
    }

    fn config(&self) -> KMeansConfig {
        KMeansConfig {
            k: self.k,
            max_iterations: self.rounds,
            // Never converged: every operation runs exactly `rounds`
            // rounds, whatever the seed.
            convergence_delta: f64::NEG_INFINITY,
            ..KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
        }
    }
}

impl Workload for Kmeans {
    type Plan = PopulationPlan;
    type Inputs = KmeansInputs;
    type Reference = f64;
    type Output = KmeansOutput;

    fn plan(&self, seed: u64) -> PopulationPlan {
        geolife_plans(&[seed], self.scale).remove(0)
    }

    fn setup(&self, plan: &PopulationPlan, spans: &Recorder) -> Result<KmeansInputs, String> {
        let ds = geolife_population(plan, spans);
        let (cluster, dfs) = load_dfs(&ds, self.chunk_bytes, spans)?;
        // DFS record order: the order the reference indexes into.
        let points = ds.iter_traces().map(|t| t.point).collect();
        Ok(KmeansInputs {
            cluster,
            dfs,
            points,
        })
    }

    fn input_traces(&self, inputs: &KmeansInputs) -> u64 {
        inputs.points.len() as u64
    }

    fn setup_layers(&self, inputs: &KmeansInputs) -> LayerValues {
        dfs_layers(&inputs.dfs)
    }

    /// Within-cluster cost of sequential Lloyd from the driver's initial
    /// centroids (k distinct records drawn uniformly by the config seed).
    fn reference(&self, inputs: &KmeansInputs) -> f64 {
        let cfg = self.config();
        let points = &inputs.points;
        let k = cfg.k.min(points.len());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut picks: Vec<usize> = Vec::with_capacity(k);
        while picks.len() < k {
            let idx = rng.random_range(0..points.len());
            if !picks.contains(&idx) {
                picks.push(idx);
            }
        }
        picks.sort_unstable();
        let mut centroids: Vec<GeoPoint> = picks.iter().map(|&i| points[i]).collect();
        for _ in 0..cfg.max_iterations {
            let next = kmeans::sequential_iteration(points, &centroids, cfg.distance);
            let shift = centroids
                .iter()
                .zip(&next)
                .map(|(&a, &b)| cfg.distance.between(a, b))
                .fold(0.0, f64::max);
            centroids = next;
            if shift <= cfg.convergence_delta {
                break;
            }
        }
        kmeans::within_cluster_cost(points, &centroids, cfg.distance)
    }

    fn run(
        &self,
        inputs: &mut KmeansInputs,
        rec: &Recorder,
        spans: &Recorder,
    ) -> Result<Op<KmeansOutput>, String> {
        let cfg = self.config();
        let result = spanned(spans, "kmeans.mapreduce_kmeans", || {
            kmeans::mapreduce_kmeans_with(&inputs.cluster, &inputs.dfs, "input", &cfg, rec)
        })
        .map_err(|e| e.to_string())?;
        let jobs: Vec<JobStats> = result.per_iteration.into_iter().map(|it| it.job).collect();
        let round_records = jobs
            .iter()
            .map(|j| {
                let records = j
                    .counters
                    .get(gepeto_mapred::counters::builtin::MAP_INPUT_RECORDS);
                records.copied().unwrap_or(0)
            })
            .collect();
        let output = KmeansOutput {
            centroids: result.centroids,
            round_records,
        };
        Ok(Op::new(output, jobs))
    }

    /// Every round read the whole input, and the centroids cost at most
    /// the tolerance more than the reference's. The cost alone cannot
    /// show lost input: leaving one DFS block out of every round lowers
    /// the cost as often as it raises it.
    fn verify(
        &self,
        inputs: &KmeansInputs,
        output: &KmeansOutput,
        reference: &f64,
    ) -> Result<(), String> {
        let n = inputs.points.len() as u64;
        if output.round_records.is_empty() || output.round_records.iter().any(|&r| r != n) {
            return Err(format!(
                "rounds read {:?} input records, expected {n} each",
                output.round_records
            ));
        }
        let centroids = &output.centroids;
        if centroids.len() != self.k {
            return Err(format!(
                "{} centroids, expected {}",
                centroids.len(),
                self.k
            ));
        }
        let cost = kmeans::within_cluster_cost(&inputs.points, centroids, self.config().distance);
        let ratio = cost / reference;
        if ratio.is_finite() && ratio <= 1.0 + KMEANS_COST_TOLERANCE {
            Ok(())
        } else {
            Err(format!(
                "within-cluster cost {cost:e} is {ratio:.6}× the reference {reference:e}"
            ))
        }
    }

    fn corrupt(&self, output: &mut KmeansOutput) {
        for c in output.centroids.iter_mut() {
            c.lat += 0.5;
        }
    }
}

// ---------------------------------------------------------------------
// regroup
// ---------------------------------------------------------------------

/// The synthetic day streamed into the DFS and regrouped by user through
/// a shuffle whose memory budget forces spilling.
pub struct Regroup {
    users: u64,
    chunk_bytes: usize,
}

pub struct RegroupInputs {
    cluster: Cluster,
    dfs: Dfs<MobilityTrace>,
    budget: usize,
    traces: u64,
}

impl Regroup {
    pub fn new(size: Size) -> Self {
        Self {
            users: size.pick(200_000, 2_000),
            chunk_bytes: size.pick(12_800_000, 64 << 10),
        }
    }
}

impl Workload for Regroup {
    /// The seed: the synthetic day needs no planning.
    type Plan = u64;
    type Inputs = RegroupInputs;
    type Reference = u64;
    type Output = Dataset;

    fn plan(&self, seed: u64) -> u64 {
        seed
    }

    fn setup(&self, &seed: &u64, spans: &Recorder) -> Result<RegroupInputs, String> {
        let synth = SynthConfig::new(self.users).seed(seed);
        let cluster = Cluster::parapluie();
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, self.chunk_bytes);
        spanned(spans, "synth.to_dfs", || synth.to_dfs(&mut dfs, "input"))
            .map_err(|e| e.to_string())?;
        // About 1/64 of the shuffle per buffer: every reducer seals a
        // few dozen sorted runs and merges them back.
        let budget = (synth.estimated_plt_bytes() / 64).max(4 * 1024) as usize;
        let traces = dfs.num_records("input").map_err(|e| e.to_string())? as u64;
        Ok(RegroupInputs {
            cluster,
            dfs,
            budget,
            traces,
        })
    }

    fn input_traces(&self, inputs: &RegroupInputs) -> u64 {
        inputs.traces
    }

    fn setup_layers(&self, inputs: &RegroupInputs) -> LayerValues {
        dfs_layers(&inputs.dfs)
    }

    /// Sequential sampling of each input chunk, regrouped by user.
    fn reference(&self, inputs: &RegroupInputs) -> u64 {
        let sampled = per_chunk(&inputs.dfs, "input", |d| {
            sampling::sequential_sample(d, &sampling_config())
        });
        dataset_digest(&Dataset::from_traces(sampled))
    }

    fn run(
        &self,
        inputs: &mut RegroupInputs,
        rec: &Recorder,
        spans: &Recorder,
    ) -> Result<Op<Dataset>, String> {
        let (grouped, stats) = spanned(spans, "sampling.mapreduce_sample_by_user", || {
            sampling::mapreduce_sample_by_user(
                &inputs.cluster,
                &inputs.dfs,
                "input",
                &sampling_config(),
                Some(inputs.budget),
                rec,
            )
        })
        .map_err(|e| e.to_string())?;
        Ok(Op::new(grouped, vec![stats]))
    }

    fn verify(
        &self,
        _inputs: &RegroupInputs,
        output: &Dataset,
        reference: &u64,
    ) -> Result<(), String> {
        same_digest(dataset_digest(output), *reference)
    }

    fn corrupt(&self, output: &mut Dataset) {
        let mut traces = output.to_traces();
        traces.pop();
        *output = Dataset::from_traces(traces);
    }
}

// ---------------------------------------------------------------------
// djcluster
// ---------------------------------------------------------------------

/// The full §VII DJ-Cluster pipeline: sample → preprocess → MapReduce
/// R-tree → neighbourhoods → serial merge.
pub struct DjCluster {
    scale: f64,
    chunk_bytes: usize,
}

pub struct DjInputs {
    cluster: Cluster,
    dfs: Dfs<MobilityTrace>,
    dataset: Dataset,
}

impl DjCluster {
    pub fn new(size: Size) -> Self {
        Self {
            scale: size.pick(0.5, 0.01),
            chunk_bytes: size.pick(1 << 20, 64 << 10),
        }
    }
}

fn clustering_digest(c: &Clustering) -> u64 {
    let mut d = Digest::default();
    d.word(c.noise as u64);
    for cluster in c.canonical_ids() {
        d.word(cluster.len() as u64);
        for (user, ts) in cluster {
            d.word(u64::from(user));
            d.word(ts as u64);
        }
    }
    d.finish()
}

impl Workload for DjCluster {
    type Plan = PopulationPlan;
    type Inputs = DjInputs;
    type Reference = u64;
    type Output = Clustering;

    fn plan(&self, seed: u64) -> PopulationPlan {
        geolife_plans(&[seed], self.scale).remove(0)
    }

    fn setup(&self, plan: &PopulationPlan, spans: &Recorder) -> Result<DjInputs, String> {
        let dataset = geolife_population(plan, spans);
        let (cluster, dfs) = load_dfs(&dataset, self.chunk_bytes, spans)?;
        Ok(DjInputs {
            cluster,
            dfs,
            dataset,
        })
    }

    fn input_traces(&self, inputs: &DjInputs) -> u64 {
        inputs.dataset.num_traces() as u64
    }

    fn setup_layers(&self, inputs: &DjInputs) -> LayerValues {
        dfs_layers(&inputs.dfs)
    }

    /// The sequential pipeline, stage by stage over the same chunks the
    /// MapReduce stages read (the speed filter and the dedup see each
    /// chunk's trail pieces on their own): sample, filter moving traces,
    /// drop duplicates, cluster.
    fn reference(&self, inputs: &DjInputs) -> u64 {
        let cfg = DjConfig::default();
        let speed_only = DjConfig {
            dup_threshold_m: -1.0,
            ..cfg.clone()
        };
        let dedup_only = DjConfig {
            speed_threshold_mps: f64::INFINITY,
            ..cfg.clone()
        };
        let mut dfs = gepeto::dfs_io::trace_dfs(&inputs.cluster, self.chunk_bytes);
        let sampled = per_chunk(&inputs.dfs, "input", |d| {
            sampling::sequential_sample(d, &sampling_config())
        });
        let sampled = Dataset::from_traces(sampled).to_traces();
        dfs.put_with_sizer("sampled", sampled, sizer)
            .expect("reference DFS write");
        let stationary = per_chunk(&dfs, "sampled", |d| {
            djcluster::sequential_preprocess(d, &speed_only)
        });
        dfs.put_with_sizer("stationary", stationary, sizer)
            .expect("reference DFS write");
        let deduped = per_chunk(&dfs, "stationary", |d| {
            djcluster::sequential_preprocess(d, &dedup_only)
        });
        clustering_digest(&djcluster::sequential_djcluster(&deduped, &cfg))
    }

    fn run(
        &self,
        inputs: &mut DjInputs,
        rec: &Recorder,
        spans: &Recorder,
    ) -> Result<Op<Clustering>, String> {
        let DjInputs { cluster, dfs, .. } = inputs;
        let err = |e: &dyn std::fmt::Display| e.to_string();
        if dfs.exists("sampled") {
            dfs.delete("sampled").map_err(|e| err(&e))?;
        }
        let (sampled, sample_job) = spanned(spans, "sampling.mapreduce_sample", || {
            sampling::mapreduce_sample_with(cluster, dfs, "input", &sampling_config(), rec)
        })
        .map_err(|e| err(&e))?;
        spanned(spans, "dfs.put_sampled", || {
            dfs.put_with_sizer("sampled", sampled.to_traces(), sizer)
        })
        .map_err(|e| err(&e))?;
        let (clustering, pre, stats) = spanned(spans, "djcluster.mapreduce_djcluster_full", || {
            djcluster::mapreduce_djcluster_full_with(
                cluster,
                dfs,
                "sampled",
                &DjConfig::default(),
                Some(&RTreeBuildConfig::default()),
                rec,
            )
        })
        .map_err(|e| err(&e))?;

        let secs = |jobs: &[&JobStats]| {
            jobs.iter()
                .fold(0.0, |a, j| a + j.real_elapsed.as_secs_f64())
        };
        let pre_jobs: Vec<&JobStats> = pre.jobs.stages().iter().collect();
        let rtree_jobs: Vec<&JobStats> = stats
            .rtree_report
            .iter()
            .flat_map(|r| [&r.bounds_job, &r.phase1, &r.phase2])
            .collect();
        let merge = &stats.cluster_job;
        let saved = merge
            .counters
            .get(gepeto_mapred::counters::builtin::SHUFFLE_BYTES_SAVED)
            .copied()
            .unwrap_or(0) as f64;
        let shuffled = merge
            .counters
            .get(gepeto_mapred::counters::builtin::SHUFFLE_BYTES)
            .copied()
            .unwrap_or(0) as f64;
        let mut layers = LayerValues::new();
        layers.insert("djcluster.preprocess_s", secs(&pre_jobs));
        layers.insert("djcluster.rtree_s", secs(&rtree_jobs));
        layers.insert("djcluster.cluster_s", merge.real_elapsed.as_secs_f64());
        layers.insert(
            "djcluster.shuffle_saved_ratio",
            stats::ratio(saved, saved + shuffled),
        );

        let mut jobs = vec![sample_job];
        jobs.extend(pre_jobs.into_iter().cloned());
        jobs.extend(rtree_jobs.into_iter().cloned());
        jobs.push(stats.cluster_job);
        Ok(Op {
            output: clustering,
            jobs,
            layers,
        })
    }

    fn verify(
        &self,
        _inputs: &DjInputs,
        output: &Clustering,
        reference: &u64,
    ) -> Result<(), String> {
        same_digest(clustering_digest(output), *reference)
    }

    fn corrupt(&self, output: &mut Clustering) {
        output.clusters.pop();
    }
}

// ---------------------------------------------------------------------
// linking
// ---------------------------------------------------------------------

/// Standard deviation of the released dataset's Gaussian mask, meters.
const MASK_SIGMA_M: f64 = 50.0;
/// Seed of the mask's noise stream.
const MASK_SEED: u64 = 50;

/// The curator's question: link a population to its Gaussian-masked
/// release through home/work POI fingerprints.
pub struct Linking {
    scale: f64,
    /// Populations a run cycles through, one per operation. A
    /// population's attack cost and heap peak hang on how its heaviest
    /// users' time splits across their places, which the seed decides;
    /// cycling through many keeps one draw from setting a run's figures.
    populations: u64,
}

pub struct LinkingInputs {
    populations: Vec<Dataset>,
    next: usize,
}

/// One population's links plus the share of them that are right.
pub struct Links {
    population: usize,
    links: Vec<LinkResult>,
    accuracy: f64,
}

impl Linking {
    pub fn new(size: Size) -> Self {
        Self {
            scale: size.pick(0.025, 0.005),
            populations: size.pick(16, 2),
        }
    }

    fn mask() -> GaussianMask {
        GaussianMask {
            sigma_m: MASK_SIGMA_M,
            seed: MASK_SEED,
        }
    }
}

fn links_digest(links: &[LinkResult], accuracy: f64) -> u64 {
    let mut d = Digest::default();
    d.word(accuracy.to_bits());
    for l in links {
        d.word(u64::from(l.user_a));
        d.word(u64::from(l.user_b));
        d.word(l.score_m.to_bits());
    }
    d.finish()
}

/// Home/work fingerprints from the per-user POIs, as the attack defines
/// them.
fn reference_fingerprints(ds: &Dataset, cfg: &DjConfig) -> BTreeMap<UserId, (GeoPoint, GeoPoint)> {
    attacks::extract_pois_dataset(ds, cfg)
        .into_iter()
        .filter_map(|(user, pois)| {
            let home = attacks::infer_home(&pois)?;
            let work = attacks::infer_work(&pois, home).unwrap_or(home);
            Some((user, (home.center, work.center)))
        })
        .collect()
}

/// Digest of the expected links of `ds` against its release: each user
/// linked to the release's user with the nearest home plus work (first
/// such user on ties), strongest links first.
fn reference_links(ds: &Dataset) -> u64 {
    let cfg = DjConfig::default();
    let released = Linking::mask().apply(ds);
    let fa = reference_fingerprints(ds, &cfg);
    let fb = reference_fingerprints(&released, &cfg);
    let mut links: Vec<LinkResult> = Vec::new();
    for (&user_a, &(home_a, work_a)) in &fa {
        let mut best: Option<(UserId, f64)> = None;
        for (&user_b, &(home_b, work_b)) in &fb {
            let score = haversine_m(home_a, home_b) + haversine_m(work_a, work_b);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((user_b, score));
            }
        }
        if let Some((user_b, score_m)) = best {
            links.push(LinkResult {
                user_a,
                user_b,
                score_m,
            });
        }
    }
    links.sort_by(|x, y| x.score_m.total_cmp(&y.score_m));
    links_digest(&links, linking_accuracy(&links))
}

impl Workload for Linking {
    type Plan = Vec<PopulationPlan>;
    type Inputs = LinkingInputs;
    type Reference = Vec<u64>;
    type Output = Links;

    fn plan(&self, seed: u64) -> Vec<PopulationPlan> {
        let seeds: Vec<u64> = (0..self.populations)
            .map(|i| seed.wrapping_mul(self.populations).wrapping_add(i))
            .collect();
        geolife_plans(&seeds, self.scale)
    }

    fn setup(
        &self,
        plans: &Vec<PopulationPlan>,
        spans: &Recorder,
    ) -> Result<LinkingInputs, String> {
        let populations = geolife_populations(plans, spans);
        Ok(LinkingInputs {
            populations,
            next: 0,
        })
    }

    /// Traces of one population (every population has the same per-user
    /// profile, so they differ only by rounding).
    fn input_traces(&self, inputs: &LinkingInputs) -> u64 {
        let total: usize = inputs.populations.iter().map(Dataset::num_traces).sum();
        (total / inputs.populations.len()) as u64
    }

    fn reference(&self, inputs: &LinkingInputs) -> Vec<u64> {
        inputs.populations.iter().map(reference_links).collect()
    }

    /// Masks and links the next population in turn.
    fn run(
        &self,
        inputs: &mut LinkingInputs,
        _rec: &Recorder,
        spans: &Recorder,
    ) -> Result<Op<Links>, String> {
        let population = inputs.next;
        inputs.next = (population + 1) % inputs.populations.len();
        let ds = &inputs.populations[population];
        let released = spanned(spans, "sanitize.apply", || Self::mask().apply(ds));
        let links = spanned(spans, "attacks.link_datasets", || {
            attacks::link_datasets(ds, &released, &DjConfig::default())
        });
        let accuracy = linking_accuracy(&links);
        let output = Links {
            population,
            links,
            accuracy,
        };
        Ok(Op::new(output, Vec::new()))
    }

    fn verify(
        &self,
        _inputs: &LinkingInputs,
        output: &Links,
        reference: &Vec<u64>,
    ) -> Result<(), String> {
        same_digest(
            links_digest(&output.links, output.accuracy),
            reference[output.population],
        )
    }

    fn corrupt(&self, output: &mut Links) {
        output.accuracy += 1.0;
    }

    /// The fingerprint step alone, and every user's POI extraction timed
    /// one by one on this thread: the per-user cost distribution (of the
    /// first population).
    fn traced_extras(&self, inputs: &LinkingInputs, spans: &Recorder) -> LayerValues {
        let cfg = DjConfig::default();
        let ds = &inputs.populations[0];
        spanned(spans, "attacks.fingerprints", || {
            std::hint::black_box(attacks::linking::fingerprints(ds, &cfg));
        });
        let mut per_user_ms = Vec::with_capacity(ds.num_users());
        for trail in ds.trails() {
            let started = std::time::Instant::now();
            let pois = spanned(spans, "attacks.extract_pois", || {
                attacks::extract_pois(trail, &cfg)
            });
            std::hint::black_box(pois);
            per_user_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let s = stats::summarize(&per_user_ms);
        let mut m = LayerValues::new();
        m.insert("attacks.users", s.n as f64);
        m.insert("attacks.user_p50_ms", s.p50);
        m.insert("attacks.user_tail_ms", s.tail);
        m.insert("attacks.user_tail_pct", s.tail_pct);
        m.insert("attacks.user_max_ms", s.max);
        m.insert("attacks.user_skew", stats::ratio(s.max, s.p50));
        m
    }
}
