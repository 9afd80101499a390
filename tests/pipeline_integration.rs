//! End-to-end integration: generator → DFS → the paper's full pipeline
//! (sampling → preprocessing → DJ-Cluster → POI attack), asserting the
//! structural facts the paper's tables rest on.

use gepeto::prelude::*;

fn small_dataset() -> Dataset {
    SyntheticGeoLife::new(GeneratorConfig {
        users: 15,
        scale: 0.02,
        ..GeneratorConfig::paper()
    })
    .generate()
}

#[test]
fn table1_shape_sampling_reduces_monotonically() {
    // Table I: trace counts fall drastically with the sampling rate, and
    // longer windows keep fewer traces.
    let ds = small_dataset();
    let cluster = Cluster::local(4, 2);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 1 << 20);
    gepeto::dfs_io::put_dataset(&mut dfs, "geolife", &ds).unwrap();

    let mut counts = Vec::new();
    for window in [60i64, 300, 600] {
        let cfg = sampling::SamplingConfig::new(window, sampling::Technique::ClosestToUpperLimit);
        let (sampled, _) =
            sampling::mapreduce_sample(&cluster, &mut dfs, "geolife", &cfg, &RunCtx::default())
                .unwrap();
        counts.push(sampled.num_traces());
    }
    assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    // The 1-minute rate already cuts the dense logs by roughly 10×
    // (paper: 2,033,686 → 155,260 ≈ 13×).
    let ratio = ds.num_traces() as f64 / counts[0] as f64;
    assert!(
        (6.0..25.0).contains(&ratio),
        "1-min reduction ratio {ratio}"
    );
}

#[test]
fn table4_shape_preprocessing_reduces_in_both_steps() {
    // Table IV: the speed filter removes a large share (paper: ~44 % of
    // the 1-min data is moving), dedup a small one.
    let ds = small_dataset();
    let cluster = Cluster::local(4, 2);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 1 << 20);
    gepeto::dfs_io::put_dataset(&mut dfs, "geolife", &ds).unwrap();
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let ctx = RunCtx::default();
    let (sampled, _) =
        sampling::mapreduce_sample(&cluster, &mut dfs, "geolife", &scfg, &ctx).unwrap();
    put_dataset(&mut dfs, "sampled", &sampled).unwrap();

    let cfg = djcluster::DjConfig::default();
    let pre = djcluster::mapreduce_preprocess(&cluster, &mut dfs, "sampled", "clean", &cfg, &ctx)
        .unwrap();
    assert!(pre.after_speed_filter < pre.input);
    assert!(pre.after_dedup <= pre.after_speed_filter);
    let kept = pre.after_speed_filter as f64 / pre.input as f64;
    assert!(
        (0.30..0.85).contains(&kept),
        "stationary share {kept} (paper: ~0.56)"
    );
    // Dedup is the small step (paper: 86,416 → 85,743, <5 %).
    let dedup_loss = 1.0 - pre.after_dedup as f64 / pre.after_speed_filter.max(1) as f64;
    assert!(dedup_loss < 0.15, "dedup removed {dedup_loss}");
    assert_eq!(pre.jobs.num_jobs(), 2, "two pipelined map-only jobs");
}

#[test]
fn poi_attack_recovers_planted_homes() {
    // The generator plants each user's home; the attack should find a POI
    // near it for most users.
    let ds = small_dataset();
    let cfg = djcluster::DjConfig::default();
    let pois = attacks::extract_pois_dataset(&ds, &cfg);
    let mut found = 0;
    for pois in pois.values() {
        if attacks::infer_home(pois).is_some() {
            found += 1;
        }
    }
    assert!(
        found * 10 >= ds.num_users() * 8,
        "home found for only {found}/{} users",
        ds.num_users()
    );
}

#[test]
fn kmeans_on_generated_data_converges() {
    let ds = small_dataset();
    let cluster = Cluster::local(4, 2);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 256 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "geolife", &ds).unwrap();
    let cfg = kmeans::KMeansConfig {
        k: 11,
        convergence_delta: 1e-6,
        max_iterations: 60,
        ..kmeans::KMeansConfig::paper(gepeto_geo::DistanceMetric::SquaredEuclidean)
    };
    let result = kmeans::mapreduce_kmeans(
        &cluster,
        &mut dfs,
        "geolife",
        &cfg,
        None,
        &RunCtx::default(),
    )
    .unwrap();
    assert!(result.iterations > 1, "non-trivial iteration count");
    assert_eq!(result.centroids.len(), 11);
    // Every centroid is inside the city bounding box.
    for c in &result.centroids {
        assert!((39.0..41.0).contains(&c.lat) && (115.0..118.0).contains(&c.lon));
    }
}

#[test]
fn full_dj_pipeline_extracts_city_pois() {
    let ds = small_dataset();
    let cluster = Cluster::local(4, 2);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 512 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "geolife", &ds).unwrap();
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let ctx = RunCtx::default();
    let (sampled, _) =
        sampling::mapreduce_sample(&cluster, &mut dfs, "geolife", &scfg, &ctx).unwrap();
    put_dataset(&mut dfs, "sampled", &sampled).unwrap();

    let cfg = djcluster::DjConfig::default();
    let rcfg = gepeto::rtree_build::RTreeBuildConfig::default();
    let (clustering, pre, stats) =
        djcluster::mapreduce_djcluster_full(&cluster, &mut dfs, "sampled", &cfg, Some(&rcfg), &ctx)
            .unwrap();
    assert!(pre.after_dedup > 0);
    assert!(!clustering.clusters.is_empty());
    for c in &clustering.clusters {
        assert!(c.len() >= cfg.min_pts);
    }
    assert!(stats.rtree_report.is_some());
    assert_eq!(stats.cluster_job.reduce_tasks, 1);
    // Conservation: clustered + noise = preprocessed input.
    let clustered: usize = clustering.clusters.iter().map(Vec::len).sum();
    assert_eq!(clustered + clustering.noise, pre.after_dedup);
}

#[test]
fn plt_round_trip_through_text() {
    // The generator's output survives PLT text serialization — the format
    // real GeoLife files use.
    let ds = SyntheticGeoLife::new(GeneratorConfig {
        users: 3,
        scale: 0.003,
        ..GeneratorConfig::paper()
    })
    .generate();
    for trail in ds.trails() {
        let text: String = trail
            .traces()
            .iter()
            .map(|t| gepeto_model::plt::format_line(t) + "\n")
            .collect();
        let (parsed, errors) = gepeto_model::plt::parse_file(trail.user, &text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(parsed.len(), trail.len());
        for (a, b) in trail.traces().iter().zip(&parsed) {
            assert_eq!(a.timestamp, b.timestamp);
            assert!((a.point.lat - b.point.lat).abs() < 1e-6);
            assert!((a.point.lon - b.point.lon).abs() < 1e-6);
        }
    }
}
