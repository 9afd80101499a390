//! Integration: a small k-means job recorded end-to-end — the event
//! stream must read job-start → N iteration spans → job-end, and the
//! JSONL sink must hold one well-formed object per line.

use gepeto::prelude::*;
use gepeto_telemetry::{EventKind, Recorder};

fn tiny_dataset() -> Dataset {
    SyntheticGeoLife::new(GeneratorConfig {
        users: 3,
        scale: 0.004,
        ..GeneratorConfig::paper()
    })
    .generate()
}

#[test]
fn kmeans_emits_ordered_spans_into_jsonl_sink() {
    let ds = tiny_dataset();
    let cluster = Cluster::local(4, 2);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 1 << 20);
    gepeto::dfs_io::put_dataset(&mut dfs, "geolife", &ds).unwrap();

    let cfg = kmeans::KMeansConfig {
        k: 3,
        max_iterations: 5,
        ..kmeans::KMeansConfig::paper(gepeto_geo::DistanceMetric::SquaredEuclidean)
    };
    let rec = Recorder::enabled();
    let ctx = RunCtx::from(&rec);
    let result = kmeans::mapreduce_kmeans(&cluster, &mut dfs, "geolife", &cfg, None, &ctx).unwrap();
    assert!(result.iterations >= 1);

    // Ordering: the kmeans run span opens first, every iteration span
    // starts and ends strictly inside it, and the run span closes last.
    let events = rec.events();
    let start_idx = events
        .iter()
        .position(|e| e.kind == EventKind::SpanStart && e.name == "kmeans")
        .expect("run span start");
    let end_idx = events
        .iter()
        .position(|e| e.kind == EventKind::SpanEnd && e.name == "kmeans")
        .expect("run span end");
    assert_eq!(start_idx, 0, "run span must open the stream");
    let run_id = events[start_idx].span_id;

    let iter_starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::SpanStart && e.name == "kmeans.iteration")
        .map(|(i, _)| i)
        .collect();
    let iter_ends: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::SpanEnd && e.name == "kmeans.iteration")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        iter_starts.len(),
        result.iterations,
        "one span per iteration"
    );
    assert_eq!(iter_ends.len(), result.iterations);
    for (&s, &e) in iter_starts.iter().zip(&iter_ends) {
        assert!(
            start_idx < s && s < e && e < end_idx,
            "iteration inside run"
        );
        assert_eq!(
            events[s].parent_id, run_id,
            "iteration is a child of the run"
        );
    }
    // Iteration labels count up from 1.
    for (i, &s) in iter_starts.iter().enumerate() {
        assert_eq!(events[s].label("iter"), Some((i + 1).to_string().as_str()));
    }
    // Every iteration carried a full MapReduce job underneath.
    let jobs = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "job")
        .count();
    assert_eq!(jobs, result.iterations);
    // And one convergence-shift point per iteration.
    let shifts = events
        .iter()
        .filter(|e| e.kind == EventKind::Point && e.name == "kmeans.shift")
        .count();
    assert_eq!(shifts, result.iterations);

    // The JSONL sink: one object per line, braces balanced, every line
    // self-describing via its "kind" field.
    let mut sink: Vec<u8> = Vec::new();
    rec.write_jsonl(&mut sink).unwrap();
    let body = String::from_utf8(sink).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), events.len(), "one line per event");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
        assert!(line.contains("\"kind\":"), "bad line: {line}");
        assert!(line.contains("\"name\":"), "bad line: {line}");
    }
    assert!(lines[0].contains("\"name\":\"kmeans\""));
    assert!(lines.last().unwrap().contains("span_end"));

    // The summary built from the same stream sees the phases.
    let summary = rec.summary();
    assert!(summary.phases.iter().any(|p| p.name == "map"));
    assert!(summary.phases.iter().any(|p| p.name == "reduce"));
}
