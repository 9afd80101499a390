//! Golden pins for the three text surfaces operators read: the
//! Prometheus exposition, the `--watch` heartbeat line and the
//! `--summary` table. Every counter is set to a distinct non-zero value
//! so every family and every conditional line prints; the pinned text
//! must stay byte-identical across refactors of how counters are
//! declared and threaded.
//!
//! Only process-dependent values are masked: the allocator-backed
//! `gepeto_mem_*` and pool-backed `gepeto_pool_*` sample values in the
//! exposition, and the `mem … peak …` column of the heartbeat.

use gepeto_telemetry::{Event, EventKind, Monitor, SummaryReport};

/// Bumps every live counter of the monitor to a distinct value, plus the
/// bespoke progress state (task totals, driver progress, node busy,
/// phase peaks, a histogram and the run identity).
fn populated_monitor() -> Monitor {
    let m = Monitor::new();
    m.job_started();
    m.job_started();
    m.job_finished();
    m.add_map_tasks(16);
    for _ in 0..12 {
        m.map_task_done();
    }
    m.add_reduce_tasks(4);
    for _ in 0..3 {
        m.reduce_task_done();
    }
    for (name, value) in [
        ("mapred.shuffle.bytes", 1_234_567),
        ("mapred.task.retries", 3),
        ("mapred.maps.reexecuted", 5),
        ("dfs.reads.failed_over", 6),
        ("mapred.nodes.blacklisted", 2),
        ("mapred.attempts.crash_killed", 7),
        ("kernel.distance_evals", 8_888),
        ("shuffle.sort_skipped", 9),
        ("shuffle.bytes_saved", 10_101),
        ("shuffle.spilled_bytes", 65_536),
        ("shuffle.spill_files", 11),
        ("reduce.spilled_groups", 12),
        ("io.retries", 13),
        ("io.torn_writes_detected", 14),
        ("spill.runs_quarantined", 15),
        ("io.stall_ms", 2_500),
        ("journal.replayed_tasks", 17),
    ] {
        m.add(name, value);
    }
    m.set_driver_progress(3, 0.125);
    m.node_busy(0, 1.5);
    m.node_busy(2, 0.25);
    m.note_phase_peak("map", 4_096);
    m.note_phase_peak("reduce", 512);
    m.observe("task.map.us", 10);
    m.observe("task.map.us", 1_000);
    m.set_run_info("run-42", "kmeans --users 3");
    m
}

/// Replaces the sample value of every process-dependent family.
fn mask_process_samples(exposition: &str) -> String {
    exposition
        .lines()
        .map(|line| {
            let process = line.starts_with("gepeto_mem_") || line.starts_with("gepeto_pool_");
            match line.rsplit_once(' ') {
                Some((series, _)) if process => format!("{series} <masked>\n"),
                _ => format!("{line}\n"),
            }
        })
        .collect()
}

#[test]
fn prometheus_exposition_is_pinned() {
    let text = populated_monitor().snapshot().to_prometheus();
    assert_eq!(
        mask_process_samples(&text),
        include_str!("golden/exposition.prom")
    );
}

#[test]
fn status_line_is_pinned() {
    let line = populated_monitor().snapshot().status_line();
    // The heap column reads the process-wide allocator.
    let (head, rest) = line.split_once(" | mem ").expect("mem column");
    let (_, tail) = rest.split_once(" | iter ").expect("iter column");
    let masked = format!("{head} | mem <masked> | iter {tail}\n");
    assert_eq!(masked, include_str!("golden/status_line.txt"));
}

fn span(name: &'static str, id: u64, dur_us: u64, labels: &[(&str, &str)]) -> [Event; 2] {
    let event = |kind, dur_us, labels: Vec<(String, String)>| Event {
        ts_us: 0,
        kind,
        name,
        span_id: id,
        parent_id: 0,
        dur_us,
        value: None,
        labels,
    };
    [
        event(
            EventKind::SpanStart,
            None,
            labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        ),
        event(EventKind::SpanEnd, Some(dur_us), Vec::new()),
    ]
}

#[test]
fn summary_render_is_pinned() {
    let mut events = Vec::new();
    events.extend(span("phase.map", 1, 40_000, &[]));
    events.extend(span("phase.reduce", 2, 9_000, &[]));
    for (i, dur) in [2_000u64, 2_100, 1_900, 9_000].into_iter().enumerate() {
        events.extend(span(
            "task.map",
            10 + i as u64,
            dur,
            &[("task", &i.to_string())],
        ));
    }
    let counters: Vec<(String, u64)> = [
        ("dfs.reads.failed_over", 3),
        ("io.retries", 7),
        ("io.stall_ms", 4_500),
        ("io.torn_writes_detected", 2),
        ("journal.replayed_tasks", 5),
        ("kernel.distance_evals", 123_456),
        ("mapred.combine.input.records", 21),
        ("mapred.combine.output.records", 22),
        ("mapred.map.input.records", 23),
        ("mapred.map.output.records", 24),
        ("mapred.maps.reexecuted", 4),
        ("mapred.nodes.blacklisted", 1),
        ("mapred.reduce.input.groups", 25),
        ("mapred.reduce.input.records", 26),
        ("mapred.reduce.output.records", 27),
        ("mapred.shuffle.bytes", 4_096),
        ("mapred.spilled.records", 28),
        ("mapred.task.retries", 6),
        ("mem.accounted_peak", 91_000_000),
        ("mem.allocated_bytes", 500_000_000),
        ("mem.allocs", 1_234),
        ("mem.budget_bytes", 64_000_000),
        ("mem.peak_bytes", 120_000_000),
        ("mem.peak_over_budget_bytes", 27_000_000),
        ("reduce.spilled_groups", 8),
        ("shuffle.bytes_saved", 999),
        ("shuffle.sort_skipped", 9),
        ("shuffle.spill_files", 10),
        ("shuffle.spilled_bytes", 65_536),
        ("spill.estimate_error_bytes", 4_096),
        ("spill.runs_quarantined", 3),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    let text = SummaryReport::from_events(&events, &counters).render();
    assert_eq!(text, include_str!("golden/summary.txt"));
}
