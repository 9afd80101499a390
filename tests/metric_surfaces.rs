//! Cross-surface agreement: every engine counter is declared once in the
//! metric table, and every surface that reports it must tell the same
//! number. One monitored job runs under injected storage faults and a
//! starvation memory budget (so the spill, seal-repair and stall paths
//! all bump their counters); afterwards the live Prometheus exposition,
//! the job's `JobStats.counters` and the end-of-run `SummaryReport` must
//! agree on every table counter.

use gepeto::prelude::*;
use gepeto::sampling::{self, SamplingConfig, Technique};
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{ChaosPlan, IoFaultPlan, SimParams};
use gepeto_synth::SynthConfig;
use gepeto_telemetry::metrics::METRICS;
use gepeto_telemetry::Recorder;

#[test]
fn exposition_job_stats_and_summary_agree_on_every_counter() {
    let plan = IoFaultPlan::new(13).eio(0.3).torn(0.4).slow(5.0);
    let mut cluster = Cluster::local(4, 2).with_chaos(ChaosPlan::none().io_faults(plan));
    cluster.sim = SimParams::unit_time();
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 16 * 1024);
    SynthConfig::new(40)
        .seed(7)
        .to_dfs(&mut dfs, "synth")
        .unwrap();
    let rec = Recorder::monitored();
    let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
    // A 1-byte budget forces every partition out of core.
    let (_, stats) =
        sampling::mapreduce_sample_by_user(&cluster, &dfs, "synth", &cfg, Some(1), &rec).unwrap();

    // The run exercised the paths whose counters are compared below.
    // Which repair a seal needs depends on the spill file names, so only
    // their total is certain to be non-zero.
    let repairs = [
        builtin::IO_RETRIES,
        builtin::TORN_WRITES,
        builtin::RUNS_QUARANTINED,
    ]
    .map(|name| stats.counter(name));
    assert!(repairs.iter().sum::<u64>() > 0, "{:?}", stats.counters);
    for name in [
        builtin::IO_STALL_MS,
        builtin::SPILLED_BYTES,
        builtin::SPILL_FILES,
        builtin::SPILLED_GROUPS,
        builtin::SHUFFLE_BYTES,
        builtin::MEM_BUDGET_BYTES,
    ] {
        assert!(
            stats.counter(name) > 0,
            "{name} stayed zero: {:?}",
            stats.counters
        );
    }

    let exposition = rec.monitor().unwrap().snapshot().to_prometheus();
    let sample = |family: &str| -> u64 {
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{family} missing from the exposition"))
            .parse()
            .unwrap()
    };
    let summary = rec.summary();
    for m in METRICS {
        let job = stats.counter(m.name);
        assert_eq!(
            summary.counter(m.name),
            job,
            "summary vs JobStats: {}",
            m.name
        );
        if let Some(family) = m.family {
            assert_eq!(sample(family), job, "exposition vs JobStats: {}", m.name);
        }
    }

    // The rendered summary prints those same values.
    let c = |name| stats.counter(name);
    let text = summary.render();
    for line in [
        format!("shuffle bytes: {}", c(builtin::SHUFFLE_BYTES)),
        format!(
            "spill: {} bytes in {} files",
            c(builtin::SPILLED_BYTES),
            c(builtin::SPILL_FILES)
        ),
        format!("spilled reduce groups: {}", c(builtin::SPILLED_GROUPS)),
        format!(
            "storage: {} io retries, {} torn writes detected, {} runs quarantined",
            c(builtin::IO_RETRIES),
            c(builtin::TORN_WRITES),
            c(builtin::RUNS_QUARANTINED)
        ),
    ] {
        assert!(text.contains(&line), "{line:?} not in:\n{text}");
    }
}
