//! The run context every workload driver takes, and the trace-to-trace
//! map-only stage that sampling and DJ-Cluster preprocessing share.

use gepeto_mapred::{
    run_with_recovery, Cluster, Dfs, JobError, JobStats, MapOnlyJob, Mapper, RetryPolicy,
};
use gepeto_model::{MobilityTrace, UserId};
use gepeto_telemetry::Recorder;

/// What every workload driver needs besides its inputs: where the run's
/// telemetry goes and how hard the driver re-submits a job that dies.
///
/// Each driver submits every job through [`run_with_recovery`] under
/// `retry`, so the default context (telemetry off, [`RetryPolicy::none`])
/// is one attempt per job under its bare name — exactly a driver that
/// knows nothing of recovery.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Receives the driver's spans and points and every job's events.
    pub telemetry: Recorder,
    /// Whole-job re-submission budget and virtual-time backoff.
    pub retry: RetryPolicy,
}

impl Default for RunCtx {
    /// A disabled recorder and no retries — not [`RetryPolicy::default`],
    /// which re-submits twice.
    fn default() -> Self {
        Self {
            telemetry: Recorder::disabled(),
            retry: RetryPolicy::none(),
        }
    }
}

impl RunCtx {
    /// Submits a job through [`run_with_recovery`] under this context's
    /// retry policy; `run` gets the attempt's job name (`name`, then
    /// `{name}.r1`, …). Returns the job's value and its re-submissions.
    pub(crate) fn submit<V, T>(
        &self,
        name: &str,
        cluster: &Cluster,
        dfs: &mut Dfs<V>,
        run: impl FnMut(&str, &Dfs<V>) -> Result<T, JobError>,
    ) -> Result<(T, u32), JobError>
    where
        V: Clone,
    {
        run_with_recovery(name, cluster, dfs, &self.retry, &self.telemetry, run)
    }
}

impl From<&Recorder> for RunCtx {
    /// A context that records into `telemetry` and never retries.
    fn from(telemetry: &Recorder) -> Self {
        Self {
            telemetry: telemetry.clone(),
            ..Self::default()
        }
    }
}

/// Runs `mapper` over `input` as a map-only job named `name` under
/// `ctx`, sizing records as PLT lines. Returns the emitted traces in
/// output order, the job's statistics and its re-submissions.
pub(crate) fn map_traces<M>(
    name: &str,
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    mapper: M,
    ctx: &RunCtx,
) -> Result<(Vec<MobilityTrace>, JobStats, u32), JobError>
where
    M: Mapper<MobilityTrace, KOut = UserId, VOut = MobilityTrace>,
{
    let (result, retries) = ctx.submit(name, cluster, dfs, |name, dfs| {
        MapOnlyJob::new(name, cluster, dfs, input, mapper.clone())
            .pair_bytes(|_, t| t.approx_plt_bytes())
            .telemetry(ctx.telemetry.clone())
            .run()
    })?;
    let traces = result.output.into_iter().map(|(_, t)| t).collect();
    Ok((traces, result.stats, retries))
}
