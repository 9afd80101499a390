//! Hadoop-style job counters: named `u64` accumulators that tasks bump
//! concurrently and the driver reads after the job completes.

use gepeto_telemetry::{metrics, Monitor};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Phase names used in failure hashing, error reporting and telemetry
/// labels. Shared constants so the jobtracker, the simulator and the
/// telemetry layer can never drift apart on a typo.
pub mod phase {
    /// The map phase.
    pub const MAP: &str = "map";
    /// The reduce phase.
    pub const REDUCE: &str = "reduce";
    /// The shuffle (map-output regrouping) phase.
    pub const SHUFFLE: &str = "shuffle";
    /// The map-side combine phase.
    pub const COMBINE: &str = "combine";
    /// The reduce-side sort/group phase.
    pub const SORT: &str = "sort";
}

/// Built-in counter names used by the engine itself: the names of the
/// `gepeto-telemetry` metric table, where each is declared once with its
/// fold rule, unit, compare gate and live Prometheus family.
pub mod builtin {
    pub use gepeto_telemetry::metrics::names::*;
}

/// A concurrent set of named counters. Cloning shares the underlying
/// storage (it is an `Arc` internally), matching how every task of a job
/// reports into the same jobtracker-side counters. A set built with
/// [`Counters::monitored`] mirrors every bump into the run's live
/// [`Monitor`] as it happens.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    inner: Arc<Mutex<BTreeMap<String, u64>>>,
    monitor: Option<Arc<Monitor>>,
}

impl Counters {
    /// A fresh, empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh, empty counter set whose bumps also reach `monitor`.
    pub fn monitored(monitor: Option<Arc<Monitor>>) -> Self {
        Self {
            inner: Arc::default(),
            monitor,
        }
    }

    /// Folds `value` into counter `name` (creating it at zero) by its
    /// metric-table rule: running totals add, high-water marks such as
    /// [`builtin::MEM_ACCOUNTED_PEAK`] keep the larger value. Names
    /// outside the table are running totals.
    pub fn inc(&self, name: &str, value: u64) {
        let fold = metrics::fold_of(name);
        {
            let mut map = self.inner.lock();
            match map.get_mut(name) {
                Some(v) => *v = fold.apply(*v, value),
                None => {
                    map.insert(name.to_string(), value);
                }
            }
        }
        if let Some(m) = &self.monitor {
            m.add(name, value);
        }
    }

    /// Current value of `name` (0 when never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.lock().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters in name order.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner.lock().clone()
    }

    /// Merges another counter set into this one, folding each name by
    /// its table rule (as if `other`'s totals were bumped here).
    pub fn merge(&self, other: &Counters) {
        for (k, v) in other.snapshot() {
            self.inc(&k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn inc_and_get() {
        let c = Counters::new();
        c.inc("records", 3);
        c.inc("records", 4);
        assert_eq!(c.get("records"), 7);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn clones_share_storage() {
        let c = Counters::new();
        let c2 = c.clone();
        c2.inc("x", 5);
        assert_eq!(c.get("x"), 5);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let c = Counters::new();
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc("n", 1);
                    }
                });
            }
        });
        assert_eq!(c.get("n"), 8000);
    }

    #[test]
    fn merge_adds() {
        let a = Counters::new();
        a.inc("x", 1);
        a.inc("y", 2);
        let b = Counters::new();
        b.inc("y", 3);
        b.inc("z", 4);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap["x"], 1);
        assert_eq!(snap["y"], 5);
        assert_eq!(snap["z"], 4);
    }

    #[test]
    fn high_water_counters_fold_by_max() {
        let a = Counters::new();
        a.inc(builtin::MEM_ACCOUNTED_PEAK, 100);
        a.inc(builtin::MEM_ACCOUNTED_PEAK, 40);
        assert_eq!(a.get(builtin::MEM_ACCOUNTED_PEAK), 100);
        a.inc(builtin::MEM_ACCOUNTED_PEAK, 250);
        assert_eq!(a.get(builtin::MEM_ACCOUNTED_PEAK), 250);
        // merge keeps the larger watermark instead of summing.
        let b = Counters::new();
        b.inc(builtin::MEM_ACCOUNTED_PEAK, 120);
        b.inc("x", 7);
        a.merge(&b);
        assert_eq!(a.get(builtin::MEM_ACCOUNTED_PEAK), 250);
        assert_eq!(a.get("x"), 7);
    }
}
