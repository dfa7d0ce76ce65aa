//! Turning a run into named metrics, the printed report and the
//! result object on the last line.

use crate::live::{LiveOut, LivePlan, SliceStats};
use crate::procfs;
use crate::spec::WorkloadDef;
use crate::stats::{
    best_quartile, driver_spread, iqr, median, percentile_us, quantile, samples_beyond, Better,
};
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        // The result object holds numbers only.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// What the last line of a run says.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads back a line [`RunResult::to_json`] wrote (`--repeat` runs
    /// each run in a process of its own, as the driver does).
    pub fn from_json(line: &str) -> Option<RunResult> {
        let after = |text: &str, key: &str| text.find(key).map(|i| i + key.len());
        let number = |text: &str| text[..text.find([',', '}'])?].trim().parse::<f64>().ok();
        let correct = line[after(line, "\"correct\": ")?..].starts_with("true");
        let attempted = number(&line[after(line, "\"attempted\": ")?..])? as u64;
        let failed = number(&line[after(line, "\"failed\": ")?..])? as u64;
        let mut rest = &line[after(line, "\"metrics\": {")?..];
        let mut metrics = Vec::new();
        while let Some(open) = rest.find('"') {
            let name_end = open + 1 + rest[open + 1..].find('"')?;
            let value_at = after(rest, "\"value\": ")?;
            let unit_at = after(rest, "\"unit\": \"")?;
            let unit_end = unit_at + rest[unit_at..].find('"')?;
            metrics.push(Metric::new(
                &rest[open + 1..name_end],
                &rest[unit_at..unit_end],
                number(&rest[value_at..])?,
            ));
            rest = &rest[unit_end + rest[unit_end..].find('}')? + 1..];
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// The load metrics: computed per slice, then aggregated with the best
/// quartile. Name, unit, good direction, per-slice statistic, and the
/// same statistic pooled over the whole run (a diagnostic).
///
/// Every run prints them, but they carry no bound in `BENCHMARK.json`:
/// two sets of runs of one commit disagreed on each of them by more than
/// a bounded metric may (`NOISE.md`). The host drifts between regimes by
/// the minute, a whole run sits inside one regime, and no estimator
/// inside a run can see through that.
type LoadMetric = (
    &'static str,
    &'static str,
    Better,
    fn(&SliceStats) -> f64,
    fn(&LiveOut) -> f64,
);
const LOAD_METRICS: [LoadMetric; 6] = [
    (
        "tx_per_s",
        "1/s",
        Better::Higher,
        |s| s.tx_per_s,
        |l| l.pooled_tx_per_s,
    ),
    (
        "ro_tx_p50_us",
        "us",
        Better::Lower,
        |s| s.ro_p50_us,
        |l| percentile_us(&l.ro_ns, 0.5),
    ),
    (
        "ro_tx_p95_us",
        "us",
        Better::Lower,
        |s| s.ro_p95_us,
        |l| percentile_us(&l.ro_ns, 0.95),
    ),
    (
        "rw_tx_p50_us",
        "us",
        Better::Lower,
        |s| s.rw_p50_us,
        |l| percentile_us(&l.rw_ns, 0.5),
    ),
    (
        "rw_tx_p95_us",
        "us",
        Better::Lower,
        |s| s.rw_p95_us,
        |l| percentile_us(&l.rw_ns, 0.95),
    ),
    (
        "cpu_us_per_tx",
        "us",
        Better::Lower,
        |s| s.cpu_us_per_tx,
        |l| {
            let tx = |s: &SliceStats| (s.n_ro + s.n_rw) as f64;
            l.slices
                .iter()
                .map(|s| s.cpu_us_per_tx * tx(s))
                .sum::<f64>()
                / l.slices.iter().map(tx).sum::<f64>().max(1.0)
        },
    ),
];

/// The best-quartile value of every load metric.
pub fn load_metrics(live: &LiveOut) -> Vec<Metric> {
    LOAD_METRICS
        .iter()
        .map(|(name, unit, better, stat, _)| {
            let per_slice: Vec<f64> = live.slices.iter().map(stat).collect();
            Metric::new(name, unit, best_quartile(&per_slice, *better))
        })
        .collect()
}

/// The end-to-end metrics that repeat on this machine and so carry a
/// bound, identical names on every workload.
pub fn end_to_end(live: &LiveOut) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", median(&live.setup_s)),
        Metric::new("visibility_p50_us", "us", median(&live.visibility_us)),
        Metric::new("peak_rss_mb", "MiB", live.peak_rss_mib),
    ]
}

/// Provenance, the bounded metrics, every load metric with its
/// across-slice diagnostics, and the machine-state record.
pub fn print_live(def: &WorkloadDef, seed: u64, plan: &LivePlan, live: &LiveOut) {
    let min = |f: fn(&SliceStats) -> usize| live.slices.iter().map(f).min().unwrap_or(0);
    println!("== {} seed {seed} ==", def.name);
    println!("why: {}", def.why);
    println!(
        "provenance: nproc {} | git {} | kernel {} | backend {} | fsync {} | wal fs {} | \
         {}x{} partitions | client threads 2 (closed loop) | slices {} x {:?} | warm-up {:?} | \
         setups {} | probes {} | stream hashes {:016x} {:016x}",
        procfs::nproc(),
        procfs::git_rev(),
        procfs::kernel(),
        live.backend,
        def.fsync_label(),
        live.wal_fs,
        def.dcs,
        def.partitions,
        plan.slices,
        plan.slice_len,
        plan.warmup,
        live.setup_s.len(),
        live.visibility_us.len(),
        live.stream_hashes[0],
        live.stream_hashes[1],
    );
    println!(
        "samples per slice: read-only >= {} (beyond p95: {}), read-write >= {} (beyond p95: {})",
        min(|s| s.n_ro),
        samples_beyond(min(|s| s.n_ro), 0.95),
        min(|s| s.n_rw),
        samples_beyond(min(|s| s.n_rw), 0.95),
    );

    println!("end-to-end, bounded:");
    println!(
        "  {:<20}{:>12.4} s     | runs {:?}",
        "setup_s",
        median(&live.setup_s),
        live.setup_s
    );
    println!(
        "  {:<20}{:>12.2} us    | p25 {:.2} p75 {:.2} over {} probes",
        "visibility_p50_us",
        median(&live.visibility_us),
        quantile(&live.visibility_us, 0.25),
        quantile(&live.visibility_us, 0.75),
        live.visibility_us.len(),
    );
    println!("  {:<20}{:>12.2} MiB", "peak_rss_mb", live.peak_rss_mib);
    println!("load, unbounded (best quartile of slices | slice median, IQR | whole run pooled):");
    for (name, unit, better, stat, pooled) in LOAD_METRICS {
        let per_slice: Vec<f64> = live.slices.iter().map(stat).collect();
        println!(
            "  {:<20}{:>12.2} {:<5} | {:>10.2} {:>9.2} | {:>10.2}",
            name,
            best_quartile(&per_slice, better),
            unit,
            median(&per_slice),
            iqr(&per_slice),
            pooled(live),
        );
    }
    println!(
        "diagnostics: ro p99 {:.1} us p999 {:.1} us | rw p99 {:.1} us p999 {:.1} us | \
         committed {} | threads {}",
        percentile_us(&live.ro_ns, 0.99),
        percentile_us(&live.ro_ns, 0.999),
        percentile_us(&live.rw_ns, 0.99),
        percentile_us(&live.rw_ns, 0.999),
        live.committed,
        live.threads,
    );
    println!("per slice: tx/s | ro p50 p95 us | rw p50 p95 us | cpu us/tx | calib Mops | steal %");
    for (i, s) in live.slices.iter().enumerate() {
        println!(
            "  {i:>2} {:>9.1} | {:>8.1} {:>8.1} | {:>8.1} {:>8.1} | {:>7.1} | {:>6.1} | {:>5.2}",
            s.tx_per_s,
            s.ro_p50_us,
            s.ro_p95_us,
            s.rw_p50_us,
            s.rw_p95_us,
            s.cpu_us_per_tx,
            s.calib_mops,
            s.steal_pct,
        );
    }
    let calib: Vec<f64> = live.slices.iter().map(|s| s.calib_mops).collect();
    let steal: Vec<f64> = live.slices.iter().map(|s| s.steal_pct).collect();
    println!(
        "machine state per slice (diagnostic, nothing is divided by it): \
         calib Mops median {:.1} min {:.1} | steal % median {:.2} max {:.2}",
        median(&calib),
        quantile(&calib, 0.0),
        median(&steal),
        quantile(&steal, 1.0),
    );
}

/// The last lines before the result object: how many checks ran, and
/// every one that failed.
pub fn print_checks(live: &LiveOut) {
    println!(
        "checks: {} run, {} failed | operations: {} attempted, {} failed",
        live.checks.count,
        live.checks.failures.len(),
        live.attempted,
        live.failed
    );
    for f in &live.checks.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// The result object of a finished run over `metrics`.
pub fn result(live: &LiveOut, metrics: Vec<Metric>) -> RunResult {
    RunResult {
        correct: live.checks.failures.is_empty() && live.failed == 0,
        attempted: live.attempted,
        failed: live.failed,
        metrics,
    }
}

/// The noise record of `--repeat`: per metric each run's value, the
/// median, IQR / median and (max − min) / median.
pub fn print_spread(def: &WorkloadDef, runs: &[RunResult]) {
    println!("== {} spread over {} runs ==", def.name, runs.len());
    let Some(first) = runs.first() else { return };
    for (i, m) in first.metrics.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].value).collect();
        let mid = median(&values);
        println!(
            "  {:<20} median {:>12.3} {:<4} iqr/median {:>6.2}% range/median {:>6.2}% | {}",
            m.name,
            mid,
            m.unit,
            100.0 * driver_spread(&values),
            100.0 * (quantile(&values, 1.0) - quantile(&values, 0.0)) / mid,
            values
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_the_contract_keys_and_plain_numbers() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("a", "us", 1.5), Metric::new("b", "s", f64::NAN)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert_eq!(RunResult::from_json(&r.to_json()), Some(r));
        assert_eq!(RunResult::from_json("error: no result"), None);
    }
}
