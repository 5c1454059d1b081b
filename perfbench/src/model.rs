//! Simulated-machine aggregates over a campaign's report rows: the
//! paired speedups (the paper's Fig 9a quantity) and the per-config
//! `model.*` statistics. Everything here is a pure function of the
//! deterministic reports, so it repeats exactly across runs.

use r3dla_bench::{CellStatus, GridResult, SampledGridResult};

use crate::stats::paired_geomean;

/// One `(workload, config)` cell of a report, reduced to the counters
/// the model metrics need. Sampled cells sum their intervals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// The campaign the row comes from, where a workload mixes several
    /// (empty otherwise); speedups pair rows within one campaign.
    pub campaign: &'static str,
    /// Workload name.
    pub workload: String,
    /// Config label (`bl`, `dla`, `r3`, ...).
    pub config: String,
    /// MT IPC of the cell (the interval mean for sampled cells).
    pub ipc: f64,
    /// MT instructions committed.
    pub mt: u64,
    /// LT instructions committed.
    pub lt: u64,
    /// MT L1D demand misses.
    pub l1d_misses: u64,
    /// DRAM line transfers.
    pub dram: u64,
    /// Reboots.
    pub reboots: u64,
}

/// Rows of a whole-program grid report, in report order.
pub fn grid_rows(r: &GridResult) -> Vec<Row> {
    r.cells
        .iter()
        .map(|c| Row {
            campaign: "",
            workload: c.workload.clone(),
            config: c.config.clone(),
            ipc: c.report.mt_ipc,
            mt: c.report.mt_committed,
            lt: c.report.lt_committed,
            l1d_misses: c.report.mt_l1d_misses,
            dram: c.report.dram_traffic,
            reboots: c.report.reboots,
        })
        .collect()
}

/// Rows of a sampled grid report: counters summed over the intervals
/// that measured, IPC the interval mean the report prints.
pub fn sampled_rows(r: &SampledGridResult) -> Vec<Row> {
    r.cells
        .iter()
        .map(|c| {
            let ok = || c.reports.iter().zip(&c.interval_ok).filter(|(_, &ok)| ok);
            let sum = |f: fn(&r3dla_core::WindowReport) -> u64| ok().map(|(r, _)| f(r)).sum();
            Row {
                campaign: "",
                workload: c.workload.clone(),
                config: c.config.clone(),
                ipc: c.ipc.mean,
                mt: sum(|r| r.mt_committed),
                lt: sum(|r| r.lt_committed),
                l1d_misses: sum(|r| r.mt_l1d_misses),
                dram: sum(|r| r.dram_traffic),
                reboots: sum(|r| r.reboots),
            }
        })
        .collect()
}

/// Whether every cell of a grid report measured and committed work.
pub fn grid_cells_ok(r: &GridResult) -> impl Iterator<Item = (String, bool, u64)> + '_ {
    r.cells.iter().map(|c| {
        (
            format!("{}/{}", c.workload, c.config),
            c.status == CellStatus::Ok,
            c.report.mt_committed,
        )
    })
}

/// Per-interval outcome of a sampled report (one entry per interval
/// cell).
pub fn sampled_cells_ok(r: &SampledGridResult) -> Vec<(String, bool, u64)> {
    r.cells
        .iter()
        .flat_map(|c| {
            c.reports
                .iter()
                .zip(&c.interval_ok)
                .enumerate()
                .map(move |(i, (rep, &ok))| {
                    (
                        format!("{}/{}/iv{i}", c.workload, c.config),
                        ok,
                        rep.mt_committed,
                    )
                })
        })
        .collect()
}

/// Geometric mean over workloads of `config`'s MT IPC over `base`'s,
/// paired by campaign and workload.
pub fn speedup(rows: &[Row], config: &str, base: &str) -> Option<f64> {
    let ipc = |(k, w): (&str, &str), c: &str| {
        rows.iter()
            .find(|r| r.campaign == k && r.workload == w && r.config == c)
            .map(|r| r.ipc)
    };
    let mut keys: Vec<(&str, &str)> = rows
        .iter()
        .map(|r| (r.campaign, r.workload.as_str()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let pairs: Vec<_> = keys
        .iter()
        .map(|&k| (ipc(k, config), ipc(k, base)))
        .collect();
    paired_geomean(&pairs)
}

/// The `model.<config>.*` statistics of one config column.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfigModel {
    /// Geometric mean of per-workload MT IPC.
    pub ipc: f64,
    /// MT L1D misses per 1000 MT instructions.
    pub l1d_mpki: f64,
    /// DRAM line transfers per 1000 MT instructions.
    pub dram_pki: f64,
    /// LT commits per MT commit (dynamic skeleton fraction).
    pub lt_per_mt: f64,
    /// Reboots per million MT instructions.
    pub reboots_pmi: f64,
}

/// Aggregates one config column; `None` when the column is absent or
/// committed nothing.
pub fn config_model(rows: &[Row], config: &str) -> Option<ConfigModel> {
    let col: Vec<&Row> = rows.iter().filter(|r| r.config == config).collect();
    let mt: u64 = col.iter().map(|r| r.mt).sum();
    if col.is_empty() || mt == 0 {
        return None;
    }
    let per = |x: u64, scale: f64| x as f64 * scale / mt as f64;
    let ipcs: Vec<(Option<f64>, Option<f64>)> =
        col.iter().map(|r| (Some(r.ipc), Some(1.0))).collect();
    Some(ConfigModel {
        ipc: paired_geomean(&ipcs)?,
        l1d_mpki: per(col.iter().map(|r| r.l1d_misses).sum(), 1e3),
        dram_pki: per(col.iter().map(|r| r.dram).sum(), 1e3),
        lt_per_mt: per(col.iter().map(|r| r.lt).sum(), 1.0),
        reboots_pmi: per(col.iter().map(|r| r.reboots).sum(), 1e6),
    })
}

/// Instructions (MT + LT) a set of rows accounts for.
pub fn accounted_insts(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.mt + r.lt).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(w: &str, c: &str, ipc: f64) -> Row {
        Row {
            workload: w.into(),
            config: c.into(),
            ipc,
            mt: 1000,
            lt: 500,
            l1d_misses: 10,
            reboots: 1,
            ..Row::default()
        }
    }

    #[test]
    fn speedups_pair_each_workload_with_its_own_baseline() {
        let rows = vec![
            row("a", "bl", 1.0),
            row("a", "dla", 2.0),
            row("b", "bl", 4.0),
            row("b", "dla", 2.0),
            // No baseline for c: it must not enter the mean.
            row("c", "dla", 9.0),
        ];
        assert!((speedup(&rows, "dla", "bl").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(speedup(&rows, "r3", "bl"), None);
        // The same workload in another campaign pairs with that
        // campaign's baseline only.
        let mut other = vec![row("a", "bl", 1.0), row("a", "r3", 8.0)];
        for r in &mut other {
            r.campaign = "sampled";
        }
        let mixed: Vec<Row> = rows.into_iter().chain(other).collect();
        assert!((speedup(&mixed, "dla", "bl").unwrap() - 1.0).abs() < 1e-12);
        assert!((speedup(&mixed, "r3", "bl").unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn config_model_normalizes_per_mt_instruction() {
        let rows = vec![row("a", "dla", 1.0), row("b", "dla", 4.0)];
        let m = config_model(&rows, "dla").unwrap();
        assert!((m.ipc - 2.0).abs() < 1e-12);
        assert!((m.l1d_mpki - 10.0).abs() < 1e-12);
        assert!((m.lt_per_mt - 0.5).abs() < 1e-12);
        assert!((m.reboots_pmi - 1000.0).abs() < 1e-9);
        assert_eq!(config_model(&rows, "bl"), None);
    }
}
