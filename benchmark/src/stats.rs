//! Summary statistics: medians, the tail-percentile rule, and the paper's
//! headline comparison.

use olab_core::CellOutcome;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// One reported percentile with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported, in percent.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The nearest-rank `want`-th percentile (in percent) of `values`, lowered
/// when needed so that at least ten samples lie beyond it: with fewer than
/// 1000 samples a p99 would rest on fewer than ten, so the highest
/// percentile that still has ten samples beyond it is reported instead.
pub fn tail_percentile(values: &[f64], want: f64) -> Percentile {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "percentile of an empty sample");
    let wanted_rank = (want * n as f64 / 100.0).ceil() as usize;
    let rank = wanted_rank.min(n.saturating_sub(10)).max(1);
    Percentile {
        pct: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// The four statistics the paper's abstract quotes, as fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Mean Eq. 1 compute slowdown over feasible cells.
    pub mean_compute_slowdown: f64,
    /// Largest compute slowdown.
    pub max_compute_slowdown: f64,
    /// Mean slowdown of sequential relative to overlapped execution.
    pub mean_seq_vs_overlapped: f64,
    /// Largest sequential-vs-overlapped slowdown.
    pub max_seq_vs_overlapped: f64,
    /// Feasible cells.
    pub feasible: usize,
    /// Infeasible cells (out of memory on the paper's hardware).
    pub infeasible: usize,
}

impl Headline {
    /// Aggregates a main-grid sweep the way `results/headline.md` does.
    pub fn of(cells: &[CellOutcome]) -> Headline {
        let mut cs = Vec::new();
        let mut sq = Vec::new();
        for r in cells.iter().flatten() {
            cs.push(r.metrics.compute_slowdown);
            sq.push(r.metrics.sequential_vs_overlapped());
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Headline {
            mean_compute_slowdown: mean(&cs),
            max_compute_slowdown: max(&cs),
            mean_seq_vs_overlapped: mean(&sq),
            max_seq_vs_overlapped: max(&sq),
            feasible: cs.len(),
            infeasible: cells.len() - cs.len(),
        }
    }

    /// The four statistics in abstract order, as fractions.
    pub fn quoted(&self) -> [f64; 4] {
        [
            self.mean_compute_slowdown,
            self.max_compute_slowdown,
            self.mean_seq_vs_overlapped,
            self.max_seq_vs_overlapped,
        ]
    }

    /// Mean absolute error against the paper's four percentages, in
    /// percentage points.
    pub fn err_pp(&self, paper_pct: [f64; 4]) -> f64 {
        self.quoted()
            .iter()
            .zip(paper_pct)
            .map(|(sim, paper)| (sim * 100.0 - paper).abs())
            .sum::<f64>()
            / 4.0
    }
}

/// What `results/headline.md` records: the paper's four percentages, the
/// simulated ones as printed, and the feasibility split.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineExpectation {
    /// The paper's figures, percent.
    pub paper_pct: [f64; 4],
    /// The simulated figures exactly as the table prints them.
    pub simulated: [String; 4],
    /// The printed `feasible / infeasible` cell.
    pub split: String,
}

const HEADLINE_ROWS: [&str; 4] = [
    "Mean compute slowdown (overlap vs isolated)",
    "Max compute slowdown",
    "Mean sequential vs overlapped",
    "Max sequential vs overlapped",
];

impl HeadlineExpectation {
    /// Parses the markdown table of `results/headline.md`.
    pub fn parse(markdown: &str) -> Result<HeadlineExpectation, String> {
        let row = |label: &str| -> Result<Vec<String>, String> {
            markdown
                .lines()
                .map(|l| {
                    l.split('|')
                        .map(|c| c.trim().to_string())
                        .collect::<Vec<_>>()
                })
                .find(|cells| cells.get(1).is_some_and(|c| c == label))
                .ok_or_else(|| format!("headline table has no row '{label}'"))
        };
        let mut paper_pct = [0.0; 4];
        let mut simulated: [String; 4] = Default::default();
        for (i, label) in HEADLINE_ROWS.iter().enumerate() {
            let cells = row(label)?;
            let (paper, sim) = (&cells[2], &cells[3]);
            paper_pct[i] = paper
                .trim_end_matches('%')
                .parse()
                .map_err(|_| format!("row '{label}': paper value '{paper}' is not a percentage"))?;
            simulated[i] = sim.clone();
        }
        let split = row("Feasible / infeasible grid cells")?[3].clone();
        Ok(HeadlineExpectation {
            paper_pct,
            simulated,
            split,
        })
    }

    /// True when the headline prints exactly as recorded.
    pub fn matches(&self, h: &Headline) -> bool {
        let printed = h.quoted().map(olab_core::report::pct);
        printed == self.simulated && format!("{} / {}", h.feasible, h.infeasible) == self.split
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_keeps_its_rank_with_a_thousand_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail_percentile(&v, 99.0);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.pct, 99.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 1000);
    }

    #[test]
    fn small_runs_report_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = tail_percentile(&v, 99.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.value, 190.0);
        assert_eq!(p.pct, 95.0);
        // The median is far from the tail and keeps its rank.
        let m = tail_percentile(&v, 50.0);
        assert_eq!((m.value, m.pct), (100.0, 50.0));
    }

    #[test]
    fn headline_error_is_the_mean_absolute_gap_in_points() {
        let h = Headline {
            mean_compute_slowdown: 0.041,
            max_compute_slowdown: 0.467,
            mean_seq_vs_overlapped: 0.099,
            max_seq_vs_overlapped: 0.393,
            feasible: 107,
            infeasible: 53,
        };
        // (14.8 + 6.7 + 0.3 + 12.7) / 4
        assert!((h.err_pp([18.9, 40.0, 10.2, 26.6]) - 8.625).abs() < 1e-9);
    }

    #[test]
    fn headline_markdown_parses_and_matches_its_own_figures() {
        let md = "\
| Statistic | Paper | Simulated | Where |
|---|---|---|---|
| Mean compute slowdown (overlap vs isolated) | 18.9% | 4.1% | - |
| Max compute slowdown | 40.0% | 46.7% | x |
| Mean sequential vs overlapped | 10.2% | 9.9% | - |
| Max sequential vs overlapped | 26.6% | 39.3% | y |
| Feasible / infeasible grid cells | - | 107 / 53 | - |
";
        let e = HeadlineExpectation::parse(md).expect("parses");
        assert_eq!(e.paper_pct, [18.9, 40.0, 10.2, 26.6]);
        let h = Headline {
            mean_compute_slowdown: 0.0411,
            max_compute_slowdown: 0.4671,
            mean_seq_vs_overlapped: 0.0989,
            max_seq_vs_overlapped: 0.3929,
            feasible: 107,
            infeasible: 53,
        };
        assert!(e.matches(&h));
        assert!(!e.matches(&Headline { feasible: 106, ..h }));
    }
}
