//! Per-sweep telemetry: throughput, cache effectiveness, and the
//! wall-clock-vs-cumulative-work ratio that shows what parallelism bought.

use std::fmt;

/// Statistics of one grid execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Total cells requested.
    pub cells: usize,
    /// Cells actually simulated (cache misses).
    pub simulated: usize,
    /// Cells served by the in-memory cache tier.
    pub memory_hits: usize,
    /// Cells served by the disk cache tier.
    pub disk_hits: usize,
    /// Cells that ultimately failed — a panic, a missed deadline, or an
    /// exhausted retry budget (isolated by the pool, never cached).
    pub panicked: usize,
    /// Disk cache entries that failed integrity verification during this
    /// sweep: quarantined as `*.corrupt` and recomputed.
    pub quarantined: usize,
    /// Attempts that hit their wall-clock deadline, including ones later
    /// recovered by a retry.
    pub timeouts: usize,
    /// Extra attempts made beyond each cell's first (0 without guards).
    pub retries: usize,
    /// Disk cache entries evicted by the size-cap policy during this
    /// sweep (at open or at end-of-run enforcement).
    pub evicted: usize,
    /// The disk tier latched into memory-only degradation (ENOSPC/EACCES)
    /// at some point up to the end of this sweep.
    pub degraded: bool,
    /// Whether a disk cache tier was attached for this sweep. With it the
    /// two fields below describe the tier as of end-of-run; without it
    /// they are zero.
    pub disk_enabled: bool,
    /// Disk cache entries present after the sweep (post cap enforcement),
    /// from the same [`crate::cache::CacheHealth`] scan that `/readyz`
    /// reads in a serving deployment.
    pub disk_entries: u64,
    /// Bytes occupied by the disk tier after the sweep.
    pub disk_bytes: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep, seconds.
    pub wall_s: f64,
    /// Sum of per-cell simulation times, seconds (what a serial, uncached
    /// sweep would have spent computing).
    pub cumulative_cell_s: f64,
    /// Observability overhead: cumulative wall-clock spent inside progress
    /// sinks across all workers, seconds (0 when no sink is attached).
    pub observer_s: f64,
}

impl SweepStats {
    /// Cells served from either cache tier.
    pub fn cache_hits(&self) -> usize {
        self.memory_hits + self.disk_hits
    }

    /// Fraction of cells served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / self.cells as f64
        }
    }

    /// Sweep throughput, cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cells as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Cumulative simulated time over wall-clock time — the effective
    /// speedup delivered by the pool and the cache together.
    pub fn speedup(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cumulative_cell_s / self.wall_s
        } else {
            0.0
        }
    }

    /// One-line summary for report footers, e.g.
    /// `88 cells in 1.24 s (71.0 cells/s, 16 workers): 40 simulated, 48 cached (54.5% hit rate), 9.80 s simulated in 1.24 s wall (7.9x)`.
    pub fn summary(&self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells in {:.2} s ({:.1} cells/s, {} workers): {} simulated, {} cached ({:.1}% hit rate, {} memory / {} disk), {:.2} s simulated in {:.2} s wall ({:.1}x)",
            self.cells,
            self.wall_s,
            self.cells_per_sec(),
            self.workers,
            self.simulated,
            self.cache_hits(),
            100.0 * self.hit_rate(),
            self.memory_hits,
            self.disk_hits,
            self.cumulative_cell_s,
            self.wall_s,
            self.speedup(),
        )?;
        if self.panicked > 0 {
            write!(f, ", {} panicked", self.panicked)?;
        }
        if self.quarantined > 0 {
            write!(f, ", {} quarantined", self.quarantined)?;
        }
        if self.retries > 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        if self.timeouts > 0 {
            write!(f, ", {} timeouts", self.timeouts)?;
        }
        if self.evicted > 0 {
            write!(f, ", {} evicted", self.evicted)?;
        }
        if self.degraded {
            write!(f, ", cache degraded to memory-only")?;
        }
        if self.disk_enabled {
            write!(
                f,
                ", disk tier {} entries / {} B",
                self.disk_entries, self.disk_bytes
            )?;
        }
        if self.observer_s > 0.0 {
            write!(f, ", {:.3} s in observers", self.observer_s)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SweepStats {
        SweepStats {
            cells: 10,
            simulated: 4,
            memory_hits: 5,
            disk_hits: 1,
            workers: 8,
            wall_s: 2.0,
            cumulative_cell_s: 12.0,
            ..SweepStats::default()
        }
    }

    #[test]
    fn derived_rates_are_consistent() {
        let s = stats();
        assert_eq!(s.cache_hits(), 6);
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.cells_per_sec() - 5.0).abs() < 1e-12);
        assert!((s.speedup() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn zero_wall_clock_divides_safely() {
        let s = SweepStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.cells_per_sec(), 0.0);
        assert_eq!(s.speedup(), 0.0);
    }

    #[test]
    fn summary_mentions_the_load_bearing_numbers() {
        let text = stats().summary();
        for needle in [
            "10 cells",
            "4 simulated",
            "6 cached",
            "60.0% hit rate",
            "8 workers",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in '{text}'");
        }
        assert!(!text.contains("panicked"), "quiet when nothing panicked");
        assert!(!text.contains("observers"), "quiet when unobserved");
        let noisy = SweepStats {
            panicked: 2,
            observer_s: 0.25,
            ..stats()
        };
        assert!(noisy.summary().contains("2 panicked"));
        assert!(noisy.summary().contains("0.250 s in observers"));
        assert!(!noisy.summary().contains("quarantined"), "quiet when clean");
        let rotten = SweepStats {
            quarantined: 1,
            ..stats()
        };
        assert!(rotten.summary().contains("1 quarantined"));
    }

    #[test]
    fn guard_and_cache_health_clauses_appear_only_when_nonzero() {
        let quiet = stats().summary();
        for absent in ["retries", "timeouts", "evicted", "degraded"] {
            assert!(!quiet.contains(absent), "'{absent}' must be quiet: {quiet}");
        }
        let guarded = SweepStats {
            retries: 5,
            timeouts: 2,
            evicted: 7,
            degraded: true,
            ..stats()
        };
        let text = guarded.summary();
        for needle in [
            "5 retries",
            "2 timeouts",
            "7 evicted",
            "cache degraded to memory-only",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in '{text}'");
        }
    }

    #[test]
    fn disk_tier_clause_appears_only_with_a_disk_cache() {
        assert!(
            !stats().summary().contains("disk tier"),
            "memory-only sweeps stay quiet about the disk tier"
        );
        let on_disk = SweepStats {
            disk_enabled: true,
            disk_entries: 12,
            disk_bytes: 4096,
            ..stats()
        };
        assert!(
            on_disk.summary().contains("disk tier 12 entries / 4096 B"),
            "{}",
            on_disk.summary()
        );
        let empty_disk = SweepStats {
            disk_enabled: true,
            ..stats()
        };
        assert!(
            empty_disk.summary().contains("disk tier 0 entries / 0 B"),
            "an attached-but-empty tier is still reported: {}",
            empty_disk.summary()
        );
    }
}
