//! The faults sweep cell: one `(experiment, fault scenario)` pair as a
//! cacheable [`GridJob`].
//!
//! The cache descriptor is the experiment's canonical cell descriptor
//! joined with the scenario descriptor (which carries the fault schema
//! version, seed, severity and exhaustion policy) — so a faulty cell can
//! never collide with its fault-free twin or with a different scenario.

use crate::run::{run_under_faults, ResilienceMetrics};
use crate::scenario::FaultScenarioSpec;
use olab_core::sweep::cell_descriptor;
use olab_core::Experiment;
use olab_grid::{CacheValue, GridJob, Reader, Writer};
use olab_sim::NullObserver;

/// One cell of a faults sweep.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// The experiment to run.
    pub experiment: Experiment,
    /// The fault scenario to inject.
    pub spec: FaultScenarioSpec,
}

impl FaultCell {
    /// Pairs an experiment with a scenario.
    pub fn new(experiment: Experiment, spec: FaultScenarioSpec) -> Self {
        FaultCell { experiment, spec }
    }
}

/// The cacheable outcome of one faults cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedFaultCell {
    /// The run survived (possibly degraded); resilience scorecard attached.
    Ok(ResilienceMetrics),
    /// The watchdog tore the run down: abort time, collective, retries.
    Aborted {
        /// Simulation time of the abort, seconds.
        at_s: f64,
        /// The collective that exhausted its retries.
        collective: String,
        /// Retries spent before giving up.
        retries: u32,
    },
    /// The experiment itself was infeasible (OOM, invalid config, …).
    Infeasible(String),
}

impl CacheValue for CachedFaultCell {
    fn encode(&self, w: &mut Writer) {
        match self {
            CachedFaultCell::Ok(m) => {
                w.put_u8(0);
                w.put_f64(m.fault_free_e2e_s);
                w.put_f64(m.faulty_e2e_s);
                w.put_f64(m.time_lost_s);
                w.put_f64(m.stall_s);
                w.put_u32(m.retries);
                w.put_u32(m.degraded_collectives);
                w.put_u32(m.ecc_kernels);
                w.put_f64(m.fault_free_overlap_ratio);
                w.put_f64(m.faulty_overlap_ratio);
                w.put_f64(m.overlap_efficiency);
            }
            CachedFaultCell::Aborted {
                at_s,
                collective,
                retries,
            } => {
                w.put_u8(1);
                w.put_f64(*at_s);
                w.put_str(collective);
                w.put_u32(*retries);
            }
            CachedFaultCell::Infeasible(msg) => {
                w.put_u8(2);
                w.put_str(msg);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match r.get_u8()? {
            0 => Some(CachedFaultCell::Ok(ResilienceMetrics {
                fault_free_e2e_s: r.get_f64()?,
                faulty_e2e_s: r.get_f64()?,
                time_lost_s: r.get_f64()?,
                stall_s: r.get_f64()?,
                retries: r.get_u32()?,
                degraded_collectives: r.get_u32()?,
                ecc_kernels: r.get_u32()?,
                fault_free_overlap_ratio: r.get_f64()?,
                faulty_overlap_ratio: r.get_f64()?,
                overlap_efficiency: r.get_f64()?,
            })),
            1 => Some(CachedFaultCell::Aborted {
                at_s: r.get_f64()?,
                collective: r.get_str()?,
                retries: r.get_u32()?,
            }),
            2 => Some(CachedFaultCell::Infeasible(r.get_str()?)),
            _ => None,
        }
    }
}

impl GridJob for FaultCell {
    type Output = CachedFaultCell;

    fn descriptor(&self) -> String {
        format!(
            "{} | {}",
            cell_descriptor(&self.experiment),
            self.spec.descriptor()
        )
    }

    fn execute(&self) -> CachedFaultCell {
        match run_under_faults(&self.experiment, &self.spec, &mut NullObserver) {
            Ok(run) => match run.abort {
                None => CachedFaultCell::Ok(run.metrics()),
                Some(info) => CachedFaultCell::Aborted {
                    at_s: info.at_s,
                    collective: info.collective,
                    retries: info.retries,
                },
            },
            Err(e) => CachedFaultCell::Infeasible(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Severity;
    use olab_core::Strategy;
    use olab_gpu::SkuKind;
    use olab_grid::Executor;
    use olab_models::ModelPreset;

    fn small_experiment() -> Experiment {
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
    }

    fn roundtrip(v: &CachedFaultCell) -> CachedFaultCell {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        CachedFaultCell::decode(&mut r).expect("decodes")
    }

    #[test]
    fn cached_cells_roundtrip_through_the_codec() {
        let ok = CachedFaultCell::Ok(ResilienceMetrics {
            fault_free_e2e_s: 1.25,
            faulty_e2e_s: 1.5,
            time_lost_s: 0.25,
            stall_s: 0.1,
            retries: 3,
            degraded_collectives: 1,
            ecc_kernels: 2,
            fault_free_overlap_ratio: 0.8,
            faulty_overlap_ratio: 0.6,
            overlap_efficiency: 0.75,
        });
        assert_eq!(roundtrip(&ok), ok);
        let aborted = CachedFaultCell::Aborted {
            at_s: 0.5,
            collective: "ar-layer3".into(),
            retries: 3,
        };
        assert_eq!(roundtrip(&aborted), aborted);
        let infeasible = CachedFaultCell::Infeasible("out of memory".into());
        assert_eq!(roundtrip(&infeasible), infeasible);
    }

    #[test]
    fn faulty_descriptors_never_collide_with_fault_free_or_other_scenarios() {
        let exp = small_experiment();
        let plain = cell_descriptor(&exp);
        let a = FaultCell::new(exp.clone(), FaultScenarioSpec::degrade(1, Severity::Mild));
        let b = FaultCell::new(exp.clone(), FaultScenarioSpec::degrade(2, Severity::Mild));
        let c = FaultCell::new(exp.clone(), FaultScenarioSpec::degrade(1, Severity::Severe));
        let d = FaultCell::new(exp, FaultScenarioSpec::abort(1, Severity::Mild));
        let descs = [
            a.descriptor(),
            b.descriptor(),
            c.descriptor(),
            d.descriptor(),
        ];
        for (i, x) in descs.iter().enumerate() {
            assert_ne!(x, &plain, "faulty cell must not reuse the plain key");
            for (j, y) in descs.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y, "seed/severity/action must all separate keys");
                }
            }
        }
    }

    #[test]
    fn serial_and_parallel_sweeps_agree_bit_for_bit() {
        let mut cells = Vec::new();
        for seed in [1, 2] {
            for severity in Severity::ALL {
                cells.push(FaultCell::new(
                    small_experiment(),
                    FaultScenarioSpec::degrade(seed, severity),
                ));
            }
        }
        let serial: Vec<_> = Executor::new()
            .with_jobs(1)
            .run(&cells)
            .outputs
            .into_iter()
            .map(|r| r.expect("no panics"))
            .collect();
        let parallel: Vec<_> = Executor::new()
            .with_jobs(4)
            .run(&cells)
            .outputs
            .into_iter()
            .map(|r| r.expect("no panics"))
            .collect();
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|c| matches!(c, CachedFaultCell::Ok(_))));
    }
}
