//! Nek5000-like spectral-element proxy.
//!
//! Nek5000 advances Navier-Stokes on hexahedral spectral elements; the hot
//! kernel is the tensor contraction applying the 1-D GLL derivative matrix
//! `D (p×p)` along each direction of every element's `p³` point grid. The
//! proxy keeps exactly that cost structure: per step, for each element,
//! three `p×p × p³` contractions plus an axpy — and produces a smooth
//! velocity-magnitude field, the kind of output §V.C analyses in situ.

use rayon::prelude::*;

use crate::ProxyApp;

/// Configuration of one rank's element block.
#[derive(Debug, Clone, PartialEq)]
pub struct NekConfig {
    /// Number of spectral elements on this rank.
    pub elements: usize,
    /// Polynomial order + 1 (GLL points per direction).
    pub order: usize,
    /// Pseudo-viscosity controlling the decay rate.
    pub viscosity: f64,
    /// Deterministic seed for the initial condition.
    pub seed: u64,
}

impl Default for NekConfig {
    fn default() -> Self {
        NekConfig {
            elements: 64,
            order: 8,
            viscosity: 1e-3,
            seed: 0,
        }
    }
}

/// One rank's spectral-element state: a scalar velocity-magnitude field of
/// `elements × order³` points.
pub struct Nek {
    cfg: NekConfig,
    iteration: u64,
    /// Per-element point data, `elements × p³`, element-major.
    field: Vec<f64>,
    /// The 1-D derivative-like operator (p × p), row-major.
    op: Vec<f64>,
    scratch: Vec<f64>,
}

impl Nek {
    /// Initialize with a smooth deterministic field.
    pub fn new(cfg: NekConfig) -> Self {
        assert!(cfg.order >= 2, "need at least 2 GLL points");
        assert!(cfg.elements > 0, "need at least one element");
        let p = cfg.order;
        let n = cfg.elements * p * p * p;
        let mut field = vec![0.0; n];
        // Smooth initial condition: per-element standing wave with a
        // seed/element dependent phase.
        for e in 0..cfg.elements {
            let phase = ((cfg.seed.wrapping_add(e as u64)).wrapping_mul(0x9e3779b97f4a7c15) >> 40)
                as f64
                / 1e4;
            for k in 0..p {
                for j in 0..p {
                    for i in 0..p {
                        let x = i as f64 / (p - 1) as f64;
                        let y = j as f64 / (p - 1) as f64;
                        let z = k as f64 / (p - 1) as f64;
                        field[((e * p + k) * p + j) * p + i] = 1.0
                            + 0.5
                                * (std::f64::consts::PI * (x + phase)).sin()
                                * (std::f64::consts::PI * y).cos()
                                * (std::f64::consts::PI * z).sin();
                    }
                }
            }
        }
        // A smoothing operator: tridiagonal averaging matrix (stable).
        let mut op = vec![0.0; p * p];
        for r in 0..p {
            op[r * p + r] = 0.9;
            if r > 0 {
                op[r * p + r - 1] = 0.05;
            }
            if r + 1 < p {
                op[r * p + r + 1] = 0.05;
            }
            // Boundary rows renormalized to keep the row sum at 1.
            if r == 0 || r == p - 1 {
                op[r * p + r] = 0.95;
            }
        }
        Nek {
            iteration: 0,
            scratch: vec![0.0; n],
            field,
            op,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NekConfig {
        &self.cfg
    }

    /// The scalar field (element-major).
    pub fn values(&self) -> &[f64] {
        &self.field
    }

    /// Apply the operator along direction `dir` (0 = i, 1 = j, 2 = k) for
    /// every element: the classic spectral-element tensor contraction.
    fn apply_tensor(&mut self, dir: usize) {
        let p = self.cfg.order;
        let op = &self.op;
        let pe = p * p * p;
        self.scratch
            .par_chunks_mut(pe)
            .zip(self.field.par_chunks(pe))
            .for_each(|(out, elem)| {
                for k in 0..p {
                    for j in 0..p {
                        for i in 0..p {
                            let mut acc = 0.0;
                            for m in 0..p {
                                let src = match dir {
                                    0 => (k * p + j) * p + m,
                                    1 => (k * p + m) * p + i,
                                    _ => (m * p + j) * p + i,
                                };
                                let row = match dir {
                                    0 => i,
                                    1 => j,
                                    _ => k,
                                };
                                acc += op[row * p + m] * elem[src];
                            }
                            out[(k * p + j) * p + i] = acc;
                        }
                    }
                }
            });
        std::mem::swap(&mut self.field, &mut self.scratch);
    }
}

impl ProxyApp for Nek {
    fn step(&mut self) {
        for dir in 0..3 {
            self.apply_tensor(dir);
        }
        // Mild forcing keeps the field from flattening completely.
        let nu = self.cfg.viscosity;
        let it = self.iteration as f64;
        self.field.par_iter_mut().enumerate().for_each(|(i, v)| {
            *v += nu * ((i % 97) as f64 * 0.01 + it * 0.001).sin();
        });
        self.iteration += 1;
    }

    fn iteration(&self) -> u64 {
        self.iteration
    }

    fn fields(&self) -> Vec<(&'static str, &[f64])> {
        vec![("velocity_magnitude", self.field.as_slice())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Nek {
        Nek::new(NekConfig {
            elements: 8,
            order: 6,
            ..Default::default()
        })
    }

    #[test]
    fn sizes_and_fields() {
        let sim = small();
        assert_eq!(sim.values().len(), 8 * 6 * 6 * 6);
        assert_eq!(sim.fields().len(), 1);
        assert_eq!(sim.bytes_per_dump(), 8 * 6 * 6 * 6 * 8);
    }

    #[test]
    fn smoothing_contracts_the_range() {
        let mut sim = small();
        let range = |f: &[f64]| {
            let max = f.iter().cloned().fold(f64::MIN, f64::max);
            let min = f.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let before = range(sim.values());
        for _ in 0..20 {
            sim.step();
        }
        let after = range(sim.values());
        assert!(
            after < before,
            "averaging operator must contract: {after} vs {before}"
        );
        assert!(after > 0.0, "forcing keeps structure alive");
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut sim = Nek::new(NekConfig {
                elements: 4,
                order: 5,
                seed,
                ..Default::default()
            });
            for _ in 0..3 {
                sim.step();
            }
            sim.values().to_vec()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn values_stay_finite() {
        let mut sim = small();
        for _ in 0..100 {
            sim.step();
        }
        assert!(sim.values().iter().all(|v| v.is_finite()));
        assert_eq!(sim.iteration(), 100);
    }

    #[test]
    fn config_validation() {
        let r = std::panic::catch_unwind(|| {
            Nek::new(NekConfig {
                order: 1,
                ..Default::default()
            })
        });
        assert!(r.is_err());
    }
}
