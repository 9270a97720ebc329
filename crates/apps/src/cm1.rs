//! CM1-like atmospheric proxy: warm bubble in a stably stratified box.
//!
//! Fields (per rank, all `nx × ny × nz`, C order with `x` fastest):
//! `u`, `v`, `w` (wind components, m/s), `theta` (potential temperature,
//! K), `qv` (water-vapor mixing ratio, kg/kg).
//!
//! Dynamics (deliberately simple but structurally faithful):
//! * advection of scalars by the wind (first-order upwind),
//! * diffusion of everything (explicit 7-point Laplacian),
//! * buoyancy: vertical wind accelerates where `theta` exceeds the base
//!   state (Boussinesq-style `w̄ += g·θ'/θ₀`),
//! * periodic lateral boundaries, rigid lid and floor.
//!
//! The per-step flop count is a fixed function of the grid, reproducing
//! CM1's hallmark predictability. Stencil sweeps are written over
//! `z`-slabs with rayon's iterators, but the in-tree `rayon` shim runs them
//! sequentially: a step uses one core, whatever the node has.

use rayon::prelude::*;

use crate::ProxyApp;

/// Configuration of one rank's subdomain.
#[derive(Debug, Clone, PartialEq)]
pub struct Cm1Config {
    /// Grid points in x.
    pub nx: usize,
    /// Grid points in y.
    pub ny: usize,
    /// Grid points in z.
    pub nz: usize,
    /// Time step (s).
    pub dt: f64,
    /// Grid spacing (m).
    pub dx: f64,
    /// Kinematic diffusivity (m²/s).
    pub diffusivity: f64,
    /// Base-state potential temperature (K).
    pub theta0: f64,
    /// Initial bubble amplitude (K).
    pub bubble_amplitude: f64,
    /// Deterministic seed perturbing the bubble position per rank.
    pub seed: u64,
}

impl Default for Cm1Config {
    fn default() -> Self {
        Cm1Config {
            nx: 32,
            ny: 32,
            nz: 16,
            dt: 1.0,
            dx: 100.0,
            diffusivity: 8.0,
            theta0: 300.0,
            bubble_amplitude: 2.0,
            seed: 0,
        }
    }
}

impl Cm1Config {
    /// A configuration sized so one rank dumps ≈ `mib` MiB per output
    /// (5 fields of f64), the knob the weak-scaling experiments use.
    pub fn with_dump_size_mib(mib: usize) -> Self {
        // 5 fields × 8 bytes = 40 bytes per grid point.
        let points = mib * (1 << 20) / 40;
        // Factor into a boxy grid: nz = 16, nx = ny = sqrt(points / 16).
        let nz = 16usize;
        let side = ((points / nz) as f64).sqrt().max(4.0) as usize;
        Cm1Config {
            nx: side,
            ny: side,
            nz,
            ..Default::default()
        }
    }
}

/// One rank's CM1-like state.
pub struct Cm1 {
    cfg: Cm1Config,
    iteration: u64,
    u: Vec<f64>,
    v: Vec<f64>,
    w: Vec<f64>,
    theta: Vec<f64>,
    qv: Vec<f64>,
    // Scratch buffers (double buffering without reallocation).
    scratch: Vec<f64>,
}

impl Cm1 {
    /// Initialize the warm-bubble case.
    pub fn new(cfg: Cm1Config) -> Self {
        let n = cfg.nx * cfg.ny * cfg.nz;
        assert!(n > 0, "grid must be non-empty");
        let mut theta = vec![cfg.theta0; n];
        let qv = vec![0.0; n];
        // Bubble center, nudged deterministically by the seed so different
        // ranks simulate slightly different subvolumes.
        let jitter = |s: u64, m: usize| ((s.wrapping_mul(0x9e3779b97f4a7c15) >> 33) as usize) % m;
        let cx = cfg.nx / 2 + jitter(cfg.seed, (cfg.nx / 8).max(1));
        let cy = cfg.ny / 2 + jitter(cfg.seed.wrapping_add(1), (cfg.ny / 8).max(1));
        let cz = cfg.nz / 3;
        // Amplitude perturbation guarantees distinct seeds diverge even on
        // grids too small for the positional jitter to move the bubble.
        let amplitude = cfg.bubble_amplitude
            * (1.0 + (cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) >> 52) as f64 * 1e-4);
        let radius = (cfg.nx.min(cfg.ny).min(cfg.nz) as f64) / 4.0;
        for k in 0..cfg.nz {
            for j in 0..cfg.ny {
                for i in 0..cfg.nx {
                    let dx = i as f64 - cx as f64;
                    let dy = j as f64 - cy as f64;
                    let dz = k as f64 - cz as f64;
                    let r = (dx * dx + dy * dy + dz * dz).sqrt() / radius;
                    if r < 1.0 {
                        let idx = (k * cfg.ny + j) * cfg.nx + i;
                        theta[idx] += amplitude * (std::f64::consts::PI * r).cos().powi(2);
                        // Moisture rides along with the bubble (set below).
                    }
                }
            }
        }
        let mut qv = qv;
        for (q, &t) in qv.iter_mut().zip(&theta) {
            if t > cfg.theta0 + 0.1 {
                *q = 1e-3 * (t - cfg.theta0);
            }
        }
        Cm1 {
            iteration: 0,
            u: vec![0.0; n],
            v: vec![0.0; n],
            w: vec![0.0; n],
            theta,
            qv,
            scratch: vec![0.0; n],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &Cm1Config {
        &self.cfg
    }

    /// Immutable view of a field by name (test hook).
    pub fn field(&self, name: &str) -> Option<&[f64]> {
        match name {
            "u" => Some(&self.u),
            "v" => Some(&self.v),
            "w" => Some(&self.w),
            "theta" => Some(&self.theta),
            "qv" => Some(&self.qv),
            _ => None,
        }
    }

    /// Volume sum of `theta` (conservation diagnostic).
    pub fn theta_sum(&self) -> f64 {
        self.theta.iter().sum()
    }

    /// Laplacian-diffuse + upwind-advect `field` into `out`.
    fn transport(&self, field: &[f64], out: &mut [f64]) {
        let (nx, ny, nz) = (self.cfg.nx, self.cfg.ny, self.cfg.nz);
        let k_diff = self.cfg.diffusivity * self.cfg.dt / (self.cfg.dx * self.cfg.dx);
        let c_adv = self.cfg.dt / self.cfg.dx;
        let u = &self.u;
        let v = &self.v;
        let w = &self.w;
        let plane = nx * ny;
        out.par_chunks_mut(plane).enumerate().for_each(|(k, slab)| {
            for j in 0..ny {
                for i in 0..nx {
                    let idx = (k * ny + j) * nx + i;
                    let ip = (i + 1) % nx;
                    let im = (i + nx - 1) % nx;
                    let jp = (j + 1) % ny;
                    let jm = (j + ny - 1) % ny;
                    let kp = (k + 1).min(nz - 1);
                    let km = k.saturating_sub(1);
                    let at = |ii: usize, jj: usize, kk: usize| field[(kk * ny + jj) * nx + ii];
                    let here = field[idx];
                    // 7-point Laplacian.
                    let lap = at(ip, j, k)
                        + at(im, j, k)
                        + at(i, jp, k)
                        + at(i, jm, k)
                        + at(i, j, kp)
                        + at(i, j, km)
                        - 6.0 * here;
                    // First-order upwind advection.
                    let du = if u[idx] >= 0.0 {
                        here - at(im, j, k)
                    } else {
                        at(ip, j, k) - here
                    };
                    let dv = if v[idx] >= 0.0 {
                        here - at(i, jm, k)
                    } else {
                        at(i, jp, k) - here
                    };
                    let dw = if w[idx] >= 0.0 {
                        here - at(i, j, km)
                    } else {
                        at(i, j, kp) - here
                    };
                    slab[j * nx + i] =
                        here + k_diff * lap - c_adv * (u[idx] * du + v[idx] * dv + w[idx] * dw);
                }
            }
        });
    }
}

impl ProxyApp for Cm1 {
    fn step(&mut self) {
        const G: f64 = 9.81;
        // 1. Buoyancy accelerates vertical wind where theta' > 0.
        let theta0 = self.cfg.theta0;
        let dt = self.cfg.dt;
        self.w
            .par_iter_mut()
            .zip(self.theta.par_iter())
            .for_each(|(w, &t)| {
                *w += dt * G * (t - theta0) / theta0;
                // Crude drag keeps the explicit scheme stable.
                *w *= 0.995;
            });
        // 2. Transport each prognostic field.
        let mut scratch = std::mem::take(&mut self.scratch);
        for field_id in 0..5 {
            {
                let field: &[f64] = match field_id {
                    0 => &self.theta,
                    1 => &self.qv,
                    2 => &self.u,
                    3 => &self.v,
                    _ => &self.w,
                };
                self.transport(field, &mut scratch);
            }
            let field: &mut Vec<f64> = match field_id {
                0 => &mut self.theta,
                1 => &mut self.qv,
                2 => &mut self.u,
                3 => &mut self.v,
                _ => &mut self.w,
            };
            std::mem::swap(field, &mut scratch);
        }
        self.scratch = scratch;
        self.iteration += 1;
    }

    fn iteration(&self) -> u64 {
        self.iteration
    }

    fn fields(&self) -> Vec<(&'static str, &[f64])> {
        vec![
            ("u", self.u.as_slice()),
            ("v", self.v.as_slice()),
            ("w", self.w.as_slice()),
            ("theta", self.theta.as_slice()),
            ("qv", self.qv.as_slice()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cm1 {
        Cm1::new(Cm1Config {
            nx: 16,
            ny: 16,
            nz: 12,
            ..Default::default()
        })
    }

    #[test]
    fn initial_state_has_bubble() {
        let sim = small();
        let theta = sim.field("theta").unwrap();
        let max = theta.iter().cloned().fold(f64::MIN, f64::max);
        let min = theta.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(min, 300.0, "base state intact away from the bubble");
        assert!(max > 301.0, "bubble present: max {max}");
        // Most of the domain is exactly base state (compression regime).
        let base = theta.iter().filter(|&&t| t == 300.0).count();
        assert!(base * 2 > theta.len(), "majority base state");
    }

    #[test]
    fn bubble_rises() {
        let mut sim = small();
        for _ in 0..10 {
            sim.step();
        }
        let w = sim.field("w").unwrap();
        let max_w = w.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max_w > 0.0,
            "warm bubble must induce updraft, max w = {max_w}"
        );
        assert_eq!(sim.iteration(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = Cm1::new(Cm1Config {
                nx: 12,
                ny: 12,
                nz: 8,
                seed,
                ..Default::default()
            });
            for _ in 0..5 {
                sim.step();
            }
            sim.field("theta").unwrap().to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds move the bubble");
    }

    #[test]
    fn theta_approximately_conserved() {
        let mut sim = small();
        let before = sim.theta_sum();
        for _ in 0..20 {
            sim.step();
        }
        let after = sim.theta_sum();
        let drift = (after - before).abs() / before;
        assert!(drift < 0.01, "theta drifted {:.4} %", drift * 100.0);
    }

    #[test]
    fn values_stay_finite_and_bounded() {
        let mut sim = small();
        for _ in 0..50 {
            sim.step();
        }
        for (name, field) in sim.fields() {
            for &v in field {
                assert!(v.is_finite(), "{name} went non-finite");
            }
        }
        let theta = sim.field("theta").unwrap();
        let max = theta.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max < 310.0, "theta blew up: {max}");
    }

    #[test]
    fn dump_size_knob() {
        let cfg = Cm1Config::with_dump_size_mib(2);
        let sim = Cm1::new(cfg);
        let bytes = sim.bytes_per_dump();
        let target = 2 << 20;
        assert!(
            (bytes as f64 / target as f64 - 1.0).abs() < 0.3,
            "dump {} vs target {}",
            bytes,
            target
        );
        assert_eq!(sim.fields().len(), 5);
    }

    #[test]
    fn field_lookup() {
        let sim = small();
        assert!(sim.field("theta").is_some());
        assert!(sim.field("pressure").is_none());
    }
}
