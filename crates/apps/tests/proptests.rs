//! Property tests for the proxy applications: stability and determinism
//! across arbitrary (small) configurations.

use proptest::prelude::*;
use sim_apps::{Cm1, Cm1Config, Nek, NekConfig, ProxyApp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CM1 stays finite and bounded for any small grid and seed.
    #[test]
    fn cm1_stays_finite(
        nx in 4usize..20,
        ny in 4usize..20,
        nz in 4usize..12,
        seed in any::<u64>(),
        steps in 1usize..12,
    ) {
        let mut sim = Cm1::new(Cm1Config { nx, ny, nz, seed, ..Default::default() });
        for _ in 0..steps {
            sim.step();
        }
        for (name, field) in sim.fields() {
            prop_assert_eq!(field.len(), nx * ny * nz);
            for &v in field {
                prop_assert!(v.is_finite(), "{} went non-finite", name);
            }
        }
        let theta = sim.field("theta").expect("theta exists");
        let max = theta.iter().cloned().fold(f64::MIN, f64::max);
        let min = theta.iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!(max < 320.0 && min > 280.0, "theta escaped [{min}, {max}]");
    }

    /// CM1 is a pure function of (config, steps).
    #[test]
    fn cm1_deterministic(seed in any::<u64>(), steps in 1usize..6) {
        let mk = || {
            let mut sim = Cm1::new(Cm1Config { nx: 10, ny: 10, nz: 6, seed, ..Default::default() });
            for _ in 0..steps {
                sim.step();
            }
            sim.field("w").expect("w").to_vec()
        };
        prop_assert_eq!(mk(), mk());
    }

    /// Nek stays finite; the averaging operator never expands the range.
    #[test]
    fn nek_stays_finite_and_contractive(
        elements in 1usize..12,
        order in 2usize..8,
        seed in any::<u64>(),
        steps in 1usize..10,
    ) {
        let mut sim = Nek::new(NekConfig { elements, order, seed, viscosity: 0.0 });
        let range = |f: &[f64]| {
            let max = f.iter().cloned().fold(f64::MIN, f64::max);
            let min = f.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let before = range(sim.values());
        for _ in 0..steps {
            sim.step();
        }
        prop_assert!(sim.values().iter().all(|v| v.is_finite()));
        // With zero forcing the smoothing operator is non-expansive.
        prop_assert!(range(sim.values()) <= before + 1e-9);
        prop_assert_eq!(sim.iteration(), steps as u64);
    }

    /// bytes_per_dump agrees with the actual field sizes for both proxies.
    #[test]
    fn dump_size_accounting(elements in 1usize..8, order in 2usize..6) {
        let nek = Nek::new(NekConfig { elements, order, ..Default::default() });
        let total: usize = nek.fields().iter().map(|(_, v)| v.len() * 8).sum();
        prop_assert_eq!(nek.bytes_per_dump(), total);

        let cm1 = Cm1::new(Cm1Config { nx: 8, ny: 8, nz: 4, ..Default::default() });
        let total: usize = cm1.fields().iter().map(|(_, v)| v.len() * 8).sum();
        prop_assert_eq!(cm1.bytes_per_dump(), total);
    }
}
