//! # sim-apps
//!
//! Proxy versions of the two HPC applications the Damaris paper evaluates
//! with:
//!
//! * [`Cm1`] — the CM1 atmospheric model (Bryan & Fritsch 2002), the
//!   target application of the §IV I/O experiments: a 3-D moist
//!   non-hydrostatic grid with wind, potential temperature and water-vapor
//!   fields, advanced by an explicit advection–diffusion step with a warm
//!   buoyant bubble. CM1's key property for the paper is its *extremely
//!   predictable* compute phase ("the computation phases in CM1 have an
//!   extremely predictable run time", §IV.B) — so any run-time variability
//!   comes from I/O. The proxy keeps that property: cost is a pure
//!   function of the grid size.
//! * [`Nek`] — the Nek5000 CFD solver (§V.C's analysis platform): a
//!   spectral-element kernel whose per-step cost is dominated by small
//!   dense tensor contractions over Gauss-Lobatto-Legendre (GLL) points.
//!
//! Both produce output fields in the regime the paper's results live in:
//! large coherent regions (base state) plus localized smooth structure —
//! which is what makes the 600 % compression ratio (§IV.D) achievable.
//!
//! Both implement [`ProxyApp`] so harness code can drive either.

pub mod cm1;
pub mod nek;

pub use cm1::{Cm1, Cm1Config};
pub use nek::{Nek, NekConfig};

/// A steppable simulation proxy exposing named output fields.
pub trait ProxyApp {
    /// Advance one simulation time step (the compute phase).
    fn step(&mut self);

    /// Steps completed so far.
    fn iteration(&self) -> u64;

    /// Output fields as `(name, values)` pairs, ready to hand to Damaris.
    fn fields(&self) -> Vec<(&'static str, &[f64])>;

    /// Bytes one output dump of this rank produces.
    fn bytes_per_dump(&self) -> usize {
        self.fields().iter().map(|(_, v)| v.len() * 8).sum()
    }

    /// The Damaris XML configuration matching this proxy's output fields:
    /// one `f64` layout per field, sized from the current state, with the
    /// zero-allocation defaults (sharded event transport; the segment's
    /// size classes are seeded from exactly these layout sizes). Deriving the
    /// configuration from the proxy keeps instrumented examples and the
    /// declared layouts from drifting apart.
    fn damaris_config(&self, dedicated_cores: usize, buffer_size: usize) -> String {
        let mut data = String::new();
        for (name, values) in self.fields() {
            data.push_str(&format!(
                r#"<layout name="{name}_l" type="f64" dimensions="{}"/><variable name="{name}" layout="{name}_l"/>"#,
                values.len()
            ));
        }
        format!(
            r#"<simulation name="proxy-app">
                 <architecture>
                   <dedicated cores="{dedicated_cores}"/>
                   <buffer size="{buffer_size}"/>
                   <queue capacity="1024" kind="sharded"/>
                 </architecture>
                 <data>{data}</data>
               </simulation>"#
        )
    }
}
