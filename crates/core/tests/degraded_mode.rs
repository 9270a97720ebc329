//! Degraded-mode acceptance: one client crash-stopping mid-run must not
//! wedge the node. The surviving clients complete **all** iterations,
//! the dedicated core closes the dead rank's staged iterations, and the
//! [`SimReport`] names the dead world rank — this is the CI acceptance
//! criterion for multi-host failure survival. No failure option is set:
//! the default process world degrades.
//!
//! The process world re-executes this test binary once per rank, so the
//! `program` string must equal the test function's name.

use damaris_core::prelude::*;

const ITERS: u64 = 8;
/// 0-based client id of the victim (world rank 2).
const VICTIM_CLIENT: usize = 1;
/// The victim dies right before this iteration.
const DEATH_ITERATION: u64 = 3;

fn config() -> Configuration {
    let xml = format!(
        r#"<simulation name="degraded-mode">
             <architecture>
               <dedicated cores="1"/>
               <clients count="3"/>
               <buffer size="{}"/>
               <queue capacity="256"/>
               <world kind="processes" heartbeat_timeout_ms="1000"/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="64"/>
               <variable name="u" layout="row"/>
             </data>
           </simulation>"#,
        4 << 20
    );
    Configuration::from_str(&xml).expect("degraded-mode config is valid")
}

fn sim(h: &mut Damaris<'_>, _input: &[u8]) -> Vec<u8> {
    let data: Vec<f64> = (0..64).map(|i| h.id() as f64 + i as f64 * 0.25).collect();
    for it in 0..ITERS {
        if h.id() == VICTIM_CLIENT && it == DEATH_ITERATION {
            // Crash-stop: no goodbye, no finalize, no result. The
            // survivors and the dedicated core must carry on without it.
            std::process::exit(17);
        }
        h.write("u", it, &data).expect("write");
        h.end_iteration(it).expect("end iteration");
    }
    h.finalize().expect("finalize");
    (h.id() as u64).to_le_bytes().to_vec()
}

#[test]
fn client_death_mid_run_completes_degraded() {
    let report = Damaris::launch_test(
        config(),
        "client_death_mid_run_completes_degraded",
        &[],
        sim,
    )
    .expect("a client death must not fail the launch");
    assert_eq!(
        report.dead_ranks,
        vec![VICTIM_CLIENT + 1],
        "the report must name the dead world rank"
    );
    assert!(report.degraded, "a death must flag the run as degraded");
    assert_eq!(
        report.iterations_completed, ITERS,
        "survivors must complete every iteration in degraded mode"
    );
    assert!(
        report.outputs[VICTIM_CLIENT].is_empty(),
        "a dead client has no output"
    );
    for (id, out) in report.outputs.iter().enumerate() {
        if id != VICTIM_CLIENT {
            assert_eq!(
                out,
                &(id as u64).to_le_bytes().to_vec(),
                "surviving client {id} must finish normally"
            );
        }
    }
    // The victim died before DEATH_ITERATION, so at most its first
    // DEATH_ITERATION client-iterations contributed blocks; the two
    // survivors contributed all of theirs.
    assert!(
        report.blocks_received >= 2 * ITERS,
        "survivor blocks all arrive"
    );
    assert!(report.blocks_received <= 2 * ITERS + DEATH_ITERATION);
}
