//! Transport equivalence at the **Damaris API** level: one generic
//! simulation function — `fn simulate<H: SimHandle>(h: &mut H)`, compiled
//! once, with no per-backend branches — runs unmodified against
//! `<world kind="threads"/>` and `<world kind="processes"/>` through the
//! [`Damaris`] facade, and must produce byte-identical client outputs
//! (including [`WriteStatus`] sequences and [`ClientStats`] counters) and
//! a field-identical [`SimReport`] (including the order-independent
//! digest of every block the dedicated core consumed).
//!
//! The process world re-executes this test binary once per rank
//! ([`mini_mpi::World::run_spawned_test`] under the hood), so every
//! `program` string below must equal its test function's name, and each
//! test runs the process world *first* — a spawned child becomes its rank
//! inside that call and exits, never wasting work on the thread world.

use damaris_core::prelude::*;
use proptest::prelude::*;

fn config(world: &str, clients: usize, buffer: usize, skip: &str) -> Configuration {
    let xml = format!(
        r#"<simulation name="facade-equivalence">
             <architecture>
               <dedicated cores="1"/>
               <clients count="{clients}"/>
               <buffer size="{buffer}"/>
               <queue capacity="256"/>
               <world kind="{world}"/>
               {skip}
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="64"/>
               <variable name="u" layout="row"/>
               <variable name="v" layout="row"/>
             </data>
             <actions>
               <action name="snap" plugin="stats" event="take-snapshot"/>
             </actions>
           </simulation>"#
    );
    Configuration::from_str(&xml).expect("equivalence config is valid")
}

/// THE generic driver: everything it does goes through [`SimHandle`];
/// it cannot know (and never asks) which backend it runs on. All rank
/// behaviour derives from `input` and `h` alone, because in process mode
/// it executes inside a re-spawned child.
fn simulate<H: SimHandle>(h: &mut H, input: &[u8]) -> Vec<u8> {
    let iterations = u64::from(input[0]);
    let seed = u64::from(input[1]);
    let u = h.var_id("u").expect("declared variable resolves");
    let mut out = Vec::new();
    for it in 0..iterations {
        let data: Vec<f64> = (0..64)
            .map(|i| (seed * 31 + h.id() as u64 * 7 + it * 3) as f64 + i as f64 * 0.5)
            .collect();
        // Copy write by name, by pre-resolved id, and the zero-copy
        // alloc → fill-in-place → commit path.
        let s1 = h.write("u", it, &data).expect("write u");
        let s2 = h.write_id(u, it, &data).expect("write_id u");
        let mut w = h.alloc("v", it).expect("alloc v");
        assert!(!w.is_skipped());
        w.fill_pod(&data);
        let s3 = h.commit(w).expect("commit v");
        // One declared signal (delivered) and one undeclared (filtered at
        // the client edge on both backends).
        h.signal("take-snapshot", it).expect("signal");
        h.signal("ghost-event", it)
            .expect("undeclared signal is a no-op");
        h.end_iteration(it).expect("end iteration");
        out.extend([s1, s2, s3].map(|s| u8::from(s == WriteStatus::Written)));
    }
    h.finalize().expect("finalize");
    let st = h.stats();
    out.extend(st.writes.to_le_bytes());
    out.extend(st.skipped_writes.to_le_bytes());
    out.extend(st.bytes_written.to_le_bytes());
    out.extend(h.skipped_iterations().to_le_bytes());
    out.extend((h.id() as u64).to_le_bytes());
    out
}

/// Run `sim` on the processes world first, then the threads world, with
/// identical configurations apart from `<world kind>`.
fn run_both(
    program: &str,
    clients: usize,
    buffer: usize,
    skip: &str,
    input: &[u8],
    sim: impl Fn(&mut Damaris<'_>, &[u8]) -> Vec<u8> + Send + Sync + Copy,
) -> (SimReport, SimReport) {
    let processes = Damaris::launch_test(
        config("processes", clients, buffer, skip),
        program,
        input,
        sim,
    )
    .expect("processes world succeeds");
    let threads = Damaris::launch_test(
        config("threads", clients, buffer, skip),
        program,
        input,
        sim,
    )
    .expect("threads world succeeds");
    (processes, threads)
}

fn assert_equivalent(processes: &SimReport, threads: &SimReport) {
    assert_eq!(
        processes.outputs, threads.outputs,
        "per-client outputs (statuses + stats counters) must be byte-identical"
    );
    assert_eq!(processes.iterations_completed, threads.iterations_completed);
    assert_eq!(
        processes.skipped_client_iterations,
        threads.skipped_client_iterations
    );
    assert_eq!(processes.signals_delivered, threads.signals_delivered);
    assert_eq!(processes.blocks_received, threads.blocks_received);
    assert_eq!(processes.bytes_received, threads.bytes_received);
    assert_eq!(
        processes.data_digest, threads.data_digest,
        "the dedicated cores must have consumed byte-identical blocks"
    );
    assert_eq!(
        processes.plugin_errors, threads.plugin_errors,
        "plugin failures must reach the caller the same way"
    );
}

#[test]
fn one_driver_both_worlds() {
    let (processes, threads) = run_both(
        "one_driver_both_worlds",
        2,
        4 << 20,
        "",
        &[4, 9],
        |h, input| simulate(h, input),
    );
    assert_equivalent(&processes, &threads);
    // Sanity beyond mutual equality: the expected absolute numbers.
    assert_eq!(processes.iterations_completed, 4);
    assert_eq!(processes.blocks_received, 4 * 3 * 2, "3 blocks × 2 clients");
    assert_eq!(processes.bytes_received, 4 * 3 * 2 * 512);
    assert_eq!(processes.signals_delivered, 4 * 2, "declared signals only");
    assert_eq!(processes.skipped_client_iterations, 0);
    for out in &processes.outputs {
        let statuses = &out[..4 * 3];
        assert!(statuses.iter().all(|&s| s == 1), "everything written");
    }
}

// ---------------------------------------------------------------------------
// One plugin, both worlds
// ---------------------------------------------------------------------------

/// Writes down everything the dedicated core shows it — every block of
/// every completed iteration, every signal — and where the blocks' bytes
/// live, and leaves the record in a file at finalize: in a process world
/// the instance that is called lives in rank 0's process, so a file is how
/// its record reaches the test.
struct Recorder {
    path: std::path::PathBuf,
    log: std::sync::Mutex<Vec<String>>,
}

impl Recorder {
    fn new(path: std::path::PathBuf) -> Self {
        Recorder {
            path,
            log: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Address range at which this process maps the process world's
    /// segment file, if it maps one.
    fn segment_mapping() -> Option<(usize, usize)> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        let line = maps.lines().find(|l| l.contains("damaris-segment.shm"))?;
        let (start, end) = line.split_whitespace().next()?.split_once('-')?;
        Some((
            usize::from_str_radix(start, 16).ok()?,
            usize::from_str_radix(end, 16).ok()?,
        ))
    }
}

impl Plugin for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn on_iteration(&self, ctx: &damaris_core::plugins::IterationCtx<'_>) -> Result<(), String> {
        let mapping = Recorder::segment_mapping();
        let mut log = self.log.lock().unwrap();
        for b in ctx.blocks {
            assert_eq!(b.iteration, ctx.iteration);
            let bytes = b.data.as_slice();
            let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3)
            });
            let at = bytes.as_ptr() as usize;
            let in_place = mapping.is_some_and(|(lo, hi)| lo <= at && at + bytes.len() <= hi);
            log.push(format!(
                "block {} {} {} {} {fnv:016x}",
                ctx.iteration,
                ctx.config.var_name(b.variable),
                b.source,
                bytes.len(),
            ));
            log.push(format!("in-segment-file {in_place}"));
        }
        if ctx.iteration == 1 {
            return Err("iteration 1 is not to my taste".into());
        }
        Ok(())
    }

    fn on_signal(&self, ctx: &damaris_core::plugins::SignalCtx<'_>) -> Result<(), String> {
        let mut log = self.log.lock().unwrap();
        log.push(format!(
            "signal {} {} {}",
            ctx.name, ctx.source, ctx.iteration
        ));
        Ok(())
    }

    fn on_finalize(&self) -> Result<(), String> {
        std::fs::write(&self.path, self.log.lock().unwrap().join("\n")).map_err(|e| e.to_string())
    }
}

/// One plugin instance, registered through the one `Launcher::with_plugin`,
/// is shown the same thing by both worlds: the same blocks in the same
/// order with 0-based sources, the same signals, and its failure reaches
/// the caller in the same words. In the process world every block is read
/// where the client wrote it — inside the `/dev/shm` mapping, not a copy.
#[test]
fn one_plugin_sees_the_same_blocks_and_signals_in_both_worlds() {
    let base = std::env::temp_dir().join("damaris-plugin-eq");
    // Process-mode children re-execute this function from the top; only
    // the parent may touch the directory.
    if mini_mpi::World::spawn_dir().is_none() {
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).expect("record dir");
    }
    let program = "one_plugin_sees_the_same_blocks_and_signals_in_both_worlds";
    let run = |world: &str| {
        let mut cfg = config(world, 2, 4 << 20, "");
        let action = |name: &str, trigger| damaris_xml::schema::Action {
            name: name.into(),
            plugin: "recorder".into(),
            trigger,
            params: vec![],
        };
        use damaris_xml::schema::Trigger;
        cfg.actions = vec![
            action("record", Trigger::EndOfIteration { frequency: 1 }),
            action("record-snap", Trigger::Event("take-snapshot".into())),
        ];
        // Through XML, as the children receive it, so the event is interned.
        let cfg = Configuration::from_str(&cfg.to_xml()).expect("config re-parses");
        let path = base.join(world);
        let report = Damaris::launcher(cfg, program)
            .input(&[3, 5])
            .test_harness()
            .with_plugin(std::sync::Arc::new(Recorder::new(path.clone())))
            .launch(|h, input| simulate(h, input))
            .expect("world succeeds");
        let record = std::fs::read_to_string(&path).expect("the plugin left its record");
        let lines = |prefix: &str| -> Vec<String> {
            let mut lines: Vec<String> = record
                .lines()
                .filter(|l| l.starts_with(prefix))
                .map(String::from)
                .collect();
            if prefix == "signal" {
                // Two clients' signals interleave as they are scheduled.
                lines.sort();
            }
            lines
        };
        (
            report,
            lines("block"),
            lines("signal"),
            lines("in-segment-file"),
        )
    };
    let (processes, p_blocks, p_signals, p_in_place) = run("processes");
    let (threads, t_blocks, t_signals, t_in_place) = run("threads");
    assert_equivalent(&processes, &threads);
    assert_eq!(p_blocks, t_blocks, "same blocks, same order, same bytes");
    assert_eq!(
        p_blocks.len(),
        3 * 3 * 2,
        "3 iterations × 3 blocks × 2 clients"
    );
    let heads: Vec<&str> = p_blocks[..6]
        .iter()
        .map(|l| l.rsplit_once(' ').expect("hash comes last").0)
        .collect();
    assert_eq!(
        heads,
        [
            "block 0 u 0 512",
            "block 0 u 0 512",
            "block 0 u 1 512",
            "block 0 u 1 512",
            "block 0 v 0 512",
            "block 0 v 1 512",
        ],
        "(variable, source)-ordered, sources 0-based"
    );
    assert_eq!(p_signals, t_signals);
    assert_eq!(
        p_signals,
        [
            "signal take-snapshot 0 0",
            "signal take-snapshot 0 1",
            "signal take-snapshot 0 2",
            "signal take-snapshot 1 0",
            "signal take-snapshot 1 1",
            "signal take-snapshot 1 2",
        ]
    );
    assert!(
        p_in_place.iter().all(|l| l == "in-segment-file true"),
        "a process-world block was not read in place"
    );
    assert!(t_in_place.iter().all(|l| l == "in-segment-file false"));
    assert_eq!(
        processes.plugin_errors,
        ["plugin 'recorder' at iteration 1: iteration 1 is not to my taste"]
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The §V.C.1 skip semantics, cross-world: one client fills 75 % of its
/// memory in iteration 0 and opens iteration 1 while iteration 0 is
/// still staged — above the 0.5 high-watermark, so iteration 1 is
/// dropped *wholesale* on both backends, deterministically (iteration-0
/// blocks cannot be reclaimed before `end_iteration(0)` on either
/// backend, so the occupancy the admission check samples is exact).
fn skip_sim<H: SimHandle>(h: &mut H, _input: &[u8]) -> Vec<u8> {
    let data = vec![2.5f64; 64]; // 512 bytes; capacity is 2048
    let mut statuses = Vec::new();
    for _ in 0..3 {
        statuses.push(h.write("u", 0, &data).expect("iteration 0 write"));
    }
    // First write of iteration 1 while occupancy is 1536/2048 = 0.75.
    statuses.push(h.write("u", 1, &data).expect("admission skip, not error"));
    h.end_iteration(0).expect("end 0");
    // The drop decision sticks for the whole iteration.
    statuses.push(h.write("u", 1, &data).expect("sticky skip"));
    h.end_iteration(1).expect("end 1");
    h.finalize().expect("finalize");
    let st = h.stats();
    let mut out: Vec<u8> = statuses
        .iter()
        .map(|&s| u8::from(s == WriteStatus::Written))
        .collect();
    out.extend(st.writes.to_le_bytes());
    out.extend(st.skipped_writes.to_le_bytes());
    out.extend(h.skipped_iterations().to_le_bytes());
    out
}

#[test]
fn skip_semantics_equivalent_across_worlds() {
    let (processes, threads) = run_both(
        "skip_semantics_equivalent_across_worlds",
        1,
        2048,
        r#"<skip mode="drop-iteration" high-watermark="0.5"/>"#,
        &[],
        |h, input| skip_sim(h, input),
    );
    assert_equivalent(&processes, &threads);
    assert_eq!(
        processes.iterations_completed, 2,
        "skipped iterations still complete"
    );
    assert_eq!(processes.skipped_client_iterations, 1);
    assert_eq!(processes.blocks_received, 3);
    let out = &processes.outputs[0];
    assert_eq!(&out[..5], &[1, 1, 1, 0, 0], "W W W S S");
    let writes = u64::from_le_bytes(out[5..13].try_into().unwrap());
    let skipped_writes = u64::from_le_bytes(out[13..21].try_into().unwrap());
    let skipped_iters = u64::from_le_bytes(out[21..29].try_into().unwrap());
    assert_eq!((writes, skipped_writes, skipped_iters), (3, 2, 1));
}

/// Mid-iteration exhaustion under drop mode: the slice/segment fits one
/// 512-byte block (capacity 576), so the iteration is *admitted* (
/// occupancy 0 at its first write) and runs out of memory on the second
/// write. Both backends must drop the rest of the iteration and report
/// [`WriteStatus::Skipped`] — not error (the pre-facade thread client
/// returned `OutOfMemory` here, diverging from process mode).
fn exhaustion_sim<H: SimHandle>(h: &mut H, _input: &[u8]) -> Vec<u8> {
    let data = vec![3.5f64; 64];
    let s1 = h.write("u", 0, &data).expect("first block fits");
    let s2 = h
        .write("u", 0, &data)
        .expect("exhaustion drops, never errors");
    let s3 = h.write("u", 0, &data).expect("drop decision sticks");
    h.end_iteration(0).expect("end 0");
    h.finalize().expect("finalize");
    let st = h.stats();
    let mut out: Vec<u8> = [s1, s2, s3]
        .iter()
        .map(|&s| u8::from(s == WriteStatus::Written))
        .collect();
    out.extend(st.writes.to_le_bytes());
    out.extend(st.skipped_writes.to_le_bytes());
    out.extend(h.skipped_iterations().to_le_bytes());
    out
}

#[test]
fn mid_iteration_exhaustion_drops_on_both_worlds() {
    let (processes, threads) = run_both(
        "mid_iteration_exhaustion_drops_on_both_worlds",
        1,
        576,
        r#"<skip mode="drop-iteration" high-watermark="1.0"/>"#,
        &[],
        |h, input| exhaustion_sim(h, input),
    );
    assert_equivalent(&processes, &threads);
    assert_eq!(processes.iterations_completed, 1);
    assert_eq!(processes.skipped_client_iterations, 1);
    assert_eq!(processes.blocks_received, 1);
    let out = &processes.outputs[0];
    assert_eq!(&out[..3], &[1, 0, 0], "W S S");
    let writes = u64::from_le_bytes(out[3..11].try_into().unwrap());
    let skipped_writes = u64::from_le_bytes(out[11..19].try_into().unwrap());
    let skipped_iters = u64::from_le_bytes(out[19..27].try_into().unwrap());
    assert_eq!((writes, skipped_writes, skipped_iters), (1, 2, 1));
}

// ---------------------------------------------------------------------------
// Variable-size (AMR) workloads: dynamic layouts
// ---------------------------------------------------------------------------

fn amr_config(world: &str, clients: usize, buffer: usize, skip: &str) -> Configuration {
    let max = 8192.min(buffer);
    let xml = format!(
        r#"<simulation name="amr-equivalence">
             <architecture>
               <dedicated cores="1"/>
               <clients count="{clients}"/>
               <buffer size="{buffer}"/>
               <queue capacity="256"/>
               <world kind="{world}"/>
               {skip}
             </architecture>
             <data>
               <layout name="patch" type="f64" dimensions="dynamic" max_size="{max}"/>
               <variable name="density" layout="patch"/>
             </data>
           </simulation>"#
    );
    Configuration::from_str(&xml).expect("amr config is valid")
}

/// splitmix64: a few lines of deterministic generator, all the AMR driver
/// needs to give every write its own size.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The generic AMR driver: every (client, iteration) writes a *different*
/// block size, derived from a seeded RNG (deterministic across worlds:
/// the seed is a pure function of `input` and the client id, both
/// identical in a re-executed process rank). Exercises both the copy
/// path (`write` with a differently-sized slice each call) and the
/// zero-copy `alloc_sized` → fill → commit path.
fn amr_sim<H: SimHandle>(h: &mut H, input: &[u8]) -> Vec<u8> {
    let iterations = u64::from(input[0]);
    let mut rng = SplitMix64(u64::from(input[1]) ^ 0xA3_5C0DE ^ ((h.id() as u64) << 32));
    let density = h.var_id("density").expect("declared variable resolves");
    let mut out = Vec::new();
    for it in 0..iterations {
        // 1..=512 f64 elements: no two writes need share a size.
        let elems = (rng.next_u64() % 512 + 1) as usize;
        let data: Vec<f64> = (0..elems)
            .map(|i| (it * 31 + h.id() as u64) as f64 + i as f64 * 0.25)
            .collect();
        let s1 = h.write("density", it, &data).expect("copy write");
        let s2 = h.write_id(density, it, &data).expect("id write");
        let elems2 = (rng.next_u64() % 512 + 1) as usize;
        let mut w = h
            .alloc_sized("density", it, elems2 * 8)
            .expect("alloc_sized");
        assert!(!w.is_skipped());
        w.fill_pod(&vec![h.id() as f64 + it as f64; elems2]);
        let s3 = h.commit(w).expect("commit");
        h.end_iteration(it).expect("end iteration");
        out.extend([s1, s2, s3].map(|s| u8::from(s == WriteStatus::Written)));
        out.extend((elems as u64).to_le_bytes());
    }
    h.finalize().expect("finalize");
    let st = h.stats();
    out.extend(st.writes.to_le_bytes());
    out.extend(st.bytes_written.to_le_bytes());
    out.extend((h.id() as u64).to_le_bytes());
    out
}

fn run_both_amr(
    program: &str,
    clients: usize,
    buffer: usize,
    skip: &str,
    input: &[u8],
    sim: impl Fn(&mut Damaris<'_>, &[u8]) -> Vec<u8> + Send + Sync + Copy,
) -> (SimReport, SimReport) {
    let processes = Damaris::launch_test(
        amr_config("processes", clients, buffer, skip),
        program,
        input,
        sim,
    )
    .expect("processes world succeeds");
    let threads = Damaris::launch_test(
        amr_config("threads", clients, buffer, skip),
        program,
        input,
        sim,
    )
    .expect("threads world succeeds");
    (processes, threads)
}

#[test]
fn amr_variable_sizes_equivalent_across_worlds() {
    let (processes, threads) = run_both_amr(
        "amr_variable_sizes_equivalent_across_worlds",
        2,
        4 << 20,
        "",
        &[4, 7],
        |h, input| amr_sim(h, input),
    );
    assert_equivalent(&processes, &threads);
    assert_eq!(processes.iterations_completed, 4);
    assert_eq!(processes.blocks_received, 4 * 3 * 2, "3 blocks × 2 clients");
    assert!(processes.bytes_received > 0);
    assert_ne!(processes.data_digest, 0);
}

/// §V.C.1 with variable sizes: iteration 0's small blocks fill the
/// segment to exactly 75 %; iteration 1 opens with *larger* blocks while
/// iteration 0 is still staged — above the 0.7 high-watermark, so both
/// worlds drop iteration 1 wholesale (deterministically: a client's
/// blocks cannot be reclaimed before its `end_iteration`).
fn amr_pressure_sim<H: SimHandle>(h: &mut H, _input: &[u8]) -> Vec<u8> {
    let small = vec![1.5f64; 128]; // 1024 bytes; capacity is 4096
    let large = vec![2.5f64; 256]; // 2048 bytes
    let mut statuses = Vec::new();
    for _ in 0..3 {
        statuses.push(h.write("density", 0, &small).expect("iteration 0 write"));
    }
    // First write of iteration 1 at occupancy 3072/4096 = 0.75 ≥ 0.7.
    statuses.push(h.write("density", 1, &large).expect("skip, not error"));
    h.end_iteration(0).expect("end 0");
    statuses.push(h.write("density", 1, &large).expect("sticky skip"));
    h.end_iteration(1).expect("end 1");
    h.finalize().expect("finalize");
    let st = h.stats();
    let mut out: Vec<u8> = statuses
        .iter()
        .map(|&s| u8::from(s == WriteStatus::Written))
        .collect();
    out.extend(st.writes.to_le_bytes());
    out.extend(st.skipped_writes.to_le_bytes());
    out.extend(h.skipped_iterations().to_le_bytes());
    out
}

#[test]
fn amr_larger_blocks_trip_watermark_on_both_worlds() {
    let (processes, threads) = run_both_amr(
        "amr_larger_blocks_trip_watermark_on_both_worlds",
        1,
        4096,
        r#"<skip mode="drop-iteration" high-watermark="0.7"/>"#,
        &[],
        |h, input| amr_pressure_sim(h, input),
    );
    assert_equivalent(&processes, &threads);
    assert_eq!(processes.iterations_completed, 2);
    assert_eq!(processes.skipped_client_iterations, 1);
    assert_eq!(processes.blocks_received, 3);
    let out = &processes.outputs[0];
    assert_eq!(&out[..5], &[1, 1, 1, 0, 0], "W W W S S");
    let skipped_iters = u64::from_le_bytes(out[21..29].try_into().unwrap());
    assert_eq!(skipped_iters, 1);
}

/// Under `SkipMode::Block` the same shape must **fail fast with a sizing
/// error**: a next-iteration block bigger than the whole slice can never
/// be satisfied, and blocking on it would hang the simulation. Both
/// worlds surface `ShmError::RequestTooLarge` from the write itself.
fn amr_block_mode_sim<H: SimHandle>(h: &mut H, _input: &[u8]) -> Vec<u8> {
    let small = vec![1.5f64; 128];
    for _ in 0..3 {
        h.write("density", 0, &small).expect("iteration 0 write");
    }
    // 8192 bytes > the 4096-byte segment/slice: no amount of waiting
    // frees enough. (The layout declares no max_size, so the layout
    // check passes and the allocator itself must reject.)
    let oversized = vec![0.0f64; 1024];
    let err = h
        .write("density", 1, &oversized)
        .expect_err("sizing error, not a hang");
    let sized = matches!(
        err,
        DamarisError::Shm(damaris_shm::ShmError::RequestTooLarge { .. })
    );
    h.end_iteration(0).expect("end 0");
    h.finalize().expect("finalize");
    vec![u8::from(sized)]
}

#[test]
fn amr_block_mode_oversized_fails_fast_on_both_worlds() {
    let config = |world: &str| {
        let xml = format!(
            r#"<simulation name="amr-block">
                 <architecture>
                   <dedicated cores="1"/>
                   <clients count="1"/>
                   <buffer size="4096"/>
                   <queue capacity="64"/>
                   <world kind="{world}"/>
                   <skip mode="block"/>
                 </architecture>
                 <data>
                   <layout name="patch" type="f64" dimensions="dynamic"/>
                   <variable name="density" layout="patch"/>
                 </data>
               </simulation>"#
        );
        Configuration::from_str(&xml).expect("block-mode config is valid")
    };
    let program = "amr_block_mode_oversized_fails_fast_on_both_worlds";
    let processes = Damaris::launch_test(config("processes"), program, &[], |h, input| {
        amr_block_mode_sim(h, input)
    })
    .expect("processes world succeeds");
    let threads = Damaris::launch_test(config("threads"), program, &[], |h, input| {
        amr_block_mode_sim(h, input)
    })
    .expect("threads world succeeds");
    assert_eq!(processes.outputs, threads.outputs);
    assert_eq!(processes.outputs[0], vec![1], "RequestTooLarge on both");
}

// ---------------------------------------------------------------------------
// The storage pipeline: `<store>` must produce equivalent files per world
// ---------------------------------------------------------------------------

fn store_config(world: &str, dir: &std::path::Path) -> Configuration {
    // The path must be deterministic (no PIDs): process-mode children
    // re-derive it from the configuration on the wire. Distinct per
    // world so the two runs cannot clobber each other's file.
    let xml = format!(
        r#"<simulation name="store-eq">
             <architecture>
               <dedicated cores="1"/>
               <clients count="2"/>
               <buffer size="8388608"/>
               <queue capacity="256"/>
               <world kind="{world}"/>
               <store type="h5lite" path="{}" chunk_rows="4"/>
             </architecture>
             <data>
               <layout name="grid" type="f64" dimensions="8,16"/>
               <variable name="u" layout="grid" codec="xor-delta8,shuffle8,rle,lzss"/>
               <variable name="v" layout="grid"/>
               <layout name="slab" type="f64" dimensions="513,257"/>
               <variable name="w" layout="slab"/>
             </data>
           </simulation>"#,
        dir.display()
    );
    Configuration::from_str(&xml).expect("store config is valid")
}

/// Elements of `w`: above the streamed-copy threshold, and not a whole
/// number of 64-byte steps, so the copy's tail runs too.
const SLAB: usize = 513 * 257;
const _: () = assert!(SLAB * 8 >= damaris_shm::STREAM_MIN && !(SLAB * 8).is_multiple_of(64));

fn slab(id: usize, it: u64) -> Vec<f64> {
    (0..SLAB)
        .map(|i| (id * 1_000_003 + it as usize * 7919 + i) as f64)
        .collect()
}

fn store_sim<H: SimHandle>(h: &mut H, input: &[u8]) -> Vec<u8> {
    let iterations = u64::from(input[0]);
    for it in 0..iterations {
        let data: Vec<f64> = (0..128)
            .map(|i| 300.0 + h.id() as f64 + it as f64 * 0.01 + (i % 16) as f64 * 0.125)
            .collect();
        h.write("u", it, &data).expect("write u");
        h.write("v", it, &data).expect("write v");
        h.write("w", it, &slab(h.id(), it)).expect("write w");
        h.end_iteration(it).expect("end iteration");
    }
    h.finalize().expect("finalize");
    Vec::new()
}

/// The §IV.D pipeline is world-independent: the same simulation under
/// `<store>` leaves **byte-identical** per-node files whether the
/// dedicated core is a thread or a separate process — same dataset tree,
/// same chunking, same codec streams (the codecs are deterministic),
/// same footer.
#[test]
fn store_produces_byte_identical_files_across_worlds() {
    let base = std::env::temp_dir().join("damaris-store-eq");
    let pdir = base.join("processes");
    let tdir = base.join("threads");
    let program = "store_produces_byte_identical_files_across_worlds";
    let processes =
        Damaris::launch_test(store_config("processes", &pdir), program, &[4], |h, i| {
            store_sim(h, i)
        })
        .expect("processes world succeeds");
    let threads = Damaris::launch_test(store_config("threads", &tdir), program, &[4], |h, i| {
        store_sim(h, i)
    })
    .expect("threads world succeeds");
    assert_equivalent(&processes, &threads);

    let pfile = pdir.join("store-eq_node0.dh5");
    let tfile = tdir.join("store-eq_node0.dh5");
    let pbytes = std::fs::read(&pfile).expect("process world wrote its per-node file");
    let tbytes = std::fs::read(&tfile).expect("thread world wrote its per-node file");
    assert_eq!(pbytes, tbytes, "per-node files must be byte-identical");

    // And the shared bytes decode back to the simulation's data.
    let mut r = h5lite::FileReader::open(&pfile).expect("file opens");
    let expect: Vec<f64> = (0..128)
        .map(|i| 300.0 + 1.0 + 3.0 * 0.01 + (i % 16) as f64 * 0.125)
        .collect();
    assert_eq!(
        r.read_pod::<f64>("it000003/u/rank1").expect("codec decode"),
        expect
    );
    assert_eq!(r.read_pod::<f64>("it000003/v/rank1").unwrap(), expect);
    assert_eq!(r.read_pod::<f64>("it000003/w/rank1").unwrap(), slab(1, 3));
    std::fs::remove_dir_all(&base).ok();
}

// ---------------------------------------------------------------------------
// The streaming tier: `<serve>` must deliver equivalent frames per world
// ---------------------------------------------------------------------------

fn serve_config(world: &str, dir: &std::path::Path) -> Configuration {
    // `addr_file` publishes the ephemeral port; `queue_frames` is
    // generous so the captured stream never enters the lag path and
    // `retain` keeps iteration 0 alive for catch-up.
    let xml = format!(
        r#"<simulation name="serve-eq">
             <architecture>
               <dedicated cores="1"/>
               <clients count="2"/>
               <buffer size="4194304"/>
               <queue capacity="256"/>
               <world kind="{world}"/>
               <serve listen="127.0.0.1:0" queue_frames="1024" retain="8"
                      addr_file="{}/addr"/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="64"/>
               <variable name="u" layout="row"/>
               <variable name="v" layout="row"/>
             </data>
           </simulation>"#,
        dir.display()
    );
    Configuration::from_str(&xml).expect("serve config is valid")
}

/// Generic driver for the streaming equivalence run. `input` carries the
/// coordination directory (it must survive the process-mode re-exec, so
/// it rides the wire, not a closure capture). Iteration 0 is published
/// *before* the gate: its delivery — live, or via the snapshot catch-up
/// if the server processes SUBSCRIBE late — proves the subscription is
/// active, and only then does the subscriber write `<dir>/go` to release
/// iterations 1..=3. That makes full capture of 1..=3 deterministic on
/// both backends without a protocol-level acknowledgment.
fn serve_sim<H: SimHandle>(h: &mut H, input: &[u8]) -> Vec<u8> {
    let dir = std::path::Path::new(std::str::from_utf8(input).expect("utf-8 dir"));
    let id = h.id() as f64;
    fn write_iter<H: SimHandle>(h: &mut H, id: f64, it: u64) {
        let mk = |base: f64| -> Vec<f64> {
            (0..64)
                .map(|i| base + id * 10.0 + it as f64 + i as f64 * 0.25)
                .collect()
        };
        h.write("u", it, &mk(100.0)).expect("write u");
        h.write("v", it, &mk(200.0)).expect("write v");
        h.end_iteration(it).expect("end iteration");
    }
    write_iter(h, id, 0);
    let go = dir.join("go");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !go.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "subscriber never opened the gate"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for it in 1..=3u64 {
        write_iter(h, id, it);
    }
    h.finalize().expect("finalize");
    Vec::new()
}

/// What one subscriber observed: every DATA payload keyed by
/// `(iteration, variable, source)`, plus each ITER-END's block count.
type Captured = (
    std::collections::BTreeMap<(u64, String, u64), Vec<u8>>,
    Vec<(u64, u64)>,
);

/// How one leg of the streaming equivalence run reads the stream.
#[derive(Debug, Clone, Copy)]
enum Reader {
    /// `damaris_serve::Subscriber`, which reads blocks from the segment
    /// file exactly when the server advertises one (`segment`).
    Subscriber { segment: bool },
    /// Raw frames straight off the socket, subscribing without segment
    /// mode: every block arrives inline over TCP.
    RawTcp,
}

/// Poll for the server's `addr` file.
fn server_addr(dir: &std::path::Path) -> std::net::SocketAddr {
    let addr_file = dir.join("addr");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        // Written via tmp + rename, so a readable file is a complete one.
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            return s
                .trim()
                .parse::<std::net::SocketAddr>()
                .expect("addr parses");
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never published its address"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// The next frame of a raw connection, decoded with the protocol module.
fn raw_message(conn: &mut std::net::TcpStream, buf: &mut Vec<u8>) -> damaris_serve::Message {
    use std::io::Read;
    loop {
        if let Some((msg, used)) = damaris_serve::protocol::decode(buf).expect("well-formed frame")
        {
            buf.drain(..used);
            return msg;
        }
        let mut chunk = [0u8; 16 << 10];
        let n = conn.read(&mut chunk).expect("stream stays healthy");
        assert!(n > 0, "server closed the stream");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Connect as `reader`, subscribe to everything, wait for iteration 0
/// (proof the subscription is live), open the simulation's gate, and
/// record the stream through iteration 3.
fn capture_stream(dir: &std::path::Path, reader: Reader) -> Captured {
    use damaris_serve::protocol::{encode_bye, encode_subscribe};
    use damaris_serve::{Message, Subscriber, SubscriberEvent};
    use std::io::Write;
    let addr = server_addr(dir);
    // Both readers yield the same events; the raw one refuses DATA_REF.
    let mut next: Box<dyn FnMut() -> SubscriberEvent> = match reader {
        Reader::Subscriber { segment } => {
            let mut sub = Subscriber::connect(addr).expect("subscriber connects");
            assert_eq!(sub.simulation(), "serve-eq");
            assert_eq!(sub.reads_segment(), segment, "segment mode taken");
            sub.subscribe(&[]).expect("subscribe to all");
            Box::new(move || sub.next_event().expect("stream stays healthy"))
        }
        Reader::RawTcp => {
            let mut conn = std::net::TcpStream::connect(addr).expect("raw client connects");
            let mut buf = Vec::new();
            match raw_message(&mut conn, &mut buf) {
                Message::Hello { segment, .. } => {
                    assert!(
                        segment.is_some(),
                        "the process world advertises its segment"
                    )
                }
                other => panic!("expected HELLO, got {other:?}"),
            }
            conn.write_all(&encode_subscribe(&[], false).unwrap())
                .expect("subscribe over TCP");
            Box::new(move || match raw_message(&mut conn, &mut buf) {
                Message::Data {
                    variable,
                    iteration,
                    source,
                    bytes,
                } => SubscriberEvent::Data {
                    variable,
                    iteration,
                    source,
                    bytes,
                },
                Message::IterEnd { iteration, blocks } => {
                    if iteration == 3 {
                        let _ = conn.write_all(&encode_bye());
                    }
                    SubscriberEvent::IterationEnd { iteration, blocks }
                }
                other => panic!("TCP-mode subscriber got {other:?}"),
            })
        }
    };

    let mut data = std::collections::BTreeMap::new();
    let mut ends = Vec::new();
    let mut gated = false;
    loop {
        match next() {
            SubscriberEvent::Data {
                variable,
                iteration,
                source,
                bytes,
            } => {
                let prev = data.insert((iteration, variable, source), bytes);
                assert!(prev.is_none(), "no frame is delivered twice");
            }
            SubscriberEvent::IterationEnd { iteration, blocks } => {
                ends.push((iteration, blocks));
                if iteration == 0 {
                    // Subscription confirmed end-to-end: release 1..=3.
                    std::fs::write(dir.join("go"), b"go").expect("open the gate");
                    gated = true;
                }
                if iteration == 3 {
                    break;
                }
            }
            SubscriberEvent::Lag { .. } => panic!("generous queue must not lag"),
            SubscriberEvent::Bye => panic!("BYE at iteration {ends:?}, gate {gated}"),
        }
    }
    (data, ends)
}

/// The streaming tier is world- and mode-independent: the thread world's
/// in-process server (TCP), and the process world's out-of-process server
/// read both from its segment file (`Subscriber`, segment mode) and
/// inline over TCP (a raw-frame client), yield **byte-identical** DATA
/// payloads and identical iteration boundaries, frame for frame.
#[test]
fn serve_frames_byte_identical_across_worlds() {
    let base = std::env::temp_dir().join("damaris-serve-eq");
    // Process-mode children re-execute this function from the top; only
    // the parent may touch the coordination directory or run a
    // subscriber (children exit inside `launch_test`, running the same
    // `serve_sim` whichever process leg spawned them).
    let is_parent = mini_mpi::World::spawn_dir().is_none();
    if is_parent {
        std::fs::remove_dir_all(&base).ok();
    }
    let program = "serve_frames_byte_identical_across_worlds";
    let legs = [
        ("processes", "segment", Reader::Subscriber { segment: true }),
        ("processes", "tcp", Reader::RawTcp),
        ("threads", "tcp", Reader::Subscriber { segment: false }),
    ];
    let mut captures = Vec::new();
    for (world, mode, reader) in legs {
        let dir = base.join(format!("{world}-{mode}"));
        if is_parent {
            std::fs::create_dir_all(&dir).expect("coordination dir");
        }
        let watcher = is_parent.then(|| {
            let d = dir.clone();
            std::thread::spawn(move || capture_stream(&d, reader))
        });
        let input = dir.to_str().expect("utf-8 tmpdir").as_bytes().to_vec();
        Damaris::launch_test(serve_config(world, &dir), program, &input, |h, i| {
            serve_sim(h, i)
        })
        .expect("world succeeds");
        captures.push(
            watcher
                .expect("parent past launch")
                .join()
                .expect("capture"),
        );
    }
    let (pdata, pends) = &captures[0];
    for (leg, (data, ends)) in legs.iter().zip(&captures).skip(1) {
        assert_eq!(pdata, data, "DATA payloads must be byte-identical: {leg:?}");
        assert_eq!(pends, ends, "iteration boundaries must agree: {leg:?}");
    }

    // Sanity beyond mutual equality: full coverage and exact bytes.
    assert_eq!(pdata.len(), 4 * 2 * 2, "4 iterations × 2 vars × 2 clients");
    assert_eq!(pends, &[(0, 4), (1, 4), (2, 4), (3, 4)]);
    for (&(it, ref var, source), bytes) in pdata {
        let base = if var == "u" { 100.0 } else { 200.0 };
        let expect: Vec<u8> = (0..64)
            .flat_map(|i| (base + source as f64 * 10.0 + it as f64 + i as f64 * 0.25).to_le_bytes())
            .collect();
        assert_eq!(bytes, &expect, "{var} it{it} rank{source}");
    }
    std::fs::remove_dir_all(&base).ok();
}

proptest! {
    // Property: for arbitrary seeds, the AMR driver's variable-size
    // writes produce byte-identical WriteStatus sequences and
    // field-identical SimReports (including the block digest) across
    // worlds. Case count small: every case spawns real processes.
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn amr_equivalence_proptest(
        iterations in 1u8..=3,
        seed in any::<u8>(),
    ) {
        let (processes, threads) = run_both_amr(
            "amr_equivalence_proptest",
            2,
            4 << 20,
            "",
            &[iterations, seed],
            |h, input| amr_sim(h, input),
        );
        assert_equivalent(&processes, &threads);
        prop_assert_eq!(processes.iterations_completed, u64::from(iterations));
    }
}

proptest! {
    // Property: for arbitrary client counts, iteration counts and data
    // seeds, the generic driver's outputs and the dedicated core's view
    // are identical across worlds. Spawning real processes is expensive,
    // so the case count is deliberately small; every case still covers
    // copy writes, interned-id writes, zero-copy alloc/commit, declared
    // and undeclared signals, and the full stats counters.
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn facade_equivalence_proptest(
        clients in 1usize..=2,
        iterations in 1u8..=3,
        seed in any::<u8>(),
    ) {
        let (processes, threads) = run_both(
            "facade_equivalence_proptest",
            clients,
            4 << 20,
            "",
            &[iterations, seed],
            |h, input| simulate(h, input),
        );
        assert_equivalent(&processes, &threads);
        prop_assert_eq!(processes.outputs.len(), clients);
        prop_assert_eq!(processes.iterations_completed, u64::from(iterations));
    }
}

/// Tentpole acceptance: the seed-list (host:port registry) rendezvous
/// with a short heartbeat timeout must be behaviourally invisible when nothing
/// fails — byte-identical client outputs and a field-identical
/// [`SimReport`] versus both the default-rendezvous process world and the
/// thread world, with an empty `dead_ranks` and `degraded == false`
/// everywhere.
#[test]
fn seed_list_rendezvous_is_equivalent_to_default_rendezvous() {
    let program = "seed_list_rendezvous_is_equivalent_to_default_rendezvous";
    let input = [5u8, 11u8];
    let mut seeded_cfg = config("processes", 2, 4 << 20, "");
    seeded_cfg.architecture.seeds = Some("127.0.0.1:0".to_string());
    seeded_cfg.architecture.heartbeat_timeout_ms = Some(5_000);
    let seeded = Damaris::launch_test(seeded_cfg, program, &input, |h, i| simulate(h, i))
        .expect("seed-list world succeeds");
    let default = Damaris::launch_test(
        config("processes", 2, 4 << 20, ""),
        program,
        &input,
        |h, i| simulate(h, i),
    )
    .expect("default-rendezvous world succeeds");
    let threads = Damaris::launch_test(
        config("threads", 2, 4 << 20, ""),
        program,
        &input,
        |h, i| simulate(h, i),
    )
    .expect("threads world succeeds");
    assert_equivalent(&seeded, &default);
    assert_equivalent(&default, &threads);
    for report in [&seeded, &default, &threads] {
        assert!(
            report.dead_ranks.is_empty(),
            "a no-fault run reports no deaths"
        );
        assert!(!report.degraded, "a no-fault run is not degraded");
    }
}
