//! `e2e` — the end-to-end benchmark of the Damaris reproduction.
//!
//! One command runs the CM1 and Nek proxies through `Damaris::launch` in
//! the thread and process worlds with storage and streaming on, checks
//! what came out, and prints every end-to-end metric by name and unit. A
//! separate traced run (`--trace 1`) adds the per-layer metrics from
//! spans the benchmark records around its own calls into each crate. See
//! `benchmark/README.md`.

mod client;
mod json;
mod metrics;
mod probes;
mod report;
mod stats;
mod sys;
mod trace;
mod trial;
mod workload;

use std::process::ExitCode;

use damaris_core::prelude::*;
use mini_mpi::World;

use crate::client::{simulate, WARMUP_ITERATIONS};
use crate::json::Json;
use crate::metrics::{worsening, Reading, Readings, END_TO_END, PER_LAYER};
use crate::trace::Trace;
use crate::trial::{run_trial, Trial};
use crate::workload::{Env, Spec, World as WorldKind, LAUNCH_PROGRAM, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Set-up-only launches (no iterations) added to the trials' own set-up
/// samples, so `setup_s` is a median of more than a handful.
const EXTRA_SETUPS: usize = 40;

/// Dumps per workload in `--smoke` mode.
const SMOKE_ITERATIONS: u64 = 3;

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
           [--smoke] [--selfcheck] [--emit-contract]

  --workload NAME   run one workload (default: all four, one after another)
  --seed N          seed of the proxies' initial state (default 1)
  --seconds S       length of the measurement; S / 6 trials of ~6 s (default 20)
  --trace 0|1       0: timed run, end-to-end metrics; 1: traced run, per-layer
                    metrics and benchmark/out/trace-<workload>.json (default 0)
  --smoke           3 dumps per workload, correctness checks only
  --selfcheck       run the timed suite twice, fail if any end-to-end metric
                    differs by more than its bound (metrics whose bound is
                    under twice their recorded spread are reported, not failed)
  --emit-contract   print BENCHMARK.json as generated from the metric catalogue";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
    emit_contract: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        selfcheck: false,
        emit_contract: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--emit-contract" => args.emit_contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if workload::find(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

/// A re-executed rank of a process world. It has no argv, only the
/// `MINI_MPI_*` environment, so it goes straight back to the call site it
/// was spawned from; `run_spawned` inside never returns in a child.
fn child_main() -> ExitCode {
    let program = std::env::var("MINI_MPI_PROGRAM").unwrap_or_default();
    // Rank 0 is the dedicated core (or a probe's echo side) and stays on
    // the service cores; rank r is client r − 1 and gets that client's
    // core. Pinned here, before the rank starts any thread.
    let env_number = |key: &str| std::env::var(key).ok()?.parse::<usize>().ok();
    if let (Some(rank), Some(size)) = (env_number("MINI_MPI_RANK"), env_number("MINI_MPI_SIZE")) {
        let placement = sys::Placement::new(size.saturating_sub(1));
        sys::pin_to(match rank.checked_sub(1) {
            None => placement.service(),
            Some(client) => placement.client(client),
        });
    }
    let outcome = if program == probes::MPI_PROGRAM {
        World::run_spawned(2, probes::MPI_PROGRAM, &[], probes::mpi_rank)
            .map(drop)
            .map_err(|e| e.to_string())
    } else {
        // The single process-world launch call site. The real
        // configuration and input arrive with the rank environment; this
        // one only has to name the process world.
        Configuration::from_str(
            "<simulation name=\"child\"><architecture><world kind=\"processes\"/></architecture></simulation>",
        )
        .map_err(|e| e.to_string())
        .and_then(|cfg| {
            Damaris::launch(cfg, LAUNCH_PROGRAM, &[], |h, input| simulate(h, input))
                .map(drop)
                .map_err(|e| e.to_string())
        })
    };
    // Only reached when the call site was not the one this rank belongs to.
    eprintln!("e2e: spawned rank for program '{program}' found no call site: {outcome:?}");
    ExitCode::from(103)
}

/// What running one workload produced.
struct Outcome {
    end_to_end: Readings,
    per_layer: Readings,
    attempted: u64,
    /// Client-iterations that were skipped or hit a call error.
    failed_iterations: u64,
    /// One line per failed correctness check.
    failures: Vec<String>,
    /// `SimReport::data_digest` of the trials (equal across them).
    digest: Option<u64>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// `ops_failed`: a failed check counts even when no single
    /// client-iteration can be blamed for it.
    fn failed(&self) -> u64 {
        self.failed_iterations.max(u64::from(!self.correct()))
    }
}

/// The timed run: `trials` untraced launches plus set-up-only launches.
fn run_timed(spec: &Spec, env: &Env, args: &Args) -> Result<Outcome, String> {
    let n = Spec::trials_for(args.seconds);
    let mut trials = Vec::new();
    for i in 0..n {
        trials.push(run_trial(
            spec,
            env,
            args.seed,
            &format!("t{i}"),
            spec.iterations,
            false,
            true,
        )?);
    }
    let mut extra_setup = Vec::new();
    for i in 0..EXTRA_SETUPS {
        let t = run_trial(spec, env, args.seed, &format!("s{i}"), 0, false, true)?;
        extra_setup.push(t.setup_s());
    }
    let refs: Vec<&Trial> = trials.iter().collect();
    let mut out = summarize(spec, env, &refs, &extra_setup);
    if spec.world == WorldKind::Processes && spec.store {
        cross_world_digest(env, args.seed, &mut out.failures)?;
    }
    Ok(out)
}

fn summarize(spec: &Spec, env: &Env, trials: &[&Trial], extra_setup: &[f64]) -> Outcome {
    let mut failures: Vec<String> = trials
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.failures.iter().map(move |f| format!("trial {i}: {f}")))
        .collect();
    let digests: Vec<u64> = trials.iter().map(|t| t.report.data_digest).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        failures.push(format!(
            "data_digest differs between trials of one seed: {digests:x?}"
        ));
    }
    let (attempted, failed) = report::operations(env, trials);
    Outcome {
        end_to_end: report::end_to_end(spec, env, trials, extra_setup),
        per_layer: Readings::new(),
        attempted,
        failed_iterations: failed,
        failures,
        digest: digests.first().copied(),
    }
}

/// `cm1_overlap_procs` must deliver byte-identical data to
/// `cm1_overlap_threads` for the same seed: launch both worlds for a few
/// dumps and compare digests and stored bytes.
fn cross_world_digest(env: &Env, seed: u64, failures: &mut Vec<String>) -> Result<(), String> {
    let threads = workload::find("cm1_overlap_threads").expect("workload exists");
    let procs = workload::find("cm1_overlap_procs").expect("workload exists");
    let a = run_trial(threads, env, seed, "x", SMOKE_ITERATIONS, false, true)?;
    let b = run_trial(procs, env, seed, "x", SMOKE_ITERATIONS, false, true)?;
    failures.extend(
        a.failures
            .iter()
            .map(|f| format!("cross-world threads: {f}")),
    );
    failures.extend(b.failures.iter().map(|f| format!("cross-world procs: {f}")));
    if a.report.data_digest != b.report.data_digest {
        failures.push(format!(
            "data_digest differs across worlds: threads {:x}, processes {:x}",
            a.report.data_digest, b.report.data_digest
        ));
    }
    if a.stored_bytes != b.stored_bytes {
        failures.push(format!(
            "stored bytes differ across worlds: threads {:?}, processes {:?}",
            a.stored_bytes, b.stored_bytes
        ));
    }
    Ok(())
}

/// The traced run: one untraced trial as the overhead reference, the
/// remaining trials traced, then the probes.
fn run_traced(spec: &Spec, env: &Env, args: &Args) -> Result<Outcome, String> {
    let n = Spec::trials_for(args.seconds).max(2);
    let reference = run_trial(spec, env, args.seed, "t0", spec.iterations, false, true)?;
    let mut traced = Vec::new();
    for i in 1..n {
        traced.push(run_trial(
            spec,
            env,
            args.seed,
            &format!("t{i}"),
            spec.iterations,
            true,
            true,
        )?);
    }
    let all: Vec<&Trial> = std::iter::once(&reference).chain(&traced).collect();
    let mut out = summarize(spec, env, &all, &[]);

    let mut trace = Trace::default();
    let refs: Vec<&Trial> = traced.iter().collect();
    for (i, t) in refs.iter().enumerate() {
        report::record_trial_spans(&mut trace, i as u32 + 1, t);
    }
    let mut m = report::from_spans(&trace, &refs, Some(reference.run_s()), &mut out.failures);
    if spec.serve {
        let subscribers = || all.iter().flat_map(|t| &t.subscribers);
        let lags: u64 = subscribers().map(|s| s.lag_events).sum();
        let dropped: u64 = subscribers().map(|s| s.dropped_frames).sum();
        m.insert("serve.lag_events", Reading::exact(lags as f64));
        m.insert("serve.frames_dropped", Reading::exact(dropped as f64));
    }

    // Probe inputs: client 0's sampled blocks as they came out of storage
    // or off the stream.
    let stored = reference
        .readback
        .as_ref()
        .map(|r| r.sample_blocks.as_slice());
    let streamed: &[Vec<u8>] = reference
        .subscribers
        .first()
        .map_or(&[], |s| s.sample_blocks.as_slice());
    let blocks = probes::sample_values(stored, streamed);
    let probe_dir = spec.trial_dir(env, "probe");
    let xml = spec.xml(env, &probe_dir, true);
    let dims: Vec<u64> = spec.app.variables()[0]
        .1
        .split(',')
        .map(|d| d.parse().expect("declared dimensions are numbers"))
        .collect();
    let write_p50 = stats::percentile(&report::write_phase_ms(&refs), 50.0);

    let fails = &mut out.failures;
    probes::run(&mut trace, fails, "probe.xmlconf", || {
        probes::xmlconf(&mut m, &xml);
        Ok(())
    });
    probes::run(&mut trace, fails, "probe.apps", || {
        probes::apps(&mut m, spec, args.seed);
        Ok(())
    });
    probes::run(&mut trace, fails, "probe.shm", || {
        probes::shm(&mut m, spec, args.seed)
    });
    let mut replay = None;
    if spec.store {
        probes::run(&mut trace, fails, "probe.codec_format", || {
            replay = probes::codec_and_format(&mut m, &dims, &blocks, &probe_dir)?;
            Ok(())
        });
    }
    if spec.world == WorldKind::Threads {
        let iterations = (spec.iterations / 3).max(WARMUP_ITERATIONS + 1);
        probes::run(&mut trace, fails, "probe.node_counters", || {
            probes::node_counters(&mut m, spec, env, args.seed, iterations, replay.as_ref())
        });
    } else {
        probes::run(&mut trace, fails, "probe.mpi", || probes::mpi(&mut m));
    }
    if spec.serve {
        probes::run(&mut trace, fails, "probe.serve", || {
            probes::serve(&mut m, spec, streamed)
        });
    }
    if spec.name == "cm1_overlap_threads" {
        probes::run(&mut trace, fails, "probe.baselines", || {
            probes::baselines(&mut m, env, spec, &blocks, &probe_dir, write_p50)
        });
        probes::run(&mut trace, fails, "probe.bare", || {
            let iterations = (spec.iterations / 3).max(WARMUP_ITERATIONS + 1);
            let bare = run_trial(spec, env, args.seed, "bare", iterations, false, false)?;
            metrics::put(
                &mut m,
                "core.bare_write_phase_ms_p50",
                Reading::percentile_of(&report::write_phase_ms(&[&bare]), 50.0),
            );
            if bare.failures.is_empty() {
                Ok(())
            } else {
                Err(format!("bare run: {}", bare.failures.join("; ")))
            }
        });
    }
    let path = env.out_dir.join(format!("trace-{}.json", spec.name));
    let header = vec![
        ("workload".to_string(), Json::str(spec.name)),
        ("seed".to_string(), Json::count(args.seed)),
        ("nproc".to_string(), Json::count(env.nproc as u64)),
        ("clients".to_string(), Json::count(env.clients as u64)),
    ];
    std::fs::write(&path, trace.to_json(header).render() + "\n")
        .map_err(|e| format!("writing {path:?}: {e}"))?;
    println!(
        "trace: {} spans written to {}",
        trace.spans().len(),
        path.display()
    );

    out.per_layer = m;
    Ok(out)
}

/// `--smoke`: a few dumps through the whole path, correctness only.
fn run_smoke(spec: &Spec, env: &Env, args: &Args) -> Result<Outcome, String> {
    let t = run_trial(
        spec,
        env,
        args.seed,
        "smoke",
        SMOKE_ITERATIONS,
        args.traced,
        true,
    )?;
    Ok(summarize(spec, env, &[&t], &[]))
}

fn git_revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown (not a git checkout)".to_string(),
        r => r.to_string(),
    }
}

fn print_header(spec: &Spec, env: &Env, args: &Args, mode: &str) {
    println!();
    println!("== {} ({mode}) ==", spec.name);
    println!("why: {}", spec.why);
    println!(
        "host: nproc {}, clients {} + 1 dedicated core, subscribers {}; seed {}; revision {}",
        env.nproc,
        env.clients,
        env.subscribers,
        args.seed,
        git_revision()
    );
    println!(
        "shape: closed loop, {} iterations x {} trial(s), {} step(s) per dump, {} MiB per client-iteration, first {} iterations of a trial are warm-up",
        if args.smoke { SMOKE_ITERATIONS } else { spec.iterations },
        if args.smoke { 1 } else { Spec::trials_for(args.seconds) },
        spec.steps_per_dump,
        spec.bytes_per_client_iteration() >> 20,
        WARMUP_ITERATIONS
    );
}

/// The contract's result line for one workload.
fn result_line(out: &Outcome, traced: bool) -> Result<String, String> {
    let metrics = if traced {
        let names = END_TO_END
            .iter()
            .filter(|d| !d.contract)
            .map(|d| (d.name, d.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        let mut all = out.per_layer.clone();
        all.extend(out.end_to_end.iter().map(|(k, v)| (*k, *v)));
        report::metrics_json(names, &all, true)?
    } else {
        let names = END_TO_END
            .iter()
            .filter(|d| d.contract)
            .map(|d| (d.name, d.unit));
        report::metrics_json(names, &out.end_to_end, false)?
    };
    Ok(Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::count(out.attempted)),
        ("failed", Json::count(out.failed())),
        ("metrics", metrics),
    ])
    .render())
}

fn result_path(env: &Env, spec: &Spec) -> std::path::PathBuf {
    env.out_dir.join(format!("result-{}.json", spec.name))
}

/// Run one workload in this process: print its tables and result line,
/// write `result-<workload>.json`. `Ok(false)` when a check failed.
fn run_workload(spec: &Spec, env: &Env, args: &Args) -> Result<bool, String> {
    let mode = match (args.smoke, args.traced) {
        (true, _) => "smoke",
        (false, true) => "traced",
        (false, false) => "timed",
    };
    print_header(spec, env, args, mode);
    let out = if args.smoke {
        run_smoke(spec, env, args)?
    } else if args.traced {
        run_traced(spec, env, args)?
    } else {
        run_timed(spec, env, args)?
    };
    // Nothing but the trace and result files outlives a run.
    let dir = env.out_dir.join(spec.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    }
    report::print_end_to_end(&out.end_to_end);
    if args.traced && !args.smoke {
        report::print_per_layer(&out.per_layer);
    }
    let digest = out.digest.map(|d| format!("{d:016x}"));
    let path = result_path(env, spec);
    let result = Json::obj([
        ("workload", Json::str(spec.name)),
        ("mode", Json::str(mode)),
        ("seed", Json::count(args.seed)),
        ("nproc", Json::count(env.nproc as u64)),
        ("clients", Json::count(env.clients as u64)),
        ("revision", Json::str(git_revision())),
        ("correct", Json::Bool(out.correct())),
        (
            "data_digest",
            digest.as_deref().map_or(Json::Null, Json::str),
        ),
        ("end_to_end", report::readings_json(&out.end_to_end)),
        ("per_layer", report::readings_json(&out.per_layer)),
    ]);
    std::fs::write(&path, result.render() + "\n").map_err(|e| format!("writing {path:?}: {e}"))?;
    println!(
        "ops_attempted {} ops_failed {} (client-iterations){}",
        out.attempted,
        out.failed(),
        digest.map_or(String::new(), |d| format!("; data_digest {d}"))
    );
    for f in &out.failures {
        println!("FAILED CHECK: {f}");
    }
    if !args.smoke {
        println!("{}", result_line(&out, args.traced)?);
    }
    Ok(out.correct())
}

/// Run every workload once, each in a child process of its own: peak
/// memory and reaped-children CPU are lifetime counters of a process, so
/// a workload run after another in one process would report its
/// predecessor's. Returns whether every check passed and each workload's
/// parsed `result-<workload>.json`.
fn run_suite(env: &Env, args: &Args) -> Result<(bool, Vec<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut ok = true;
    let mut results = Vec::new();
    for spec in &WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", spec.name]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {}: {e}", spec.name))?;
        ok &= status.success();
        let path = result_path(env, spec);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
        results.push(Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?);
    }
    let by_name = |n: &str| {
        results
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(n))
    };
    if let (Some(t), Some(p)) = (by_name("cm1_overlap_threads"), by_name("cm1_overlap_procs")) {
        let digest = |r: &Json| {
            r.get("data_digest")
                .and_then(Json::as_str)
                .map(String::from)
        };
        let stored = |r: &Json| metric_value(r, "stored_bytes_per_byte");
        if digest(t) != digest(p) || stored(t) != stored(p) {
            println!(
                "FAILED CHECK: cm1_overlap_threads and cm1_overlap_procs disagree: digest {:?} vs {:?}, stored_bytes_per_byte {:?} vs {:?}",
                digest(t), digest(p), stored(t), stored(p)
            );
            ok = false;
        } else {
            println!("\ncm1_overlap_threads and cm1_overlap_procs agree on data_digest and stored_bytes_per_byte");
        }
    }
    Ok((ok, results))
}

/// The value of end-to-end metric `name` in a parsed result file.
fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("end_to_end")?.get(name)?.get("value")?.as_f64()
}

/// `--selfcheck`: two full timed sets must agree within every bound the
/// host can resolve.
fn selfcheck(env: &Env, args: &Args) -> Result<bool, String> {
    let timed = Args {
        traced: false,
        smoke: false,
        ..args.clone()
    };
    let (ok_a, first) = run_suite(env, &timed)?;
    let (ok_b, second) = run_suite(env, &timed)?;
    let mut ok = ok_a && ok_b;
    println!("\n== selfcheck: second set against the first ==");
    for ((spec, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(a, def.name), metric_value(b, def.name))
            else {
                continue;
            };
            // Either set may be the worse one.
            let diff = worsening(def.better, va, vb).max(worsening(def.better, vb, va));
            // Two single runs cannot be told apart where the bound is
            // less than twice the spread of ten: reported, not failed.
            let verdict = if diff <= def.bound {
                "ok"
            } else if !def.resolves() {
                "unresolved (the bound is under twice the recorded spread)"
            } else {
                ok = false;
                "DIFFERS"
            };
            println!(
                "  {:<22} {:<24} {va:>14.4} {vb:>14.4} {:>8.2} % (bound {:.1} %) {verdict}",
                spec.name,
                def.name,
                diff * 100.0,
                def.bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Record the CPUs this process was given before anything is pinned.
    sys::host_cpus();
    // Before anything else: a re-executed rank must not parse arguments or
    // print to stdout.
    if World::spawn_dir().is_some() {
        return child_main();
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_contract {
        print!("{}", metrics::contract_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let unresolvable = metrics::unresolvable_bounds(&END_TO_END);
    if !unresolvable.is_empty() {
        eprintln!("e2e: refusing to run, the measurement cannot resolve these bounds:");
        for line in unresolvable {
            eprintln!("  {line}");
        }
        return ExitCode::from(2);
    }
    let env = Env::detect();
    let outcome = if args.selfcheck {
        selfcheck(&env, &args)
    } else if let Some(name) = &args.workload {
        let spec = workload::find(name).expect("validated by parse_args");
        run_workload(spec, &env, &args)
    } else {
        run_suite(&env, &args).map(|(ok, _)| ok)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload nek_stream_procs --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("nek_stream_procs"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 20, true));
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.traced),
            (None, 1, RUN_SECONDS, false)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut end_to_end = Readings::new();
        for d in END_TO_END.iter().filter(|d| d.contract) {
            end_to_end.insert(d.name, Reading::exact(1.5));
        }
        let mut out = Outcome {
            end_to_end,
            per_layer: Readings::new(),
            attempted: 450,
            failed_iterations: 0,
            failures: Vec::new(),
            digest: None,
        };
        let line = result_line(&out, false).unwrap();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 450, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}"#));
        // A traced line lists every per-layer name, absent layers as 0.
        let traced = result_line(&out, true).unwrap();
        assert!(traced.contains(r#""stream_lag_ms_p50": {"value": 0.0, "unit": "ms"}"#));
        let listed = END_TO_END.iter().filter(|d| !d.contract).count() + PER_LAYER.len();
        assert_eq!(traced.matches("\"value\"").count(), listed);
        // A missing end-to-end source is an error, not a 0.
        out.end_to_end.remove("peak_rss_mib");
        assert!(result_line(&out, false)
            .unwrap_err()
            .contains("peak_rss_mib"));
    }
}
