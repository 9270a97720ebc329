//! From trials to metrics: the end-to-end readings of a timed run, the
//! span-derived readings of a traced run, and how both are printed.

use crate::client::WARMUP_ITERATIONS;
use crate::json::Json;
use crate::metrics::{put, Reading, Readings, END_TO_END, GIB, MIB, PER_LAYER};
use crate::stats::percentile;
use crate::sys::peak_rss_mib;
use crate::trace::{Span, Trace};
use crate::trial::Trial;
use crate::workload::{Env, Spec};

/// Post-warm-up per-iteration samples of every client of `trials`, in ms.
fn pooled_ms(trials: &[&Trial], f: impl Fn(&crate::client::IterStamps) -> u64) -> Vec<f64> {
    trials
        .iter()
        .flat_map(|t| t.logs.iter())
        .flat_map(|l| l.iterations.iter().skip(WARMUP_ITERATIONS as usize))
        .map(|it| f(it) as f64 * 1e-6)
        .collect()
}

/// Post-warm-up write phases (`write` × variables + `end_iteration`) of
/// every client-iteration of `trials`, in ms.
pub fn write_phase_ms(trials: &[&Trial]) -> Vec<f64> {
    pooled_ms(trials, |it| it.write_phase_ns())
}

/// The end-to-end metrics of `trials` (all of one workload and seed).
/// `setup_s` adds the set-up-only launches in `extra_setup_s` to its
/// samples. A metric whose source is unavailable, or which the workload
/// does not have, is left out.
pub fn end_to_end(spec: &Spec, env: &Env, trials: &[&Trial], extra_setup_s: &[f64]) -> Readings {
    let mut m = Readings::new();
    let per_trial_samples = |f: &dyn Fn(&Trial) -> Option<f64>| -> Option<Vec<f64>> {
        let samples: Vec<f64> = trials.iter().filter_map(|t| f(t)).collect();
        (samples.len() == trials.len()).then_some(samples)
    };
    let per_trial = |f: &dyn Fn(&Trial) -> Option<f64>| -> Option<Reading> {
        Reading::median_of(&per_trial_samples(f)?)
    };

    let mut setup: Vec<f64> = trials.iter().map(|t| t.setup_s()).collect();
    setup.extend(extra_setup_s);
    put(&mut m, "setup_s", Reading::median_of(&setup));
    put(&mut m, "run_s", per_trial(&|t| Some(t.run_s())));

    let iter_ms = pooled_ms(trials, |it| it.iteration_ns());
    let write_ms = write_phase_ms(trials);
    // The fast decile is what the contract holds to a bound: the host's
    // neighbours move it a fifth as far as they move the median.
    put(
        &mut m,
        "iter_ms_p10",
        Reading::percentile_of(&iter_ms, 10.0),
    );
    put(
        &mut m,
        "iter_ms_p50",
        Reading::percentile_of(&iter_ms, 50.0),
    );
    put(
        &mut m,
        "write_phase_ms_p10",
        Reading::percentile_of(&write_ms, 10.0),
    );
    put(
        &mut m,
        "write_phase_ms_p50",
        Reading::percentile_of(&write_ms, 50.0),
    );
    put(
        &mut m,
        "write_phase_ms_p95",
        Reading::percentile_of(&write_ms, 95.0),
    );

    let offload = per_trial_samples(&|t| {
        let gib = t.report.bytes_received as f64 / GIB;
        (gib > 0.0)
            .then(|| t.offload_cpu_s())
            .flatten()
            .map(|s| s / gib)
    });
    put(
        &mut m,
        "offload_cpu_s_per_gib",
        offload.and_then(|s| Reading::lowest_of(&s)),
    );
    // Lifetime peaks: one reading per run, taken after the last trial.
    put(&mut m, "peak_rss_mib", peak_rss_mib().map(Reading::exact));

    let attempted: u64 = trials
        .iter()
        .map(|t| t.iterations * env.clients as u64)
        .sum();
    let skipped: u64 = trials
        .iter()
        .map(|t| t.report.skipped_client_iterations)
        .sum();
    if attempted > 0 {
        let frac = 1.0 - skipped as f64 / attempted as f64;
        m.insert("completed_frac", Reading::exact(frac));
    }

    if spec.store {
        put(
            &mut m,
            "stored_bytes_per_byte",
            per_trial(&|t| Some(t.stored_bytes? as f64 / t.report.bytes_received as f64)),
        );
    }
    if spec.timed_readback {
        put(
            &mut m,
            "readback_mib_s",
            per_trial(&|t| {
                let r = t.readback.as_ref()?;
                (r.seconds > 0.0).then(|| r.decoded_bytes as f64 / MIB / r.seconds)
            }),
        );
    }
    if spec.serve {
        let lag = stream_lag_ms(trials);
        put(
            &mut m,
            "stream_lag_ms_p50",
            Reading::percentile_of(&lag, 50.0),
        );
        put(
            &mut m,
            "stream_lag_ms_p95",
            Reading::percentile_of(&lag, 95.0),
        );
        let expected: u64 = trials
            .iter()
            .map(|t| {
                t.iterations * (env.clients * env.subscribers * spec.app.variables().len()) as u64
            })
            .sum();
        let got: u64 = trials
            .iter()
            .flat_map(|t| t.subscribers.iter())
            .map(|s| s.data_frames)
            .sum();
        if expected > 0 {
            m.insert(
                "delivered_frac",
                Reading::exact(got as f64 / expected as f64),
            );
        }
    }
    m
}

/// Last client's `end_iteration(k)` return → a subscriber holds
/// `ITER-END(k)`, for every post-warm-up `k`, subscriber and trial.
fn stream_lag_ms(trials: &[&Trial]) -> Vec<f64> {
    let mut lag = Vec::new();
    for t in trials {
        for sub in &t.subscribers {
            for &(k, received_ns) in &sub.iteration_ends {
                if k < WARMUP_ITERATIONS {
                    continue;
                }
                let ended = t
                    .logs
                    .iter()
                    .filter_map(|l| l.iterations.get(k as usize))
                    .map(|it| it.end_ns)
                    .max();
                if let Some(ended_ns) = ended {
                    lag.push(received_ns.saturating_sub(ended_ns) as f64 * 1e-6);
                }
            }
        }
    }
    lag
}

/// Client-iterations attempted and failed over `trials`: failed ones were
/// skipped, hit a call error, or belong to a trial that failed a check
/// (each failed check counts at least once).
pub fn operations(env: &Env, trials: &[&Trial]) -> (u64, u64) {
    let attempted: u64 = trials
        .iter()
        .map(|t| t.iterations * env.clients as u64)
        .sum();
    let failed: u64 = trials
        .iter()
        .map(|t| {
            let errors: u64 = t.logs.iter().map(|l| l.errors).sum();
            (t.report.skipped_client_iterations + errors).max(t.failures.len() as u64)
        })
        .sum();
    (attempted.max(1), failed.min(attempted.max(1)))
}

/// Turn one traced trial's client stamps into spans under a `trial` span.
pub fn record_trial_spans(trace: &mut Trace, trial_no: u32, t: &Trial) {
    let span = |name, start_ns, end_ns, parent, iteration, lane| Span {
        name,
        start_ns,
        end_ns,
        parent,
        trial: Some(trial_no),
        iteration,
        lane,
    };
    let root = trace.push(span("trial", t.start_ns, t.end_ns, None, None, 0));
    let (first_entry, last_exit) = (t.first_entry_ns(), t.last_exit_ns());
    trace.push(span(
        "core.setup",
        t.start_ns,
        first_entry,
        Some(root),
        None,
        0,
    ));
    trace.push(span("core.drain", last_exit, t.end_ns, Some(root), None, 0));
    for log in &t.logs {
        let lane = 1 + log.client as u32;
        let client = trace.push(span(
            "client",
            log.entry_ns,
            log.exit_ns,
            Some(root),
            None,
            lane,
        ));
        for (k, it) in log.iterations.iter().enumerate() {
            let k = Some(k as u64);
            let iter = trace.push(span(
                "client.iteration",
                it.start_ns,
                it.end_ns,
                Some(client),
                k,
                lane,
            ));
            let mut from = it.start_ns;
            for &to in &it.steps {
                trace.push(span("apps.step", from, to, Some(iter), k, lane));
                from = to;
            }
            for &to in &it.writes {
                trace.push(span("core.write", from, to, Some(iter), k, lane));
                from = to;
            }
            trace.push(span(
                "core.end_iteration",
                from,
                it.end_ns,
                Some(iter),
                k,
                lane,
            ));
        }
    }
}

/// Per-layer readings that come straight from the spans of the traced
/// trials. Asserts (through the returned failure list) that the client
/// spans tile their iterations.
pub fn from_spans(
    trace: &Trace,
    traced: &[&Trial],
    untraced_run_s: Option<f64>,
    failures: &mut Vec<String>,
) -> Readings {
    let mut m = Readings::new();
    let post_warmup = |s: &&Span| s.iteration.is_some_and(|k| k >= WARMUP_ITERATIONS);
    let durations = |name: &str, scale: f64| -> Vec<f64> {
        trace
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .filter(post_warmup)
            .map(|s| s.duration_ns() as f64 * scale)
            .collect()
    };
    let steps = durations("apps.step", 1e-6);
    let writes = durations("core.write", 1e-3);
    let ends = durations("core.end_iteration", 1e-3);
    put(
        &mut m,
        "apps.step_ms_p50",
        Reading::percentile_of(&steps, 50.0),
    );
    put(
        &mut m,
        "core.write_us_p50",
        Reading::percentile_of(&writes, 50.0),
    );
    put(
        &mut m,
        "core.write_us_p95",
        Reading::percentile_of(&writes, 95.0),
    );
    put(
        &mut m,
        "core.end_iteration_us_p50",
        Reading::percentile_of(&ends, 50.0),
    );
    put(
        &mut m,
        "core.end_iteration_us_p95",
        Reading::percentile_of(&ends, 95.0),
    );

    let write_ms = write_phase_ms(traced);
    if let Some(p50) = percentile(&write_ms, 50.0) {
        let stalled = write_ms.iter().filter(|&&w| w > 4.0 * p50).count();
        m.insert(
            "core.stalled_iter_frac",
            Reading::exact(stalled as f64 / write_ms.len() as f64),
        );
    }

    let setup_ms: Vec<f64> = traced.iter().map(|t| t.setup_s() * 1e3).collect();
    let drain_ms: Vec<f64> = traced.iter().map(|t| t.drain_s() * 1e3).collect();
    put(&mut m, "core.setup_ms", Reading::median_of(&setup_ms));
    put(&mut m, "core.drain_ms", Reading::median_of(&drain_ms));

    if let Some(last) = traced.last() {
        let r = &last.report;
        m.insert(
            "core.blocks_received",
            Reading::exact(r.blocks_received as f64),
        );
        m.insert(
            "core.bytes_received",
            Reading::exact(r.bytes_received as f64),
        );
        m.insert(
            "core.skipped_client_iters",
            Reading::exact(r.skipped_client_iterations as f64),
        );
    }

    // Step + Σ write + end_iteration against the measured iteration.
    let parts: f64 = ["apps.step", "core.write", "core.end_iteration"]
        .iter()
        .map(|n| durations(n, 1.0).iter().sum::<f64>())
        .sum();
    let whole: f64 = durations("client.iteration", 1.0).iter().sum();
    if whole > 0.0 {
        let frac = parts / whole;
        m.insert("client.span_sum_frac", Reading::exact(frac));
        if (frac - 1.0).abs() > 0.02 {
            failures.push(format!(
                "client spans sum to {frac:.4} of the measured iterations (outside 2 %)"
            ));
        }
    }

    let run_s: Vec<f64> = traced.iter().map(|t| t.run_s()).collect();
    if let (Some(traced_run), Some(untraced)) = (Reading::median_of(&run_s), untraced_run_s) {
        m.insert(
            "trace.overhead_ms",
            Reading::of((traced_run.value - untraced) * 1e3, &run_s).expect("run_s is not empty"),
        );
    }
    m
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

fn print_rows<'a>(
    title: &str,
    rows: impl Iterator<Item = (&'a str, &'a str, Option<&'a Reading>, String)>,
) {
    println!("{title}");
    println!(
        "  {:<34} {:>14} {:<6} {:>6} {:>12} {:>12} {:>12} {:>12}  note",
        "metric", "value", "unit", "n", "median", "q1", "q3", "mad"
    );
    for (name, unit, reading, note) in rows {
        match reading {
            Some(r) => println!(
                "  {:<34} {:>14} {:<6} {:>6} {:>12} {:>12} {:>12} {:>12}  {}",
                name,
                fmt_value(r.value),
                unit,
                r.summary.n,
                fmt_value(r.summary.median),
                fmt_value(r.summary.q1),
                fmt_value(r.summary.q3),
                fmt_value(r.summary.mad),
                note
            ),
            None => println!("  {name:<34} {:>14} {unit:<6}  {note}", "absent"),
        }
    }
}

/// Print the end-to-end table: value, unit, and the samples' median,
/// quartiles and MAD with their count.
pub fn print_end_to_end(readings: &Readings) {
    print_rows(
        "end-to-end metrics",
        END_TO_END.iter().map(|d| {
            (
                d.name,
                d.unit,
                readings.get(d.name),
                format!("bound {:.1} %", d.bound * 100.0),
            )
        }),
    );
}

pub fn print_per_layer(readings: &Readings) {
    print_rows(
        "per-layer metrics (traced run)",
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, readings.get(name), String::new())),
    );
}

/// Every reading with the summary of its samples (and, for an end-to-end
/// metric, its bound and whether `BENCHMARK.json` lists it as end-to-end):
/// the `result-<workload>.json` file that `spread.py` reads.
pub fn readings_json(readings: &Readings) -> Json {
    Json::obj(readings.iter().map(|(name, r)| {
        let mut fields = vec![
            ("value", Json::Num(r.value)),
            ("n", Json::count(r.summary.n as u64)),
            ("median", Json::Num(r.summary.median)),
            ("q1", Json::Num(r.summary.q1)),
            ("q3", Json::Num(r.summary.q3)),
            ("mad", Json::Num(r.summary.mad)),
        ];
        if let Some(def) = END_TO_END.iter().find(|d| d.name == *name) {
            fields.push(("unit", Json::str(def.unit)));
            fields.push(("better", Json::str(def.better.name())));
            fields.push(("bound", Json::Num(def.bound)));
            fields.push(("contract", Json::Bool(def.contract)));
        }
        (*name, Json::obj(fields))
    }))
}

/// The `metrics` object of the result line for `names`: every name must
/// be present, except that `absent_as_zero` lets a missing one read 0
/// (per-layer metrics of layers off the workload's path).
pub fn metrics_json<'a>(
    names: impl Iterator<Item = (&'a str, &'a str)>,
    readings: &Readings,
    absent_as_zero: bool,
) -> Result<Json, String> {
    let mut pairs = Vec::new();
    for (name, unit) in names {
        let value = match readings.get(name) {
            Some(r) if r.value.is_finite() => r.value,
            Some(r) => return Err(format!("metric {name} is not finite ({})", r.value)),
            None if absent_as_zero => 0.0,
            None => return Err(format!("metric {name} is absent on this platform")),
        };
        pairs.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj(pairs))
}
