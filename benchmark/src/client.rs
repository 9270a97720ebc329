//! The simulation side of every workload: one closed loop, written once
//! against `SimHandle`, that runs unmodified as a client thread or as a
//! re-executed client process.
//!
//! Everything the loop needs travels in the launch input bytes
//! ([`RunInput`]), and everything it measured comes back in its output
//! bytes ([`ClientLog`]) — in the process world neither side shares memory
//! with the benchmark's main process.

use std::path::Path;
use std::time::{Duration, Instant};

use damaris_core::prelude::*;
use sim_apps::{Cm1, Cm1Config, Nek, NekConfig, ProxyApp};

use crate::sys::{now_ns, pin_to, thread_cpu_ns, Placement};

/// Iterations at the start of every trial that are run but not sampled:
/// they fill the allocator's size classes, the codec scratch buffers and
/// the page cache.
pub const WARMUP_ITERATIONS: u64 = 5;

/// Which proxy application a workload steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// CM1 64×64×32: five 1 MiB f64 fields per dump.
    Cm1,
    /// Nek 512 elements of order 8: one 2 MiB f64 field per dump.
    Nek,
}

impl App {
    /// The proxy for client `client` of a run seeded with `seed`.
    pub fn build(self, seed: u64, client: usize) -> Box<dyn ProxyApp> {
        let seed = seed.wrapping_add(client as u64);
        match self {
            App::Cm1 => Box::new(Cm1::new(Cm1Config {
                nx: 64,
                ny: 64,
                nz: 32,
                seed,
                ..Cm1Config::default()
            })),
            App::Nek => Box::new(Nek::new(NekConfig {
                elements: 512,
                order: 8,
                seed,
                ..NekConfig::default()
            })),
        }
    }

    /// `(name, layout dimensions)` of every output variable, in the order
    /// `ProxyApp::fields` yields them. Dimensions are slowest-first, so
    /// the storage engine's row chunking sees whole planes / elements.
    pub fn variables(self) -> &'static [(&'static str, &'static str)] {
        match self {
            App::Cm1 => &[
                ("u", "32,64,64"),
                ("v", "32,64,64"),
                ("w", "32,64,64"),
                ("theta", "32,64,64"),
                ("qv", "32,64,64"),
            ],
            App::Nek => &[("velocity_magnitude", "512,512")],
        }
    }

    /// Bytes of one block (every variable of an app has the same size).
    pub fn block_bytes(self) -> usize {
        match self {
            App::Cm1 => 64 * 64 * 32 * 8,
            App::Nek => 512 * 512 * 8,
        }
    }
}

/// What one launch asks of its clients. Travels as the launch input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInput {
    pub app: App,
    pub seed: u64,
    pub iterations: u64,
    /// `ProxyApp::step` calls before each dump (the issue's `K`).
    pub steps_per_dump: u64,
    /// Clients of the launch: tells a client which CPU is its own.
    pub clients: u64,
    /// Record one stamp per step, per write and per `end_iteration`
    /// instead of three per iteration.
    pub traced: bool,
    /// Iterations whose blocks are hashed at write time, for comparison
    /// with what storage or the stream delivered.
    pub samples: Vec<u64>,
    /// When set, clients start their loop only once this file exists.
    pub go_file: Option<String>,
}

impl RunInput {
    pub fn encode(&self) -> Vec<u8> {
        let mut words = vec![
            match self.app {
                App::Cm1 => 0,
                App::Nek => 1,
            },
            self.seed,
            self.iterations,
            self.steps_per_dump,
            self.clients,
            u64::from(self.traced),
            self.samples.len() as u64,
        ];
        words.extend(&self.samples);
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.extend(self.go_file.as_deref().unwrap_or("").as_bytes());
        bytes
    }

    pub fn decode(bytes: &[u8]) -> Option<RunInput> {
        let word = |i: usize| -> Option<u64> {
            Some(u64::from_le_bytes(
                bytes.get(i * 8..i * 8 + 8)?.try_into().ok()?,
            ))
        };
        let n_samples = usize::try_from(word(6)?).ok()?;
        if n_samples > bytes.len() / 8 {
            return None;
        }
        let samples = (0..n_samples).map(|i| word(7 + i)).collect::<Option<_>>()?;
        let go = std::str::from_utf8(bytes.get((7 + n_samples) * 8..)?).ok()?;
        Some(RunInput {
            app: match word(0)? {
                0 => App::Cm1,
                1 => App::Nek,
                _ => return None,
            },
            seed: word(1)?,
            iterations: word(2)?,
            steps_per_dump: word(3)?,
            clients: word(4)?,
            traced: word(5)? != 0,
            samples,
            go_file: (!go.is_empty()).then(|| go.to_string()),
        })
    }
}

/// FNV-1a over raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of an `f64` slice — equals
/// [`fnv1a`] of the same block as storage or the stream carries it.
pub fn fnv1a_f64(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Stamps of one client iteration on the monotonic clock.
///
/// Stamps are boundaries, not pairs: step `i` runs from `steps[i-1]` (or
/// `start_ns`) to `steps[i]`, the first write starts where the last step
/// ended, and `end_iteration` runs from the last write to `end_ns`. The
/// client-side spans therefore tile the iteration with no gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterStamps {
    pub start_ns: u64,
    /// End of each step; only the last one is kept when untraced.
    pub steps: Vec<u64>,
    /// End of each `write`; empty when untraced.
    pub writes: Vec<u64>,
    /// `end_iteration` returned.
    pub end_ns: u64,
}

impl IterStamps {
    /// Where the compute phase ended and the write phase began.
    pub fn write_start_ns(&self) -> u64 {
        *self.steps.last().expect("at least one step stamp is kept")
    }

    pub fn iteration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn write_phase_ns(&self) -> u64 {
        self.end_ns - self.write_start_ns()
    }
}

/// Everything one client measured during one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientLog {
    pub client: u64,
    /// The simulation function was entered (setup is over for this client).
    pub entry_ns: u64,
    /// `finalize` returned.
    pub exit_ns: u64,
    /// CPU time of the client thread between those two stamps; `None`
    /// when the per-thread CPU clock is unavailable.
    pub cpu_ns: Option<u64>,
    /// `SimHandle::skipped_iterations` at the end of the run.
    pub skipped_iterations: u64,
    /// Calls that returned an error.
    pub errors: u64,
    pub iterations: Vec<IterStamps>,
    /// `(iteration, variable index, FNV-1a of the block)` for the sampled
    /// iterations.
    pub hashes: Vec<(u64, u64, u64)>,
}

const ABSENT: u64 = u64::MAX;
/// Words of an encoded [`ClientLog`] before the per-iteration records.
const HEADER_WORDS: usize = 10;

impl ClientLog {
    pub fn encode(&self) -> Vec<u8> {
        let (n_steps, n_writes) = self
            .iterations
            .first()
            .map_or((0, 0), |i| (i.steps.len(), i.writes.len()));
        let mut words = vec![
            self.client,
            self.entry_ns,
            self.exit_ns,
            self.cpu_ns.unwrap_or(ABSENT),
            self.skipped_iterations,
            self.errors,
            self.iterations.len() as u64,
            n_steps as u64,
            n_writes as u64,
            self.hashes.len() as u64,
        ];
        for it in &self.iterations {
            words.push(it.start_ns);
            words.extend(&it.steps);
            words.extend(&it.writes);
            words.push(it.end_ns);
        }
        for &(it, var, hash) in &self.hashes {
            words.extend([it, var, hash]);
        }
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    pub fn decode(bytes: &[u8]) -> Option<ClientLog> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let header = words.get(..HEADER_WORDS)?;
        let n_iters = usize::try_from(header[6]).ok()?;
        let n_steps = usize::try_from(header[7]).ok()?;
        let n_writes = usize::try_from(header[8]).ok()?;
        let n_hashes = usize::try_from(header[9]).ok()?;
        let per_iter = n_steps.checked_add(n_writes)?.checked_add(2)?;
        let body = n_iters
            .checked_mul(per_iter)?
            .checked_add(n_hashes.checked_mul(3)?)?;
        if words.len() != HEADER_WORDS + body || (n_iters > 0 && n_steps == 0) {
            return None;
        }
        let mut rest = &words[HEADER_WORDS..];
        let mut iterations = Vec::with_capacity(n_iters);
        for _ in 0..n_iters {
            let (rec, tail) = rest.split_at(per_iter);
            iterations.push(IterStamps {
                start_ns: rec[0],
                steps: rec[1..1 + n_steps].to_vec(),
                writes: rec[1 + n_steps..1 + n_steps + n_writes].to_vec(),
                end_ns: rec[per_iter - 1],
            });
            rest = tail;
        }
        let hashes = rest.chunks_exact(3).map(|h| (h[0], h[1], h[2])).collect();
        Some(ClientLog {
            client: header[0],
            entry_ns: header[1],
            exit_ns: header[2],
            cpu_ns: (header[3] != ABSENT).then_some(header[3]),
            skipped_iterations: header[4],
            errors: header[5],
            iterations,
            hashes,
        })
    }
}

/// How long a client waits for the go-file before giving up (the
/// subscribers it waits for give up on the server sooner than this).
const GO_TIMEOUT: Duration = Duration::from_secs(60);

fn wait_for_file(path: &Path) {
    let deadline = Instant::now() + GO_TIMEOUT;
    while !path.exists() {
        assert!(
            Instant::now() < deadline,
            "go-file {path:?} did not appear within {GO_TIMEOUT:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The simulation function every workload launches: a closed loop of
/// `steps_per_dump` × `step`, one `write` per variable, `end_iteration`.
///
/// Generic over `SimHandle` so the same code also drives the clients of an
/// embedded `DamarisNode`. Panics on a malformed input, which fails the
/// launch.
pub fn simulate<H: SimHandle>(h: &mut H, input: &[u8]) -> Vec<u8> {
    let entry_ns = now_ns();
    let cpu_start = thread_cpu_ns();
    let input = RunInput::decode(input).expect("launch input decodes");
    // A core of its own for this client (a no-op repeat in the process
    // world, where the whole rank was pinned before it got here).
    pin_to(Placement::new(input.clients as usize).client(h.id()));
    let mut app = input.app.build(input.seed, h.id());
    if let Some(go) = &input.go_file {
        wait_for_file(Path::new(go));
    }

    let mut errors = 0u64;
    let mut iterations = Vec::with_capacity(input.iterations as usize);
    let mut hashes = Vec::new();
    for it in 0..input.iterations {
        let start_ns = now_ns();
        let mut steps = Vec::with_capacity(if input.traced {
            input.steps_per_dump as usize
        } else {
            1
        });
        for _ in 0..input.steps_per_dump {
            app.step();
            if input.traced {
                steps.push(now_ns());
            }
        }
        if !input.traced {
            steps.push(now_ns());
        }
        let fields = app.fields();
        let mut writes = Vec::with_capacity(if input.traced { fields.len() } else { 0 });
        for (name, values) in &fields {
            // A skipped write is not an error here: the skip policy's
            // count comes back through `skipped_iterations`.
            if h.write(name, it, values).is_err() {
                errors += 1;
            }
            if input.traced {
                writes.push(now_ns());
            }
        }
        if h.end_iteration(it).is_err() {
            errors += 1;
        }
        iterations.push(IterStamps {
            start_ns,
            steps,
            writes,
            end_ns: now_ns(),
        });
        // Hashing sits outside the stamped iteration: it is the
        // benchmark's work, not the simulation's.
        if input.samples.contains(&it) {
            for (var, (_, values)) in fields.iter().enumerate() {
                hashes.push((it, var as u64, fnv1a_f64(values)));
            }
        }
    }
    if h.finalize().is_err() {
        errors += 1;
    }
    let cpu_ns = cpu_start
        .zip(thread_cpu_ns())
        .map(|(a, b)| b.saturating_sub(a));
    ClientLog {
        client: h.id() as u64,
        entry_ns,
        exit_ns: now_ns(),
        cpu_ns,
        skipped_iterations: h.skipped_iterations(),
        errors,
        iterations,
        hashes,
    }
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_input_roundtrips() {
        for go_file in [None, Some("/tmp/out dir/go".to_string())] {
            let input = RunInput {
                app: App::Nek,
                seed: 42,
                iterations: 200,
                steps_per_dump: 4,
                clients: 3,
                traced: true,
                samples: vec![0, 100, 199],
                go_file,
            };
            assert_eq!(RunInput::decode(&input.encode()), Some(input));
        }
        assert_eq!(RunInput::decode(&[1, 2, 3]), None);
        let mut bad = RunInput {
            app: App::Cm1,
            seed: 0,
            iterations: 1,
            steps_per_dump: 1,
            clients: 1,
            traced: false,
            samples: Vec::new(),
            go_file: None,
        }
        .encode();
        bad[48] = 0xff; // a sample count far beyond the input's length
        assert_eq!(RunInput::decode(&bad), None);
    }

    #[test]
    fn client_log_roundtrips_traced_and_untraced() {
        let traced = ClientLog {
            client: 2,
            entry_ns: 10,
            exit_ns: 99,
            cpu_ns: Some(55),
            skipped_iterations: 1,
            errors: 0,
            iterations: vec![
                IterStamps {
                    start_ns: 11,
                    steps: vec![12, 13],
                    writes: vec![14, 15, 16],
                    end_ns: 17,
                },
                IterStamps {
                    start_ns: 18,
                    steps: vec![19, 20],
                    writes: vec![21, 22, 23],
                    end_ns: 24,
                },
            ],
            hashes: vec![(0, 1, 0xdead), (1, 0, 0xbeef)],
        };
        assert_eq!(ClientLog::decode(&traced.encode()), Some(traced.clone()));
        let untraced = ClientLog {
            cpu_ns: None,
            iterations: vec![IterStamps {
                start_ns: 1,
                steps: vec![5],
                writes: Vec::new(),
                end_ns: 9,
            }],
            hashes: Vec::new(),
            ..traced
        };
        let back = ClientLog::decode(&untraced.encode()).unwrap();
        assert_eq!(back, untraced);
        assert_eq!(back.iterations[0].iteration_ns(), 8);
        assert_eq!(back.iterations[0].write_phase_ns(), 4);
        let mut cut = untraced.encode();
        cut.truncate(cut.len() - 8);
        assert_eq!(ClientLog::decode(&cut), None);
    }

    #[test]
    fn both_hashes_agree_on_little_endian_bytes() {
        let values = [1.5f64, -0.0, f64::MAX];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(fnv1a_f64(&values), fnv1a(&bytes));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn declared_variables_match_the_proxies() {
        for app in [App::Cm1, App::Nek] {
            let proxy = app.build(7, 0);
            let fields = proxy.fields();
            let declared = app.variables();
            assert_eq!(fields.len(), declared.len());
            for ((name, values), (decl, dims)) in fields.iter().zip(declared) {
                assert_eq!(name, decl);
                let points: usize = dims
                    .split(',')
                    .map(|d| d.parse::<usize>().unwrap())
                    .product();
                assert_eq!(values.len(), points);
                assert_eq!(values.len() * 8, app.block_bytes());
            }
        }
    }
}
