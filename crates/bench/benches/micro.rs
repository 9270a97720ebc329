//! M0 — criterion micro-benchmarks of the substrate layers.
//!
//! The headline micro number is the §IV.B claim: a Damaris "write" costs
//! one shared-memory copy, ~0.1 s for tens of MB, regardless of scale.
//! `shm_write` measures exactly that path (allocate + memcpy + freeze +
//! post) at several payload sizes; the others characterize the event
//! transport, codecs, the h5lite write path and the mini-MPI collectives.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use codec::{Codec, Pipeline};
use damaris_shm::transport::{EventChannel, EventConsumer, EventProducer, ShardedChannel};
use damaris_shm::SharedSegment;
use h5lite::{Dtype, FileWriter};
use mini_mpi::World;

fn cm1_like_bytes(n_doubles: usize) -> Vec<u8> {
    (0..n_doubles)
        .map(|i| {
            if i % 5 == 0 {
                300.0 + (i as f64 * 0.001).sin()
            } else {
                300.0
            }
        })
        .flat_map(|f: f64| f.to_le_bytes())
        .collect()
}

fn bench_shm_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("shm_write");
    group.sample_size(20);
    for mib in [1usize, 8, 45] {
        let bytes = mib << 20;
        let seg = SharedSegment::new(bytes * 2 + (1 << 20)).expect("segment");
        let channel = ShardedChannel::new(1, 16);
        let client = channel.producer(0);
        let mut dedicated = channel.consumer(0, 1);
        let data = vec![300.0f64; bytes / 8];
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mib}MiB")),
            &mib,
            |b, _| {
                b.iter(|| {
                    // The complete sim-side Damaris write path.
                    let mut block = seg.allocate(bytes).expect("allocate");
                    block.write_pod(&data);
                    client.send(block.freeze()).expect("post");
                    let _ = dedicated.recv().expect("drain"); // drop frees the block
                });
            },
        );
    }
    group.finish();
}

/// One full post+drain burst of `producers × EVENTS` events through the
/// transport; the per-iteration time divided by the event count is the
/// event-post cost at growing contention (§IV.B's "independent of scale"
/// claim: it should stay flat as producers are added).
///
/// Producer threads are long-lived and re-armed with a barrier each
/// iteration, so thread spawn/join cost never pollutes the numbers
/// (at 64 producers it would otherwise dominate the sharded figure).
fn bench_transport_post(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;

    const EVENTS: usize = 2_000;

    /// Persistent producer pool: each `fire` runs one burst of
    /// `EVENTS` posts per producer between two barrier crossings.
    struct Pool {
        start: Arc<Barrier>,
        stop: Arc<AtomicBool>,
        handles: Vec<thread::JoinHandle<()>>,
    }

    impl Pool {
        fn spawn(channel: &ShardedChannel<u64>, producers: usize) -> Pool {
            let start = Arc::new(Barrier::new(producers + 1));
            let stop = Arc::new(AtomicBool::new(false));
            let handles = (0..producers)
                .map(|p| {
                    let producer = channel.producer(p);
                    let start = start.clone();
                    let stop = stop.clone();
                    thread::spawn(move || loop {
                        start.wait();
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        for i in 0..EVENTS {
                            producer.send(i as u64).unwrap();
                        }
                    })
                })
                .collect();
            Pool {
                start,
                stop,
                handles,
            }
        }

        /// Run one burst, draining on the calling thread.
        fn fire(&self, mut drain: impl FnMut(), total: usize) {
            self.start.wait();
            for _ in 0..total {
                drain();
            }
        }

        fn shutdown(self) {
            self.stop.store(true, Ordering::Release);
            self.start.wait();
            for h in self.handles {
                h.join().unwrap();
            }
        }
    }

    let mut group = c.benchmark_group("transport_event_post");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    for producers in [1usize, 4, 16, 64] {
        group.throughput(Throughput::Elements((producers * EVENTS) as u64));
        group.bench_with_input(
            BenchmarkId::new("sharded", producers),
            &producers,
            |b, &producers| {
                // Capacity covers the burst: measure posting, not
                // backpressure sleeps.
                let ch = ShardedChannel::<u64>::new(producers, EVENTS);
                let pool = Pool::spawn(&ch, producers);
                let mut consumer = ch.consumer(0, 1);
                b.iter(|| {
                    pool.fire(
                        || {
                            while consumer.try_recv().is_err() {
                                std::hint::spin_loop();
                            }
                        },
                        producers * EVENTS,
                    )
                });
                pool.shutdown();
            },
        );
    }
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(15);
    let data = cm1_like_bytes(512 * 1024); // 4 MiB
    group.throughput(Throughput::Bytes(data.len() as u64));
    for spec in [
        "rle",
        "lzss",
        "xor-delta8,rle",
        "xor-delta8,shuffle8,rle,lzss",
    ] {
        let p = Pipeline::from_spec(spec).expect("valid spec");
        group.bench_with_input(BenchmarkId::new("encode", spec), &p, |b, p| {
            b.iter(|| p.encode(&data));
        });
        let packed = p.encode(&data);
        group.bench_with_input(BenchmarkId::new("decode", spec), &p, |b, p| {
            b.iter(|| p.decode(&packed).expect("roundtrip"));
        });
    }
    group.finish();
}

fn bench_h5lite(c: &mut Criterion) {
    let mut group = c.benchmark_group("h5lite");
    group.sample_size(20);
    let values: Vec<f64> = (0..256 * 1024).map(|i| i as f64).collect(); // 2 MiB
    group.throughput(Throughput::Bytes((values.len() * 8) as u64));
    group.bench_function("write_contiguous_2MiB", |b| {
        b.iter(|| {
            let mut cur = std::io::Cursor::new(Vec::with_capacity(values.len() * 8 + 1024));
            let mut w = FileWriter::new(&mut cur).expect("writer");
            w.dataset("d", Dtype::F64, &[values.len() as u64])
                .expect("dataset")
                .write_pod(&values)
                .expect("write");
            w.finish().expect("finish");
            cur.into_inner()
        });
    });
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("mini_mpi");
    group.sample_size(10);
    group.bench_function("allreduce_8ranks_1k", |b| {
        b.iter(|| {
            World::run(8, |comm| {
                let contrib = vec![comm.rank() as u64; 1024];
                comm.allreduce(&contrib, |a, b| *a += b)
            })
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shm_write,
    bench_transport_post,
    bench_codecs,
    bench_h5lite,
    bench_collectives
);
criterion_main!(benches);
