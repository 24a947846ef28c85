//! Ablation: lock-free vs lock-based IPC queues (paper §3.5).
//!
//! The paper asserts lock-free synchronization "is more efficient than the
//! lock-based synchronization"; this bench quantifies it for every ring in
//! `lvrm-ipc` — the runtime's Lamport and VLink rings plus the FastForward
//! and mutex ablation rings — same-thread (pure queue cost) and cross-thread
//! (cache-coherence cost included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lvrm_ipc::{for_each_ring, Full};

fn same_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_queue/same_thread");
    g.throughput(Throughput::Elements(1));
    for_each_ring!(|label, new| {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            let (mut tx, mut rx) = new(1024);
            b.iter(|| {
                tx.try_send(std::hint::black_box(42u64)).unwrap();
                std::hint::black_box(rx.try_recv().unwrap());
            });
        });
    });
    g.finish();
}

fn cross_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_queue/cross_thread_100k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(100_000));
    for_each_ring!(|label, new| {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let (mut tx, mut rx) = new(1024);
                let producer = std::thread::spawn(move || {
                    for i in 0..100_000u64 {
                        let mut v = i;
                        loop {
                            match tx.try_send(v) {
                                Ok(()) => break,
                                Err(Full(back)) => {
                                    v = back;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                });
                let mut got = 0u64;
                while got < 100_000 {
                    if rx.try_recv().is_some() {
                        got += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
                producer.join().unwrap();
            });
        });
    });
    g.finish();
}

/// Same-thread batch-size sweep: send a burst, then drain it, in bursts of
/// 1/8/32/256 through `try_send_batch`/`try_recv_batch`. Per-element cost —
/// burst size 1 prices the batch-API overhead itself; larger bursts
/// amortize the atomic index publication to one per burst. Free of
/// scheduler noise, so it isolates exactly what batching buys.
fn batch_same_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_queue/batch_same_thread");
    for_each_ring!(|label, new| {
        for batch in [1usize, 8, 32, 256] {
            g.throughput(Throughput::Elements(batch as u64));
            let id = format!("{label}/b{batch}");
            g.bench_with_input(BenchmarkId::from_parameter(id), &batch, |b, &batch| {
                let (mut tx, mut rx) = new(1024);
                let mut pending: Vec<u64> = Vec::with_capacity(batch);
                let mut out: Vec<u64> = Vec::with_capacity(batch);
                b.iter(|| {
                    pending.clear();
                    pending.extend(0..batch as u64);
                    let sent = tx.try_send_batch(std::hint::black_box(&mut pending));
                    out.clear();
                    let got = rx.try_recv_batch(&mut out, batch);
                    assert_eq!((sent, got), (batch, batch));
                    std::hint::black_box(out.last().copied())
                });
            });
        }
    });
    g.finish();
}

/// Batch-size sweep for the bulk entry points: the same 100k cross-thread
/// transfer as `cross_thread`, but moved in bursts of 1/8/32/256 through
/// `try_send_batch`/`try_recv_batch`. Burst size 1 prices the batch-API
/// overhead itself; larger bursts amortize the index publication and the
/// cache-line handover to one per burst. (Meaningful only on multi-core
/// hosts; on one core the spin loops measure the scheduler.)
fn batch_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_queue/batch_cross_thread_100k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(100_000));
    for_each_ring!(|label, new| {
        for batch in [1usize, 8, 32, 256] {
            let id = format!("{label}/b{batch}");
            g.bench_with_input(BenchmarkId::from_parameter(id), &batch, |b, &batch| {
                b.iter(|| {
                    let (mut tx, mut rx) = new(1024);
                    let producer = std::thread::spawn(move || {
                        let mut pending: Vec<u64> = Vec::with_capacity(batch);
                        let mut next = 0u64;
                        while next < 100_000 || !pending.is_empty() {
                            while pending.len() < batch && next < 100_000 {
                                pending.push(next);
                                next += 1;
                            }
                            if tx.try_send_batch(&mut pending) == 0 {
                                std::hint::spin_loop();
                            }
                        }
                    });
                    let mut out: Vec<u64> = Vec::with_capacity(batch);
                    let mut got = 0usize;
                    while got < 100_000 {
                        out.clear();
                        let n = rx.try_recv_batch(&mut out, batch);
                        if n == 0 {
                            std::hint::spin_loop();
                        } else {
                            got += n;
                        }
                    }
                    producer.join().unwrap();
                });
            });
        }
    });
    g.finish();
}

/// Two-thread ping-pong: the microcosm of Experiment 1e's control-message
/// latency. One round trip = two queue traversals + two cache handovers.
fn ping_pong(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_queue/ping_pong_1k_roundtrips");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1_000));
    for_each_ring!(|label, new| {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let (mut ping_tx, mut ping_rx) = new(16);
                let (mut pong_tx, mut pong_rx) = new(16);
                let echo = std::thread::spawn(move || {
                    for _ in 0..1_000u32 {
                        loop {
                            if let Some(v) = ping_rx.try_recv() {
                                while pong_tx.try_send(v).is_err() {
                                    std::hint::spin_loop();
                                }
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
                for i in 0..1_000u64 {
                    while ping_tx.try_send(i).is_err() {
                        std::hint::spin_loop();
                    }
                    loop {
                        if let Some(v) = pong_rx.try_recv() {
                            assert_eq!(v, i);
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
                echo.join().unwrap();
            });
        });
    });
    g.finish();
}

criterion_group!(benches, same_thread, batch_same_thread, cross_thread, batch_sweep, ping_pong);
criterion_main!(benches);
