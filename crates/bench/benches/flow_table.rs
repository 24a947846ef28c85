//! Ablation: hash-table connection tracking vs a linear scan — the paper
//! replaced "the dynamic arrays" with hash tables "for the performance
//! issues in the connection tracking functions, which are called for each
//! incoming data frames" (§3.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lvrm_core::flowtable::FlowTable;
use lvrm_core::VriId;
use lvrm_net::flow::{FlowKey, Protocol};
use std::net::Ipv4Addr;

fn keys(n: u16) -> Vec<FlowKey> {
    (0..n)
        .map(|i| FlowKey {
            src: Ipv4Addr::new(10, 0, 1, (i % 250) as u8 + 1),
            dst: Ipv4Addr::new(10, 0, 2, 1),
            src_port: 10_000 + i,
            dst_port: 80,
            proto: Protocol::Tcp,
        })
        .collect()
}

/// The "dynamic array" the paper moved away from.
struct LinearTable(Vec<(FlowKey, VriId)>);

impl LinearTable {
    fn find(&self, k: &FlowKey) -> Option<VriId> {
        self.0.iter().find(|(key, _)| key == k).map(|(_, v)| *v)
    }
}

fn lookup(c: &mut Criterion) {
    for n in [64u16, 512, 2048] {
        let ks = keys(n);
        let mut g = c.benchmark_group(format!("flow_table/lookup_{n}_flows"));
        g.throughput(Throughput::Elements(1));

        let mut hash = FlowTable::new(n as usize * 2, u64::MAX);
        for (i, k) in ks.iter().enumerate() {
            hash.insert(*k, VriId(i as u32 % 6), 0);
        }
        let mut i = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter("hash"), &(), |b, _| {
            b.iter(|| {
                let k = &ks[i % ks.len()];
                i += 1;
                std::hint::black_box(hash.find_and_touch(k, 1))
            });
        });

        let linear =
            LinearTable(ks.iter().enumerate().map(|(i, k)| (*k, VriId(i as u32 % 6))).collect());
        let mut j = 0usize;
        g.bench_with_input(BenchmarkId::from_parameter("linear"), &(), |b, _| {
            b.iter(|| {
                let k = &ks[j % ks.len()];
                j += 1;
                std::hint::black_box(linear.find(k))
            });
        });
        g.finish();
    }
}

/// A table at capacity, as under router-mix's overflowing working set: a
/// missing key's lookup, then the insert the balancer attempts for it,
/// which the full table refuses.
fn full_table(c: &mut Criterion) {
    let ks = keys(8192);
    let (stored, missing) = ks.split_at(4096);
    let mut g = c.benchmark_group("flow_table/full_4096");
    g.throughput(Throughput::Elements(1));

    let mut hash = FlowTable::new(stored.len(), u64::MAX);
    for (i, k) in stored.iter().enumerate() {
        assert!(hash.insert(*k, VriId(i as u32 % 6), 0));
    }
    let mut i = 0usize;
    g.bench_with_input(BenchmarkId::from_parameter("miss_then_refused_insert"), &(), |b, _| {
        b.iter(|| {
            let k = &missing[i % missing.len()];
            i += 1;
            let hit = hash.find_and_touch(k, 1);
            std::hint::black_box((hit, hash.insert(*k, VriId(0), 1)))
        });
    });
    assert_eq!(hash.len(), stored.len());
    g.finish();
}

criterion_group!(benches, lookup, full_table);
criterion_main!(benches);
