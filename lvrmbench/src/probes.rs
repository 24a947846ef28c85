//! Single-threaded probes of layers the driver cannot wrap from outside.
//!
//! The VRI side runs inside `ThreadHost` threads, and classify, balance and
//! the flow table run inside `Lvrm::ingress_batch`. Each probe replays the
//! workload's own generated frames through one layer's public function on
//! the driver thread, for a fixed time budget.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use lvrm_core::{BalanceCtx, FlowTable, VriId};
use lvrm_ipc::QueueKind;
use lvrm_net::{FlowKey, Frame};
use lvrm_router::{Route, RouteTable};

use crate::harness::{build_router, lvrm_config};
use crate::workload::{Inputs, Spec};

const BUDGET: Duration = Duration::from_millis(100);

pub struct Probes {
    pub classify_ns: f64,
    /// 0 when the workload uses no flow table.
    pub flowtable_ns: f64,
    pub pick_ns: f64,
    pub vr_ns: f64,
    pub vr_allocs_per_frame: f64,
    pub spsc_ns: f64,
}

/// Call `op(i)` for i = 0, 1, ... until the budget is spent; ns per call.
fn timed(mut op: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    let mut i = 0usize;
    loop {
        for _ in 0..256 {
            op(i);
            i += 1;
        }
        let dt = t0.elapsed();
        if dt >= BUDGET {
            return dt.as_nanos() as f64 / i as f64;
        }
    }
}

pub fn run(spec: &Spec, inputs: &Inputs) -> Probes {
    let config = lvrm_config(spec);
    let inside: Vec<&Frame> =
        inputs.pool.iter().zip(&inputs.outside).filter(|(_, o)| !**o).map(|(f, _)| f).collect();
    let n = inside.len();

    let mut classifier = RouteTable::new();
    for (prefix, len) in &inputs.subnets {
        classifier.insert(Route { prefix: *prefix, len: *len, iface: 0, next_hop: None });
    }
    let srcs: Vec<Ipv4Addr> = inputs.pool.iter().map(|f| f.src_ip().expect("IPv4")).collect();
    let classify_ns = timed(|i| {
        black_box(classifier.lookup(black_box(srcs[i % srcs.len()])));
    });

    let keys: Vec<FlowKey> = inside.iter().map(|f| FlowKey::from_frame(f).expect("UDP")).collect();
    let flowtable_ns = if config.flow_based {
        let mut table = FlowTable::new(config.flow_table_capacity, config.flow_timeout_ns);
        timed(|i| {
            let key = &keys[i % n];
            if table.find_and_touch(key, i as u64).is_none() {
                table.insert(*key, VriId(0), i as u64);
            }
        })
    } else {
        0.0
    };

    let mut balancer = config.build_balancer();
    let (vris, loads, valid) = ([VriId(0)], [0.0], [true]);
    let pick_ns = timed(|i| {
        let ctx = BalanceCtx { vris: &vris, loads: &loads, valid: &valid, now_ns: i as u64 };
        black_box(balancer.pick(inside[i % n], &ctx));
    });

    let mut router = build_router(spec, inputs);
    crate::alloc::enable(true);
    let allocs0 = crate::alloc::driver_count();
    let mut processed = 0u64;
    let vr_ns = timed(|i| {
        let mut f = inside[i % n].clone();
        black_box(router.process(&mut f));
        processed += 1;
    });
    let vr_allocs_per_frame = (crate::alloc::driver_count() - allocs0) as f64 / processed as f64;
    crate::alloc::enable(false);

    let batch = config.batch_size.max(1);
    let (mut tx, mut rx) = lvrm_ipc::queue::<Frame>(QueueKind::Lamport, config.data_queue_capacity);
    let mut burst: Vec<Frame> = Vec::with_capacity(batch);
    let mut out: Vec<Frame> = Vec::with_capacity(batch);
    let spsc_ns = timed(|i| {
        for j in 0..batch {
            burst.push(inside[(i * batch + j) % n].clone());
        }
        tx.try_send_batch(&mut burst);
        rx.try_recv_batch(&mut out, batch);
        black_box(&out);
        out.clear();
        burst.clear();
    }) / batch as f64;

    Probes { classify_ns, flowtable_ns, pick_ns, vr_ns, vr_allocs_per_frame, spsc_ns }
}
