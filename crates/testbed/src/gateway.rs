//! Gateway-side pieces: VR specifications, forwarding mechanisms, and the
//! simulated VRI host that LVRM spawns instances into.

use std::net::Ipv4Addr;

use lvrm_click::ClickVr;
use lvrm_core::fault::FaultInjectable;
use lvrm_core::host::{VriHost, VriSpec};
use lvrm_core::vri::LvrmAdapter;
use lvrm_core::{DispatchMode, ReplicaLedger, VrId, VriId};
use lvrm_ipc::VriEndpoint;
use lvrm_net::Frame;
use lvrm_router::{FastVr, Route, RouteTable, VirtualRouter};

/// Which hypervisor cost profile to apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HypervisorKind {
    VmwareServer,
    QemuKvm,
}

/// The forwarding mechanism deployed on the gateway (Experiment 1a's axis).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForwardingMech {
    /// Native Linux IP forwarding in the kernel.
    Native,
    /// A guest VM behind a general-purpose hypervisor, bridged.
    Hypervisor(HypervisorKind),
    /// LVRM hosting VRs in user space.
    Lvrm,
}

impl ForwardingMech {
    pub fn name(self) -> &'static str {
        match self {
            ForwardingMech::Native => "native-linux",
            ForwardingMech::Hypervisor(HypervisorKind::VmwareServer) => "vmware-server",
            ForwardingMech::Hypervisor(HypervisorKind::QemuKvm) => "qemu-kvm",
            ForwardingMech::Lvrm => "lvrm",
        }
    }
}

/// Hosted VR implementation type (the two the paper evaluates, §3.8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VrType {
    /// The minimal "C++ VR".
    Cpp { dummy_load_ns: u64 },
    /// The Click modular router VR.
    Click { dummy_load_ns: u64 },
}

impl VrType {
    pub fn name(self) -> &'static str {
        match self {
            VrType::Cpp { .. } => "cpp",
            VrType::Click { .. } => "click",
        }
    }
}

/// Scenario-level description of one hosted VR.
#[derive(Clone, Debug)]
pub struct VrSpec {
    pub name: String,
    /// Subnet the VR's senders live in (frames classified by source).
    pub sender_subnet: (Ipv4Addr, u8),
    /// Subnet the VR's receivers live in.
    pub receiver_subnet: (Ipv4Addr, u8),
    pub vr_type: VrType,
    /// Admission weight under overload shedding (`None` = the LVRM config's
    /// default weight).
    pub shed_weight: Option<f64>,
    /// Per-VR dispatch override (`None` = the LVRM config's global mode).
    /// `Replicated` spreads every frame across the VR's VRIs and replicates
    /// per-flow state via LVSU batches (DESIGN.md §14).
    pub dispatch: Option<DispatchMode>,
    /// Extra VRI service cost charged per payload byte, modelling
    /// compute-bound per-frame work (deep inspection, crypto). This is what
    /// makes a single elephant flow saturate one core while its ACKs stay
    /// cheap.
    pub per_byte_load_ns: u64,
}

impl VrSpec {
    /// The k-th VR of a scenario: senders in `10.k.1.0/24`, receivers in
    /// `10.k.2.0/24`.
    pub fn numbered(k: usize, vr_type: VrType) -> VrSpec {
        VrSpec {
            name: format!("vr{k}"),
            sender_subnet: (Ipv4Addr::new(10, k as u8, 1, 0), 24),
            receiver_subnet: (Ipv4Addr::new(10, k as u8, 2, 0), 24),
            vr_type,
            shed_weight: None,
            dispatch: None,
            per_byte_load_ns: 0,
        }
    }

    /// Builder-style admission-weight override.
    pub fn with_shed_weight(mut self, weight: f64) -> VrSpec {
        self.shed_weight = Some(weight);
        self
    }

    /// Builder-style dispatch-mode override.
    pub fn with_dispatch(mut self, mode: DispatchMode) -> VrSpec {
        self.dispatch = Some(mode);
        self
    }

    /// Builder-style per-byte service-cost override.
    pub fn with_per_byte_load_ns(mut self, ns: u64) -> VrSpec {
        self.per_byte_load_ns = ns;
        self
    }

    /// An address for host `h` on the sender side.
    pub fn sender_ip(&self, h: u8) -> Ipv4Addr {
        let o = self.sender_subnet.0.octets();
        Ipv4Addr::new(o[0], o[1], o[2], h)
    }

    /// An address for host `h` on the receiver side.
    pub fn receiver_ip(&self, h: u8) -> Ipv4Addr {
        let o = self.receiver_subnet.0.octets();
        Ipv4Addr::new(o[0], o[1], o[2], h)
    }

    /// Both subnets, for LVRM classification (forward traffic and replies).
    pub fn subnets(&self) -> [(Ipv4Addr, u8); 2] {
        [self.sender_subnet, self.receiver_subnet]
    }

    /// Build the router template for this VR: interface 0 faces the sender
    /// sub-network, interface 1 the receiver sub-network (Fig. 4.1).
    pub fn build_router(&self) -> Box<dyn VirtualRouter> {
        match self.vr_type {
            VrType::Cpp { dummy_load_ns } => {
                let mut routes = RouteTable::new();
                routes.insert(Route {
                    prefix: self.receiver_subnet.0,
                    len: self.receiver_subnet.1,
                    iface: 1,
                    next_hop: None,
                });
                routes.insert(Route {
                    prefix: self.sender_subnet.0,
                    len: self.sender_subnet.1,
                    iface: 0,
                    next_hop: None,
                });
                Box::new(FastVr::new(&self.name, routes).with_dummy_load_ns(dummy_load_ns))
            }
            VrType::Click { dummy_load_ns } => {
                let cfg = "FromDevice(0) -> ToDevice(1); FromDevice(1) -> ToDevice(0);";
                Box::new(
                    ClickVr::from_config(&self.name, cfg)
                        .expect("static minimal-forwarding config compiles")
                        .with_dummy_load_ns(dummy_load_ns),
                )
            }
        }
    }
}

/// A VRI living inside the simulation.
pub struct SimVriSlot {
    pub spec: VriSpec,
    /// The VRI's side of the queues, wrapped in the production
    /// `fromLVRM()`/`toLVRM()` adapter so service-rate estimation and
    /// reporting run in simulation exactly as on real threads (§3.6).
    /// `None` once the slot is dead and its endpoint moved to the host's
    /// reap stash.
    pub adapter: Option<LvrmAdapter>,
    pub router: Box<dyn VirtualRouter>,
    pub alive: bool,
    /// Fault injection: a stalled slot stops servicing its queues (and thus
    /// stops heartbeating) while its endpoint stays attached.
    pub stalled: bool,
    /// Spawn completes (and polling may begin) at this simulated time.
    pub active_after_ns: u64,
    /// A `VriPoll` event is in flight for this slot.
    pub poll_scheduled: bool,
    pub processed: u64,
    /// Replicated-dispatch state books (DESIGN.md §14). Lazily created by
    /// the world on the first poll of a slot whose VR runs replicated.
    pub ledger: Option<ReplicaLedger>,
}

/// The simulated host: LVRM spawns VRIs as slots; the world schedules their
/// poll events and charges their core time.
#[derive(Default)]
pub struct SimHost {
    pub slots: Vec<SimVriSlot>,
    /// Slot indices spawned since the world last drained this list.
    pub newly_spawned: Vec<usize>,
    /// Kills since last drained (for charging teardown cost).
    pub newly_killed: Vec<usize>,
    /// Endpoints of dead slots, awaiting [`VriHost::reap_endpoint`].
    pub reapable: Vec<(VriId, VriEndpoint<Frame>)>,
}

impl SimHost {
    /// Find the live slot for a VRI id.
    pub fn slot_of(&self, vri: VriId) -> Option<usize> {
        self.slots.iter().position(|s| s.alive && s.spec.vri == vri)
    }

    /// Live VRI count per VR id.
    pub fn live_count(&self, vr: VrId) -> usize {
        self.slots.iter().filter(|s| s.alive && s.spec.vr == vr).count()
    }

    /// Retire a slot: move its endpoint to the reap stash, then detach.
    /// Stash-before-detach means the supervisor can always recover the
    /// in-flight frames of an endpoint it observes as detached.
    fn retire_slot(&mut self, i: usize) {
        self.slots[i].alive = false;
        if let Some(adapter) = self.slots[i].adapter.take() {
            let vri = self.slots[i].spec.vri;
            let endpoint = adapter.into_endpoint();
            let attachment = endpoint.attachment();
            self.reapable.push((vri, endpoint));
            attachment.detach();
        }
    }
}

impl VriHost for SimHost {
    fn spawn_vri(
        &mut self,
        spec: VriSpec,
        endpoint: VriEndpoint<Frame>,
        router: Box<dyn VirtualRouter>,
    ) {
        self.newly_spawned.push(self.slots.len());
        self.slots.push(SimVriSlot {
            spec,
            adapter: Some(LvrmAdapter::new(spec.vri, endpoint)),
            router,
            alive: true,
            stalled: false,
            active_after_ns: 0,
            poll_scheduled: false,
            processed: 0,
            ledger: None,
        });
    }

    fn kill_vri(&mut self, vr: VrId, vri: VriId) {
        if let Some(i) =
            self.slots.iter().position(|s| s.alive && s.spec.vr == vr && s.spec.vri == vri)
        {
            self.retire_slot(i);
            self.newly_killed.push(i);
        }
    }

    fn reap_endpoint(&mut self, vri: VriId) -> Option<VriEndpoint<Frame>> {
        let pos = self.reapable.iter().position(|(id, _)| *id == vri)?;
        Some(self.reapable.remove(pos).1)
    }
}

impl FaultInjectable for SimHost {
    fn inject_crash(&mut self, vri: VriId) {
        // Unlike `kill_vri`, a crash is not monitor work: nothing lands in
        // `newly_killed`, so no teardown cost is charged to LVRM's core.
        if let Some(i) = self.slot_of(vri) {
            self.retire_slot(i);
        }
    }

    fn inject_stall(&mut self, vri: VriId, on: bool) {
        if let Some(i) = self.slot_of(vri) {
            self.slots[i].stalled = on;
        }
    }

    fn inject_ctrl_loss(&mut self, vri: VriId, on: bool) {
        if let Some(i) = self.slot_of(vri) {
            if let Some(adapter) = self.slots[i].adapter.as_mut() {
                adapter.set_heartbeats(!on);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_core::topology::CoreId;
    use lvrm_net::FrameBuilder;
    use lvrm_router::RouterAction;

    #[test]
    fn numbered_vr_addressing() {
        let v = VrSpec::numbered(2, VrType::Cpp { dummy_load_ns: 0 });
        assert_eq!(v.sender_ip(5), Ipv4Addr::new(10, 2, 1, 5));
        assert_eq!(v.receiver_ip(9), Ipv4Addr::new(10, 2, 2, 9));
        assert_eq!(v.subnets()[0].0, Ipv4Addr::new(10, 2, 1, 0));
    }

    #[test]
    fn cpp_router_forwards_both_directions() {
        let v = VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 7 });
        let mut r = v.build_router();
        assert_eq!(r.dummy_load_ns(), 7);
        let mut fwd = FrameBuilder::new(v.sender_ip(1), v.receiver_ip(1)).udp(1, 2, &[]);
        assert_eq!(r.process(&mut fwd), RouterAction::Forward { iface: 1 });
        let mut rev = FrameBuilder::new(v.receiver_ip(1), v.sender_ip(1)).udp(2, 1, &[]);
        assert_eq!(r.process(&mut rev), RouterAction::Forward { iface: 0 });
    }

    #[test]
    fn click_router_uses_ingress_interface() {
        let v = VrSpec::numbered(0, VrType::Click { dummy_load_ns: 0 });
        let mut r = v.build_router();
        let mut f = FrameBuilder::new(v.sender_ip(1), v.receiver_ip(1)).udp(1, 2, &[]);
        f.ingress_if = 0;
        assert_eq!(r.process(&mut f), RouterAction::Forward { iface: 1 });
        let mut back = FrameBuilder::new(v.receiver_ip(1), v.sender_ip(1)).udp(2, 1, &[]);
        back.ingress_if = 1;
        assert_eq!(r.process(&mut back), RouterAction::Forward { iface: 0 });
    }

    #[test]
    fn click_is_costlier_than_cpp() {
        let cpp = VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 0 }).build_router();
        let click = VrSpec::numbered(0, VrType::Click { dummy_load_ns: 0 }).build_router();
        assert!(click.nominal_cost_ns() > cpp.nominal_cost_ns());
    }

    #[test]
    fn sim_host_lifecycle() {
        let mut host = SimHost::default();
        let (_, ep) = lvrm_ipc::channels::vri_channels::<Frame>(4, 2, None);
        let spec = VriSpec { vr: VrId(0), vri: VriId(3), core: CoreId(1) };
        host.spawn_vri(
            spec,
            ep,
            VrSpec::numbered(0, VrType::Cpp { dummy_load_ns: 0 }).build_router(),
        );
        assert_eq!(host.newly_spawned, vec![0]);
        assert_eq!(host.slot_of(VriId(3)), Some(0));
        assert_eq!(host.live_count(VrId(0)), 1);
        host.kill_vri(VrId(0), VriId(3));
        assert_eq!(host.newly_killed, vec![0]);
        assert_eq!(host.slot_of(VriId(3)), None);
        assert_eq!(host.live_count(VrId(0)), 0);
    }
}
