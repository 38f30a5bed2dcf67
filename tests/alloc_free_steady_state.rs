//! Steady-state allocation accounting.
//!
//! The action-buffer refactor's contract is that once a world has warmed up —
//! every scratch vector grown, every pool primed, the frame slab at its peak —
//! dispatching further events performs **zero** heap allocations: heartbeats,
//! id exchanges, back-off broadcasts, receptions, timer re-arms and garbage
//! collection all cycle through recycled capacity. This test enforces that
//! contract exactly (not "few allocations": zero), for the frugal protocol
//! and for the simple-flooding baseline, at 12, 250 and 1000 nodes, by
//! counting every heap operation of the test thread inside a steady-state
//! measurement window.
//!
//! The population is stationary so the steady state is genuinely
//! steady: no node ever joins or leaves a neighborhood (an arriving neighbor
//! legitimately allocates its table entry), and the one event published
//! during warm-up stays valid to the end, keeping id exchange and event
//! retransmission active inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use frugal::{FloodingPolicy, ProtocolConfig};
use manet_sim::{
    MobilityKind, ProtocolKind, Publication, PublisherChoice, Scenario, ScenarioBuilder, World,
};
use mobility::Area;
use netsim::RadioConfig;
use simkit::{SimDuration, SimTime};

/// A `System`-backed allocator that counts this thread's heap operations
/// (alloc, alloc_zeroed and realloc — frees are not charged) while a
/// measurement window is open.
struct CountingAlloc;

thread_local! {
    static WINDOW: Cell<Option<u64>> = const { Cell::new(None) };
}

fn charge() {
    WINDOW.with(|window| {
        if let Some(count) = window.get() {
            window.set(Some(count + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the window open and returns how many heap operations it
/// performed on this thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    WINDOW.with(|window| window.set(Some(0)));
    f();
    WINDOW.with(|window| {
        let count = window.get().expect("measurement window still open");
        window.set(None);
        count
    })
}

/// ~8 expected neighbours per node under a 150 m ideal radio.
const DENSITY_PER_M2: f64 = 1.2e-4;

/// A busy stationary population, all subscribed, with one long-validity
/// event published during warm-up: 12 nodes form a full mesh inside one
/// radio range, larger populations spread at a constant density.
fn steady_scenario(protocol: ProtocolKind, nodes: usize) -> Scenario {
    let side = if nodes <= 12 {
        80.0
    } else {
        (nodes as f64 / DENSITY_PER_M2).sqrt()
    };
    ScenarioBuilder::new()
        .label("alloc-steady")
        .protocol(protocol)
        .nodes(nodes)
        .subscriber_fraction(1.0)
        .mobility(MobilityKind::Stationary {
            area: Area::square(side),
        })
        .radio(RadioConfig::ideal(150.0))
        .timing(SimDuration::from_secs(2), SimDuration::from_secs(120))
        .publications(vec![Publication {
            publisher: PublisherChoice::Node(0),
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(3),
            validity: SimDuration::from_secs(115),
            payload_bytes: 400,
        }])
        .mobility_tick(SimDuration::from_millis(500))
        .build()
        .unwrap()
}

/// Warms a world of `nodes` up, counts heap operations over a
/// 50-simulated-second steady-state window, and returns
/// `(allocations, frames_sent)` — the frame total proving the window
/// actually carried traffic.
fn steady_state_allocations(protocol: ProtocolKind, nodes: usize) -> (u64, u64) {
    let mut world = World::new(steady_scenario(protocol, nodes), 1).unwrap();
    // Warm-up: grow every scratch buffer, pool and slab to its peak.
    world.run_until(SimTime::from_secs(60));
    let allocations = count_allocations(|| world.run_until(SimTime::from_secs(110)));
    let report = world.run_mut();
    let frames: u64 = report.nodes.iter().map(|n| n.traffic.frames_sent).sum();
    (allocations, frames)
}

/// The populations checked, each with the frame count its run must exceed:
/// the 12-node mesh, and two sizes where one stray allocation per event
/// would add up to tens of thousands per window.
const POPULATIONS: [(usize, u64); 3] = [(12, 500), (250, 1000), (1000, 1000)];

fn assert_allocation_free(name: &str, protocol: ProtocolKind) {
    for (nodes, min_frames) in POPULATIONS {
        let (allocations, frames) = steady_state_allocations(protocol.clone(), nodes);
        assert!(
            frames > min_frames,
            "{name}/{nodes}: the mesh must stay busy, sent {frames} frames"
        );
        assert_eq!(
            allocations, 0,
            "{name}/{nodes}: the steady state must be allocation free"
        );
    }
}

#[test]
fn frugal_steady_state_allocates_nothing() {
    assert_allocation_free(
        "frugal",
        ProtocolKind::Frugal(ProtocolConfig::paper_default()),
    );
}

#[test]
fn simple_flooding_steady_state_allocates_nothing() {
    assert_allocation_free("flooding", ProtocolKind::Flooding(FloodingPolicy::Simple));
}
