//! Allocation budget of the reply phase, as counts rather than timings.
//!
//! A counting `#[global_allocator]` (per-thread counters, so the test
//! harness's other threads cannot leak into a measurement) holds two
//! lines: a full-state reply costs at most two heap allocations from
//! interest set to wire bytes, and one `match_viewers` call allocates
//! the same number of buffers however many viewers it matches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use parquake_bsp::mapgen::MapGenConfig;
use parquake_interest::{match_viewers, EntityIndex, InterestStats};
use parquake_math::vec3::vec3;
use parquake_math::Pcg32;
use parquake_protocol::{Decode, Encode, ServerMessage, MAX_ENTITIES_PER_REPLY};
use parquake_server::clients::ClientTable;
use parquake_server::visibility_reply::build_reply;
use parquake_sim::{EntityId, GameWorld, WorkCounters};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// 200 players in a line next to player 0: every viewer sees more than
/// a reply holds, so matching takes the nearest-first truncation path
/// and replies carry a full 64 entities.
fn crowd() -> GameWorld {
    let map = Arc::new(MapGenConfig::open_hall(5).generate());
    let world = GameWorld::new(map, 4, 200);
    let mut rng = Pcg32::seeded(5);
    for i in 0..200 {
        world.spawn_player(i, i as u32, &mut rng);
    }
    let p0 = world.store.snapshot(0).pos;
    for i in 1..200u16 {
        world
            .store
            .with_mut(i, 0, |e| e.pos = p0 + vec3(i as f32 * 3.0, 0.0, 0.0));
    }
    world
}

#[test]
fn a_full_state_reply_costs_at_most_two_allocations() {
    let world = crowd();
    let index = EntityIndex::build(&world, &mut WorkCounters::new());
    let frame = match_viewers(
        &world,
        &index,
        &[0],
        &mut WorkCounters::new(),
        &mut InterestStats::default(),
    );
    let set = frame.get(0).expect("viewer 0 matched");
    assert_eq!(set.len(), MAX_ENTITIES_PER_REPLY);
    let table = ClientTable::new(200);
    let slot = table.slot(0);
    let mut work = WorkCounters::new();

    let (allocs, bytes) = allocs_in(|| {
        let reply = build_reply(
            &world,
            0,
            slot,
            1,
            0,
            false,
            Vec::new(),
            Some(set),
            &mut work,
        );
        reply.to_bytes()
    });
    // The `entities` copy the message owns, and the payload.
    assert!(allocs <= 2, "{allocs} allocations for one full-state reply");
    assert_eq!(bytes.capacity(), bytes.len(), "payload carries slack");
    match ServerMessage::from_bytes(&bytes).expect("own encoding decodes") {
        ServerMessage::Reply { entities, .. } => assert_eq!(entities, set),
        other => panic!("not a reply: {other:?}"),
    }
}

#[test]
fn match_viewers_allocates_the_same_for_8_and_64_viewers() {
    let world = crowd();
    let index = EntityIndex::build(&world, &mut WorkCounters::new());
    let allocs_for = |n: EntityId| {
        let viewers: Vec<EntityId> = (0..n).collect();
        let (mut work, mut stats) = (WorkCounters::new(), InterestStats::default());
        let (allocs, frame) =
            allocs_in(|| match_viewers(&world, &index, &viewers, &mut work, &mut stats));
        assert_eq!(frame.len(), n as usize);
        assert_eq!(
            frame.get(n - 1).expect("matched").len(),
            MAX_ENTITIES_PER_REPLY
        );
        allocs
    };
    let (at_8, at_64) = (allocs_for(8), allocs_for(64));
    assert_eq!(at_8, at_64, "allocations grow with the viewer count");
    assert!(at_8 > 0, "the counting allocator is not installed");
}
