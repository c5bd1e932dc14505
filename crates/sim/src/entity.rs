//! The entity store.
//!
//! Game objects live in a fixed-capacity slot array. During the
//! parallel request-processing phase, multiple server threads mutate
//! entities concurrently; correctness comes from the region-locking
//! protocol (a thread only touches entities inside regions it has
//! locked), which Rust cannot see. As with the areanode
//! `LinkTable`, slots are `UnsafeCell`s behind a safe API with
//! *dynamic protocol checking*: when checking is enabled, mutation
//! requires the entity to have been claimed by the accessing task
//! (the server claims every candidate it gathered under its region
//! locks, and releases them when the locks drop).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parquake_areanode::NodeId;
use parquake_math::{Aabb, Vec3};
use parquake_protocol::EntityKind;

/// Entity slot index (also the wire id).
pub type EntityId = u16;

/// Sentinel for "no owner" in the claim table.
const NO_OWNER: u32 = u32::MAX;

/// Item categories, mapped from generator class bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemClass {
    Health,
    Armor,
    Ammo,
    Weapon,
    Powerup,
}

impl ItemClass {
    /// Map a generator class byte onto an item class.
    pub fn from_class_byte(b: u8) -> ItemClass {
        match b % 5 {
            0 => ItemClass::Health,
            1 => ItemClass::Armor,
            2 => ItemClass::Ammo,
            3 => ItemClass::Weapon,
            _ => ItemClass::Powerup,
        }
    }

    /// Respawn delay after pickup, in nanoseconds (Quake-ish values).
    pub fn respawn_ns(self) -> u64 {
        match self {
            ItemClass::Health => 15_000_000_000,
            ItemClass::Armor => 20_000_000_000,
            ItemClass::Ammo => 15_000_000_000,
            ItemClass::Weapon => 30_000_000_000,
            ItemClass::Powerup => 60_000_000_000,
        }
    }
}

/// Kind-specific entity state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EntityClass {
    Player {
        client_id: u32,
        health: i32,
        score: i32,
        /// Set when dead; the world phase respawns the player.
        dead: bool,
        /// Deferred far relocation (teleporter / respawn), applied by
        /// the world phase — see DESIGN.md on long-range effects.
        pending_relocation: Option<Vec3>,
    },
    Item {
        class: ItemClass,
        /// When taken, the world phase reactivates it at this time.
        respawn_at: u64,
        taken: bool,
    },
    Projectile {
        owner: EntityId,
        expire_at: u64,
        /// In flight (false = slot idle, reusable by its owner).
        live: bool,
    },
    Teleporter {
        dest: Vec3,
    },
}

/// A game object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entity {
    pub id: EntityId,
    pub class: EntityClass,
    /// Origin in world space.
    pub pos: Vec3,
    pub vel: Vec3,
    pub yaw: f32,
    pub pitch: f32,
    pub on_ground: bool,
    /// Collision box relative to the origin.
    pub mins: Vec3,
    pub maxs: Vec3,
    /// Areanode the entity is currently linked to (meaningful only
    /// when `linked` is true).
    pub linked_node: NodeId,
    /// Whether the entity is currently present in an areanode object
    /// list. Retired projectiles and despawned players are unlinked.
    pub linked: bool,
    /// Inactive entities are invisible and intangible (taken items,
    /// idle projectile slots, unspawned players).
    pub active: bool,
}

impl Entity {
    /// Absolute bounding box at the current position.
    #[inline]
    pub fn abs_box(&self) -> Aabb {
        Aabb::new(self.pos + self.mins, self.pos + self.maxs)
    }

    /// Eye position (for aiming).
    #[inline]
    pub fn eye(&self) -> Vec3 {
        self.pos + Vec3::new(0.0, 0.0, self.maxs.z - 8.0)
    }

    /// Wire kind for replies.
    pub fn wire_kind(&self) -> EntityKind {
        match self.class {
            EntityClass::Player { .. } => EntityKind::Player,
            EntityClass::Item { .. } => EntityKind::Item,
            EntityClass::Projectile { .. } => EntityKind::Projectile,
            EntityClass::Teleporter { .. } => EntityKind::Teleporter,
        }
    }

    /// Wire state byte for replies (kind-specific summary).
    pub fn wire_state(&self) -> u8 {
        match self.class {
            EntityClass::Player { health, dead, .. } => {
                if dead {
                    0
                } else {
                    (health.clamp(0, 200) as u8).max(1)
                }
            }
            EntityClass::Item { taken, .. } => u8::from(!taken),
            EntityClass::Projectile { live, .. } => u8::from(live),
            EntityClass::Teleporter { .. } => 1,
        }
    }

    /// Is this a live player?
    pub fn is_live_player(&self) -> bool {
        matches!(self.class, EntityClass::Player { dead: false, .. }) && self.active
    }
}

/// What a broad-phase test asks of an entity, packed: the absolute box,
/// three bits and a change stamp. Gathers, sweeps and the hitscan walk
/// read rows — 32 contiguous bytes each — and copy the full [`Entity`]
/// only for the survivors; the world phase's item-respawn scan reads
/// the taken bit, and the interest index re-snapshots only the rows
/// whose stamp moved since it last looked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// [`Entity::abs_box`].
    pub bounds: Aabb,
    flags: u32,
    stamp: u32,
}

impl Row {
    const ACTIVE: u32 = 1;
    const LIVE_PLAYER: u32 = 2;
    const TAKEN: u32 = 4;

    fn of(e: &Entity, stamp: u32) -> Row {
        let taken = matches!(e.class, EntityClass::Item { taken: true, .. });
        Row {
            bounds: e.abs_box(),
            flags: (u32::from(e.active) * Row::ACTIVE)
                | (u32::from(e.is_live_player()) * Row::LIVE_PLAYER)
                | (u32::from(taken) * Row::TAKEN),
            stamp,
        }
    }

    /// [`Entity::active`].
    #[inline]
    pub fn active(&self) -> bool {
        self.flags & Row::ACTIVE != 0
    }

    /// [`Entity::is_live_player`].
    #[inline]
    pub fn live_player(&self) -> bool {
        self.flags & Row::LIVE_PLAYER != 0
    }

    /// Is this an item waiting to respawn?
    #[inline]
    pub fn taken(&self) -> bool {
        self.flags & Row::TAKEN != 0
    }

    /// Bumped (wrapping) by every write to the entity: two reads of a
    /// slot with equal stamps saw the same entity, unless 2³² writes
    /// fell between them.
    #[inline]
    pub fn stamp(&self) -> u32 {
        self.stamp
    }
}

struct Slot {
    ent: UnsafeCell<Entity>,
    owner: AtomicU32,
}

/// Source of [`EntityStore::id`]s.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// Fixed-capacity entity storage with dynamic access-protocol checks.
pub struct EntityStore {
    /// Unique per store in the process: row stamps are per store, so a
    /// reader that remembers stamps remembers which store they came from.
    id: u64,
    slots: Vec<Slot>,
    /// One [`Row`] per slot, rewritten (and its stamp bumped) by
    /// [`EntityStore::init`] and [`EntityStore::with_mut`] — the only
    /// two writers of an entity — and so under the very protocol that
    /// guards the slot.
    rows: Vec<UnsafeCell<Row>>,
    checking: AtomicBool,
}

// SAFETY: concurrent mutation is governed by the region-locking
// protocol; with checking enabled every write verifies the claim.
unsafe impl Sync for EntityStore {}
unsafe impl Send for EntityStore {}

impl EntityStore {
    /// A store of `capacity` inactive placeholder entities.
    pub fn new(capacity: usize) -> EntityStore {
        assert!(capacity <= EntityId::MAX as usize + 1);
        let placeholder = |i: usize| Entity {
            id: i as EntityId,
            class: EntityClass::Teleporter { dest: Vec3::ZERO },
            pos: Vec3::ZERO,
            vel: Vec3::ZERO,
            yaw: 0.0,
            pitch: 0.0,
            on_ground: false,
            mins: Vec3::ZERO,
            maxs: Vec3::ZERO,
            linked_node: 0,
            linked: false,
            active: false,
        };
        EntityStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            slots: (0..capacity)
                .map(|i| Slot {
                    ent: UnsafeCell::new(placeholder(i)),
                    owner: AtomicU32::new(NO_OWNER),
                })
                .collect(),
            rows: (0..capacity)
                .map(|i| UnsafeCell::new(Row::of(&placeholder(i), 0)))
                .collect(),
            checking: AtomicBool::new(false),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// This store's process-unique identity (see [`Row::stamp`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Toggle access-protocol checking (the parallel server enables it
    /// for the request-processing phase in checked builds).
    pub fn set_checking(&self, on: bool) {
        self.checking.store(on, Ordering::Release);
    }

    pub fn is_checking(&self) -> bool {
        self.checking.load(Ordering::Acquire)
    }

    /// Claim exclusive write access for `task`. Panics if the entity is
    /// already claimed by another task (protocol violation) when
    /// checking is enabled.
    pub fn claim(&self, id: EntityId, task: u32) {
        if self.is_checking() {
            let r = self.slots[id as usize].owner.compare_exchange(
                NO_OWNER,
                task,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            if let Err(prev) = r {
                assert_eq!(
                    prev, task,
                    "entity access violation: entity {id} claimed by task {prev}, \
                     task {task} attempted to claim it"
                );
            }
        }
    }

    /// Release a claim.
    pub fn release(&self, id: EntityId, task: u32) {
        if self.is_checking() {
            let _ = self.slots[id as usize].owner.compare_exchange(
                task,
                NO_OWNER,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    /// Copy out an entity's state (reads are unchecked: replies read
    /// global state in the read-only reply phase).
    #[inline]
    pub fn snapshot(&self, id: EntityId) -> Entity {
        // SAFETY: protocol—concurrent writers hold distinct regions and
        // readers run in read-only phases; a torn read would indicate a
        // protocol violation caught by the write checks in checked runs.
        unsafe { *self.slots[id as usize].ent.get() }
    }

    /// Copy out an entity's packed row (same protocol as `snapshot`).
    #[inline]
    pub fn row(&self, id: EntityId) -> Row {
        // SAFETY: as `snapshot` — rows are written where entities are.
        unsafe { *self.rows[id as usize].get() }
    }

    /// Mutate an entity under the access protocol.
    pub fn with_mut<R>(&self, id: EntityId, task: u32, f: impl FnOnce(&mut Entity) -> R) -> R {
        if self.is_checking() {
            let owner = self.slots[id as usize].owner.load(Ordering::Acquire);
            assert_eq!(
                owner, task,
                "entity access violation: task {task} wrote entity {id} owned by {owner}"
            );
        }
        // SAFETY: claim verified above when checking; otherwise the
        // phase protocol guarantees exclusivity.
        let ent = unsafe { &mut *self.slots[id as usize].ent.get() };
        let r = f(ent);
        // SAFETY: the exclusivity that covers the entity covers its row.
        unsafe { self.rewrite_row(id, ent) };
        r
    }

    /// Unchecked initialization/system mutation — only for
    /// single-threaded contexts (setup, the world phase, tests); takes
    /// `task` only for symmetry.
    pub fn init(&self, id: EntityId, ent: Entity) {
        // SAFETY: single-threaded by contract.
        unsafe {
            *self.slots[id as usize].ent.get() = ent;
            self.rewrite_row(id, &ent);
        }
    }

    /// Re-derive `id`'s row from `ent`, bumping its stamp.
    ///
    /// # Safety
    /// The caller has exclusive access to slot `id`.
    unsafe fn rewrite_row(&self, id: EntityId, ent: &Entity) {
        // SAFETY: exclusive by the caller's contract.
        let row = unsafe { &mut *self.rows[id as usize].get() };
        *row = Row::of(ent, row.stamp.wrapping_add(1));
    }

    /// Iterate ids of active entities (snapshot-based).
    pub fn active_ids(&self) -> Vec<EntityId> {
        (0..self.capacity() as EntityId)
            .filter(|&i| self.row(i).active())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_math::vec3::vec3;

    fn player(id: EntityId) -> Entity {
        Entity {
            id,
            class: EntityClass::Player {
                client_id: id as u32,
                health: 100,
                score: 0,
                dead: false,
                pending_relocation: None,
            },
            pos: vec3(10.0, 20.0, 30.0),
            vel: Vec3::ZERO,
            yaw: 0.0,
            pitch: 0.0,
            on_ground: true,
            mins: vec3(-16.0, -16.0, -24.0),
            maxs: vec3(16.0, 16.0, 32.0),
            linked_node: 0,
            linked: false,
            active: true,
        }
    }

    #[test]
    fn snapshot_roundtrips_init() {
        let store = EntityStore::new(8);
        store.init(3, player(3));
        let e = store.snapshot(3);
        assert_eq!(e.pos, vec3(10.0, 20.0, 30.0));
        assert!(e.is_live_player());
    }

    #[test]
    fn row_is_packed_and_follows_every_write() {
        assert_eq!(std::mem::size_of::<Row>(), 32);
        let store = EntityStore::new(4);
        assert!(!store.row(1).active());
        store.init(1, player(1));
        let row = store.row(1);
        assert_eq!(row.bounds, player(1).abs_box());
        assert!(row.active() && row.live_player());
        store.with_mut(1, 0, |e| {
            e.pos.x += 5.0;
            if let EntityClass::Player { dead, .. } = &mut e.class {
                *dead = true;
            }
        });
        let after = store.row(1);
        assert_eq!(after.bounds, store.snapshot(1).abs_box());
        assert!(after.active() && !after.live_player());
        assert_ne!(after.stamp(), row.stamp(), "with_mut bumps the stamp");
        store.init(1, store.snapshot(1));
        assert_ne!(store.row(1).stamp(), after.stamp(), "init bumps the stamp");
    }

    #[test]
    fn taken_bit_follows_the_item_class() {
        let store = EntityStore::new(2);
        let item = |taken| Entity {
            class: EntityClass::Item {
                class: ItemClass::Health,
                respawn_at: 0,
                taken,
            },
            ..player(0)
        };
        store.init(0, item(false));
        assert!(!store.row(0).taken());
        store.init(0, item(true));
        assert!(store.row(0).taken());
        store.init(1, player(1));
        assert!(!store.row(1).taken());
    }

    #[test]
    fn every_store_has_its_own_id() {
        assert_ne!(EntityStore::new(1).id(), EntityStore::new(1).id());
    }

    #[test]
    fn abs_box_is_positioned() {
        let e = player(0);
        let b = e.abs_box();
        assert_eq!(b.min, vec3(-6.0, 4.0, 6.0));
        assert_eq!(b.max, vec3(26.0, 36.0, 62.0));
        assert!(e.eye().z > e.pos.z);
    }

    #[test]
    fn claimed_write_succeeds() {
        let store = EntityStore::new(4);
        store.init(1, player(1));
        store.set_checking(true);
        store.claim(1, 7);
        store.with_mut(1, 7, |e| e.pos.x = 99.0);
        store.release(1, 7);
        assert_eq!(store.snapshot(1).pos.x, 99.0);
    }

    #[test]
    #[should_panic(expected = "entity access violation")]
    fn unclaimed_write_panics() {
        let store = EntityStore::new(4);
        store.init(1, player(1));
        store.set_checking(true);
        store.with_mut(1, 7, |e| e.pos.x = 99.0);
    }

    #[test]
    #[should_panic(expected = "entity access violation")]
    fn cross_task_claim_panics() {
        let store = EntityStore::new(4);
        store.set_checking(true);
        store.claim(2, 1);
        store.claim(2, 9);
    }

    #[test]
    fn reclaim_by_same_task_is_idempotent() {
        let store = EntityStore::new(4);
        store.set_checking(true);
        store.claim(2, 1);
        store.claim(2, 1);
        store.release(2, 1);
    }

    #[test]
    fn unchecked_mode_allows_writes() {
        let store = EntityStore::new(4);
        store.init(0, player(0));
        store.set_checking(false);
        store.with_mut(0, 42, |e| e.yaw = 180.0);
        assert_eq!(store.snapshot(0).yaw, 180.0);
    }

    #[test]
    fn wire_state_encodes_class() {
        let mut p = player(0);
        assert_eq!(p.wire_state(), 100);
        if let EntityClass::Player { dead, .. } = &mut p.class {
            *dead = true;
        }
        assert_eq!(p.wire_state(), 0);

        let item = Entity {
            class: EntityClass::Item {
                class: ItemClass::Health,
                respawn_at: 0,
                taken: true,
            },
            ..player(1)
        };
        assert_eq!(item.wire_state(), 0);
        assert_eq!(item.wire_kind(), parquake_protocol::EntityKind::Item);
    }

    #[test]
    fn active_ids_filters() {
        let store = EntityStore::new(4);
        store.init(0, player(0));
        store.init(2, player(2));
        assert_eq!(store.active_ids(), vec![0, 2]);
    }

    #[test]
    fn item_class_mapping_and_respawn() {
        assert_eq!(ItemClass::from_class_byte(0), ItemClass::Health);
        assert_eq!(ItemClass::from_class_byte(9), ItemClass::Powerup);
        assert!(ItemClass::Weapon.respawn_ns() > ItemClass::Health.respawn_ns());
    }
}
